// Command parsl-cwl-worker is the execution endpoint of the Parsl+CWL
// engine's out-of-process providers. It speaks the worker session protocol —
// 4-byte big-endian length-prefixed frames, a versioned JSON hello/ack
// handshake, batched binary run requests executed on -capacity slots with
// responses in completion order, and heartbeat/drain/bye session frames —
// over one of two transports:
//
//   - Pipe mode (default): the engine's ProcessProvider launched this worker
//     and owns its stdin/stdout. Closing stdin asks the worker to drain and
//     exit. stdout belongs to the protocol; diagnostics go to stderr.
//   - Network mode (-connect host:port): the worker dials the engine's
//     interchange listener, optionally over TLS, registers with an identity
//     and the shared secret, and serves tasks until the engine drains it
//     (reconnecting on broken connections unless -reconnect=false).
//
// In both modes SIGTERM/SIGINT triggers a graceful drain: every task already
// received finishes, the responses are sent, the worker deregisters with a
// bye frame and exits 0. The worker is stateless between tasks — a crash
// costs only the tasks in flight on it, which the engine re-dispatches.
package main

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fabric"
	"repro/internal/provider"
)

func main() {
	printVersion := flag.Bool("version", false, "print the protocol version and exit")
	connect := flag.String("connect", "", "dial this interchange address instead of serving on stdin/stdout")
	secret := flag.String("secret", os.Getenv("PCWL_NET_SECRET"),
		"shared secret for the interchange (default $PCWL_NET_SECRET)")
	id := flag.String("id", "", "worker identity announced to the interchange (default host-pid derived)")
	capacity := flag.Int("capacity", provider.DefaultCapacity(),
		"task slots: run at most this many tasks at once, start the rest in arrival order (announced in the hello; default one per CPU)")
	useTLS := flag.Bool("tls", false, "dial the interchange over TLS using the system trust roots")
	tlsCA := flag.String("tls-ca", "", "PEM file to trust for the interchange's TLS certificate (implies TLS)")
	tlsServerName := flag.String("tls-server-name", "", "expected TLS server name (default: the -connect host)")
	tlsInsecure := flag.Bool("tls-insecure", false, "dial TLS without verifying the server certificate (implies TLS; testing only)")
	reconnect := flag.Bool("reconnect", true, "redial the interchange when the connection breaks (network mode)")
	reconnectWait := flag.Duration("reconnect-wait", 0, "initial delay between redial attempts, doubling to 30s with ±25% jitter (0 = default 1s)")
	maxAttempts := flag.Int("max-attempts", 0, "consecutive failed sessions before giving up when reconnecting (0 = unlimited)")
	flag.Parse()

	if *printVersion {
		fmt.Printf("parsl-cwl-worker protocol %d\n", provider.ProtoVersion)
		return
	}

	logger := log.New(os.Stderr, "parsl-cwl-worker: ", 0)

	// SIGTERM/SIGINT ask for a graceful drain in both modes: finish
	// in-flight tasks, send their responses and a bye, exit 0. A second
	// signal falls through to the runtime's default (hard exit).
	drain := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigs
		logger.Printf("received %s, draining", s)
		close(drain)
		signal.Stop(sigs)
	}()

	var err error
	if *connect == "" {
		err = provider.RunPipeWorker(os.Stdin, os.Stdout, drain, *capacity)
	} else {
		tlsConf, terr := clientTLS(*useTLS, *tlsCA, *tlsServerName, *tlsInsecure)
		if terr != nil {
			logger.Fatalln(terr)
		}
		err = fabric.RunWorker(fabric.ConnectOptions{
			Addr:          *connect,
			Secret:        *secret,
			TLS:           tlsConf,
			ID:            *id,
			Capacity:      *capacity,
			Reconnect:     *reconnect,
			ReconnectWait: *reconnectWait,
			MaxAttempts:   *maxAttempts,
			Drain:         drain,
			Logf:          logger.Printf,
		})
	}
	if err != nil {
		logger.Fatalln(err)
	}
}

// clientTLS builds the dial TLS config, or nil when TLS is off.
func clientTLS(on bool, caFile, serverName string, insecure bool) (*tls.Config, error) {
	if !on && caFile == "" && !insecure {
		return nil, nil
	}
	conf := &tls.Config{ServerName: serverName, InsecureSkipVerify: insecure}
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			return nil, fmt.Errorf("reading -tls-ca: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("-tls-ca %s holds no usable certificates", caFile)
		}
		conf.RootCAs = pool
	}
	return conf, nil
}
