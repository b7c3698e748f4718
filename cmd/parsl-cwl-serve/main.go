// Command parsl-cwl-serve runs the workflow submission service: an HTTP API
// that accepts CWL documents and executes them as concurrent runs over one
// shared Parsl DataFlowKernel.
//
//	parsl-cwl-serve -addr :8080 -config config.yml -workers 8 -data-dir /var/lib/parsl-cwl
//
//	curl -s localhost:8080/runs -d '{"cwl": "...", "inputs": {"message": "hi"}}'
//	curl -s localhost:8080/runs/run-000001?wait=1
//	curl -s localhost:8080/healthz   # load, cache, persistence, executor stats
//
// The executor configuration uses the same TaPS-style YAML as the parsl-cwl
// command; without -config a thread-pool executor sized to the machine is
// started. /healthz reports per-executor health — outstanding tasks, live
// workers, and for HTEX the connected managers plus lost/scaled-in block and
// re-dispatched task counters — so operators can watch elasticity and fault
// recovery live.
//
// With -data-dir the service is durable: run lifecycle transitions and task
// memoization results are journaled to an fsync-batched write-ahead log and
// periodically compacted (-checkpoint-period) into snapshots. After a crash,
// restarting against the same -data-dir restores run history, re-enqueues
// runs that were queued or running, and reloads the memo table so completed
// steps of an interrupted workflow are memo hits rather than re-executions.
// /healthz gains a "persistence" section (journal size, last snapshot,
// restored-run counts); -no-persist disables all of it. The journal is
// partitioned into -wal-shards independent write-ahead logs so concurrent
// runs do not serialize on one fsync queue.
//
// With -tenant-config the service is multi-tenant: requests authenticate
// with per-tenant API keys (Authorization: Bearer), the scheduler fair-shares
// capacity by tenant weight, per-tenant quotas (queue depth, concurrency,
// CPU seconds) are enforced at admission, and -result-cache shares whole-run
// results across tenants submitting identical work. See docs/TENANCY.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/parsl"
	"repro/internal/service"
	"repro/internal/tenant"
)

type serveConfig struct {
	addr             string
	configPath       string
	workers          int
	queueDepth       int
	maxInFlight      int
	taskWalltime     time.Duration
	maxRedispatch    int
	cacheSize        int
	cacheBytes       int64
	workDir          string
	dataDir          string
	checkpointPeriod time.Duration
	noPersist        bool
	walShards        int
	tenantConfig     string
	resultCache      int
	providers        string
	workerCmd        string
	netListen        string
	netSecret        string
	netCert          string
	netKey           string
	netSpawn         bool
	warmPool         int
	metrics          bool
	pprofAddr        string
	logFormat        string
}

func parseFlags(args []string, stderr io.Writer) (serveConfig, error) {
	fs := flag.NewFlagSet("parsl-cwl-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := serveConfig{}
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.configPath, "config", "", "TaPS-style Parsl executor config (YAML)")
	fs.IntVar(&cfg.workers, "workers", 8, "concurrent workflow runs")
	fs.IntVar(&cfg.queueDepth, "queue", 64, "max queued runs before 429 backpressure")
	fs.IntVar(&cfg.maxInFlight, "max-inflight", 0, "max queued+running runs before submissions are shed with 429 (0 = queue limit only)")
	fs.DurationVar(&cfg.taskWalltime, "task-walltime", 0, "default per-task walltime, ToolTimeLimit style (0 = unbounded; CWL ToolTimeLimit and the submit body's walltimeSeconds still apply)")
	fs.IntVar(&cfg.maxRedispatch, "max-redispatch", 0, "worker-loss re-dispatches per task before poison-task quarantine (0 = default 3, negative = unbounded)")
	fs.IntVar(&cfg.cacheSize, "cache", 128, "parsed-document cache capacity (entries)")
	fs.Int64Var(&cfg.cacheBytes, "cache-bytes", 0, "parsed-document cache byte cap (0 = 64 MiB default, negative = unbounded)")
	fs.StringVar(&cfg.workDir, "work-dir", "", "root for per-run job directories (default: <data-dir>/work, else executor run dir)")
	fs.StringVar(&cfg.dataDir, "data-dir", "", "directory for the run journal and checkpoints; enables durable, crash-resumable runs")
	fs.DurationVar(&cfg.checkpointPeriod, "checkpoint-period", 30*time.Second, "how often the journal is compacted into a snapshot")
	fs.BoolVar(&cfg.noPersist, "no-persist", false, "disable persistence even when -data-dir is set")
	fs.IntVar(&cfg.walShards, "wal-shards", 0, "independent WAL shards under -data-dir, keyed by run-ID hash (0 = default 4; an existing unsharded data dir is kept as-is)")
	fs.StringVar(&cfg.tenantConfig, "tenant-config", "", "YAML tenant registry (API keys, fair-share weights, quotas); enables multi-tenant mode")
	fs.IntVar(&cfg.resultCache, "result-cache", 1024, "shared cross-tenant whole-run result cache capacity (entries; 0 disables result sharing)")
	fs.StringVar(&cfg.providers, "provider", "", "execution providers to offer, comma-separated (local|process|sim|net); first is the default; runs pin one via the submit body's \"provider\" field")
	fs.StringVar(&cfg.workerCmd, "worker-cmd", "", "worker command line for the process and net providers (default: parsl-cwl-worker next to this binary or on PATH)")
	fs.StringVar(&cfg.netListen, "net-listen", "", "net provider interchange listen address (default 127.0.0.1:0)")
	fs.StringVar(&cfg.netSecret, "net-secret", os.Getenv("PCWL_NET_SECRET"), "shared secret net workers must present (default $PCWL_NET_SECRET; empty disables authentication)")
	fs.StringVar(&cfg.netCert, "net-cert", "", "TLS certificate (PEM) for the interchange listener")
	fs.StringVar(&cfg.netKey, "net-key", "", "TLS private key (PEM) for the interchange listener")
	fs.BoolVar(&cfg.netSpawn, "net-spawn", true, "spawn a local parsl-cwl-worker -connect per net block (disable when remote workers dial in)")
	fs.IntVar(&cfg.warmPool, "warm-pool", 0, "pre-started spare workers kept ready per process/net provider (0 disables)")
	fs.BoolVar(&cfg.metrics, "metrics", true, "serve Prometheus text exposition on GET /metrics")
	fs.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this separate address (e.g. 127.0.0.1:6060); empty disables")
	fs.StringVar(&cfg.logFormat, "log-format", "text", "log format: text or json (structured, with run IDs attached)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.logFormat != "text" && cfg.logFormat != "json" {
		return cfg, fmt.Errorf("invalid -log-format %q (want text or json)", cfg.logFormat)
	}
	if cfg.noPersist {
		cfg.dataDir = ""
	}
	return cfg, nil
}

// newLogger builds the process logger from -log-format. JSON output is one
// structured record per line, with run IDs attached by the service.
func newLogger(format string, w io.Writer) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(w, nil))
	}
	return slog.New(slog.NewTextHandler(w, nil))
}

// newService builds the DFK and service from the parsed configuration.
func newService(cfg serveConfig, logger *slog.Logger) (*parsl.DFK, *service.Service, error) {
	spec := parsl.DefaultConfigSpec()
	if cfg.configPath != "" {
		loaded, err := parsl.LoadConfigFile(cfg.configPath)
		if err != nil {
			return nil, nil, err
		}
		spec = loaded
	}
	if cfg.dataDir != "" {
		// Durable runs depend on the memo table: crash resume re-executes
		// interrupted runs, and restored memo entries are what make that
		// re-execution cheap and consistent.
		spec.Memoize = true
		if cfg.workDir == "" {
			// Job directories must survive restarts alongside the journal —
			// restored memo results reference files inside them.
			cfg.workDir = filepath.Join(cfg.dataDir, "work")
		}
	}
	if cfg.workerCmd != "" {
		spec.WorkerCmd = cfg.workerCmd
	}
	if cfg.taskWalltime != 0 {
		spec.TaskWalltime = cfg.taskWalltime
	}
	if cfg.maxRedispatch != 0 {
		spec.MaxRedispatch = cfg.maxRedispatch
	}
	if cfg.netListen != "" {
		spec.NetListen = cfg.netListen
	}
	if cfg.netSecret != "" {
		spec.NetSecret = cfg.netSecret
	}
	if cfg.netCert != "" || cfg.netKey != "" {
		spec.NetCertFile = cfg.netCert
		spec.NetKeyFile = cfg.netKey
	}
	if !cfg.netSpawn {
		spec.NetSpawn = false
	}
	if cfg.warmPool != 0 {
		spec.WarmPool = cfg.warmPool
	}
	var (
		pcfg           parsl.Config
		providerLabels map[string]string
		err            error
	)
	if cfg.providers != "" {
		// Multi-backend mode: one HTEX per requested provider; a run pins one
		// via the submit body, the first named provider is the default.
		var names []string
		for _, n := range strings.Split(cfg.providers, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		spec.Executor = "htex"
		pcfg, providerLabels, err = spec.BuildMulti(names)
	} else {
		pcfg, err = spec.Build()
	}
	if err != nil {
		return nil, nil, err
	}
	var tenants *tenant.Registry
	if cfg.tenantConfig != "" {
		if tenants, err = tenant.Load(cfg.tenantConfig); err != nil {
			return nil, nil, err
		}
	}
	dfk, err := parsl.Load(pcfg)
	if err != nil {
		return nil, nil, err
	}
	svc, err := service.New(dfk, service.Options{
		Workers:           cfg.workers,
		QueueDepth:        cfg.queueDepth,
		MaxInFlight:       cfg.maxInFlight,
		CacheSize:         cfg.cacheSize,
		CacheBytes:        cfg.cacheBytes,
		WorkRoot:          cfg.workDir,
		DataDir:           cfg.dataDir,
		CheckpointPeriod:  cfg.checkpointPeriod,
		WALShards:         cfg.walShards,
		ProviderExecutors: providerLabels,
		DisableMetrics:    !cfg.metrics,
		Tenants:           tenants,
		ResultCacheSize:   cfg.resultCache,
		Logger:            logger,
	})
	if err != nil {
		dfk.Cleanup()
		return nil, nil, err
	}
	return dfk, svc, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	logger := newLogger(cfg.logFormat, stderr)
	dfk, svc, err := newService(cfg, logger)
	if err != nil {
		return err
	}
	defer dfk.Cleanup()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}

	// pprof rides on its own listener and its own mux — never the API mux and
	// never http.DefaultServeMux — so profiling endpoints are opt-in and can
	// be bound to loopback while the API is public.
	if cfg.pprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofServer := &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		defer pprofServer.Close()
		go func() { _ = pprofServer.Serve(pln) }()
		fmt.Fprintf(stdout, "pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	// Long polls (GET /runs/{id}?wait=1) end when shutdown begins: each is
	// answered with its run's current snapshot, so the drain below waits for
	// runs, not for clients waiting on them.
	reqCtx, endRequests := context.WithCancel(context.Background())
	defer endRequests()
	server := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}
	server.RegisterOnShutdown(endRequests)
	var executors []string
	for _, es := range dfk.ExecutorStats() {
		executors = append(executors, es.Label)
	}
	if p := svc.Stats().Persistence; p != nil {
		fmt.Fprintf(stdout, "durable runs: journal in %s (%d restored, %d re-enqueued, %d memo entries)\n",
			p.Dir, p.RestoredRuns, p.ResubmittedRuns, p.RestoredMemo)
	}
	fmt.Fprintf(stdout, "parsl-cwl-serve listening on http://%s (%d workers, queue %d, executors %s)\n",
		ln.Addr(), cfg.workers, cfg.queueDepth, strings.Join(executors, ","))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "shutting down: draining in-flight runs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := svc.Close(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "parsl-cwl-serve:", err)
		os.Exit(1)
	}
}
