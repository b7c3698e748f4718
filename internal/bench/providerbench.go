// Provider benchmarks: throughput of the execution-provider layer, most
// importantly the pipe-protocol overhead of process-isolated workers versus
// in-process managers.
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/parsl"
	"repro/internal/provider"
)

// ProviderThroughput is one MeasureProviderThroughput result.
type ProviderThroughput struct {
	// TasksPerSec is submit→complete throughput over the whole batch.
	TasksPerSec float64
	// RemoteTasks counts tasks that crossed the worker pipe (0 for backends
	// that execute in-process).
	RemoteTasks int64
}

// BuildProviderHTEX constructs (without starting) a one-block HTEX over the
// named provider, `workers` workers per node. The second return is non-nil
// for the process provider, for pipe-crossing assertions. workerCmd/env must
// start a protocol worker (typically the calling binary re-executed in
// worker mode).
func BuildProviderHTEX(providerName string, workerCmd, env []string, workers int) (*parsl.HighThroughputExecutor, *provider.ProcessProvider, error) {
	var prov provider.ExecutionProvider
	var pp *provider.ProcessProvider
	switch providerName {
	case "local":
		prov = &provider.LocalProvider{}
	case "process":
		pp = provider.NewProcessProvider(provider.ProcessOptions{Command: workerCmd, Env: env})
		prov = pp
	default:
		return nil, nil, fmt.Errorf("unknown provider %q (want local or process)", providerName)
	}
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label:          "bench-" + providerName,
		Provider:       prov,
		WorkersPerNode: workers,
		Prefetch:       workers,
		MaxBlocks:      1,
		InitBlocks:     1,
	})
	return htex, pp, nil
}

// BuildNetHTEX constructs (without starting) a one-block HTEX over a
// loopback network fabric: Launch spawns an in-process worker goroutine that
// dials the interchange over real TCP and authenticates with a shared
// secret, so the benchmark exercises the full frame + socket path without
// subprocess noise.
func BuildNetHTEX(workers int) (*parsl.HighThroughputExecutor, *fabric.NetProvider, error) {
	const secret = "bench-secret"
	opts := fabric.Options{
		Addr:            "127.0.0.1:0",
		Secret:          secret,
		HeartbeatPeriod: time.Second,
		AdoptTimeout:    10 * time.Second,
	}
	var np *fabric.NetProvider
	opts.Spawn = func(addr string, block int) error {
		go func() {
			_ = fabric.RunWorker(fabric.ConnectOptions{
				Addr:   addr,
				Secret: secret,
				ID:     fmt.Sprintf("bench-%d", block),
			})
		}()
		return nil
	}
	np, err := fabric.Listen(opts)
	if err != nil {
		return nil, nil, err
	}
	htex := parsl.NewHighThroughputExecutor(parsl.HTEXConfig{
		Label:          "bench-net",
		Provider:       np,
		WorkersPerNode: workers,
		Prefetch:       workers,
		MaxBlocks:      1,
		InitBlocks:     1,
	})
	return htex, np, nil
}

// RunEchoBatch submits `tasks` echo tasks (with an in-process fallback Fn)
// to a started executor and waits for all of them, failing if any errored.
func RunEchoBatch(htex *parsl.HighThroughputExecutor, tasks int) error {
	spec, err := provider.NewEchoSpec("ping")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(tasks)
	var failed atomic.Int64
	for i := 0; i < tasks; i++ {
		htex.Submit(&parsl.Task{
			ID:     i,
			Remote: spec,
			Fn:     func() (any, error) { return "ping", nil },
		}, func(_ any, err error) {
			if err != nil {
				failed.Add(1)
			}
			wg.Done()
		})
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d of %d tasks failed", n, tasks)
	}
	return nil
}

// MeasureProviderThroughput pushes `tasks` echo tasks through an HTEX whose
// single block hosts `workers` workers on the given provider.
func MeasureProviderThroughput(providerName string, workerCmd, env []string, workers, tasks int) (ProviderThroughput, error) {
	htex, pp, err := BuildProviderHTEX(providerName, workerCmd, env, workers)
	if err != nil {
		return ProviderThroughput{}, err
	}
	if err := htex.Start(); err != nil {
		return ProviderThroughput{}, err
	}
	defer htex.Shutdown()
	start := time.Now()
	if err := RunEchoBatch(htex, tasks); err != nil {
		return ProviderThroughput{}, err
	}
	res := ProviderThroughput{TasksPerSec: float64(tasks) / time.Since(start).Seconds()}
	if pp != nil {
		res.RemoteTasks = pp.RemoteTasks()
	}
	return res, nil
}
