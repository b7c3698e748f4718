package parsl

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fabric"
	"repro/internal/provider"
	"repro/internal/yamlx"
)

// ConfigSpec is the YAML-facing configuration, following the TaPS benchmark
// suite's format that the paper adopts for parsl-cwl (§III-B):
//
//	executor: thread-pool | htex
//	run-dir: parsl-run
//	retries: 1
//	memoize: false
//	workers-per-node: 48
//	nodes: 3
//	provider: local | process | sim | net
//	worker-cmd: /usr/local/bin/parsl-cwl-worker
//	net-listen: 127.0.0.1:0
//	net-secret: s3cret
//	net-cert: server.crt
//	net-key: server.key
//	net-spawn: true
//	prefetch: 0
//	min-blocks: 0
//	init-blocks: 1
//	idle-timeout: 30s
//	heartbeat-period: 5s
//	warm-pool: 2
//	max-redispatch: 3
//	task-walltime: 10m
type ConfigSpec struct {
	Executor       string
	RunDir         string
	Retries        int
	Memoize        bool
	WorkersPerNode int
	Nodes          int
	// Provider selects how HTEX blocks run: "local" (in-process goroutine
	// managers), "process" (parsl-cwl-worker subprocesses over the pipe
	// protocol), "sim" (pilot jobs in the simulated Slurm cluster), or "net"
	// (remote workers dialing the engine's interchange listener over
	// TCP/TLS).
	Provider string
	// WorkerCmd overrides the worker command line for the process provider
	// (whitespace-split; default: parsl-cwl-worker next to the binary or on
	// PATH).
	WorkerCmd string
	// Prefetch is how many tasks an HTEX block holds queued beyond its busy
	// slots (0 = the default, one per slot; negative = none).
	Prefetch int
	// MinBlocks floors HTEX idle scale-in (default 0).
	MinBlocks int
	// InitBlocks is how many HTEX blocks start immediately (default 1).
	InitBlocks int
	// IdleTimeout releases HTEX blocks idle this long (0 disables scale-in).
	IdleTimeout time.Duration
	// HeartbeatPeriod is the HTEX manager liveness reporting period.
	HeartbeatPeriod time.Duration
	// NetListen is the net provider's interchange listen address (default
	// loopback on an ephemeral port).
	NetListen string
	// NetSecret is the shared secret net workers must present ("" disables
	// authentication — loopback only).
	NetSecret string
	// NetCertFile/NetKeyFile enable TLS on the interchange listener.
	NetCertFile string
	NetKeyFile  string
	// NetSpawn makes the net provider spawn a local parsl-cwl-worker
	// -connect subprocess per block (default true); disable it when blocks
	// are remote workers dialing in on their own.
	NetSpawn bool
	// WarmPool keeps this many spare pre-started workers per provider so
	// block launches skip exec/dial+hello latency (0 disables).
	WarmPool int
	// MaxRedispatch caps worker-loss re-dispatches per task before it is
	// quarantined as poison (0 = the HTEX default of 3; negative = unbounded).
	MaxRedispatch int
	// TaskWalltime is the default per-task walltime, CWL ToolTimeLimit style:
	// tasks running past it fail with a deadline error (0 disables).
	TaskWalltime time.Duration
}

// DefaultConfigSpec returns single-node thread-pool defaults.
func DefaultConfigSpec() ConfigSpec {
	return ConfigSpec{
		Executor:       "thread-pool",
		WorkersPerNode: runtime.NumCPU(),
		Nodes:          1,
		Provider:       "local",
		NetSpawn:       true,
	}
}

// ParseConfig decodes a TaPS-style YAML config.
func ParseConfig(data []byte) (ConfigSpec, error) {
	spec := DefaultConfigSpec()
	v, err := yamlx.Decode(data)
	if err != nil {
		return spec, err
	}
	m, ok := v.(*yamlx.Map)
	if !ok {
		if v == nil {
			return spec, nil
		}
		return spec, fmt.Errorf("config must be a mapping")
	}
	for _, k := range m.Keys() {
		val := m.Value(k)
		switch k {
		case "executor":
			s, ok := val.(string)
			if !ok {
				return spec, fmt.Errorf("executor must be a string")
			}
			spec.Executor = s
		case "run-dir", "run_dir":
			spec.RunDir = fmt.Sprint(val)
		case "retries":
			spec.Retries = m.GetInt(k, spec.Retries)
		case "memoize":
			spec.Memoize = m.GetBool(k, spec.Memoize)
		case "workers-per-node", "workers_per_node", "max-workers", "max_workers":
			spec.WorkersPerNode = m.GetInt(k, spec.WorkersPerNode)
		case "nodes", "max-blocks", "max_blocks":
			spec.Nodes = m.GetInt(k, spec.Nodes)
		case "provider":
			spec.Provider = fmt.Sprint(val)
		case "worker-cmd", "worker_cmd":
			spec.WorkerCmd = fmt.Sprint(val)
		case "prefetch":
			spec.Prefetch = m.GetInt(k, spec.Prefetch)
		case "min-blocks", "min_blocks":
			spec.MinBlocks = m.GetInt(k, spec.MinBlocks)
		case "init-blocks", "init_blocks":
			spec.InitBlocks = m.GetInt(k, spec.InitBlocks)
		case "idle-timeout", "idle_timeout":
			d, err := parseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("idle-timeout: %w", err)
			}
			spec.IdleTimeout = d
		case "heartbeat-period", "heartbeat_period":
			d, err := parseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("heartbeat-period: %w", err)
			}
			spec.HeartbeatPeriod = d
		case "net-listen", "net_listen":
			spec.NetListen = fmt.Sprint(val)
		case "net-secret", "net_secret":
			spec.NetSecret = fmt.Sprint(val)
		case "net-cert", "net_cert":
			spec.NetCertFile = fmt.Sprint(val)
		case "net-key", "net_key":
			spec.NetKeyFile = fmt.Sprint(val)
		case "net-spawn", "net_spawn":
			spec.NetSpawn = m.GetBool(k, spec.NetSpawn)
		case "warm-pool", "warm_pool":
			spec.WarmPool = m.GetInt(k, spec.WarmPool)
		case "max-redispatch", "max_redispatch":
			spec.MaxRedispatch = m.GetInt(k, spec.MaxRedispatch)
		case "task-walltime", "task_walltime":
			d, err := parseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("task-walltime: %w", err)
			}
			spec.TaskWalltime = d
		default:
			return spec, fmt.Errorf("unknown config key %q", k)
		}
	}
	if err := spec.validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// LoadConfigFile reads and parses a YAML config from disk.
func LoadConfigFile(path string) (ConfigSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ConfigSpec{}, err
	}
	spec, err := ParseConfig(data)
	if err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// parseDuration accepts a Go duration string ("30s", "200ms") or a bare
// number of seconds.
func parseDuration(v any) (time.Duration, error) {
	switch t := v.(type) {
	case string:
		d, err := time.ParseDuration(t)
		if err != nil {
			return 0, fmt.Errorf("%q is not a duration (want e.g. \"30s\")", t)
		}
		return d, nil
	case int:
		return time.Duration(t) * time.Second, nil
	case int64:
		return time.Duration(t) * time.Second, nil
	case float64:
		return time.Duration(t * float64(time.Second)), nil
	default:
		return 0, fmt.Errorf("%v is not a duration", v)
	}
}

func (s ConfigSpec) validate() error {
	switch s.Executor {
	case "thread-pool", "threads", "htex", "high-throughput":
	default:
		return fmt.Errorf("unknown executor %q (want thread-pool or htex)", s.Executor)
	}
	switch s.Provider {
	case "local", "process", "sim", "net", "":
	default:
		return fmt.Errorf("unknown provider %q (want local, process, sim, or net)", s.Provider)
	}
	if (s.NetCertFile == "") != (s.NetKeyFile == "") {
		return fmt.Errorf("net-cert and net-key must be set together")
	}
	if s.Provider != "" && s.Provider != "local" {
		switch s.Executor {
		case "htex", "high-throughput":
		default:
			return fmt.Errorf("provider %q requires the htex executor", s.Provider)
		}
	}
	if s.WorkersPerNode <= 0 {
		return fmt.Errorf("workers-per-node must be positive")
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("nodes must be positive")
	}
	if s.MinBlocks < 0 {
		return fmt.Errorf("min-blocks must be non-negative")
	}
	if s.MinBlocks > s.Nodes {
		return fmt.Errorf("min-blocks (%d) cannot exceed nodes (%d)", s.MinBlocks, s.Nodes)
	}
	if s.InitBlocks < 0 {
		return fmt.Errorf("init-blocks must be non-negative")
	}
	if s.InitBlocks > s.Nodes {
		return fmt.Errorf("init-blocks (%d) cannot exceed nodes (%d)", s.InitBlocks, s.Nodes)
	}
	if s.IdleTimeout < 0 {
		return fmt.Errorf("idle-timeout must be non-negative")
	}
	if s.HeartbeatPeriod < 0 {
		return fmt.Errorf("heartbeat-period must be non-negative")
	}
	if s.WarmPool < 0 {
		return fmt.Errorf("warm-pool must be non-negative")
	}
	if s.TaskWalltime < 0 {
		return fmt.Errorf("task-walltime must be non-negative")
	}
	return nil
}

// BuildProvider materializes the spec's provider selection ("" = local).
func (s ConfigSpec) BuildProvider(name string) (provider.ExecutionProvider, error) {
	switch name {
	case "local", "":
		return &provider.LocalProvider{}, nil
	case "process":
		var cmd []string
		if s.WorkerCmd != "" {
			cmd = strings.Fields(s.WorkerCmd)
		}
		return provider.NewProcessProvider(provider.ProcessOptions{
			Command:  cmd,
			WarmPool: s.WarmPool,
		}), nil
	case "sim":
		return provider.NewSimProvider(provider.SimOptions{
			Nodes:        s.Nodes,
			CoresPerNode: s.WorkersPerNode,
		}), nil
	case "net":
		return s.buildNetProvider()
	default:
		return nil, fmt.Errorf("unknown provider %q (want local, process, sim, or net)", name)
	}
}

// buildNetProvider opens the interchange listener and, unless net-spawn is
// off, arranges for Launch to spawn a local parsl-cwl-worker -connect
// subprocess per block. With net-spawn off, blocks are adopted from whatever
// workers dial in on their own.
func (s ConfigSpec) buildNetProvider() (provider.ExecutionProvider, error) {
	addr := s.NetListen
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	opts := fabric.Options{
		Addr:     addr,
		Secret:   s.NetSecret,
		CertFile: s.NetCertFile,
		KeyFile:  s.NetKeyFile,
	}
	if s.NetSpawn {
		opts.WarmPool = s.WarmPool
		argv, err := s.netWorkerCommand()
		if err != nil {
			return nil, err
		}
		var warmSeq atomic.Int64
		opts.Spawn = func(addr string, block int) error {
			// block < 0 is a warm-pool spare, named after a spawn counter
			// since it is not yet bound to any block.
			id := fmt.Sprintf("block-%d", block)
			if block < 0 {
				id = fmt.Sprintf("warm-%d", warmSeq.Add(1))
			}
			args := append(argv[1:len(argv):len(argv)], "-connect", addr, "-id", id,
				"-capacity", strconv.Itoa(s.WorkersPerNode))
			if s.NetCertFile != "" {
				// Self-signed operation: the server certificate doubles as the
				// worker's trust anchor.
				args = append(args, "-tls-ca", s.NetCertFile)
			}
			cmd := exec.Command(argv[0], args...)
			cmd.Stderr = os.Stderr
			if s.NetSecret != "" {
				cmd.Env = append(os.Environ(), "PCWL_NET_SECRET="+s.NetSecret)
			}
			if err := cmd.Start(); err != nil {
				return fmt.Errorf("starting net worker %q: %w", argv[0], err)
			}
			go func() { _ = cmd.Wait() }() // reap; lifecycle is the session's
			return nil
		}
	}
	return fabric.Listen(opts)
}

// netWorkerCommand resolves the worker command line for spawned net workers.
func (s ConfigSpec) netWorkerCommand() ([]string, error) {
	if s.WorkerCmd != "" {
		return strings.Fields(s.WorkerCmd), nil
	}
	return provider.DefaultWorkerCommand()
}

// buildHTEX constructs one HTEX executor over the named provider.
func (s ConfigSpec) buildHTEX(label, providerName string) (Executor, error) {
	prov, err := s.BuildProvider(providerName)
	if err != nil {
		return nil, err
	}
	return NewHighThroughputExecutor(HTEXConfig{
		Label:           label,
		Provider:        prov,
		MaxBlocks:       s.Nodes,
		MinBlocks:       s.MinBlocks,
		InitBlocks:      s.InitBlocks, // fill() defaults 0 to one block
		WorkersPerNode:  s.WorkersPerNode,
		Prefetch:        s.Prefetch,
		IdleTimeout:     s.IdleTimeout,
		HeartbeatPeriod: s.HeartbeatPeriod,
		MaxRedispatch:   s.MaxRedispatch,
	}), nil
}

// Build materializes the spec into a DFK Config.
func (s ConfigSpec) Build() (Config, error) {
	if err := s.validate(); err != nil {
		return Config{}, err
	}
	cfg := Config{Retries: s.Retries, Memoize: s.Memoize, RunDir: s.RunDir, TaskWalltime: s.TaskWalltime}
	switch s.Executor {
	case "thread-pool", "threads":
		cfg.Executors = []Executor{NewThreadPoolExecutor("threads", s.WorkersPerNode*s.Nodes)}
	case "htex", "high-throughput":
		ex, err := s.buildHTEX("htex", s.Provider)
		if err != nil {
			return Config{}, err
		}
		cfg.Executors = []Executor{ex}
	}
	return cfg, nil
}

// BuildMulti materializes the spec with one HTEX executor per named provider
// — the submission service's multi-backend mode, where a run can pin the
// provider it executes on. Executor labels are "htex-<provider>"; the
// returned map gives provider name → executor label, and the first name is
// the DFK's default executor.
func (s ConfigSpec) BuildMulti(providers []string) (Config, map[string]string, error) {
	if err := s.validate(); err != nil {
		return Config{}, nil, err
	}
	if len(providers) == 0 {
		return Config{}, nil, fmt.Errorf("no providers requested")
	}
	cfg := Config{Retries: s.Retries, Memoize: s.Memoize, RunDir: s.RunDir, TaskWalltime: s.TaskWalltime}
	labels := make(map[string]string, len(providers))
	for _, name := range providers {
		if _, dup := labels[name]; dup {
			return Config{}, nil, fmt.Errorf("provider %q listed twice", name)
		}
		label := "htex-" + name
		ex, err := s.buildHTEX(label, name)
		if err != nil {
			return Config{}, nil, err
		}
		labels[name] = label
		cfg.Executors = append(cfg.Executors, ex)
	}
	return cfg, labels, nil
}
