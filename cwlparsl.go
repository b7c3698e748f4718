// Package cwlparsl is the public facade of the Parsl+CWL integration — a Go
// reproduction of "Parsl+CWL: Towards Combining the Python and CWL
// Ecosystems" (SC 2024).
//
// The three pieces a downstream user needs:
//
//   - Load a Parsl configuration and DataFlowKernel, then import CWL
//     CommandLineTools as apps (the paper's CWLApp):
//
//     dfk, _ := cwlparsl.LoadConfig(cwlparsl.ConfigSpec{Executor: "htex", WorkersPerNode: 8})
//     echo, _ := cwlparsl.NewCWLApp(dfk, "echo.cwl")
//     fut := echo.Call(cwlparsl.Args{"message": "Hello, World!"})
//     fut.Wait()
//
//   - Run complete CWL processes (tools or workflows) on Parsl executors
//     (the parsl-cwl runner):
//
//     doc, _ := cwlparsl.LoadCWL("workflow.cwl")
//     outputs, _ := cwlparsl.NewRunner(dfk).Run(doc, inputs)
//
//   - Use InlinePythonRequirement (the paper's §V extension) in any CWL
//     document: f-string call sites, expressionLib functions, and validate:
//     fields are handled by the embedded Python interpreter.
//
//   - Serve workflows over HTTP: NewService multiplexes many queued runs over
//     one shared DFK with bounded concurrency, priority scheduling,
//     cancellation, and a content-hash document cache (the parsl-cwl-serve
//     command wraps this). With ServiceOptions.DataDir the service is
//     durable: run lifecycle and memoized task results are journaled to a
//     write-ahead log, and a restart restores history, re-enqueues
//     interrupted runs, and reloads the memo table so completed steps are
//     memo hits instead of re-executions (Parsl's checkpointing model):
//
//     svc, _ := cwlparsl.NewService(dfk, cwlparsl.ServiceOptions{Workers: 8, DataDir: "data"})
//     http.ListenAndServe(":8080", svc.Handler())
//
// See the examples/ directory for complete programs and docs/ARCHITECTURE.md
// for the architecture.
package cwlparsl

import (
	"repro/internal/core"
	"repro/internal/cwl"
	"repro/internal/parsl"
	"repro/internal/service"
	"repro/internal/tenant"
	"repro/internal/yamlx"
)

// Args are keyword arguments for an app invocation.
type Args = parsl.Args

// File references a filesystem path (parsl.File).
type File = parsl.File

// AppFuture tracks an asynchronous app invocation.
type AppFuture = parsl.AppFuture

// DataFuture represents a file an invocation will produce.
type DataFuture = parsl.DataFuture

// DFK is the Parsl DataFlowKernel.
type DFK = parsl.DFK

// Config is the programmatic Parsl configuration.
type Config = parsl.Config

// ConfigSpec is the TaPS-style YAML-facing configuration.
type ConfigSpec = parsl.ConfigSpec

// Executor runs tasks (ThreadPool or HighThroughput).
type Executor = parsl.Executor

// CWLApp is a CWL CommandLineTool imported as a Parsl app.
type CWLApp = core.CWLApp

// Runner executes CWL documents on Parsl executors.
type Runner = core.Runner

// Document is any parsed CWL process.
type Document = cwl.Document

// CommandLineTool is the parsed CWL CommandLineTool class.
type CommandLineTool = cwl.CommandLineTool

// Workflow is the parsed CWL Workflow class.
type Workflow = cwl.Workflow

// Map is the ordered mapping used for CWL input/output objects.
type Map = yamlx.Map

// NewFile wraps a path as a Parsl File.
func NewFile(path string) File { return parsl.NewFile(path) }

// NewMap creates an empty ordered map.
func NewMap() *Map { return yamlx.NewMap() }

// MapOf builds an ordered map from alternating key/value pairs.
func MapOf(pairs ...any) *Map { return yamlx.MapOf(pairs...) }

// Load starts a DFK from a programmatic config (parsl.load).
func Load(cfg Config) (*DFK, error) { return parsl.Load(cfg) }

// LoadConfig builds and starts a DFK from a TaPS-style spec.
func LoadConfig(spec ConfigSpec) (*DFK, error) {
	cfg, err := spec.Build()
	if err != nil {
		return nil, err
	}
	return parsl.Load(cfg)
}

// LoadConfigFile reads a TaPS-style YAML config and starts a DFK.
func LoadConfigFile(path string) (*DFK, error) {
	spec, err := parsl.LoadConfigFile(path)
	if err != nil {
		return nil, err
	}
	return LoadConfig(spec)
}

// NewThreadPoolExecutor creates the single-node executor the paper uses in
// Fig. 1b.
func NewThreadPoolExecutor(label string, workers int) Executor {
	return parsl.NewThreadPoolExecutor(label, workers)
}

// HTEXConfig configures the pilot-job HighThroughputExecutor: block bounds
// (MaxBlocks/MinBlocks/InitBlocks), per-node workers, heartbeat-driven fault
// tolerance (HeartbeatPeriod/HeartbeatThreshold) and idle scale-in
// (IdleTimeout).
type HTEXConfig = parsl.HTEXConfig

// NewHighThroughputExecutor creates the elastic, fault-tolerant pilot-job
// executor (the paper's multi-node deployment, Fig. 1a).
func NewHighThroughputExecutor(cfg HTEXConfig) Executor {
	return parsl.NewHighThroughputExecutor(cfg)
}

// ExecutorStats is a point-in-time executor health summary (see
// DFK.ExecutorStats and the service's /healthz).
type ExecutorStats = parsl.ExecutorStats

// NewCWLApp imports a CommandLineTool definition as a Parsl app.
func NewCWLApp(dfk *DFK, path string, opts ...core.AppOpt) (*CWLApp, error) {
	return core.NewCWLApp(dfk, path, opts...)
}

// NewRunner builds the parsl-cwl engine over a DFK.
func NewRunner(dfk *DFK) *Runner { return core.NewRunner(dfk) }

// LoadCWL parses a CWL document from disk.
func LoadCWL(path string) (Document, error) { return cwl.LoadFile(path) }

// Service is the workflow submission service: a run store, bounded
// scheduler, and document cache multiplexing many runs over one shared DFK,
// exposed as a REST API via Service.Handler.
type Service = service.Service

// ServiceOptions configures a Service.
type ServiceOptions = service.Options

// SubmitRequest is one workflow submission to a Service.
type SubmitRequest = service.SubmitRequest

// RunSnapshot is the immutable client view of one submitted run.
type RunSnapshot = service.RunSnapshot

// RunState is a run's lifecycle state
// (queued → running → succeeded/failed/canceled).
type RunState = service.RunState

// Run lifecycle states.
const (
	RunQueued    = service.RunQueued
	RunRunning   = service.RunRunning
	RunSucceeded = service.RunSucceeded
	RunFailed    = service.RunFailed
	RunCanceled  = service.RunCanceled
)

// TaskEvent is one DFK monitoring record (a run's event log entry).
type TaskEvent = parsl.TaskEvent

// MemoEntry is one DFK memoization-table entry — the unit of cross-restart
// checkpointing (see DFK.MemoSnapshot, DFK.RestoreMemo, DFK.OnMemoCommit).
// It carries the result as ResultCodec bytes, the form the table holds it in.
type MemoEntry = parsl.MemoEntry

// ResultCodec encodes and decodes the task results MemoEntry carries.
type ResultCodec = parsl.ResultCodec

// PersistStats is the durability section of the service's /healthz stats:
// journal size, last snapshot time, and restored-run counts.
type PersistStats = service.PersistStats

// Tenant is one tenant of a multi-tenant Service: its API key, fair-share
// weight, and admission quotas (queue depth, concurrency, CPU-seconds
// budget). See docs/TENANCY.md.
type Tenant = tenant.Tenant

// TenantRegistry holds a Service's tenants and authenticates API keys.
type TenantRegistry = tenant.Registry

// NewTenantRegistry builds a registry from an explicit tenant list.
func NewTenantRegistry(tenants ...Tenant) (*TenantRegistry, error) {
	return tenant.NewRegistry(tenants...)
}

// LoadTenants reads a YAML tenant-registry file (the -tenant-config format
// of parsl-cwl-serve).
func LoadTenants(path string) (*TenantRegistry, error) { return tenant.Load(path) }

// NewService builds the workflow submission service over a loaded DFK.
func NewService(dfk *DFK, opts ServiceOptions) (*Service, error) {
	return service.New(dfk, opts)
}

// Validate checks a CWL document, returning all issues and an error when any
// issue is fatal.
func Validate(doc Document) ([]cwl.ValidationIssue, error) { return cwl.Validate(doc) }
