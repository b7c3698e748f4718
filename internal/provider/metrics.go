package provider

import (
	"time"

	"repro/internal/obs"
)

// Package-level instruments on the Default registry, aggregated across every
// provider instance in the process.
var (
	metBlocksLaunched = obs.Default().CounterVec(
		"pcwl_provider_blocks_launched_total",
		"Blocks successfully launched, by provider kind.",
		"provider")
	metWorkerLost = obs.Default().CounterVec(
		"pcwl_provider_worker_lost_total",
		"Workers lost outside an orderly shutdown (crash, preemption, walltime), by provider kind.",
		"provider")
	metFramesSent = obs.Default().Counter(
		"pcwl_provider_frames_sent_total",
		"Task-request frames written to worker sessions (pipe or network).")
	metFramesReceived = obs.Default().Counter(
		"pcwl_provider_frames_received_total",
		"Response frames read from worker sessions (pipe or network).")
	metRemoteTasks = obs.Default().Counter(
		"pcwl_provider_remote_tasks_total",
		"Tasks shipped to out-of-process workers over the session protocol.")
	metRemoteRoundtrip = obs.Default().Histogram(
		"pcwl_provider_remote_roundtrip_seconds",
		"Time from dispatching one task over the worker session protocol to its response, including time queued on the worker.",
		nil)
	metBatchFrames = obs.Default().Counter(
		"pcwl_provider_batch_frames_total",
		"Task batch frames written to worker sessions.")
	metBatchTasks = obs.Default().Histogram(
		"pcwl_provider_batch_tasks",
		"Task records carried per engine-to-worker batch frame.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128})
	metDocsAmortized = obs.Default().Counter(
		"pcwl_provider_docs_amortized_total",
		"Task records that referenced a shared tool document by hash instead of re-shipping it.")
	metWarmHits = obs.Default().CounterVec(
		"pcwl_provider_warm_hits_total",
		"Block launches satisfied from a warm worker pool, by provider kind.",
		"provider")
	metSimPreemptions = obs.Default().Counter(
		"pcwl_sim_preemptions_total",
		"Simulated node preemptions injected into SimProvider blocks.")
	metSimWalltimeKills = obs.Default().Counter(
		"pcwl_sim_walltime_kills_total",
		"SimProvider blocks killed by simulated walltime expiry.")
)

// observeRoundtrip records one task's dispatch-to-response time.
func observeRoundtrip(start time.Time) {
	metRemoteRoundtrip.Observe(time.Since(start).Seconds())
}

// observeBatch records one task batch frame and its record count.
func observeBatch(records int) {
	metBatchTasks.Observe(float64(records))
	metBatchFrames.Inc()
}

// RecordWarmHit counts a block launch satisfied from a warm worker pool.
func RecordWarmHit(kind string) { metWarmHits.With(kind).Inc() }

// RecordBlockLaunched counts a successful block launch for an out-of-package
// provider (the network fabric), keeping every provider kind in the same
// pcwl_provider_* families.
func RecordBlockLaunched(kind string) { metBlocksLaunched.With(kind).Inc() }

// RecordWorkerLost counts a worker lost outside an orderly shutdown for an
// out-of-package provider.
func RecordWorkerLost(kind string) { metWorkerLost.With(kind).Inc() }
