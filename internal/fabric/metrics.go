package fabric

import (
	"time"

	"repro/internal/obs"
)

// Package-level instruments on the Default registry, aggregated across every
// interchange in the process.
var (
	metConnections = obs.Default().Counter(
		"pcwl_net_connections_total",
		"TCP connections accepted by the interchange listener (before handshake).")
	metRegistrations = obs.Default().Counter(
		"pcwl_net_registrations_total",
		"Worker sessions that completed the handshake and registered.")
	metReconnects = obs.Default().Counter(
		"pcwl_net_reconnects_total",
		"Registrations by a worker identity the interchange had seen before.")
	metRejects = obs.Default().CounterVec(
		"pcwl_net_rejects_total",
		"Connections rejected before any task frame, by reason.",
		"reason")
	metHeartbeatMisses = obs.Default().Counter(
		"pcwl_net_heartbeat_misses_total",
		"Worker sessions declared dead after heartbeat silence past the threshold.")
	metWorkers = obs.Default().Gauge(
		"pcwl_net_workers",
		"Live registered worker sessions (pending adoption plus adopted).")
	metNetRoundtrip = obs.Default().Histogram(
		"pcwl_net_roundtrip_seconds",
		"Time from dispatching one task over a network worker session to its successful response, including time queued on the worker.",
		nil)
)

// observeNetRoundtrip records one network task's dispatch-to-response time.
func observeNetRoundtrip(start time.Time) {
	metNetRoundtrip.Observe(time.Since(start).Seconds())
}
