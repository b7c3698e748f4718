package cwlexpr

import "repro/internal/obs"

// Package-level instruments on the Default registry, aggregated across every
// Engine in the process.
var (
	metProgCacheHits = obs.Default().Counter(
		"pcwl_expr_program_cache_hits_total",
		"Compiled-program cache hits across all expression engines.")
	metProgCacheMisses = obs.Default().Counter(
		"pcwl_expr_program_cache_misses_total",
		"Compiled-program cache misses (each one compiles an expression).")
	metEnginePoolHits = obs.Default().Counter(
		"pcwl_expr_engine_pool_hits_total",
		"Shared engine pool hits (requirement set already had an engine).")
	metEnginePoolMisses = obs.Default().Counter(
		"pcwl_expr_engine_pool_misses_total",
		"Shared engine pool misses (each one builds an engine and parses its expressionLib).")
	metJSEvals = obs.Default().Counter(
		"pcwl_expr_js_evals_total",
		"JavaScript expression evaluations.")
	metPyEvals = obs.Default().Counter(
		"pcwl_expr_py_evals_total",
		"Python expression evaluations.")
)
