//! Benchmark harness for the reproduction.
//!
//! `benches/hotpaths.rs` holds micro-benchmarks of the simulator's hot
//! paths (event queue, run queues, RNG, histogram, symbol resolution,
//! one consolidated simulated second). Run them with `scripts/bench.sh`,
//! which appends one JSON row per bench to `BENCH_hotpaths.json`. The
//! paper's tables and figures come from `repro`, not from a bench.

#![warn(missing_docs)]

/// Standard Criterion tuning for whole-simulation benches: a bounded
/// measurement window (each iteration simulates seconds) and enough
/// samples for a stable min-of-N. Comparisons across runs should use
/// `min_ns`, not `mean_ns`: scheduler preemption and frequency shifts
/// only ever add time, so the mean drifts with host load (10–15%
/// run-to-run on an otherwise unchanged build) while the minimum tracks
/// the code.
pub fn sim_criterion() -> criterion::Criterion {
    criterion::Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(10))
        .warm_up_time(std::time::Duration::from_secs(1))
}
