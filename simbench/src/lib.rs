//! Host-time benchmark of the micro-sliced cores simulator.
//!
//! `simbench` measures how fast the simulator regenerates results and
//! checks that the results stay correct, from outside the program: every
//! timing wraps a call into a public function of one layer
//! (`scenario_file::parse_str`/`validate`, `Scenario::to_parts`,
//! `Machine::new`/`run_until`/`snapshot`, the `SchedPolicy` hooks through
//! [`timed::TimedPolicy`], `Whitelist::classify`, `CounterSet::incr`, and
//! `experiments::run_experiment` under the runner's `pool` drivers).
//!
//! Four workloads: `paper-suite` ([`suite`]) and three scenario files
//! under `workloads/` ([`scenario`]). The metrics, the reasons behind each
//! workload, and how to read the traced pass are documented in this
//! package's `README.md`.

#![warn(missing_docs)]

pub mod report;
pub mod scenario;
pub mod suite;
pub mod timed;

use std::path::PathBuf;
use std::time::Instant;

/// The default `--seed`: the runner's own default base seed.
pub const DEFAULT_SEED: u64 = 0xE005_2018;

/// The scenario-file workloads, in `workloads/<name>.toml`.
pub const SCENARIO_WORKLOADS: [&str; 3] =
    ["lock-corun-baseline", "lock-corun-adaptive", "io-tlb-corun"];

/// The path of a scenario workload's file.
pub fn workload_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("workloads")
        .join(format!("{name}.toml"))
}

/// Where the benchmark writes what it leaves behind (trace spans, crash
/// artifacts of failed suite cells): the package's own `target/`.
pub fn output_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target")
}

/// Fixed calibration spin: 200k SplitMix64 rounds, a pure integer mix
/// with no allocation and no memory traffic. Its time depends only on the
/// host core's effective speed, so it separates a slower host from slower
/// code. The loop is the one the `calibration_spin` row of the `hotpaths`
/// bench times.
pub fn calibration_spin() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..200_000 {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc)
}

/// Minimum over 10 runs of [`calibration_spin`], in milliseconds.
pub(crate) fn calibration_ms() -> f64 {
    (0..10)
        .map(|_| {
            let t = Instant::now();
            calibration_spin();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The median of a non-empty sample (the mean of the middle two when the
/// sample has an even size).
pub(crate) fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resets this process's peak resident set size (`VmHWM`) to its current
/// resident set, so that [`peak_rss_mb`] reads the peak of what follows.
pub(crate) fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process since the last
/// [`reset_peak_rss`] (`VmHWM`), in MiB.
///
/// `VmHWM` belongs to the process image, unlike `getrusage`'s
/// `ru_maxrss`, which keeps the peak of the image before `exec` — under
/// `cargo run`, cargo's own footprint.
pub(crate) fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
