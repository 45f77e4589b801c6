//! The scenario-file workloads: `workloads/<name>.toml`, in the
//! `SCENARIOS.md` schema.
//!
//! A workload file describes one cell: a window-mode run of one policy.
//! Cell `r` of a run uses the seed `RunOptions::seed_for(r)` of the
//! `--seed` base, and cells run serially on one thread. The workload
//! digest covers the first [`DIGEST_CELLS`] cells, which every run
//! completes, so it repeats exactly for a given seed however many cells
//! the time budget fits.

use crate::report::{Report, SpanLog, WORK_COUNTS};
use crate::timed::{Probe, TimedPolicy, HOOKS};
use crate::{calibration_ms, median, peak_rss_mb, ratio, reset_peak_rss};
use experiments::runner::ledger::fnv64;
use experiments::runner::{build_with, RunOptions};
use experiments::scenario::policy_kind;
use hypervisor::policy::SchedPolicy;
use hypervisor::Machine;
use ksym::whitelist::Whitelist;
use metrics::counters::CounterSet;
use simcore::ids::VmId;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::scenario_file::{self, RunMode, Scenario};

/// Cells behind the workload digest: an untraced run always completes
/// at least these, and the traced pass runs exactly these.
pub const DIGEST_CELLS: u64 = 4;

/// At most this many `CounterSet::incr` calls are replayed per cell.
const MAX_INCR_REPLAY: u64 = 1 << 20;

/// A loaded, validated scenario workload.
#[derive(Clone, Debug)]
pub struct ScenarioWorkload {
    /// The file it was loaded from.
    pub path: PathBuf,
    /// The parsed scenario.
    pub scenario: Scenario,
}

/// Parses and validates a workload file's text: both `scenario_file`
/// layers, then the benchmark's own rules (one window-mode cell of one
/// policy, no warm-up prefix).
fn parse(path: &Path, text: &str) -> Result<Scenario, String> {
    let stem = path.file_stem().map_or_else(
        || "scenario".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let sc =
        scenario_file::parse_str(&stem, text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut errs = sc.validate().err().unwrap_or_default();
    if sc.run.mode != RunMode::Window {
        errs.push("a benchmark workload runs in window mode".into());
    }
    if sc.run.policies.len() != 1 || sc.run.repeats != 1 {
        errs.push("a benchmark workload is one cell: one policy, repeats = 1".into());
    }
    if sc.run.warm_ms != 0 {
        errs.push("a benchmark workload has no warm-up prefix (warm_ms = 0)".into());
    }
    if errs.is_empty() {
        Ok(sc)
    } else {
        Err(format!(
            "{}: invalid workload:\n  - {}",
            path.display(),
            errs.join("\n  - ")
        ))
    }
}

/// Loads and validates a workload file.
pub fn load(path: &Path) -> Result<ScenarioWorkload, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    Ok(ScenarioWorkload {
        path: path.to_path_buf(),
        scenario: parse(path, &text)?,
    })
}

/// One executed cell: host-time marks and the finished machine, or why
/// the cell failed (a `SimError`, an invariant violation, or a panic).
pub struct Cell {
    /// When set-up (`to_parts` + `Machine::new`) started.
    pub started: Instant,
    /// When set-up ended and `run_until` started.
    pub built: Instant,
    /// When `run_until` returned.
    pub ended: Instant,
    /// The finished machine.
    pub result: Result<Machine, String>,
}

impl Cell {
    /// Host seconds for the whole cell.
    pub fn wall_s(&self) -> f64 {
        (self.ended - self.started).as_secs_f64()
    }

    /// The cell digest, or 0 for a failed cell.
    pub fn digest(&self) -> u64 {
        self.result.as_ref().map_or(0, cell_digest)
    }
}

/// FNV-64 of a finished cell's counters, per-VM work, and simulated time.
fn cell_digest(m: &Machine) -> u64 {
    let mut s = format!("now={} {}", m.now().as_nanos(), m.stats.counters);
    for v in 0..m.num_vms() {
        let _ = write!(s, " vm{v}={}", m.vm_work_done(VmId(v as u16)));
    }
    fnv64(s.as_bytes())
}

/// FNV-64 over a sequence of cell digests.
fn combine(digests: &[u64]) -> u64 {
    let hex: String = digests.iter().map(|d| format!("{d:016x}")).collect();
    fnv64(hex.as_bytes())
}

fn policy_of(sc: &Scenario) -> Box<dyn SchedPolicy> {
    policy_kind(sc.run.policies[0]).build()
}

fn options(sc: &Scenario, seed: u64) -> RunOptions {
    RunOptions {
        seed,
        faults: sc.faults,
        ..RunOptions::default()
    }
}

/// Host time of one set-up repetition.
#[derive(Clone, Debug)]
struct SetupRep {
    /// The whole repetition.
    total: Duration,
    /// Reading, parsing and validating the file.
    load: Duration,
    /// `to_parts` + `Machine::new`, per digest cell.
    new: Vec<Duration>,
}

impl ScenarioWorkload {
    /// The simulated measurement window of one cell.
    fn window(&self) -> SimDuration {
        SimDuration::from_millis(self.scenario.run.window_ms)
    }

    /// One set-up repetition: load and validate the file, then
    /// `to_parts` and `Machine::new` for every digest cell.
    fn setup_rep(&self, base: &RunOptions) -> Result<SetupRep, String> {
        let started = Instant::now();
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("{}: cannot read: {e}", self.path.display()))?;
        let sc = parse(&self.path, &text)?;
        let load = started.elapsed();
        let mut new = Vec::new();
        let mut machines = Vec::new();
        for r in 0..DIGEST_CELLS {
            let t = Instant::now();
            machines.push(build_with(
                &options(&sc, base.seed_for(r)),
                sc.to_parts(),
                policy_of(&sc),
            ));
            new.push(t.elapsed());
        }
        let total = started.elapsed();
        drop(black_box(machines));
        Ok(SetupRep { total, load, new })
    }

    /// Builds and runs one cell for `window`; with a probe, the cell's
    /// policy is wrapped in a [`TimedPolicy`] recording into it.
    pub fn run_cell(&self, seed: u64, window: SimDuration, probe: Option<&Arc<Probe>>) -> Cell {
        let started = Instant::now();
        let mut built = started;
        let mut ended = None;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut policy = policy_of(&self.scenario);
            if let Some(p) = probe {
                policy = Box::new(TimedPolicy::new(policy, Arc::clone(p)));
            }
            let mut m = build_with(
                &options(&self.scenario, seed),
                self.scenario.to_parts(),
                policy,
            );
            built = Instant::now();
            m.run_until(SimTime::ZERO + window)
                .map_err(|e| e.to_string())?;
            ended = Some(Instant::now());
            m.check_invariants()
                .map_err(|e| format!("invariant violated: {e}"))?;
            Ok(m)
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        });
        Cell {
            started,
            built,
            ended: ended.unwrap_or_else(Instant::now),
            result,
        }
    }
}

/// Reports cell `r` on stderr: its host time, or why it failed.
fn log(w: &ScenarioWorkload, r: u64, cell: &Cell) {
    match &cell.result {
        Ok(_) => eprintln!("{} cell {r}: {:.4} s", w.scenario.name, cell.wall_s()),
        Err(e) => eprintln!("{} cell {r}: {e}", w.scenario.name),
    }
}

/// The untraced run: cells until `seconds` of host time are used (at
/// least [`DIGEST_CELLS`]), each preceded by one set-up repetition.
/// Returns the end-to-end report and the workload digest.
///
/// Set-up repetitions sit between cells, where a sweep's cells meet
/// set-up, rather than in a block at process start: a block runs with
/// warming caches in whatever host phase the process started in, and its
/// median varies several times more from run to run (see `README.md`).
pub fn measure(w: &ScenarioWorkload, seed: u64, seconds: f64) -> Result<(Report, u64), String> {
    let base = RunOptions {
        seed,
        ..RunOptions::default()
    };
    let mut report = Report::end_to_end();
    let begin = Instant::now();
    let (mut setups, mut walls, mut peaks, mut digests) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut r = 0;
    while r < DIGEST_CELLS || begin.elapsed().as_secs_f64() + median(&walls) <= seconds {
        setups.push(w.setup_rep(&base)?.total.as_secs_f64());
        reset_peak_rss()?;
        let cell = w.run_cell(base.seed_for(r), w.window(), None);
        peaks.push(peak_rss_mb()?);
        log(w, r, &cell);
        report.ops(1, cell.result.is_err() as u64);
        walls.push(cell.wall_s());
        if r < DIGEST_CELLS {
            digests.push(cell.digest());
        }
        r += 1;
    }
    report.set("wall_s", median(&walls));
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", median(&peaks));
    Ok((report, combine(&digests)))
}

/// Call counts per counter name of a finished cell. `ipis_sent` is
/// bumped by one `add` per shootdown, so its call count is the
/// shootdown count; every other counter moves by one per call.
fn counter_calls(c: &CounterSet) -> Vec<(&'static str, u64)> {
    c.iter()
        .map(|(name, v)| match name {
            "ipis_sent" => (name, c.get("tlb_shootdowns")),
            _ => (name, v),
        })
        .collect()
}

/// Replays `n` `CounterSet::incr` calls at the given call mix (names
/// interleaved in a fixed pseudo-random order, every name present as in
/// a running machine). Returns the host time taken.
fn replay_incr(mix: &[(&'static str, u64)], n: u64) -> Duration {
    const SLOTS: u64 = 1024;
    let total: u64 = mix.iter().map(|m| m.1).sum();
    let mut schedule: Vec<&'static str> = Vec::new();
    for &(name, calls) in mix.iter().filter(|m| m.1 > 0) {
        let k = (calls * SLOTS / total).max(1);
        schedule.extend(std::iter::repeat_n(name, k as usize));
    }
    if schedule.is_empty() || n == 0 {
        return Duration::ZERO;
    }
    let mut rng = SimRng::new(0x5EED);
    for i in (1..schedule.len()).rev() {
        schedule.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut set = CounterSet::new();
    for &(name, _) in mix {
        set.add(name, 0);
    }
    let t = Instant::now();
    for i in 0..n as usize {
        set.incr(black_box(schedule[i % schedule.len()]));
    }
    let elapsed = t.elapsed();
    black_box(set);
    elapsed
}

/// Replays `Whitelist::classify` over sampled yield instruction
/// pointers against the machine's symbol table. Returns the host time
/// taken and how many classified as critical.
fn replay_classify(m: &Machine, ips: &[u64]) -> (Duration, u64) {
    let wl = Whitelist::linux44();
    let table = m.kernel_map().table();
    let t = Instant::now();
    let critical = ips
        .iter()
        .filter(|&&ip| wl.classify(table, black_box(ip)).is_critical())
        .count();
    (t.elapsed(), critical as u64)
}

/// Sums over the traced cells.
#[derive(Default)]
struct Totals {
    run_ns: f64,
    hook_calls: [u64; 4],
    hook_ns: [u64; 4],
    work: [u64; WORK_COUNTS.len()],
    migrations: u64,
    rejects: u64,
    resizes: u64,
    incrs: u64,
    incr_replayed: u64,
    incr_ns: f64,
    ips: u64,
    critical: u64,
    classify_ns: f64,
    snapshot_fork_us: Vec<f64>,
}

impl Totals {
    fn add(&mut self, m: &Machine, probe: &Probe, run_ns: f64) {
        self.run_ns += run_ns;
        for h in 0..HOOKS.len() {
            self.hook_calls[h] += probe.calls(h);
            self.hook_ns[h] += probe.nanos(h);
        }
        let c = &m.stats.counters;
        for (slot, (_, key)) in self.work.iter_mut().zip(WORK_COUNTS) {
            *slot += c.get(key);
        }
        self.migrations += c.get("micro_migrations");
        self.rejects += c.get("micro_rejects");
        self.resizes += c.get("pool_resizes");

        let mix = counter_calls(c);
        let calls: u64 = mix.iter().map(|m| m.1).sum();
        let replayed = calls.min(MAX_INCR_REPLAY);
        self.incrs += calls;
        self.incr_replayed += replayed;
        self.incr_ns += replay_incr(&mix, replayed).as_nanos() as f64;

        let ips = probe.ips();
        let (took, critical) = replay_classify(m, &ips);
        self.ips += ips.len() as u64;
        self.critical += critical;
        self.classify_ns += took.as_nanos() as f64;

        let t = Instant::now();
        let fork = m.snapshot().fork();
        self.snapshot_fork_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(black_box(fork));
    }

    fn report(&self, report: &mut Report) {
        let hook_ns: u64 = self.hook_ns.iter().sum();
        for (h, hook) in HOOKS.iter().enumerate() {
            let (calls, ns) = (self.hook_calls[h] as f64, self.hook_ns[h] as f64);
            report.set(&format!("microslice.policy.{hook}.calls"), calls);
            report.set(
                &format!("microslice.policy.{hook}.ns_mean"),
                ratio(ns, calls),
            );
            report.set(
                &format!("microslice.policy.{hook}.share"),
                ratio(ns, self.run_ns),
            );
        }
        let (mig, rej) = (self.migrations as f64, self.rejects as f64);
        report.set(
            "microslice.policy.accel_success_ratio",
            ratio(mig, mig + rej),
        );
        report.set("microslice.adaptive.pool_resizes", self.resizes as f64);
        report.set(
            "ksym.whitelist.classify_ns",
            ratio(self.classify_ns, self.ips as f64),
        );
        report.set(
            "ksym.whitelist.critical_ratio",
            ratio(self.critical as f64, self.ips as f64),
        );
        let incr_ns = ratio(self.incr_ns, self.incr_replayed as f64);
        let counters_ns = incr_ns * self.incrs as f64;
        report.set("metrics.counters.incrs", self.incrs as f64);
        report.set("metrics.counters.incr_ns", incr_ns);
        report.set("metrics.counters.share", ratio(counters_ns, self.run_ns));
        for ((name, _), n) in WORK_COUNTS.iter().zip(self.work) {
            report.set(name, n as f64);
        }
        report.set(
            "hypervisor.machine.unattributed_share",
            1.0 - ratio(hook_ns as f64 + counters_ns, self.run_ns),
        );
        if !self.snapshot_fork_us.is_empty() {
            report.set(
                "hypervisor.machine.snapshot_fork_us",
                median(&self.snapshot_fork_us),
            );
        }
    }
}

/// Renders a probe's per-hook aggregates as a JSON object body.
fn hooks_json(probe: &Probe) -> String {
    HOOKS
        .iter()
        .enumerate()
        .map(|(h, hook)| {
            format!(
                "\"{hook}\": {{\"calls\": {}, \"ns\": {}}}",
                probe.calls(h),
                probe.nanos(h)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The traced pass: each digest cell, preceded by a set-up repetition,
/// runs twice — untraced, and with the policy wrapped in a
/// [`TimedPolicy`]. A wrapped cell whose digest differs from its
/// untraced twin makes the run incorrect. Returns the per-layer report
/// and the workload digest.
pub fn trace(
    w: &ScenarioWorkload,
    seed: u64,
    spans: &mut SpanLog,
) -> Result<(Report, u64), String> {
    let base = RunOptions {
        seed,
        ..RunOptions::default()
    };
    let mut report = Report::per_layer();
    let us = |d: &Duration| d.as_secs_f64() * 1e6;
    let (mut loads, mut news) = (Vec::new(), Vec::new());
    let (mut plain_walls, mut traced_walls, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut totals = Totals::default();
    for r in 0..DIGEST_CELLS {
        let setup = w.setup_rep(&base)?;
        loads.push(us(&setup.load));
        news.extend(setup.new.iter().map(us));
        let cell_seed = base.seed_for(r);
        let plain = w.run_cell(cell_seed, w.window(), None);
        let probe = Arc::new(Probe::default());
        let traced = w.run_cell(cell_seed, w.window(), Some(&probe));
        for cell in [&plain, &traced] {
            log(w, r, cell);
            report.ops(1, cell.result.is_err() as u64);
        }
        if plain.digest() != traced.digest() {
            eprintln!(
                "{} cell {r}: traced digest {:016x} != untraced {:016x}",
                w.scenario.name,
                traced.digest(),
                plain.digest()
            );
            report.correct = false;
        }
        digests.push(plain.digest());
        plain_walls.push(plain.wall_s());
        traced_walls.push(traced.wall_s());

        let run_ns = (traced.ended - traced.built).as_nanos() as f64;
        let self_ns = run_ns - probe.total_nanos() as f64;
        let cell_fields = format!(
            "\"workload\": \"{}\", \"cell\": {r}, \"seed\": \"{cell_seed:#x}\"",
            w.scenario.name
        );
        spans.span("cell", None, traced.started, traced.ended, &cell_fields);
        spans.span(
            "setup",
            Some("cell"),
            traced.started,
            traced.built,
            &format!("\"cell\": {r}"),
        );
        spans.span(
            "run",
            Some("cell"),
            traced.built,
            traced.ended,
            &format!(
                "\"cell\": {r}, \"self_ns\": {self_ns}, \"hooks\": {{{}}}",
                hooks_json(&probe)
            ),
        );
        if let Ok(m) = &traced.result {
            totals.add(m, &probe, run_ns);
        }
    }
    totals.report(&mut report);
    report.set("workloads.scenario_file.load_us", median(&loads));
    report.set("hypervisor.machine.new_us", median(&news));
    report.set("host.calibration_ms", calibration_ms());
    report.set(
        "trace.overhead_pct",
        (median(&traced_walls) / median(&plain_walls) - 1.0) * 100.0,
    );
    Ok((report, combine(&digests)))
}
