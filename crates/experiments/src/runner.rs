//! Shared experiment machinery: policies, run options, the cell fan-out
//! ([`run_cells`]) and the one measuring path. An experiment cell runs
//! a machine only through [`Grid::window`] or [`Grid::finish`], and reads
//! only the [`Measured`] record either returns: no experiment module
//! builds, runs or reads a machine itself.

pub mod grid;
pub mod ledger;
pub mod pool;
pub mod store;

pub use grid::{Grid, Measured, Target};

use hypervisor::policy::SchedPolicy;
use hypervisor::{
    crash, BaselinePolicy, FaultPlan, FaultSpec, Machine, MachineConfig, SimError, VmSpec,
};
use microslice::{AdaptiveConfig, MicroslicePolicy};
use simcore::time::{SimDuration, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

/// Which scheduling policy a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PolicyKind {
    /// Vanilla Xen (credit scheduler, BOOST, PLE) — the paper's baseline.
    Baseline,
    /// Micro-sliced cores with a fixed pool size (the paper's "static").
    Fixed(usize),
    /// Micro-sliced cores sized by Algorithm 1 (the paper's "dynamic").
    Adaptive,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn SchedPolicy> {
        match self {
            PolicyKind::Baseline => Box::new(BaselinePolicy),
            PolicyKind::Fixed(n) => Box::new(MicroslicePolicy::fixed(n)),
            PolicyKind::Adaptive => Box::new(MicroslicePolicy::adaptive(AdaptiveConfig::default())),
        }
    }

    /// Short label for report columns.
    pub fn label(self) -> String {
        match self {
            PolicyKind::Baseline => "baseline".to_string(),
            PolicyKind::Fixed(n) => format!("{n}"),
            PolicyKind::Adaptive => "dynamic".to_string(),
        }
    }
}

/// The policy a grid cell installs at its divergence point (see
/// [`Grid::window`] and [`Grid::finish`]).
pub enum CellPolicy {
    /// A stock policy: cells share its post-warm windows and completions
    /// through the checkpoint store.
    Kind(PolicyKind),
    /// A policy object built for one cell (a comparator or an ablation):
    /// the cell simulates its own window or completion.
    Custom(Box<dyn SchedPolicy>),
}

impl From<PolicyKind> for CellPolicy {
    fn from(kind: PolicyKind) -> Self {
        CellPolicy::Kind(kind)
    }
}

/// Global experiment options.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Quick mode: shorter windows and smaller iteration budgets, for CI
    /// and tests. Shapes still hold; absolute counts shrink.
    pub quick: bool,
    /// Base RNG seed (experiments offset it per run).
    pub seed: u64,
    /// Worker threads for fanning out independent runs. `1` (the default
    /// here) executes serially on the calling thread in today's exact
    /// order; any value produces byte-identical results — see
    /// [`pool`].
    pub jobs: usize,
    /// Run [`Machine::check_invariants`] on every accounting tick.
    /// Validation only: enabling it never changes simulation output.
    ///
    /// [`Machine::check_invariants`]: hypervisor::Machine::check_invariants
    pub paranoid: bool,
    /// Render failed grid cells as `ERR` and finish the rest of the grid
    /// instead of aborting on the first failure (`repro --keep-going`).
    pub keep_going: bool,
    /// Fault plan installed into every machine the runner builds. `None`
    /// (the default) injects nothing and leaves output byte-identical.
    pub faults: Option<FaultSpec>,
    /// Checkpoint sharing: cells fork the warm-ups and windows, and read
    /// the completions, other cells already simulated from the
    /// checkpoint store instead of re-simulating them (`repro --no-fork`
    /// disables it). Both settings produce byte-identical output — see
    /// [`store`]; this flag only chooses between forking shared state
    /// and recomputing it.
    pub fork: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            quick: false,
            seed: 0xE005_2018, // EuroSys 2018.
            jobs: 1,
            paranoid: false,
            keep_going: false,
            faults: None,
            fork: true,
        }
    }
}

impl RunOptions {
    /// Quick-mode options.
    pub fn quick() -> Self {
        RunOptions {
            quick: true,
            ..Default::default()
        }
    }

    /// Sets the worker-thread count (builder style). Zero is clamped to 1.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Derives an independent seed for run `index` from the base seed.
    ///
    /// SplitMix64 over `seed ^ index`: statistically independent streams
    /// per run, stable across job counts (a pure function of the index),
    /// and distinct even for adjacent indices. Experiments that want
    /// per-run seed variation use this instead of ad-hoc offsets so the
    /// derivation is uniform across the suite.
    pub fn seed_for(&self, index: u64) -> u64 {
        let mut z = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Scales an iteration budget down in quick mode.
    pub fn iters(&self, full: u64) -> u64 {
        if self.quick {
            (full / 4).max(500)
        } else {
            full
        }
    }

    /// Scales a measurement window down in quick mode.
    pub fn window(&self, full: SimDuration) -> SimDuration {
        if self.quick {
            (full / 4).max(SimDuration::from_millis(800))
        } else {
            full
        }
    }

    /// Scales a shared warm-up prefix down in quick mode. Unlike
    /// [`window`](Self::window) there is no generous floor — a warm
    /// prefix must stay well below the measurement span it precedes.
    pub fn warm(&self, full: SimDuration) -> SimDuration {
        if self.quick {
            full / 4
        } else {
            full
        }
    }

    /// Horizon for runs that wait for VM completion.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(if self.quick { 60 } else { 240 })
    }
}

/// Why one grid cell of an experiment failed.
#[derive(Clone, Debug)]
pub enum CellFailure {
    /// The cell's simulation (or merge code) panicked.
    Panic(String),
    /// The simulation poisoned itself with a typed error.
    Sim(SimError),
    /// The run hit its horizon before every VM finished — a silently
    /// truncated run would corrupt normalized execution times, so it is
    /// reported as a failure instead.
    Horizon,
    /// The cell was not executed because a `repro cell --cell B:I`
    /// single-cell filter selected a different cell. Rendered as `SKIP`,
    /// never treated as a real failure.
    Skipped,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellFailure::Panic(msg) => write!(f, "panicked: {msg}"),
            CellFailure::Sim(e) => write!(f, "simulation error: {e}"),
            CellFailure::Horizon => write!(f, "did not finish within the horizon"),
            CellFailure::Skipped => write!(f, "skipped by the --cell filter"),
        }
    }
}

/// A cell failure tagged with the `(scenario, policy, seed)` label of the
/// grid cell it happened in, plus the crash artifact written for it (when
/// a [`pool::Scope`] was active).
#[derive(Clone, Debug)]
pub struct CellError {
    /// Which cell, e.g. `fig4[dedup x 3, seed 0xe0052018]`.
    pub label: String,
    /// What went wrong.
    pub failure: CellFailure,
    /// Path of the crash artifact holding the flight-recorder dump, if
    /// one was written.
    pub artifact: Option<PathBuf>,
    /// Self-contained `repro cell ...` command replaying this failure, if
    /// an artifact was written.
    pub replay: Option<String>,
}

impl CellError {
    fn bare(label: String, failure: CellFailure) -> Self {
        CellError {
            label,
            failure,
            artifact: None,
            replay: None,
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.label, self.failure)
    }
}

/// Result of one experiment grid cell.
pub type CellResult<T> = Result<T, CellFailure>;

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Fans `f(opts, 0..n)` across `opts.jobs` workers with each cell
/// isolated by `catch_unwind`: a panicking or failing cell becomes an
/// `Err` carrying `label(i)` instead of taking the whole grid down.
/// Without `opts.keep_going` the first failure still aborts — but only
/// after the whole grid ran, and the panic message names the failing cell
/// (and its crash artifact, when one was written).
///
/// Each cell reads the options it is handed, not the ones its closure
/// captured: `opts`, or in a scope's shrink probe (below) `opts` with a
/// truncated fault plan.
///
/// When the calling thread carries a [`pool::Scope`] (`repro` installs
/// one per experiment), every cell additionally runs inside an armed
/// [`hypervisor::crash`] session with an optional wall-clock watchdog: a
/// failing cell dumps a crash artifact with the machine's flight
/// recorder, a minimized fault plan, and a self-contained replay
/// command. All of that is worker-side and stderr-side only — stdout
/// bytes never depend on whether a scope is installed.
pub fn run_cells<T, L, F>(opts: &RunOptions, n: usize, label: L, f: F) -> Vec<Result<T, CellError>>
where
    T: Send,
    L: Fn(usize) -> String + Sync,
    F: Fn(&RunOptions, usize) -> CellResult<T> + Sync,
{
    let scope = pool::current_scope();
    // Claimed on the driver thread in program order, so a cell's
    // `batch:index` coordinate is stable across runs and job counts —
    // that is what makes `repro cell --cell B:I` replays well-defined.
    let batch = scope.as_ref().map(|s| s.claim_batch());
    let out: Vec<Result<T, CellError>> = pool::run_indexed(opts.jobs, n, |i| {
        let guarded = |opts: &RunOptions| {
            catch_unwind(AssertUnwindSafe(|| f(opts, i)))
                .unwrap_or_else(|p| Err(CellFailure::Panic(panic_text(p))))
        };
        match (&scope, batch) {
            (Some(scope), Some(batch)) => {
                run_cell_scoped(scope, opts, batch, i, &label(i), &guarded)
            }
            _ => guarded(opts).map_err(|failure| CellError::bare(label(i), failure)),
        }
    });
    let real_failures = || {
        out.iter()
            .filter_map(|r| r.as_ref().err())
            .filter(|e| !matches!(e.failure, CellFailure::Skipped))
    };
    if opts.keep_going {
        // Driver-side and stderr-only, so the report order is
        // deterministic and stdout byte-identity is untouched. Only under
        // a scope: library callers (tests) keep today's quiet behavior.
        if scope.is_some() {
            for e in real_failures() {
                eprintln!("cell failed — {e}");
                if let Some(p) = &e.artifact {
                    eprintln!("  artifact: {}", p.display());
                }
                if let Some(cmd) = &e.replay {
                    eprintln!("  replay: {cmd}");
                }
            }
        }
    } else if let Some(e) = real_failures().next() {
        let mut msg = format!("experiment cell failed — {e}");
        if let Some(p) = &e.artifact {
            msg.push_str(&format!("; crash artifact: {}", p.display()));
        }
        if let Some(cmd) = &e.replay {
            msg.push_str(&format!("; replay: {cmd}"));
        }
        msg.push_str(
            "; re-run with --keep-going to render it as ERR and finish the rest of the grid",
        );
        panic!("{msg}");
    }
    out
}

/// How a failed cell renders in a table: `HUNG` for a watchdog
/// cancellation, `SKIP` for a cell elided by the `--cell` filter, `ERR`
/// for everything else.
pub fn fail_text(failure: &CellFailure) -> &'static str {
    match failure {
        CellFailure::Sim(SimError::Watchdog { .. }) => "HUNG",
        CellFailure::Skipped => "SKIP",
        _ => "ERR",
    }
}

/// A table row for a failed cell: the label followed by `cols` columns of
/// the failure's [`fail_text`].
pub fn fail_row(label: String, cols: usize, failure: &CellFailure) -> Vec<String> {
    let mut row = vec![label];
    row.extend((0..cols).map(|_| fail_text(failure).to_string()));
    row
}

/// The outcome of the post-failure fault-plan shrink pass.
enum Shrink {
    /// Shrinking does not apply (see [`shrink_fault_plan`]).
    NotAttempted,
    /// Re-running under the whole plan did not reproduce the failure.
    NotReproducible,
    /// The first `take` planned entries reproduce the failure; the search
    /// covered `1..=bound`.
    Minimal { take: u32, bound: u32 },
}

/// Executes one cell under the scope's crash session, watchdog, and cell
/// filter; on failure, shrinks the fault plan and writes the crash
/// artifact. Runs on the worker thread that owns the cell.
fn run_cell_scoped<T>(
    scope: &pool::Scope,
    opts: &RunOptions,
    batch: usize,
    i: usize,
    label: &str,
    run: &dyn Fn(&RunOptions) -> CellResult<T>,
) -> Result<T, CellError> {
    if let Some(filter) = scope.filter() {
        if filter != (batch, i) {
            return Err(CellError::bare(label.into(), CellFailure::Skipped));
        }
        scope.note_matched();
    }
    let attempt = |opts: &RunOptions| {
        // A deadline past the clock's range is no deadline.
        let deadline = scope.watchdog().and_then(|d| Instant::now().checked_add(d));
        crash::with_session(|| match deadline {
            Some(deadline) => simcore::watchdog::with_deadline(deadline, || run(opts)),
            None => run(opts),
        })
    };
    let failure = match attempt(opts) {
        Ok(v) => return Ok(v),
        Err(failure) => failure,
    };
    scope.note_failed();
    // Capture the evidence of the *original* failure before any shrink
    // probe overwrites the session's report slot.
    let report = crash::take_report();
    let shrink = shrink_fault_plan(opts, &failure, report.is_some(), &attempt);
    let (artifact, replay) =
        match write_artifact(scope, opts, batch, i, label, &failure, &shrink, report) {
            Some((path, cmd)) => (Some(path), Some(cmd)),
            None => (None, None),
        };
    Err(CellError {
        label: label.into(),
        failure,
        artifact,
        replay,
    })
}

/// Bisects a failing cell's fault plan down to a minimal reproducing
/// prefix by re-running the cell under its options with `take=K`, the
/// spec the artifact's replay command embeds. Each probe's spec names its
/// own checkpoint-store key, so the truncated plan governs every
/// simulated prefix and completion. The search covers `1..=bound`, where
/// `bound` is [`FaultPlan::max_len`], an upper bound on the plan a
/// machine installs from the spec, at most its own `take` (a `take` past
/// the plan's end keeps it whole). Only a failure that left a crash
/// report (`reported`) and is not a watchdog cancellation is shrunk.
///
/// The bisection assumes the usual prefix monotonicity (if `k` entries
/// reproduce, so do `k + 1`); plans violating it still yield *a*
/// reproducing prefix, just not always the shortest. "Reproduces" means
/// an identical failure rendering, so the minimized replay fails with
/// the same error, not merely some error.
fn shrink_fault_plan<T>(
    opts: &RunOptions,
    failure: &CellFailure,
    reported: bool,
    attempt: &dyn Fn(&RunOptions) -> CellResult<T>,
) -> Shrink {
    let bound = opts.faults.map_or(0, |spec| FaultPlan::max_len(&spec));
    let cancelled = matches!(failure, CellFailure::Sim(SimError::Watchdog { .. }));
    let Some(spec) = opts.faults.filter(|_| bound > 0 && reported && !cancelled) else {
        return Shrink::NotAttempted;
    };
    let want = failure.to_string();
    let reproduces = |take: u32| -> bool {
        let probe = RunOptions {
            faults: Some(FaultSpec { take, ..spec }),
            ..*opts
        };
        matches!(attempt(&probe), Err(f) if f.to_string() == want)
    };
    if !reproduces(bound) {
        return Shrink::NotReproducible;
    }
    let (mut lo, mut hi) = (1u32, bound);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reproduces(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Shrink::Minimal { take: hi, bound }
}

/// Writes the crash artifact for a failed cell and returns its path plus
/// the replay command embedded in it. A filesystem error is reported on
/// stderr and swallowed — artifacts are evidence, not output.
#[allow(clippy::too_many_arguments)]
fn write_artifact(
    scope: &pool::Scope,
    opts: &RunOptions,
    batch: usize,
    i: usize,
    label: &str,
    failure: &CellFailure,
    shrink: &Shrink,
    report: Option<String>,
) -> Option<(PathBuf, String)> {
    use std::fmt::Write as _;
    let replay_spec = opts.faults.map(|spec| match *shrink {
        Shrink::Minimal { take, .. } => FaultSpec { take, ..spec },
        _ => spec,
    });
    let mut cmd = format!(
        "repro cell {} --cell {}:{} --seed {}",
        scope.experiment(),
        batch,
        i,
        opts.seed
    );
    if opts.quick {
        cmd.push_str(" --quick");
    }
    if opts.paranoid {
        cmd.push_str(" --paranoid");
    }
    if let Some(spec) = &replay_spec {
        let _ = write!(cmd, " --faults \"{spec}\"");
    }
    let mut text = String::with_capacity(4096);
    let _ = writeln!(text, "crash artifact v1");
    let _ = writeln!(text, "experiment: {}", scope.experiment());
    let _ = writeln!(text, "cell: {batch}:{i}");
    let _ = writeln!(text, "label: {label}");
    let _ = writeln!(text, "failure: {failure}");
    let _ = writeln!(
        text,
        "faults: {}",
        opts.faults
            .map_or_else(|| "none".to_string(), |s| s.to_string())
    );
    let _ = match shrink {
        Shrink::NotAttempted => writeln!(text, "shrink: not attempted"),
        Shrink::NotReproducible => writeln!(
            text,
            "shrink: failed to reproduce under re-run; full plan retained"
        ),
        Shrink::Minimal { take, bound } => writeln!(
            text,
            "shrink: take={take} suffices to reproduce (bisected over 1..={bound})"
        ),
    };
    let _ = writeln!(text, "replay: {cmd}");
    let _ = writeln!(text, "---- crash report ----");
    match report {
        Some(r) => text.push_str(&r),
        None => {
            let _ = writeln!(
                text,
                "unavailable (the cell failed outside a machine's event loop)"
            );
        }
    }
    // A `scenario:PATH` id holds `:` and `/`: the file name maps every
    // character outside `[A-Za-z0-9._-]` to `_`, the replay keeps the id.
    let keep = |c: char| c.is_ascii_alphanumeric() || "._-".contains(c);
    let stem: String = scope
        .experiment()
        .chars()
        .map(|c| if keep(c) { c } else { '_' })
        .collect();
    let dir = scope.artifacts_dir();
    let path = dir.join(format!("{stem}-{batch}-{i}-{:#x}.txt", opts.seed));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &text));
    match written {
        Ok(()) => Some((path, cmd)),
        Err(e) => {
            eprintln!("could not write crash artifact {}: {e}", path.display());
            None
        }
    }
}

/// `cfg` with the options' seed and paranoid mode, as [`build_with`]
/// builds it.
fn configured(opts: &RunOptions, mut cfg: MachineConfig) -> MachineConfig {
    cfg.seed = opts.seed;
    cfg.paranoid = opts.paranoid;
    cfg
}

/// Builds a machine from a scenario and an explicit policy object,
/// applying the options' seed, paranoid mode, and fault plan.
pub fn build_with(
    opts: &RunOptions,
    scenario: (MachineConfig, Vec<VmSpec>),
    policy: Box<dyn SchedPolicy>,
) -> Machine {
    let (cfg, specs) = scenario;
    let mut m = Machine::new(configured(opts, cfg), specs, policy);
    if let Some(spec) = &opts.faults {
        m.install_faults(spec);
    }
    m
}

/// Builds a machine from a scenario and policy, seeding it from the
/// options.
pub fn build(
    opts: &RunOptions,
    scenario: (MachineConfig, Vec<VmSpec>),
    policy: PolicyKind,
) -> Machine {
    build_with(opts, scenario, policy.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::ids::VmId;
    use std::sync::Arc;
    use std::time::Duration;
    use workloads::scenarios;
    use workloads::Workload;

    #[test]
    fn policy_kinds_build_and_label() {
        assert_eq!(PolicyKind::Baseline.build().name(), "baseline");
        assert_eq!(PolicyKind::Fixed(2).build().name(), "microslice-static");
        assert_eq!(PolicyKind::Adaptive.build().name(), "microslice-adaptive");
        assert_eq!(PolicyKind::Baseline.label(), "baseline");
        assert_eq!(PolicyKind::Fixed(3).label(), "3");
        assert_eq!(PolicyKind::Adaptive.label(), "dynamic");
    }

    #[test]
    fn quick_mode_scales() {
        let q = RunOptions::quick();
        assert!(q.iters(10_000) < 10_000);
        assert!(q.window(SimDuration::from_secs(4)) < SimDuration::from_secs(4));
        let f = RunOptions::default();
        assert_eq!(f.iters(10_000), 10_000);
        assert_eq!(
            f.window(SimDuration::from_secs(4)),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn seed_derivation_is_stable_and_distinct() {
        let opts = RunOptions::default();
        // Pure function of (base seed, index): same call, same value.
        assert_eq!(opts.seed_for(3), opts.seed_for(3));
        // Adjacent indices get unrelated seeds.
        let seeds: Vec<u64> = (0..64).map(|i| opts.seed_for(i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "seed collision across indices");
        // Different base seeds diverge.
        let other = RunOptions {
            seed: 1,
            ..Default::default()
        };
        assert_ne!(opts.seed_for(0), other.seed_for(0));
    }

    #[test]
    fn with_jobs_clamps_zero() {
        assert_eq!(RunOptions::default().with_jobs(0).jobs, 1);
        assert_eq!(RunOptions::default().with_jobs(8).jobs, 8);
    }

    #[test]
    fn zero_warm_window_produces_stats() {
        let opts = RunOptions::quick();
        let m = Grid::new(&opts, SimDuration::ZERO)
            .window(
                &opts,
                scenarios::solo(Workload::Swaptions),
                PolicyKind::Baseline,
                SimDuration::from_millis(500),
            )
            .unwrap();
        assert!(m.work(VmId(0)) > 0);
        assert_eq!(m.end.at, SimTime::from_millis(500));
        assert_eq!(m.from_boot(), &m.end);
    }

    #[test]
    fn run_cells_isolates_panics_under_keep_going() {
        let opts = RunOptions {
            keep_going: true,
            ..RunOptions::quick()
        };
        let out = run_cells(
            &opts,
            4,
            |i| format!("cell[{i}]"),
            |_, i| {
                if i == 2 {
                    panic!("boom {i}");
                }
                Ok(i * 10)
            },
        );
        assert_eq!(out.len(), 4, "all cells must complete");
        assert_eq!(*out[0].as_ref().unwrap(), 0);
        assert_eq!(*out[3].as_ref().unwrap(), 30);
        let e = out[2].as_ref().unwrap_err();
        assert_eq!(e.label, "cell[2]");
        assert!(
            matches!(&e.failure, CellFailure::Panic(msg) if msg.contains("boom 2")),
            "{e}"
        );
    }

    #[test]
    #[should_panic(expected = "cell[1]")]
    fn run_cells_names_the_failing_cell_without_keep_going() {
        let opts = RunOptions::quick();
        let _ = run_cells(
            &opts,
            3,
            |i| format!("cell[{i}]"),
            |_, i| {
                if i == 1 {
                    Err(CellFailure::Horizon)
                } else {
                    Ok(i)
                }
            },
        );
    }

    #[test]
    fn fail_row_fills_columns_by_failure_kind() {
        assert_eq!(
            fail_row("x".into(), 2, &CellFailure::Horizon),
            vec!["x", "ERR", "ERR"]
        );
        assert_eq!(
            fail_row(
                "x".into(),
                1,
                &CellFailure::Sim(SimError::Watchdog { at: SimTime::ZERO })
            ),
            vec!["x", "HUNG"]
        );
        assert_eq!(
            fail_row("x".into(), 1, &CellFailure::Skipped),
            vec!["x", "SKIP"]
        );
        assert_eq!(fail_text(&CellFailure::Panic("boom".into())), "ERR");
    }

    #[test]
    fn cell_failure_displays() {
        let e = CellError::bare("fig9[TCP x baseline]".into(), CellFailure::Horizon);
        assert_eq!(
            e.to_string(),
            "fig9[TCP x baseline]: did not finish within the horizon"
        );
    }

    #[test]
    fn scoped_cells_skip_filtered_indices_and_write_artifacts() {
        let dir = std::env::temp_dir().join(format!("crash_test_{}", std::process::id()));
        let opts = RunOptions {
            keep_going: true,
            ..RunOptions::quick()
        };
        let scope = Arc::new(pool::Scope::new("demo", &dir));
        let out = pool::with_scope(&scope, || {
            run_cells(
                &opts,
                3,
                |i| format!("demo[cell {i}]"),
                |_, i| {
                    if i == 1 {
                        Err(CellFailure::Horizon)
                    } else {
                        Ok(i)
                    }
                },
            )
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        let e = out[1].as_ref().unwrap_err();
        let artifact = e.artifact.as_ref().expect("artifact written");
        let text = std::fs::read_to_string(artifact).unwrap();
        assert!(
            text.contains("failure: did not finish within the horizon"),
            "{text}"
        );
        assert!(
            text.contains("replay: repro cell demo --cell 0:1"),
            "{text}"
        );
        assert!(e.replay.as_ref().unwrap().contains("--cell 0:1"));
        assert!(scope.failed());

        // A --cell filter elides every other cell as Skipped and marks
        // the matched cell on the scope.
        let scope = Arc::new(pool::Scope::new("demo", &dir).with_filter(0, 2));
        let out = pool::with_scope(&scope, || {
            run_cells(&opts, 3, |i| format!("demo[cell {i}]"), |_, i| Ok(i))
        });
        assert!(matches!(
            out[0].as_ref().unwrap_err().failure,
            CellFailure::Skipped
        ));
        assert_eq!(*out[2].as_ref().unwrap(), 2);
        assert!(scope.matched());
        assert!(!scope.failed());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The shrink pass re-runs a failing cell under the options it hands
    /// the cell. This cell fails only while its plan keeps three or more
    /// entries, so its minimal prefix is `take=3`; a cell that ran under
    /// the options its closure captured would fail every probe and shrink
    /// to `take=1`.
    #[test]
    fn shrink_probes_hand_the_cell_its_truncated_plan() {
        let dir = std::env::temp_dir().join(format!("shrink_test_{}", std::process::id()));
        let opts = RunOptions {
            keep_going: true,
            faults: Some(FaultSpec::parse("count=8,seed=1,kinds=kick").unwrap()),
            ..RunOptions::quick()
        };
        // One sabotage entry, whatever the probe: the same failure, and a
        // crash report, every time the cell fails.
        let sabotaged = RunOptions {
            faults: Some(FaultSpec::parse("count=1,seed=3,window_ms=20,kinds=sabotage").unwrap()),
            ..opts
        };
        let scope = Arc::new(pool::Scope::new("demo", &dir));
        let out = pool::with_scope(&scope, || {
            run_cells(
                &opts,
                1,
                |i| format!("demo[cell {i}]"),
                |opts, _| {
                    let take = opts.faults.map_or(0, |spec| spec.take);
                    if take == 0 || take >= 3 {
                        let swaptions = || scenarios::vm(Workload::Swaptions, 2, None);
                        let scenario = (MachineConfig::small(2), vec![swaptions(), swaptions()]);
                        build(&sabotaged, scenario, PolicyKind::Baseline)
                            .run_until(SimTime::from_millis(50))
                            .map_err(CellFailure::Sim)?;
                    }
                    Ok(())
                },
            )
        });
        let e = out[0].as_ref().unwrap_err();
        let replay = e.replay.as_ref().expect("a replay command");
        assert!(replay.ends_with(",kinds=kick,take=3\""), "{replay}");
        let text = std::fs::read_to_string(e.artifact.as_ref().unwrap()).unwrap();
        assert!(
            text.contains("shrink: take=3 suffices to reproduce (bisected over 1..=8)"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A watchdog deadline past the clock's range is no deadline.
    #[test]
    fn a_watchdog_past_the_clock_runs_cells_to_completion() {
        let dir = std::env::temp_dir().join(format!("watchdog_test_{}", std::process::id()));
        let scope = Arc::new(pool::Scope::new("demo", &dir).with_watchdog(Duration::MAX));
        let out = pool::with_scope(&scope, || {
            run_cells(
                &RunOptions::quick(),
                2,
                |i| format!("demo[cell {i}]"),
                |_, i| Ok(i),
            )
        });
        let out: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(out, [0, 1]);
        assert!(!scope.failed());
    }
}
