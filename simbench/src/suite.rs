//! The `paper-suite` workload: all of `ALL_EXPERIMENTS` in quick mode
//! at 2 jobs, through the driver calls `repro` makes (`pool::Budget`,
//! `with_budget`, `with_scope`, `run_streamed`), with costs off (FIFO
//! admission) and keep-going on. The rendered bytes equal the stdout of
//! `repro --quick --jobs 2 --costs off --keep-going --seed N all`.

use crate::report::{Report, SpanLog};
use crate::scenario::DIGEST_CELLS;
use crate::{calibration_ms, median, output_dir, peak_rss_mb, ratio, reset_peak_rss};
use experiments::runner::ledger::fnv64;
use experiments::runner::pool::{self, Budget, Scope};
use experiments::runner::{build_with, RunOptions};
use experiments::{run_experiment, ALL_EXPERIMENTS};
use hypervisor::{BaselinePolicy, Machine};
use metrics::render::Table;
use simcore::time::{SimDuration, SimTime};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{scenarios, Workload};

/// Worker threads of the timed suite run.
pub const JOBS: usize = 2;

/// `repro`'s default per-cell watchdog floor.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Set-up repetitions behind `setup_s`, which reports their median.
const SETUP_REPS: usize = 9;

/// Simulated milliseconds of the short cell before each set-up repetition.
const SETUP_CELL_MS: u64 = 500;

/// The suite's run options at `jobs` workers.
fn options(seed: u64, jobs: usize) -> RunOptions {
    RunOptions {
        quick: true,
        seed,
        keep_going: true,
        ..RunOptions::default()
    }
    .with_jobs(jobs)
}

/// Runs one experiment as `repro` does with `--costs off`: inside a
/// crash scope with the default watchdog floor.
fn run_one(id: &str, opts: &RunOptions) -> Vec<Table> {
    let scope = Arc::new(Scope::new(id, &output_dir().join("crash")).with_watchdog(WATCHDOG));
    pool::with_scope(&scope, || {
        run_experiment(id, opts).expect("every ALL_EXPERIMENTS id is known")
    })
}

/// Data rows of a table that hold an `ERR`/`HUNG` cell or a `FAIL`
/// verdict.
pub fn failed_rows(table: &Table) -> u64 {
    table
        .render()
        .lines()
        .skip_while(|l| l.is_empty() || !l.chars().all(|c| c == '-'))
        .skip(1)
        .filter(|l| {
            l.split_whitespace()
                .any(|cell| matches!(cell, "ERR" | "HUNG" | "FAIL"))
        })
        .count() as u64
}

/// The rendered suite output and its row counts.
#[derive(Clone, Debug, Default)]
struct Rendered {
    /// The exact bytes `repro` prints.
    text: String,
    /// Data rows rendered.
    rows: u64,
    /// Data rows with a failure (see [`failed_rows`]).
    failed: u64,
}

impl Rendered {
    fn push(&mut self, tables: &[Table]) {
        for t in tables {
            let _ = writeln!(self.text, "{}", t.render());
            self.rows += t.len() as u64;
            self.failed += failed_rows(t);
        }
    }
}

/// The whole suite at `opts.jobs`, every experiment on its own driver
/// thread under one global budget, committed in id order.
fn run_suite(opts: &RunOptions) -> Rendered {
    let budget = Arc::new(Budget::new(opts.jobs));
    let mut out = Rendered::default();
    pool::run_streamed(
        ALL_EXPERIMENTS.len(),
        |i| pool::with_budget(&budget, || run_one(ALL_EXPERIMENTS[i], opts)),
        |_, tables| out.push(&tables),
    );
    out
}

/// The set-up repetitions behind `setup_s`.
struct Setup {
    /// Each repetition's time, in seconds.
    reps: Vec<f64>,
    /// Each `Machine::new`'s time, in seconds.
    each: Vec<f64>,
    /// The machine of the last short cell, after its run.
    last: Machine,
    /// Short cells that returned a `SimError`.
    failed: u64,
}

/// A `corun(Exim)` machine under the baseline policy.
fn corun_exim(opts: &RunOptions) -> Machine {
    build_with(
        opts,
        scenarios::corun(Workload::Exim),
        Box::new(BaselinePolicy),
    )
}

/// Set-up time every grid cell pays: one repetition is a `Machine::new`
/// of `scenarios::corun(Exim)` per digest-cell seed, as a scenario
/// repetition builds one machine per digest cell. Each repetition follows
/// an untimed [`SETUP_CELL_MS`] cell, so it meets the caches and heap a
/// grid cell leaves behind, as scenario set-up repetitions do between
/// their cells; the first cell also absorbs the process's start-up.
fn setup_reps(seed: u64) -> Setup {
    let base = options(seed, 1);
    let (mut reps, mut each, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut run = |m: &mut Machine| {
        if let Err(e) = m.run_until(SimTime::ZERO + SimDuration::from_millis(SETUP_CELL_MS)) {
            eprintln!("paper-suite set-up cell: {e}");
            failed += 1;
        }
    };
    let mut cell = corun_exim(&base);
    for _ in 0..SETUP_REPS {
        run(&mut cell);
        let started = Instant::now();
        let mut machines = Vec::new();
        for r in 0..DIGEST_CELLS {
            let t = Instant::now();
            machines.push(corun_exim(&RunOptions {
                seed: base.seed_for(r),
                ..base
            }));
            each.push(t.elapsed().as_secs_f64());
        }
        reps.push(started.elapsed().as_secs_f64());
        cell = machines.pop().expect("DIGEST_CELLS > 0");
    }
    run(&mut cell);
    Setup {
        reps,
        each,
        last: cell,
        failed,
    }
}

/// The untraced run: set-up repetitions, then whole-suite repetitions
/// while `seconds` of host time allow (at least one). Every repetition
/// must render the same bytes. Returns the end-to-end report and the
/// digest of the rendered bytes.
pub fn measure(seed: u64, seconds: f64) -> Result<(Report, u64), String> {
    let mut report = Report::end_to_end();
    let Setup { reps, failed, .. } = setup_reps(seed);
    report.set("setup_s", median(&reps));
    report.ops(0, failed);
    let opts = options(seed, JOBS);
    let begin = Instant::now();
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    let mut digest = None;
    while walls.is_empty() || begin.elapsed().as_secs_f64() + median(&walls) <= seconds {
        reset_peak_rss()?;
        let t = Instant::now();
        let out = run_suite(&opts);
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        peaks.push(peak_rss_mb()?);
        eprintln!("paper-suite repetition {}: {wall:.4} s", walls.len() - 1);
        report.ops(out.rows, out.failed);
        let d = fnv64(out.text.as_bytes());
        if digest.is_some_and(|prev| prev != d) {
            eprintln!("paper-suite: repetitions rendered different bytes");
            report.correct = false;
        }
        digest = Some(d);
    }
    report.set("wall_s", median(&walls));
    report.set("peak_rss_mb", median(&peaks));
    Ok((report, digest.expect("at least one repetition ran")))
}

/// The traced pass: one suite run at [`JOBS`] workers, then every
/// experiment serially (1 job) in its own span. The serial bytes must
/// equal the parallel ones. Returns the per-layer report and the digest.
pub fn trace(seed: u64, spans: &mut SpanLog) -> (Report, u64) {
    let mut report = Report::per_layer();
    let setup = setup_reps(seed);
    report.set("hypervisor.machine.new_us", median(&setup.each) * 1e6);
    report.ops(0, setup.failed);
    let forks: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(setup.last.snapshot().fork());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set("hypervisor.machine.snapshot_fork_us", median(&forks));

    let t = Instant::now();
    let parallel = run_suite(&options(seed, JOBS));
    let wall = t.elapsed().as_secs_f64();
    spans.span(
        "suite",
        None,
        t,
        Instant::now(),
        &format!("\"jobs\": {JOBS}"),
    );
    report.ops(parallel.rows, parallel.failed);

    let serial_opts = options(seed, 1);
    let mut serial = Rendered::default();
    let serial_start = Instant::now();
    for id in ALL_EXPERIMENTS {
        let t = Instant::now();
        serial.push(&run_one(id, &serial_opts));
        let end = Instant::now();
        spans.span(
            "experiment",
            Some("serial"),
            t,
            end,
            &format!("\"id\": \"{id}\""),
        );
        report.set(
            &format!("experiments.runner.{id}_s"),
            (end - t).as_secs_f64(),
        );
    }
    let serial_s = serial_start.elapsed().as_secs_f64();
    spans.span("serial", None, serial_start, Instant::now(), "\"jobs\": 1");
    report.ops(serial.rows, serial.failed);
    report.set("experiments.runner.serial_s", serial_s);
    report.set(
        "experiments.runner.parallel_efficiency",
        ratio(serial_s, JOBS as f64 * wall),
    );
    let digest = fnv64(parallel.text.as_bytes());
    if fnv64(serial.text.as_bytes()) != digest {
        eprintln!("paper-suite: serial and parallel runs rendered different bytes");
        report.correct = false;
    }
    report.set("host.calibration_ms", calibration_ms());
    (report, digest)
}
