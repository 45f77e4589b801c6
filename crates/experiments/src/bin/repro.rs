//! `repro` — regenerate the paper's tables and figures from the simulator.
//!
//! ```text
//! repro [--quick] [--csv] [--seed N] [--jobs N] [--faults SPEC]
//!       [--keep-going] [--paranoid] [--costs PATH|off] [--record-costs]
//!       [--fork|--no-fork] [--watchdog SECS|off] [--artifacts DIR]
//!       [--resume] [--ledger PATH] <experiment>...
//! repro all
//! repro cell <experiment> --cell B:I [--seed N] [--faults SPEC] ...
//! repro --scenario FILE [options]
//! repro scenarios DIR [--check] [options]
//! repro list
//! ```
//!
//! `--scenario FILE` runs one declarative scenario file and
//! `repro scenarios DIR` sweeps every `.toml` file in a directory
//! (sorted by name) as one cost-ordered, fork-aware suite — scenario
//! ids ride the exact same machinery as built-in experiments, so all
//! of the flags below (and the byte-identity contract across `--jobs`,
//! `--fork`, and cost-model state) apply unchanged. Every file is
//! parsed *and* semantically validated before anything runs;
//! `--check` stops there, reporting each file. The schema reference
//! is `SCENARIOS.md`; `examples/scenarios/` is the cookbook.
//!
//! `--jobs N` fans independent runs across N worker threads (default:
//! available parallelism). The budget is *global*: with several
//! experiments (e.g. `repro all`) each experiment runs on its own driver
//! thread and cells from different experiments overlap, but at most N
//! simulations execute at once across the whole suite. Output is
//! byte-identical for every N — results collect in index order and
//! experiments print in command-line order; `--jobs 1` also reproduces
//! the serial execution order exactly. A cell that several experiments
//! show (Figure 6's baseline and static-best cells are Figure 4/5 cells;
//! `compare` re-checks six artifacts) is simulated once per invocation
//! and shared, at every N.
//!
//! `--costs PATH` (default `COSTS.json`) loads persisted per-cell
//! wall-clock records and admits cells **longest-estimated-first** across
//! all queued experiments, so long cells cannot become the suite's tail;
//! unrecorded cells use a grid-size heuristic, and a missing or corrupt
//! file silently degrades to that heuristic. `--record-costs` folds this
//! run's measured cell times back into the file (exponential moving
//! average) and prints a per-experiment cost report to stderr.
//! `--costs off` disables the model entirely (pure FIFO admission).
//! Estimates steer only admission order, never results: stdout is
//! byte-identical whichever model — warm, cold, or off — drives the run.
//!
//! `--fork` (the default) enables shared-prefix execution: grid cells
//! that share a scenario fork a once-simulated warm snapshot instead of
//! each re-simulating the warm-up. `--no-fork` re-simulates every cell
//! from scratch. Like the cost model, forking steers only how results
//! are computed, never what they are: stdout is byte-identical either
//! way (the warm prefix runs under the baseline policy in both modes and
//! policies diverge only after the snapshot point).
//!
//! `--faults SPEC` injects a deterministic fault plan into every run
//! (SPEC like `seed=7,count=40` — see `hypervisor::FaultSpec`).
//! `--keep-going` renders failed grid cells as `ERR`/`HUNG` instead of
//! aborting, reporting each failure's crash-artifact path and replay
//! command on stderr; without it a failing cell aborts after the grid
//! completes, naming the (scenario, policy, seed) cell. `--paranoid`
//! re-checks the machine invariants on every accounting tick.
//!
//! ## Crash resilience
//!
//! Every cell runs inside a crash session: a flight recorder in the
//! machine keeps the last few hundred events, and a cell that dies — sim
//! error, invariant violation, or panic — dumps a crash artifact under
//! `--artifacts DIR` (default `crash/`) containing the event ring, the
//! fault plan (shrunk to a minimal reproducing prefix when possible),
//! the RNG stream position, and a self-contained `repro cell ...` replay
//! command.
//!
//! `--watchdog SECS` (default 60, `off` to disable) arms a wall-clock
//! watchdog per cell: the deadline is `max(SECS, 8x the cell's estimated
//! cost)` from the `--costs` model, a blown deadline cancels just that
//! cell — rendered as a `HUNG` row — and the suite continues.
//!
//! `repro cell <experiment> --cell B:I` re-executes exactly one cell of
//! one experiment (batch `B`, index `I`, as named by a crash artifact's
//! replay command), skipping every other cell. Exit status: 0 if the
//! cell passed, 3 if it failed (a fresh artifact is written), 4 if the
//! grid has no such cell.
//!
//! `--resume` records each experiment's rendered stdout in a run ledger
//! (`--ledger PATH`, default `RUN_LEDGER.txt`) keyed by an options
//! fingerprint, committing after the bytes print. Re-running the same
//! command after a crash or SIGKILL replays committed experiments
//! byte-identically from the ledger and computes only the rest, so the
//! restarted run's stdout is byte-identical to an uninterrupted one. A
//! ledger recorded under different options (seed, quick, faults, csv) is
//! discarded, never replayed.

use experiments::runner::cost::{render_report, CostModel, CostRecorder};
use experiments::runner::ledger::{fnv64, RunLedger};
use experiments::runner::pool::{self, Budget, Scope};
use experiments::{run_experiment, RunOptions, ALL_EXPERIMENTS};
use hypervisor::FaultSpec;
use metrics::render::Table;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--quick] [--csv] [--seed N] [--jobs N] [--faults SPEC] \
         [--keep-going] [--paranoid] [--costs PATH|off] [--record-costs] \
         [--fork|--no-fork] [--watchdog SECS|off] [--artifacts DIR] \
         [--resume] [--ledger PATH] <experiment>... | all | list"
    );
    eprintln!("       repro cell <experiment> --cell B:I [options]");
    eprintln!("       repro --scenario FILE [options]   (run one scenario file; see SCENARIOS.md)");
    eprintln!("       repro scenarios DIR [--check] [options]   (sweep a directory as one suite)");
    eprintln!("experiments: {}", ALL_EXPERIMENTS.join(" "));
    std::process::exit(2);
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn main() {
    let mut opts = RunOptions::default().with_jobs(default_jobs());
    let mut csv = false;
    let mut costs_path: Option<PathBuf> = Some(PathBuf::from("COSTS.json"));
    let mut record_costs = false;
    let mut artifacts = PathBuf::from("crash");
    let mut watchdog: Option<Duration> = Some(Duration::from_secs(60));
    let mut cell_mode = false;
    let mut cell_filter: Option<(usize, usize)> = None;
    let mut resume = false;
    let mut check_only = false;
    let mut ledger_path = PathBuf::from("RUN_LEDGER.txt");
    let mut ledger_flag = false;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => csv = true,
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                let jobs: usize = v.parse().unwrap_or_else(|_| usage());
                opts = opts.with_jobs(jobs);
            }
            "--faults" => {
                let v = args.next().unwrap_or_else(|| usage());
                match FaultSpec::parse(&v) {
                    Ok(spec) => opts.faults = Some(spec),
                    Err(e) => {
                        eprintln!("bad --faults spec {v:?}: {e}");
                        usage();
                    }
                }
            }
            "--costs" => {
                let v = args.next().unwrap_or_else(|| usage());
                costs_path = (v != "off").then(|| PathBuf::from(v));
            }
            "--record-costs" => record_costs = true,
            "--keep-going" => opts.keep_going = true,
            "--paranoid" => opts.paranoid = true,
            "--fork" => opts.fork = true,
            "--no-fork" => opts.fork = false,
            "--watchdog" => {
                let v = args.next().unwrap_or_else(|| usage());
                watchdog = match v.as_str() {
                    "off" => None,
                    secs => Some(Duration::from_secs(
                        secs.parse().unwrap_or_else(|_| usage()),
                    )),
                };
            }
            "--artifacts" => {
                let v = args.next().unwrap_or_else(|| usage());
                artifacts = PathBuf::from(v);
            }
            "--cell" => {
                let v = args.next().unwrap_or_else(|| usage());
                let (b, i) = v.split_once(':').unwrap_or_else(|| usage());
                cell_filter = Some((
                    b.parse().unwrap_or_else(|_| usage()),
                    i.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--resume" => resume = true,
            "--ledger" => {
                let v = args.next().unwrap_or_else(|| usage());
                ledger_path = PathBuf::from(v);
                ledger_flag = true;
            }
            "--scenario" => {
                let v = args.next().unwrap_or_else(|| usage());
                ids.push(format!("scenario:{v}"));
            }
            "--check" => check_only = true,
            "scenarios" if ids.is_empty() && !cell_mode => {
                let dir = args.next().unwrap_or_else(|| usage());
                match experiments::scenario::discover(std::path::Path::new(&dir)) {
                    Ok(files) => {
                        ids.extend(files.iter().map(|p| format!("scenario:{}", p.display())))
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "cell" if ids.is_empty() && !cell_mode => cell_mode = true,
            "list" => {
                for id in ALL_EXPERIMENTS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => usage(),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if let Some(bad) = ids
        .iter()
        .find(|id| !id.starts_with("scenario:") && !ALL_EXPERIMENTS.contains(&id.as_str()))
    {
        eprintln!("unknown experiment {bad:?}");
        usage();
    }
    // Scenario files are validated up front — both layers, every file —
    // so a bad file in a directory sweep fails fast instead of mid-suite.
    {
        let mut bad = 0usize;
        for id in ids.iter().filter(|id| id.starts_with("scenario:")) {
            let path = std::path::Path::new(&id["scenario:".len()..]);
            match experiments::scenario::load(path) {
                Ok(sc) if check_only => println!(
                    "ok {}: \"{}\" ({} vm table(s), {} cell(s))",
                    path.display(),
                    sc.name,
                    sc.vms.len(),
                    experiments::scenario::num_cells(&sc)
                ),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("{e}");
                    bad += 1;
                }
            }
        }
        if bad > 0 {
            std::process::exit(2);
        }
        if check_only {
            if ids.iter().any(|id| !id.starts_with("scenario:")) {
                eprintln!("--check only applies to scenario files");
                std::process::exit(2);
            }
            return;
        }
    }
    if cell_mode {
        if cell_filter.is_none() || ids.len() != 1 {
            eprintln!("repro cell takes exactly one experiment and a --cell B:I selector");
            usage();
        }
        // A replay must re-execute the cell, not re-print recorded bytes,
        // and must report the failure rather than abort on it.
        opts.keep_going = true;
        if resume {
            eprintln!("--resume is ignored under repro cell (replays always re-execute)");
            resume = false;
        }
    } else if cell_filter.is_some() {
        eprintln!("--cell requires the cell subcommand");
        usage();
    }
    if ledger_flag && !resume {
        eprintln!("--ledger has no effect without --resume");
    }
    if record_costs && costs_path.is_none() {
        eprintln!("--record-costs has no effect with --costs off");
        record_costs = false;
    }
    // The run ledger is keyed by every option that can change stdout
    // bytes. Scheduling knobs (--jobs, --fork, --costs) are deliberately
    // absent: stdout is byte-identical across them by contract, so a
    // ledger recorded under one is safe to replay under another.
    let ledger: Option<RunLedger> = resume.then(|| {
        let fingerprint = fnv64(
            format!(
                "quick={} csv={} seed={:#x} paranoid={} faults={}",
                opts.quick,
                csv,
                opts.seed,
                opts.paranoid,
                opts.faults.map(|f| f.to_string()).unwrap_or_default()
            )
            .as_bytes(),
        );
        RunLedger::open(&ledger_path, fingerprint)
    });
    // The cost model is advisory: a missing/corrupt file loads empty and
    // unrecorded cells fall back to the grid-size heuristic. Quick and
    // full budgets record under distinct keys — their cells cost ~4x
    // apart, and mixing them would whipsaw the averages.
    let cost_setup: Option<(Arc<CostModel>, Arc<CostRecorder>)> = costs_path.as_ref().map(|p| {
        (
            Arc::new(CostModel::load(p)),
            Arc::new(CostRecorder::default()),
        )
    });
    // Cost-model keys carry the budget knobs that change cell wall-clock
    // by integer factors: quick cells cost ~4x less, forked cells skip
    // the warm prefix. Keys only steer admission order, so the suffixes
    // never reach stdout.
    let experiment_label = |id: &str| {
        let mut label = id.to_string();
        if opts.quick {
            label.push_str("@quick");
        }
        if opts.fork {
            label.push_str("@fork");
        }
        label
    };
    // Every experiment run goes through this wrapper so cost-ordered
    // admission, cost recording, and the crash-resilience scope (crash
    // artifacts, watchdogs, the `repro cell` filter) apply uniformly to
    // the streamed fan-out and the serial loop.
    let run_one = |id: &str| -> (Vec<Table>, Arc<Scope>) {
        let mut scope = Scope::new(id, &artifacts);
        if let Some(floor) = watchdog {
            scope = scope.with_watchdog(floor);
        }
        if let Some((b, i)) = cell_filter {
            scope = scope.with_filter(b, i);
        }
        if let Some((model, _)) = &cost_setup {
            scope = scope.with_cost_model(&experiment_label(id), Arc::clone(model));
        }
        let scope = Arc::new(scope);
        let tables = pool::with_scope(&scope, || match &cost_setup {
            Some((model, recorder)) => {
                pool::with_costs(&experiment_label(id), model, recorder, || {
                    run_experiment(id, &opts).expect("ids validated above")
                })
            }
            None => run_experiment(id, &opts).expect("ids validated above"),
        });
        (tables, scope)
    };
    // `None` marks an experiment already committed to the ledger; its
    // recorded bytes replay at emit time instead of recomputing.
    let plan_one = |id: &str| -> Option<(Vec<Table>, Arc<Scope>)> {
        match &ledger {
            Some(l) if l.completed(id).is_some() => None,
            _ => Some(run_one(id)),
        }
    };
    let mut cell_scope: Option<Arc<Scope>> = None;
    // One budget per invocation: its `--jobs` permits gate cell
    // execution, its cell memo simulates each cell several experiments
    // show once, and its checkpoint store each warm-up and window several
    // cells share. Both driver paths below run under it.
    let budget = Arc::new(Budget::new(opts.jobs));
    if opts.jobs > 1 && ids.len() > 1 {
        // Cross-experiment fan-out: every experiment gets a driver
        // thread, and the budget gates cell execution across all of
        // them. Tables stream out strictly in command-line order, so
        // stdout is byte-identical to the serial loop below.
        pool::run_streamed(
            ids.len(),
            |i| {
                let started = Instant::now();
                let out = pool::with_budget(&budget, || plan_one(&ids[i]));
                (out, started.elapsed())
            },
            |i, (out, elapsed)| {
                emit(&ids[i], out, elapsed, csv, ledger.as_ref());
            },
        );
    } else {
        for id in &ids {
            let started = Instant::now();
            let out = pool::with_budget(&budget, || plan_one(id));
            let scope = emit(id, out, started.elapsed(), csv, ledger.as_ref());
            if cell_mode {
                cell_scope = scope;
            }
        }
    }
    if record_costs {
        if let (Some((model, recorder)), Some(path)) = (&cost_setup, &costs_path) {
            let observations = recorder.take();
            eprint!("{}", render_report(model, &observations));
            let mut merged = (**model).clone();
            merged.absorb(&observations);
            match merged.save(path) {
                Ok(()) => eprintln!("cost model: {} cells -> {}", merged.len(), path.display()),
                Err(e) => eprintln!("cost model: could not write {}: {e}", path.display()),
            }
        }
    }
    if cell_mode {
        let scope = cell_scope.expect("cell mode always executes its one experiment");
        if !scope.matched() {
            let (b, i) = cell_filter.expect("cell mode requires --cell");
            eprintln!("cell {b}:{i} never ran — the experiment grid has no such cell");
            std::process::exit(4);
        }
        if scope.failed() {
            std::process::exit(3);
        }
    }
}

/// Renders one experiment's tables to the exact bytes stdout receives —
/// the single formatting path shared by fresh runs and ledger commits,
/// so replayed bytes cannot drift from recomputed ones.
fn render_output(tables: &[Table], csv: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for table in tables {
        if csv {
            let _ = write!(out, "{}", table.render_csv());
        } else {
            let _ = writeln!(out, "{}", table.render());
        }
    }
    out
}

/// Prints one experiment's output to stdout and its timing to stderr —
/// the single emission path both the serial loop and the streamed
/// fan-out go through, so their bytes cannot drift apart. A fresh run
/// (`Some`) renders, prints, and then commits to the ledger; a completed
/// one (`None`) replays the ledger's recorded bytes verbatim. Returns
/// the fresh run's scope for `repro cell` status reporting.
fn emit(
    id: &str,
    out: Option<(Vec<Table>, Arc<Scope>)>,
    elapsed: Duration,
    csv: bool,
    ledger: Option<&RunLedger>,
) -> Option<Arc<Scope>> {
    match out {
        Some((tables, scope)) => {
            let rendered = render_output(&tables, csv);
            print!("{rendered}");
            if let Some(ledger) = ledger {
                ledger.commit(id, &rendered);
            }
            eprintln!("[{id} done in {elapsed:.1?}]");
            Some(scope)
        }
        None => {
            let rendered = ledger
                .and_then(|l| l.completed(id))
                .expect("None is only planned for ledger-completed experiments");
            print!("{rendered}");
            eprintln!("[{id} replayed from ledger]");
            None
        }
    }
}
