//! `repro` — regenerate the paper's tables and figures from the simulator.
//!
//! ```text
//! repro [--quick] [--csv] [--seed N] [--jobs N] [--faults SPEC]
//!       [--keep-going] [--paranoid] [--fork|--no-fork]
//!       [--watchdog SECS|off] [--artifacts DIR] <experiment>...
//! repro all
//! repro cell <experiment> --cell B:I [--seed N] [--faults SPEC] ...
//! repro --scenario FILE [options]
//! repro scenarios DIR [--check] [options]
//! repro list
//! ```
//!
//! `--scenario FILE` runs one declarative scenario file and
//! `repro scenarios DIR` sweeps every `.toml` file in a directory
//! (sorted by name) as one fork-aware suite — scenario ids ride the
//! exact same machinery as built-in experiments, so all of the flags
//! below (and the byte-identity contract across `--jobs` and `--fork`)
//! apply unchanged. Every file is parsed *and* semantically validated
//! before anything runs; `--check` stops there, reporting each file.
//! The schema reference is `SCENARIOS.md`; `examples/scenarios/` is the
//! cookbook.
//!
//! `--jobs N` fans independent runs across N worker threads (default:
//! available parallelism). The budget is *global*: with several
//! experiments (e.g. `repro all`) each experiment runs on its own driver
//! thread and cells from different experiments overlap, but at most N
//! simulations execute at once across the whole suite, admitted in
//! arrival order. Output is byte-identical for every N — results collect
//! in index order and experiments print in command-line order; `--jobs
//! 1` also reproduces the serial execution order exactly. A cell that
//! several experiments show (Figure 6's baseline and static-best cells
//! are Figure 4/5 cells; `compare` re-checks six artifacts) is simulated
//! once per invocation and shared, at every N.
//!
//! `--fork` (the default) enables shared-prefix execution: grid cells
//! that share a scenario fork a once-simulated warm snapshot instead of
//! each re-simulating the warm-up. `--no-fork` re-simulates every cell
//! from scratch. Like `--jobs`, forking steers only how results are
//! computed, never what they are: stdout is byte-identical either
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
//! Every cell runs inside a crash session: the machine's trace ring keeps
//! its last few hundred handled events and scheduler decisions, and a
//! cell that dies — sim error, invariant violation, or panic — dumps a
//! crash artifact under `--artifacts DIR` (default `crash/`) containing
//! that ring, the fault plan (shrunk to a minimal reproducing prefix
//! when possible), the RNG stream position, and a self-contained
//! `repro cell ...` replay command.
//!
//! `--watchdog SECS` (default 60, `off` to disable) arms a wall-clock
//! watchdog of SECS per cell: a blown deadline cancels just that cell —
//! rendered as a `HUNG` row — and the suite continues.
//!
//! `repro cell <experiment> --cell B:I` re-executes exactly one cell of
//! one experiment (batch `B`, index `I`, as named by a crash artifact's
//! replay command), skipping every other cell. Exit status: 0 if the
//! cell passed, 3 if it failed (a fresh artifact is written), 4 if the
//! grid has no such cell.

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
         [--keep-going] [--paranoid] [--fork|--no-fork] \
         [--watchdog SECS|off] [--artifacts DIR] <experiment>... | all | list"
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
    let mut artifacts = PathBuf::from("crash");
    let mut watchdog: Option<Duration> = Some(Duration::from_secs(60));
    let mut cell_mode = false;
    let mut cell_filter: Option<(usize, usize)> = None;
    let mut check_only = false;
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
        // A replay must report the failure rather than abort on it.
        opts.keep_going = true;
    } else if cell_filter.is_some() {
        eprintln!("--cell requires the cell subcommand");
        usage();
    }
    // Every experiment run goes through this wrapper so the
    // crash-resilience scope (crash artifacts, watchdogs, the `repro
    // cell` filter) applies uniformly to the streamed fan-out and the
    // serial loop.
    let run_one = |id: &str| -> (Vec<Table>, Arc<Scope>) {
        let mut scope = Scope::new(id, &artifacts);
        if let Some(floor) = watchdog {
            scope = scope.with_watchdog(floor);
        }
        if let Some((b, i)) = cell_filter {
            scope = scope.with_filter(b, i);
        }
        let scope = Arc::new(scope);
        let tables = pool::with_scope(&scope, || {
            run_experiment(id, &opts).expect("ids validated above")
        });
        (tables, scope)
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
                let out = pool::with_budget(&budget, || run_one(&ids[i]));
                (out, started.elapsed())
            },
            |i, (out, elapsed)| {
                emit(&ids[i], out, elapsed, csv);
            },
        );
    } else {
        for id in &ids {
            let started = Instant::now();
            let out = pool::with_budget(&budget, || run_one(id));
            let scope = emit(id, out, started.elapsed(), csv);
            if cell_mode {
                cell_scope = Some(scope);
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

/// Prints one experiment's output to stdout and its timing to stderr —
/// the single emission path both the serial loop and the streamed
/// fan-out go through, so their bytes cannot drift apart. Returns the
/// run's scope for `repro cell` status reporting.
fn emit(
    id: &str,
    (tables, scope): (Vec<Table>, Arc<Scope>),
    elapsed: Duration,
    csv: bool,
) -> Arc<Scope> {
    for table in &tables {
        if csv {
            print!("{}", table.render_csv());
        } else {
            println!("{}", table.render());
        }
    }
    eprintln!("[{id} done in {elapsed:.1?}]");
    scope
}
