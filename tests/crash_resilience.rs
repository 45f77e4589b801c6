//! Crash-resilience integration: a failing cell leaves a crash artifact
//! whose shrunk replay command reproduces the identical failure, and a
//! hung cell is cancelled by its watchdog while the suite continues.
//!
//! This is the robustness contract behind the machine's trace ring and
//! crash reports (`hypervisor::crash`) and the runner's per-cell crash
//! sessions (`experiments::runner`). `scripts/ci.sh` adds the process-
//! level half: a randomized replay soak.

use experiments::runner::pool::{self, Scope};
use experiments::runner::{build, fail_text, run_cells, CellFailure, Grid, PolicyKind, RunOptions};
use hypervisor::faults::KIND_SABOTAGE;
use hypervisor::machine::Event;
use hypervisor::{FaultSpec, MachineConfig, SimError, TraceEvent, VmSpec};
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use workloads::{scenarios, Workload};

/// The same small consolidated machine the fault fuzz uses: cheap under
/// debug builds, still overcommitted enough to be busy.
fn small_scenario() -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig::small(4);
    let specs = vec![
        scenarios::vm(Workload::Exim, 2, None),
        scenarios::vm(Workload::Swaptions, 2, None),
    ];
    (cfg, specs)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crashres_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The files in `dir`, sorted by name.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    files
}

fn text(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

/// The rest of an artifact's first line that starts with `prefix`.
fn line(text: &str, prefix: &str) -> String {
    text.lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{text}"))
        .to_string()
}

/// Runs an artifact's replay command (`replay: repro ARGS`) through the
/// real binary, which must fail (exit 3) and write one fresh artifact
/// into `rerun_dir`; returns that artifact's text.
fn replay(artifact: &str, rerun_dir: &Path) -> String {
    let replay = line(artifact, "replay: repro ");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--artifacts")
        .arg(rerun_dir)
        .args(replay.split_whitespace().map(|arg| arg.trim_matches('"')))
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(3), "the replay must fail: {replay}");
    let fresh = files(rerun_dir);
    assert_eq!(fresh.len(), 1, "{fresh:?}");
    text(&fresh[0])
}

/// End to end over the artifact pipeline: a sabotage fault poisons the
/// cell, the crash session captures a report, the shrinker bisects the
/// plan, and the artifact's `--faults` spec — with its `take=` prefix —
/// reproduces the byte-identical failure when re-run.
#[test]
fn sabotage_writes_an_artifact_whose_shrunk_spec_reproduces() {
    let dir = temp_dir("artifact");
    let spec = FaultSpec {
        seed: 0xDEAD,
        count: 8,
        kinds: KIND_SABOTAGE,
        window: SimDuration::from_millis(100),
        take: 0,
    };
    let opts = RunOptions {
        seed: 0xA11CE,
        keep_going: true,
        faults: Some(spec),
        ..RunOptions::quick()
    };
    let run = |o: &RunOptions| -> Result<u32, CellFailure> {
        let mut m = build(o, small_scenario(), PolicyKind::Baseline);
        m.run_until(SimTime::from_millis(500))
            .map_err(CellFailure::Sim)?;
        Ok(0)
    };
    let scope = Arc::new(Scope::new("demo", &dir));
    let grid = pool::with_scope(&scope, || {
        run_cells(&opts, 1, |i| format!("demo[{i}]"), |opts, _| run(opts))
    });
    let e = grid[0].as_ref().expect_err("sabotage must fail the cell");

    let artifact = e.artifact.as_ref().expect("a crash artifact is written");
    let text = std::fs::read_to_string(artifact).expect("artifact readable");
    assert!(text.starts_with("crash artifact v1"), "got: {text}");
    for needle in [
        "fault_plan:",
        "flight_ring:",
        "rng_state:",
        "CreditSabotage",
    ] {
        assert!(text.contains(needle), "artifact lacks {needle:?}:\n{text}");
    }

    let replay = e.replay.as_ref().expect("a replay command is derived");
    assert!(
        replay.starts_with("repro cell demo --cell 0:0"),
        "got: {replay}"
    );
    let quoted = replay
        .split("--faults \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("replay embeds a fault spec");
    let shrunk = FaultSpec::parse(quoted).expect("embedded spec parses");
    assert!(shrunk.take > 0, "shrink must find a minimal prefix");
    assert!(
        shrunk.take < spec.count,
        "8 sabotage entries cannot all be needed"
    );

    // The acceptance criterion: replaying the artifact's shrunk spec
    // reproduces the identical failure.
    let replayed = run(&RunOptions {
        faults: Some(shrunk),
        ..opts
    })
    .expect_err("the shrunk spec must still fail");
    assert_eq!(replayed.to_string(), e.failure.to_string());
    std::fs::remove_dir_all(&dir).ok();
}

/// The artifact's ring lists scheduler decisions next to the events they
/// were taken in. Two compute VMs rotate 2:1 on two pCPUs, so a dispatch
/// lands every few dozen records and the 256-record ring holds some
/// wherever in the first 100 ms the sabotage fails the cell.
#[test]
fn artifact_ring_lists_events_and_scheduler_decisions() {
    let dir = temp_dir("decisions");
    let opts = RunOptions {
        keep_going: true,
        faults: Some(FaultSpec::parse("count=1,seed=3,window_ms=100,kinds=sabotage").unwrap()),
        ..RunOptions::quick()
    };
    let scenario = || {
        let swaptions = || scenarios::vm(Workload::Swaptions, 2, None);
        (MachineConfig::small(2), vec![swaptions(), swaptions()])
    };
    let scope = Arc::new(Scope::new("demo", &dir));
    let grid = pool::with_scope(&scope, || {
        run_cells(
            &opts,
            1,
            |i| format!("demo[{i}]"),
            |opts, _| {
                build(opts, scenario(), PolicyKind::Baseline)
                    .run_until(SimTime::from_millis(200))
                    .map_err(CellFailure::Sim)
            },
        )
    });
    let e = grid[0].as_ref().expect_err("sabotage must fail the cell");
    let text = std::fs::read_to_string(e.artifact.as_ref().expect("an artifact")).unwrap();
    let ring: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("flight_ring:"))
        .take_while(|l| !l.starts_with("counters:"))
        .collect();
    assert!(ring.iter().any(|l| l.contains(" Handled(")), "{text}");
    assert!(ring.iter().any(|l| l.contains(" Dispatch {")), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The ring spends no slot on stale transition plans. A kick or a
/// deschedule re-plans a vCPU and leaves its old plan queued; the event
/// loop drops such a plan when it pops, before the ring records it. A
/// vCPU has at most one live plan, so no two recorded transitions may
/// share vCPU, time and stop — in the lock-heavy co-runs that replan
/// most, stale duplicates otherwise fill dense cells' crash rings.
#[test]
fn trace_ring_records_no_stale_transitions() {
    for w in [Workload::Exim, Workload::Gmake, Workload::Dedup] {
        let mut m = build(
            &RunOptions::quick(),
            scenarios::corun(w),
            PolicyKind::Baseline,
        );
        m.enable_trace(1 << 20);
        m.run_until(SimTime::from_millis(100)).unwrap();
        assert!(
            m.trace().total() < 1 << 20,
            "{}: the ring wrapped",
            w.name()
        );
        let mut seen = BTreeSet::new();
        for r in m.trace().iter() {
            if let TraceEvent::Handled(Event::Transition { vcpu, stop, .. }) = r.event {
                assert!(
                    seen.insert((vcpu, r.at, stop as u8)),
                    "{}: {vcpu} recorded a second {stop:?} at {:?}",
                    w.name(),
                    r.at
                );
            }
        }
        assert!(!seen.is_empty(), "{}: no transitions recorded", w.name());
    }
}

/// A cell that forks a stored warm-up and fails after it still gets a
/// shrunk fault plan: each shrink probe runs the cell under its own
/// `take=K` spec, which is its own scenario key in the store.
#[test]
fn forked_cells_failing_after_the_warm_point_still_shrink() {
    let dir = temp_dir("forked");
    let spec = FaultSpec {
        seed: 0xDEAD,
        count: 8,
        kinds: KIND_SABOTAGE,
        window: SimDuration::from_millis(100),
        take: 0,
    };
    let opts = RunOptions {
        keep_going: true,
        faults: Some(spec),
        ..RunOptions::quick()
    };
    let scope = Arc::new(Scope::new("demo", &dir));
    let budget = Arc::new(pool::Budget::new(1));
    let cells = pool::with_budget(&budget, || {
        pool::with_scope(&scope, || {
            // Faults fire from 1 ms on, so the shared 0.5-ms quick warm-up
            // succeeds (a warm-up at t = 0 is not stored, so not shared).
            let grid = Grid::new(&opts, SimDuration::from_millis(2));
            run_cells(
                &opts,
                2,
                |i| format!("demo[{i}]"),
                |opts, _| {
                    let window = SimDuration::from_millis(500);
                    grid.window(opts, small_scenario(), PolicyKind::Baseline, window)
                },
            )
        })
    });
    for cell in &cells {
        let e = cell.as_ref().expect_err("sabotage must fail the cell");
        let artifact = e.artifact.as_ref().expect("a crash artifact is written");
        let t = text(artifact);
        assert_eq!(
            line(&t, "shrink: "),
            "take=1 suffices to reproduce (bisected over 1..=8)",
            "{}",
            artifact.display()
        );
        assert_eq!(line(&t, "fault_plan: "), "8 entries");
    }
    // The second cell forks the first one's warm-up, and each of its
    // probes (take = 8, 4, 2, 1) forks the warm-up the first cell's probe
    // with the same spec stored.
    assert_eq!(budget.store().stats().served, 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// Failing cells stay failing wherever they are shown: `compare`
/// re-shows fig9's TCP cells and shares a budget with fig9, yet every
/// cell of both experiments still fails on its own run, with its own
/// trace ring and a shrunk fault plan. With forking off every cell
/// simulates from scratch and the checkpoint store is never touched.
#[test]
fn scratch_suite_still_shrinks_and_replays_every_failure() {
    suite_shrinks_and_replays_every_failure(false, "scratch");
}

/// The same with forking on: cells fork the store's checkpoints, and a
/// failing warm-up or window is rerun by each cell that needs it. A
/// store that recorded failures would hand `compare` fig9's error
/// without running a machine, leaving nothing to shrink ("shrink: not
/// attempted").
#[test]
fn forked_suite_still_shrinks_and_replays_every_failure() {
    suite_shrinks_and_replays_every_failure(true, "fork");
}

fn suite_shrinks_and_replays_every_failure(fork: bool, tag: &str) {
    let dir = temp_dir(tag);
    let spec = FaultSpec::parse("count=8,seed=5,window_ms=300,kinds=sabotage").unwrap();
    let opts = RunOptions {
        keep_going: true,
        fork,
        faults: Some(spec),
        ..RunOptions::quick()
    }
    .with_jobs(2);
    let ids = ["fig9", "compare"];
    let budget = Arc::new(pool::Budget::new(opts.jobs));
    pool::run_streamed(
        ids.len(),
        |i| {
            let scope = Arc::new(Scope::new(ids[i], &dir));
            pool::with_budget(&budget, || {
                pool::with_scope(&scope, || experiments::run_experiment(ids[i], &opts))
            })
        },
        |_, _| {},
    );

    let artifacts = files(&dir);
    // fig9's four cells plus every cell of compare's ten batches.
    assert!(artifacts.len() > 60, "only {} artifacts", artifacts.len());
    for p in &artifacts {
        let t = text(p);
        let shrink = line(&t, "shrink: ");
        assert!(
            shrink.starts_with("take=")
                && shrink.ends_with(" suffices to reproduce (bisected over 1..=8)"),
            "{}: {shrink}",
            p.display()
        );
        assert_eq!(line(&t, "fault_plan: "), "8 entries", "{}", p.display());
        assert!(!t.contains("not attempted"), "{}", p.display());
    }

    // Replay compare's fig9 TCP baseline cell, which fig9 shows too,
    // through the real binary: it must fail the same way.
    let shared = artifacts
        .iter()
        .find(|p| {
            let t = text(p);
            line(&t, "experiment: ") == "compare" && line(&t, "label: ").starts_with("fig9[TCP")
        })
        .expect("compare runs fig9's TCP cells as a batch");
    let t = text(shared);
    let fresh = replay(&t, &dir.join("rerun"));
    assert_eq!(line(&fresh, "failure: "), line(&t, "failure: "));
    std::fs::remove_dir_all(&dir).ok();
}

/// A scenario file's failing cells get artifacts too. The file name maps
/// the `:` and `/` of the `scenario:PATH` id to `_`, and the replay
/// command keeps the id, so replaying it reproduces the failure.
#[test]
fn sabotaged_scenario_cells_write_replayable_artifacts() {
    let dir = temp_dir("scenario");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scenarios/solo-gmake.toml"
    );
    let id = format!("scenario:{path}");
    let opts = RunOptions {
        keep_going: true,
        faults: Some(FaultSpec::parse("seed=3,count=8,window_ms=300,kinds=sabotage").unwrap()),
        ..RunOptions::quick()
    };
    let scope = Arc::new(Scope::new(&id, &dir));
    pool::with_scope(&scope, || experiments::run_experiment(&id, &opts));
    assert!(scope.failed());
    // One artifact per cell: two policies, one repeat.
    let artifacts = files(&dir);
    assert_eq!(artifacts.len(), 2, "{artifacts:?}");
    for (i, p) in artifacts.iter().enumerate() {
        let t = text(p);
        assert_eq!(line(&t, "experiment: "), id);
        let replay_cmd = line(&t, "replay: repro ");
        assert!(
            replay_cmd.starts_with(&format!("cell {id} --cell 0:{i} ")),
            "{replay_cmd}"
        );
        assert!(replay_cmd.contains(",take="), "{replay_cmd}");
        let fresh = replay(&t, &dir.join(format!("rerun{i}")));
        assert_eq!(line(&fresh, "failure: "), line(&t, "failure: "));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cell that blows its wall-clock deadline is cancelled cooperatively
/// — surfaced as a `HUNG` row — and its neighbours complete normally.
#[test]
fn watchdog_cancels_a_hung_cell_and_the_suite_continues() {
    let dir = temp_dir("watchdog");
    // Every cell gets the same deadline: long enough for the healthy
    // cell even under a debug build, far shorter than the hung one.
    let scope = Arc::new(Scope::new("wd", &dir).with_watchdog(Duration::from_secs(2)));
    let opts = RunOptions {
        keep_going: true,
        ..RunOptions::quick()
    };
    let grid = pool::with_scope(&scope, || {
        run_cells(
            &opts,
            2,
            |i| format!("wd[{i}]"),
            |opts, i| {
                let mut m = build(opts, small_scenario(), PolicyKind::Baseline);
                // Cell 0 asks for ~28 hours of simulated time: only the
                // watchdog can end it. Cell 1 finishes on its own.
                let horizon = if i == 0 {
                    SimTime::from_secs(100_000)
                } else {
                    SimTime::from_millis(5)
                };
                m.run_until(horizon).map_err(CellFailure::Sim)?;
                Ok(i)
            },
        )
    });
    let e = grid[0]
        .as_ref()
        .expect_err("the hung cell must be cancelled");
    assert!(
        matches!(e.failure, CellFailure::Sim(SimError::Watchdog { .. })),
        "got: {}",
        e.failure
    );
    assert_eq!(fail_text(&e.failure), "HUNG");
    assert_eq!(*grid[1].as_ref().unwrap(), 1, "the suite must continue");
    std::fs::remove_dir_all(&dir).ok();
}
