//! The invocation's checkpoint store: machine checkpoints and finish
//! records along simulated trajectories, shared by every cell that needs
//! the same machine at the same simulated time, or the same completion.
//!
//! Experiments show the same co-runs many ways: Figure 7, Table 1 and
//! the ablations all warm the exim + swaptions co-run for one quick
//! second and measure the same baseline window after it; Table 2 and
//! Table 4 simulate the same baseline windows; Figure 6 and `compare`
//! re-show Figure 4, 5 and 9 cells; and Table 1's baseline dedup cell
//! is Figure 4's. A store keeps every successful checkpoint and finish a
//! cell asks for, keyed by what the built scenario *is*, so the next
//! cell that needs it forks the checkpoint or reads the record instead
//! of simulating it again.
//!
//! - **Key.** `scenario_key` renders the scenario as
//!   [`build_with`](super::build_with) builds it — the configuration
//!   after the options' seed and paranoid overrides, every VM spec
//!   including each task program's parameters, and the fault plan — and
//!   the whole string is the key. Two
//!   constructors that build the same machine share checkpoints; a
//!   different seed, fault plan, iteration budget or configuration never
//!   does. The store holds each key once, above all of its scenario's
//!   trajectories.
//! - **Trajectories.** A trajectory is a key plus a policy schedule: the
//!   baseline policy from t = 0, optionally with one stock
//!   [`PolicyKind`] installed at a warm point (installing the stateless
//!   baseline policy changes nothing, so baseline cells stay on the
//!   baseline trajectory). A request for time T forks the latest
//!   checkpoint retained at or before T, runs it forward to T and
//!   retains T; a diverged trajectory starts from the baseline
//!   checkpoint at its warm point. This rests on `run_until(t1);
//!   run_until(t2)` equalling `run_until(t2)`
//!   (`crates/hypervisor/tests/prop_machine.rs` checks it). Nothing is
//!   kept at t = 0: each zero-warm cell builds its own warm point.
//! - **Finish records.** A completion runs a trajectory from a warm
//!   point until a [`Target`] finishes or a horizon passes. It stops
//!   inside a timestamp, so nothing continues from it and no machine is
//!   kept: its record is the cumulative [`Reading`] at the finish, keyed
//!   by trajectory, target and horizon. A baseline finish does not depend
//!   on the warm point it ran from, so cells that warm for different
//!   spans share it, and each requester's grid pairs it with the reading
//!   at its own warm point.
//! - **Successes only.** A failing extension or completion is not
//!   recorded: each consumer reruns it inside its own crash session, so
//!   its artifact keeps its own trace ring, shrink and replay. A shrink
//!   probe runs its cell under a spec with `take=K`, which is another
//!   key, so its truncated plan governs every prefix it simulates or
//!   forks.
//! - **Bypass.** With forking off (`--no-fork`, the oracle) cells
//!   simulate from scratch and never read or write a store (see
//!   `keyed`).
//! - **Locking.** Each trajectory's checkpoints have one lock, held
//!   while a cell extends them, and each finish record has its own, held
//!   while a cell runs to it: a completion holds up only requests for
//!   its own record, which then read it. A request fetches the warm
//!   checkpoint it starts from before it takes either lock, so no cell
//!   holds one lock while waiting on another and waits cannot form a
//!   cycle.
//! - **Lifetime.** One store per [`pool::Budget`](super::pool::Budget),
//!   so one per `repro` run and per simbench `paper-suite` repetition. A
//!   [`Grid`](super::Grid) takes its store from the budget installed on
//!   the thread that makes it, and one made with no budget installed
//!   keeps a private one. Nothing is process-global, and checkpoints and
//!   records live until their store drops.

use super::grid::{Reading, Target};
use super::{CellFailure, CellResult, PolicyKind, RunOptions};
use hypervisor::{Machine, MachineConfig, VmSpec};
use simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A trajectory's policy schedule: the stock policy installed at a warm
/// point (`None`: the baseline policy throughout).
pub(crate) type Schedule = Option<(SimTime, PolicyKind)>;

/// One trajectory's retained checkpoints and finish records.
#[derive(Default)]
struct Trajectory {
    points: Mutex<Points>,
    /// Finish records by target and horizon, each behind its own lock.
    finishes: Mutex<BTreeMap<(Target, SimTime), Record>>,
}

/// A finish record: empty until a run to the finish succeeds.
type Record = Arc<Mutex<Option<Reading>>>;

/// One scenario's trajectories, by schedule.
type Trajectories = BTreeMap<Schedule, Arc<Trajectory>>;

/// One trajectory's retained checkpoints.
#[derive(Default)]
struct Points {
    at: BTreeMap<SimTime, Arc<Machine>>,
    /// Times of the retained checkpoints an extension started from.
    extended: BTreeSet<SimTime>,
}

/// Machine checkpoints and finish records along simulated trajectories
/// (see the [module docs](self)).
#[derive(Default)]
pub struct CheckpointStore {
    /// Trajectories by scenario key, then by schedule.
    scenarios: Mutex<BTreeMap<Arc<str>, Trajectories>>,
    served: AtomicU64,
    extensions: AtomicU64,
    reextended: AtomicU64,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointStore").finish_non_exhaustive()
    }
}

/// What a [`CheckpointStore`] holds and has done.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Checkpoints retained.
    pub retained: usize,
    /// Requests handed a retained checkpoint or a finish record without
    /// simulating.
    pub served: u64,
    /// Requests that simulated a trajectory forward: to a new checkpoint,
    /// or to a finish.
    pub extensions: u64,
    /// Extensions that started from a retained checkpoint an earlier
    /// extension had already started from: a request for a time between
    /// two checkpoints, arriving after the later one was made.
    pub reextended: u64,
}

impl CheckpointStore {
    /// The store's counters.
    pub fn stats(&self) -> StoreStats {
        let trajectories: Vec<_> = lock(&self.scenarios)
            .values()
            .flat_map(|schedules| schedules.values().cloned())
            .collect();
        StoreStats {
            retained: trajectories
                .iter()
                .map(|trajectory| lock(&trajectory.points).at.len())
                .sum(),
            served: self.served.load(Ordering::Relaxed),
            extensions: self.extensions.load(Ordering::Relaxed),
            reextended: self.reextended.load(Ordering::Relaxed),
        }
    }

    /// The trajectory of scenario `key` under `schedule`.
    fn trajectory(&self, key: &Arc<str>, schedule: Schedule) -> Arc<Trajectory> {
        lock(&self.scenarios)
            .entry(key.clone())
            .or_default()
            .entry(schedule)
            .or_default()
            .clone()
    }

    /// `trajectory` at `at`. A retained checkpoint at `at` is handed out
    /// as is; otherwise the latest retained one before `at`, or
    /// `origin()` when there is none, runs forward to `at` under the
    /// trajectory's points lock and is retained if it succeeds.
    fn checkpoint(
        &self,
        trajectory: &Trajectory,
        at: SimTime,
        origin: impl FnOnce() -> Machine,
    ) -> CellResult<Arc<Machine>> {
        let mut points = lock(&trajectory.points);
        if let Some(m) = points.at.get(&at) {
            self.served.fetch_add(1, Ordering::Relaxed);
            return Ok(m.clone());
        }
        self.extensions.fetch_add(1, Ordering::Relaxed);
        let mut m = match points.at.range(..at).next_back() {
            Some((&from, base)) => {
                let base = Machine::clone(base);
                if !points.extended.insert(from) {
                    self.reextended.fetch_add(1, Ordering::Relaxed);
                }
                base
            }
            None => origin(),
        };
        m.run_until(at).map_err(CellFailure::Sim)?;
        // Retain a clone: it holds each buffer at its length, where the
        // machine that ran holds them at their peak capacity (about three
        // times the bytes). The caller gets the machine that ran.
        points.at.insert(at, Arc::new(m.clone()));
        Ok(Arc::new(m))
    }

    /// `trajectory`'s finish of `target` within `horizon`. A recorded
    /// finish is handed out as is; otherwise `origin()` runs to it under
    /// the record's own lock, and the finish is recorded if it succeeds.
    fn finish(
        &self,
        trajectory: &Trajectory,
        target: Target,
        horizon: SimTime,
        origin: impl FnOnce() -> Machine,
    ) -> CellResult<Reading> {
        let record = lock(&trajectory.finishes)
            .entry((target, horizon))
            .or_default()
            .clone();
        let mut record = lock(&record);
        if let Some(finish) = &*record {
            self.served.fetch_add(1, Ordering::Relaxed);
            return Ok(finish.clone());
        }
        self.extensions.fetch_add(1, Ordering::Relaxed);
        let finish = run_to_finish(origin(), target, horizon)?;
        *record = Some(finish.clone());
        Ok(finish)
    }
}

/// Locks `mutex`, recovering from poison: every update leaves the store
/// valid (a checkpoint or record is written only after a successful run).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `m` until `target` finishes and reads it there. Hitting
/// `horizon` first is a failure: a silently truncated run would corrupt
/// every execution time read from it.
fn run_to_finish(mut m: Machine, target: Target, horizon: SimTime) -> CellResult<Reading> {
    let finished = match target {
        Target::Vm(vm) => m.run_until_vm_finished(vm, horizon).map(|at| at.is_some()),
        Target::All => m.run_until_all_finished(horizon),
    };
    match finished.map_err(CellFailure::Sim)? {
        true => Ok(Reading::of(&m)),
        false => Err(CellFailure::Horizon),
    }
}

/// The scenario as [`build_with`](super::build_with) builds it, rendered
/// whole: the configuration after the options' seed and paranoid
/// overrides, every VM spec with each task program's parameters (by
/// `Debug`), and the fault plan by its canonical `Display`.
pub(crate) fn scenario_key(opts: &RunOptions, scenario: &(MachineConfig, Vec<VmSpec>)) -> Arc<str> {
    let (cfg, specs) = scenario;
    let cfg = super::configured(opts, cfg.clone());
    let faults = opts
        .faults
        .map_or_else(String::new, |spec| spec.to_string());
    format!("{cfg:?} {specs:?} faults={faults}").into()
}

/// A scenario's place in a store, when a store is in use: the store and
/// the scenario's key.
pub(crate) type Keyed<'a> = Option<(&'a CheckpointStore, Arc<str>)>;

/// `scenario`'s place in `store`. None with forking off (`--no-fork`,
/// which is the oracle).
pub(crate) fn keyed<'a>(
    store: &'a CheckpointStore,
    opts: &RunOptions,
    scenario: &(MachineConfig, Vec<VmSpec>),
) -> Keyed<'a> {
    opts.fork.then(|| (store, scenario_key(opts, scenario)))
}

/// The keyed scenario's trajectory under `schedule` at `at`. Without a
/// store, and at t = 0, where a machine as built costs less to build again
/// than to keep, `origin()` (the trajectory's start machine) runs to `at`.
pub(crate) fn trajectory_at(
    keyed: &Keyed<'_>,
    schedule: Schedule,
    at: SimTime,
    origin: impl FnOnce() -> Machine,
) -> CellResult<Arc<Machine>> {
    match keyed {
        Some((store, key)) if at > SimTime::ZERO => {
            store.checkpoint(&store.trajectory(key, schedule), at, origin)
        }
        _ => {
            let mut m = origin();
            m.run_until(at).map_err(CellFailure::Sim)?;
            Ok(Arc::new(m))
        }
    }
}

/// The keyed scenario's finish of `target` within `horizon` on the
/// trajectory under `schedule`, run from `origin()`. Without a store,
/// `origin()` simply runs to it.
pub(crate) fn finish_of(
    keyed: &Keyed<'_>,
    schedule: Schedule,
    target: Target,
    horizon: SimTime,
    origin: impl FnOnce() -> Machine,
) -> CellResult<Reading> {
    match keyed {
        Some((store, key)) => {
            store.finish(&store.trajectory(key, schedule), target, horizon, origin)
        }
        None => run_to_finish(origin(), target, horizon),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::pool::{with_budget, Budget};
    use crate::runner::{build_with, Grid};
    use crate::{fig4, fig7, table1, table2};
    use hypervisor::{BaselinePolicy, FaultSpec};
    use simcore::ids::VmId;
    use simcore::time::SimDuration;
    use std::sync::mpsc::channel;
    use std::time::Duration;
    use workloads::{scenarios, Workload};

    #[test]
    fn keys_name_the_scenario_as_built() {
        let opts = RunOptions::quick();
        let key = |opts: &RunOptions, scenario| scenario_key(opts, &scenario);
        // Two constructors of one machine share a key.
        for w in table2::WORKLOADS {
            assert_eq!(
                key(&opts, table2::scenario(w, true)),
                key(&opts, fig7::scenario(w)),
                "{}",
                w.name()
            );
        }
        let exim = key(&opts, fig7::scenario(Workload::Exim));
        let other_seed = RunOptions { seed: 11, ..opts };
        assert_ne!(key(&other_seed, fig7::scenario(Workload::Exim)), exim);
        let spec = FaultSpec::parse("count=2,seed=5,kinds=ipi").unwrap();
        let faulted = RunOptions {
            faults: Some(spec),
            ..opts
        };
        let faulted_key = key(&faulted, fig7::scenario(Workload::Exim));
        assert_ne!(faulted_key, exim);
        // A shrink probe's truncated plan is another scenario.
        let probe = RunOptions {
            faults: Some(FaultSpec { take: 3, ..spec }),
            ..opts
        };
        let probe_key = key(&probe, fig7::scenario(Workload::Exim));
        assert_ne!(probe_key, faulted_key);
        assert_ne!(probe_key, exim);
        // `iters` scales the finite target's budget.
        assert_ne!(
            key(&opts, fig4::scenario(&opts, Workload::Dedup)),
            key(
                &opts,
                fig4::scenario(&RunOptions::default(), Workload::Dedup)
            )
        );
        // Table 1's fixed-µsliced scheme rewrites the configuration.
        assert_eq!(
            key(&opts, table1::exim_scenario(table1::Scheme::Baseline)),
            exim
        );
        assert_ne!(
            key(&opts, table1::exim_scenario(table1::Scheme::FixedUsliced)),
            exim
        );
    }

    fn small() -> (MachineConfig, Vec<VmSpec>) {
        let cfg = MachineConfig::small(4);
        let n = cfg.num_pcpus;
        let specs = vec![
            // Finishes at about 0.45 s under the baseline policy.
            scenarios::vm(Workload::Exim, n, Some(3_000)),
            scenarios::vm(Workload::Swaptions, n, None),
        ];
        (cfg, specs)
    }

    /// Every consumer of the store once: a diverged window and a
    /// diverged finish after a warm point, and a baseline window from
    /// t = 0.
    fn consume(opts: &RunOptions) {
        let ms = SimDuration::from_millis;
        let grid = Grid::new(opts, ms(400));
        grid.window(opts, small(), PolicyKind::Fixed(1), ms(100))
            .unwrap();
        grid.finish(opts, small(), PolicyKind::Fixed(1), VmId(0))
            .unwrap();
        Grid::new(opts, SimDuration::ZERO)
            .window(opts, small(), PolicyKind::Baseline, ms(150))
            .unwrap();
    }

    #[test]
    fn no_fork_and_scratch_mode_never_touch_the_store() {
        let budget = Arc::new(Budget::new(1));
        let opts = RunOptions::quick();
        let no_fork = RunOptions {
            fork: false,
            ..opts
        };
        with_budget(&budget, || {
            consume(&no_fork);
            assert_eq!(budget.store().stats(), StoreStats::default());
            consume(&opts);
            let filled = budget.store().stats();
            // The warm point, the diverged window's end and the baseline
            // window's end (t = 0 is never kept).
            assert_eq!(filled.retained, 3, "{filled:?}");
            // Neither read (no request served) nor written.
            consume(&no_fork);
            assert_eq!(budget.store().stats(), filled);
        });
    }

    /// The machine `small()` builds under the baseline policy.
    fn small_machine() -> Machine {
        build_with(&RunOptions::quick(), small(), Box::new(BaselinePolicy))
    }

    /// A finish that panics or hits the horizon is a failure, and
    /// failures are not recorded: the next request runs again (past the
    /// lock a panic poisoned) and fails the same way.
    #[test]
    fn a_finish_that_hits_the_horizon_records_nothing() {
        let store = CheckpointStore::default();
        let trajectory = store.trajectory(&scenario_key(&RunOptions::quick(), &small()), None);
        let horizon = SimTime::from_millis(50);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.finish(&trajectory, Target::Vm(VmId(0)), horizon, || {
                panic!("origin failed")
            })
        }));
        assert!(panicked.is_err());
        for _ in 0..2 {
            let out = store.finish(&trajectory, Target::Vm(VmId(0)), horizon, small_machine);
            assert!(matches!(out, Err(CellFailure::Horizon)), "{out:?}");
        }
        let stats = store.stats();
        assert_eq!((stats.extensions, stats.served), (3, 0), "{stats:?}");
    }

    /// A running finish holds its own record's lock, not its trajectory's
    /// points: a checkpoint request on the same trajectory completes
    /// meanwhile, and a second request for the same finish waits for the
    /// record and is served the first run's finish.
    #[test]
    fn a_running_finish_holds_up_only_requests_for_its_record() {
        let store = CheckpointStore::default();
        let key = scenario_key(&RunOptions::quick(), &small());
        let horizon = SimTime::from_secs(5);
        let (store, key) = (&store, &key);
        let finish = move |origin: Box<dyn FnOnce() -> Machine + Send>| {
            store.finish(
                &store.trajectory(key, None),
                Target::Vm(VmId(0)),
                horizon,
                origin,
            )
        };
        let (first, second) = std::thread::scope(|scope| {
            let (started_tx, started) = channel();
            let (release, release_rx) = channel::<()>();
            let first = scope.spawn(move || {
                finish(Box::new(move || {
                    started_tx.send(()).unwrap();
                    // An error means the test failed and dropped `release`:
                    // run on, so the scope can join.
                    let _ = release_rx.recv();
                    small_machine()
                }))
            });
            started.recv().unwrap();
            let (done_tx, done) = channel();
            scope.spawn(move || {
                let at = SimTime::from_millis(50);
                let warm = store.checkpoint(&store.trajectory(key, None), at, small_machine);
                // An error means the test already failed and dropped `done`.
                let _ = done_tx.send(warm.is_ok());
            });
            assert_eq!(
                done.recv_timeout(Duration::from_secs(60)),
                Ok(true),
                "a checkpoint request waited for a running finish"
            );
            let second = scope
                .spawn(move || finish(Box::new(|| panic!("a recorded finish must be served"))));
            release.send(()).unwrap();
            (first.join().unwrap(), second.join().unwrap())
        });
        let first = first.unwrap();
        assert_eq!(first, second.unwrap());
        assert_eq!(
            first,
            run_to_finish(small_machine(), Target::Vm(VmId(0)), horizon).unwrap()
        );
        let stats = store.stats();
        let want = StoreStats {
            retained: 1,
            served: 1,
            extensions: 2,
            reextended: 0,
        };
        assert_eq!(stats, want);
    }

    /// Rendering the experiments that share co-runs under one budget
    /// extends each trajectory past each checkpoint at most once.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn one_budget_extends_each_trajectory_at_most_once() {
        let opts = RunOptions::quick().with_jobs(2);
        let budget = Arc::new(Budget::new(opts.jobs));
        let ids = [
            "table1",
            "table2",
            "table4a",
            "table4b",
            "table4c",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "ablations",
        ];
        with_budget(&budget, || {
            for id in ids {
                crate::run_experiment(id, &opts).expect("a known experiment id");
            }
        });
        let stats = budget.store().stats();
        assert_eq!(stats.reextended, 0, "{stats:?}");
        assert!(stats.served > 0 && stats.extensions > 0, "{stats:?}");
    }
}
