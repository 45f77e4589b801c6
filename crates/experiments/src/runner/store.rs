//! The invocation's checkpoint store: machine checkpoints along simulated
//! trajectories, shared by every cell that needs the same machine at the
//! same simulated time.
//!
//! Experiments show the same co-runs many ways: Figure 7, Table 1 and
//! the ablations all warm the exim + swaptions co-run for one quick
//! second and measure the same baseline window after it, and Table 2
//! and Table 4 simulate the same baseline windows. A store keeps every
//! successful checkpoint a cell asks for, keyed by what the built
//! scenario *is*, so the next cell that needs that machine forks it
//! instead of simulating it again.
//!
//! - **Key.** `scenario_key` renders the scenario as
//!   [`build_with`](super::build_with) builds it — the configuration
//!   after the options' seed and paranoid overrides, every VM spec
//!   including each task program's parameters, and the fault plan — and
//!   the whole string is the key. Two
//!   constructors that build the same machine share checkpoints; a
//!   different seed, fault plan, iteration budget or configuration never
//!   does.
//! - **Trajectories.** A trajectory is a key plus a policy schedule: the
//!   baseline policy from t = 0, optionally with one stock
//!   [`PolicyKind`] installed at a warm point (installing the stateless
//!   baseline policy changes nothing, so baseline windows stay on the
//!   baseline trajectory). A request for time T forks the latest
//!   checkpoint retained at or before T, runs it forward to T and
//!   retains T; a diverged trajectory starts from the baseline
//!   checkpoint at its warm point. This rests on `run_until(t1);
//!   run_until(t2)` equalling `run_until(t2)`
//!   (`crates/hypervisor/tests/prop_machine.rs` checks it).
//! - **Successes only.** A failing extension is not retained: each
//!   consumer reruns a failing prefix inside its own crash session, so
//!   its artifact keeps its own flight recorder, shrink and replay.
//! - **Bypass.** With forking off (`--no-fork`, the oracle) and in a
//!   crash-shrink probe ([`crash::with_scratch_mode`]) cells simulate
//!   from scratch and never read or write a store (see `keyed`).
//! - **Locking.** Each trajectory has its own lock, held while a cell
//!   extends it. An extension only simulates: it never waits on a memo
//!   slot or on another trajectory (a diverged trajectory's warm
//!   checkpoint is fetched before its lock is taken), so waits cannot
//!   form a cycle.
//! - **Lifetime.** One store per [`pool::Budget`](super::pool::Budget),
//!   so one per `repro` run and per simbench `paper-suite` repetition; a
//!   [`Grid`](super::Grid) with no budget visible keeps a private one.
//!   Nothing is process-global, and checkpoints live until their store
//!   drops.

use super::{CellFailure, CellResult, PolicyKind, RunOptions};
use hypervisor::{crash, Machine, MachineConfig, VmSpec};
use simcore::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A trajectory: the scenario key plus the stock policy installed at a
/// warm point (`None`: the baseline policy throughout).
type TrajectoryId = (Arc<str>, Option<(SimTime, PolicyKind)>);

/// One trajectory's retained checkpoints.
#[derive(Default)]
struct Points {
    at: BTreeMap<SimTime, Arc<Machine>>,
    /// Times of the retained checkpoints an extension started from.
    extended: BTreeSet<SimTime>,
}

/// Machine checkpoints along simulated trajectories (see the [module
/// docs](self)).
#[derive(Default)]
pub struct CheckpointStore {
    trajectories: Mutex<BTreeMap<TrajectoryId, Arc<Mutex<Points>>>>,
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
    /// Requests handed a retained checkpoint without simulating.
    pub served: u64,
    /// Requests that simulated a trajectory forward to a new checkpoint.
    pub extensions: u64,
    /// Extensions that started from a retained checkpoint an earlier
    /// extension had already started from: a request for a time between
    /// two checkpoints, arriving after the later one was made.
    pub reextended: u64,
}

impl CheckpointStore {
    /// The store's counters.
    pub fn stats(&self) -> StoreStats {
        let trajectories: Vec<_> = self.lock().values().cloned().collect();
        StoreStats {
            retained: trajectories
                .iter()
                .map(|points| lock(points).at.len())
                .sum(),
            served: self.served.load(Ordering::Relaxed),
            extensions: self.extensions.load(Ordering::Relaxed),
            reextended: self.reextended.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<TrajectoryId, Arc<Mutex<Points>>>> {
        lock(&self.trajectories)
    }

    /// Trajectory `id` at `at`, and whether the call simulated. A
    /// retained checkpoint at `at` is handed out as is; otherwise the
    /// latest retained one before `at`, or `origin()` when there is none,
    /// runs forward to `at` under the trajectory's lock and is retained
    /// if it succeeds.
    fn checkpoint(
        &self,
        id: TrajectoryId,
        at: SimTime,
        origin: impl FnOnce() -> Machine,
    ) -> CellResult<(Arc<Machine>, bool)> {
        let points = self.lock().entry(id).or_default().clone();
        let mut points = lock(&points);
        if let Some(m) = points.at.get(&at) {
            self.served.fetch_add(1, Ordering::Relaxed);
            return Ok((m.clone(), false));
        }
        self.extensions.fetch_add(1, Ordering::Relaxed);
        let mut m = match points.at.range(..at).next_back() {
            Some((&from, base)) => {
                let base = base.fork();
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
        Ok((Arc::new(m), true))
    }
}

/// Locks `mutex`, recovering from poison: every update leaves the
/// points valid (a checkpoint is inserted only after a successful run).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
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

/// `scenario`'s place in `store`. None without a store, with forking off
/// (`--no-fork`, which is the oracle) and in a crash-shrink probe
/// ([`crash::with_scratch_mode`]), whose truncated fault plan must govern
/// the whole run.
pub(crate) fn keyed<'a>(
    store: Option<&'a Arc<CheckpointStore>>,
    opts: &RunOptions,
    scenario: &(MachineConfig, Vec<VmSpec>),
) -> Keyed<'a> {
    store
        .filter(|_| opts.fork && !crash::scratch_mode())
        .map(|store| (&**store, scenario_key(opts, scenario)))
}

/// A machine to run on: `m` itself when nothing else holds it, else a
/// fork (which reports its fault plan to the crash session, see
/// [`Machine::fork`]).
pub(crate) fn owned(m: Arc<Machine>) -> Machine {
    Arc::try_unwrap(m).unwrap_or_else(|shared| shared.fork())
}

/// The keyed scenario's trajectory with schedule `diverge` at `at`, and
/// whether the call simulated. Without a store, `origin()` (the
/// trajectory's start machine) simply runs to `at`.
pub(crate) fn trajectory_at(
    keyed: &Keyed<'_>,
    diverge: Option<(SimTime, PolicyKind)>,
    at: SimTime,
    origin: impl FnOnce() -> Machine,
) -> CellResult<(Arc<Machine>, bool)> {
    match keyed {
        Some((store, key)) => store.checkpoint((key.clone(), diverge), at, origin),
        None => {
            let mut m = origin();
            m.run_until(at).map_err(CellFailure::Sim)?;
            Ok((Arc::new(m), true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::pool::{with_budget, Budget};
    use crate::runner::{run_window, Grid};
    use crate::{fig4, fig7, table1, table2};
    use hypervisor::FaultSpec;
    use simcore::time::SimDuration;
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
        let faulted = RunOptions {
            faults: Some(FaultSpec::parse("count=2,seed=5,kinds=ipi").unwrap()),
            ..opts
        };
        assert_ne!(key(&faulted, fig7::scenario(Workload::Exim)), exim);
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
            scenarios::vm_with_iters(Workload::Exim, n, None),
            scenarios::vm_with_iters(Workload::Swaptions, n, None),
        ];
        (cfg, specs)
    }

    /// Every consumer of the store once: a warm point, a diverged
    /// window and a baseline window.
    fn consume(opts: &RunOptions) {
        let ms = SimDuration::from_millis;
        let grid = Grid::new(opts, ms(400));
        grid.cell(opts, small(), PolicyKind::Baseline.build())
            .unwrap();
        grid.window(opts, small(), PolicyKind::Fixed(1), ms(100))
            .unwrap();
        run_window(opts, small(), PolicyKind::Baseline, ms(150)).unwrap();
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
            crash::with_scratch_mode(|| consume(&opts));
            assert_eq!(budget.store().stats(), StoreStats::default());
            consume(&opts);
            let filled = budget.store().stats();
            assert_eq!(filled.retained, 3, "{filled:?}");
            // Neither read (no request served) nor written.
            crash::with_scratch_mode(|| consume(&opts));
            consume(&no_fork);
            assert_eq!(budget.store().stats(), filled);
        });
    }

    #[test]
    fn checkpoint_served_cells_record_no_cost() {
        use crate::runner::cost::{CostModel, CostRecorder};
        use crate::runner::{parallel::run_indexed, pool::with_costs};
        // Every cell measures the same baseline window: one simulates, the
        // others are served, and only the simulated cell is recorded.
        for jobs in [1, 3] {
            let (model, recorder) = (
                Arc::new(CostModel::default()),
                Arc::new(CostRecorder::default()),
            );
            let ends = with_budget(&Arc::new(Budget::new(jobs)), || {
                with_costs("table2", &model, &recorder, || {
                    run_indexed(jobs, 3, |_| {
                        let window = SimDuration::from_millis(100);
                        let m =
                            run_window(&RunOptions::quick(), small(), PolicyKind::Baseline, window);
                        m.unwrap().now()
                    })
                })
            });
            assert_eq!(ends, vec![SimTime::from_millis(100); 3]);
            assert_eq!(recorder.take().len(), 1, "jobs {jobs}");
        }
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
