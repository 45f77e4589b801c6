//! Shared-prefix grid execution: warm once per scenario, fork per cell.
//!
//! Every cell of an experiment grid simulates the same scenario and
//! diverges only in its policy (or another post-warmup parameter). The
//! prefix before the divergence point is therefore identical work,
//! re-simulated once per cell. A [`Grid`] shares it through the
//! checkpoint store ([`store`]): the first cell that needs
//! a scenario's warm machine builds it, runs it to [`Grid::warm_until`]
//! under the *base* policy ([`BaselinePolicy`]) and leaves the
//! checkpoint in the store; every cell, including that first one, then
//! forks the checkpoint in O(state) and installs its own policy via
//! [`Machine::set_policy`] at the divergence point. Checkpoints are keyed
//! by the scenario as built, so cells of different grids and different
//! experiments share them too. Under a stock [`PolicyKind`],
//! [`Grid::window`] and [`Grid::finish`] go one step further: a fixed
//! window's end is a checkpoint as well, and a completion is a finish
//! record.
//!
//! With forking disabled (`repro --no-fork`) each cell builds and warms
//! from scratch — but still warms under the base policy and diverges at
//! the same point, so the two modes are **byte-identical by
//! construction**: a fork continues bit-identically to the machine it was
//! taken from, and both modes execute the same warm-then-diverge
//! schedule. `tests/determinism.rs` diffs the full suite both ways.
//!
//! A failing warm-up is never stored: each cell that needs it reruns it,
//! inside its own crash session, and fails the same way — the
//! from-scratch behaviour.

use super::store::{self, CheckpointStore, Finish, Keyed, Schedule};
use super::{build_with, pool, CellPolicy, CellResult, PolicyKind, RunOptions};
use hypervisor::policy::SchedPolicy;
use hypervisor::{BaselinePolicy, Machine, MachineConfig, VmSpec};
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use std::sync::Arc;

/// A grid execution plan: the shared warm-up horizon plus the checkpoint
/// store cells fork from.
///
/// One `Grid` serves one experiment invocation. Its store is the one of
/// the budget visible when the grid is made (one per `repro` run), else
/// a private store for the grid's own cells.
#[derive(Debug)]
pub struct Grid {
    warm_until: SimTime,
    store: Arc<CheckpointStore>,
}

impl Grid {
    /// A grid whose cells share the first `warm` of simulated time.
    /// `warm` is the full-budget duration; quick mode scales it down via
    /// [`RunOptions::warm`]. Forking is controlled by [`RunOptions::fork`]
    /// (`repro --fork`/`--no-fork`).
    pub fn new(opts: &RunOptions, warm: SimDuration) -> Self {
        Grid {
            warm_until: SimTime::ZERO + opts.warm(warm),
            store: pool::current_store().unwrap_or_default(),
        }
    }

    /// The simulated time at which cells diverge from the shared prefix.
    pub fn warm_until(&self) -> SimTime {
        self.warm_until
    }

    /// `scenario` at the warm point under the base policy, with its place
    /// in the store.
    fn warm(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
    ) -> CellResult<(Keyed<'_>, Arc<Machine>)> {
        let keyed = store::keyed(Some(&self.store), opts, &scenario);
        let warm = store::trajectory_at(&keyed, None, self.warm_until, || {
            build_with(opts, scenario, Box::new(BaselinePolicy))
        })?;
        Ok((keyed, warm))
    }

    /// `scenario` at the warm point, and where a cell under `policy`
    /// continues from there.
    fn diverge(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: CellPolicy,
    ) -> CellResult<Continuation<'_>> {
        let (keyed, warm) = self.warm(opts, scenario)?;
        // Installing the stateless base policy changes nothing, so a
        // baseline cell stays on the baseline trajectory.
        let (keyed, schedule, policy) = match policy {
            CellPolicy::Kind(kind) => (
                keyed,
                (kind != PolicyKind::Baseline).then_some((self.warm_until, kind)),
                kind.build(),
            ),
            CellPolicy::Custom(policy) => (None, None, policy),
        };
        Ok(Continuation {
            warm,
            keyed,
            schedule,
            policy,
        })
    }

    /// Produces the runnable machine for one cell: warmed to
    /// [`Grid::warm_until`] under the base policy, with `policy` installed
    /// at the divergence point (its `on_init` has run). The caller drives
    /// it to the cell's own measurement horizon.
    pub fn cell(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: Box<dyn SchedPolicy>,
    ) -> CellResult<Machine> {
        let (_, warm) = self.warm(opts, scenario)?;
        let mut m = store::owned(warm);
        m.set_policy(policy);
        Ok(m)
    }

    /// Runs one cell over the fixed window `[warm_until, warm_until +
    /// window]` and returns its machine at both ends, for delta
    /// measurements. Under a stock policy the window's end is a
    /// checkpoint too, shared with every other cell that measures the
    /// same scenario under the same policy over the same window; a custom
    /// policy simulates its own window.
    pub fn window(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: impl Into<CellPolicy>,
        window: SimDuration,
    ) -> CellResult<(Arc<Machine>, Arc<Machine>)> {
        let c = self.diverge(opts, scenario, policy.into())?;
        let end = store::trajectory_at(&c.keyed, c.schedule, self.warm_until + window, || {
            start(&c.warm, c.policy)
        })?;
        Ok((c.warm, end))
    }

    /// Runs one cell from the warm point until `vm` finishes, within
    /// [`RunOptions::horizon`], and returns the finish time with every
    /// VM's work done at it. Under a stock policy the finish is a record
    /// in the store, shared with every other cell that runs the same
    /// scenario under the same policy to the same finish; a custom policy
    /// runs its own completion.
    pub fn finish(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: impl Into<CellPolicy>,
        vm: VmId,
    ) -> CellResult<Finish> {
        let c = self.diverge(opts, scenario, policy.into())?;
        store::finish_of(&c.keyed, c.schedule, vm, opts.horizon(), || {
            start(&c.warm, c.policy)
        })
    }
}

/// A cell's continuation from the warm point: the warm machine, the
/// store place and schedule of the trajectory it continues on (no place
/// for a custom policy, which simulates its own continuation), and the
/// policy object it installs.
struct Continuation<'a> {
    warm: Arc<Machine>,
    keyed: Keyed<'a>,
    schedule: Schedule,
    policy: Box<dyn SchedPolicy>,
}

/// A fork of `warm` with `policy` installed: where a cell's continuation
/// starts.
fn start(warm: &Machine, policy: Box<dyn SchedPolicy>) -> Machine {
    let mut m = warm.fork();
    m.set_policy(policy);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PolicyKind;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use workloads::{scenarios, Workload};

    fn scenario() -> (MachineConfig, Vec<VmSpec>) {
        let cfg = MachineConfig::small(4);
        let n = cfg.num_pcpus;
        (
            cfg,
            vec![
                // Finishes at about 0.45 s under each stock policy.
                scenarios::vm(Workload::Exim, n, Some(3_000)),
                scenarios::vm(Workload::Swaptions, n, None),
            ],
        )
    }

    /// A custom policy that behaves as the baseline and counts the
    /// continuations it is installed into.
    #[derive(Clone)]
    struct Counting(Arc<AtomicUsize>);

    impl SchedPolicy for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn on_init(&mut self, _: &mut Machine) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn fingerprint(m: &Machine) -> (u64, u64, u64) {
        (
            m.vm_work_done(VmId(0)),
            m.vm_work_done(VmId(1)),
            m.stats.counters.total(),
        )
    }

    /// The determinism contract the `--fork`/`--no-fork` diff rests on:
    /// identical machines whichever path produced them.
    #[test]
    fn forked_and_scratch_cells_are_identical() {
        let horizon = SimTime::from_millis(300);
        let run = |fork: bool, policy: PolicyKind| {
            let opts = RunOptions {
                fork,
                ..RunOptions::quick()
            };
            let grid = Grid::new(&opts, SimDuration::from_millis(400));
            let mut m = grid.cell(&opts, scenario(), policy.build()).unwrap();
            m.run_until(horizon).unwrap();
            let (warm, end) = grid
                .window(&opts, scenario(), policy, SimDuration::from_millis(200))
                .unwrap();
            let finish = grid.finish(&opts, scenario(), policy, VmId(0)).unwrap();
            (
                fingerprint(&m),
                fingerprint(&warm),
                fingerprint(&end),
                finish,
            )
        };
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::Fixed(1),
            PolicyKind::Adaptive,
        ] {
            assert_eq!(
                run(true, policy),
                run(false, policy),
                "fork and scratch diverged under {policy:?}"
            );
        }
    }

    /// Cells of one scenario share the warm prefix but diverge by policy;
    /// another scenario never sees their machines.
    #[test]
    fn cells_share_the_warm_prefix_and_policies_diverge() {
        let opts = RunOptions {
            fork: true,
            ..RunOptions::quick()
        };
        let grid = Grid::new(&opts, SimDuration::from_millis(400));
        let horizon = SimTime::from_millis(400);

        let mut base = grid
            .cell(&opts, scenario(), PolicyKind::Baseline.build())
            .unwrap();
        let mut fast = grid
            .cell(&opts, scenario(), PolicyKind::Fixed(1).build())
            .unwrap();
        assert_eq!(base.now(), grid.warm_until());
        assert_eq!(fast.now(), grid.warm_until());
        base.run_until(horizon).unwrap();
        fast.run_until(horizon).unwrap();
        assert_ne!(
            fingerprint(&base),
            fingerprint(&fast),
            "policies must diverge after the warm point"
        );

        // Another seed is another scenario: it warms on its own.
        let other = RunOptions { seed: 1, ..opts };
        let mut twin = grid
            .cell(&other, scenario(), PolicyKind::Baseline.build())
            .unwrap();
        twin.run_until(horizon).unwrap();
        assert_ne!(fingerprint(&base), fingerprint(&twin));
        assert_eq!(grid.store.stats().extensions, 2, "one warm-up per scenario");
    }

    /// With forking on, each scenario's warm-up and each stock-policy
    /// window and finish is simulated once; a custom policy simulates its
    /// own window and finish every time.
    #[test]
    fn fork_simulates_each_warm_up_and_window_once() {
        let opts = RunOptions {
            fork: true,
            ..RunOptions::quick()
        };
        let grid = Grid::new(&opts, SimDuration::from_millis(100));
        let window = SimDuration::from_millis(100);
        let custom_runs = Arc::new(AtomicUsize::new(0));
        let custom = || CellPolicy::Custom(Box::new(Counting(custom_runs.clone())));
        let finish = |policy| grid.finish(&opts, scenario(), policy, VmId(0)).unwrap();
        for _ in 0..3 {
            assert!(grid
                .cell(&opts, scenario(), PolicyKind::Baseline.build())
                .is_ok());
            assert!(grid
                .window(&opts, scenario(), PolicyKind::Fixed(1), window)
                .is_ok());
            assert!(grid.window(&opts, scenario(), custom(), window).is_ok());
            let baseline = finish(PolicyKind::Baseline.into());
            assert_ne!(baseline, finish(PolicyKind::Fixed(1).into()));
            assert_eq!(baseline, finish(custom()));
        }
        assert_eq!(custom_runs.load(Ordering::SeqCst), 6);
        let stats = grid.store.stats();
        // The warm-up, the window and the two stock finishes.
        assert_eq!(stats.extensions, 4, "{stats:?}");
        assert_eq!(stats.retained, 2, "{stats:?}");
        assert_eq!(stats.reextended, 0, "{stats:?}");
    }
}
