//! The one measuring path: shared-prefix grid cells, each of which
//! returns one [`Measured`] record.
//!
//! Every cell of an experiment grid simulates the same scenario and
//! diverges only in its policy (or another post-warmup parameter), so
//! the prefix before the divergence point is identical work. A [`Grid`]
//! shares it through the checkpoint store ([`store`]): the first cell
//! that needs a scenario's warm machine builds it, runs it to the grid's
//! warm point under the *base* policy ([`BaselinePolicy`]) and leaves the
//! checkpoint in the store; every cell, including that first one, then
//! forks the checkpoint in O(state) and installs its own policy via
//! [`Machine::set_policy`] at the divergence point. From there a cell
//! runs for a fixed window ([`Grid::window`]) or until a [`Target`]
//! finishes ([`Grid::finish`]); under a stock [`PolicyKind`] the window's
//! end is a checkpoint as well, and the finish a reading kept in the
//! store. The cell gets a [`Reading`] at each end of its interval, one
//! [`Measured`] record, and never the machine.
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

use super::store::{self, CheckpointStore};
use super::{build_with, pool, CellPolicy, CellResult, PolicyKind, RunOptions};
use guest::net::{FlowCounters, FlowState};
use hypervisor::stats::YieldBreakdown;
use hypervisor::{BaselinePolicy, Machine, MachineConfig, VmSpec};
use metrics::summary::DurationSummary;
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
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

/// What a completion runs until.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// This VM finishes its budget.
    Vm(VmId),
    /// Every VM with tasks finishes its budget.
    All,
}

impl From<VmId> for Target {
    fn from(vm: VmId) -> Self {
        Target::Vm(vm)
    }
}

/// Where a cell's interval ends.
enum Until {
    Window(SimDuration),
    Finish(Target),
}

impl Grid {
    /// A grid whose cells share the first `warm` of simulated time.
    /// `warm` is the full-budget duration; quick mode scales it down via
    /// [`RunOptions::warm`]. Forking is controlled by [`RunOptions::fork`]
    /// (`repro --fork`/`--no-fork`). With no warm-up, cells measure from
    /// t = 0 ([`Measured::from_boot`]).
    pub fn new(opts: &RunOptions, warm: SimDuration) -> Self {
        Grid {
            warm_until: SimTime::ZERO + opts.warm(warm),
            store: pool::current_store().unwrap_or_default(),
        }
    }

    /// Runs one cell over the fixed window `[warm point, warm point +
    /// window]`. Under a stock policy the window's end is a checkpoint
    /// too, shared with every other cell that measures the same scenario
    /// under the same policy over the same window; a custom policy
    /// simulates its own window.
    pub fn window(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: impl Into<CellPolicy>,
        window: SimDuration,
    ) -> CellResult<Measured> {
        self.measure(opts, scenario, policy.into(), Until::Window(window))
    }

    /// Runs one cell from the warm point until `target` finishes, within
    /// [`RunOptions::horizon`]. Under a stock policy the reading at the
    /// finish is kept in the store, shared with every other cell that
    /// runs the same scenario under the same policy to the same finish,
    /// whatever its warm point; a custom policy runs its own completion.
    pub fn finish(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: impl Into<CellPolicy>,
        target: impl Into<Target>,
    ) -> CellResult<Measured> {
        self.measure(opts, scenario, policy.into(), Until::Finish(target.into()))
    }

    /// `scenario` at the warm point, forked there with `policy` installed
    /// and run on until `until`.
    fn measure(
        &self,
        opts: &RunOptions,
        scenario: (MachineConfig, Vec<VmSpec>),
        policy: CellPolicy,
        until: Until,
    ) -> CellResult<Measured> {
        let keyed = store::keyed(&self.store, opts, &scenario);
        let warm = store::trajectory_at(&keyed, None, self.warm_until, || {
            build_with(opts, scenario, Box::new(BaselinePolicy))
        })?;
        // Installing the stateless base policy changes nothing, so a
        // baseline cell stays on the baseline trajectory; a custom policy
        // has no place in the store and simulates its own continuation.
        let (keyed, schedule, policy) = match policy {
            CellPolicy::Kind(kind) => (
                keyed,
                (kind != PolicyKind::Baseline).then_some((self.warm_until, kind)),
                kind.build(),
            ),
            CellPolicy::Custom(policy) => (None, None, policy),
        };
        let diverge = || {
            let mut m = Machine::clone(&warm);
            m.set_policy(policy);
            m
        };
        let end = match until {
            Until::Window(window) => {
                let at = self.warm_until + window;
                Reading::of(&*store::trajectory_at(&keyed, schedule, at, diverge)?)
            }
            Until::Finish(target) => {
                store::finish_of(&keyed, schedule, target, opts.horizon(), diverge)?
            }
        };
        let start = Reading::of(&warm);
        Ok(Measured { start, end })
    }
}

/// One cell's record: its machine's readings at both ends of the measured
/// interval, the warm point and the window's end or the finish.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    /// The reading at the interval's start.
    pub start: Reading,
    /// The reading at the interval's end.
    pub end: Reading,
}

impl Measured {
    /// The interval's length.
    pub fn span(&self) -> SimDuration {
        self.end.at - self.start.at
    }

    /// Work units `vm` did over the interval.
    pub fn work(&self, vm: VmId) -> u64 {
        self.end.vm(vm).work - self.start.vm(vm).work
    }

    /// `vm`'s work rate over the interval, units per second.
    pub fn rate(&self, vm: VmId) -> f64 {
        self.work(vm) as f64 / self.span().as_secs_f64()
    }

    /// When `vm`, the target of a [`Grid::finish`] record, finished its
    /// budget: seconds since t = 0, before the start reading if it
    /// finished during the warm-up (the run then stops at the warm point).
    pub fn finished_secs(&self, vm: VmId) -> f64 {
        let finished = self.end.vm(vm).finished;
        finished.expect("the target finished").as_secs_f64()
    }

    /// `vm`'s yields over the interval, by class.
    pub fn yields(&self, vm: VmId) -> YieldBreakdown {
        self.end.vm(vm).yields.since(&self.start.vm(vm).yields)
    }

    /// `vm`'s first network flow over the interval; panics if the VM has
    /// none.
    pub fn flow(&self, vm: VmId) -> FlowCounters {
        let flow = |r: &Reading| r.vm(vm).flow.clone().expect("the VM has a flow");
        flow(&self.end).since(&flow(&self.start))
    }

    /// The end reading of an interval from t = 0, the only interval its
    /// census and its latency summaries (whose extrema cannot be
    /// windowed) describe. Panics on an interval that starts later.
    pub fn from_boot(&self) -> &Reading {
        assert_eq!(self.start.at, SimTime::ZERO, "a record from boot");
        &self.end
    }
}

/// What experiments read of a machine at one time, cumulative since
/// t = 0.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// The machine's simulated time.
    pub at: SimTime,
    /// Per VM, indexed by `VmId`.
    pub vms: Vec<VmReading>,
    /// Kernel functions observed at yield time, with counts (Table 3).
    pub yield_sites: BTreeMap<&'static str, u64>,
}

/// One VM's part of a [`Reading`].
#[derive(Clone, Debug, PartialEq)]
pub struct VmReading {
    /// When the VM finished its budget, if it has.
    pub finished: Option<SimTime>,
    /// Work units done.
    pub work: u64,
    /// Yields by class.
    pub yields: YieldBreakdown,
    /// The VM's first network flow, if it has one.
    pub flow: Option<FlowCounters>,
    /// Spinlock wait times, indexed by `LockKind::slot` (Table 4a).
    pub lock_wait: [DurationSummary; 5],
    /// TLB synchronization latencies (Table 4b).
    pub tlb_latency: DurationSummary,
}

impl Reading {
    /// Reads `m`.
    pub(crate) fn of(m: &Machine) -> Reading {
        let vm = |v: usize| {
            let id = VmId(v as u16);
            let kernel = &m.vm(id).kernel;
            VmReading {
                finished: m.vm_finished_at(id),
                work: m.vm_work_done(id),
                yields: m.stats.vm(id).yields,
                flow: kernel.flows.first().map(FlowState::counters),
                lock_wait: kernel.lock_wait.clone(),
                tlb_latency: kernel.tlb_latency.clone(),
            }
        };
        Reading {
            at: m.now(),
            vms: (0..m.num_vms()).map(vm).collect(),
            yield_sites: m.stats.yield_sites.clone(),
        }
    }

    /// `vm`'s part of the reading.
    pub fn vm(&self, vm: VmId) -> &VmReading {
        &self.vms[vm.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{build, PolicyKind};
    use hypervisor::policy::SchedPolicy;
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

    /// The determinism contract the `--fork`/`--no-fork` diff rests on:
    /// identical records whichever path produced them.
    #[test]
    fn forked_and_scratch_cells_are_identical() {
        let run = |fork: bool, policy: PolicyKind| {
            let opts = RunOptions {
                fork,
                ..RunOptions::quick()
            };
            let grid = Grid::new(&opts, SimDuration::from_millis(400));
            let window = grid
                .window(&opts, scenario(), policy, SimDuration::from_millis(200))
                .unwrap();
            let finish = grid.finish(&opts, scenario(), policy, VmId(0)).unwrap();
            (window, finish)
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
        let ms = SimDuration::from_millis;
        let grid = Grid::new(&opts, ms(400));
        let window = |opts: &RunOptions, policy: PolicyKind| {
            grid.window(opts, scenario(), policy, ms(300)).unwrap()
        };

        let base = window(&opts, PolicyKind::Baseline);
        let fast = window(&opts, PolicyKind::Fixed(1));
        assert_eq!(base.start.at, SimTime::ZERO + opts.warm(ms(400)));
        assert_eq!(base.start, fast.start);
        assert_ne!(
            base.end, fast.end,
            "policies must diverge after the warm point"
        );

        // Another seed is another scenario: it warms on its own.
        let other = RunOptions { seed: 1, ..opts };
        let twin = window(&other, PolicyKind::Baseline);
        assert_ne!(base, twin);
        // One warm-up per scenario, and one window per trajectory.
        assert_eq!(grid.store.stats().extensions, 5);
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
                .window(&opts, scenario(), PolicyKind::Baseline, window)
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
        // The warm-up, the two stock windows and the two stock finishes.
        assert_eq!(stats.extensions, 5, "{stats:?}");
        assert_eq!(stats.retained, 3, "{stats:?}");
        assert_eq!(stats.reextended, 0, "{stats:?}");
    }

    /// A zero-warm cell boots its machine under the baseline policy, runs
    /// it to t = 0 and installs its own policy there; `build` installs the
    /// policy in `Machine::new`, at the end of boot. For these scenarios
    /// the two orders reach the same state: nothing is due at t = 0
    /// (checked below), so running to it handles no event and settles no
    /// elapsed time, the baseline policy's `on_init` does nothing, and a
    /// static pool's `on_init` only resizes the micro pool, from the same
    /// state either way. The slice-sweep and run-queue-cap ablations rest
    /// on this: their cells are zero-warm grid cells that measure what a
    /// machine built under their policy does.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn zero_warm_cells_equal_machines_built_under_their_policy() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, SimDuration::ZERO);

        let exim = || scenarios::corun(Workload::Exim);
        let window = opts.window(SimDuration::from_secs(3));
        let cell = grid
            .window(&opts, exim(), PolicyKind::Fixed(1), window)
            .unwrap();
        let mut m = build(&opts, exim(), PolicyKind::Fixed(1));
        let start = Reading::of(&m);
        m.run_until(SimTime::ZERO + window).unwrap();
        let end = Reading::of(&m);
        assert_eq!(cell, Measured { start, end });

        let dedup = || crate::fig4::scenario(&opts, Workload::Dedup);
        for scenario in [exim(), dedup()] {
            let mut m = build(&opts, scenario, PolicyKind::Baseline);
            m.enable_trace(64);
            m.run_until(SimTime::ZERO).unwrap();
            assert_eq!(m.trace().len(), 0, "an event is due at t = 0");
        }

        let cell = grid
            .finish(&opts, dedup(), PolicyKind::Fixed(3), VmId(0))
            .unwrap();
        let mut m = build(&opts, dedup(), PolicyKind::Fixed(3));
        let start = Reading::of(&m);
        m.run_until_vm_finished(VmId(0), opts.horizon()).unwrap();
        let end = Reading::of(&m);
        assert_eq!(cell, Measured { start, end });
    }
}
