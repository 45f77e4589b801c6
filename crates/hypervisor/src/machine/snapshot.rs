//! Machine checkpointing: warm up once, fork per grid cell.
//!
//! Every grid cell in the experiment suites re-simulates an identical
//! warmup before diverging at a single parameter. This module makes the
//! prefix shareable: [`Machine::snapshot`] captures the whole machine by
//! plain `Clone` over its state — each pCPU's run-queue `Vec`, every
//! task's boxed program (cloned through `ProgramClone`, buffered
//! segments included), the event queue's timing wheel (bucket vectors
//! with their inline payloads, occupancy bitmaps, drain buffer and
//! cursor cloned verbatim) and overflow heap, RNG streams, latency
//! summaries, and the fault-plan cursor —
//! and [`Snapshot::fork`] restores a cell-ready machine in O(state) with
//! no re-simulation.
//!
//! Determinism contract: a fork continues bit-identically to the machine
//! the snapshot was taken from. A cell that warms up for `W` and then
//! diverges (for example via [`Machine::set_policy`]) therefore produces
//! exactly the bytes of a from-scratch run that warms the same way — the
//! property the experiment runner's `--fork` mode and the determinism
//! suite assert.

use super::Machine;
use crate::policy::SchedPolicy;
use simcore::time::SimTime;

/// A frozen machine state, cheap to fork into independent runnable
/// machines.
///
/// Internally this is one deep copy of the machine (`Clone` over flat
/// vectors — no re-simulation, no allocation churn beyond the
/// buffers themselves). The snapshot is immutable and `Sync`, so worker
/// threads can fork cells from a shared `&Snapshot` concurrently.
pub struct Snapshot {
    base: Machine,
}

impl Snapshot {
    /// The simulated time at which the snapshot was taken.
    pub fn now(&self) -> SimTime {
        self.base.now
    }

    /// Restores an independent, runnable machine in O(state).
    ///
    /// Every fork is byte-identical to every other fork of the same
    /// snapshot and to the machine the snapshot was taken from; running
    /// one never perturbs the snapshot or its siblings. The contract is
    /// total: event queue (every pending event and its push order), RNG
    /// streams, fault plan position, credit/accounting counters, and
    /// per-VM metrics all come back, so a fork driven with the same
    /// subsequent API calls (policy installs, `run_until` deadlines)
    /// produces the same bytes as re-simulating from scratch — this is
    /// what lets the grid runner warm a shared prefix once per group
    /// and fork each cell from it (`--no-fork` re-simulates instead and
    /// must be byte-identical; `tests/determinism.rs` enforces it).
    pub fn fork(&self) -> Machine {
        self.base.clone()
    }
}

impl core::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Snapshot")
            .field("now", &self.base.now)
            .field("pending_events", &self.base.queue.len())
            .finish()
    }
}

impl Machine {
    /// Checkpoints the machine into an immutable [`Snapshot`].
    ///
    /// The machine is untouched and keeps running; the snapshot holds a
    /// deep copy of all mutable state (the kernel symbol map stays
    /// `Arc`-shared — it is immutable after construction).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { base: self.clone() }
    }

    /// Replaces the scheduling policy mid-run and invokes the new
    /// policy's [`SchedPolicy::on_init`] hook.
    ///
    /// This is the divergence point of shared-prefix grid execution: the
    /// warmup runs under a common base policy, each cell forks the warm
    /// snapshot and installs its own policy. Pending
    /// [`super::Event::PolicyTimer`]s set by the previous policy remain
    /// scheduled and are delivered to the new policy (timer ids are
    /// policy-chosen; the stock policies set timers only from their own
    /// hooks, so after a warmup under [`crate::BaselinePolicy`] — which
    /// sets none — no stale timers exist).
    pub fn set_policy(&mut self, policy: Box<dyn SchedPolicy>) {
        self.policy = Some(policy);
        self.with_policy(|policy, machine| policy.on_init(machine));
    }
}

#[cfg(test)]
mod tests {
    use crate::{BaselinePolicy, Machine, MachineConfig, VmSpec};
    use guest::segment::{Program, Segment};
    use simcore::ids::VmId;
    use simcore::rng::SimRng;
    use simcore::time::{SimDuration, SimTime};

    /// A stochastic program exercising RNG streams, locks, and blocking.
    #[derive(Clone, Debug)]
    struct Churn {
        num_vcpus: u16,
    }

    impl Program for Churn {
        fn next_segment(&mut self, rng: &mut SimRng) -> Segment {
            let layout = guest::kernel::LockLayout::new(self.num_vcpus);
            let pick = rng.next_f64();
            if pick < 0.5 {
                Segment::User {
                    dur: rng.exp_duration(SimDuration::from_micros(60)),
                }
            } else if pick < 0.7 {
                Segment::Kernel {
                    sym: ksym::sym!("sys_read"),
                    dur: rng.exp_duration(SimDuration::from_micros(5)),
                }
            } else if pick < 0.9 {
                Segment::Critical {
                    lock: layout.page_alloc(),
                    sym: ksym::sym!("get_page_from_freelist"),
                    hold: rng.exp_duration(SimDuration::from_micros(3)),
                }
            } else {
                Segment::WorkUnit
            }
        }

        fn name(&self) -> &'static str {
            "churn"
        }
    }

    fn machine(seed: u64) -> Machine {
        let mk = |n: u16| {
            VmSpec::new("churn", n).task_per_vcpu(move |_| Box::new(Churn { num_vcpus: n }))
        };
        Machine::new(
            MachineConfig::small(4).with_seed(seed),
            vec![mk(4), mk(2)],
            Box::new(BaselinePolicy),
        )
    }

    /// State fingerprint that is cheap but covers the determinism-
    /// relevant machine state: time, RNG stream, event count, stats,
    /// and per-VM work counts.
    fn fingerprint(m: &mut Machine) -> (SimTime, u64, usize, u64, u64, u64) {
        (
            m.now(),
            m.rng.clone().next_u64(),
            m.queue.len(),
            m.stats.counters.get("ctx_switches"),
            m.vm_work_done(VmId(0)),
            m.vm_work_done(VmId(1)),
        )
    }

    #[test]
    fn fork_continues_identically_to_original() {
        let warm = SimTime::ZERO + SimDuration::from_millis(50);
        let horizon = SimTime::ZERO + SimDuration::from_millis(150);

        let mut a = machine(7);
        a.run_until(warm).unwrap();
        let snap = a.snapshot();
        let mut b = snap.fork();
        let mut c = snap.fork();

        a.run_until(horizon).unwrap();
        b.run_until(horizon).unwrap();
        c.run_until(horizon).unwrap();
        assert_eq!(fingerprint(&mut a), fingerprint(&mut b));
        assert_eq!(fingerprint(&mut b), fingerprint(&mut c));
    }

    #[test]
    fn running_a_fork_leaves_the_snapshot_untouched() {
        let warm = SimTime::ZERO + SimDuration::from_millis(40);
        let mut a = machine(11);
        a.run_until(warm).unwrap();
        let snap = a.snapshot();

        let mut early = snap.fork();
        early
            .run_until(warm + SimDuration::from_millis(100))
            .unwrap();
        // A fork taken *after* another fork ran must still start from
        // the frozen state.
        let mut late = snap.fork();
        assert_eq!(late.now(), snap.now());
        late.run_until(warm + SimDuration::from_millis(100))
            .unwrap();
        assert_eq!(fingerprint(&mut early), fingerprint(&mut late));
    }

    /// A divergence policy: reserves micro cores at init and accelerates
    /// every PLE yielder — enough to change the trajectory measurably.
    #[derive(Clone, Copy)]
    struct Reserve(usize);

    impl crate::SchedPolicy for Reserve {
        fn name(&self) -> &'static str {
            "reserve"
        }

        fn on_init(&mut self, machine: &mut Machine) {
            machine.set_micro_cores(self.0);
        }

        fn on_yield(
            &mut self,
            machine: &mut Machine,
            vcpu: simcore::ids::VcpuId,
            _cause: crate::policy::YieldCause,
        ) {
            machine.request_acceleration(vcpu);
        }
    }

    #[test]
    fn set_policy_diverges_forks_from_a_common_prefix() {
        let warm = SimTime::ZERO + SimDuration::from_millis(40);
        let horizon = warm + SimDuration::from_millis(120);
        let mut base = machine(3);
        base.run_until(warm).unwrap();
        let snap = base.snapshot();

        let mut plain = snap.fork();
        plain.run_until(horizon).unwrap();

        let mut micro = snap.fork();
        micro.set_policy(Box::new(Reserve(1)));
        micro.run_until(horizon).unwrap();

        // The diverged fork took a different pool layout...
        assert_eq!(micro.micro_cores(), 1);
        assert_eq!(plain.micro_cores(), 0);
        // ...while an identical re-divergence reproduces it exactly.
        let mut micro2 = snap.fork();
        micro2.set_policy(Box::new(Reserve(1)));
        micro2.run_until(horizon).unwrap();
        assert_eq!(fingerprint(&mut micro), fingerprint(&mut micro2));
    }
}
