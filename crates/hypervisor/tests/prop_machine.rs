//! Property-based fuzzing of the machine: random topologies, random
//! stochastic workloads, random policies — the simulation must never
//! panic, never lose work, and always keep its accounting consistent.

use guest::segment::{Program, Segment};
use hypervisor::{BaselinePolicy, FaultSpec, Machine, MachineConfig, VmSpec};
use proptest::prelude::*;
use simcore::ids::VmId;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

/// A stochastic program whose behaviour mix is driven by three weights.
#[derive(Clone, Debug)]
struct FuzzProgram {
    kernel_weight: f64,
    lock_weight: f64,
    tlb_weight: f64,
    num_vcpus: u16,
}

impl Program for FuzzProgram {
    fn next_segment(&mut self, rng: &mut SimRng) -> Segment {
        let layout = guest::kernel::LockLayout::new(self.num_vcpus);
        let pick = rng.next_f64() * (1.0 + self.kernel_weight + self.lock_weight + self.tlb_weight);
        if pick < 1.0 {
            if rng.chance(0.3) {
                Segment::WorkUnit
            } else {
                Segment::User {
                    dur: rng.exp_duration(SimDuration::from_micros(80)),
                }
            }
        } else if pick < 1.0 + self.kernel_weight {
            Segment::Kernel {
                sym: "sys_read",
                dur: rng.exp_duration(SimDuration::from_micros(6)),
            }
        } else if pick < 1.0 + self.kernel_weight + self.lock_weight {
            Segment::Critical {
                lock: layout.page_alloc(),
                sym: "get_page_from_freelist",
                hold: rng.exp_duration(SimDuration::from_micros(4)),
            }
        } else {
            Segment::TlbShootdown {
                local_cost: SimDuration::from_micros(2),
            }
        }
    }

    fn name(&self) -> &'static str {
        "fuzz"
    }
}

/// A [`FuzzProgram`] that ends after `left` segments.
#[derive(Clone, Debug)]
struct Finite {
    inner: FuzzProgram,
    left: u32,
}

impl Program for Finite {
    fn next_segment(&mut self, rng: &mut SimRng) -> Segment {
        if self.left == 0 {
            return Segment::End;
        }
        self.left -= 1;
        self.inner.next_segment(rng)
    }

    fn name(&self) -> &'static str {
        "finite"
    }
}

/// A byte-level fingerprint of a machine's observable state, for the
/// fork-isolation property below.
fn fingerprint(m: &Machine) -> (u64, u64, SimDuration, SimDuration, String) {
    (
        m.vm_work_done(VmId(0)),
        m.vm_work_done(VmId(1)),
        m.stats.vm(VmId(0)).cpu_time,
        m.stats.vm(VmId(1)).cpu_time,
        m.stats.counters.to_string(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // Each case simulates 300 ms on a multi-VM machine.
        ..ProptestConfig::default()
    })]

    #[test]
    fn random_scenarios_never_break_the_machine(
        seed in any::<u64>(),
        num_pcpus in 1u16..8,
        vcpus_a in 1u16..8,
        vcpus_b in 1u16..8,
        kernel_weight in 0.0f64..0.5,
        lock_weight in 0.0f64..0.5,
        tlb_weight in 0.0f64..0.3,
        micro in 0usize..3,
    ) {
        let mk = |n: u16| -> VmSpec {
            VmSpec::new("fuzz", n).task_per_vcpu(move |_| {
                Box::new(FuzzProgram {
                    kernel_weight,
                    lock_weight,
                    tlb_weight,
                    num_vcpus: n,
                })
            })
        };
        let cfg = MachineConfig::small(num_pcpus).with_seed(seed);
        let policy: Box<dyn hypervisor::SchedPolicy> = if micro == 0 {
            Box::new(BaselinePolicy)
        } else {
            Box::new(microslice::MicroslicePolicy::fixed(micro))
        };
        let mut m = Machine::new(cfg, vec![mk(vcpus_a), mk(vcpus_b)], policy);
        let window = SimDuration::from_millis(300);
        m.run_until(SimTime::ZERO + window).unwrap();

        // Both VMs made progress.
        prop_assert!(m.vm_work_done(VmId(0)) > 0);
        prop_assert!(m.vm_work_done(VmId(1)) > 0);
        // CPU-time accounting never exceeds capacity.
        let used = m.stats.vm(VmId(0)).cpu_time + m.stats.vm(VmId(1)).cpu_time;
        let capacity = window * num_pcpus as u64;
        prop_assert!(
            used <= capacity,
            "used {used} exceeds capacity {capacity}"
        );
        // No shootdowns leak and all lock stats stay consistent.
        for vm in 0..2u16 {
            let kernel = &m.vm(VmId(vm)).kernel;
            prop_assert!(kernel.shootdowns.inflight_count() <= (vcpus_a + vcpus_b) as usize);
            for lock in &kernel.locks {
                prop_assert!(lock.contended <= lock.acquisitions);
            }
        }
        // Scheduler state is coherent: at most one running vCPU per pCPU.
        let mut seen = std::collections::HashSet::new();
        for vm in 0..2u16 {
            for v in m.siblings(VmId(vm)) {
                if let hypervisor::VState::Running { pcpu, .. } = m.vcpu(v).state {
                    prop_assert!(seen.insert(pcpu), "two vCPUs running on {pcpu}");
                }
            }
        }
    }

    /// Fork isolation, the property the shared-prefix grid leans on:
    /// running a fork all the way to the horizon leaves the original
    /// machine byte-identical to a twin that was never forked, and the
    /// fork itself continues exactly as the twin does.
    #[test]
    fn forking_never_perturbs_the_original(
        seed in any::<u64>(),
        num_pcpus in 1u16..6,
        vcpus_a in 1u16..6,
        vcpus_b in 1u16..6,
        kernel_weight in 0.0f64..0.5,
        lock_weight in 0.0f64..0.5,
        micro in 0usize..3,
        fork_at_ms in 20u64..150,
    ) {
        let build = || {
            let mk = |n: u16| -> VmSpec {
                VmSpec::new("fuzz", n).task_per_vcpu(move |_| {
                    Box::new(FuzzProgram {
                        kernel_weight,
                        lock_weight,
                        tlb_weight: 0.1,
                        num_vcpus: n,
                    })
                })
            };
            let cfg = MachineConfig::small(num_pcpus).with_seed(seed);
            let policy: Box<dyn hypervisor::SchedPolicy> = if micro == 0 {
                Box::new(BaselinePolicy)
            } else {
                Box::new(microslice::MicroslicePolicy::fixed(micro))
            };
            Machine::new(cfg, vec![mk(vcpus_a), mk(vcpus_b)], policy)
        };
        let fork_at = SimTime::ZERO + SimDuration::from_millis(fork_at_ms);
        let horizon = SimTime::ZERO + SimDuration::from_millis(250);

        let mut original = build();
        original.run_until(fork_at).unwrap();
        let mut fork = original.clone();
        fork.run_until(horizon).unwrap();
        original.run_until(horizon).unwrap();

        let mut twin = build();
        twin.run_until(horizon).unwrap();

        prop_assert_eq!(
            fingerprint(&original),
            fingerprint(&twin),
            "running a fork perturbed the original machine"
        );
        prop_assert_eq!(
            fingerprint(&fork),
            fingerprint(&twin),
            "the fork diverged from an unforked twin"
        );
    }

    /// Split runs, the property the experiment runner's checkpoint store
    /// leans on: stopping at any times before `t2` and running on to `t2`
    /// gives the machine one `run_until(t2)` gives. VM 1 runs a finite
    /// program, and the split at index `vm_stop` (if any) is a
    /// `run_until_vm_finished` stop, which may end at VM 1's finish time
    /// instead: the loop's entry points compose.
    #[test]
    fn split_runs_equal_one_run(
        seed in any::<u64>(),
        num_pcpus in 1u16..6,
        vcpus_a in 1u16..6,
        vcpus_b in 1u16..6,
        micro in 0usize..3,
        splits_ms in proptest::collection::vec(0u64..250, 1..4),
        vm_stop in 0usize..6,
        segments_b in 20u32..1500,
    ) {
        let build = || {
            let fuzz = |n: u16| FuzzProgram {
                kernel_weight: 0.2,
                lock_weight: 0.3,
                tlb_weight: 0.1,
                num_vcpus: n,
            };
            let a = VmSpec::new("fuzz", vcpus_a).task_per_vcpu(move |_| Box::new(fuzz(vcpus_a)));
            let b = VmSpec::new("finite", vcpus_b).task_per_vcpu(move |_| {
                Box::new(Finite {
                    inner: fuzz(vcpus_b),
                    left: segments_b,
                })
            });
            let cfg = MachineConfig::small(num_pcpus).with_seed(seed);
            let policy: Box<dyn hypervisor::SchedPolicy> = if micro == 0 {
                Box::new(BaselinePolicy)
            } else {
                Box::new(microslice::MicroslicePolicy::fixed(micro))
            };
            Machine::new(cfg, vec![a, b], policy)
        };
        let horizon = SimTime::ZERO + SimDuration::from_millis(250);
        let mut splits_ms = splits_ms;
        splits_ms.sort_unstable();
        let mut split = build();
        for (i, ms) in splits_ms.into_iter().enumerate() {
            let t = SimTime::ZERO + SimDuration::from_millis(ms);
            if i == vm_stop {
                let finished = split.run_until_vm_finished(VmId(1), t).unwrap();
                prop_assert!(finished.is_none_or(|at| at <= split.now()));
            } else {
                split.run_until(t).unwrap();
            }
        }
        split.run_until(horizon).unwrap();
        let mut whole = build();
        whole.run_until(horizon).unwrap();
        prop_assert_eq!(
            (split.now(), fingerprint(&split)),
            (whole.now(), fingerprint(&whole)),
            "a split run diverged from one run to the same time"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16, // Poisoning happens within ~100 ms of simulated time.
        ..ProptestConfig::default()
    })]

    /// `SimError` poisoning is sticky: once a sabotage fault trips the
    /// invariant sweep, every later `run_until_*` variant returns the
    /// *same* error without simulating anything — time stays frozen and
    /// `check_invariants` is never re-entered.
    #[test]
    fn poisoning_is_sticky_across_all_run_variants(
        seed in any::<u64>(),
        fault_seed in any::<u64>(),
    ) {
        let mk = |n: u16| -> VmSpec {
            VmSpec::new("fuzz", n).task_per_vcpu(move |_| {
                Box::new(FuzzProgram {
                    kernel_weight: 0.2,
                    lock_weight: 0.2,
                    tlb_weight: 0.1,
                    num_vcpus: n,
                })
            })
        };
        let cfg = MachineConfig::small(4).with_seed(seed);
        let mut m = Machine::new(cfg, vec![mk(2), mk(2)], Box::new(BaselinePolicy));
        // Sabotage plants out-of-range credits and the post-fault sweep
        // catches them, so the first planned entry (inside [1ms, 101ms])
        // is guaranteed to poison the machine.
        m.install_faults(&FaultSpec {
            seed: fault_seed,
            count: 4,
            kinds: hypervisor::faults::KIND_SABOTAGE,
            window: SimDuration::from_millis(100),
            take: 0,
        });
        let horizon = SimTime::ZERO + SimDuration::from_millis(300);
        let first = m
            .run_until(horizon)
            .expect_err("sabotage must poison the machine")
            .to_string();
        prop_assert_eq!(m.error().map(|e| e.to_string()), Some(first.clone()));

        let frozen_now = m.now();
        let frozen_checks = m.stats.counters.get("invariant_checks");
        let frozen_errors = m.stats.counters.get("sim_errors");
        let later = horizon + SimDuration::from_millis(200);
        let again = m.run_until(later).expect_err("poisoning must stick");
        prop_assert_eq!(again.to_string(), first.clone());
        let vm = m
            .run_until_vm_finished(VmId(0), later)
            .expect_err("poisoning must stick for run_until_vm_finished");
        prop_assert_eq!(vm.to_string(), first.clone());
        let all = m
            .run_until_all_finished(later)
            .expect_err("poisoning must stick for run_until_all_finished");
        prop_assert_eq!(all.to_string(), first);

        prop_assert_eq!(m.now(), frozen_now, "a poisoned machine advanced time");
        prop_assert_eq!(
            m.stats.counters.get("invariant_checks"),
            frozen_checks,
            "check_invariants re-entered after poisoning"
        );
        prop_assert_eq!(
            m.stats.counters.get("sim_errors"),
            frozen_errors,
            "sim_errors moved: fail() re-entered after poisoning"
        );
    }
}
