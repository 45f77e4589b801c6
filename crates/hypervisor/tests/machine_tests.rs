//! End-to-end tests of the simulated machine with scripted workloads.

use guest::kernel::LockKind;
use guest::segment::{Program, ScriptedProgram, Segment};
use hypervisor::{BaselinePolicy, Machine, MachineConfig, VmSpec};
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A program doing `iters` iterations of user work + a work unit.
fn compute_prog(iters: usize, work_us: u64) -> Box<dyn Program> {
    let mut script = Vec::new();
    for _ in 0..iters {
        script.push(Segment::User { dur: us(work_us) });
        script.push(Segment::WorkUnit);
    }
    Box::new(ScriptedProgram::new("compute", script))
}

/// An endless CPU hog (never finishes).
fn hog_prog() -> Box<dyn Program> {
    Box::new(ScriptedProgram::looping(
        "hog",
        vec![Segment::User { dur: ms(10) }],
    ))
}

#[test]
fn single_task_finishes_with_small_overhead() {
    let cfg = MachineConfig::small(1);
    let spec = VmSpec::new("solo", 1).task(0, compute_prog(100, 100));
    let mut m = Machine::new(cfg, vec![spec], Box::new(BaselinePolicy));
    let fin = m
        .run_until_vm_finished(VmId(0), SimTime::from_secs(1))
        .unwrap()
        .expect("should finish");
    // 100 × 100 µs = 10 ms of work; overheads must stay tiny.
    assert!(fin >= SimTime::from_millis(10));
    assert!(fin < SimTime::from_millis(12), "finished at {fin}");
    assert_eq!(m.vm_work_done(VmId(0)), 100);
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let cfg = MachineConfig::small(4).with_seed(77);
        let specs = vec![
            VmSpec::new("a", 4).task_per_vcpu(|_| compute_prog(50, 200)),
            VmSpec::new("b", 4).task_per_vcpu(|_| compute_prog(50, 200)),
        ];
        let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
        m.run_until(SimTime::from_millis(500)).unwrap();
        (
            m.vm_work_done(VmId(0)),
            m.vm_work_done(VmId(1)),
            m.stats.counters.get("ctx_switches"),
            m.vm_finished_at(VmId(0)),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn overcommit_shares_cpu_roughly_fairly() {
    let cfg = MachineConfig::small(2);
    let specs = vec![
        VmSpec::new("a", 2).task_per_vcpu(|_| hog_prog()),
        VmSpec::new("b", 2).task_per_vcpu(|_| hog_prog()),
    ];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(2)).unwrap();
    let a = m.stats.vm(VmId(0)).cpu_time.as_millis_f64();
    let b = m.stats.vm(VmId(1)).cpu_time.as_millis_f64();
    let total = a + b;
    // 2 pCPUs for 2 s minus overheads.
    assert!(total > 3_800.0, "total CPU time {total} ms too low");
    let ratio = a / b;
    assert!(
        (0.8..1.25).contains(&ratio),
        "unfair split: {a} ms vs {b} ms"
    );
}

#[test]
fn lock_contention_produces_ple_yields_and_waits() {
    let cfg = MachineConfig::small(4);
    // Four tasks hammer the page-allocator lock with long holds.
    let layout = guest::kernel::LockLayout::new(4);
    let lock = layout.page_alloc();
    let make = move |_v: u16| -> Box<dyn Program> {
        let mut script = Vec::new();
        for _ in 0..200 {
            script.push(Segment::Critical {
                lock,
                sym: "get_page_from_freelist",
                hold: us(50),
            });
            script.push(Segment::User { dur: us(10) });
            script.push(Segment::WorkUnit);
        }
        Box::new(ScriptedProgram::new("locker", script))
    };
    let specs = vec![VmSpec::new("lockers", 4).task_per_vcpu(make)];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until_vm_finished(VmId(0), SimTime::from_secs(5))
        .unwrap()
        .expect("finishes");
    let vm = m.vm(VmId(0));
    let h = vm.kernel.lock_wait_of(LockKind::PageAlloc);
    assert_eq!(h.count(), 800, "every acquisition recorded");
    assert!(h.max() >= us(50), "someone waited for a holder");
    // Spinning past the PLE window must have yielded at least once.
    assert!(m.stats.vm(VmId(0)).yields.spinlock > 0);
}

#[test]
fn lock_holder_preemption_emerges_under_overcommit() {
    // One VM hammers a lock; a co-runner VM hogs both pCPUs. The holder
    // gets preempted mid-critical-section and waiters must spin across
    // scheduling rounds.
    let cfg = MachineConfig::small(2);
    let layout = guest::kernel::LockLayout::new(2);
    let lock = layout.page_alloc();
    let make = move |_v: u16| -> Box<dyn Program> {
        Box::new(ScriptedProgram::looping(
            "locker",
            vec![
                Segment::Critical {
                    lock,
                    sym: "get_page_from_freelist",
                    hold: us(5),
                },
                Segment::User { dur: us(20) },
                Segment::WorkUnit,
            ],
        ))
    };
    let specs = vec![
        VmSpec::new("lockers", 2).task_per_vcpu(make),
        VmSpec::new("hog", 2).task_per_vcpu(|_| hog_prog()),
    ];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(2)).unwrap();
    let h = m.vm(VmId(0)).kernel.lock_wait_of(LockKind::PageAlloc);
    assert!(h.count() > 100);
    // Lock-holder preemption: the worst wait spans at least one
    // scheduling delay, i.e. far beyond the 5 µs hold time. (The credit
    // load balancer rescues UNDER-priority holders quickly on this tiny
    // 2-pCPU topology, so the tail is shorter than at paper scale.)
    assert!(
        h.max() >= SimDuration::from_micros(200),
        "max wait only {}",
        h.max()
    );
    assert!(
        m.stats.vm(VmId(0)).yields.spinlock > 10,
        "spinning across an LHP event must produce PLE yields; got {:?}",
        m.stats.vm(VmId(0)).yields
    );
}

#[test]
fn tlb_shootdown_completes_solo_quickly() {
    let cfg = MachineConfig::small(4);
    let make = |v: u16| -> Box<dyn Program> {
        let mut script = Vec::new();
        if v == 0 {
            for _ in 0..50 {
                script.push(Segment::TlbShootdown { local_cost: us(2) });
                script.push(Segment::User { dur: us(50) });
                script.push(Segment::WorkUnit);
            }
        } else {
            for _ in 0..500 {
                script.push(Segment::User { dur: us(100) });
            }
        }
        Box::new(ScriptedProgram::new("tlb", script))
    };
    let specs = vec![VmSpec::new("dedup-ish", 4).task_per_vcpu(make)];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until_vm_finished(VmId(0), SimTime::from_secs(5))
        .unwrap()
        .expect("finishes");
    let vm = m.vm(VmId(0));
    assert_eq!(vm.kernel.shootdowns.completed, 50);
    assert_eq!(vm.kernel.shootdowns.inflight_count(), 0);
    assert_eq!(vm.kernel.tlb_latency.count(), 50);
    // Solo: all siblings run, acks arrive within tens of µs.
    assert!(
        vm.kernel.tlb_latency.mean() < us(100),
        "solo TLB sync too slow: {}",
        vm.kernel.tlb_latency.mean()
    );
}

#[test]
fn tlb_shootdown_straggles_under_overcommit() {
    let cfg = MachineConfig::small(4);
    let make = |v: u16| -> Box<dyn Program> {
        if v == 0 {
            Box::new(ScriptedProgram::looping(
                "initiator",
                vec![
                    Segment::TlbShootdown { local_cost: us(2) },
                    Segment::User { dur: us(50) },
                    Segment::WorkUnit,
                ],
            ))
        } else {
            Box::new(ScriptedProgram::looping(
                "worker",
                vec![Segment::User { dur: us(100) }, Segment::WorkUnit],
            ))
        }
    };
    let specs = vec![
        VmSpec::new("dedup-ish", 4).task_per_vcpu(make),
        VmSpec::new("hog", 4).task_per_vcpu(|_| hog_prog()),
    ];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(2)).unwrap();
    let vm = m.vm(VmId(0));
    assert!(vm.kernel.tlb_latency.count() > 10);
    assert!(
        vm.kernel.tlb_latency.mean() > SimDuration::from_micros(250),
        "co-run TLB sync suspiciously fast: {}",
        vm.kernel.tlb_latency.mean()
    );
    assert!(
        vm.kernel.tlb_latency.max() > SimDuration::from_millis(5),
        "no straggler ever waited a scheduling round: {}",
        vm.kernel.tlb_latency.max()
    );
    assert!(
        m.stats.vm(VmId(0)).yields.ipi > 0,
        "IPI-wait yields expected"
    );
}

#[test]
fn wake_and_block_roundtrip_across_vcpus() {
    let cfg = MachineConfig::small(2);
    // Task 0 (vCPU 0) wakes task 1 (vCPU 1) repeatedly; task 1 blocks
    // between wakeups.
    let producer = ScriptedProgram::new(
        "producer",
        (0..20)
            .flat_map(|_| {
                vec![
                    Segment::User { dur: us(100) },
                    Segment::Wake {
                        target: 1,
                        cost: us(2),
                    },
                ]
            })
            .collect(),
    );
    let consumer = ScriptedProgram::looping(
        "consumer",
        vec![
            Segment::Block,
            Segment::User { dur: us(10) },
            Segment::WorkUnit,
        ],
    );
    let spec = VmSpec::new("pair", 2)
        .task(0, Box::new(producer))
        .task(1, Box::new(consumer));
    let mut m = Machine::new(cfg, vec![spec], Box::new(BaselinePolicy));
    m.run_until(SimTime::from_millis(100)).unwrap();
    // Every wake should have produced one consumer work unit.
    let done = m.vm(VmId(0)).tasks[1].work_done;
    assert!(
        (18..=20).contains(&done),
        "consumer completed {done} units, expected ≈20"
    );
    assert!(m.stats.counters.get("resched_ipis") >= 18);
    // The consumer halts between work items.
    assert!(m.stats.vm(VmId(0)).yields.halt >= 18);
}

#[test]
fn iperf_solo_reaches_near_line_rate_with_low_jitter() {
    let cfg = MachineConfig::small(1);
    let server = ScriptedProgram::looping(
        "iperf-server",
        vec![
            Segment::NetRecv,
            Segment::User { dur: us(2) },
            Segment::WorkUnit,
        ],
    );
    let spec = VmSpec::new("iperf", 1)
        .task(0, Box::new(server))
        .flow(guest::net::FlowCfg::tcp_1g(0, 0));
    let mut m = Machine::new(cfg, vec![spec], Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(1)).unwrap();
    let flow = &m.vm(VmId(0)).kernel.flows[0];
    let mbps = flow.throughput_mbps(m.now());
    assert!(
        mbps > 600.0,
        "solo TCP throughput {mbps} Mbit/s below expectation"
    );
    assert!(
        flow.jitter_ms() < 0.5,
        "solo jitter {} ms too high",
        flow.jitter_ms()
    );
    assert!(flow.delivered > 10_000);
}

#[test]
fn mixed_vcpu_degrades_iperf_like_the_paper() {
    // Figure 9 setup: two single-vCPU VMs pinned to one pCPU; VM-1 runs
    // iPerf *and* a CPU hog on the same vCPU, VM-2 runs a hog.
    let mut cfg = MachineConfig::small(2);
    cfg.seed = 99;
    let server = ScriptedProgram::looping(
        "iperf-server",
        vec![
            Segment::NetRecv,
            Segment::User { dur: us(2) },
            Segment::WorkUnit,
        ],
    );
    let vm1 = VmSpec::new("mixed", 1)
        .task(0, Box::new(server))
        .task(0, hog_prog())
        .flow(guest::net::FlowCfg::tcp_1g(0, 0))
        .pin(0, vec![PcpuId(0)]);
    let vm2 = VmSpec::new("hog", 1)
        .task(0, hog_prog())
        .pin(0, vec![PcpuId(0)]);
    let mut m = Machine::new(cfg, vec![vm1, vm2], Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(2)).unwrap();
    let flow = &m.vm(VmId(0)).kernel.flows[0];
    let mbps = flow.throughput_mbps(m.now());
    assert!(
        mbps < 700.0,
        "mixed co-run should degrade throughput, got {mbps}"
    );
    assert!(
        flow.jitter_ms() > 1.0,
        "mixed co-run jitter {} ms should be large",
        flow.jitter_ms()
    );
}

#[test]
fn micro_pool_resize_and_accelerate() {
    let cfg = MachineConfig::small(4);
    let specs = vec![
        VmSpec::new("a", 4).task_per_vcpu(|_| hog_prog()),
        VmSpec::new("b", 4).task_per_vcpu(|_| hog_prog()),
    ];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_millis(50)).unwrap();
    assert_eq!(m.micro_cores(), 0);
    assert!(!m.micro_slot_available());
    m.set_micro_cores(2);
    assert_eq!(m.micro_cores(), 2);
    assert_eq!(m.normal_cores(), 2);
    assert!(m.micro_slot_available());
    // Accelerate a preempted vCPU.
    let preempted: Vec<VcpuId> = m
        .siblings(VmId(0))
        .chain(m.siblings(VmId(1)))
        .filter(|&v| m.vcpu(v).is_preempted())
        .collect();
    assert!(!preempted.is_empty(), "overcommit leaves someone waiting");
    assert!(m.try_accelerate(preempted[0]));
    assert!(!m.try_accelerate(preempted[0]), "already accelerated");
    m.run_until(SimTime::from_millis(60)).unwrap();
    // After its 0.1 ms slice the vCPU must be back in the normal pool.
    assert_eq!(
        m.vcpu(preempted[0]).pool,
        hypervisor::PoolId::Normal,
        "micro-pool eviction failed"
    );
    assert!(m.stats.counters.get("micro_migrations") >= 1);
    // Shrink back.
    m.set_micro_cores(0);
    assert_eq!(m.micro_cores(), 0);
    m.run_until(SimTime::from_millis(100)).unwrap();
}

#[test]
fn ip_of_running_vcpus_resolves_via_symbol_table() {
    let cfg = MachineConfig::small(2);
    let layout = guest::kernel::LockLayout::new(2);
    let lock = layout.page_alloc();
    let make = move |_| -> Box<dyn Program> {
        Box::new(ScriptedProgram::looping(
            "locker",
            vec![
                Segment::Critical {
                    lock,
                    sym: "get_page_from_freelist",
                    hold: us(100),
                },
                Segment::User { dur: us(10) },
            ],
        ))
    };
    let specs = vec![VmSpec::new("lockers", 2).task_per_vcpu(make)];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_millis(5)).unwrap();
    let wl = ksym::Whitelist::linux44();
    let mut saw_critical = false;
    for v in m.siblings(VmId(0)) {
        let ip = m.vcpu_ip(v);
        let class = wl.classify(m.kernel_map().table(), ip);
        if class == ksym::CriticalClass::SpinlockCritical {
            saw_critical = true;
        }
    }
    assert!(
        saw_critical,
        "a holder should be inside the critical section"
    );
}

#[test]
fn halted_vm_consumes_no_cpu() {
    let cfg = MachineConfig::small(2);
    let specs = vec![
        VmSpec::new("quick", 1).task(0, compute_prog(10, 10)),
        VmSpec::new("hog", 1).task(0, hog_prog()),
    ];
    let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(1)).unwrap();
    assert!(m.vm_finished_at(VmId(0)).is_some());
    let quick = m.stats.vm(VmId(0)).cpu_time;
    assert!(quick < SimDuration::from_millis(5), "quick used {quick}");
    let hog = m.stats.vm(VmId(1)).cpu_time;
    assert!(hog > SimDuration::from_millis(900), "hog used only {hog}");
}

#[test]
fn scripted_rng_programs_work() {
    // A stochastic program driven by the task RNG: exercises fork()
    // determinism through the whole machine.
    #[derive(Clone, Debug)]
    struct RandomWork;
    impl Program for RandomWork {
        fn next_segment(&mut self, rng: &mut SimRng) -> Segment {
            if rng.chance(0.3) {
                Segment::WorkUnit
            } else {
                Segment::User {
                    dur: rng.exp_duration(us(50)),
                }
            }
        }
        fn name(&self) -> &'static str {
            "random"
        }
    }
    let run = || {
        let cfg = MachineConfig::small(2).with_seed(5);
        let specs = vec![VmSpec::new("r", 2).task_per_vcpu(|_| Box::new(RandomWork))];
        let mut m = Machine::new(cfg, specs, Box::new(BaselinePolicy));
        m.run_until(SimTime::from_millis(200)).unwrap();
        m.vm_work_done(VmId(0))
    };
    let a = run();
    assert!(a > 100, "should complete plenty of units, got {a}");
    assert_eq!(a, run());
}
