//! Micro-benchmarks of the simulator's hot paths.

use bench::sim_criterion;
use criterion::{criterion_group, criterion_main, Criterion};
use hypervisor::{BaselinePolicy, Machine};
use ksym::{Sym, LINUX44};
use metrics::DurationSummary;
use microslice::MicroslicePolicy;
use simcore::event::EventQueue;
use simcore::rng::SimRng;
use simcore::time::{SimDuration, SimTime};
use workloads::{scenarios, Workload};

/// Fixed in-process calibration spin: a pure integer mix (SplitMix64
/// rounds) with no allocation, no branches on data, and no memory
/// traffic beyond two registers. Its minimum depends only on the host
/// core's effective speed, so the ratio of any hot-path minimum to this
/// row cancels host differences — frequency scaling, a slower CI
/// machine, background load — that raw `min_ns` comparisons conflate
/// with real regressions (the pr6→pr7 `event_queue_push_pop_1k` 42→62 µs
/// "drift" was exactly such noise). `scripts/ci.sh` gates on
/// calibration-normalized ratios; EXPERIMENTS.md explains the reading.
fn bench_calibration(c: &mut Criterion) {
    c.bench_function("calibration_spin", |b| {
        b.iter(|| {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut acc = 0u64;
            for _ in 0..200_000 {
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x ^= x >> 27;
                x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^= x >> 31;
                acc = acc.wrapping_add(x);
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                // Pseudo-shuffled timestamps exercise bucket sorting.
                q.push(
                    SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % 100_000),
                    i,
                );
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            std::hint::black_box(sum)
        })
    });
}

/// One step of the guest spinlock protocol under contention, as the
/// `CriticalHold` path drives it: 1k acquire/release rounds, each with
/// the seven other vCPUs of an 8-vCPU VM spinning on the holder. The
/// next round's holder is a spinner, so every acquisition after the
/// first is contended.
fn bench_spinlock_contended(c: &mut Criterion) {
    use guest::spinlock::SpinLock;
    use simcore::ids::{VcpuId, VmId};

    c.bench_function("spinlock_contended_1k", |b| {
        b.iter(|| {
            let mut lock = SpinLock::new();
            let mut spinning = 0usize;
            for round in 0..1_000u16 {
                let holder = VcpuId::new(VmId(0), round % 8);
                let acquired = lock.try_acquire(holder);
                for i in 1..8 {
                    lock.try_acquire(VcpuId::new(VmId(0), (round + i) % 8));
                }
                spinning += lock.spinner_count();
                if acquired {
                    lock.release(holder);
                }
            }
            std::hint::black_box((spinning, lock.contended))
        })
    });
}

/// The scheduler's run-queue inner loop: enqueue a small wave of
/// waiters, refresh their priorities from live values (an in-place
/// rewrite and a stable reorder), probe the head, and dispatch-pop — the
/// exact sequence `machine/sched.rs` drives on every slice boundary.
fn bench_runq_dispatch_scan(c: &mut Criterion) {
    use hypervisor::pcpu::Pcpu;
    use hypervisor::Prio;
    use simcore::ids::{PcpuId, VcpuId, VmId};

    let prios = [Prio::Under, Prio::Over, Prio::Boost, Prio::Under];
    c.bench_function("runq_dispatch_scan", |b| {
        b.iter(|| {
            let mut p = Pcpu::new(PcpuId(0));
            let mut dispatched = 0u64;
            for round in 0..1_000u64 {
                for i in 0..8u16 {
                    p.enqueue(
                        VcpuId::new(VmId(i % 2), i),
                        prios[(round as usize + i as usize) % prios.len()],
                    );
                }
                // Credit tick: every queued priority re-read from the
                // live value, order restored.
                p.refresh_with(|v| prios[(v.idx as usize + round as usize) % prios.len()]);
                while let Some(entry) = p.pop() {
                    dispatched += u64::from(entry.vcpu.idx) + entry.prio.rank() as u64;
                }
            }
            std::hint::black_box(dispatched)
        })
    });
}

/// The guest step path's segment supply: 1k segments pulled from a
/// task's boxed program (one virtual call each, plus a profile
/// iteration's refill of the program's buffer every few segments), as
/// `machine/step.rs` consumes them.
fn bench_segment_step(c: &mut Criterion) {
    use guest::Task;
    use simcore::ids::{TaskId, VmId};

    c.bench_function("segment_step_1k", |b| {
        b.iter(|| {
            let mut task = Task::new(
                TaskId::new(VmId(0), 0),
                0,
                Workload::Exim.program(0, 4, None),
                SimRng::new(0xBEEF),
            );
            let mut acc = 0u64;
            for _ in 0..1_000 {
                acc = acc.wrapping_add(match task.next_segment() {
                    guest::Segment::User { dur } => dur.as_nanos(),
                    guest::Segment::WorkUnit => 1,
                    other => {
                        std::hint::black_box(&other);
                        2
                    }
                });
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng_exp_durations_10k", |b| {
        let mut rng = SimRng::new(7);
        let mean = SimDuration::from_micros(100);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..10_000 {
                acc = acc.wrapping_add(rng.exp_duration(mean).as_nanos());
            }
            std::hint::black_box(acc)
        })
    });
}

/// The latency recorder behind Tables 4a/4b; the row keeps the name it
/// had when the recorder was a bucketed histogram.
fn bench_histogram(c: &mut Criterion) {
    c.bench_function("histogram_record_10k", |b| {
        let mut rng = SimRng::new(9);
        b.iter(|| {
            let mut s = DurationSummary::new();
            for _ in 0..10_000 {
                s.record(SimDuration::from_nanos(rng.range_u64(100, 100_000_000)));
            }
            std::hint::black_box((s.mean(), s.max()))
        })
    });
}

fn bench_symbol_resolution(c: &mut Criterion) {
    let wl = ksym::Whitelist::linux44();
    let ips: Vec<u64> = Sym::all().map(Sym::ip).collect();
    c.bench_function("symbol_classify_batch", |b| {
        b.iter(|| {
            let mut critical = 0usize;
            for &ip in &ips {
                if wl.classify(LINUX44.table(), ip).is_critical() {
                    critical += 1;
                }
            }
            std::hint::black_box(critical)
        })
    });
}

/// One consolidated simulated second — the simulator's end-to-end rate.
fn bench_sim_second(c: &mut Criterion) {
    let build = |policy: bool| {
        let (cfg, specs) = scenarios::corun(Workload::Exim);
        if policy {
            Machine::new(cfg, specs, Box::new(MicroslicePolicy::fixed(1)))
        } else {
            Machine::new(cfg, specs, Box::new(BaselinePolicy))
        }
    };
    c.bench_function("simulate_one_second_baseline", |b| {
        b.iter(|| {
            let mut m = build(false);
            m.run_until(SimTime::from_secs(1)).unwrap();
            std::hint::black_box(m.stats.counters.total())
        })
    });
    c.bench_function("simulate_one_second_microslice", |b| {
        b.iter(|| {
            let mut m = build(true);
            m.run_until(SimTime::from_secs(1)).unwrap();
            std::hint::black_box(m.stats.counters.total())
        })
    });
}

/// Checkpoint round trip of the shared-prefix grid: snapshot a warmed
/// paper-testbed machine and fork a runnable copy — the per-cell price
/// `--fork` pays instead of re-simulating the warm prefix. Two deep
/// copies of the full machine state per iteration; the warm prefix it
/// replaces costs `simulate_one_second_baseline`-scale time per 800 ms.
fn bench_machine_snapshot(c: &mut Criterion) {
    let (cfg, specs) = scenarios::corun(Workload::Exim);
    let mut warm = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    warm.run_until(SimTime::from_millis(800)).unwrap();
    c.bench_function("machine_snapshot_restore", |b| {
        b.iter(|| {
            let snap = warm.snapshot();
            let fork = snap.fork();
            std::hint::black_box(fork.stats.counters.total())
        })
    });
}

/// The IPI-wait yield hook (`MicroslicePolicy::on_yield`, §4.2) on a warm
/// `io-tlb-corun`-shaped machine: iperf + swaptions next to dedup, two
/// micro cores. The traced benchmark pass reports that 99% of this
/// workload's yields are IPI waits and 91% of acceleration attempts are
/// rejected. So the bench finds a running vCPU waiting for TLB acks while
/// preempted siblings still owe them, then yields it 1k times. The first
/// yield fills the micro slots; every later one classifies the IP, scans
/// the preempted ack owers and has each attempt rejected. That reject
/// path is the steady state the workload spends its hook time in.
fn bench_policy_ipi_wait_yield(c: &mut Criterion) {
    use hypervisor::policy::{SchedPolicy, YieldCause};
    use ksym::CriticalClass;
    use microslice::DetectionEngine;
    use simcore::ids::{VcpuId, VmId};

    let (cfg, mut specs) = scenarios::mixed_iperf_corun();
    specs[1] = scenarios::vm(Workload::Dedup, cfg.num_pcpus, None);
    let mut m = Machine::new(cfg, specs, Box::new(MicroslicePolicy::fixed(2)));
    let detect = DetectionEngine::new();
    let mut yielder: Option<VcpuId> = None;
    let mut at = SimTime::from_millis(100);
    while yielder.is_none() {
        m.run_until(at).unwrap();
        at += SimDuration::from_micros(50);
        if detect.preempted_ack_owers(&m, VmId(1)).is_empty() {
            continue;
        }
        for v in m.siblings(VmId(1)) {
            if m.vcpu(v).is_running() && detect.classify(&m, v) == CriticalClass::IpiWait {
                yielder = Some(v);
            }
        }
    }
    let vcpu = yielder.unwrap();
    let mut policy = MicroslicePolicy::fixed(2);
    c.bench_function("policy_ipi_wait_yield", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                policy.on_yield(&mut m, vcpu, YieldCause::Ipi);
            }
            std::hint::black_box(m.stats.counters.total())
        })
    });
}

/// 1k counter increments at `io-tlb-corun`'s call mix, in calls per
/// 1,000. The mix comes from the traced benchmark pass: 21.5M calls over
/// 4 cells at seed 7, of which `micro_rejects` is 46%. `ipis_sent` moves
/// by one `add` per shootdown. The calls go through the enum keys the
/// hypervisor's hot sites pass, in a fixed shuffled order.
fn bench_counter_incr_mix(c: &mut Criterion) {
    use metrics::counters::{Counter, CounterSet};

    const MIX: [(Counter, usize); 11] = [
        (Counter::MicroRejects, 465),
        (Counter::CtxSwitches, 171),
        (Counter::IpiYields, 141),
        (Counter::Virqs, 111),
        (Counter::MicroMigrations, 48),
        (Counter::TlbShootdowns, 29),
        (Counter::IpisSent, 29),
        (Counter::Steals, 3),
        (Counter::HaltYields, 1),
        (Counter::Boosts, 1),
        (Counter::Preemptions, 1),
    ];
    let mut calls: Vec<Counter> = MIX
        .iter()
        .flat_map(|&(counter, n)| std::iter::repeat_n(counter, n))
        .collect();
    let mut rng = SimRng::new(0x5EED);
    for i in (1..calls.len()).rev() {
        calls.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut set = CounterSet::new();
    c.bench_function("counter_incr_mix", |b| {
        b.iter(|| {
            for &counter in &calls {
                set.incr(std::hint::black_box(counter));
            }
            std::hint::black_box(set.total())
        })
    });
}

criterion_group! {
    name = hotpaths;
    config = sim_criterion();
    targets = bench_calibration, bench_event_queue, bench_spinlock_contended, bench_runq_dispatch_scan, bench_segment_step, bench_rng, bench_histogram, bench_symbol_resolution, bench_sim_second, bench_machine_snapshot, bench_policy_ipi_wait_yield, bench_counter_incr_mix
}
criterion_main!(hotpaths);
