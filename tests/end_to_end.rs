//! End-to-end integration tests spanning every crate: workloads →
//! guest protocols → hypervisor scheduling → micro-slice policy.

use experiments::runner::{build, run_window, PolicyKind, RunOptions};
use hypervisor::PoolId;
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use workloads::{scenarios, Workload};

fn opts() -> RunOptions {
    RunOptions::quick()
}

#[test]
fn every_workload_pair_completes_or_progresses() {
    // Smoke: every cataloged workload survives a consolidated window
    // without panics, deadlocks, or starvation under all three policies.
    let all = [
        Workload::Exim,
        Workload::Gmake,
        Workload::Psearchy,
        Workload::Memclone,
        Workload::Dedup,
        Workload::Vips,
        Workload::Blackscholes,
        Workload::Bzip2,
    ];
    for w in all {
        for policy in [
            PolicyKind::Baseline,
            PolicyKind::Fixed(2),
            PolicyKind::Adaptive,
        ] {
            let window = SimDuration::from_millis(400);
            let m = run_window(&opts(), scenarios::corun(w), policy, window).unwrap();
            assert!(
                m.vm_work_done(VmId(0)) > 0,
                "{} made no progress under {policy:?}",
                w.name()
            );
            assert!(m.vm_work_done(VmId(1)) > 0);
        }
    }
}

#[test]
fn work_conservation_across_policies() {
    // The two VMs together should consume nearly all CPU capacity no
    // matter the policy (modulo switch overheads and the micro pool's
    // intentional idling).
    for policy in [PolicyKind::Baseline, PolicyKind::Fixed(1)] {
        let window = SimDuration::from_secs(1);
        let m = run_window(&opts(), scenarios::corun(Workload::Gmake), policy, window).unwrap();
        let used = m.stats.vm(VmId(0)).cpu_time + m.stats.vm(VmId(1)).cpu_time;
        let capacity = window * 12;
        let utilization = used.as_secs_f64() / capacity.as_secs_f64();
        let floor = match policy {
            PolicyKind::Fixed(_) => 0.85, // One core may idle between accelerations.
            _ => 0.93,
        };
        assert!(
            utilization > floor,
            "{policy:?}: utilization {utilization:.3} below {floor}"
        );
    }
}

#[test]
fn micro_pool_never_retains_vcpus_after_calm() {
    // Accelerated vCPUs must always drain back to the normal pool.
    let (cfg, mut specs) = scenarios::corun(Workload::Memclone);
    let n = cfg.num_pcpus;
    specs[0] = scenarios::vm(Workload::Memclone, n, Some(1_000));
    specs[1] = scenarios::vm(Workload::Swaptions, n, Some(300));
    let mut m = build(&opts(), (cfg, specs), PolicyKind::Fixed(2));
    assert!(m.run_until_all_finished(SimTime::from_secs(60)).unwrap());
    assert!(
        m.stats.counters.get("micro_migrations") > 0,
        "policy never engaged"
    );
    for vm in 0..2u16 {
        for v in m.siblings(VmId(vm)) {
            assert_eq!(
                m.vcpu(v).pool,
                PoolId::Normal,
                "{v} stranded in the micro pool"
            );
        }
    }
}

#[test]
fn lock_statistics_are_consistent() {
    let (cfg, specs) = scenarios::corun(Workload::Exim);
    let n = cfg.num_pcpus;
    let m = run_window(
        &opts(),
        (cfg, specs),
        PolicyKind::Baseline,
        SimDuration::from_secs(1),
    )
    .unwrap();
    let kernel = &m.vm(VmId(0)).kernel;
    // Every lock ends the run free or held by a live vCPU; acquisition
    // counters are self-consistent.
    let mut total_acquisitions = 0;
    for lock in &kernel.locks {
        assert!(lock.contended <= lock.acquisitions);
        total_acquisitions += lock.acquisitions;
    }
    let recorded: u64 = guest::kernel::LockKind::ALL
        .iter()
        .map(|&k| kernel.lock_wait_of(k).count())
        .sum();
    // Wait-time records cover completed acquisitions; in-flight spins may
    // make the counts differ by at most the vCPU count.
    assert!(
        total_acquisitions.abs_diff(recorded) <= n as u64,
        "acquisitions {total_acquisitions} vs recorded waits {recorded}"
    );
}

#[test]
fn tlb_protocol_leaves_no_dangling_shootdowns() {
    let (cfg, mut specs) = scenarios::corun(Workload::Dedup);
    let n = cfg.num_pcpus;
    specs[0] = scenarios::vm(Workload::Dedup, n, Some(800));
    specs[1] = scenarios::vm(Workload::Swaptions, n, Some(300));
    let mut m = build(&opts(), (cfg, specs), PolicyKind::Fixed(3));
    assert!(m.run_until_all_finished(SimTime::from_secs(120)).unwrap());
    let kernel = &m.vm(VmId(0)).kernel;
    assert_eq!(
        kernel.shootdowns.inflight_count(),
        0,
        "shootdowns left in flight after completion"
    );
    assert!(kernel.shootdowns.completed > 100);
    assert_eq!(kernel.tlb_latency.count(), kernel.shootdowns.completed);
}

#[test]
fn policies_do_not_change_total_guest_work() {
    // The same finite workload completes the same number of work units
    // regardless of the scheduling policy — scheduling can change *when*,
    // never *what*.
    let total = |policy: PolicyKind| {
        let (cfg, mut specs) = scenarios::corun(Workload::Gmake);
        let n = cfg.num_pcpus;
        specs[0] = scenarios::vm(Workload::Gmake, n, Some(1_000));
        specs[1] = scenarios::vm(Workload::Swaptions, n, Some(200));
        let mut m = build(&opts(), (cfg, specs), policy);
        assert!(m.run_until_all_finished(SimTime::from_secs(60)).unwrap());
        (m.vm_work_done(VmId(0)), m.vm_work_done(VmId(1)))
    };
    let a = total(PolicyKind::Baseline);
    let b = total(PolicyKind::Fixed(1));
    let c = total(PolicyKind::Adaptive);
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a.0, 12_000);
}

#[test]
fn iperf_flow_accounting_balances() {
    let (cfg, specs) = scenarios::fig9_mixed_pinned(false);
    let mut m = build(&opts(), (cfg, specs), PolicyKind::Baseline);
    m.run_until(SimTime::from_secs(1)).unwrap();
    let flow = &m.vm(VmId(0)).kernel.flows[0];
    // Delivered + dropped + still-queued accounts for every arrival the
    // NIC accepted; nothing is double-counted or lost.
    assert!(flow.delivered > 0);
    let queued = (flow.backlog_len() + flow.app_queue_len()) as u64;
    let seen = flow.delivered + flow.dropped + queued;
    // UDP arrivals are one per `gap`, starting after the one-way delay;
    // the count is deterministic within a couple of packets.
    let expected = (1_000_000_000u64 - 60_000) / 13_500;
    assert!(
        seen.abs_diff(expected) <= 3,
        "flow accounting off: seen {seen}, expected ≈{expected}"
    );
}
