//! Scheduler invariants, checked by dense sampling of live simulations.

use experiments::runner::{build, PolicyKind, RunOptions};
use hypervisor::{Machine, MachineConfig, PoolId, VState};
use metrics::counters::CounterSet;
use simcore::ids::{PcpuId, VcpuId, VmId};
use simcore::time::SimTime;
use std::collections::HashMap;
use workloads::{scenarios, Workload};

/// Sets one scheduler switch in a config.
type Switch = fn(&mut MachineConfig);

/// The scheduler switches no experiment varies, each set away from its
/// default, so their other branches run under the invariant checks.
const SWITCHES: [(&str, Switch); 6] = [
    ("no-boost", |c| c.boost_enabled = false),
    ("no-ple", |c| c.ple_enabled = false),
    ("steal-0.3", |c| c.steal_success_prob = 0.3),
    ("exact-credit", |c| c.credit_sampled_ticks = false),
    ("yield-in-place", |c| c.yield_to_tail = false),
    ("no-jitter", |c| c.slice_jitter_frac = 0.0),
];

fn machines() -> Vec<(&'static str, Machine)> {
    let opts = RunOptions::quick();
    let mk = |w: Workload, policy: PolicyKind, switch: Switch| {
        let (mut cfg, specs) = scenarios::corun(w);
        switch(&mut cfg);
        build(&opts, (cfg, specs), policy)
    };
    let defaults: Switch = |_| {};
    let mut machines = vec![
        (
            "gmake/baseline",
            mk(Workload::Gmake, PolicyKind::Baseline, defaults),
        ),
        (
            "gmake/fixed2",
            mk(Workload::Gmake, PolicyKind::Fixed(2), defaults),
        ),
        (
            "dedup/fixed3",
            mk(Workload::Dedup, PolicyKind::Fixed(3), defaults),
        ),
        (
            "exim/adaptive",
            mk(Workload::Exim, PolicyKind::Adaptive, defaults),
        ),
    ];
    // One machine per switch, spread over workloads and policies.
    let under = [
        (Workload::Gmake, PolicyKind::Baseline),
        (Workload::Exim, PolicyKind::Baseline),
        (Workload::Dedup, PolicyKind::Baseline),
        (Workload::Gmake, PolicyKind::Fixed(2)),
        (Workload::Exim, PolicyKind::Adaptive),
        (Workload::Dedup, PolicyKind::Fixed(3)),
    ];
    for ((label, switch), (w, policy)) in SWITCHES.into_iter().zip(under) {
        machines.push((label, mk(w, policy, switch)));
    }
    machines
}

fn all_vcpus(m: &Machine) -> Vec<VcpuId> {
    (0..m.num_vms() as u16)
        .flat_map(|vm| m.siblings(VmId(vm)))
        .collect()
}

fn check_invariants(label: &str, m: &Machine) {
    let num_pcpus = m.cfg.num_pcpus;
    // 1. At most one running vCPU per pCPU, and it matches pcpu_current.
    let mut running: HashMap<PcpuId, VcpuId> = HashMap::new();
    for v in all_vcpus(m) {
        if let VState::Running { pcpu, .. } = m.vcpu(v).state {
            assert!(
                running.insert(pcpu, v).is_none(),
                "{label}: two vCPUs running on {pcpu}"
            );
            assert_eq!(
                m.pcpu_current(pcpu),
                Some(v),
                "{label}: pCPU bookkeeping out of sync"
            );
        }
    }
    for p in 0..num_pcpus {
        let pcpu = PcpuId(p);
        if let Some(v) = m.pcpu_current(pcpu) {
            assert_eq!(
                m.vcpu(v).state,
                VState::Running {
                    pcpu,
                    since: match m.vcpu(v).state {
                        VState::Running { since, .. } => since,
                        _ => SimTime::ZERO,
                    }
                },
                "{label}: current vCPU of {pcpu} not in Running state"
            );
        }
    }
    // 2. A vCPU scheduled on a pCPU sits in the pool that pCPU belongs to.
    for v in all_vcpus(m) {
        let vc = m.vcpu(v);
        if let Some(pcpu) = vc.pcpu() {
            assert_eq!(
                vc.pool,
                m.pcpu_pool(pcpu),
                "{label}: {v} queued on a pCPU of the wrong pool"
            );
        }
    }
    // 3. Micro-pool run queues never exceed the cap (§5: one vCPU).
    for p in 0..num_pcpus {
        let pcpu = PcpuId(p);
        if m.pcpu_pool(pcpu) == PoolId::Micro {
            assert!(
                m.pcpu_runq_len(pcpu) <= m.cfg.micro_runq_cap,
                "{label}: micro pCPU {pcpu} queue over the cap"
            );
        }
    }
    // 4. Credits stay within [-cap, cap].
    for v in all_vcpus(m) {
        let c = m.vcpu(v).credits;
        assert!(
            (-m.cfg.credit_cap..=m.cfg.credit_cap).contains(&c),
            "{label}: {v} credits {c} out of range"
        );
    }
    // 5. Affinity is honored (normal pool).
    for v in all_vcpus(m) {
        let vc = m.vcpu(v);
        if vc.pool == PoolId::Normal {
            if let Some(pcpu) = vc.pcpu() {
                assert!(
                    vc.allows(pcpu),
                    "{label}: {v} placed on {pcpu} outside its affinity"
                );
            }
        }
    }
}

#[test]
fn invariants_hold_under_dense_sampling() {
    for (label, mut m) in machines() {
        for step in 1..=600u64 {
            m.run_until(SimTime::from_micros(step * 1_000)).unwrap();
            check_invariants(label, &m);
        }
    }
}

/// 500 ms of exim, dedup and swaptions on 4 pCPUs under `--paranoid`
/// (invariants checked every tick), with `switch` applied to the config.
fn switched_counters(switch: Switch) -> CounterSet {
    let opts = RunOptions {
        seed: 7,
        paranoid: true,
        ..RunOptions::quick()
    };
    let mut cfg = MachineConfig::small(4);
    switch(&mut cfg);
    let specs = [Workload::Exim, Workload::Dedup, Workload::Swaptions]
        .into_iter()
        .map(|w| scenarios::vm(w, 4, w.default_iters()))
        .collect();
    let mut m = build(&opts, (cfg, specs), PolicyKind::Baseline);
    m.run_until(SimTime::from_millis(500)).unwrap();
    m.stats.counters.clone()
}

/// Each switch does what it says: turning BOOST or PLE off leaves its
/// counter absent, a balancer that never wins its trylock never steals,
/// and every other setting changes the run.
#[test]
fn scheduler_switches_do_what_they_say() {
    let absent = |c: &CounterSet, name: &str| c.iter().all(|(n, _)| n != name);
    let default = switched_counters(|_| {});
    for name in ["boosts", "ple_exits", "steals"] {
        assert!(default.get(name) > 0, "the default run never counts {name}");
    }
    for (label, switch) in SWITCHES {
        let c = switched_counters(switch);
        match label {
            "no-boost" => assert!(absent(&c, "boosts"), "{label}: {c}"),
            "no-ple" => assert!(absent(&c, "ple_exits"), "{label}: {c}"),
            _ => assert!(c != default, "{label} changed no counter: {c}"),
        }
    }
    let never = switched_counters(|c| c.steal_success_prob = 0.0);
    assert_eq!(never.get("steals"), 0, "steal-0: {never}");
}

#[test]
fn pinned_vcpus_never_leave_their_pcpu_in_the_normal_pool() {
    let opts = RunOptions::quick();
    let (cfg, specs) = scenarios::fig9_mixed_pinned(true);
    let mut m = build(&opts, (cfg, specs), PolicyKind::Fixed(1));
    for step in 1..=400u64 {
        m.run_until(SimTime::from_micros(step * 2_500)).unwrap();
        for vm in 0..2u16 {
            let v = VcpuId::new(VmId(vm), 0);
            let vc = m.vcpu(v);
            if vc.pool == PoolId::Normal {
                if let Some(p) = vc.pcpu() {
                    assert_eq!(p, PcpuId(0), "pinned vCPU drifted to {p}");
                }
            }
        }
    }
}

#[test]
fn micro_pool_empties_when_policy_is_baseline() {
    let opts = RunOptions::quick();
    let mut m = build(
        &opts,
        scenarios::corun(Workload::Exim),
        PolicyKind::Baseline,
    );
    m.run_until(SimTime::from_millis(300)).unwrap();
    assert_eq!(m.micro_cores(), 0);
    assert_eq!(m.stats.counters.get("micro_migrations"), 0);
    for v in all_vcpus(&m) {
        assert_eq!(m.vcpu(v).pool, PoolId::Normal);
    }
}
