//! Scenario builders: the VM configurations of the paper's experiments.

use crate::catalog::Workload;
use guest::net::FlowCfg;
use hypervisor::{MachineConfig, VmSpec};
use simcore::ids::PcpuId;

/// Builds a VM running one thread of `workload` per vCPU, each with a
/// budget of `iters` iterations (`None`: endless).
pub fn vm(workload: Workload, num_vcpus: u16, iters: Option<u64>) -> VmSpec {
    VmSpec::new(workload.name(), num_vcpus)
        .task_per_vcpu(move |v| workload.program(v, num_vcpus, iters))
}

/// The solo configuration of §3: one 12-vCPU VM on the 12-pCPU testbed,
/// running its workload's default budget.
pub fn solo(workload: Workload) -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig::paper_testbed();
    let specs = vec![vm(workload, cfg.num_pcpus, workload.default_iters())];
    (cfg, specs)
}

/// The co-run configuration of §3/§6: the [`solo`] target VM
/// consolidated 2:1 with a swaptions VM. Callers that need another
/// machine configuration or target budget change the returned parts.
///
/// The co-runner runs swaptions' default budget, 1,800 iterations of
/// about 2 ms per thread, not endlessly: a target that outlives it
/// finishes alone (ROADMAP item 1).
pub fn corun(workload: Workload) -> (MachineConfig, Vec<VmSpec>) {
    let (cfg, mut specs) = solo(workload);
    specs.push(corunner(cfg.num_pcpus));
    (cfg, specs)
}

/// The paper's co-runner: a swaptions VM with one thread per vCPU.
fn corunner(num_vcpus: u16) -> VmSpec {
    vm(
        Workload::Swaptions,
        num_vcpus,
        Workload::Swaptions.default_iters(),
    )
}

/// The Table 4c "mixed co-run": the target VM hosts iPerf *and* endless
/// swaptions threads (iPerf shares vCPU 0 with one), co-run with the
/// [`corun`] co-runner. Xen's BOOST cannot help vCPU 0: it is always
/// runnable.
pub fn mixed_iperf_corun() -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig::paper_testbed();
    let n = cfg.num_pcpus;
    // Task indices: 0..n-1 are swaptions threads (one per vCPU); task n is
    // the iPerf server homed on vCPU 0.
    let mut target = VmSpec::new("iperf+swaptions", n)
        .task_per_vcpu(move |v| Workload::Swaptions.program(v, n, None));
    let iperf_task = target.tasks.len() as u32;
    target = target
        .task(0, Workload::IperfServer.program(0, n, None))
        .flow(FlowCfg::tcp_1g(0, iperf_task));
    (cfg, vec![target, corunner(n)])
}

/// The Figure 9 setup: two single-vCPU VMs pinned to the same pCPU; VM-1
/// runs iPerf + lookbusy on its one vCPU, VM-2 runs lookbusy. `tcp`
/// selects the TCP or UDP flow.
pub fn fig9_mixed_pinned(tcp: bool) -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig::paper_testbed();
    let flow = if tcp {
        FlowCfg::tcp_1g(0, 1)
    } else {
        FlowCfg::udp_1g(0, 1)
    };
    let vm1 = VmSpec::new("iperf+lookbusy", 1)
        .task(0, Workload::Lookbusy.program(0, 1, None))
        .task(0, Workload::IperfServer.program(0, 1, None))
        .flow(flow)
        .pin(0, vec![PcpuId(0)]);
    let vm2 = VmSpec::new("lookbusy", 1)
        .task(0, Workload::Lookbusy.program(0, 1, None))
        .pin(0, vec![PcpuId(0)]);
    (cfg, vec![vm1, vm2])
}

/// The solo iPerf bound: a single-vCPU VM running only the iPerf server.
pub fn iperf_solo(tcp: bool) -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig::paper_testbed();
    let flow = if tcp {
        FlowCfg::tcp_1g(0, 0)
    } else {
        FlowCfg::udp_1g(0, 0)
    };
    let vm1 = VmSpec::new("iperf", 1)
        .task(0, Workload::IperfServer.program(0, 1, None))
        .flow(flow);
    (cfg, vec![vm1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use guest::segment::Segment;
    use simcore::rng::SimRng;

    #[test]
    fn solo_and_corun_shapes() {
        let (cfg, specs) = solo(Workload::Gmake);
        assert_eq!(cfg.num_pcpus, 12);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].num_vcpus, 12);
        assert_eq!(specs[0].tasks.len(), 12);

        let (_, specs) = corun(Workload::Dedup);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "dedup");
        assert_eq!(specs[1].name, "swaptions");
    }

    #[test]
    fn mixed_corun_places_iperf_on_vcpu0() {
        let (_, specs) = mixed_iperf_corun();
        let target = &specs[0];
        assert_eq!(target.tasks.len(), 13);
        assert_eq!(target.tasks[12].home_vcpu, 0);
        assert_eq!(target.flows.len(), 1);
        assert_eq!(target.flows[0].target_task, 12);
        assert_eq!(target.flows[0].virq_vcpu, 0);
    }

    /// `None` is endless all the way down: a window-mode scenario file's
    /// `endless = true` swaptions VM and the mixed co-run's target-VM
    /// swaptions threads both run past swaptions' default budget.
    #[test]
    fn endless_swaptions_outlive_their_default_budget() {
        let file = crate::scenario_file::parse_str(
            "endless",
            r#"
[run]
mode = "window"

[[vm]]
vcpus = 2
workload = "swaptions"
endless = true
"#,
        )
        .unwrap();
        file.validate().unwrap();
        let budget = Workload::Swaptions.default_iters().unwrap();
        let mut rng = SimRng::new(5);
        for (input, (_, specs)) in [
            ("endless = true", file.to_parts()),
            ("mixed_iperf_corun", mixed_iperf_corun()),
        ] {
            let mut tasks = specs.into_iter().next().unwrap().tasks;
            tasks.retain(|t| t.program.name() == "swaptions");
            assert!(!tasks.is_empty(), "{input}: no swaptions threads");
            for task in &mut tasks {
                let mut iterations = 0;
                while iterations <= budget {
                    match task.program.next_segment(&mut rng) {
                        Segment::End => panic!("{input}: ended after {iterations} iterations"),
                        Segment::WorkUnit => iterations += 1,
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn fig9_pins_both_vms_to_pcpu0() {
        let (_, specs) = fig9_mixed_pinned(true);
        assert_eq!(specs.len(), 2);
        for s in &specs {
            assert_eq!(s.num_vcpus, 1);
            assert_eq!(s.pins, vec![(0, vec![PcpuId(0)])]);
        }
        assert_eq!(specs[0].tasks.len(), 2);
        let (_, specs_udp) = fig9_mixed_pinned(false);
        assert!(matches!(
            specs_udp[0].flows[0].kind,
            guest::net::FlowKind::Udp { .. }
        ));
    }

    #[test]
    fn iperf_solo_shape() {
        let (_, specs) = iperf_solo(true);
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].tasks.len(), 1);
        assert_eq!(specs[0].flows.len(), 1);
    }
}
