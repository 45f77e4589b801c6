//! Guest-transparent detection, demonstrated.
//!
//! ```text
//! cargo run --release --example symbol_detective
//! ```
//!
//! Runs a consolidated lock-heavy workload, periodically "freezes" the
//! machine, and does exactly what the paper's hypervisor does on every
//! yield (§4.1): read each vCPU's instruction pointer, resolve it through
//! the guest's `System.map`, and classify it against the Table 3
//! whitelist — no guest cooperation involved. Afterwards it prints the
//! yield-site census (the data behind Table 3).

use hypervisor::{BaselinePolicy, Machine};
use ksym::Sym;
use microslice::DetectionEngine;
use simcore::ids::VmId;
use simcore::time::SimTime;
use workloads::{scenarios, Workload};

fn main() {
    let (cfg, specs) = scenarios::corun(Workload::Gmake);
    let mut machine = Machine::new(cfg, specs, Box::new(BaselinePolicy));
    let engine = DetectionEngine::new();

    println!("Sampling vCPU instruction pointers of the gmake VM:\n");
    for sample in 1..=5u64 {
        machine
            .run_until(SimTime::from_millis(sample * 100))
            .unwrap();
        println!("t = {} ms", sample * 100);
        for vcpu in machine.siblings(VmId(0)) {
            let ip = machine.vcpu_ip(vcpu);
            let symbol = machine
                .kernel_map()
                .table()
                .resolve(ip)
                .map(Sym::name)
                .unwrap_or("<user space>");
            let class = engine.classify(&machine, vcpu);
            let state = if machine.vcpu(vcpu).is_running() {
                "running"
            } else if machine.vcpu(vcpu).is_preempted() {
                "PREEMPTED"
            } else {
                "blocked"
            };
            println!("  {vcpu}  ip={ip:#018x}  {symbol:<34} {class:?} ({state})");
        }
        let holders = engine.preempted_critical_siblings(&machine, VmId(0));
        if !holders.is_empty() {
            println!("  -> preempted lock holders the policy would accelerate: {holders:?}");
        }
        println!();
    }

    println!("Yield-site census so far (Table 3 analysis):");
    for (site, class, count) in machine.stats.yield_sites.ranked() {
        println!("  {count:>8}  {site:<34} {class:?}");
    }
}
