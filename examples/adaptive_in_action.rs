//! Watch Algorithm 1 size the micro pool at runtime.
//!
//! ```text
//! cargo run --release --example adaptive_in_action
//! ```
//!
//! Runs a phase-changing workload: a dedup VM (IPI-dominant) co-runs with
//! swaptions for two simulated seconds, then dedup finishes and only pure
//! compute remains. The trace shows the controller reserving cores while
//! TLB-shootdown storms rage and releasing them once the system calms
//! down — the "flexible" in flexible micro-sliced cores (§4.3).

use hypervisor::Machine;
use microslice::{AdaptiveConfig, MicroslicePolicy};
use simcore::ids::VmId;
use simcore::time::SimTime;
use workloads::{scenarios, Workload};

fn main() {
    let (cfg, mut specs) = scenarios::corun(Workload::Dedup);
    specs[0] = scenarios::vm(Workload::Dedup, cfg.num_pcpus, Some(2_000));
    let mut machine = Machine::new(
        cfg,
        specs,
        Box::new(MicroslicePolicy::adaptive(AdaptiveConfig::default())),
    );

    println!("t (ms)  micro-cores  dedup-work  ipi-yields  ple-exits  migrations");
    let mut last_work = 0;
    for step in 1..=40u64 {
        machine.run_until(SimTime::from_millis(step * 150)).unwrap();
        let work = machine.vm_work_done(VmId(0));
        println!(
            "{:>6}  {:>11}  {:>10}  {:>10}  {:>9}  {:>10}",
            step * 150,
            machine.micro_cores(),
            work - last_work,
            machine.stats.counters.get("ipi_yields"),
            machine.stats.counters.get("ple_exits"),
            machine.stats.counters.get("micro_migrations"),
        );
        last_work = work;
        if machine.vm_finished_at(VmId(0)).is_some() && step * 150 > 3_000 {
            break;
        }
    }
    match machine.vm_finished_at(VmId(0)) {
        Some(t) => println!("\ndedup finished at {t}"),
        None => println!("\ndedup still running at the end of the trace"),
    }
    println!(
        "final micro-pool size: {} (should settle back toward 0 once calm)",
        machine.micro_cores()
    );
}
