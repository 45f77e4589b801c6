//! Quickstart: consolidate two VMs, compare vanilla Xen scheduling with
//! flexible micro-sliced cores.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's testbed (12 pCPUs), boots a lock-hungry `gmake` VM
//! consolidated 2:1 with a CPU-bound `swaptions` VM, and runs it twice:
//! once under the baseline credit scheduler and once with one
//! micro-sliced core accelerating preempted critical OS services.

use hypervisor::policy::SchedPolicy;
use hypervisor::{BaselinePolicy, Machine};
use microslice::MicroslicePolicy;
use simcore::ids::VmId;
use simcore::time::SimTime;
use workloads::{scenarios, Workload};

fn run(policy: Box<dyn SchedPolicy>, label: &str) -> f64 {
    // A 12-vCPU gmake VM plus a 12-vCPU swaptions VM on 12 pCPUs — the
    // paper's co-run configuration (§6.1).
    let (cfg, mut specs) = scenarios::corun(Workload::Gmake);
    specs[0] = scenarios::vm(Workload::Gmake, cfg.num_pcpus, Some(6_000));
    let mut machine = Machine::new(cfg, specs, policy);
    let finished = machine
        .run_until_vm_finished(VmId(0), SimTime::from_secs(120))
        .expect("simulation stays healthy")
        .expect("gmake finishes");
    let secs = finished.as_secs_f64();

    let gmake = machine.stats.vm(VmId(0));
    println!("--- {label} ---");
    println!("gmake execution time : {secs:.2} s");
    println!(
        "gmake yields         : {} PLE, {} IPI, {} halt",
        gmake.yields.spinlock, gmake.yields.ipi, gmake.yields.halt
    );
    println!(
        "lock wait (page alloc): mean {}, max {}",
        machine
            .vm(VmId(0))
            .kernel
            .lock_wait_of(guest::kernel::LockKind::PageAlloc)
            .mean(),
        machine
            .vm(VmId(0))
            .kernel
            .lock_wait_of(guest::kernel::LockKind::PageAlloc)
            .max(),
    );
    println!(
        "micro-pool migrations: {}",
        machine.stats.counters.get("micro_migrations")
    );
    println!();
    secs
}

fn main() {
    println!("Flexible micro-sliced cores — quickstart\n");
    let baseline = run(Box::new(BaselinePolicy), "baseline (vanilla Xen credit)");
    let accelerated = run(
        Box::new(MicroslicePolicy::fixed(1)),
        "one micro-sliced core (0.1 ms slices)",
    );
    println!(
        "=> micro-slicing changed gmake's execution time by {:+.1}% ({:.2}x speedup)",
        (accelerated / baseline - 1.0) * 100.0,
        baseline / accelerated
    );
}
