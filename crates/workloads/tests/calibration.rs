//! Calibration regression guards.
//!
//! The workload constants in `catalog.rs` were tuned so the paper's
//! pathologies emerge with the right shapes (see `EXPERIMENTS.md`). These
//! tests pin the *solo* behaviour of each model — rates, kernel-time
//! shares, protocol mix — so a future retune cannot silently break the
//! characterization the experiments depend on.

use hypervisor::{BaselinePolicy, Machine};
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use workloads::{scenarios, Workload};

/// Runs a workload solo on the paper testbed for one simulated second.
fn solo_run(w: Workload) -> Machine {
    let (cfg, specs) = scenarios::solo(w);
    let mut m = Machine::new(cfg.with_seed(1234), specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(1)).unwrap();
    m
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn solo_throughput_ranges() {
    // Units per second, solo, 12 vCPUs. Wide bands: these guard against
    // order-of-magnitude drift, not noise.
    let expect: &[(Workload, u64, u64)] = &[
        (Workload::Exim, 60_000, 250_000),
        (Workload::Gmake, 40_000, 160_000),
        (Workload::Psearchy, 40_000, 160_000),
        (Workload::Memclone, 40_000, 150_000),
        (Workload::Dedup, 20_000, 80_000),
        (Workload::Vips, 15_000, 70_000),
    ];
    for &(w, lo, hi) in expect {
        let m = solo_run(w);
        let rate = m.vm_work_done(VmId(0));
        assert!(
            (lo..hi).contains(&rate),
            "{} solo rate {rate} outside [{lo}, {hi})",
            w.name()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn tlb_stressors_actually_shoot_down() {
    for (w, min_rate) in [(Workload::Dedup, 3_000), (Workload::Vips, 1_000)] {
        let m = solo_run(w);
        let shootdowns = m.vm(VmId(0)).kernel.shootdowns.completed;
        assert!(
            shootdowns > min_rate,
            "{}: only {shootdowns} shootdowns/s solo",
            w.name()
        );
    }
    // Lock-bound workloads stay (almost) TLB-free.
    let m = solo_run(Workload::Exim);
    assert_eq!(m.vm(VmId(0)).kernel.shootdowns.completed, 0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn lock_stressors_actually_contend() {
    for w in [Workload::Exim, Workload::Gmake, Workload::Memclone] {
        let m = solo_run(w);
        let total_acquisitions: u64 = m
            .vm(VmId(0))
            .kernel
            .locks
            .iter()
            .map(|l| l.acquisitions)
            .sum();
        let contended: u64 = m.vm(VmId(0)).kernel.locks.iter().map(|l| l.contended).sum();
        assert!(
            total_acquisitions > 50_000,
            "{}: only {total_acquisitions} acquisitions/s",
            w.name()
        );
        let ratio = contended as f64 / total_acquisitions as f64;
        assert!(
            ratio > 0.02,
            "{}: contention ratio {ratio:.4} too low to exhibit LHP",
            w.name()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn compute_workloads_stay_out_of_the_kernel() {
    for w in Workload::figure8_set() {
        let m = solo_run(w);
        let kernel = &m.vm(VmId(0)).kernel;
        assert_eq!(kernel.shootdowns.completed, 0, "{}", w.name());
        let acquisitions: u64 = kernel.locks.iter().map(|l| l.acquisitions).sum();
        assert_eq!(acquisitions, 0, "{} takes locks", w.name());
        // And they still make progress.
        assert!(m.vm_work_done(VmId(0)) > 1_000, "{}", w.name());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn solo_executions_fit_the_experiment_horizon() {
    // Every finite workload must finish its default budget comfortably
    // within the experiment horizon even at a 2:1 consolidation slowdown
    // of ~20x (the worst co-run factor we observe).
    for w in [
        Workload::Gmake,
        Workload::Memclone,
        Workload::Dedup,
        Workload::Vips,
    ] {
        let (cfg, specs) = scenarios::solo(w);
        let mut m = Machine::new(cfg.with_seed(99), specs, Box::new(BaselinePolicy));
        let fin = m
            .run_until_vm_finished(VmId(0), SimTime::from_secs(30))
            .unwrap()
            .unwrap_or_else(|| panic!("{} did not finish solo in 30 s", w.name()));
        assert!(
            fin < SimTime::from_secs(10),
            "{} solo takes {fin}, too long for the co-run horizon",
            w.name()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn solo_kernel_time_shares_match_characterization() {
    // exim is kernel-heavy; swaptions is pure user. Yield profiles show
    // it: exim solo still yields occasionally (locks), swaptions never.
    let exim = solo_run(Workload::Exim);
    let swap = solo_run(Workload::Swaptions);
    assert!(exim.stats.vm(VmId(0)).yields.total() > 100);
    assert_eq!(swap.stats.vm(VmId(0)).yields.spinlock, 0);
    assert_eq!(swap.stats.vm(VmId(0)).yields.ipi, 0);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn iperf_solo_is_near_line_rate() {
    let (cfg, specs) = scenarios::iperf_solo(true);
    let mut m = Machine::new(cfg.with_seed(5), specs, Box::new(BaselinePolicy));
    m.run_until(SimTime::from_secs(1)).unwrap();
    let flow = &m.vm(VmId(0)).kernel.flows[0];
    let mbps = flow.throughput_mbps(m.now());
    assert!(
        (850.0..1000.0).contains(&mbps),
        "solo TCP {mbps} Mbit/s not near line rate"
    );
    assert!(flow.jitter_ms() < 0.1);
    assert_eq!(flow.dropped, 0);
    let _ = SimDuration::ZERO;
}
