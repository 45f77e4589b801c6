//! The paper's headline result shapes, asserted end-to-end on the quick
//! budget. The full-budget reproduction lives in the bench harness and
//! `EXPERIMENTS.md`; these tests guard the directions.

use experiments::runner::{Grid, PolicyKind, RunOptions};
use experiments::{fig4, fig5, fig9, table4};
use workloads::Workload;

fn opts() -> RunOptions {
    RunOptions::quick()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn lock_bound_pair_improves_with_one_micro_core() {
    // memclone (Figure 4, left half): a single micro-sliced core must
    // shorten the target's execution time substantially. (gmake shows
    // the direction only at the full budget.)
    let o = opts();
    let grid = Grid::new(&o, fig4::WARM);
    let base = fig4::run_one(&o, &grid, Workload::Memclone, PolicyKind::Baseline).unwrap();
    let one = fig4::run_one(&o, &grid, Workload::Memclone, PolicyKind::Fixed(1)).unwrap();
    assert!(
        one.target_secs < base.target_secs * 0.7,
        "memclone: {} vs baseline {}",
        one.target_secs,
        base.target_secs
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn tlb_bound_pairs_prefer_multiple_micro_cores() {
    // dedup (Figure 4, right half): the one-to-many TLB synchronization
    // wants 2–3 micro cores; more cores must not beat the 2–3 sweet spot
    // by much, and 6 cores must be clearly worse than the best.
    let cells = fig4::sweep(&opts(), Workload::Dedup);
    let t = |i: usize| cells[i].as_ref().unwrap().target_secs;
    let best = (1..=6).map(t).fold(f64::INFINITY, f64::min);
    assert!(best < t(0) * 0.8, "micro-slicing should help dedup");
    let best23 = t(2).min(t(3));
    assert!(
        best23 <= best * 1.35,
        "2-3 cores ({best23}) should be near the sweet spot ({best})"
    );
    assert!(
        t(6) > best * 1.1,
        "six cores ({}) should erode the gains vs best ({best})",
        t(6)
    );
}

#[test]
fn exim_throughput_improves_substantially() {
    let o = opts();
    let grid = Grid::new(&o, fig5::WARM);
    let base = fig5::run_one(&o, &grid, Workload::Exim, PolicyKind::Baseline).unwrap();
    let one = fig5::run_one(&o, &grid, Workload::Exim, PolicyKind::Fixed(1)).unwrap();
    let improvement = one.throughput / base.throughput;
    assert!(
        improvement > 1.12,
        "exim improvement only {improvement:.2}x"
    );
}

#[test]
fn spinlock_waits_collapse_under_acceleration() {
    // Table 4a's co-run waits are the pathology; the policy must remove
    // orders of magnitude from the hot locks' means.
    use experiments::runner::run_window;
    use guest::kernel::LockKind;
    use simcore::ids::VmId;
    use simcore::time::SimDuration;
    use workloads::scenarios;

    let run = |policy: PolicyKind| {
        let scenario = scenarios::corun(Workload::Exim);
        let m = run_window(&opts(), scenario, policy, SimDuration::from_secs(1)).unwrap();
        m.vm(VmId(0))
            .kernel
            .lock_wait_of(LockKind::PageAlloc)
            .mean()
            .as_micros_f64()
    };
    let base = run(PolicyKind::Baseline);
    let fast = run(PolicyKind::Fixed(1));
    assert!(
        fast < base / 3.0,
        "page-allocator wait mean {fast}us vs baseline {base}us"
    );
}

#[test]
fn mixed_vcpu_io_restored_by_microslicing() {
    let o = opts();
    let grid = Grid::new(&o, fig9::WARM);
    let base = fig9::measure_one(&o, &grid, true, PolicyKind::Baseline).unwrap();
    let fast = fig9::measure_one(&o, &grid, true, PolicyKind::Fixed(1)).unwrap();
    assert!(fast.bandwidth_mbps > base.bandwidth_mbps * 1.1);
    assert!(fast.jitter_ms < base.jitter_ms * 0.3);
}

#[test]
fn table4_magnitudes_track_the_paper() {
    // Table 4b: co-run TLB latency in the milliseconds (paper: 6.4 ms for
    // dedup) while solo stays in the microseconds (paper: 28 µs).
    let rows = table4::measure_4b(&opts());
    let (_, _, dedup_solo, _, _) = rows[0].clone().unwrap();
    let (_, _, dedup_corun, _, _) = rows[1].clone().unwrap();
    assert!(dedup_solo < 100.0, "dedup solo avg {dedup_solo}us");
    assert!(
        dedup_corun > 500.0,
        "dedup co-run avg {dedup_corun}us should be ms-scale"
    );
    // Table 4c: solo jitter ~µs, mixed co-run jitter ~ms.
    let rows = table4::measure_4c(&opts());
    let (_, solo_jitter, solo_tput) = rows[0].clone().unwrap();
    let (_, mixed_jitter, mixed_tput) = rows[1].clone().unwrap();
    assert!(solo_jitter < 0.1 && mixed_jitter > 2.0);
    assert!(solo_tput > 900.0, "solo near line rate, got {solo_tput}");
    assert!(mixed_tput < solo_tput * 0.75);
}
