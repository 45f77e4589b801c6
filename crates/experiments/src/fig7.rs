//! Figure 7: decomposition of yield events by source, for the baseline
//! (B), static-best (S), and dynamic (D) configurations.
//!
//! The reproduction target: micro-sliced cores collapse the dominant
//! yield class of each pair (PLE for the lock-bound pairs, IPI waits for
//! the TLB-bound ones), and the halt share shrinks as the VMs regain
//! utilization.

use crate::runner::{fail_row, run_cells, CellError, CellResult, Grid, PolicyKind, RunOptions};
use hypervisor::stats::YieldBreakdown;
use hypervisor::{MachineConfig, VmSpec};
use metrics::render::Table;
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// The Figure 7 pairs (same as Figure 6).
pub const WORKLOADS: [Workload; 6] = crate::fig6::WORKLOADS;

/// Shared warm-up prefix (full budget). Yield counts are deltas over the
/// post-warm window, so the prefix shifts no breakdown.
pub const WARM: SimDuration = SimDuration::from_secs(4);

/// The co-run of `w` with swaptions, measured over the same fixed
/// window under B, S and D. Both VMs run their default budgets, not
/// endlessly (ROADMAP item 1).
pub fn scenario(w: Workload) -> (MachineConfig, Vec<VmSpec>) {
    scenarios::corun(w)
}

/// Measures the target VM's yield breakdown under one policy, over a
/// fixed post-warm window. The cell forks `grid`'s warm checkpoint and
/// counts only yields after the divergence point; Table 1 and the
/// ablations measure the exim windows too, so each is simulated once per
/// invocation (see [`Grid::window`]).
pub fn measure_one(
    opts: &RunOptions,
    grid: &Grid,
    w: Workload,
    policy: PolicyKind,
) -> CellResult<YieldBreakdown> {
    let window = opts.window(SimDuration::from_secs(3));
    Ok(grid
        .window(opts, scenario(w), policy, window)?
        .yields(VmId(0)))
}

fn grid_policy(w: Workload, slot: usize) -> PolicyKind {
    match slot {
        0 => PolicyKind::Baseline,
        1 => PolicyKind::Fixed(crate::fig6::static_best(w)),
        _ => PolicyKind::Adaptive,
    }
}

/// Runs B/S/D for every pair, fanning the 6 × 3 grid across
/// `opts.jobs` workers.
pub fn measure(opts: &RunOptions) -> Vec<(Workload, [Result<YieldBreakdown, CellError>; 3])> {
    let plan = Grid::new(opts, WARM);
    let mut grid = run_cells(
        opts,
        WORKLOADS.len() * 3,
        |i| {
            let w = WORKLOADS[i / 3];
            format!(
                "fig7[{} x {}, seed {:#x}]",
                w.name(),
                grid_policy(w, i % 3).label(),
                opts.seed
            )
        },
        |opts, i| {
            let w = WORKLOADS[i / 3];
            measure_one(opts, &plan, w, grid_policy(w, i % 3))
        },
    )
    .into_iter();
    WORKLOADS
        .iter()
        .map(|&w| {
            let mut next = || grid.next().expect("grid sized to 3 per workload");
            (w, [next(), next(), next()])
        })
        .collect()
}

/// Renders Figure 7 (stacked-bar data as rows). Failed configurations
/// render as `ERR` rows; the `vs B` column degrades to `ERR` when the
/// baseline itself failed.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec![
        "pair", "config", "ipi", "spinlock", "halt", "others", "total", "vs B",
    ])
    .with_title("Figure 7: yield events by source (B: baseline, S: static, D: dynamic)");
    for (w, breakdowns) in measure(opts) {
        let base_total = breakdowns[0].as_ref().ok().map(|b| b.total().max(1));
        for (label, b) in ["B", "S", "D"].iter().zip(&breakdowns) {
            match b {
                Ok(b) => t.row(vec![
                    format!("{}", w.name()),
                    label.to_string(),
                    b.ipi.to_string(),
                    b.spinlock.to_string(),
                    b.halt.to_string(),
                    b.other.to_string(),
                    b.total().to_string(),
                    match base_total {
                        Some(base) => format!("{:.2}", b.total() as f64 / base as f64),
                        None => "ERR".to_string(),
                    },
                ]),
                Err(e) => {
                    let mut row = fail_row(w.name().to_string(), 7, &e.failure);
                    row[1] = label.to_string();
                    t.row(row);
                }
            }
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microslicing_collapses_dominant_yield_class() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        // Lock-bound pair: PLE yields dominate the baseline and shrink
        // under the static configuration.
        let base = measure_one(&opts, &grid, Workload::Gmake, PolicyKind::Baseline).unwrap();
        let stat = measure_one(&opts, &grid, Workload::Gmake, PolicyKind::Fixed(1)).unwrap();
        assert!(
            base.spinlock > base.ipi,
            "gmake baseline should be PLE-dominated: {base:?}"
        );
        assert!(
            stat.spinlock < base.spinlock / 2,
            "static should collapse PLE yields: {} vs {}",
            stat.spinlock,
            base.spinlock
        );
        // TLB-bound pair: IPI yields dominate the baseline.
        let dbase = measure_one(&opts, &grid, Workload::Dedup, PolicyKind::Baseline).unwrap();
        assert!(
            dbase.ipi > dbase.spinlock,
            "dedup baseline should be IPI-dominated: {dbase:?}"
        );
        let dstat = measure_one(&opts, &grid, Workload::Dedup, PolicyKind::Fixed(3)).unwrap();
        assert!(
            dstat.ipi < dbase.ipi,
            "static should reduce IPI yields: {} vs {}",
            dstat.ipi,
            dbase.ipi
        );
    }
}
