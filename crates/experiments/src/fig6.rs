//! Figure 6: static-best micro-sliced cores vs the dynamic controller.
//!
//! For each of the six pairs, three configurations run: baseline, the
//! best static core count, and Algorithm 1. The reproduction target:
//! dynamic tracks static-best closely and both beat the baseline.

use crate::runner::{fail_row, run_cells, CellError, CellResult, Grid, PolicyKind, RunOptions};
use metrics::render::Table;
use workloads::Workload;

/// Best static micro-core count per pair, as measured by our own Figure
/// 4/5 sweeps (matching the paper: one core for the lock-bound pairs,
/// three for the TLB-bound ones).
pub fn static_best(w: Workload) -> usize {
    match w {
        Workload::Dedup | Workload::Vips => 3,
        _ => 1,
    }
}

/// The six Figure 6 pairs.
pub const WORKLOADS: [Workload; 6] = [
    Workload::Gmake,
    Workload::Memclone,
    Workload::Dedup,
    Workload::Vips,
    Workload::Exim,
    Workload::Psearchy,
];

/// Result of one configuration of one pair. For execution-time workloads
/// `metric` is the VM-0 execution time in seconds (lower is better); for
/// throughput workloads it is units/s (higher is better).
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Configuration.
    pub policy: PolicyKind,
    /// The target metric (see above).
    pub metric: f64,
    /// Swaptions work rate, units/s.
    pub corunner_rate: f64,
}

/// Runs one pair under one policy. `exec` and `tput` are the shared-
/// prefix plans for the execution-time (Figure 4 style) and throughput
/// (Figure 5 style) halves — built with [`crate::fig4::WARM`] and
/// [`crate::fig5::WARM`] respectively (see [`grids`]).
pub fn run_one(
    opts: &RunOptions,
    exec: &Grid,
    tput: &Grid,
    w: Workload,
    policy: PolicyKind,
) -> CellResult<Cell> {
    if w.is_throughput() {
        let c = crate::fig5::run_one(opts, tput, w, policy)?;
        Ok(Cell {
            policy,
            metric: c.throughput,
            corunner_rate: c.corunner_rate,
        })
    } else {
        let c = crate::fig4::run_one(opts, exec, w, policy)?;
        Ok(Cell {
            policy,
            metric: c.target_secs,
            corunner_rate: c.corunner_rate,
        })
    }
}

/// The pair of shared-prefix plans Figure 6 cells fork from.
pub fn grids(opts: &RunOptions) -> (Grid, Grid) {
    (
        Grid::new(opts, crate::fig4::WARM),
        Grid::new(opts, crate::fig5::WARM),
    )
}

fn grid_policy(w: Workload, slot: usize) -> PolicyKind {
    match slot {
        0 => PolicyKind::Baseline,
        1 => PolicyKind::Fixed(static_best(w)),
        _ => PolicyKind::Adaptive,
    }
}

/// Runs baseline / static-best / dynamic for every pair, fanning the
/// 6 × 3 grid across `opts.jobs` workers. Failed cells come back as
/// labelled errors.
pub fn measure(opts: &RunOptions) -> Vec<(Workload, [Result<Cell, CellError>; 3])> {
    let (exec, tput) = grids(opts);
    let mut grid = run_cells(
        opts,
        WORKLOADS.len() * 3,
        |i| {
            let w = WORKLOADS[i / 3];
            format!(
                "fig6[{} x {}, seed {:#x}]",
                w.name(),
                grid_policy(w, i % 3).label(),
                opts.seed
            )
        },
        |opts, i| {
            let w = WORKLOADS[i / 3];
            run_one(opts, &exec, &tput, w, grid_policy(w, i % 3))
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

/// Renders Figure 6. Metrics are normalized to baseline: execution times
/// as time ratios (lower is better), throughputs as improvements (higher
/// is better). A pair with any failed cell renders as an `ERR` row.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec![
        "pair",
        "metric",
        "baseline",
        "static(best)",
        "dynamic",
        "swapt static (norm)",
        "swapt dyn (norm)",
    ])
    .with_title("Figure 6: static best vs dynamic micro-sliced cores");
    for (w, cells) in measure(opts) {
        let [Ok(b), Ok(s), Ok(d)] = &cells else {
            let e = cells
                .iter()
                .find_map(|c| c.as_ref().err())
                .expect("the else branch implies a failed cell");
            t.row(fail_row(format!("{} + swaptions", w.name()), 6, &e.failure));
            continue;
        };
        let base = b.metric;
        let norm = |c: &Cell| {
            if w.is_throughput() {
                format!("{:.2}x", c.metric / base)
            } else {
                format!("{:.3}", c.metric / base)
            }
        };
        t.row(vec![
            format!("{} + swaptions", w.name()),
            if w.is_throughput() {
                "tput impr.".into()
            } else {
                "norm. time".into()
            },
            norm(b),
            norm(s),
            norm(d),
            format!("{:.3}", b.corunner_rate / s.corunner_rate),
            format!("{:.3}", b.corunner_rate / d.corunner_rate),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dynamic must land in the same direction as static-best for the
    /// IPI-bound pair (quick budget; full fidelity in the bench run).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn dynamic_tracks_static_best_for_dedup() {
        let opts = RunOptions::quick();
        let (exec, tput) = grids(&opts);
        let base = run_one(&opts, &exec, &tput, Workload::Dedup, PolicyKind::Baseline).unwrap();
        let stat = run_one(&opts, &exec, &tput, Workload::Dedup, PolicyKind::Fixed(3)).unwrap();
        let dynm = run_one(&opts, &exec, &tput, Workload::Dedup, PolicyKind::Adaptive).unwrap();
        assert!(stat.metric < base.metric * 0.7, "static must beat baseline");
        assert!(
            dynm.metric < base.metric * 0.8,
            "dynamic ({}) should track static-best, baseline {}",
            dynm.metric,
            base.metric
        );
    }

    #[test]
    fn static_best_matches_paper_shape() {
        assert_eq!(static_best(Workload::Gmake), 1);
        assert_eq!(static_best(Workload::Exim), 1);
        assert_eq!(static_best(Workload::Dedup), 3);
        assert_eq!(static_best(Workload::Vips), 3);
    }
}
