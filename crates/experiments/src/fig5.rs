//! Figure 5: throughput improvement vs number of micro-sliced cores for
//! exim and psearchy (throughput benchmarks), with the swaptions
//! co-runner's execution time on the second axis.

use crate::runner::{fail_row, run_cells, CellResult, Grid, PolicyKind, RunOptions};
use metrics::render::Table;
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// Shared warm-up prefix (full budget) before the measurement window.
/// Rates are measured over the post-warm window only, so the warm length
/// shifts no ratio — it just gets simulated once per sweep instead of
/// once per cell (see [`Grid`]).
pub const WARM: SimDuration = SimDuration::from_secs(8);

/// The Figure 5 workloads.
pub const WORKLOADS: [Workload; 2] = [Workload::Exim, Workload::Psearchy];

/// One measured cell.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Configuration.
    pub policy: PolicyKind,
    /// Target VM throughput, work units per second.
    pub throughput: f64,
    /// Swaptions work rate, units/s (normalized execution time is the
    /// baseline rate over this rate). The co-runner runs its default
    /// budget, not endlessly: at the full budget it finishes before the
    /// window opens, so this rate is 0 (ROADMAP item 1).
    pub corunner_rate: f64,
}

/// Runs one configuration of `w`'s [`scenarios::corun`] over the
/// measurement window, forking the workload's warm checkpoint from
/// `grid`. Rates count only work done
/// inside the post-warm window: the shared prefix runs under the baseline
/// policy and is excluded from every cell's measurement alike. Figure 6
/// and `compare` show these cells too, so each window is simulated once
/// per invocation (see [`Grid::window`]).
pub fn run_one(
    opts: &RunOptions,
    grid: &Grid,
    w: Workload,
    policy: PolicyKind,
) -> CellResult<Cell> {
    let window = opts.window(SimDuration::from_secs(4));
    let m = grid.window(opts, scenarios::corun(w), policy, window)?;
    Ok(Cell {
        policy,
        throughput: m.rate(VmId(0)),
        corunner_rate: m.rate(VmId(1)),
    })
}

fn label(opts: &RunOptions, w: Workload, policy: PolicyKind) -> String {
    format!(
        "fig5[{} x {}, seed {:#x}]",
        w.name(),
        policy.label(),
        opts.seed
    )
}

/// Runs the full sweep for one workload, fanned across `opts.jobs`
/// workers in configuration order.
pub fn sweep(opts: &RunOptions, w: Workload) -> Vec<CellResult<Cell>> {
    let configs = crate::fig4::configs();
    let grid = Grid::new(opts, WARM);
    run_cells(
        opts,
        configs.len(),
        |i| label(opts, w, configs[i]),
        |opts, i| run_one(opts, &grid, w, configs[i]),
    )
    .into_iter()
    .map(|r| r.map_err(|e| e.failure))
    .collect()
}

/// Renders Figure 5, flattening the workload × configuration grid into
/// one fan-out index space. Failed cells render as `ERR` rows.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let configs = crate::fig4::configs();
    let plan = Grid::new(opts, WARM);
    let grid = run_cells(
        opts,
        WORKLOADS.len() * configs.len(),
        |i| {
            label(
                opts,
                WORKLOADS[i / configs.len()],
                configs[i % configs.len()],
            )
        },
        |opts, i| {
            run_one(
                opts,
                &plan,
                WORKLOADS[i / configs.len()],
                configs[i % configs.len()],
            )
        },
    );
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            let cells = &grid[wi * configs.len()..(wi + 1) * configs.len()];
            let base = cells[0].as_ref().ok();
            let mut t = Table::new(vec![
                "config",
                "throughput improvement",
                "swaptions (norm)",
                "throughput (units/s)",
            ])
            .with_title(format!(
                "Figure 5 [{} + swaptions]: throughput vs #micro cores",
                w.name()
            ));
            for (ci, cell) in cells.iter().enumerate() {
                match (cell, base) {
                    (Ok(c), Some(b)) => t.row(vec![
                        c.policy.label(),
                        format!("{:.2}x", c.throughput / b.throughput),
                        format!("{:.3}", b.corunner_rate / c.corunner_rate),
                        format!("{:.0}", c.throughput),
                    ]),
                    (Ok(c), None) => t.row(vec![
                        c.policy.label(),
                        "ERR".to_string(),
                        "ERR".to_string(),
                        format!("{:.0}", c.throughput),
                    ]),
                    (Err(e), _) => t.row(fail_row(configs[ci].label(), 3, &e.failure)),
                }
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline result: one micro-sliced core multiplies exim's
    /// throughput (4.56× in the paper) at a modest swaptions cost.
    #[test]
    fn exim_throughput_multiplies_with_one_core() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        let base = run_one(&opts, &grid, Workload::Exim, PolicyKind::Baseline).unwrap();
        let one = run_one(&opts, &grid, Workload::Exim, PolicyKind::Fixed(1)).unwrap();
        let improvement = one.throughput / base.throughput;
        assert!(
            improvement > 1.12,
            "exim improvement only {improvement:.2}x"
        );
        assert!(
            one.corunner_rate > base.corunner_rate * 0.55,
            "swaptions degraded too much: {} vs {}",
            one.corunner_rate,
            base.corunner_rate
        );
    }
}
