//! Figure 8: overhead on workloads that do *not* stress OS services.
//!
//! Seven compute-bound applications co-run with swaptions under the
//! baseline and the dynamic policy. The reproduction target: the dynamic
//! scheme's profiling changes their execution time by only a few percent.

use crate::runner::{fail_row, run_cells, CellError, CellResult, Grid, PolicyKind, RunOptions};
use metrics::render::Table;
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::Workload;

/// Shared warm-up prefix (full budget) per pair; both cells of a pair
/// fork the same snapshot. Kept below the fastest completion at the
/// quick budget (bzip2, ~2.0 s simulated) so every cell still finishes
/// after the divergence point.
pub const WARM: SimDuration = SimDuration::from_secs(6);

/// One measured pair.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The compute workload.
    pub workload: Workload,
    /// Baseline execution time, seconds.
    pub baseline_secs: f64,
    /// Dynamic-policy execution time, seconds.
    pub dynamic_secs: f64,
}

fn exec_one(opts: &RunOptions, grid: &Grid, w: Workload, policy: PolicyKind) -> CellResult<f64> {
    let m = grid.finish(opts, crate::fig4::scenario(opts, w), policy, VmId(0))?;
    Ok(m.finished_secs(VmId(0)))
}

/// Runs the measurement, fanning the workload × policy grid across
/// `opts.jobs` workers. A row whose baseline or dynamic run failed comes
/// back as that cell's error.
pub fn measure(opts: &RunOptions) -> Vec<Result<Row, CellError>> {
    let set = Workload::figure8_set();
    let plan = Grid::new(opts, WARM);
    let grid = run_cells(
        opts,
        set.len() * 2,
        |i| {
            format!(
                "fig8[{} x {}, seed {:#x}]",
                set[i / 2].name(),
                if i % 2 == 0 { "baseline" } else { "dynamic" },
                opts.seed
            )
        },
        |opts, i| {
            let w = set[i / 2];
            let policy = if i % 2 == 0 {
                PolicyKind::Baseline
            } else {
                PolicyKind::Adaptive
            };
            exec_one(opts, &plan, w, policy)
        },
    );
    set.iter()
        .enumerate()
        .map(|(wi, &w)| {
            let baseline_secs = grid[wi * 2].clone()?;
            let dynamic_secs = grid[wi * 2 + 1].clone()?;
            Ok(Row {
                workload: w,
                baseline_secs,
                dynamic_secs,
            })
        })
        .collect()
}

/// Renders Figure 8. Failed rows render as `ERR`.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let set = Workload::figure8_set();
    let mut t = Table::new(vec![
        "workload",
        "baseline (s)",
        "dynamic (s)",
        "normalized",
        "overhead",
    ])
    .with_title("Figure 8: non-affected workloads (co-run w/ swaptions)");
    for (wi, r) in measure(opts).into_iter().enumerate() {
        match r {
            Ok(r) => {
                let norm = r.dynamic_secs / r.baseline_secs;
                t.row(vec![
                    r.workload.name().to_string(),
                    format!("{:.2}", r.baseline_secs),
                    format!("{:.2}", r.dynamic_secs),
                    format!("{norm:.3}"),
                    format!("{:+.1}%", (norm - 1.0) * 100.0),
                ]);
            }
            Err(e) => t.row(fail_row(set[wi].name().to_string(), 4, &e.failure)),
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_on_compute_workloads_is_small() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        // One representative from PARSEC and one from SPEC keeps the test
        // fast; the full set runs in the bench harness.
        for w in [Workload::Blackscholes, Workload::Sjeng] {
            let b = exec_one(&opts, &grid, w, PolicyKind::Baseline).unwrap();
            let d = exec_one(&opts, &grid, w, PolicyKind::Adaptive).unwrap();
            let overhead = (d / b - 1.0) * 100.0;
            assert!(
                overhead.abs() < 8.0,
                "{}: overhead {overhead:.1}% too large ({d}s vs {b}s)",
                w.name()
            );
        }
    }
}
