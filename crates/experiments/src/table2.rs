//! Table 2: yield counts of workloads run solo and co-run with swaptions.
//!
//! The paper measures total yields over full benchmark runs; we count
//! yields of the target VM over a fixed measurement window in both
//! configurations. The reproduction target is the *shape*: co-run yields
//! exceed solo yields by orders of magnitude.

use crate::runner::{fail_row, run_cells, run_window, CellError, PolicyKind, RunOptions};
use hypervisor::{MachineConfig, VmSpec};
use metrics::render::Table;
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// The Table 2 workload set.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Exim,
    Workload::Gmake,
    Workload::Dedup,
    Workload::Vips,
];

/// Measured yield counts for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The workload.
    pub workload: Workload,
    /// Yields of the target VM in the solo run.
    pub solo: u64,
    /// Yields of the target VM in the co-run.
    pub corun: u64,
}

/// The solo run of `w`, or its co-run with swaptions. Table 2 counts
/// yields over a fixed window, not completion times, but every VM runs
/// its default budget: at the full budget, solo gmake, dedup and vips
/// finish inside the 4 s window, and co-run gmake too (ROADMAP item 1).
pub fn scenario(w: Workload, corun: bool) -> (MachineConfig, Vec<VmSpec>) {
    if corun {
        scenarios::corun(w)
    } else {
        scenarios::solo(w)
    }
}

/// Runs the measurement and returns the raw rows. The workload ×
/// {solo, co-run} grid fans out across `opts.jobs` workers; each run
/// returns only the target VM's yield count, so nothing heavyweight
/// crosses threads.
pub fn measure(opts: &RunOptions) -> Vec<Result<Row, CellError>> {
    let window = opts.window(SimDuration::from_secs(4));
    let yields = run_cells(
        opts,
        WORKLOADS.len() * 2,
        |i| {
            format!(
                "table2[{} {}, seed {:#x}]",
                WORKLOADS[i / 2].name(),
                if i % 2 == 0 { "solo" } else { "corun" },
                opts.seed
            )
        },
        // `compare` re-runs this grid; the checkpoint store serves its
        // baseline windows.
        |i| {
            let scenario = scenario(WORKLOADS[i / 2], i % 2 == 1);
            let m = run_window(opts, scenario, PolicyKind::Baseline, window)?;
            Ok(m.stats.vm(VmId(0)).yields.total())
        },
    );
    WORKLOADS
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            Ok(Row {
                workload: w,
                solo: yields[wi * 2].clone()?,
                corun: yields[wi * 2 + 1].clone()?,
            })
        })
        .collect()
}

/// Renders Table 2. Failed rows render as `ERR`.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let rows = measure(opts);
    let mut t = Table::new(vec!["workload", "solo", "co-run", "ratio"])
        .with_title("Table 2: number of yields, solo vs co-run (w/ swaptions)");
    for (wi, r) in rows.into_iter().enumerate() {
        match r {
            Ok(r) => {
                let ratio = if r.solo == 0 {
                    f64::INFINITY
                } else {
                    r.corun as f64 / r.solo as f64
                };
                t.row(vec![
                    r.workload.name().to_string(),
                    r.solo.to_string(),
                    r.corun.to_string(),
                    format!("{ratio:.0}x"),
                ]);
            }
            Err(e) => t.row(fail_row(WORKLOADS[wi].name().to_string(), 3, &e.failure)),
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corun_yields_dwarf_solo_yields() {
        let rows: Vec<Row> = measure(&RunOptions::quick())
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(rows.len(), 4);
        // Full-budget runs show 19x–50000x (see EXPERIMENTS.md); the quick
        // budget has few scheduling rounds, so guard a conservative 3x.
        for r in &rows {
            assert!(
                r.corun > r.solo.max(1) * 3,
                "{}: co-run {} not ≫ solo {}",
                r.workload.name(),
                r.corun,
                r.solo
            );
        }
    }
}
