//! Figure 4: normalized execution time vs number of micro-sliced cores.
//!
//! Four execution-time pairs (gmake, memclone, dedup, vips — each co-run
//! with swaptions), swept from the baseline through 1–6 static
//! micro-sliced cores. The reproduction targets: the lock-bound pairs
//! (gmake, memclone) win with a single micro core; the TLB-bound pairs
//! (dedup, vips) *lose* with one core and win with 2–3; beyond that the
//! shrinking normal pool erodes the gains.

use crate::runner::{fail_row, run_cells, CellResult, Grid, PolicyKind, RunOptions};
use hypervisor::{MachineConfig, VmSpec};
use metrics::render::Table;
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// Shared warm-up prefix (full budget): every cell of one workload's
/// sweep simulates `[0, WARM)` under the baseline policy and diverges at
/// the warm point (see [`Grid`]). Short relative to even the fastest
/// cell's completion, so every configuration gets its full effect window.
pub const WARM: SimDuration = SimDuration::from_millis(1500);

/// The Figure 4 target workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload::Gmake,
    Workload::Memclone,
    Workload::Dedup,
    Workload::Vips,
];

/// The swept configurations: baseline plus 1..=6 micro cores.
pub fn configs() -> Vec<PolicyKind> {
    let mut v = vec![PolicyKind::Baseline];
    v.extend((1..=6).map(PolicyKind::Fixed));
    v
}

/// One measured cell of the sweep.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// Configuration.
    pub policy: PolicyKind,
    /// Target VM execution time, seconds.
    pub target_secs: f64,
    /// Co-runner (swaptions) work rate over the target's run since
    /// t = 0, units/s; its normalized execution time is the baseline
    /// rate divided by this rate. The co-runner runs its default budget,
    /// not endlessly: if it finishes before the target, the target runs
    /// alone for the rest and this rate is that budget over the target's
    /// time (ROADMAP item 1).
    pub corunner_rate: f64,
}

/// The execution-time co-run of `w`: [`scenarios::corun`] with the
/// target's default budget scaled by [`RunOptions::iters`]. Figure 8,
/// Table 1's dedup cells and the run-queue ablation time this pair too.
pub fn scenario(opts: &RunOptions, w: Workload) -> (MachineConfig, Vec<VmSpec>) {
    let (cfg, mut specs) = scenarios::corun(w);
    let iters = opts.iters(w.default_iters().expect("exec-time workload"));
    specs[0] = scenarios::vm(w, cfg.num_pcpus, Some(iters));
    (cfg, specs)
}

/// Runs one configuration of one workload to the target's finish,
/// forking the workload's warm checkpoint from `grid`. Figure 6,
/// `compare`, Figure 8 and Table 1 run these completions too, so each is
/// simulated once per invocation (see [`Grid::finish`]).
pub fn run_one(
    opts: &RunOptions,
    grid: &Grid,
    w: Workload,
    policy: PolicyKind,
) -> CellResult<Cell> {
    let m = grid.finish(opts, scenario(opts, w), policy, VmId(0))?;
    let secs = m.finished_secs(VmId(0));
    Ok(Cell {
        policy,
        target_secs: secs,
        corunner_rate: m.end.vm(VmId(1)).work as f64 / secs,
    })
}

/// Cell label for failure reports: names the (scenario, policy, seed).
pub(crate) fn label(opts: &RunOptions, w: Workload, policy: PolicyKind) -> String {
    format!(
        "fig4[{} x {}, seed {:#x}]",
        w.name(),
        policy.label(),
        opts.seed
    )
}

/// Runs the sweep for one workload, fanning the configurations across
/// `opts.jobs` workers (results stay in configuration order).
pub fn sweep(opts: &RunOptions, w: Workload) -> Vec<CellResult<Cell>> {
    let configs = configs();
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

/// Renders Figure 4 (one table per workload pair, times normalized to the
/// baseline like the paper's y-axis). The full workload × configuration
/// grid is flattened into one index space so the fan-out load-balances
/// across both axes. Failed cells render as `ERR` rows (normalized
/// columns degrade to `ERR` if the baseline itself failed).
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let configs = configs();
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
                &format!("{} (norm)", w.name()),
                "swaptions (norm)",
                &format!("{} (s)", w.name()),
                "swaptions (units/s)",
            ])
            .with_title(format!(
                "Figure 4 [{} + swaptions]: normalized execution time vs #micro cores",
                w.name()
            ));
            for (ci, cell) in cells.iter().enumerate() {
                match (cell, base) {
                    (Ok(c), Some(b)) => t.row(vec![
                        c.policy.label(),
                        format!("{:.3}", c.target_secs / b.target_secs),
                        format!("{:.3}", b.corunner_rate / c.corunner_rate),
                        format!("{:.2}", c.target_secs),
                        format!("{:.0}", c.corunner_rate),
                    ]),
                    (Ok(c), None) => t.row(vec![
                        c.policy.label(),
                        "ERR".to_string(),
                        "ERR".to_string(),
                        format!("{:.2}", c.target_secs),
                        format!("{:.0}", c.corunner_rate),
                    ]),
                    (Err(e), _) => t.row(fail_row(configs[ci].label(), 4, &e.failure)),
                }
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline Figure 4 shape for the lock-bound half, on the quick
    /// budget: one micro core must speed memclone up substantially
    /// without destroying the co-runner. (gmake shows the same direction
    /// only at the full budget — its quick run has too few lock-holder
    /// preemptions for a stable assertion.)
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn memclone_wins_with_one_micro_core() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        let base = run_one(&opts, &grid, Workload::Memclone, PolicyKind::Baseline).unwrap();
        let one = run_one(&opts, &grid, Workload::Memclone, PolicyKind::Fixed(1)).unwrap();
        assert!(
            one.target_secs < base.target_secs * 0.7,
            "memclone: 1 core {}s vs baseline {}s",
            one.target_secs,
            base.target_secs
        );
        assert!(
            one.corunner_rate > base.corunner_rate * 0.6,
            "swaptions hurt too much: {} vs {}",
            one.corunner_rate,
            base.corunner_rate
        );
    }

    /// ROADMAP item 1's census at the quick budget: the completions in
    /// which the co-runner (VM 1, swaptions) finished its budget before
    /// the target did, so the target ran alone for the rest of its run
    /// and the cell is not the co-run it claims to be. Item 1's fix gives
    /// the co-runner an endless budget, which empties this list; its
    /// guard is then one check of the same record fields.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn corunner_finishes_first_in_four_quick_cells() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        let mut early = Vec::new();
        for w in WORKLOADS {
            for policy in configs() {
                let m = grid
                    .finish(&opts, scenario(&opts, w), policy, VmId(0))
                    .unwrap();
                let (target, corunner) = (m.end.vm(VmId(0)).finished, m.end.vm(VmId(1)).finished);
                if corunner.is_some_and(|at| Some(at) < target) {
                    early.push((
                        format!("{} x {}", w.name(), policy.label()),
                        corunner,
                        target,
                    ));
                }
            }
        }
        let cells: Vec<&str> = early.iter().map(|(cell, ..)| cell.as_str()).collect();
        assert_eq!(
            cells,
            [
                "memclone x 6",
                "dedup x baseline",
                "vips x baseline",
                "vips x 6"
            ],
            "(cell, co-runner finish, target finish): {early:?}"
        );
    }
}
