//! Ablation studies for the design choices the paper argues for.
//!
//! Each ablation disables or varies one mechanism and re-runs the
//! lock-bound (exim) and TLB-bound (dedup) pairs:
//!
//! - **micro-slice length** — §4's 0.1 ms choice vs 50 µs…1 ms;
//! - **run-queue cap** — §5 caps micro-pool queues at one vCPU;
//! - **whitelist off** — detection disabled: pool reserved but never
//!   used (isolates reservation cost from acceleration benefit);
//! - **fixed-µsliced** — the `[2]`-style alternative: *every* core gets a
//!   0.1 ms slice (no precise selection), which the paper's Table 1
//!   criticizes for hurting cache-sensitive user work.

use crate::runner::{fail_row, fail_text, run_cells, CellPolicy, Grid, PolicyKind, RunOptions};
use hypervisor::{MachineConfig, VmSpec};
use metrics::render::Table;
use microslice::{DetectionEngine, MicroslicePolicy};
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// Shared warm-up prefix (full budget) for the ablations whose cells
/// share a machine config (detection on/off, fixed-µsliced). Both
/// measure post-warm work deltas, so the prefix shifts no rate. The
/// slice and run-queue sweeps mutate the config per cell, so their
/// grids have no warm-up: each cell runs its policy from t = 0.
pub const WARM: SimDuration = SimDuration::from_secs(4);

/// The exim co-run on the stock testbed, with `mutate` applied to its
/// configuration.
fn exim_corun(mutate: impl FnOnce(&mut MachineConfig)) -> (MachineConfig, Vec<VmSpec>) {
    let (mut cfg, specs) = scenarios::corun(Workload::Exim);
    mutate(&mut cfg);
    (cfg, specs)
}

/// Micro-slice length sweep (50 µs – 1 ms) on the exim pair.
pub fn run_slice_sweep(opts: &RunOptions) -> Vec<Table> {
    const SLICES_US: [u64; 5] = [50, 100, 200, 500, 1_000];
    let window = opts.window(SimDuration::from_secs(3));
    let grid = Grid::new(opts, SimDuration::ZERO);
    let rates = run_cells(
        opts,
        SLICES_US.len(),
        |i| format!("ablation-slice[{}us, seed {:#x}]", SLICES_US[i], opts.seed),
        |opts, i| {
            let scenario =
                exim_corun(|cfg| cfg.micro_slice = SimDuration::from_micros(SLICES_US[i]));
            let m = grid.window(opts, scenario, PolicyKind::Fixed(1), window)?;
            Ok(m.rate(VmId(0)))
        },
    );
    let hundred = &rates[1];
    let mut t = Table::new(vec!["micro slice", "exim units/s", "vs 100us"])
        .with_title("Ablation: micro-slice length (exim + swaptions, 1 micro core)");
    for (us, rate) in SLICES_US.iter().zip(&rates) {
        match (rate, hundred) {
            (Ok(rate), Ok(hundred)) => t.row(vec![
                format!("{us} us"),
                format!("{rate:.0}"),
                format!("{:.2}", rate / hundred),
            ]),
            (Ok(rate), Err(hundred)) => t.row(vec![
                format!("{us} us"),
                format!("{rate:.0}"),
                fail_text(&hundred.failure).to_string(),
            ]),
            (Err(e), _) => t.row(fail_row(format!("{us} us"), 2, &e.failure)),
        }
    }
    vec![t]
}

/// Run-queue cap ablation on the dedup pair (cap 1 vs unbounded-ish).
pub fn run_runq_cap(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec!["micro runq cap", "dedup exec (s)"])
        .with_title("Ablation: micro-pool run-queue cap (dedup + swaptions, 3 micro cores)");
    const CAPS: [usize; 4] = [1, 2, 4, 16];
    let grid = Grid::new(opts, SimDuration::ZERO);
    let times = run_cells(
        opts,
        CAPS.len(),
        |i| format!("ablation-runqcap[cap {}, seed {:#x}]", CAPS[i], opts.seed),
        |opts, i| {
            let (mut cfg, specs) = crate::fig4::scenario(opts, Workload::Dedup);
            cfg.micro_runq_cap = CAPS[i];
            let m = grid.finish(opts, (cfg, specs), PolicyKind::Fixed(3), VmId(0))?;
            Ok(m.finished_secs(VmId(0)))
        },
    );
    for (cap, secs) in CAPS.iter().zip(&times) {
        match secs {
            Ok(secs) => t.row(vec![cap.to_string(), format!("{secs:.2}")]),
            Err(e) => t.row(fail_row(cap.to_string(), 1, &e.failure)),
        }
    }
    vec![t]
}

const DETECTION_LABELS: [&str; 3] = [
    "baseline (no pool)",
    "pool + detection",
    "pool, detection off",
];

/// Detection-off ablation: reserve a core but never accelerate anything.
pub fn run_detection_off(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec!["config", "exim units/s"])
        .with_title("Ablation: detection (whitelist) on/off, 1 reserved micro core");
    let window = opts.window(SimDuration::from_secs(3));
    let plan = Grid::new(opts, WARM);
    // Policies are constructed inside the worker (dispatched by index) so
    // no trait object needs to cross threads. All three cells share one
    // config, so they fork a single warm checkpoint.
    let rates = run_cells(
        opts,
        3,
        |i| {
            format!(
                "ablation-detection[{}, seed {:#x}]",
                DETECTION_LABELS[i], opts.seed
            )
        },
        |opts, i| {
            let policy = match i {
                0 => PolicyKind::Baseline.into(),
                1 => PolicyKind::Fixed(1).into(),
                _ => CellPolicy::Custom(Box::new(
                    MicroslicePolicy::fixed(1)
                        .with_detection(DetectionEngine::with_whitelist(ksym::Whitelist::empty())),
                )),
            };
            Ok(plan
                .window(opts, exim_corun(|_| {}), policy, window)?
                .rate(VmId(0)))
        },
    );
    for (label, rate) in DETECTION_LABELS.iter().zip(&rates) {
        match rate {
            Ok(rate) => t.row(vec![label.to_string(), format!("{rate:.0}")]),
            Err(e) => t.row(fail_row(label.to_string(), 1, &e.failure)),
        }
    }
    vec![t]
}

const USLICED_LABELS: [&str; 3] = [
    "baseline (30ms)",
    "flexible micro-sliced (ours)",
    "fixed micro-sliced (all cores 0.1ms)",
];

/// Fixed-µsliced comparator: every core runs 0.1 ms slices (no pools, no
/// selection) — the `[2]`-style baseline of Table 1.
pub fn run_fixed_usliced(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec!["scheme", "exim units/s", "swaptions units/s"])
        .with_title("Ablation: precise selection vs micro-slicing every core");
    let window = opts.window(SimDuration::from_secs(3));
    let plan = Grid::new(opts, WARM);
    // The fixed-µsliced cell rewrites `normal_slice`, so its warm prefix
    // differs from the other two cells' and it forks its own checkpoint.
    let cells = run_cells(
        opts,
        3,
        |i| {
            format!(
                "ablation-usliced[{}, seed {:#x}]",
                USLICED_LABELS[i], opts.seed
            )
        },
        |opts, i| {
            let scenario = exim_corun(|cfg| {
                if i == 2 {
                    cfg.normal_slice = SimDuration::from_micros(100);
                }
            });
            let policy = if i == 1 {
                PolicyKind::Fixed(1)
            } else {
                PolicyKind::Baseline
            };
            let m = plan.window(opts, scenario, policy, window)?;
            Ok((m.rate(VmId(0)), m.rate(VmId(1))))
        },
    );
    for (label, cell) in USLICED_LABELS.iter().zip(&cells) {
        match cell {
            Ok((exim, swapt)) => t.row(vec![
                label.to_string(),
                format!("{exim:.0}"),
                format!("{swapt:.0}"),
            ]),
            Err(e) => t.row(fail_row(label.to_string(), 2, &e.failure)),
        }
    }
    vec![t]
}

/// Runs every ablation.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let mut tables = Vec::new();
    tables.extend(run_slice_sweep(opts));
    tables.extend(run_runq_cap(opts));
    tables.extend(run_detection_off(opts));
    tables.extend(run_fixed_usliced(opts));
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_off_neutralizes_the_pool() {
        let tables = run_detection_off(&RunOptions::quick());
        let csv = tables[0].render_csv();
        let rates: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next_back().unwrap().parse().unwrap())
            .collect();
        let (baseline, on, off) = (rates[0], rates[1], rates[2]);
        assert!(on > baseline, "detection-on should beat baseline");
        assert!(
            off < on * 0.9,
            "without detection the pool is dead weight: off {off} vs on {on}"
        );
    }
}
