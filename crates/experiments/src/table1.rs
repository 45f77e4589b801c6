//! Table 1, made quantitative: the paper compares itself to prior
//! approaches by a feature checklist; here the comparators run head to
//! head on the three symptom classes of the virtual time discontinuity:
//!
//! - **locks** — exim + swaptions throughput (PLE / lock-holder preemption);
//! - **TLB IPIs** — dedup + swaptions execution time;
//! - **mixed I/O** — the Figure 9 pinned iPerf pair (jitter).
//!
//! Schemes: baseline Xen, vTurbo (static I/O turbo core), vTRS
//! (coarse whole-vCPU classification), fixed-µsliced (every core 0.1 ms),
//! and the paper's flexible micro-sliced cores (static best + dynamic).

use crate::runner::{
    fail_row, fail_text, run_cells, CellError, CellPolicy, CellResult, Grid, PolicyKind, RunOptions,
};
use hypervisor::{MachineConfig, VmSpec};
use metrics::render::{fmt_f64, Table};
use microslice::{VTurboPolicy, VtrsPolicy};
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// The compared schemes, in Table 1 column order (where implemented).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Vanilla Xen credit scheduler.
    Baseline,
    /// vTurbo-style static I/O turbo core.
    VTurbo,
    /// vTRS-style whole-vCPU classification.
    Vtrs,
    /// Every core micro-sliced (the `[2]`-style fixed scheme).
    FixedUsliced,
    /// The paper's mechanism, best static pool size per workload.
    MicrosliceStatic,
    /// The paper's mechanism with Algorithm 1.
    MicrosliceDynamic,
}

impl Scheme {
    /// All schemes, in report order.
    pub const ALL: [Scheme; 6] = [
        Scheme::Baseline,
        Scheme::VTurbo,
        Scheme::Vtrs,
        Scheme::FixedUsliced,
        Scheme::MicrosliceStatic,
        Scheme::MicrosliceDynamic,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline Xen",
            Scheme::VTurbo => "vTurbo-style",
            Scheme::Vtrs => "vTRS-style",
            Scheme::FixedUsliced => "fixed u-sliced",
            Scheme::MicrosliceStatic => "ours (static)",
            Scheme::MicrosliceDynamic => "ours (dynamic)",
        }
    }

    fn policy(self, static_best: usize) -> CellPolicy {
        match self {
            Scheme::Baseline | Scheme::FixedUsliced => PolicyKind::Baseline.into(),
            Scheme::VTurbo => CellPolicy::Custom(Box::new(VTurboPolicy::new())),
            Scheme::Vtrs => CellPolicy::Custom(Box::new(VtrsPolicy::default())),
            Scheme::MicrosliceStatic => PolicyKind::Fixed(static_best).into(),
            Scheme::MicrosliceDynamic => PolicyKind::Adaptive.into(),
        }
    }

    fn mutate_config(self, cfg: &mut MachineConfig) {
        if self == Scheme::FixedUsliced {
            cfg.normal_slice = SimDuration::from_micros(100);
        }
    }
}

/// Shared warm-up prefix (full budget) for the dedup and iperf symptom
/// cells: dedup measures completion time, so the prefix must stay well
/// below the fastest scheme's finish; iperf (delta-measured jitter)
/// shares the same plan and inherits the cap.
pub const WARM: SimDuration = SimDuration::from_millis(800);

/// Warm prefix for the exim throughput cells — the same exim+swaptions
/// scenario Figure 5 warms, and delta-measured the same way (work done
/// after the warm point over the window), so the prefix length never
/// compresses the measured rates and the checkpoint-sharing schemes can
/// amortize a long one.
pub const EXIM_WARM: SimDuration = SimDuration::from_secs(4);

/// One scheme's results across the three symptom classes.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// The scheme.
    pub scheme: Scheme,
    /// exim throughput, units/s (locks symptom; higher is better).
    pub exim_tput: f64,
    /// dedup execution time, seconds (TLB symptom; lower is better).
    pub dedup_secs: f64,
    /// Mixed-iPerf jitter, ms (I/O symptom; lower is better).
    pub iperf_jitter_ms: f64,
}

/// The exim co-run under `scheme`'s machine configuration.
pub(crate) fn exim_scenario(scheme: Scheme) -> (MachineConfig, Vec<VmSpec>) {
    let (mut cfg, specs) = scenarios::corun(Workload::Exim);
    scheme.mutate_config(&mut cfg);
    (cfg, specs)
}

/// Figure 7 and the ablations measure the same exim windows, so each is
/// simulated once per invocation (see [`Grid::window`]).
fn exim_run(opts: &RunOptions, grid: &Grid, scheme: Scheme) -> CellResult<f64> {
    let window = opts.window(SimDuration::from_secs(3));
    let m = grid.window(opts, exim_scenario(scheme), scheme.policy(1), window)?;
    Ok(m.rate(VmId(0)))
}

/// The baseline cell is Figure 4's dedup baseline, so the two share one
/// completion per invocation (see [`Grid::finish`]).
fn dedup_run(opts: &RunOptions, grid: &Grid, scheme: Scheme) -> CellResult<f64> {
    let (mut cfg, specs) = crate::fig4::scenario(opts, Workload::Dedup);
    scheme.mutate_config(&mut cfg);
    let m = grid.finish(opts, (cfg, specs), scheme.policy(3), VmId(0))?;
    Ok(m.finished_secs(VmId(0)))
}

fn iperf_run(opts: &RunOptions, grid: &Grid, scheme: Scheme) -> CellResult<f64> {
    let window = opts.window(SimDuration::from_secs(3));
    let (mut cfg, specs) = scenarios::fig9_mixed_pinned(true);
    scheme.mutate_config(&mut cfg);
    let m = grid.window(opts, (cfg, specs), scheme.policy(1), window)?;
    Ok(m.flow(VmId(0)).jitter_ms())
}

const SYMPTOMS: [&str; 3] = ["exim", "dedup", "iperf"];

/// Runs all schemes across all three symptoms — an 18-cell scheme ×
/// symptom grid fanned across `opts.jobs` workers. A scheme row with any
/// failed symptom cell comes back as that cell's error.
pub fn measure(opts: &RunOptions) -> Vec<Result<Row, CellError>> {
    let plan = Grid::new(opts, WARM);
    let exim_plan = Grid::new(opts, EXIM_WARM);
    let grid = run_cells(
        opts,
        Scheme::ALL.len() * 3,
        |i| {
            format!(
                "table1[{} x {}, seed {:#x}]",
                SYMPTOMS[i % 3],
                Scheme::ALL[i / 3].label(),
                opts.seed
            )
        },
        |opts, i| {
            let scheme = Scheme::ALL[i / 3];
            match i % 3 {
                0 => exim_run(opts, &exim_plan, scheme),
                1 => dedup_run(opts, &plan, scheme),
                _ => iperf_run(opts, &plan, scheme),
            }
        },
    );
    Scheme::ALL
        .iter()
        .enumerate()
        .map(|(si, &scheme)| {
            Ok(Row {
                scheme,
                exim_tput: grid[si * 3].clone()?,
                dedup_secs: grid[si * 3 + 1].clone()?,
                iperf_jitter_ms: grid[si * 3 + 2].clone()?,
            })
        })
        .collect()
}

/// Renders quantitative Table 1. Failed rows render as their
/// [`fail_text`]; so do the normalized columns when the baseline row
/// failed.
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let rows = measure(opts);
    let base = rows[0].as_ref().copied().map_err(|e| fail_text(&e.failure));
    let mut t = Table::new(vec![
        "scheme",
        "exim (locks)",
        "dedup (TLB IPIs)",
        "iPerf mixed (I/O)",
    ])
    .with_title(
        "Table 1 (quantitative): symptom coverage of prior schemes vs flexible micro-sliced cores",
    );
    for (si, r) in rows.into_iter().enumerate() {
        match (r, base) {
            (Ok(r), Ok(base)) => t.row(vec![
                r.scheme.label().to_string(),
                format!("{:.2}x tput", r.exim_tput / base.exim_tput),
                format!("{:.2}x time", r.dedup_secs / base.dedup_secs),
                format!("{} ms jitter", fmt_f64(r.iperf_jitter_ms)),
            ]),
            (Ok(r), Err(base)) => t.row(vec![
                r.scheme.label().to_string(),
                base.to_string(),
                base.to_string(),
                format!("{} ms jitter", fmt_f64(r.iperf_jitter_ms)),
            ]),
            (Err(e), _) => t.row(fail_row(Scheme::ALL[si].label().to_string(), 3, &e.failure)),
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn comparators_cover_their_claimed_symptoms_only() {
        let opts = RunOptions::quick();
        let grid = Grid::new(&opts, WARM);
        // vTurbo fixes I/O but not TLB.
        let base_jitter = iperf_run(&opts, &grid, Scheme::Baseline).unwrap();
        let vturbo_jitter = iperf_run(&opts, &grid, Scheme::VTurbo).unwrap();
        assert!(
            vturbo_jitter < base_jitter * 0.5,
            "vTurbo should fix mixed I/O: {vturbo_jitter} vs {base_jitter}"
        );
        let base_dedup = dedup_run(&opts, &grid, Scheme::Baseline).unwrap();
        let vturbo_dedup = dedup_run(&opts, &grid, Scheme::VTurbo).unwrap();
        assert!(
            vturbo_dedup > base_dedup * 0.9,
            "vTurbo must not fix the TLB symptom: {vturbo_dedup} vs {base_dedup}"
        );
        // Ours fixes both.
        let ours_jitter = iperf_run(&opts, &grid, Scheme::MicrosliceStatic).unwrap();
        let ours_dedup = dedup_run(&opts, &grid, Scheme::MicrosliceStatic).unwrap();
        assert!(ours_jitter < base_jitter * 0.5);
        assert!(ours_dedup < base_dedup * 0.6);
    }
}
