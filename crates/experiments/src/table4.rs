//! Table 4: the performance cost of the virtual time discontinuity.
//!
//! - **4a** — average spinlock wait times in gmake, solo vs co-run, per
//!   kernel component (Lockstat's role).
//! - **4b** — TLB synchronization latencies in dedup and vips
//!   (SystemTap on `native_flush_tlb_others`).
//! - **4c** — iPerf jitter and throughput, solo vs mixed co-run.

use crate::runner::{fail_row, run_cells, CellError, Grid, PolicyKind, RunOptions};
use guest::kernel::LockKind;
use metrics::render::{fmt_f64, Table};
use simcore::ids::VmId;
use simcore::time::SimDuration;
use workloads::{scenarios, Workload};

/// Table 4a lock-kind rows, in paper order.
pub const TABLE4A_KINDS: [LockKind; 4] = [
    LockKind::PageReclaim,
    LockKind::PageAlloc,
    LockKind::Dentry,
    LockKind::Runqueue,
];

/// Measured mean waits in µs: `(kind, solo, corun)`. Fails as a whole if
/// either contributing run failed (the rows pair both runs).
pub fn measure_4a(opts: &RunOptions) -> Result<Vec<(LockKind, f64, f64)>, CellError> {
    let window = opts.window(SimDuration::from_secs(4));
    // Lock-wait extrema cannot be windowed: the cells measure from t = 0.
    let grid = Grid::new(opts, SimDuration::ZERO);
    // The solo and co-run simulations fan out; workers return per-kind
    // mean waits (plain floats), never the record itself.
    let waits = run_cells(
        opts,
        2,
        |i| {
            format!(
                "table4a[gmake {}, seed {:#x}]",
                if i == 1 { "corun" } else { "solo" },
                opts.seed
            )
        },
        // `compare` re-runs this grid; the checkpoint store serves its
        // baseline windows.
        |opts, i| {
            // Table 2's gmake windows. Gmake runs its default budget, so
            // at the full budget its waits stop accruing when it finishes
            // inside the window (ROADMAP item 1).
            let scenario = crate::table2::scenario(Workload::Gmake, i == 1);
            let m = grid.window(opts, scenario, PolicyKind::Baseline, window)?;
            let gmake = m.from_boot().vm(VmId(0));
            Ok(TABLE4A_KINDS.map(|kind| gmake.lock_wait[kind.slot()].mean().as_micros_f64()))
        },
    );
    let solo = waits[0].clone()?;
    let corun = waits[1].clone()?;
    Ok(TABLE4A_KINDS
        .iter()
        .enumerate()
        .map(|(ki, &kind)| (kind, solo[ki], corun[ki]))
        .collect())
}

/// Renders Table 4a. A failed contributing run renders as one `ERR` row.
pub fn run_4a(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec!["kernel component", "solo (us)", "co-run (us)"])
        .with_title("Table 4a: spinlock waiting time in gmake");
    match measure_4a(opts) {
        Ok(rows) => {
            for (kind, solo, corun) in rows {
                t.row(vec![
                    kind.display_name().to_string(),
                    fmt_f64(solo),
                    fmt_f64(corun),
                ]);
            }
        }
        Err(e) => t.row(fail_row(e.label.clone(), 2, &e.failure)),
    }
    vec![t]
}

/// Table 4b workloads.
const TABLE4B_GRID: [Workload; 2] = [Workload::Dedup, Workload::Vips];

fn table4b_config(i: usize) -> &'static str {
    if i % 2 == 1 {
        "co-run"
    } else {
        "solo"
    }
}

/// One Table 4b cell: `(workload, config, avg, min, max)` in µs.
pub type Tlb4bRow = (Workload, &'static str, f64, f64, f64);

/// Measured TLB-sync latency in µs per cell.
/// Failed cells come back as labelled errors.
pub fn measure_4b(opts: &RunOptions) -> Vec<Result<Tlb4bRow, CellError>> {
    let window = opts.window(SimDuration::from_secs(4));
    let grid = Grid::new(opts, SimDuration::ZERO);
    run_cells(
        opts,
        TABLE4B_GRID.len() * 2,
        |i| {
            format!(
                "table4b[{} {}, seed {:#x}]",
                TABLE4B_GRID[i / 2].name(),
                table4b_config(i),
                opts.seed
            )
        },
        |opts, i| {
            let w = TABLE4B_GRID[i / 2];
            let scenario = crate::table2::scenario(w, i % 2 == 1);
            let m = grid.window(opts, scenario, PolicyKind::Baseline, window)?;
            let h = &m.from_boot().vm(VmId(0)).tlb_latency;
            Ok((
                w,
                table4b_config(i),
                h.mean().as_micros_f64(),
                h.min().as_micros_f64(),
                h.max().as_micros_f64(),
            ))
        },
    )
}

/// Renders Table 4b. Failed cells render as `ERR` rows.
pub fn run_4b(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec![
        "workload", "config", "avg (us)", "min (us)", "max (us)",
    ])
    .with_title("Table 4b: TLB synchronization latency");
    for (i, r) in measure_4b(opts).into_iter().enumerate() {
        match r {
            Ok((w, label, avg, min, max)) => t.row(vec![
                w.name().to_string(),
                label.to_string(),
                fmt_f64(avg),
                fmt_f64(min),
                fmt_f64(max),
            ]),
            Err(e) => {
                let mut row = fail_row(TABLE4B_GRID[i / 2].name().to_string(), 4, &e.failure);
                row[1] = table4b_config(i).to_string();
                t.row(row);
            }
        }
    }
    vec![t]
}

fn table4c_config(i: usize) -> &'static str {
    if i == 0 {
        "solo"
    } else {
        "mixed co-run"
    }
}

/// Measured iPerf numbers: `(config, jitter ms, throughput Mbit/s)`.
/// Failed cells come back as labelled errors.
pub fn measure_4c(opts: &RunOptions) -> Vec<Result<(&'static str, f64, f64), CellError>> {
    let window = opts.window(SimDuration::from_secs(4));
    let grid = Grid::new(opts, SimDuration::ZERO);
    run_cells(
        opts,
        2,
        |i| {
            format!(
                "table4c[iperf {}, seed {:#x}]",
                table4c_config(i),
                opts.seed
            )
        },
        |opts, i| {
            let scenario = if i == 0 {
                scenarios::iperf_solo(true)
            } else {
                scenarios::mixed_iperf_corun()
            };
            let m = grid.window(opts, scenario, PolicyKind::Baseline, window)?;
            let (f, span) = (m.flow(VmId(0)), m.span());
            Ok((table4c_config(i), f.jitter_ms(), f.throughput_mbps(span)))
        },
    )
}

/// Renders Table 4c. Failed cells render as `ERR` rows.
pub fn run_4c(opts: &RunOptions) -> Vec<Table> {
    let mut t = Table::new(vec!["config", "jitter (ms)", "throughput (Mbit/s)"])
        .with_title("Table 4c: iPerf latency and throughput");
    for (i, r) in measure_4c(opts).into_iter().enumerate() {
        match r {
            Ok((label, jitter, tput)) => {
                t.row(vec![label.to_string(), fmt_f64(jitter), fmt_f64(tput)])
            }
            Err(e) => t.row(fail_row(table4c_config(i).to_string(), 2, &e.failure)),
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_waits_explode_under_corun() {
        let rows = measure_4a(&RunOptions::quick()).unwrap();
        assert_eq!(rows.len(), 4);
        // The hot single-instance locks must degrade by orders of
        // magnitude; per-CPU run-queue locks degrade less.
        let hot: f64 = rows
            .iter()
            .filter(|(k, _, _)| matches!(k, LockKind::PageAlloc | LockKind::Dentry))
            .map(|(_, s, c)| c / s.max(0.01))
            .fold(0.0, f64::max);
        assert!(hot > 10.0, "hot-lock co-run/solo ratio only {hot}");
    }

    #[test]
    fn tlb_latency_explodes_under_corun() {
        let rows: Vec<_> = measure_4b(&RunOptions::quick())
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        for pair in rows.chunks(2) {
            let (w, _, solo_avg, _, _) = pair[0];
            let (_, _, corun_avg, _, corun_max) = pair[1];
            assert!(
                corun_avg > solo_avg * 5.0,
                "{}: co-run avg {corun_avg} vs solo {solo_avg}",
                w.name()
            );
            assert!(corun_max > 1_000.0, "{}: max {corun_max}us", w.name());
        }
    }

    #[test]
    fn mixed_corun_degrades_iperf() {
        let rows = measure_4c(&RunOptions::quick());
        let (_, solo_jitter, solo_tput) = rows[0].clone().unwrap();
        let (_, mixed_jitter, mixed_tput) = rows[1].clone().unwrap();
        assert!(solo_jitter < 0.5, "solo jitter {solo_jitter}ms");
        assert!(mixed_jitter > 1.0, "mixed jitter {mixed_jitter}ms");
        assert!(
            mixed_tput < solo_tput * 0.8,
            "throughput {mixed_tput} vs solo {solo_tput}"
        );
    }
}
