//! Table 3: the critical kernel components preempted under consolidation.
//!
//! The paper derives its whitelist by profiling which kernel functions
//! vCPUs were executing when they yielded. We reproduce the analysis: run
//! the lock-bound and TLB-bound co-run scenarios, take the yield-site
//! census (instruction pointers resolved through the symbol table), and
//! report each observed kernel function with its whitelist class.

use crate::runner::{fail_row, run_cells, CellError, Grid, PolicyKind, RunOptions};
use ksym::whitelist::{CriticalClass, Whitelist};
use metrics::render::Table;
use simcore::time::SimDuration;
use std::collections::BTreeMap;
use workloads::{scenarios, Workload};

/// Runs the census and returns `(site, class, count)` sorted by count,
/// plus the errors of any contributing runs that failed (the census then
/// covers only the runs that completed).
pub fn measure(opts: &RunOptions) -> (Vec<(&'static str, CriticalClass, u64)>, Vec<CellError>) {
    let window = opts.window(SimDuration::from_secs(3));
    let grid = Grid::new(opts, SimDuration::ZERO);
    // The three co-run scenarios fan out; each worker returns only its
    // site counts. The merged census sums counts, so any merge order
    // yields the same BTreeMap — index order is kept anyway.
    const WORKLOADS: [Workload; 3] = [Workload::Gmake, Workload::Dedup, Workload::Psearchy];
    let per_run = run_cells(
        opts,
        WORKLOADS.len(),
        |i| {
            format!(
                "table3[{} x baseline, seed {:#x}]",
                WORKLOADS[i].name(),
                opts.seed
            )
        },
        |opts, i| {
            let scenario = scenarios::corun(WORKLOADS[i]);
            let m = grid.window(opts, scenario, PolicyKind::Baseline, window)?;
            Ok(m.from_boot().yield_sites.clone())
        },
    );
    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut errors = Vec::new();
    for run in per_run {
        match run {
            Ok(sites) => {
                for (site, count) in &sites {
                    *census.entry(site).or_insert(0) += count;
                }
            }
            Err(e) => errors.push(e),
        }
    }
    let wl = Whitelist::linux44();
    let mut rows: Vec<(&'static str, CriticalClass, u64)> = census
        .into_iter()
        .map(|(site, count)| (site, wl.class_of(site), count))
        .collect();
    rows.sort_by_key(|&(_, _, count)| core::cmp::Reverse(count));
    (rows, errors)
}

/// Renders the Table 3 census. Failed contributing runs are reported as
/// trailing rows of their [`fail_text`](crate::runner::fail_text) (`ERR`,
/// `HUNG` or `SKIP`; the census then covers only the completed runs).
pub fn run(opts: &RunOptions) -> Vec<Table> {
    let (rows, errors) = measure(opts);
    let mut t = Table::new(vec!["function at yield", "class", "yields"]).with_title(
        "Table 3: kernel functions observed at yield time (gmake/dedup/psearchy co-runs)",
    );
    for (site, class, count) in rows {
        t.row(vec![
            site.to_string(),
            format!("{class:?}"),
            count.to_string(),
        ]);
    }
    for e in errors {
        t.row(fail_row(e.label.clone(), 2, &e.failure));
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::pool::{with_scope, Scope};
    use std::sync::Arc;

    /// Cells a `repro cell` filter skips render as `SKIP`, as in every
    /// other table, not `ERR`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under debug; run with cargo test --release"
    )]
    fn filtered_cells_render_as_skip() {
        let dir = std::env::temp_dir().join(format!("table3_skip_{}", std::process::id()));
        let scope = Arc::new(Scope::new("table3", &dir).with_filter(0, 0));
        let opts = RunOptions {
            keep_going: true,
            ..RunOptions::quick()
        };
        let text = with_scope(&scope, || run(&opts))[0].render();
        let skipped = text
            .lines()
            .filter(|l| l.matches("SKIP").count() == 2)
            .count();
        assert_eq!(skipped, 2, "{text}");
        assert!(!text.contains("ERR"), "{text}");
        assert!(scope.matched() && !scope.failed());
    }

    #[test]
    fn census_finds_the_papers_critical_sites() {
        let (rows, errors) = measure(&RunOptions::quick());
        assert!(errors.is_empty(), "census runs failed: {errors:?}");
        let sites: Vec<&str> = rows.iter().map(|r| r.0).collect();
        // The two dominant yield sites of §3.1: lock spinning (PLE) and
        // the one-to-many IPI wait.
        assert!(
            sites.contains(&"native_queued_spin_lock_slowpath"),
            "no spin-wait yields observed: {sites:?}"
        );
        assert!(
            sites.contains(&"smp_call_function_many"),
            "no IPI-wait yields observed: {sites:?}"
        );
        // Idle halts also appear (guest HLT).
        assert!(sites.contains(&"default_idle"));
        // Every named critical site classifies as critical.
        for (site, class, _) in &rows {
            if *site == "native_queued_spin_lock_slowpath" || *site == "smp_call_function_many" {
                assert!(class.is_critical());
            }
        }
    }
}
