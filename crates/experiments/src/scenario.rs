//! Config-driven scenario execution: `repro --scenario FILE` and
//! `repro scenarios DIR`.
//!
//! The schema and its two-layer validation live in
//! [`workloads::scenario_file`]; this module owns the *execution* side:
//! loading a file (parse → validate, with errors that name the file and
//! byte position), expanding a directory into a sorted id list, and
//! driving a validated [`Scenario`] through the exact machinery every
//! built-in experiment uses — [`Grid`] shared-prefix forking and its
//! records, [`run_cells`] fan-out/isolation, and the crash scope `repro`
//! installs around each experiment. Because it is the same machinery,
//! the suite contract carries over verbatim: stdout is byte-identical for
//! any `--jobs` and `--fork`/`--no-fork`.
//!
//! The equivalence proof that file-driven runs match constructor-driven
//! runs (`tests/scenario_catalog.rs`) hinges on [`run_with_parts`]: the
//! scenario's *run parameters* are interpreted once, and the machine
//! parts come either from [`Scenario::to_parts`] ([`run`]) or from an
//! in-repo constructor — identical parts must yield identical bytes.

use crate::runner::{fail_text, run_cells, Grid, PolicyKind, RunOptions, Target};
use hypervisor::{MachineConfig, VmSpec};
use metrics::render::{fmt_f64, Table};
use simcore::ids::VmId;
use simcore::time::SimDuration;
use std::path::{Path, PathBuf};
use workloads::scenario_file::{self, PolicySpec, RunMode, Scenario};

/// Maps a file-schema policy to the runner's policy enum.
pub fn policy_kind(p: PolicySpec) -> PolicyKind {
    match p {
        PolicySpec::Baseline => PolicyKind::Baseline,
        PolicySpec::Micro(n) => PolicyKind::Fixed(n as usize),
        PolicySpec::Adaptive => PolicyKind::Adaptive,
    }
}

/// Loads, parses, and validates one scenario file. The error string
/// names the file plus the byte position (parse layer) or every
/// semantic violation (validate layer).
pub fn load(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: cannot read: {e}", path.display()))?;
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".to_string());
    let sc =
        scenario_file::parse_str(&stem, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    sc.validate().map_err(|errs| {
        let mut msg = format!("{}: invalid scenario:", path.display());
        for e in &errs {
            msg.push_str("\n  - ");
            msg.push_str(e);
        }
        msg
    })?;
    Ok(sc)
}

/// Expands a directory into its `.toml` scenario files, sorted by file
/// name so the suite order (and therefore stdout) is stable across
/// filesystems.
pub fn discover(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("{}: cannot read: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .toml scenario files", dir.display()));
    }
    Ok(files)
}

/// Number of grid cells a scenario expands to (repeats × policies).
pub fn num_cells(sc: &Scenario) -> usize {
    sc.run.repeats as usize * sc.run.policies.len()
}

/// Runs a validated scenario: [`run_with_parts`] over the scenario's own
/// [`Scenario::to_parts`] machine.
pub fn run(opts: &RunOptions, sc: &Scenario) -> Vec<Table> {
    run_with_parts(opts, sc, || sc.to_parts())
}

/// Runs a scenario's *run parameters* against externally supplied
/// machine parts. `run` passes the scenario's own parts; the catalog
/// equivalence tests pass an in-repo constructor instead and diff the
/// rendered bytes.
///
/// Cell layout is repeat-major (`rep × policy`): the cells of a repeat
/// share the seed and so the warmed prefix, and repeat
/// `r > 0` runs under the derived seed [`RunOptions::seed_for`]`(r)` —
/// the uniform per-run seed derivation the rest of the suite uses.
/// Scenario-file faults apply only when the command line injected none:
/// `--faults` is the operator's override.
pub fn run_with_parts<S>(opts: &RunOptions, sc: &Scenario, parts: S) -> Vec<Table>
where
    S: Fn() -> (MachineConfig, Vec<VmSpec>) + Sync,
{
    let policies: Vec<PolicyKind> = sc.run.policies.iter().map(|p| policy_kind(*p)).collect();
    let window = opts.window(SimDuration::from_millis(sc.run.window_ms));
    let grid = Grid::new(opts, SimDuration::from_millis(sc.run.warm_ms));
    // VmSpec order in `to_parts` is declaration order with `count`
    // replication inline; rebuild the same name sequence for row labels.
    let vm_names: Vec<String> = sc
        .vms
        .iter()
        .flat_map(|vm| std::iter::repeat_n(vm.display_name(), vm.count as usize))
        .collect();
    // A repeat's options derive from the options its cell runs under.
    let cell_opts = |opts: &RunOptions, rep: u32| -> RunOptions {
        RunOptions {
            seed: if rep == 0 {
                opts.seed
            } else {
                opts.seed_for(rep as u64)
            },
            faults: opts.faults.or(sc.faults),
            ..*opts
        }
    };
    let results = run_cells(
        opts,
        num_cells(sc),
        |i| {
            let (rep, p) = (i / policies.len(), i % policies.len());
            format!(
                "{}[{} x rep {}, seed {:#x}]",
                sc.name,
                policies[p].label(),
                rep,
                cell_opts(opts, rep as u32).seed
            )
        },
        |opts, i| {
            let (rep, p) = (i / policies.len(), i % policies.len());
            let opts = cell_opts(opts, rep as u32);
            let m = match sc.run.mode {
                RunMode::Window => grid.window(&opts, parts(), policies[p], window)?,
                RunMode::Completion => grid.finish(&opts, parts(), policies[p], Target::All)?,
            };
            let rows: Vec<(u64, Option<f64>)> = (0..m.end.vms.len())
                .map(|v| {
                    let id = VmId(v as u16);
                    let finished = m.end.vm(id).finished;
                    (m.work(id), finished.map(|t| t.as_secs_f64()))
                })
                .collect();
            Ok(rows)
        },
    );
    let mut t = Table::new(vec!["config", "rep", "vm", "work units", "finished @ (s)"])
        .with_title(format!("Scenario: {}", sc.name));
    for (i, r) in results.into_iter().enumerate() {
        let (rep, p) = (i / policies.len(), i % policies.len());
        let config = policies[p].label();
        match r {
            Ok(rows) => {
                for (v, (work, finished)) in rows.into_iter().enumerate() {
                    t.row(vec![
                        config.clone(),
                        rep.to_string(),
                        format!("{v}:{}", vm_names.get(v).map_or("vm", |s| s.as_str())),
                        work.to_string(),
                        finished.map_or_else(|| "-".to_string(), fmt_f64),
                    ]);
                }
            }
            Err(e) => {
                let text = fail_text(&e.failure).to_string();
                t.row(vec![
                    config,
                    rep.to_string(),
                    "-".to_string(),
                    text.clone(),
                    text,
                ]);
            }
        }
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::scenario_file::fuzz::random_scenario;

    fn parse(src: &str) -> Scenario {
        let sc = scenario_file::parse_str("t", src).unwrap();
        sc.validate().unwrap();
        sc
    }

    #[test]
    fn window_scenario_runs_and_renders() {
        let opts = RunOptions::default();
        let sc = parse(
            "[machine]\npcpus = 2\n\
             [run]\nwindow_ms = 60\npolicies = [\"baseline\", \"micro:1\"]\n\
             [[vm]]\nvcpus = 2\nworkload = \"swaptions\"\n",
        );
        let tables = run(&opts, &sc);
        assert_eq!(tables.len(), 1);
        let text = tables[0].render();
        assert!(text.contains("Scenario: t"), "{text}");
        assert!(text.contains("0:swaptions"), "{text}");
        assert!(text.contains("baseline"), "{text}");
        assert!(!text.contains("ERR"), "{text}");
    }

    #[test]
    fn completion_scenario_reports_finish_times() {
        let opts = RunOptions::default();
        let sc = parse(
            "[machine]\npcpus = 2\n\
             [run]\nmode = \"completion\"\n\
             [[vm]]\nvcpus = 1\nworkload = \"swaptions\"\niters = 300\n",
        );
        let text = run(&opts, &sc)[0].render();
        assert!(!text.contains('-') || !text.contains("ERR"), "{text}");
        // The single VM must report a finish time, not "-".
        let data_line = text
            .lines()
            .find(|l| l.contains("0:swaptions"))
            .expect("vm row");
        assert!(!data_line.trim_end().ends_with('-'), "{data_line}");
    }

    #[test]
    fn repeats_vary_the_seed_but_stay_deterministic() {
        let opts = RunOptions::default();
        let sc = parse(
            "[machine]\npcpus = 2\n\
             [run]\nwindow_ms = 60\nrepeats = 2\n\
             [[vm]]\nvcpus = 2\nworkload = \"exim\"\n",
        );
        let a = run(&opts, &sc)[0].render();
        let b = run(&opts, &sc)[0].render();
        assert_eq!(a, b, "same options must reproduce the same bytes");
    }

    #[test]
    fn jobs_do_not_change_bytes() {
        let sc = parse(
            "[machine]\npcpus = 3\n\
             [run]\nwindow_ms = 60\nrepeats = 2\npolicies = [\"baseline\", \"micro:1\"]\n\
             [[vm]]\nvcpus = 2\nworkload = \"dedup\"\n[[vm]]\nvcpus = 2\nworkload = \"swaptions\"\n",
        );
        let serial = run(&RunOptions::default(), &sc)[0].render();
        let fanned = run(&RunOptions::default().with_jobs(3), &sc)[0].render();
        assert_eq!(serial, fanned);
    }

    #[test]
    fn cli_faults_override_scenario_faults() {
        let sc = parse(
            "[run]\nwindow_ms = 50\n\
             [faults]\nspec = \"count=4,window_ms=40\"\n\
             [[vm]]\nvcpus = 1\nworkload = \"gmake\"\n[machine]\npcpus = 2\n",
        );
        assert!(sc.faults.is_some());
        // Without --faults the scenario's own plan applies; with it, the
        // CLI spec wins. Both must run clean (different bytes are fine).
        let with_file = run(&RunOptions::default(), &sc)[0].render();
        let cli = RunOptions {
            faults: Some(hypervisor::FaultSpec {
                count: 1,
                ..Default::default()
            }),
            ..RunOptions::default()
        };
        let with_cli = run(&cli, &sc)[0].render();
        assert!(!with_file.contains("ERR"), "{with_file}");
        assert!(!with_cli.contains("ERR"), "{with_cli}");
    }

    #[test]
    fn fuzzed_scenarios_run_clean_under_paranoid() {
        // A small always-on slice of the 100-case CI fuzz smoke.
        let opts = RunOptions {
            paranoid: true,
            ..RunOptions::default()
        };
        for seed in 0..4 {
            let sc = random_scenario(seed);
            let text = run(&opts, &sc)[0].render();
            assert!(
                !text.contains("ERR") && !text.contains("HUNG"),
                "fuzz seed {seed} failed:\n{text}"
            );
        }
    }
}
