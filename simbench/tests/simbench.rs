//! Fast checks of the benchmark itself (debug `cargo test -q` in this
//! package): the workload files, the timing wrapper's transparency, the
//! failure count of rendered tables, and `BENCHMARK.json` against the
//! metrics the command prints.

use metrics::render::Table;
use simbench::report::{per_layer_metrics, END_TO_END};
use simbench::scenario::{self, DIGEST_CELLS};
use simbench::suite::failed_rows;
use simbench::timed::{Probe, HOOKS};
use simbench::{workload_path, DEFAULT_SEED, SCENARIO_WORKLOADS};
use simcore::time::SimDuration;
use std::process::Command;
use std::sync::Arc;

#[test]
fn every_workload_file_loads_and_validates() {
    for name in SCENARIO_WORKLOADS {
        let w = scenario::load(&workload_path(name)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(
            w.scenario.name, name,
            "scenario name must match the file name"
        );
    }
    let dir = workload_path("x")
        .parent()
        .expect("workload dir")
        .to_path_buf();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("workloads/ is readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    files.sort();
    let mut listed: Vec<String> = SCENARIO_WORKLOADS
        .iter()
        .map(|n| format!("{n}.toml"))
        .collect();
    listed.sort();
    assert_eq!(
        files, listed,
        "every workload file is listed, and only those"
    );
}

#[test]
fn invalid_workload_files_are_rejected() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cases = [
        ("two-policies", "[run]\npolicies = [\"baseline\", \"micro:1\"]\n[[vm]]\nvcpus = 2\nworkload = \"exim\"\n", "one policy"),
        ("completion", "[run]\nmode = \"completion\"\n[[vm]]\nvcpus = 2\nworkload = \"gmake\"\n", "window mode"),
        ("bad-pin", "[machine]\npcpus = 2\n[[vm]]\nvcpus = 2\nworkload = \"exim\"\n[[vm.pin]]\nvcpu = 0\npcpus = [5]\n", "out of range"),
        ("bad-syntax", "[run\n", "bad-syntax.toml"),
    ];
    for (stem, text, expect) in cases {
        let path = dir.join(format!("{stem}.toml"));
        std::fs::write(&path, text).expect("write a temp workload file");
        let err = scenario::load(&path).expect_err(stem);
        assert!(err.contains(expect), "{stem}: {err}");
    }
}

#[test]
fn the_timing_wrapper_is_transparent() {
    let base = experiments::RunOptions {
        seed: DEFAULT_SEED,
        ..Default::default()
    };
    for name in SCENARIO_WORKLOADS {
        let w = scenario::load(&workload_path(name)).unwrap_or_else(|e| panic!("{e}"));
        let window = SimDuration::from_millis(200);
        let seed = base.seed_for(DIGEST_CELLS - 1);
        let plain = w.run_cell(seed, window, None);
        let probe = Arc::new(Probe::default());
        let traced = w.run_cell(seed, window, Some(&probe));
        assert!(
            plain.result.is_ok() && traced.result.is_ok(),
            "{name}: cell failed"
        );
        assert_eq!(
            plain.digest(),
            traced.digest(),
            "{name}: wrapper changed the run"
        );
        let calls: u64 = (0..HOOKS.len()).map(|h| probe.calls(h)).sum();
        assert!(calls > 0, "{name}: no hook call was timed");
        assert!(!probe.ips().is_empty(), "{name}: no yield ip was sampled");
    }
}

#[test]
fn failed_rows_counts_err_hung_and_fail() {
    let mut t =
        Table::new(vec!["cell", "value", "verdict"]).with_title("ERR in a title is not a row");
    t.row(vec!["ok".into(), "1.0".into(), "PASS".into()]);
    t.row(vec!["crashed".into(), "ERR".into(), "ERR".into()]);
    t.row(vec!["hung".into(), "HUNG".into(), "HUNG".into()]);
    t.row(vec!["shape".into(), "0.9".into(), "FAIL".into()]);
    t.row(vec![
        "FAILED-but-not-a-verdict".into(),
        "2.0".into(),
        "PASS".into(),
    ]);
    assert_eq!(failed_rows(&t), 3);
    assert_eq!(failed_rows(&Table::new(vec!["only", "a", "header"])), 0);
}

/// The `"name"` values of the objects between `from` and `to` in the
/// manifest text.
fn names_between(text: &str, from: &str, to: &str) -> Vec<String> {
    let start = text.find(from).expect(from);
    let end = to_index(text, to);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

fn to_index(text: &str, to: &str) -> usize {
    if to.is_empty() {
        text.len()
    } else {
        text.find(to).expect(to)
    }
}

#[test]
fn benchmark_json_lists_what_the_command_prints() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    let mut workloads = vec!["paper-suite".to_string()];
    workloads.extend(SCENARIO_WORKLOADS.iter().map(|s| s.to_string()));
    assert_eq!(
        names_between(&text, "\"workloads\"", "\"end_to_end\""),
        workloads
    );
    assert_eq!(
        names_between(&text, "\"end_to_end\"", "\"per_layer\""),
        END_TO_END.map(|(n, _)| n.to_string())
    );
    let per_layer: Vec<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_between(&text, "\"per_layer\"", ""), per_layer);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "io-tlb-corun", "--trace", "2"],
        &["--seconds", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_simbench"))
            .args(args)
            .output()
            .expect("run simbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
