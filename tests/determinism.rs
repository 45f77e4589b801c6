//! Reproducibility: identical seeds must give bit-identical simulations,
//! different seeds must actually differ, and the parallel fan-out must
//! render exactly the bytes the serial path renders.

use experiments::runner::pool;
use experiments::runner::{build, PolicyKind, RunOptions};
use metrics::render::fnv64;
use simcore::ids::VmId;
use simcore::time::SimTime;
use workloads::{scenarios, Workload};

fn fingerprint(seed: u64, policy: PolicyKind) -> (u64, u64, u64, u64, String) {
    let opts = RunOptions {
        quick: true,
        seed,
        ..Default::default()
    };
    let mut m = build(&opts, scenarios::corun(Workload::Exim), policy);
    m.run_until(SimTime::from_millis(700)).unwrap();
    (
        m.vm_work_done(VmId(0)),
        m.vm_work_done(VmId(1)),
        m.stats.vm(VmId(0)).yields.total(),
        m.stats.counters.get("ctx_switches"),
        m.stats.counters.to_string(),
    )
}

#[test]
fn same_seed_bit_identical_baseline() {
    assert_eq!(
        fingerprint(42, PolicyKind::Baseline),
        fingerprint(42, PolicyKind::Baseline)
    );
}

#[test]
fn same_seed_bit_identical_microslice() {
    assert_eq!(
        fingerprint(43, PolicyKind::Fixed(2)),
        fingerprint(43, PolicyKind::Fixed(2))
    );
    assert_eq!(
        fingerprint(44, PolicyKind::Adaptive),
        fingerprint(44, PolicyKind::Adaptive)
    );
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(1, PolicyKind::Baseline);
    let b = fingerprint(2, PolicyKind::Baseline);
    assert_ne!(a, b, "distinct seeds produced identical traces");
}

#[test]
fn policy_changes_the_trace() {
    let base = fingerprint(7, PolicyKind::Baseline);
    let fast = fingerprint(7, PolicyKind::Fixed(1));
    assert_ne!(base, fast, "the policy had no observable effect");
}

/// Renders one experiment to its CSV bytes under the given options.
fn render_with(opts: &RunOptions, id: &str) -> String {
    experiments::run_experiment(id, opts)
        .unwrap_or_else(|| panic!("unknown experiment {id}"))
        .iter()
        .map(|t| t.render_csv())
        .collect()
}

/// Renders one experiment to its CSV bytes under a given job count.
fn render(id: &str, jobs: usize) -> String {
    render_with(&RunOptions::quick().with_jobs(jobs), id)
}

/// A cheap always-on guard: the fastest experiment must render the same
/// bytes under serial and parallel fan-out.
#[test]
fn parallel_jobs_byte_identical_fig9() {
    let serial = render("fig9", 1);
    assert_eq!(serial, render("fig9", 2), "fig9: --jobs 2 diverged");
    assert_eq!(serial, render("fig9", 7), "fig9: --jobs 7 diverged");
}

/// Paranoid mode adds invariant sweeps on every accounting tick but must
/// observe, never perturb: the rendered bytes stay identical to a normal
/// run, and identical across job counts.
#[test]
fn paranoid_mode_does_not_perturb_rendered_bytes() {
    let paranoid = RunOptions {
        paranoid: true,
        ..RunOptions::quick()
    };
    let serial = render_with(&paranoid.with_jobs(1), "fig9");
    assert_eq!(
        serial,
        render_with(&paranoid.with_jobs(3), "fig9"),
        "fig9: paranoid --jobs 3 diverged"
    );
    assert_eq!(
        serial,
        render("fig9", 1),
        "paranoid mode changed the rendered bytes"
    );
}

/// A fixed fault plan is part of the deterministic input: the same
/// `--faults` spec must render the same bytes regardless of `--jobs`.
#[test]
fn faulted_runs_byte_identical_across_jobs() {
    let spec = hypervisor::FaultSpec::parse("count=16,window_ms=200").unwrap();
    let opts = RunOptions {
        faults: Some(spec),
        paranoid: true,
        keep_going: true,
        ..RunOptions::quick()
    };
    let serial = render_with(&opts.with_jobs(1), "fig9");
    assert_eq!(
        serial,
        render_with(&opts.with_jobs(2), "fig9"),
        "fig9: --faults run diverged under --jobs 2"
    );
}

/// Shared-prefix forking is an execution strategy, never an observable:
/// forked cells (the default) and from-scratch cells (`--no-fork`) must
/// render the same bytes, serial and parallel. Cheap always-on guard on
/// the fastest experiment; the suite-wide contract is release-gated
/// below.
#[test]
fn forked_cells_byte_identical_fig9() {
    let scratch = RunOptions {
        fork: false,
        ..RunOptions::quick()
    };
    let baseline = render_with(&scratch.with_jobs(1), "fig9");
    assert_eq!(
        baseline,
        render("fig9", 1),
        "fig9: --fork diverged from --no-fork at --jobs 1"
    );
    assert_eq!(
        baseline,
        render("fig9", 8),
        "fig9: --fork diverged from --no-fork at --jobs 8"
    );
}

/// Fault plans and paranoid sweeps ride through the fork boundary: the
/// warm prefix simulates them once and every fork inherits the same
/// pending faults, so `--faults --paranoid` output is still independent
/// of the fork strategy.
#[test]
fn forked_faulted_paranoid_byte_identical_fig9() {
    let spec = hypervisor::FaultSpec::parse("count=16,window_ms=200").unwrap();
    let opts = RunOptions {
        faults: Some(spec),
        paranoid: true,
        keep_going: true,
        ..RunOptions::quick()
    };
    let forked = render_with(&opts.with_jobs(2), "fig9");
    let scratch = render_with(
        &RunOptions {
            fork: false,
            ..opts
        }
        .with_jobs(2),
        "fig9",
    );
    assert_eq!(
        forked, scratch,
        "fig9: fork changed a faulted paranoid run's bytes"
    );
}

/// The acceptance contract for the snapshot/fork tentpole: every
/// experiment, across seeds and job counts, renders byte-identical
/// output whether cells fork the shared warm snapshot or re-simulate
/// from scratch. Release-gated like the other whole-suite tests.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn forked_suite_byte_identical_to_scratch() {
    for seed in [0xE005_2018, 0xA5] {
        for id in experiments::ALL_EXPERIMENTS {
            let opts = RunOptions {
                seed,
                ..RunOptions::quick()
            };
            let forked = render_with(&opts.with_jobs(8), id);
            let scratch = render_with(
                &RunOptions {
                    fork: false,
                    ..opts
                }
                .with_jobs(8),
                id,
            );
            assert_eq!(
                forked, scratch,
                "{id}: fork diverged from scratch at seed {seed:#x}"
            );
        }
    }
}

/// The full contract: every experiment, quick mode, must be
/// byte-identical between `--jobs 1` and `--jobs N`, and sharing cells
/// across experiments must be an execution strategy, never an
/// observable: the whole suite under one budget at `--jobs 2` (every
/// experiment on its own driver thread, each window and completion
/// several experiments show simulated once and served to the others from
/// the budget's checkpoint store, as `repro all` runs it) renders what
/// each experiment renders alone with no budget, where each grid keeps a
/// private store. Checked at two seeds. Slow under debug builds, so
/// release-gated like the other whole-suite tests.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn parallel_jobs_byte_identical_all_experiments() {
    let ids = experiments::ALL_EXPERIMENTS;
    for seed in [RunOptions::quick().seed, 0xA5] {
        let opts = RunOptions {
            seed,
            ..RunOptions::quick()
        };
        let budget = std::sync::Arc::new(pool::Budget::new(2));
        let mut shared = vec![String::new(); ids.len()];
        pool::run_streamed(
            ids.len(),
            |i| pool::with_budget(&budget, || render_with(&opts.with_jobs(2), ids[i])),
            |i, out| shared[i] = out,
        );
        for (id, shared) in ids.iter().zip(&shared) {
            let serial = render_with(&opts.with_jobs(1), id);
            let parallel = render_with(&opts.with_jobs(4), id);
            assert_eq!(
                serial, parallel,
                "{id}: --jobs 4 diverged from --jobs 1 at seed {seed:#x}"
            );
            assert_eq!(
                serial, *shared,
                "{id}: the suite under one budget diverged at seed {seed:#x}"
            );
        }
    }
}

/// `repro --jobs 2` stdout, pinned by digest through the real binary:
/// the quick suite at the default seed, at `--seed 11` and with a
/// faulted, paranoid plan, and the scenario cookbook at both budgets. A
/// change that alters stdout on purpose updates the constant and says
/// why in CHANGES.md. The full-budget suite is not pinned while its
/// output still prints `NaN` columns.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under debug; run with cargo test --release"
)]
fn quick_suite_stdout_digests_are_pinned() {
    let cookbook = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let faults = "count=6,seed=5,kinds=ipi|steal|kick";
    let faulted = [
        "--quick",
        "--keep-going",
        "--paranoid",
        "--faults",
        faults,
        "all",
    ];
    let cases: [(&[&str], u64); 5] = [
        (&["--quick", "all"], 0xf71e_bcf3_77bf_b482),
        (&["--quick", "--seed", "11", "all"], 0x2200_8fa4_e78e_5c3d),
        (&faulted, 0x331b_23ba_7fee_14e9),
        (&["scenarios", cookbook], 0xd4c7_6aef_a2ba_d5c1),
        (&["--quick", "scenarios", cookbook], 0x9aec_d2c2_18aa_e88a),
    ];
    for (args, digest) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["--jobs", "2"])
            .args(args)
            .output()
            .expect("repro binary runs");
        assert!(out.status.success(), "repro {args:?} failed");
        assert_eq!(
            fnv64(&out.stdout),
            digest,
            "repro --jobs 2 {args:?}: stdout changed"
        );
    }
}
