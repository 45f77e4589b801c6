//! Fault-injection fuzzing: seeded random fault plans must always
//! terminate, keep the machine's invariants clean, and never poison the
//! simulation — and an empty plan must be byte-identical to running with
//! no plan at all.
//!
//! This is the robustness contract behind `repro --faults`: injection is
//! a *perturbation*, never a corruption. Every sampled plan runs under
//! paranoid mode (invariants re-checked on every accounting tick) on top
//! of the per-fault check `apply_fault` already performs.

use experiments::runner::{build, run_cells, CellFailure, PolicyKind, RunOptions};
use hypervisor::{FaultSpec, MachineConfig, VmSpec};
use proptest::prelude::*;
use simcore::ids::VmId;
use simcore::time::{SimDuration, SimTime};
use workloads::{scenarios, Workload};

/// A deliberately small consolidated machine (4 pCPUs, two 2-vCPU VMs)
/// so a hundred fuzz cases stay cheap under debug builds while still
/// exercising overcommit, kicks, IPIs, and lock contention.
fn small_scenario() -> (MachineConfig, Vec<VmSpec>) {
    let cfg = MachineConfig::small(4);
    let specs = vec![
        scenarios::vm(Workload::Exim, 2, None),
        scenarios::vm(Workload::Swaptions, 2, None),
    ];
    (cfg, specs)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 100, ..ProptestConfig::default() })]

    /// ≥100 seeded random plans: the run must return `Ok` (no poisoning,
    /// no step-guard trip), the final invariant sweep must be clean, no
    /// `sim_errors` may be recorded, and every planned anomaly inside the
    /// run window must actually have fired (no silent drops).
    #[test]
    fn random_plans_terminate_with_clean_invariants(
        machine_seed in any::<u64>(),
        fault_seed in any::<u64>(),
        count in 0u32..96,
        // Every survivable kind combination, including the new
        // timer-coalescing jitter (1 << 5) and credit-accounting skew
        // (1 << 6). `sabotage` (1 << 7) is excluded by design: it exists
        // to violate invariants (see `tests/crash_resilience.rs`).
        kinds in 1u8..128,
        window_ms in 20u64..400,
    ) {
        let spec = FaultSpec {
            seed: fault_seed,
            count,
            kinds,
            window: SimDuration::from_millis(window_ms),
            take: 0,
        };
        let opts = RunOptions {
            quick: true,
            seed: machine_seed,
            paranoid: true,
            faults: Some(spec),
            ..Default::default()
        };
        // Alternate policies so both the baseline credit scheduler and
        // the micro-sliced pool absorb injected anomalies.
        let policy = if machine_seed.is_multiple_of(2) {
            PolicyKind::Baseline
        } else {
            PolicyKind::Fixed(1)
        };
        let mut m = build(&opts, small_scenario(), policy);
        m.run_until(SimTime::from_millis(500))
            .expect("a faulted run must never poison the machine");
        prop_assert!(
            m.check_invariants().is_ok(),
            "invariants violated after {count} faults (kinds {kinds:#b}, \
             machine seed {machine_seed:#x}, fault seed {fault_seed:#x})"
        );
        prop_assert_eq!(m.stats.counters.get("sim_errors"), 0);
        // All planned entries land in [1ms, 1ms + window] <= 401 ms, so by
        // 500 ms every one of them must have been applied.
        prop_assert_eq!(
            m.stats.counters.get("faults_injected"),
            m.stats.counters.get("faults_planned"),
            "planned faults were silently dropped"
        );
    }
}

/// Fingerprint of a short consolidated run, fine-grained enough to catch
/// any divergence: per-VM work, yields, and the full counter listing.
fn fingerprint(faults: Option<FaultSpec>) -> (u64, u64, u64, String) {
    let opts = RunOptions {
        quick: true,
        seed: 0x5EED_F417,
        faults,
        ..Default::default()
    };
    let mut m = build(&opts, small_scenario(), PolicyKind::Fixed(1));
    m.run_until(SimTime::from_millis(700)).unwrap();
    (
        m.vm_work_done(VmId(0)),
        m.vm_work_done(VmId(1)),
        m.stats.vm(VmId(0)).yields.total(),
        m.stats.counters.to_string(),
    )
}

/// A `count=0` spec plans nothing, and "nothing" must be indistinguishable
/// from never passing `--faults` at all — down to the counter listing.
#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    let empty = FaultSpec {
        count: 0,
        ..FaultSpec::default()
    };
    assert_eq!(
        fingerprint(None),
        fingerprint(Some(empty)),
        "an empty fault plan perturbed the simulation"
    );
}

/// Fault injection itself is deterministic: the same spec replays the
/// same anomalies and yields bit-identical runs.
#[test]
fn faulted_runs_are_reproducible() {
    let spec = FaultSpec {
        window: SimDuration::from_millis(300),
        ..FaultSpec::default()
    };
    let a = fingerprint(Some(spec));
    assert_eq!(a, fingerprint(Some(spec)), "same fault spec diverged");
    assert_ne!(
        a,
        fingerprint(None),
        "a full default plan had no observable effect"
    );
}

/// The runner plumbing end to end: `RunOptions.faults` reaches the
/// machine, anomalies fire, and the run completes cleanly.
#[test]
fn faults_flow_through_the_runner() {
    let spec = FaultSpec {
        window: SimDuration::from_millis(200),
        ..FaultSpec::default()
    };
    let opts = RunOptions {
        quick: true,
        seed: 7,
        paranoid: true,
        faults: Some(spec),
        ..Default::default()
    };
    let mut m = build(&opts, small_scenario(), PolicyKind::Adaptive);
    m.run_until(SimTime::from_millis(400)).unwrap();
    assert!(m.stats.counters.get("faults_injected") > 0);
    assert_eq!(m.stats.counters.get("sim_errors"), 0);
    assert!(m.stats.counters.get("invariant_checks") > 0);
}

/// Cell isolation: with `--keep-going` a panicking cell renders as an
/// `Err` naming its `(experiment, cell, seed)` label while its neighbours
/// complete normally.
#[test]
fn keep_going_isolates_a_panicking_cell() {
    let opts = RunOptions {
        keep_going: true,
        ..RunOptions::quick()
    };
    let grid = run_cells(
        &opts,
        3,
        |i| format!("demo[cell {i}, seed 0x7]"),
        |i| {
            if i == 1 {
                panic!("injected grid-cell panic");
            }
            Ok(i * 10)
        },
    );
    assert_eq!(*grid[0].as_ref().unwrap(), 0);
    assert_eq!(*grid[2].as_ref().unwrap(), 20);
    let e = grid[1].as_ref().unwrap_err();
    assert_eq!(e.label, "demo[cell 1, seed 0x7]");
    assert!(matches!(e.failure, CellFailure::Panic(_)));
    assert!(e.to_string().contains("injected grid-cell panic"));
}

/// Without `--keep-going`, a failing grid aborts — but the abort message
/// names the failing cell and suggests the flag.
#[test]
fn without_keep_going_the_failure_names_the_cell() {
    let opts = RunOptions::quick();
    let payload = std::panic::catch_unwind(|| {
        run_cells(
            &opts,
            2,
            |i| format!("demo[cell {i}, seed 0x7]"),
            |i| {
                if i == 1 {
                    Err(CellFailure::Horizon)
                } else {
                    Ok(i)
                }
            },
        )
    })
    .expect_err("a failing grid without --keep-going must abort");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("demo[cell 1, seed 0x7]"), "message was: {msg}");
    assert!(msg.contains("--keep-going"), "message was: {msg}");
}
