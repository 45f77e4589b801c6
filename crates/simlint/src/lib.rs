//! `simlint` — the workspace's determinism & poisoning static-analysis
//! gate.
//!
//! Every performance PR in this repo ships a byte-identity proof across
//! seeds × jobs × fork/fault modes. Those proofs rest on repo-specific
//! coding rules that no compiler lint enforces; this crate turns them
//! from review lore into a standing CI gate. The rules:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | `D1` | no wall-clock (`Instant`/`SystemTime`) in sim-logic crates (simcore, hypervisor, guest, workloads); the watchdog and runner timing paths are the only readers |
//! | `D2` | no `HashMap`/`HashSet`/`RandomState` anywhere hash-iteration order could leak into sim state or output — use `BTreeMap`/`BTreeSet` or justify |
//! | `D3` | randomness only via the seeded `simcore::rng` streams; no fresh generator construction outside the machine/fault stream split |
//! | `D4` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in `hypervisor` run paths — they are `Result`-poisoned (`SimError`) |
//! | `D5` | no ad-hoc `thread::spawn`/`.spawn()`/`mpsc`/`Condvar` outside `runner::pool` and the watchdog |
//! | `D6` | no float (`f64`/`f32`) reductions or in-place accumulation in crates whose state reaches rendered output — sum in integers or justify the fold order |
//! | `D7` | cross-file: the `kinds=` fault grammar in `EXPERIMENTS.md`/`SCENARIOS.md` must match the `KIND_NAMES` table in `faults.rs` (see [`consistency`]) |
//! | `J0` | justification tags must carry a reason (see below) |
//!
//! Code under `#[test]` / `#[cfg(test)]` items is exempt. A finding is
//! suppressed by a justification comment on the same line or anywhere
//! in the contiguous comment block directly above — `PANIC-OK(<reason>)`
//! for D4, `SIMLINT: <reason>` for the rest (the tag must open its
//! comment line, and the reason closes on that line) — or by a fingerprint
//! entry in the checked-in `simlint.allow` baseline; see [`baseline`].
//!
//! The analysis is lexical (a hand-rolled token stream, [`lexer`]), not
//! syntactic: simple enough to audit, precise enough never to match
//! inside strings or comments. Run it as
//! `cargo run -p simlint --release -- --workspace --baseline simlint.allow`.

pub mod baseline;
pub mod consistency;
pub mod lexer;
pub mod rules;
pub mod walk;

pub use baseline::Baseline;
pub use rules::{lint_source, Finding};

use std::path::Path;

/// Lints every `crates/*/src/**.rs` file under `root`, in sorted
/// order, then runs the cross-file [`consistency`] check (`D7`).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (rel, abs) in walk::workspace_files(root)? {
        let src = std::fs::read_to_string(&abs)?;
        findings.extend(lint_source(&rel, &src));
    }
    findings.extend(consistency::check(root)?);
    Ok(findings)
}
