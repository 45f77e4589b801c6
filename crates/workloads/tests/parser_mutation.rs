//! Seeded byte-mutation fuzz of the two hand-rolled parsers that read
//! input from outside the program: the scenario TOML subset
//! (`scenario_file::parse_str`) and `--faults` specs
//! (`FaultSpec::parse`).
//!
//! From a fixed seed, each case takes a known-good input (a file from
//! `examples/scenarios/`, or a fault spec from [`FAULT_SPECS`]) and
//! mutates it by truncation, byte flips, splices with another input,
//! and boundary integers ([`BOUNDARY`]). Every case that is valid UTF-8
//! must parse without panicking, and then:
//!
//! - an `Err` names a byte span inside the input;
//! - a parsed scenario's `validate()` does not panic, and its canonical
//!   rendering parses back to an equal scenario;
//! - a scenario that also validates builds its machine parts and run
//!   window the way the runner does without panicking (debug builds
//!   trap integer overflow) or saturating the clock;
//! - a parsed fault spec's rendering parses back to an equal spec.
//!
//! A failure reports the case index and the input, so the fixed seed
//! replays it.

use hypervisor::FaultSpec;
use simcore::rng::SimRng;
use simcore::time::SimDuration;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::scenario_file::parse_str;

const SEED: u64 = 0x5EED_F022_0021;

/// Integers at the edges of the parsers' integer types: zero, a
/// negative, one past `u32::MAX`, `i64::MAX`, `u64::MAX`, and one
/// beyond every 64-bit type.
const BOUNDARY: [&str; 6] = [
    "0",
    "-1",
    "4294967296",
    "9223372036854775807",
    "18446744073709551615",
    "99999999999999999999",
];

/// Known-good `--faults` specs: the forms the docs, CI and crash
/// artifacts use, plus every key and whitespace around separators.
const FAULT_SPECS: [&str; 10] = [
    "",
    "count=6,seed=5,kinds=ipi|steal|kick",
    "count=24,window_ms=300",
    "seed=7,count=40,window_ms=300,kinds=sabotage",
    "count=200,window_ms=800",
    "kinds=all",
    "count=8,window_ms=200,kinds=ipi|steal",
    "count=3,seed=1,window_ms=50,kinds=drop|burst|jitter|skew,take=2",
    " count = 12 , kinds = all | sabotage ,",
    "count=0",
];

/// The cookbook scenario files, sorted by name.
fn scenario_corpus() -> Vec<Vec<u8>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/scenarios exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenario files in {dir}");
    paths
        .iter()
        .map(|p| std::fs::read(p).expect("readable scenario file"))
        .collect()
}

/// Applies one to three random mutations to a random corpus input.
fn mutate(rng: &mut SimRng, corpus: &[Vec<u8>]) -> Vec<u8> {
    let pick = |rng: &mut SimRng| corpus[rng.below(corpus.len() as u64) as usize].clone();
    let mut buf = pick(rng);
    for _ in 0..rng.range_u64(1, 4) {
        match rng.below(4) {
            0 => {
                let at = rng.below(buf.len() as u64 + 1) as usize;
                buf.truncate(at);
            }
            1 if !buf.is_empty() => {
                let at = rng.below(buf.len() as u64) as usize;
                buf[at] ^= 1 << rng.below(8);
            }
            2 => {
                let other = pick(rng);
                let cut = rng.below(buf.len() as u64 + 1) as usize;
                let from = rng.below(other.len() as u64 + 1) as usize;
                buf.truncate(cut);
                buf.extend_from_slice(&other[from..]);
            }
            _ => {
                let value = BOUNDARY[rng.below(BOUNDARY.len() as u64) as usize].as_bytes();
                let runs = digit_runs(&buf);
                let (start, end) = if runs.is_empty() {
                    let at = rng.below(buf.len() as u64 + 1) as usize;
                    (at, at)
                } else {
                    runs[rng.below(runs.len() as u64) as usize]
                };
                buf.splice(start..end, value.iter().copied());
            }
        }
    }
    buf
}

/// Byte ranges of the maximal runs of ASCII digits in `buf`.
fn digit_runs(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < buf.len() {
        if buf[i].is_ascii_digit() {
            let start = i;
            while i < buf.len() && buf[i].is_ascii_digit() {
                i += 1;
            }
            runs.push((start, i));
        } else {
            i += 1;
        }
    }
    runs
}

/// Runs `check` on `cases` mutations of `corpus` and returns how many
/// were valid UTF-8 and how many of those parsed. Panics, listing the
/// first ten failing cases, if any check failed or panicked.
fn fuzz(
    what: &str,
    corpus: &[Vec<u8>],
    cases: usize,
    check: impl Fn(&str) -> Result<bool, String>,
) -> (usize, usize) {
    let mut rng = SimRng::new(SEED);
    let (mut utf8, mut parsed) = (0, 0);
    let mut failures = Vec::new();
    for index in 0..cases {
        let Ok(input) = String::from_utf8(mutate(&mut rng, corpus)) else {
            continue;
        };
        utf8 += 1;
        match catch_unwind(AssertUnwindSafe(|| check(&input))) {
            Ok(Ok(ok)) => parsed += usize::from(ok),
            Ok(Err(why)) => failures.push(format!("case {index}: {why}\ninput: {input:?}")),
            Err(_) => failures.push(format!("case {index}: panicked\ninput: {input:?}")),
        }
    }
    assert!(
        failures.is_empty(),
        "{what}: {} of {cases} cases failed (seed {SEED:#x}):\n{}",
        failures.len(),
        failures[..failures.len().min(10)].join("\n")
    );
    (utf8, parsed)
}

/// The verdict on a rejected input: `Ok(false)` when the error's span
/// lies inside the input.
fn clean_error(
    span: (usize, usize),
    input: &str,
    e: impl std::fmt::Display,
) -> Result<bool, String> {
    if span.0 <= span.1 && span.1 <= input.len() {
        Ok(false)
    } else {
        Err(format!(
            "error span {span:?} outside the {}-byte input: {e}",
            input.len()
        ))
    }
}

fn check_scenario(input: &str) -> Result<bool, String> {
    let sc = match parse_str("fuzz", input) {
        Ok(sc) => sc,
        Err(e) => return clean_error(e.span, input, e),
    };
    if sc.validate().is_ok() {
        let _ = sc.to_parts();
        let warm = SimDuration::from_millis(sc.run.warm_ms);
        let window = SimDuration::from_millis(sc.run.window_ms);
        if warm.as_nanos().checked_add(window.as_nanos()).is_none() {
            return Err(format!("the window ends past the clock: {:?}", sc.run));
        }
    }
    match parse_str(&sc.name, &sc.to_toml()) {
        Ok(back) if back == sc => Ok(true),
        Ok(back) => Err(format!("round trip drifted: {sc:?} -> {back:?}")),
        Err(e) => Err(format!("canonical rendering rejected: {e}")),
    }
}

fn check_fault_spec(input: &str) -> Result<bool, String> {
    let spec = match FaultSpec::parse(input) {
        Ok(spec) => spec,
        Err(e) => return clean_error(e.span, input, e),
    };
    match FaultSpec::parse(&spec.to_string()) {
        Ok(back) if back == spec => Ok(true),
        Ok(back) => Err(format!("round trip drifted: {spec} -> {back}")),
        Err(e) => Err(format!("rendering {spec} rejected: {e}")),
    }
}

#[test]
fn mutated_scenario_files_fail_cleanly_or_round_trip() {
    let (utf8, parsed) = fuzz("scenario", &scenario_corpus(), 8_000, check_scenario);
    // The mix must reach both outcomes, or the fuzz tests one parser path.
    assert!(parsed > 0 && parsed < utf8, "{parsed} of {utf8} parsed");
}

#[test]
fn mutated_fault_specs_fail_cleanly_or_round_trip() {
    let corpus: Vec<Vec<u8>> = FAULT_SPECS.iter().map(|s| s.as_bytes().to_vec()).collect();
    let (utf8, parsed) = fuzz("fault spec", &corpus, 50_000, check_fault_spec);
    assert!(parsed > 0 && parsed < utf8, "{parsed} of {utf8} parsed");
}
