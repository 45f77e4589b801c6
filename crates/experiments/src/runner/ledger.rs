//! The run ledger behind `repro --resume`: committed experiment output,
//! persisted so a killed suite can restart without redoing (or worse,
//! re-printing differently) the work it already finished.
//!
//! The commit unit is one whole experiment's rendered stdout. Cells are
//! the unit of *execution*, but they do not own output bytes — a grid's
//! cells merge into shared tables — so per-cell resume would have to
//! re-merge partial state and could never re-emit bytes verbatim. An
//! experiment's bytes, by contrast, are a pure function of the options
//! fingerprint, so replaying them from the ledger is exact: a SIGKILL'd
//! `repro all --resume` restarted with the same command line produces
//! byte-identical stdout (`tests/crash_resilience.rs` and `ci.sh` both
//! enforce this).
//!
//! The file format is append-only and torn-tail tolerant. A run that
//! dies mid-commit leaves a truncated last record; reopening the ledger
//! keeps every intact record before it and drops the tail — exactly the
//! experiments whose output never reached stdout completely. Each
//! record's payload is guarded by a length and an FNV-1a hash, so a
//! corrupt middle cannot replay garbage: parsing stops at the first
//! record that fails validation.
//!
//! ```text
//! RUNLEDGER v1
//! fingerprint 0x1f2e3d4c5b6a7988
//! begin fig4 1234 0xabcdef0123456789
//! <exactly 1234 payload bytes>
//! end fig4
//! ```
//!
//! The ledger is advisory state keyed by a config fingerprint: opening
//! it under different options (seed, quick, faults, csv...) discards it
//! and starts fresh, because recorded bytes from a different
//! configuration would be wrong to replay.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// FNV-1a 64-bit hash — small, dependency-free, and plenty for
/// detecting torn or corrupted ledger records (this is integrity
/// checking against crashes, not an adversary).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Committed experiment output, persisted across runs.
#[derive(Debug)]
pub struct RunLedger {
    path: PathBuf,
    fingerprint: u64,
    entries: BTreeMap<String, String>,
    /// Guards double commits of the same id within one run (e.g.
    /// `repro fig4 fig4 --resume`): first commit wins, later ones no-op.
    committed: Mutex<Vec<String>>,
}

impl RunLedger {
    /// Opens the ledger at `path` for a run whose output-determining
    /// options hash to `fingerprint`. An existing ledger with a matching
    /// fingerprint is loaded (tolerating a torn tail); a missing,
    /// mismatched, or unparseable one starts empty. A file that is not
    /// byte-exact (torn tail, foreign fingerprint, garbage) is compacted
    /// back to its valid records so later appends land after intact
    /// bytes. Never fails — resume state is advisory, and the worst case
    /// is redoing work.
    pub fn open(path: &Path, fingerprint: u64) -> Self {
        let mut entries = BTreeMap::new();
        if let Ok(bytes) = std::fs::read(path) {
            let clean = match parse(&bytes, fingerprint) {
                Some((parsed, clean)) => {
                    entries = parsed;
                    clean
                }
                None => false,
            };
            if !clean {
                let mut canonical = header(fingerprint);
                for (id, payload) in &entries {
                    canonical.push_str(&format!(
                        "begin {} {} {:#018x}\n",
                        id,
                        payload.len(),
                        fnv64(payload.as_bytes())
                    ));
                    canonical.push_str(payload);
                    canonical.push_str(&format!("end {id}\n"));
                }
                if let Err(e) = std::fs::write(path, canonical) {
                    eprintln!("could not compact run ledger {}: {e}", path.display());
                }
            }
        }
        RunLedger {
            path: path.to_path_buf(),
            fingerprint,
            entries,
            committed: Mutex::new(Vec::new()),
        }
    }

    /// The recorded stdout of `experiment`, if it was committed by a
    /// previous run under the same fingerprint.
    pub fn completed(&self, experiment: &str) -> Option<&str> {
        self.entries.get(experiment).map(String::as_str)
    }

    /// Number of committed experiments loaded from disk.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no experiments have been committed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends `experiment`'s rendered stdout to the ledger. Called on
    /// the commit thread *after* the bytes went to stdout, so a crash
    /// between print and commit merely redoes that experiment on resume
    /// (the resumed run re-prints it identically — bytes are
    /// deterministic). A filesystem error is reported on stderr and
    /// swallowed: the ledger is an accelerator, never a gate.
    pub fn commit(&self, experiment: &str, output: &str) {
        if self.entries.contains_key(experiment) {
            return; // Already on disk from a previous run.
        }
        {
            let mut committed = self
                .committed
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if committed.iter().any(|c| c == experiment) {
                return;
            }
            committed.push(experiment.to_string());
        }
        let mut record = Vec::with_capacity(output.len() + 64);
        if !self.path.exists() || std::fs::metadata(&self.path).map_or(true, |m| m.len() == 0) {
            record.extend_from_slice(header(self.fingerprint).as_bytes());
        }
        record.extend_from_slice(
            format!(
                "begin {} {} {:#018x}\n",
                experiment,
                output.len(),
                fnv64(output.as_bytes())
            )
            .as_bytes(),
        );
        record.extend_from_slice(output.as_bytes());
        record.extend_from_slice(format!("end {experiment}\n").as_bytes());
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut f| f.write_all(&record));
        if let Err(e) = appended {
            eprintln!(
                "could not append to run ledger {}: {e}",
                self.path.display()
            );
        }
    }
}

fn header(fingerprint: u64) -> String {
    format!("RUNLEDGER v1\nfingerprint {fingerprint:#018x}\n")
}

/// Parses ledger bytes. Returns `None` on a missing/mismatched header
/// (caller starts fresh); otherwise every record that validates before
/// the first torn or corrupt one, plus whether the file was byte-exact
/// (no leftover tail needing compaction).
fn parse(bytes: &[u8], fingerprint: u64) -> Option<(BTreeMap<String, String>, bool)> {
    let rest = bytes.strip_prefix(b"RUNLEDGER v1\n")?;
    let (line, mut rest) = take_line(rest)?;
    let fp = line.strip_prefix("fingerprint ")?;
    let fp = u64::from_str_radix(fp.trim().trim_start_matches("0x"), 16).ok()?;
    if fp != fingerprint {
        return None;
    }
    let mut entries = BTreeMap::new();
    while !rest.is_empty() {
        let Some(parsed) = parse_record(rest) else {
            return Some((entries, false)); // Torn tail: keep the prefix.
        };
        let (id, payload, after) = parsed;
        entries.insert(id, payload);
        rest = after;
    }
    Some((entries, true))
}

/// Parses one `begin ... end` record, returning `None` if it is torn,
/// corrupt, or fails its hash.
fn parse_record(bytes: &[u8]) -> Option<(String, String, &[u8])> {
    let (line, rest) = take_line(bytes)?;
    let mut fields = line.strip_prefix("begin ")?.split_ascii_whitespace();
    let id = fields.next()?;
    let len: usize = fields.next()?.parse().ok()?;
    let hash = u64::from_str_radix(fields.next()?.trim_start_matches("0x"), 16).ok()?;
    if rest.len() < len {
        return None; // Payload truncated by a crash mid-write.
    }
    let (payload, rest) = rest.split_at(len);
    if fnv64(payload) != hash {
        return None;
    }
    let payload = String::from_utf8(payload.to_vec()).ok()?;
    let (trailer, rest) = take_line(rest)?;
    if trailer != format!("end {id}") {
        return None;
    }
    Some((id.to_string(), payload, rest))
}

/// Splits off the first `\n`-terminated line as UTF-8.
fn take_line(bytes: &[u8]) -> Option<(&str, &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&bytes[..nl]).ok()?;
    Some((line, &bytes[nl + 1..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ledger_{tag}_{}.txt", std::process::id()))
    }

    #[test]
    fn roundtrips_multiline_payloads() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let ledger = RunLedger::open(&path, 42);
        assert!(ledger.is_empty());
        ledger.commit("fig4", "a table\nwith lines\n");
        ledger.commit("table2", "| x | 1 |\n");
        let back = RunLedger::open(&path, 42);
        assert_eq!(back.len(), 2);
        assert_eq!(back.completed("fig4"), Some("a table\nwith lines\n"));
        assert_eq!(back.completed("table2"), Some("| x | 1 |\n"));
        assert_eq!(back.completed("fig9"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_discards_the_file() {
        let path = temp_path("fp");
        std::fs::remove_file(&path).ok();
        RunLedger::open(&path, 1).commit("fig4", "bytes\n");
        let other = RunLedger::open(&path, 2);
        assert!(
            other.is_empty(),
            "a foreign fingerprint must not replay recorded bytes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_keeps_intact_prefix() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        let ledger = RunLedger::open(&path, 7);
        ledger.commit("fig4", "first\n");
        ledger.commit("fig5", "second\n");
        // Simulate a SIGKILL mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let back = RunLedger::open(&path, 7);
        assert_eq!(back.completed("fig4"), Some("first\n"));
        assert_eq!(back.completed("fig5"), None, "torn record must drop");
        // Appends after a torn-tail open land on compacted, intact bytes.
        back.commit("fig5", "second again\n");
        let again = RunLedger::open(&path, 7);
        assert_eq!(again.completed("fig4"), Some("first\n"));
        assert_eq!(again.completed("fig5"), Some("second again\n"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_fails_its_hash() {
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        RunLedger::open(&path, 7).commit("fig4", "payload\n");
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 12; // Inside the payload.
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(RunLedger::open(&path, 7).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn double_commit_is_idempotent() {
        let path = temp_path("double");
        std::fs::remove_file(&path).ok();
        let ledger = RunLedger::open(&path, 7);
        ledger.commit("fig4", "once\n");
        ledger.commit("fig4", "twice\n");
        let back = RunLedger::open(&path, 7);
        assert_eq!(back.len(), 1);
        assert_eq!(back.completed("fig4"), Some("once\n"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_and_missing_files_open_empty() {
        let missing = RunLedger::open(Path::new("/nonexistent/ledger.txt"), 7);
        assert!(missing.is_empty());
        let path = temp_path("garbage");
        std::fs::write(&path, "not a ledger at all\n\u{0}\u{1}").unwrap();
        assert!(RunLedger::open(&path, 7).is_empty());
        std::fs::remove_file(&path).ok();
    }
}
