//! The determinism & poisoning rules (D1–D6) and their matching engine.
//!
//! Each rule is a set of token patterns plus a *scope*: the crates it
//! applies to and the files that are exempt. Matching runs over the
//! comment-free token stream, so occurrences inside strings or comments
//! never fire. Code under any item carrying a `test` attribute
//! (`#[test]`, `#[cfg(test)]`, `#[cfg_attr(test, ...)]`) is exempt from
//! every rule — test-only state cannot leak into simulation output.
//!
//! Two justification-comment forms suppress a finding — from a trailing
//! comment on the offending line, or from anywhere in the contiguous
//! comment block directly above it:
//!
//! - `PANIC-OK(<reason>)` after `//` — suppresses D4 only;
//! - `SIMLINT: <reason>` after `//` — suppresses D1/D2/D3/D5/D6.
//!
//! The tag must open the comment line (prose that merely mentions a tag
//! mid-sentence is ignored), and the reason must be non-empty — a tag
//! with a missing reason is itself reported as rule `J0` so it cannot
//! silently suppress nothing.

use crate::lexer::{lex, Token, TokenKind};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`D1`..`D7`, `J0`).
    pub rule: &'static str,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// The offending token run (the matched tokens, joined).
    pub tokens: String,
    /// The trimmed source line, for humans and for the fingerprint.
    pub snippet: String,
    /// How to fix or justify the finding.
    pub hint: &'static str,
    /// Line-move-tolerant identity used by the baseline file.
    pub fingerprint: u64,
}

/// Which justification-comment kind a rule accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JustKind {
    /// `// PANIC-OK(<reason>)`
    PanicOk,
    /// `// SIMLINT: <reason>`
    Simlint,
}

/// A token pattern a rule scans for.
enum Pat {
    /// A bare identifier.
    Ident(&'static str),
    /// A sequence of identifiers and punctuation runs, e.g.
    /// `&["SimRng", "::", "new"]` (punctuation matched char by char).
    Seq(&'static [&'static str]),
    /// `.name(` — a method call.
    Method(&'static str),
    /// `name!` — a macro invocation.
    Macro(&'static str),
    /// Like [`Pat::Seq`] but with arbitrary tokens allowed *between*
    /// items, constrained to a single source line. `&["+=", "f64"]`
    /// matches `self.mean += delta / self.count as f64;` — the `+=`
    /// itself is still matched contiguously (each item is), only the
    /// gaps between items are free.
    Line(&'static [&'static str]),
}

struct RuleDef {
    id: &'static str,
    /// `None` = every crate in the workspace; `Some` = only these.
    crates: Option<&'static [&'static str]>,
    /// Workspace-relative files exempt from this rule.
    allow: &'static [&'static str],
    pats: &'static [Pat],
    just: JustKind,
    hint: &'static str,
}

/// The sim-logic crates wall-clock reads are banned from (D1).
const SIM_CRATES: &[&str] = &["simcore", "hypervisor", "guest", "workloads"];

/// The crates whose `f64` state is simulation-reachable (D6): the sim
/// logic crates plus `metrics`, whose accumulators are folded into
/// rendered experiment output.
const FLOAT_CRATES: &[&str] = &["simcore", "hypervisor", "guest", "workloads", "metrics"];

const RULES: &[RuleDef] = &[
    RuleDef {
        id: "D1",
        crates: Some(SIM_CRATES),
        allow: &["crates/simcore/src/watchdog.rs"],
        pats: &[Pat::Ident("Instant"), Pat::Ident("SystemTime")],
        just: JustKind::Simlint,
        hint: "sim logic must take time from the simulated clock (simcore::time); \
               wall-clock reads live only in the watchdog and the runner's timing paths",
    },
    RuleDef {
        id: "D2",
        crates: None,
        allow: &[],
        pats: &[
            Pat::Ident("HashMap"),
            Pat::Ident("HashSet"),
            Pat::Ident("RandomState"),
        ],
        just: JustKind::Simlint,
        hint: "hash iteration order is seeded per-process and can leak into output; \
               use BTreeMap/BTreeSet, or justify why order provably never escapes",
    },
    RuleDef {
        id: "D3",
        crates: None,
        allow: &["crates/simcore/src/rng.rs"],
        pats: &[
            Pat::Seq(&["SimRng", "::", "new"]),
            Pat::Ident("thread_rng"),
            Pat::Ident("from_entropy"),
            Pat::Ident("StdRng"),
            Pat::Ident("SmallRng"),
        ],
        just: JustKind::Simlint,
        hint: "draw randomness by forking the machine's seeded simcore::rng streams; \
               constructing a fresh generator forks the determinism proof instead",
    },
    RuleDef {
        id: "D4",
        crates: Some(&["hypervisor"]),
        allow: &[],
        pats: &[
            Pat::Method("unwrap"),
            Pat::Method("expect"),
            Pat::Macro("panic"),
            Pat::Macro("unreachable"),
            Pat::Macro("todo"),
            Pat::Macro("unimplemented"),
        ],
        just: JustKind::PanicOk,
        hint: "hypervisor run paths are Result-poisoned (SimError); return an error, \
               or tag the site if the panic is unreachable by construction",
    },
    RuleDef {
        id: "D5",
        crates: None,
        allow: &[
            "crates/experiments/src/runner/pool.rs",
            "crates/simcore/src/watchdog.rs",
        ],
        pats: &[
            Pat::Seq(&["thread", "::", "spawn"]),
            Pat::Seq(&["thread", "::", "scope"]),
            Pat::Method("spawn"),
            Pat::Ident("mpsc"),
            Pat::Ident("Condvar"),
        ],
        just: JustKind::Simlint,
        hint: "ad-hoc threads and channels race the index-ordered commit discipline; \
               only runner::pool and the watchdog manage threads",
    },
    RuleDef {
        id: "D6",
        crates: Some(FLOAT_CRATES),
        allow: &[],
        pats: &[
            // Turbofish float reductions: `.sum::<f64>()` etc.
            Pat::Seq(&[".", "sum", "::", "<", "f64"]),
            Pat::Seq(&[".", "sum", "::", "<", "f32"]),
            Pat::Seq(&[".", "product", "::", "<", "f64"]),
            Pat::Seq(&[".", "product", "::", "<", "f32"]),
            // Annotated float reductions: `let t: f64 = xs.iter().sum();`
            Pat::Line(&["f64", "=", "sum"]),
            Pat::Line(&["f64", "=", "product"]),
            Pat::Line(&["f32", "=", "sum"]),
            Pat::Line(&["f32", "=", "product"]),
            // In-place float accumulation: `acc += x as f64;`
            Pat::Line(&["+=", "f64"]),
            Pat::Line(&["-=", "f64"]),
            Pat::Line(&["+=", "f32"]),
            Pat::Line(&["-=", "f32"]),
        ],
        just: JustKind::Simlint,
        hint: "float addition is not associative, so an f64 accumulation is only \
               deterministic if its fold order is; sum in integer nanoseconds, or \
               justify why the iteration order provably never varies",
    },
];

const J0_HINT: &str = "justification tags need a reason: \
                       `PANIC-OK(<reason>)` / `SIMLINT: <reason>` after `//`";

/// The crate a workspace-relative path belongs to (`crates/<name>/...`).
fn crate_of(path: &str) -> Option<&str> {
    let mut parts = path.split('/');
    if parts.next() == Some("crates") {
        parts.next()
    } else {
        None
    }
}

/// Byte ranges covered by items carrying a `test` attribute.
fn test_regions(src: &str, code: &[&Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if !(t.kind == TokenKind::Punct && t.text(src) == "#") {
            i += 1;
            continue;
        }
        // Inner attribute `#![...]`: skip its bracket group.
        if code.get(i + 1).is_some_and(|n| n.text(src) == "!") {
            i += 2;
            continue;
        }
        if code.get(i + 1).is_none_or(|n| n.text(src) != "[") {
            i += 1;
            continue;
        }
        let region_start = t.start;
        // One or more outer attributes; remember whether any mentions
        // the `test` ident (covers #[test], #[cfg(test)], #[cfg_attr(test, ..)]).
        let mut is_test = false;
        while code.get(i).is_some_and(|t| t.text(src) == "#")
            && code.get(i + 1).is_some_and(|t| t.text(src) == "[")
        {
            i += 2;
            let mut depth = 1usize;
            while i < code.len() && depth > 0 {
                match code[i].text(src) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    "test" if code[i].kind == TokenKind::Ident => is_test = true,
                    _ => {}
                }
                i += 1;
            }
        }
        if !is_test {
            continue;
        }
        // The attributed item extends to its closing `}` (fn/mod/impl
        // body) or to a `;` that appears before any `{`.
        let mut end = None;
        let mut j = i;
        while j < code.len() {
            match code[j].text(src) {
                ";" => {
                    end = Some(code[j].end);
                    break;
                }
                "{" => {
                    let mut depth = 1usize;
                    j += 1;
                    while j < code.len() && depth > 0 {
                        match code[j].text(src) {
                            "{" => depth += 1,
                            "}" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                    end = Some(code.get(j - 1).map_or(src.len(), |t| t.end));
                    break;
                }
                _ => j += 1,
            }
        }
        regions.push((region_start, end.unwrap_or(src.len())));
        i = j;
    }
    regions
}

/// A justification comment: kind + the line it sits on.
struct Justification {
    kind: JustKind,
    line: u32,
}

/// Extracts justification tags (and malformed-tag `J0` findings) from
/// the comment tokens.
fn justifications(src: &str, toks: &[Token], path: &str) -> (Vec<Justification>, Vec<Finding>) {
    let mut justs = Vec::new();
    let mut bad = Vec::new();
    for t in toks {
        if t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment {
            continue;
        }
        let body = t
            .text(src)
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start_matches('!')
            .trim_start();
        let (kind, rest) = if let Some(rest) = body.strip_prefix("PANIC-OK") {
            (JustKind::PanicOk, rest)
        } else if let Some(rest) = body.strip_prefix("SIMLINT") {
            (JustKind::Simlint, rest)
        } else {
            continue;
        };
        let reason_ok = match kind {
            JustKind::PanicOk => rest
                .strip_prefix('(')
                .and_then(|r| r.split_once(')'))
                .is_some_and(|(reason, _)| !reason.trim().is_empty()),
            JustKind::Simlint => rest.strip_prefix(':').is_some_and(|r| !r.trim().is_empty()),
        };
        if reason_ok {
            justs.push(Justification { kind, line: t.line });
        } else {
            bad.push(Finding {
                rule: "J0",
                path: path.to_string(),
                line: t.line,
                col: t.col,
                tokens: body.chars().take(24).collect(),
                snippet: line_text(src, t.line),
                hint: J0_HINT,
                fingerprint: 0,
            });
        }
    }
    (justs, bad)
}

/// The trimmed text of 1-based line `n`.
fn line_text(src: &str, n: u32) -> String {
    src.lines()
        .nth(n as usize - 1)
        .unwrap_or("")
        .trim()
        .to_string()
}

/// Collapses whitespace runs so the fingerprint tolerates reformatting
/// within a line as well as line moves.
pub(crate) fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

pub(crate) fn fnv1a64(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        for &b in p.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff; // part separator
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Matches `pat` at `code[i]`, returning the number of tokens consumed.
fn match_pat(src: &str, code: &[&Token], i: usize, pat: &Pat) -> Option<usize> {
    let tok = code[i];
    match pat {
        Pat::Ident(name) => (tok.kind == TokenKind::Ident && tok.text(src) == *name).then_some(1),
        Pat::Macro(name) => (tok.kind == TokenKind::Ident
            && tok.text(src) == *name
            && code.get(i + 1).is_some_and(|n| n.text(src) == "!"))
        .then_some(2),
        Pat::Method(name) => (tok.text(src) == "."
            && code
                .get(i + 1)
                .is_some_and(|n| n.kind == TokenKind::Ident && n.text(src) == *name)
            && code.get(i + 2).is_some_and(|n| n.text(src) == "("))
        .then_some(3),
        Pat::Seq(items) => {
            let mut j = i;
            for item in *items {
                j += match_item(src, code, j, item)?;
            }
            Some(j - i)
        }
        Pat::Line(items) => {
            let line = tok.line;
            let (first, rest) = items.split_first()?;
            let mut j = i + match_item(src, code, i, first)?;
            for item in rest {
                // Skip forward to the item, staying on the first
                // item's source line.
                loop {
                    let t = code.get(j)?;
                    if t.line != line {
                        return None;
                    }
                    if let Some(n) = match_item(src, code, j, item) {
                        j += n;
                        break;
                    }
                    j += 1;
                }
            }
            Some(j - i)
        }
    }
}

/// Matches one [`Pat::Seq`]/[`Pat::Line`] item at `code[j]`: an
/// all-punctuation item char by char against consecutive punct tokens,
/// anything else as a single identifier. Returns the tokens consumed.
fn match_item(src: &str, code: &[&Token], j: usize, item: &str) -> Option<usize> {
    if item.chars().all(|c| c.is_ascii_punctuation()) {
        for (k, ch) in item.chars().enumerate() {
            let t = code.get(j + k)?;
            if !(t.kind == TokenKind::Punct && t.text(src) == ch.to_string()) {
                return None;
            }
        }
        Some(item.chars().count())
    } else {
        let t = code.get(j)?;
        (t.kind == TokenKind::Ident && t.text(src) == item).then_some(1)
    }
}

/// Lints one file's source. `path` must be workspace-relative
/// (`crates/<name>/src/...`) — it selects which rules are in scope.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let toks = lex(src);
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment)
        .collect();
    let regions = test_regions(src, &code);
    let (justs, mut findings) = justifications(src, &toks, path);
    let in_test = |pos: usize| regions.iter().any(|&(s, e)| pos >= s && pos < e);
    // A justification block is a run of comment-only lines; blank lines
    // or interleaved code break it.
    let code_lines: std::collections::BTreeSet<u32> = code.iter().map(|t| t.line).collect();
    let comment_lines: std::collections::BTreeSet<u32> = toks
        .iter()
        .filter(|t| t.kind == TokenKind::LineComment || t.kind == TokenKind::BlockComment)
        .map(|t| t.line)
        .collect();
    let justified = |kind: JustKind, line: u32| {
        let tag_at = |l: u32| justs.iter().any(|j| j.kind == kind && j.line == l);
        if tag_at(line) {
            return true;
        }
        // Scan the contiguous comment block directly above.
        let mut l = line;
        while l > 1 && comment_lines.contains(&(l - 1)) && !code_lines.contains(&(l - 1)) {
            l -= 1;
            if tag_at(l) {
                return true;
            }
        }
        false
    };

    let krate = crate_of(path);
    for rule in RULES {
        if let Some(crates) = rule.crates {
            match krate {
                Some(k) if crates.contains(&k) => {}
                _ => continue,
            }
        }
        if rule.allow.contains(&path) {
            continue;
        }
        for i in 0..code.len() {
            let Some(len) = rule.pats.iter().find_map(|p| match_pat(src, &code, i, p)) else {
                continue;
            };
            let first = code[i];
            if in_test(first.start) || justified(rule.just, first.line) {
                continue;
            }
            let tokens = code[i..i + len]
                .iter()
                .map(|t| t.text(src))
                .collect::<String>();
            findings.push(Finding {
                rule: rule.id,
                path: path.to_string(),
                line: first.line,
                col: first.col,
                tokens,
                snippet: line_text(src, first.line),
                hint: rule.hint,
                fingerprint: 0,
            });
        }
    }

    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    // Fingerprints: rule + path + normalized snippet + the occurrence
    // index among identical (rule, snippet) pairs — stable under line
    // moves, distinct for repeated identical violations.
    let mut occ: Vec<(String, u32)> = Vec::new();
    for f in &mut findings {
        let norm = normalize(&f.snippet);
        let key = format!("{}\u{1}{}", f.rule, norm);
        let n = match occ.iter_mut().find(|(k, _)| *k == key) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                occ.push((key, 0));
                0
            }
        };
        f.fingerprint = fnv1a64(&[f.rule, &f.path, &norm, &n.to_string()]);
    }
    findings
}
