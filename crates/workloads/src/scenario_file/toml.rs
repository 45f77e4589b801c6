//! A hand-rolled TOML-subset parser for scenario files.
//!
//! The workspace vendors no crates.io dependencies (the same policy that
//! produced the simlint lexer), so the scenario loader parses its own
//! input. The subset is deliberately small —
//! exactly what a scenario needs, nothing a scenario could abuse:
//!
//! - `[table]` headers and `[[array.of.tables]]` headers with dotted
//!   paths (`[[vm.task]]` nests a task under the most recent `[[vm]]`),
//! - `key = value` pairs where a value is an integer, a `"string"`, a
//!   boolean, or a single-line `[v1, v2, ...]` list,
//! - `#` comments (whole-line and trailing), and blank lines.
//!
//! No dates, no floats, no multi-line strings, no inline tables, no
//! key dotting — a scenario that needs one of those is a scenario this
//! schema does not describe. Every syntax error is a typed
//! [`TomlError`] naming the offending token, its byte span within the
//! file, and its line — the same contract as
//! `hypervisor::FaultSpecError`, so `repro --scenario` failures point at
//! the exact input byte.
//!
//! The parser produces a flat [`Document`] of [`Block`]s in file order;
//! the schema layer (`scenario_file`) interprets block paths and key
//! types. Keeping the two layers separate is what makes the second layer
//! of validation (semantic checks over a typed `Scenario`) possible —
//! see `DESIGN.md` §4.11.

/// A parsed value: the TOML subset's four shapes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// A decimal integer (underscore separators allowed).
    Int(i64),
    /// A double-quoted string (escapes: `\"`, `\\`, `\n`, `\t`).
    Str(String),
    /// `true` or `false`.
    Bool(bool),
    /// A single-line `[a, b, c]` list (trailing comma allowed).
    List(Vec<Value>),
}

impl Value {
    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "integer",
            Value::Str(_) => "string",
            Value::Bool(_) => "boolean",
            Value::List(_) => "list",
        }
    }
}

/// One `key = value` entry with the source positions of both sides.
#[derive(Clone, Debug)]
pub struct Entry {
    /// The bare key.
    pub key: String,
    /// Byte span of the key within the file.
    pub key_span: (usize, usize),
    /// The parsed value.
    pub value: Value,
    /// Byte span of the value within the file.
    pub value_span: (usize, usize),
    /// 1-based line of the entry.
    pub line: u32,
}

/// One table block: a `[header]` or `[[header]]` plus the entries below
/// it (up to the next header). Entries before any header form an
/// implicit root block with an empty path.
#[derive(Clone, Debug)]
pub struct Block {
    /// Dotted header path, split (`[[vm.task]]` → `["vm", "task"]`);
    /// empty for the implicit root block.
    pub path: Vec<String>,
    /// Whether the header used array-of-tables syntax (`[[...]]`).
    pub array: bool,
    /// Byte span of the header (the root block spans its first entry).
    pub span: (usize, usize),
    /// 1-based line of the header.
    pub line: u32,
    /// The entries in file order.
    pub entries: Vec<Entry>,
}

impl Block {
    /// The dotted path as written (`"vm.task"`).
    pub fn path_str(&self) -> String {
        self.path.join(".")
    }
}

/// A parsed scenario file: its blocks, in file order.
#[derive(Clone, Debug, Default)]
pub struct Document {
    /// The blocks, in file order (see [`Block`]).
    pub blocks: Vec<Block>,
}

/// A malformed scenario file: which token is wrong, where it sits, and
/// why it was rejected. Mirrors `hypervisor::FaultSpecError` — never a
/// panic, never a silent default.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// The offending token, verbatim (possibly truncated for display).
    pub token: String,
    /// Byte span `[start, end)` of the token within the file.
    pub span: (usize, usize),
    /// 1-based line of the token.
    pub line: u32,
    /// What is wrong with it.
    pub reason: String,
}

impl core::fmt::Display for TomlError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "line {}, bytes {}..{}: {:?}: {}",
            self.line, self.span.0, self.span.1, self.token, self.reason
        )
    }
}

impl std::error::Error for TomlError {}

impl TomlError {
    /// An error for `token` starting at byte `start` on `line`.
    pub fn at(token: &str, start: usize, line: u32, reason: impl Into<String>) -> Self {
        let display: String = token.chars().take(40).collect();
        TomlError {
            token: display,
            span: (start, start + token.len()),
            line,
            reason: reason.into(),
        }
    }
}

/// True for the characters a bare key or header segment may contain.
fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Strips a trailing `#` comment from a physical line, respecting quoted
/// strings. Returns the content before the comment.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one `[header]` / `[[header]]` line into a path and arrayness.
fn parse_header(
    content: &str,
    base: usize,
    line_no: u32,
) -> Result<(Vec<String>, bool), TomlError> {
    let array = content.starts_with("[[");
    let (open, close) = if array { ("[[", "]]") } else { ("[", "]") };
    let inner = content
        .strip_prefix(open)
        .and_then(|s| s.strip_suffix(close))
        .ok_or_else(|| {
            TomlError::at(
                content,
                base,
                line_no,
                format!("malformed table header (expected `{open}name{close}`)"),
            )
        })?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Err(TomlError::at(content, base, line_no, "empty table header"));
    }
    let mut path = Vec::new();
    for seg in inner.split('.') {
        let seg = seg.trim();
        if seg.is_empty() || !seg.chars().all(is_key_char) {
            return Err(TomlError::at(
                inner,
                base + open.len(),
                line_no,
                "header segments must be bare keys ([a-zA-Z0-9_-]+) separated by dots",
            ));
        }
        path.push(seg.to_string());
    }
    Ok((path, array))
}

/// Renders `s` as a double-quoted string that [`parse`] reads back as
/// `s`. It emits exactly the four escapes the parser accepts (`\"`,
/// `\\`, `\n`, `\t`) and writes every other character raw; Rust's
/// `{:?}` would also write `\r` and `\u{..}` escapes, which the parser
/// rejects.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parses one value starting at `s[pos..]` (within one line). Returns
/// the value and the position just past it.
fn parse_value(
    s: &str,
    pos: usize,
    base: usize,
    line_no: u32,
) -> Result<(Value, usize), TomlError> {
    let rest = &s[pos..];
    let lead = rest.len() - rest.trim_start().len();
    let start = pos + lead;
    let rest = &s[start..];
    let Some(first) = rest.chars().next() else {
        return Err(TomlError::at("", base + start, line_no, "missing value"));
    };
    match first {
        '"' => {
            let mut out = String::new();
            let mut chars = rest.char_indices().skip(1);
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => return Ok((Value::Str(out), start + i + 1)),
                    '\\' => match chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 't')) => out.push('\t'),
                        other => {
                            return Err(TomlError::at(
                                &rest[i..rest.len().min(i + 2)],
                                base + start + i,
                                line_no,
                                format!(
                                    "unsupported escape {:?} (only \\\" \\\\ \\n \\t)",
                                    other.map(|(_, c)| c).unwrap_or('\0')
                                ),
                            ));
                        }
                    },
                    _ => out.push(c),
                }
            }
            Err(TomlError::at(
                rest,
                base + start,
                line_no,
                "unterminated string",
            ))
        }
        '[' => {
            let mut items = Vec::new();
            let mut p = start + 1;
            loop {
                let tail = &s[p..];
                let lead = tail.len() - tail.trim_start().len();
                p += lead;
                match s[p..].chars().next() {
                    Some(']') => return Ok((Value::List(items), p + 1)),
                    None => {
                        return Err(TomlError::at(
                            &s[start..],
                            base + start,
                            line_no,
                            "unterminated list (lists are single-line)",
                        ));
                    }
                    _ => {}
                }
                let (v, after) = parse_value(s, p, base, line_no)?;
                items.push(v);
                let tail = &s[after..];
                let lead = tail.len() - tail.trim_start().len();
                p = after + lead;
                match s[p..].chars().next() {
                    Some(',') => p += 1,
                    Some(']') => {}
                    _ => {
                        return Err(TomlError::at(
                            &s[p..],
                            base + p,
                            line_no,
                            "expected `,` or `]` in list",
                        ));
                    }
                }
            }
        }
        _ => {
            let end = rest
                .find(|c: char| c == ',' || c == ']' || c.is_whitespace())
                .unwrap_or(rest.len());
            let word = &rest[..end];
            match word {
                "true" => Ok((Value::Bool(true), start + end)),
                "false" => Ok((Value::Bool(false), start + end)),
                "" => Err(TomlError::at(rest, base + start, line_no, "missing value")),
                _ => {
                    let digits: String = word.chars().filter(|&c| c != '_').collect();
                    digits
                        .parse::<i64>()
                        .map(|n| (Value::Int(n), start + end))
                        .map_err(|_| {
                            TomlError::at(
                                word,
                                base + start,
                                line_no,
                                "expected an integer, \"string\", boolean, or [list]",
                            )
                        })
                }
            }
        }
    }
}

/// Parses a scenario file into a [`Document`].
///
/// Errors are typed [`TomlError`]s with token, byte span, and line —
/// the first problem aborts the parse (a config file with one error is
/// not trustworthy input for a determinism-critical run).
pub fn parse(src: &str) -> Result<Document, TomlError> {
    let mut doc = Document::default();
    let mut offset = 0usize;
    let mut line_no = 0u32;
    for raw_line in src.split('\n') {
        line_no += 1;
        let base = offset;
        offset += raw_line.len() + 1;
        let content = strip_comment(raw_line);
        let trimmed = content.trim();
        if trimmed.is_empty() {
            continue;
        }
        let at = base + (content.len() - content.trim_start().len());
        if trimmed.starts_with('[') {
            // Headers are the only construct that may open a line with
            // `[` (lists appear only on the value side of an entry).
            let (path, array) = parse_header(trimmed, at, line_no)?;
            doc.blocks.push(Block {
                path,
                array,
                span: (at, at + trimmed.len()),
                line: line_no,
                entries: Vec::new(),
            });
            continue;
        }
        // A `key = value` entry.
        let Some(eq) = trimmed.find('=') else {
            return Err(TomlError::at(
                trimmed,
                at,
                line_no,
                "expected `key = value` or a `[table]` header",
            ));
        };
        let key = trimmed[..eq].trim();
        if key.is_empty() || !key.chars().all(is_key_char) {
            return Err(TomlError::at(
                trimmed[..eq].trim(),
                at,
                line_no,
                "keys must be bare ([a-zA-Z0-9_-]+)",
            ));
        }
        let key_at = at; // `trimmed` starts with the key.
        let (value, after) = parse_value(trimmed, eq + 1, at, line_no)?;
        let value_at = {
            let rest = &trimmed[eq + 1..];
            at + eq + 1 + (rest.len() - rest.trim_start().len())
        };
        let tail = trimmed[after..].trim();
        if !tail.is_empty() {
            return Err(TomlError::at(
                tail,
                at + after,
                line_no,
                "trailing characters after value",
            ));
        }
        let entry = Entry {
            key: key.to_string(),
            key_span: (key_at, key_at + key.len()),
            value,
            value_span: (value_at, at + after),
            line: line_no,
        };
        match doc.blocks.last_mut() {
            Some(b) => b.entries.push(entry),
            None => {
                // Entries before any header: implicit root block.
                doc.blocks.push(Block {
                    path: Vec::new(),
                    array: false,
                    span: (key_at, key_at + key.len()),
                    line: line_no,
                    entries: vec![entry],
                });
            }
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_tables_arrays_and_values() {
        let src = r#"
# a scenario
[scenario]
name = "demo"   # trailing comment

[machine]
pcpus = 12

[[vm]]
vcpus = 4
endless = true
[[vm.pin]]
vcpu = 0
pcpus = [0, 1, 2]
"#;
        let doc = parse(src).unwrap();
        let paths: Vec<(String, bool)> =
            doc.blocks.iter().map(|b| (b.path_str(), b.array)).collect();
        assert_eq!(
            paths,
            vec![
                ("scenario".into(), false),
                ("machine".into(), false),
                ("vm".into(), true),
                ("vm.pin".into(), true),
            ]
        );
        assert_eq!(doc.blocks[0].entries[0].key, "name");
        assert_eq!(doc.blocks[0].entries[0].value, Value::Str("demo".into()));
        assert_eq!(doc.blocks[1].entries[0].value, Value::Int(12));
        assert_eq!(doc.blocks[2].entries[1].value, Value::Bool(true));
        assert_eq!(
            doc.blocks[3].entries[1].value,
            Value::List(vec![Value::Int(0), Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn errors_carry_token_span_and_line() {
        let src = "[machine]\npcpus = twelve\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.token, "twelve");
        assert_eq!(e.line, 2);
        assert_eq!(&src[e.span.0..e.span.1], "twelve");

        let e = parse("[machine]\njust a line\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.reason.contains("key = value"), "{e}");

        let e = parse("[unclosed\n").unwrap_err();
        assert!(e.reason.contains("malformed table header"), "{e}");

        let e = parse("x = \"oops\n").unwrap_err();
        assert!(e.reason.contains("unterminated string"), "{e}");

        let e = parse("x = [1, 2\n").unwrap_err();
        assert!(e.reason.contains("in list"), "{e}");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let doc = parse("x = \"a # b\"\n").unwrap();
        assert_eq!(doc.blocks[0].entries[0].value, Value::Str("a # b".into()));
    }

    #[test]
    fn trailing_comma_and_underscored_ints() {
        let doc = parse("x = [1_000, 2,]\ny = -5\n").unwrap();
        assert_eq!(
            doc.blocks[0].entries[0].value,
            Value::List(vec![Value::Int(1000), Value::Int(2)])
        );
        assert_eq!(doc.blocks[0].entries[1].value, Value::Int(-5));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let e = parse("x = 3 4\n").unwrap_err();
        assert!(e.reason.contains("trailing"), "{e}");
    }

    #[test]
    fn string_escapes() {
        let doc = parse(r#"x = "a\"b\\c\nd""#).unwrap();
        assert_eq!(
            doc.blocks[0].entries[0].value,
            Value::Str("a\"b\\c\nd".into())
        );
        let e = parse(r#"x = "a\qb""#).unwrap_err();
        assert!(e.reason.contains("unsupported escape"), "{e}");
    }
}
