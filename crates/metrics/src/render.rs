//! Minimal fixed-width table renderer for experiment reports.
//!
//! Every experiment in the `experiments` crate prints its result as a table
//! matching the corresponding table/figure in the paper. Rendering is plain
//! monospace text (and CSV), so results diff cleanly and need no external
//! dependency.

use core::fmt::Write as _;

/// A simple table: a header row plus data rows, rendered fixed-width.
///
/// # Examples
///
/// ```
/// use metrics::render::Table;
///
/// let mut t = Table::new(vec!["workload", "solo", "co-run"]);
/// t.row(vec!["exim".into(), "157023".into(), "24102495".into()]);
/// let text = t.render();
/// assert!(text.contains("exim"));
/// assert!(text.lines().count() >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a data row. Short rows are padded with empty cells; long rows
    /// are truncated to the header width.
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as aligned monospace text.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(cols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "== {title} ==");
        }
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().take(cols).enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{cell:<width$}{sep}", width = widths[i]);
            }
        };
        write_row(&mut out, &self.header);
        let rule_len = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(rule_len));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders as CSV (comma-separated, quotes around cells with commas).
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let mut write_row = |cells: &[String]| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        write_row(&self.header);
        for row in &self.rows {
            write_row(row);
        }
        out
    }
}

/// Formats a float with a sensible precision for report cells.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.4}")
    }
}

/// FNV-1a 64-bit hash of rendered output: a small, dependency-free
/// digest for asserting that a run's stdout bytes did not change.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a", "bb"]).with_title("demo");
        t.row(vec!["xxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "22".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== demo ==");
        assert!(lines[1].starts_with("a     bb"));
        assert!(lines[2].chars().all(|c| c == '-'));
        assert!(lines[3].starts_with("xxxx  1"));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only".into()]);
        t.row(vec!["1".into(), "2".into(), "extra".into()]);
        let s = t.render();
        assert!(s.contains("only"));
        assert!(!s.contains("extra"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.render_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(42.25), "42.2");
        assert_eq!(fmt_f64(1.5), "1.500");
        assert_eq!(fmt_f64(0.0043), "0.0043");
    }
}
