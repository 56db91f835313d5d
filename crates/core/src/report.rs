//! Minimal plain-text table rendering for the experiment harness.

use std::fmt;

/// A formatted result table (one per paper figure/table).
#[derive(Debug, Clone)]
pub struct Table {
    /// Title, e.g. `"Figure 19: batch-1 speedup over DSP"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form footnotes (calibration caveats, paper reference values).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a footnote.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let parts: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "| {} |", parts.join(" | "))
        };
        line(f, &self.headers)?;
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        writeln!(f, "|-{}-|", sep.join("-|-"))?;
        for row in &self.rows {
            line(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        Ok(())
    }
}

/// Formats a ratio as `"12.3x"`.
pub fn ratio(n: f64) -> String {
    format!("{n:.2}x")
}

/// Formats a percentage.
pub fn pct(n: f64) -> String {
    format!("{:.1}%", n * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("T", &["kernel", "speedup"]);
        t.row(vec!["cholesky".into(), ratio(3.5)]);
        t.row(vec!["fft".into(), ratio(12.0)]);
        t.note("hello");
        let s = t.to_string();
        assert!(s.contains("=== T ==="));
        assert!(s.contains("| cholesky | 3.50x"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(vec!["x".into()]);
    }
}
