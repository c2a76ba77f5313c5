//! Plain-text table rendering for the figures binary.

use std::fmt::Write as _;
use std::time::Duration;

/// Formats a duration as milliseconds with sensible precision.
pub fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 100.0 {
        format!("{ms:.0}")
    } else if ms >= 1.0 {
        format!("{ms:.2}")
    } else {
        format!("{ms:.4}")
    }
}

/// A simple fixed-width table builder.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on a column-count mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table with right-aligned numeric-looking columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = widths[i] - cell.len();
                // Right-align everything but the first column.
                if i == 0 {
                    let _ = write!(out, "{cell}{}", " ".repeat(pad));
                } else {
                    let _ = write!(out, "{}{cell}", " ".repeat(pad));
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_ms_precision_bands() {
        assert_eq!(fmt_ms(Duration::from_micros(2)), "0.0020");
        assert_eq!(fmt_ms(Duration::from_micros(2800)), "2.80");
        assert_eq!(fmt_ms(Duration::from_millis(350)), "350");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["step", "time"]);
        t.row(["1", "3300"]);
        t.row(["1000", "9"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("step"));
        assert!(lines[2].ends_with("3300"));
        assert!(lines[3].ends_with("   9"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }
}
