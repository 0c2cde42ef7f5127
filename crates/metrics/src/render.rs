//! Plain-text tables and figure series, in the layout of the paper's
//! results section.

use std::fmt;

/// A column-aligned text table.
///
/// ```
/// use commsched_metrics::Table;
///
/// let mut t = Table::new(vec!["Log".into(), "Default".into(), "Balanced".into()]);
/// t.row(vec!["Intrepid".into(), "1382".into(), "1256".into()]);
/// let text = t.to_string();
/// assert!(text.contains("Intrepid"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given header cells.
    pub fn new(header: Vec<String>) -> Self {
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Append a row; short rows are padded with empty cells.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain([self.header.len()])
            .max()
            .unwrap_or(0);
        let mut width = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (c, cell) in row.iter().enumerate() {
                width[c] = width[c].max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, row: &[String]| -> fmt::Result {
            for (c, &w) in width.iter().enumerate() {
                let cell = row.get(c).map(String::as_str).unwrap_or("");
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.header)?;
        let total: usize = width.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// A named series of `(x, y)` points — one line/bar group of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label ("default", "balanced", ...).
    pub name: String,
    /// Data points in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty series with a label.
    pub fn new(name: impl Into<String>) -> Self {
        Series {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Render several series as aligned CSV (x, then one column per
    /// series), assuming they share x values in order.
    pub fn to_csv(series: &[Series]) -> String {
        let mut out = String::from("x");
        for s in series {
            out.push(',');
            out.push_str(&s.name);
        }
        out.push('\n');
        let rows = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
        for i in 0..rows {
            let x = series
                .iter()
                .find_map(|s| s.points.get(i).map(|p| p.0))
                .unwrap_or(i as f64);
            out.push_str(&format!("{x}"));
            for s in series {
                match s.points.get(i) {
                    Some(p) => out.push_str(&format!(",{}", p.1)),
                    None => out.push(','),
                }
            }
            out.push('\n');
        }
        out
    }
}
