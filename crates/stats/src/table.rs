//! Labelled result tables with markdown and CSV rendering.

use std::fmt::Write as _;

/// A result table: one or more label columns followed by numeric columns.
///
/// Each experiment binary builds one `Table` per figure panel and prints it
/// in markdown (human inspection) and CSV (plotting).
///
/// # Example
///
/// ```
/// use aboram_stats::Table;
///
/// let mut t = Table::new("fig8c-time", &["benchmark", "scheme", "norm. time"]);
/// t.row(&["mcf", "AB"], &[1.04]);
/// assert_eq!(t.rows(), 1);
/// assert!(t.to_csv().contains("mcf,AB,1.04"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<(Vec<String>, Vec<f64>)>,
}

impl Table {
    /// Creates a table with a title and column headers. The split between
    /// label columns and numeric columns is set by the first `row` call.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Appends a row of label columns followed by numeric columns.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() + values.len()` differs from the header count,
    /// or if a subsequent row changes the label/value split.
    pub fn row(&mut self, labels: &[&str], values: &[f64]) {
        assert_eq!(labels.len() + values.len(), self.headers.len(), "row width must match headers");
        if let Some((first_labels, _)) = self.rows.first() {
            assert_eq!(first_labels.len(), labels.len(), "label/value split must be stable");
        }
        self.rows.push((labels.iter().map(|s| s.to_string()).collect(), values.to_vec()));
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Looks up the numeric columns of the first row whose labels equal
    /// `labels`.
    pub fn find(&self, labels: &[&str]) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(l, _)| l.len() == labels.len() && l.iter().zip(labels).all(|(a, b)| a == b))
            .map(|(_, v)| v.as_slice())
    }

    /// Renders a GitHub-flavored markdown table with the title as a heading.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {}\n", self.title);
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(out, "|{}|", vec!["---"; self.headers.len()].join("|"));
        for (labels, values) in &self.rows {
            let mut cells: Vec<String> = labels.clone();
            cells.extend(values.iter().map(|v| format_value(*v)));
            let _ = writeln!(out, "| {} |", cells.join(" | "));
        }
        out
    }

    /// Renders CSV with a header row (no title).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for (labels, values) in &self.rows {
            let mut cells: Vec<String> = labels.clone();
            cells.extend(values.iter().map(|v| format_value(*v)));
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }
}

/// Formats with enough precision for result tables without trailing noise.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_render() {
        let mut t = Table::new("demo", &["scheme", "space", "time"]);
        t.row(&["Baseline"], &[1.0, 1.0]);
        t.row(&["AB"], &[0.6450, 1.04]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| Baseline | 1 | 1 |"));
        assert!(md.contains("| AB | 0.645 | 1.04 |"));
        let csv = t.to_csv();
        assert!(csv.starts_with("scheme,space,time\n"));
        assert!(csv.contains("AB,0.645,1.04"));
    }

    #[test]
    fn find_and_mean() {
        let mut t = Table::new("demo", &["b", "v"]);
        t.row(&["x"], &[2.0]);
        t.row(&["y"], &[4.0]);
        assert_eq!(t.find(&["y"]), Some(&[4.0][..]));
        assert_eq!(t.find(&["z"]), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["x"], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "split must be stable")]
    fn label_split_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["x"], &[1.0]);
        t.row(&["x", "y"], &[]);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(1.0), "1");
        assert_eq!(format_value(0.6450), "0.645");
        assert_eq!(format_value(0.33333333), "0.3333");
    }
}
