//! Plain-text table formatting for experiment reports, and the host stamp
//! tracked `BENCH_*` records carry.

/// A simple fixed-width table builder for terminal reports.
///
/// # Example
///
/// ```
/// let mut t = pelican_bench::report::Table::new(&["method", "top-1"]);
/// t.row(&["time-based".into(), "61.2".into()]);
/// let out = t.render();
/// assert!(out.contains("time-based"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self { header: header.iter().map(|h| h.to_string()).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width must match header");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:<w$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (comma-separated, header first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with one decimal (`0.776` → `77.6`).
pub fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// The host a tracked bench record was taken on, as a JSON object:
/// `{"cores": N, "commit": "<short hash>[+dirty]"}` — a wall time
/// without them cannot be compared with anything. `commit` is
/// `unknown` outside a git checkout.
pub fn host_stamp() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    let commit = match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{head}+dirty")
        }
        Some(head) => head,
        None => "unknown".to_owned(),
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{{\"cores\": {cores}, \"commit\": \"{commit}\"}}")
}

/// The rest of the line after the first `"key": ` in `text`, without a
/// trailing comma — every top-level field of a tracked record sits on a
/// line of its own.
pub(crate) fn field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let start = text.find(&format!("\"{key}\": "))? + key.len() + 4;
    let line = text[start..].lines().next()?;
    Some(line.trim_end().trim_end_matches(','))
}

/// The `before` row of a new tracked record: what `previous` (the file
/// about to be replaced) measured, if it recorded this very run — every
/// `same_run` field reads the given serialized value — on another host
/// stamp. A re-run at the same stamp keeps the `before` it already had.
/// `null` otherwise. The wall times are the `wall_ms` of the lines that
/// carry `row_key`.
pub fn before_row(
    previous: Option<&str>,
    host: &str,
    same_run: &[(&str, String)],
    row_key: &str,
) -> String {
    let is_same =
        |p: &str| same_run.iter().all(|(key, value)| field(p, key) == Some(value.as_str()));
    let Some(previous) = previous.filter(|p| is_same(p)) else { return "null".to_owned() };
    let previous_host = field(previous, "host").unwrap_or("null");
    if previous_host == host {
        return field(previous, "before").unwrap_or("null").to_owned();
    }
    let walls: Vec<&str> = previous
        .lines()
        .filter(|l| l.contains(&format!("\"{row_key}\": ")))
        .filter_map(|l| field(l, "wall_ms")?.split(',').next())
        .collect();
    format!("{{\"host\": {previous_host}, \"wall_ms\": [{}]}}", walls.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(&["x".into(), "1".into()]);
        t.row(&["yyyy".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("long-header"));
        assert_eq!(r.lines().count(), 4);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Table::new(&["k", "acc"]);
        t.row(&["1".into(), "0.5".into()]);
        assert_eq!(t.to_csv(), "k,acc\n1,0.5\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(&["a", "b"]).row(&["only-one".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.776), "77.6");
        assert_eq!(pct(0.0), "0.0");
    }
}
