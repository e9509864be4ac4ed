//! Plain-text table formatting for experiment reports, and the one
//! writer of the tracked `BENCH_*` records.
//!
//! A tracked record is a [`Value`] stamped with the host it was taken on
//! ([`crate::host::stamp`]). [`write_tracked`] prints every one of them
//! the same way, and `before` is the one rule for what the record it
//! replaces leaves in it. `crates/bench/tests/tracked_records.rs` checks
//! the committed files.

use crate::json::Value;

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
}

/// Formats a fraction as a percentage with one decimal (`0.776` → `77.6`).
pub fn pct(fraction: f64) -> String {
    format!("{:.1}", fraction * 100.0)
}

/// How `before` recognises a tracked record of the same run and
/// matches its rows: every `identity` field equal in both records, rows
/// (the objects of the `rows` array) matched by their `row_id` field.
pub struct RecordKeys {
    /// Fields naming the run (seed, cohort size, fingerprint).
    pub identity: &'static [&'static str],
    /// The array of timed rows (`runs`, `populations`).
    pub rows: &'static str,
    /// The field naming a row (`workers`, `devices`).
    pub row_id: &'static str,
}

/// A count as a JSON integer; panics past `i64::MAX`, which no count nears.
pub fn int(n: impl TryInto<i64>) -> Value {
    match n.try_into() {
        Ok(n) => Value::Int(n),
        Err(_) => panic!("a count past i64::MAX"),
    }
}

/// A fingerprint as a hex string: a `u64` does not survive JSON's doubles.
pub fn hex(fingerprint: u64) -> Value {
    Value::str(format!("{fingerprint:#018x}"))
}

/// A measurement rounded to `places` decimals.
pub fn fixed(x: f64, places: i32) -> Value {
    let scale = 10f64.powi(places);
    Value::Num((x * scale).round() / scale)
}

fn rows<'a>(record: &'a Value, key: &str) -> &'a [Value] {
    record.get(key).map_or(&[], Value::as_arr)
}

/// The `before` block of `record`: what `previous`, the record it
/// replaces, measured, if that was the same run under another host
/// stamp — its host, and for each row `record` also has, the row's id,
/// fingerprint and wall time. A previous record under the same stamp
/// passes on its own `before`. `null` when there is nothing to compare
/// with: no previous record, another run, no host stamp, no row in
/// common.
fn before(previous: Option<&Value>, record: &Value, keys: &RecordKeys) -> Value {
    let same_run = |p: &&Value| keys.identity.iter().all(|key| p.get(key) == record.get(key));
    let Some(previous) = previous.filter(same_run) else { return Value::Null };
    let host = match previous.get("host") {
        None | Some(Value::Null) => return Value::Null,
        Some(host) if Some(host) == record.get("host") => {
            return previous.get("before").cloned().unwrap_or(Value::Null);
        }
        Some(host) => host.clone(),
    };
    let ids: Vec<&Value> =
        rows(record, keys.rows).iter().filter_map(|r| r.get(keys.row_id)).collect();
    let kept: Vec<Value> = rows(previous, keys.rows)
        .iter()
        .filter(|row| row.get(keys.row_id).is_some_and(|id| ids.contains(&id)))
        .map(|row| {
            let fields = [keys.row_id, "fingerprint", "wall_ms"];
            Value::obj(fields.into_iter().filter_map(|key| Some((key, row.get(key)?.clone()))))
        })
        .collect();
    if kept.is_empty() {
        return Value::Null;
    }
    Value::obj([("host", host), (keys.rows, Value::Arr(kept))])
}

/// A tracked record's text: one top-level field per line, and one line
/// per element of an array of objects, so a diff of two records shows
/// which rows moved.
pub(crate) fn render(record: &Value) -> String {
    let fields: Vec<String> = record
        .as_obj()
        .iter()
        .map(|(key, value)| {
            let items = value.as_arr();
            if items.is_empty() || !items.iter().all(|item| matches!(item, Value::Obj(_))) {
                return format!("  \"{key}\": {value}");
            }
            let items: Vec<String> = items.iter().map(|item| format!("    {item}")).collect();
            format!("  \"{key}\": [\n{}\n  ]", items.join(",\n"))
        })
        .collect();
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Writes `record` to the tracked file `path` and says so on stdout.
/// Its `before` field is filled in here by `before`, from the record
/// `path` held until now.
///
/// # Panics
///
/// Panics if `record` has no `before` field.
pub fn write_tracked(path: &str, mut record: Value, keys: &RecordKeys) {
    let previous = std::fs::read_to_string(path).ok().and_then(|text| Value::parse(&text).ok());
    let block = before(previous.as_ref(), &record, keys);
    let Value::Obj(fields) = &mut record else { panic!("a tracked record is an object") };
    let slot = fields.iter_mut().find(|(key, _)| key == "before");
    slot.expect("a tracked record has a before field").1 = block;
    match std::fs::write(path, render(&record)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
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
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(&["a", "b"]).row(&["only-one".into()]);
    }

    /// `record` with `key` set to `value`, or without `key` if `value`
    /// is `None`.
    fn with(record: &Value, key: &str, value: Option<Value>) -> Value {
        let fields = record.as_obj().iter().filter_map(|(k, v)| {
            let v = if k == key { value.clone()? } else { v.clone() };
            Some((k.as_str(), v))
        });
        Value::obj(fields)
    }

    #[test]
    fn before_keeps_the_same_run_from_another_host_and_only_the_rows_both_have() {
        use crate::experiments::{abx, live, sim_scale};
        // Each committed record, in its current layout, as `previous`.
        let committed = [
            (include_str!("../../../BENCH_sim_scale.json"), sim_scale::KEYS),
            (include_str!("../../../BENCH_live_loop.json"), live::KEYS),
            (include_str!("../../../BENCH_ab_leakage.json"), abx::KEYS),
        ];
        for (text, keys) in committed {
            let previous = Value::parse(text).expect("a committed record parses");
            let name = previous.get("experiment").cloned();
            let here = Value::obj([("cores", Value::Int(3)), ("commit", Value::str("elsewhere"))]);
            let current = with(&previous, "host", Some(here));
            // The block keeps the previous host, and each row's id,
            // fingerprint and wall time.
            let host = previous.get("host").cloned().unwrap();
            let fields = [keys.row_id, "fingerprint", "wall_ms"];
            let kept = |row: &Value| fields.map(|k| (k, row.get(k).cloned().unwrap()));
            let block = |rows: &[Value]| {
                let rows = rows.iter().map(|row| Value::obj(kept(row)));
                Value::obj([("host", host.clone()), (keys.rows, Value::Arr(rows.collect()))])
            };
            let first = rows(&previous, keys.rows)[0].clone();
            let unseen = with(&first, keys.row_id, Some(Value::Int(999_999)));
            let covering = |rows: Vec<Value>| with(&current, keys.rows, Some(Value::Arr(rows)));
            let was = Some(previous.clone());
            let (no_host, null_host) =
                (with(&previous, "host", None), with(&previous, "host", Some(Value::Null)));
            let own = previous.get("before").cloned().unwrap();
            let all = block(rows(&previous, keys.rows));
            let (fewer, one) = (covering(vec![unseen.clone(), first.clone()]), block(&[first]));
            let null = Value::Null;
            let mut cases = vec![
                ("no previous record", None, current.clone(), null.clone()),
                ("the same host", was.clone(), previous.clone(), own),
                ("another host", was.clone(), current.clone(), all),
                ("no host", Some(no_host), current.clone(), null.clone()),
                ("a null host", Some(null_host), current.clone(), null.clone()),
                ("rows this run lacks", was.clone(), fewer, one),
                ("no row in common", was.clone(), covering(vec![unseen]), null),
            ];
            for key in keys.identity {
                let other = with(&current, key, Some(Value::str("another run")));
                cases.push(("another identity", Some(previous.clone()), other, Value::Null));
            }
            for (case, previous, record, expected) in cases {
                assert_eq!(before(previous.as_ref(), &record, &keys), expected, "{name:?}: {case}");
            }
        }
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.776), "77.6");
        assert_eq!(pct(0.0), "0.0");
    }
}
