//! One benchmark row — what a workload run measured — and the single
//! writer that turns it into JSON. Every subcommand prints rows through
//! [`Row::to_json`]; the line the driver reads is cut from the same row
//! by [`Row::contract_line`].

use crate::json::Value;
use crate::spec::Spec;
use crate::stats::{summarize, Summary};

/// One measured or counted number, before the spec gives it a unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Samples behind `value` (1 for a count or a single reading).
    pub n: usize,
    /// `(percentile, value)` of the upper tail, where there are enough
    /// samples to state one.
    pub tail: Option<(f64, f64)>,
    /// A pure function of the seed: two runs must agree bit for bit.
    pub exact: bool,
}

/// The metrics one run produced, in emission order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// A value that is deterministic per seed (a count, a virtual-clock
    /// latency, a quality score).
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.0.push(Metric { name, value, n: 1, tail: None, exact: true });
    }

    /// A single host measurement (a rate over a whole pass, a ratio of
    /// two timings).
    pub fn measured(&mut self, name: &'static str, value: f64) {
        self.0.push(Metric { name, value, n: 1, tail: None, exact: false });
    }

    /// A timing distribution: `seconds` scaled by `scale` into the
    /// metric's unit, reported as median, n and tail.
    pub fn timing(&mut self, name: &'static str, seconds: &[f64], scale: f64) {
        let scaled: Vec<f64> = seconds.iter().map(|s| s * scale).collect();
        let Summary { median, n, tail } = summarize(&scaled);
        self.0.push(Metric { name, value: median, n, tail, exact: false });
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// The metrics whose names are in `names`.
    pub fn only(self, names: &[&str]) -> Metrics {
        Metrics(self.0.into_iter().filter(|m| names.contains(&m.name)).collect())
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What one timed iteration did, read off the product's own outcome.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the outputs; must not change between iterations.
    pub fingerprint: u64,
    /// Seed-deterministic metrics and per-layer counts.
    pub metrics: Metrics,
    /// Correctness checks that did not hold.
    pub violations: Vec<String>,
}

impl Iteration {
    /// The iteration whose product call itself returned an error: all
    /// `attempted` ops failed.
    pub fn failed(attempted: u64, what: String) -> Self {
        Self { attempted, failed: attempted, violations: vec![what], ..Self::default() }
    }
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: &'static str,
    /// What one op is in this workload.
    pub op: &'static str,
    /// `run` or `trace`.
    pub mode: &'static str,
    pub quick: bool,
    pub seed: u64,
    pub iterations: usize,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    pub violations: Vec<String>,
    pub metrics: Metrics,
    /// Raw per-iteration readings, by metric name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Row {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Declared metrics of this row's mode that the workload does not
    /// produce.
    fn not_applicable(&self, spec: &Spec) -> Vec<String> {
        let traced = self.mode == "trace";
        spec.end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .filter(|name| traced || spec.is_end_to_end(name))
            .filter(|name| self.metrics.get(name).is_none())
            .map(str::to_owned)
            .collect()
    }

    /// The full record: host stamp, seed, op counts, fingerprint, every
    /// metric with its unit, and the raw samples.
    ///
    /// # Panics
    ///
    /// Panics if a workload emitted a metric `BENCHMARK.json` does not
    /// declare.
    pub fn to_json(&self, spec: &Spec, host: &Value) -> Value {
        let metrics = self.metrics.iter().map(|m| {
            let decl = spec
                .metric(m.name)
                .unwrap_or_else(|| panic!("metric {} is not declared in BENCHMARK.json", m.name));
            let mut fields = vec![
                ("value".to_owned(), Value::Num(m.value)),
                ("unit".to_owned(), Value::str(&decl.unit)),
                (
                    "better".to_owned(),
                    Value::str(if decl.higher_is_better { "higher" } else { "lower" }),
                ),
                ("n".to_owned(), Value::Int(m.n as i64)),
                ("exact".to_owned(), Value::Bool(m.exact)),
                ("end_to_end".to_owned(), Value::Bool(spec.is_end_to_end(m.name))),
            ];
            if let Some((p, v)) = m.tail {
                fields.push((
                    "tail".to_owned(),
                    Value::obj([("p", Value::Num(p)), ("value", Value::Num(v))]),
                ));
            }
            (m.name.to_owned(), Value::Obj(fields))
        });
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("why", Value::str(spec.why(self.workload).unwrap_or(""))),
            ("op", Value::str(self.op)),
            ("mode", Value::str(self.mode)),
            ("quick", Value::Bool(self.quick)),
            ("host", host.clone()),
            ("seed", Value::Int(self.seed as i64)),
            ("iterations", Value::Int(self.iterations as i64)),
            ("attempted", Value::Int(self.attempted as i64)),
            ("succeeded", Value::Int((self.attempted - self.failed) as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("fingerprint", Value::str(format!("{:#018x}", self.fingerprint))),
            ("correct", Value::Bool(self.correct())),
            ("violations", Value::Arr(self.violations.iter().map(Value::str).collect())),
            ("metrics", Value::Obj(metrics.collect())),
            (
                "not_applicable",
                Value::Arr(self.not_applicable(spec).iter().map(Value::str).collect()),
            ),
            ("samples", Value::obj(self.samples.iter().map(|(name, xs)| (*name, Value::nums(xs))))),
        ])
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with every declared metric of the pass — a metric this
    /// workload does not exercise reads 0.
    pub fn contract_line(&self, spec: &Spec) -> Value {
        let declared = if self.mode == "trace" { &spec.per_layer } else { &spec.end_to_end };
        let metrics = declared.iter().map(|decl| {
            let value = self.metrics.get(&decl.name).unwrap_or(0.0);
            let entry =
                Value::obj([("value", Value::Num(value)), ("unit", Value::str(&decl.unit))]);
            (decl.name.clone(), entry)
        });
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Int(self.attempted as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", Value::Obj(metrics.collect())),
        ])
    }

    /// `name value unit` lines for a terminal.
    pub fn render(&self, spec: &Spec) -> String {
        let mut out = format!(
            "{} [{}] seed {} — {} {} ops attempted, {} failed, {} iterations, fingerprint {:#018x}\n",
            self.workload, self.mode, self.seed, self.attempted, self.op, self.failed, self.iterations,
            self.fingerprint,
        );
        for m in self.metrics.iter() {
            let unit = spec.metric(m.name).map_or("?", |d| d.unit.as_str());
            out.push_str(&format!("  {:<32} {:>16.6} {unit}", m.name, m.value));
            if m.n > 1 {
                out.push_str(&format!("  (median of {})", m.n));
            }
            if let Some((p, v)) = m.tail {
                out.push_str(&format!("  p{:.1} {v:.6}", p * 100.0));
            }
            if m.exact {
                out.push_str("  exact");
            }
            out.push('\n');
        }
        for v in &self.violations {
            out.push_str(&format!("  VIOLATION: {v}\n"));
        }
        out
    }
}
