//! The benchmark's declarations, read from the `BENCHMARK.json` the
//! driver reads: workload names, every metric's unit and direction, and
//! the regression bounds. The file is compiled in, so the binary and the
//! file cannot disagree, and no unit is spelled twice.

use crate::json::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics that are a pure function of the seed: simulated
/// latencies on the virtual clock and model-quality scores. Any change
/// is a regression, and a host-speed-only change must leave them
/// bit-equal. They apply to some workloads only, and the driver wants
/// every `end_to_end` entry of `BENCHMARK.json` from every workload, so
/// the file lists them under `per_layer`; rows report them as end-to-end
/// and `check` holds them to bit-equality.
pub const EXACT_END_TO_END: [&str; 8] = [
    "v_query_p50_us",
    "v_query_p95_us",
    "v_query_p99_us",
    "v_retrain_p50_us",
    "v_retrain_p90_us",
    "v_stale_p90_us",
    "leak_top3",
    "served_top3_acc",
];

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen; only
    /// `end_to_end` entries carry one.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    /// `(name, why)`.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    ///
    /// # Panics
    ///
    /// Panics if the file is not the shape the driver's contract fixes —
    /// a broken declaration must not produce numbers.
    pub fn load() -> Spec {
        let doc = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let text = |v: &Value, key: &str| -> String {
            v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} missing")).to_owned()
        };
        let metrics = |key: &str| -> Vec<MetricSpec> {
            let list = doc.get(key).unwrap_or_else(|| panic!("{key} missing"));
            list.as_arr()
                .iter()
                .map(|m| MetricSpec {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    higher_is_better: match text(m, "better").as_str() {
                        "higher" => true,
                        "lower" => false,
                        other => panic!("better must be higher or lower, got {other}"),
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Value::as_f64).expect("run_seconds"),
            workloads: doc
                .get("workloads")
                .expect("workloads")
                .as_arr()
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    /// The declaration of `name`, wherever it is listed.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    pub fn why(&self, workload: &str) -> Option<&str> {
        self.workloads.iter().find(|(name, _)| name == workload).map(|(_, why)| why.as_str())
    }

    /// Whether rows print `name` among the end-to-end metrics.
    pub fn is_end_to_end(&self, name: &str) -> bool {
        EXACT_END_TO_END.contains(&name) || self.end_to_end.iter().any(|m| m.name == name)
    }
}
