//! The names this benchmark prints. `BENCHMARK.json` at the repo root is
//! the one declaration of workloads, end-to-end metrics and per-layer
//! metrics; it is compiled in and parsed once, so the lists here cannot
//! drift from what the driver reads.

use std::sync::OnceLock;

use crate::calls::json::{self, Value};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One declared metric. `bound` is the share of the reference value by
/// which the metric may worsen before `agree` (and the driver) call it a
/// regression; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
pub struct Schema {
    /// The workloads, in the order `run` executes them.
    pub workloads: Vec<&'static str>,
    /// What every workload reports with tracing off and the driver gates.
    pub end_to_end: Vec<Metric>,
    /// What the `--trace 1` run prints. A layer is a crate; a metric a
    /// workload does not exercise reads 0 on that workload.
    pub per_layer: Vec<Metric>,
    /// Seconds of timed passes per run.
    pub run_seconds: f64,
}

const DOCUMENT: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// The parsed `BENCHMARK.json`. Panics on a malformed document: it is
/// part of the source.
pub fn schema() -> &'static Schema {
    static SCHEMA: OnceLock<Schema> = OnceLock::new();
    SCHEMA.get_or_init(|| {
        // Parsed once and kept for the life of the process, so the names
        // can be handed out as `&'static str`.
        let doc: &'static Value = Box::leak(Box::new(
            json::parse(DOCUMENT).expect("BENCHMARK.json parses"),
        ));
        let list = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key);
        let field = |m: &'static Value, key: &str| m.get(key).and_then(Value::as_str).expect(key);
        let metrics = |key: &str| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: field(m, "name"),
                    unit: field(m, "unit"),
                    better: match field(m, "better") {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => panic!("better: {other}"),
                    },
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Schema {
            workloads: list("workloads").iter().map(|w| field(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .expect("run_seconds"),
        }
    })
}

/// End-to-end metrics only one workload has: `(metric, workload, per-layer
/// alias)`. They cannot sit in `BENCHMARK.json`'s `end_to_end` list (every
/// workload must print every metric there, none may read 0), so the driver
/// sees them as per-layer metrics under the alias; `run` and `agree` report
/// and bound them under the metric's own name, at the issue's bounds.
pub const WORKLOAD_END_TO_END: [(Metric, &str, &str); 4] = [
    (
        Metric {
            name: "archive_bytes_per_payment",
            unit: "bytes",
            better: Better::Lower,
            bound: Some(0.005),
        },
        "history_build",
        "store.archive_bytes_per_payment",
    ),
    (
        Metric {
            name: "open_s",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.10),
        },
        "archive_serve",
        "query.open_s",
    ),
    (
        Metric {
            name: "point_p50_ns",
            unit: "ns",
            better: Better::Lower,
            bound: Some(0.10),
        },
        "archive_serve",
        "query.point_p50_ns",
    ),
    (
        Metric {
            name: "point_p99_ns",
            unit: "ns",
            better: Better::Lower,
            bound: Some(0.10),
        },
        "archive_serve",
        "query.point_p99_ns",
    ),
];

/// `failed_share` (failed or check-failing ops ÷ attempted) is the eighth
/// end-to-end figure: it must read 0, so it travels as the result line's
/// `failed` / `attempted` pair instead of as a bounded metric.
pub const FAILED_SHARE: &str = "failed_share";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The contract's charset for names: starts with a letter or a digit,
    /// at most 64 of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The contract's charset for units: at most 16 of letters, digits,
    /// `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_charset() {
        let s = schema();
        let mut seen = BTreeSet::new();
        let all = s
            .end_to_end
            .iter()
            .chain(&s.per_layer)
            .chain(WORKLOAD_END_TO_END.iter().map(|(m, _, _)| m));
        for m in all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "metric {} declared twice", m.name);
            if let Some(bound) = m.bound {
                assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
            }
        }
        assert!(s.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        for w in &s.workloads {
            assert!(valid_name(w) && seen.insert(w), "bad workload name {w}");
        }
        assert!(valid_name(FAILED_SHARE));
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("per second"));
    }

    #[test]
    fn workload_specific_metrics_alias_a_declared_layer_metric() {
        let s = schema();
        for (m, workload, alias) in WORKLOAD_END_TO_END {
            assert!(s.workloads.contains(&workload));
            let l = s
                .per_layer
                .iter()
                .find(|l| l.name == alias)
                .unwrap_or_else(|| panic!("{} aliases undeclared {alias}", m.name));
            assert_eq!((l.unit, l.better), (m.unit, m.better));
        }
    }
}
