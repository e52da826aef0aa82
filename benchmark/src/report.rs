//! What one benchmark run produces: the books of operations attempted
//! and failed, and named metric values.

use std::collections::BTreeMap;

use crate::json::Json;

/// Operations attempted and failed, with a note per failure. An
/// operation is a transaction sent, an account value compared, a
/// protocol answer checked or a loop repetition validated.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per kind of failure seen.
    pub notes: Vec<String>,
}

impl Tally {
    /// Books `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.notes.push(format!("{failed} of {attempted} {what}"));
        }
    }

    /// Books one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }

    /// Whether nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Failed operations as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads: it is the
/// one place names, units, directions and bounds are declared.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Measurement length of one run.
    pub run_seconds: u64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
}

impl Declared {
    /// Parses the text of `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Declared, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or(format!("BENCHMARK.json: no {key} list"))?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("BENCHMARK.json: {key} entry without {f}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "higher" => Better::Higher,
                            "lower" => Better::Lower,
                            other => return Err(format!("BENCHMARK.json: better={other:?}")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")? as u64,
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("BENCHMARK.json: no workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// `values` as the `metrics` object of a result line: exactly the
    /// declared names, each with its unit. A declared metric the run did
    /// not produce is an error — the declaration and the code disagree.
    pub fn metrics_json(defs: &[MetricDef], values: &Values) -> Result<Json, String> {
        if let Some(extra) = values.keys().find(|k| !defs.iter().any(|d| d.name == **k)) {
            return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
        }
        defs.iter()
            .map(|d| {
                let v = values
                    .get(d.name.as_str())
                    .ok_or(format!("declared metric {} was not measured", d.name))?;
                Ok((
                    d.name.clone(),
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str(d.unit.clone())),
                    ]),
                ))
            })
            .collect::<Result<Vec<_>, String>>()
            .map(Json::obj)
    }
}
