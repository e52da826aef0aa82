//! `bench compare A.json B.json`: two result files side by side, one row
//! per (workload, end-to-end metric), judged against the bounds
//! `BENCHMARK.json` declares.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::{Better, Declared};

/// How one (workload, metric) pair of B stands against A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than A by more than the bound.
    Ok,
    /// Worse than A by more than the bound.
    Worse,
    /// A's own run-to-run spread exceeds the bound: the pair cannot
    /// resolve a change of that size either way.
    Unresolved,
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's and B's values.
    pub a: f64,
    /// See `a`.
    pub b: f64,
    /// The fraction by which B is worse than A (negative: better).
    pub worse_by: f64,
    /// The declared bound.
    pub bound: f64,
    /// A's recorded A/A spread (IQR / median), if it recorded one.
    pub spread: Option<f64>,
    /// The judgement.
    pub verdict: Verdict,
}

fn metric<'a>(doc: &'a Json, workload: &str, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)
}

/// Compares result documents `a` (the base) and `b`.
pub fn compare(declared: &Declared, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in &declared.workloads {
        for def in &declared.end_to_end {
            let value = |doc: &Json, side: &str| {
                metric(doc, workload, &def.name)
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or(format!("{side}: no {} for {workload}", def.name))
            };
            let (va, vb) = (value(a, "A")?, value(b, "B")?);
            let bound = def
                .bound
                .ok_or(format!("{} has no bound in BENCHMARK.json", def.name))?;
            let worse_by = match def.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            let spread = metric(a, workload, &def.name)
                .and_then(|m| m.get("spread"))
                .and_then(Json::as_f64);
            let verdict = if spread.is_some_and(|s| s > bound) {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name.clone(),
                a: va,
                b: vb,
                worse_by,
                bound,
                spread,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table; every ratio is B over A.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>14} {:>14} {:>10} {:>9} {:>7} {:>9}  verdict",
        "workload", "metric", "A", "B", "B/A", "worse by", "bound", "A spread"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>10.4} {:>+8.2}% {:>6.0}% {:>9}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.b / r.a,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread
                .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0)),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> Declared {
        Declared::parse(
            r#"{"run_seconds": 1, "workloads": [{"name": "w", "why": ""}],
                "end_to_end": [
                  {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
                  {"name": "lat", "unit": "us", "better": "lower", "bound": 0.1},
                  {"name": "noisy", "unit": "us", "better": "lower", "bound": 0.1}],
                "per_layer": []}"#,
        )
        .unwrap()
    }

    fn doc(rate: f64, lat: f64, noisy: f64, noisy_spread: f64) -> Json {
        let m = |v: f64, s: f64| Json::obj([("value", Json::Num(v)), ("spread", Json::Num(s))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([(
                    "end_to_end",
                    Json::obj([
                        ("rate", m(rate, 0.01)),
                        ("lat", m(lat, 0.01)),
                        ("noisy", m(noisy, noisy_spread)),
                    ]),
                )]),
            )]),
        )])
    }

    #[test]
    fn judges_direction_bound_and_spread() {
        let a = doc(100.0, 10.0, 10.0, 0.3);
        let b = doc(85.0, 10.5, 20.0, 0.3);
        let rows = compare(&declared(), &a, &b).unwrap();
        // rate fell 15 % (> 10 %): worse. lat rose 5 %: ok. noisy doubled
        // but A's own spread is 30 %: unresolved.
        let verdicts: Vec<Verdict> = rows.iter().map(|r| r.verdict).collect();
        assert_eq!(verdicts, [Verdict::Worse, Verdict::Ok, Verdict::Unresolved]);
        assert!((rows[0].worse_by - 0.15).abs() < 1e-12);
        assert!(render(&rows).contains("unresolved"));
    }

    #[test]
    fn missing_metric_is_an_error() {
        let a = doc(1.0, 1.0, 1.0, 0.0);
        assert!(compare(&declared(), &a, &Json::obj::<String>([])).is_err());
    }
}
