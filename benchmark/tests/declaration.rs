//! `BENCHMARK.json` and the benchmark's code must name the same
//! workloads and metrics, within the limits the benchmark contract sets.

use janus_benchmark::json::Json;
use janus_benchmark::report::Declared;
use janus_benchmark::run::{END_TO_END, PER_LAYER, WORKLOADS};

fn text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

fn name_ok(name: &str) -> bool {
    let head = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    head && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn declaration_matches_the_code() {
    let declared = Declared::parse(&text()).unwrap();
    assert_eq!(declared.workloads, WORKLOADS);
    let names = |defs: &[janus_benchmark::report::MetricDef]| {
        defs.iter().map(|d| d.name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(names(&declared.end_to_end), END_TO_END);
    assert_eq!(names(&declared.per_layer), PER_LAYER);
}

#[test]
fn declaration_is_within_the_contract() {
    let doc = Json::parse(&text()).unwrap();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let declared = Declared::parse(&text()).unwrap();
    assert!((1..=60).contains(&declared.run_seconds));
    assert!((2..=8).contains(&declared.workloads.len()));
    assert!((1..=16).contains(&declared.end_to_end.len()));
    assert!((1..=128).contains(&declared.per_layer.len()));

    let mut seen = std::collections::BTreeSet::new();
    for name in declared
        .workloads
        .iter()
        .chain(declared.end_to_end.iter().map(|d| &d.name))
        .chain(declared.per_layer.iter().map(|d| &d.name))
    {
        assert!(name_ok(name), "{name}");
        assert!(seen.insert(name.clone()), "{name} is used twice");
    }
    for d in declared.end_to_end.iter().chain(&declared.per_layer) {
        assert!(
            !d.unit.is_empty()
                && d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {:?} of {}",
            d.unit,
            d.name
        );
    }
    for d in &declared.end_to_end {
        let bound = d.bound.expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
    }
    assert!(declared.per_layer.iter().all(|d| d.bound.is_none()));
    let setup = declared
        .end_to_end
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.better, janus_benchmark::report::Better::Lower);

    for w in doc.get("workloads").unwrap().as_arr().unwrap() {
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
    }
    assert_eq!(
        doc.get("paths").unwrap().as_arr().unwrap(),
        [Json::Str("benchmark".into())]
    );
}
