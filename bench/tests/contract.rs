//! `BENCHMARK.json` and the code must name the same things.

use cer_wire_bench::gen::WORKLOADS;
use cer_wire_bench::report::{Json, END_TO_END};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

fn names(list: &Json) -> Vec<String> {
    match list {
        Json::Arr(items) => items
            .iter()
            .map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect(),
        other => panic!("not a list: {other:?}"),
    }
}

#[test]
fn workloads_and_end_to_end_metrics_agree_with_the_code() {
    let b = benchmark_json();
    assert_eq!(names(b.get("workloads").unwrap()), WORKLOADS);
    let Some(Json::Arr(metrics)) = b.get("end_to_end") else {
        panic!("end_to_end is not a list");
    };
    assert_eq!(metrics.len(), END_TO_END.len());
    for (m, (name, unit, better, bound)) in metrics.iter().zip(END_TO_END) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
        assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound), "{name}");
    }
}

#[test]
fn the_contract_limits_hold() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let per_layer = names(b.get("per_layer").unwrap());
    assert!((1..=128).contains(&per_layer.len()));
    let mut all = names(b.get("end_to_end").unwrap());
    all.extend(per_layer);
    all.extend(names(b.get("workloads").unwrap()));
    let mut unique = all.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "a name is used once");
    for name in &all {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
    }
    assert!(names(b.get("end_to_end").unwrap()).contains(&"setup_s".to_string()));
}
