//! The verify pass over real loopback TCP, on every workload, and the
//! proof that it can fail: one flipped expectation must turn it into an
//! error (which the command line turns into a non-zero exit).

use cer_wire_bench::e2e::{self, check_workload, Phases};
use cer_wire_bench::gen::{Workload, WORKLOADS};
use cer_wire_bench::ladder;
use cer_wire_bench::oracle::Oracle;
use cer_wire_bench::report::{Json, Report};

/// The names `BENCHMARK.json` lists under `key`.
fn contract_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let Some(Json::Arr(items)) = file.get(key) else {
        panic!("{key} is not a list");
    };
    items
        .iter()
        .map(|i| i.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

// One test, so everything below runs one after the other: the runs pin
// threads, time themselves, and name scratch directories by process id.
#[test]
fn wire_to_match() {
    every_workload_verifies_and_a_flipped_expectation_does_not();
    short_runs_print_every_metric_of_the_contract();
}

fn short_runs_print_every_metric_of_the_contract() {
    let wl = Workload::build("durable_keyed", 9).unwrap();
    let oracle = Oracle::build(&wl);

    let mut run = Report::new(wl.name, false, 9, 2.0);
    e2e::run(&wl, &oracle, Phases::from_seconds(2.0), &mut run).unwrap();
    assert_eq!(run.failed, 0, "{:?}", run.notes);
    let names: Vec<String> = run.end_to_end.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, contract_names("end_to_end"));
    assert!(
        run.end_to_end
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0),
        "{:?}",
        run.end_to_end
    );

    let mut layers = Report::new(wl.name, true, 9, 1.0);
    let tracer = ladder::trace(&wl, &oracle, 1.0, &mut layers).unwrap();
    assert_eq!(layers.failed, 0, "{:?}", layers.notes);
    let names: Vec<String> = layers.per_layer.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, contract_names("per_layer"));
    assert!(
        layers.per_layer.iter().all(|m| m.value.is_finite()),
        "{:?}",
        layers.per_layer
    );
    assert!(tracer
        .spans
        .iter()
        .any(|s| s.name == "serve.await_ack" && s.parent.is_some()));
    assert!(Json::parse(&tracer.to_json()).is_ok());
}

fn every_workload_verifies_and_a_flipped_expectation_does_not() {
    for name in WORKLOADS {
        let wl = Workload::build(name, 42).unwrap();
        let mut oracle = Oracle::build(&wl);
        let (attempted, failed) =
            check_workload(&wl, &oracle).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(failed, 0, "{name}");
        assert_eq!(
            attempted,
            128 + oracle.per_pass(),
            "{name}: 128 batches plus every expected match"
        );

        let middle = oracle.expected.len() / 2;
        oracle.expected[middle].2 ^= 1;
        let err = check_workload(&wl, &oracle)
            .expect_err("a wrong expectation must fail the verify pass");
        assert!(err.contains("1 missing, 1 extra"), "{name}: {err}");
    }
}
