//! Keeps `BENCHMARK.json`, the metric registry and what a run actually
//! prints in step: every workload, in both modes, with `--quick`.

use std::path::PathBuf;

use dnvme_bench::cli::Args;
use dnvme_bench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use dnvme_bench::{run, workloads};
use serde::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::parse_value(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    Value::field(v.as_map().expect("an object"), key)
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn number(v: &Value) -> f64 {
    match v {
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `BENCHMARK.json`'s metric list `key` must be the registry slice.
fn assert_metrics_listed(json: &Value, key: &str, defs: &[MetricDef], with_bound: bool) {
    let listed = field(json, key).as_seq().expect("a list");
    assert_eq!(
        listed.len(),
        defs.len(),
        "{key}: count differs from the registry"
    );
    for (entry, def) in listed.iter().zip(defs) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert_eq!(
            text(entry, "name"),
            def.name,
            "{key}: order or name differs"
        );
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.as_str(), "{}", def.name);
        if with_bound {
            let bound = number(field(entry, "bound"));
            assert_eq!(bound, def.bound, "{}", def.name);
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
        }
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let json = benchmark_json();
    assert_metrics_listed(&json, "end_to_end", END_TO_END, true);
    assert_metrics_listed(&json, "per_layer", PER_LAYER, false);
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let listed = field(&json, "workloads").as_seq().expect("a list");
    let ours = workloads::all();
    assert_eq!(listed.len(), ours.len());
    for (entry, w) in listed.iter().zip(&ours) {
        assert!(valid_name(w.name));
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why is one line of <= 200",
            w.name
        );
    }
    for p in field(&json, "paths").as_seq().expect("paths") {
        assert_eq!(p.as_str(), Some("dnvme-bench"));
    }
}

/// Run `workload` with `--quick` and check the result line against `defs`.
fn check_run(workload: &str, trace: bool, defs: &[MetricDef]) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload);
    let args = Args {
        workload: workload.into(),
        seed: workloads::DEFAULT_SEED,
        seconds: 1.0,
        trace,
        out: out.clone(),
        quick: true,
    };
    let w = workloads::by_name(workload).expect("a known workload");
    let result = run::run_workload(&w, &args);
    assert!(result.correct(), "{workload}: {:?}", result.failures);
    let line = result.json_line();
    assert!(!line.contains('\n'));
    let json = serde_json::parse_value(&line).expect("the result line is JSON");
    let keys: Vec<&str> = json
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(&json, "correct"), &Value::Bool(true));
    assert!(number(field(&json, "attempted")) >= 1.0);
    assert_eq!(number(field(&json, "failed")), 0.0);
    let metrics = field(&json, "metrics").as_map().expect("metrics object");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(
        names, expected,
        "{workload}: every metric exactly once, in registry order"
    );
    for ((name, m), def) in metrics.iter().zip(defs) {
        assert_eq!(text(m, "unit"), def.unit, "{name}");
        assert!(number(field(m, "value")).is_finite(), "{name}");
    }
    if trace {
        // One event per line. (The stand-in JSON parser is quadratic in
        // the input length, so parse line by line, and only a sample of
        // the I/O spans.)
        let trace = std::fs::read_to_string(out.join("bench_trace.json")).expect("trace written");
        assert!(trace.starts_with("{\"displayTimeUnit\"") && trace.trim_end().ends_with("]}"));
        let mut io_spans = 0;
        let mut names = Vec::new();
        for line in trace.lines().filter(|l| l.starts_with("{\"name\"")) {
            let is_io = line.contains("\"cat\": \"io\"");
            io_spans += is_io as usize;
            if is_io && io_spans > 16 {
                continue;
            }
            let event =
                serde_json::parse_value(line.trim_end_matches(',')).expect("an event is JSON");
            assert!(number(field(&event, "dur")) >= 0.0);
            let args = field(&event, "args");
            assert!(number(field(args, "id")) >= 1.0);
            if is_io {
                assert!(
                    number(field(args, "parent")) >= 1.0,
                    "I/O spans hang off the timed section"
                );
                assert!(number(field(args, "req")) >= 1.0);
            } else {
                names.push(text(&event, "name").to_string());
            }
        }
        let named = |n: &str| names.iter().filter(|x| x.as_str() == n).count();
        assert_eq!(named("probe"), 1);
        assert_eq!(named("Manager::start"), 1);
        assert_eq!(named("timed section"), 1);
        assert!(named("ClientDriver::connect") >= 1);
        assert!(named("Scenario::build") >= 1);
        assert!(
            io_spans as f64 >= number(field(&json, "attempted")) / 4.0,
            "a span per I/O of the traced repetition"
        );
    }
}

macro_rules! smoke {
    ($($name:ident),*) => {$(
        mod $name {
            #[test]
            fn end_to_end() {
                super::check_run(stringify!($name), false, super::END_TO_END);
            }
            #[test]
            fn per_layer_and_trace() {
                super::check_run(stringify!($name), true, super::PER_LAYER);
            }
        }
    )*};
}

smoke!(
    fig10_read,
    fig10_write,
    mh31_shared,
    oltp_qd32_cpu,
    seq128k_read,
    nvmf_qd1_read
);
