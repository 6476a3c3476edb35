//! The benchmark's own tests: a short run of every workload, traced and
//! untraced, checked against the metric names in `BENCHMARK.json`, and
//! injected faults that must raise the error rate and fail the run.

use perfbench::npb_lu::{Fault, NpbLu};
use perfbench::relay::Relay;
use perfbench::report::Outcome;
use perfbench::{run, workload, Config, WORKLOADS};

/// The `name`s listed under `section` in the repository's BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no `{section}` in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn short(trace: bool) -> Config {
    Config {
        seed: 7,
        seconds: 0.0,
        trace,
    }
}

fn assert_prints(out: &Outcome, names: &[String]) {
    for n in names {
        let v = out
            .get(n)
            .unwrap_or_else(|| panic!("metric `{n}` not printed"));
        assert!(v.is_finite(), "metric `{n}` = {v}");
    }
    assert_eq!(out.metrics.len(), names.len(), "extra metrics printed");
}

#[test]
fn every_workload_runs_clean_and_prints_every_end_to_end_metric() {
    let names = declared("end_to_end");
    assert!(names.iter().any(|n| n == "setup_s"));
    for name in WORKLOADS {
        let mut w = workload(name, 7).expect("known workload");
        let out = run(name, w.as_mut(), &short(false));
        assert!(out.correct(), "{name}: {:?}", out.errors);
        assert_eq!(out.error_rate(), 0.0);
        assert_prints(&out, &names);
        for n in &names {
            assert!(out.get(n).unwrap() > 0.0, "{name}: `{n}` reads 0");
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    let names = declared("per_layer");
    assert!(names.iter().any(|n| n == "trace.overhead"));
    for name in WORKLOADS {
        let mut w = workload(name, 7).expect("known workload");
        let out = run(name, w.as_mut(), &short(true));
        assert!(out.correct(), "{name}: {:?}", out.errors);
        assert_prints(&out, &names);
    }
}

#[test]
fn traced_layers_are_measured_where_they_run() {
    let mut w = workload("npb-lu", 7).expect("known workload");
    let out = run("npb-lu", w.as_mut(), &short(true));
    for n in [
        "dsl.parse_s",
        "comm.calls",
        "npb.compute_s",
        "npb.handwritten_solve_s",
    ] {
        assert!(out.get(n).unwrap() > 0.0, "npb-lu: `{n}` reads 0");
    }
    let mut w = workload("merger-churn", 7).expect("known workload");
    let out = run("merger-churn", w.as_mut(), &short(true));
    for n in [
        "reconfig.attach_p50_ms",
        "reconfig.detach_p50_ms",
        "reconfig.epoch",
    ] {
        assert!(out.get(n).unwrap() > 0.0, "merger-churn: `{n}` reads 0");
    }
    let mut w = workload("relay-partitioned", 7).expect("known workload");
    let out = run("relay-partitioned", w.as_mut(), &short(true));
    assert_eq!(out.get("partition.regions"), Some(32.0));
    assert_eq!(out.get("partition.links"), Some(16.0));
}

#[test]
fn a_comm_that_drops_a_gathered_value_fails_the_run() {
    let mut w = NpbLu::new(7, Fault::DropGathered);
    let out = run("npb-lu", &mut w, &short(false));
    assert!(out.failed > 0 && out.error_rate() > 0.0);
    assert!(!out.correct());
    assert!(
        out.errors.iter().any(|e| e.contains("panicked")),
        "{:?}",
        out.errors
    );
}

#[test]
fn a_relay_receiver_that_skips_a_value_fails_the_run() {
    let mut w = Relay::jit(7);
    w.skip_value = true;
    let out = run("relay-jit", &mut w, &short(false));
    assert!(out.failed > 0 && out.error_rate() > 0.0);
    assert!(!out.correct());
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(workload("nope", 1).is_err());
}
