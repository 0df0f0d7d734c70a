//! The benchmark's own tests: deterministic inputs, transport-independent
//! price bits, the order statistics, the metric contract, and a short
//! smoke run of every workload at a small scale.

use fedfl_perfbench::metrics::{end_to_end, per_layer, END_TO_END, PER_LAYER};
use fedfl_perfbench::plan::{Plan, Workload, Write, LOOPBACK_RATES, WORKLOADS};
use fedfl_perfbench::run::{run, RunOptions};
use fedfl_perfbench::stats::{median, percentile, quartiles};
use fedfl_perfbench::verify::certified_checksum;
use fedfl_perfbench::{inproc, wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark workloads and the loopback replay's shape.
const SHAPES: [&str; 3] = ["fast-dense-100k", "fast-sparse-100k", "exact-10k"];

/// A workload's shape at 2,000 clients and 12 trace steps.
fn small(name: &str, seed: u64) -> Workload {
    Workload::scaled(name, seed, 1, 2_000, 12).expect("workload")
}

#[test]
fn same_seed_gives_the_same_fingerprint() {
    for name in SHAPES {
        let a = small(name, 7).plan(0).expect("plan");
        let b = small(name, 7).plan(0).expect("plan");
        assert_eq!(a.fingerprint, b.fingerprint, "{name}");
        assert_eq!(a.steps.len(), b.steps.len(), "{name}");
    }
}

#[test]
fn a_different_seed_gives_a_different_fingerprint() {
    for name in SHAPES {
        let a = small(name, 7).plan(0).expect("plan");
        let b = small(name, 8).plan(0).expect("plan");
        assert_ne!(a.fingerprint, b.fingerprint, "{name}");
    }
}

#[test]
fn a_plan_gives_back_the_shaped_trace_it_was_built_from() {
    for name in SHAPES {
        let (spec, trace) = small(name, 9).trace(0).expect("trace");
        let plan = Plan::new(spec, trace.clone()).expect("plan");
        assert_eq!(plan.trace(), trace, "{name}");
        let budget_alone = plan
            .steps
            .iter()
            .any(|step| matches!(step.writes.as_slice(), [Write::Budget { .. }]));
        assert_eq!(budget_alone, name == "fast-sparse-100k", "{name}");
    }
}

#[test]
fn wire_prices_equal_an_in_process_replay_of_the_same_commands() {
    let workload = small("exact-10k", 3);
    let plan = workload.plan(0).expect("plan");
    let over_wire = wire::round(&plan, LOOPBACK_RATES, 3).expect("loopback replay");
    let in_process = inproc::round(&plan, None).expect("in-process round");
    assert_eq!(over_wire.checksum, in_process.checksum);
    assert_eq!(
        in_process.checksum,
        certified_checksum(&plan).expect("certified replay")
    );
}

#[test]
fn percentile_matches_a_sorted_vector_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    for n in [1usize, 2, 3, 10, 99, 100, 101, 1_000] {
        let values: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..1e6)).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            // Nearest rank: the smallest value with at least p·n values at
            // or below it.
            let reference = *sorted
                .iter()
                .enumerate()
                .find(|&(i, _)| (i + 1) as f64 >= p * n as f64)
                .map(|(_, v)| v)
                .expect("non-empty");
            assert_eq!(percentile(&values, p), Some(reference), "n {n} p {p}");
        }
    }
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn quartiles_and_median_match_python_statistics() {
    // Reference values from statistics.quantiles(v, n=4) and
    // statistics.median(v).
    let cases: [(&[f64], (f64, f64), f64); 5] = [
        (&[1.0, 2.0], (0.75, 2.25), 1.5),
        (&[3.0, 1.0, 2.0], (1.0, 3.0), 2.0),
        (&[4.0, 1.0, 3.0, 2.0], (1.25, 3.75), 2.5),
        (&[1.0, 2.0, 3.0, 4.0, 5.0], (1.5, 4.5), 3.0),
        (
            &[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0],
            (2.75, 8.25),
            5.5,
        ),
    ];
    for (values, (q1, q3), mid) in cases {
        assert_eq!(quartiles(values), Some((q1, q3)), "{values:?}");
        assert_eq!(median(values), Some(mid), "{values:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn benchmark_json_lists_the_metrics_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let value: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let entries = value.as_map().expect("object");
    let names = |key: &str| -> Vec<(String, String, String)> {
        serde::field(entries, key)
            .expect(key)
            .as_seq()
            .expect("list")
            .iter()
            .map(|metric| {
                let fields = metric.as_map().expect("metric object");
                let text = |k: &str| match serde::field(fields, k).expect(k) {
                    serde::Value::Str(s) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (text("name"), text("unit"), text("better"))
            })
            .collect()
    };
    let expect = |defs: &[fedfl_perfbench::metrics::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    };
    assert_eq!(names("end_to_end"), expect(&END_TO_END));
    assert_eq!(names("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<String> = serde::field(entries, "workloads")
        .expect("workloads")
        .as_seq()
        .expect("list")
        .iter()
        .map(
            |w| match serde::field(w.as_map().expect("object"), "name") {
                Ok(serde::Value::Str(s)) => s.clone(),
                other => panic!("workload name: {other:?}"),
            },
        )
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_runs_small_and_reports_every_metric() {
    let options = RunOptions {
        trace: true,
        setups: 2,
        min_reprices: 1,
        min_reads: 1,
    };
    for name in WORKLOADS {
        let workload = small(name, 5);
        let run = run(&workload, &options).unwrap_or_else(|e| panic!("{name}: {}", e.message));
        assert_eq!(
            run.rounds.len(),
            2,
            "{name}: an untraced and a traced round"
        );
        let e2e = end_to_end(&run);
        let layers = per_layer(&run);
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(layers.len(), PER_LAYER.len());
        for metric in e2e.iter().chain(&layers) {
            assert!(
                metric.value.is_finite(),
                "{name}: {} = {}",
                metric.def.name,
                metric.value
            );
        }
        for metric in &e2e {
            if metric.def.name != "ok_rate" {
                assert!(metric.value > 0.0, "{name}: {} is 0", metric.def.name);
            }
        }
        let layer = |n: &str| {
            layers
                .iter()
                .find(|m| m.def.name == n)
                .map(|m| m.value)
                .expect(n)
        };
        assert!(layer("service.reprice_ms_p50") > 0.0, "{name}");
        assert_eq!(layer("core.fallback_frac"), 0.0, "{name}");
        assert_eq!(layer("net.error_frames"), 0.0, "{name}");
        assert!(layer("service.get_prices_us_p50") > 0.0, "{name}");
        assert!(layer("core.active_set.build_ms") > 0.0, "{name}");
        if name == "fast-sparse-100k" {
            assert!(run.loopback.is_some());
            assert!(layer("net.call_us_p50") > 0.0);
            assert!(layer("net.bytes_per_reply") > 0.0);
        } else {
            assert!(run.loopback.is_none(), "{name}");
            assert_eq!(layer("net.call_us_p50"), 0.0, "{name}");
        }
    }
}
