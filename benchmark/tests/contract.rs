//! What the benchmark promises, checked on `--smoke` sizes: the metric
//! tables match `BENCHMARK.json`, every run emits exactly those names with
//! their units, tails follow the ten-samples-beyond rule, spans nest, the
//! exact counters are a function of the seed, and the committed baseline's
//! two sets of one commit compare as neither gain nor regression.

use std::collections::BTreeMap;
use std::path::Path;
use structura_bench::json::Json;
use structura_bench::orchestrate::{compare, end_to_end_bounds, load_set};
use structura_bench::report::{Outcome, END_TO_END, PER_LAYER};
use structura_bench::trace::Tracer;
use structura_bench::workloads::{run, Config, MIN_SAMPLES, WORKLOADS};

fn smoke(name: &str, seed: u64, traced: bool) -> (Outcome, Tracer) {
    let mut tr = Tracer::new(traced);
    let out =
        run(name, &Config { seed, seconds: 0.0, smoke: true }, &mut tr).expect("known workload");
    (out, tr)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .and_then(Json::arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn every_benchmark_json_name_is_emitted_with_its_unit() {
    let j = benchmark_json();
    assert_eq!(listed(&j, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&j, "per_layer"), owned(PER_LAYER));
    let names: Vec<&str> = j
        .get("workloads")
        .and_then(Json::arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);

    for &w in WORKLOADS {
        for traced in [false, true] {
            let (out, _) = smoke(w, 1, traced);
            let line = Json::parse(&out.result_line(traced)).expect("result line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{w}");
            assert!(line.get("attempted").and_then(Json::num).expect("attempted") >= 1.0);
            let metrics = line.get("metrics").and_then(Json::obj).expect("metrics");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, m)| (k.clone(), m.get("unit").and_then(Json::str).expect("unit").into()))
                .collect();
            let mut want = owned(if traced { PER_LAYER } else { END_TO_END });
            want.sort();
            assert_eq!(emitted, want, "{w} traced={traced}");
            if !traced {
                for (k, m) in metrics {
                    let v = m.get("value").and_then(Json::num).expect("numeric value");
                    assert!(v > 0.0, "{w}: end-to-end metric {k} must never be 0, got {v}");
                }
            }
            // Units printed on the metric lines agree with the tables.
            for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
                if let Some((_, u)) = out.metrics.get(name) {
                    assert_eq!(u, unit, "{w}: {name}");
                }
            }
        }
    }
}

#[test]
fn tails_are_p99_only_with_ten_samples_beyond() {
    for &w in WORKLOADS {
        let (out, _) = smoke(w, 1, false);
        let n = out.metrics["op.samples"].0 as usize;
        let flagged = out.metrics.contains_key("op.p99_is_max");
        assert_eq!(flagged, n < MIN_SAMPLES, "{w}: {n} samples, p99 flagged as max: {flagged}");
    }
}

#[test]
fn spans_nest_inside_their_parents_with_nonnegative_self_time() {
    for &w in WORKLOADS {
        let (_, tr) = smoke(w, 1, true);
        let spans = tr.spans();
        assert!(!spans.is_empty(), "{w}");
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            assert!(s.start_ns <= s.end_ns, "{w}: {s:?}");
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns, "{w}: {s:?}");
                children[p] += s.duration_ns();
            }
        }
        for (s, c) in spans.iter().zip(children) {
            assert!(c <= s.duration_ns(), "{w}: children outlast {s:?}");
        }
        assert_eq!(tr.self_ns().len(), spans.len());
    }
}

/// The exact counters a workload reports.
fn counters(out: &Outcome) -> BTreeMap<String, f64> {
    const EXACT: [&str; 14] = [
        "mobility.contacts",
        "temporal.delta_edges",
        "maintain.cores.touched",
        "maintain.nsf.touched",
        "maintain.forwarding.touched",
        "serve.fallbacks",
        "distsim.rounds",
        "distsim.sent",
        "distsim.messages",
        "distsim.dropped",
        "distsim.duplicated",
        "distsim.shed",
        "serve.distance_exact.count",
        "serve.forwarding_set.entries",
    ];
    EXACT.iter().filter_map(|&k| out.metrics.get(k).map(|m| (k.to_string(), m.0))).collect()
}

#[test]
fn exact_counters_repeat_per_seed_and_change_across_seeds() {
    for &w in WORKLOADS {
        let a = counters(&smoke(w, 1, false).0);
        assert!(!a.is_empty(), "{w} reports no exact counter");
        assert_eq!(a, counters(&smoke(w, 1, false).0), "{w}: same seed, same counters");
        assert_ne!(a, counters(&smoke(w, 2, false).0), "{w}: another seed, other counters");
    }
}

/// The committed baseline holds two sets of one commit whose runs were made
/// in pairs, back to back, alternating which went first: compared, they
/// must show no gain, no regression and identical exact counters.
#[test]
fn same_commit_baseline_pair_shows_no_gain_or_regression() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let base = load_set(&root.join("baseline/base")).expect("baseline/base");
    let new = load_set(&root.join("baseline/new")).expect("baseline/new");
    let bounds = end_to_end_bounds(&root.join("../BENCHMARK.json")).expect("bounds");
    let lines = compare(&base, &new, &bounds);
    assert_eq!(lines.len(), WORKLOADS.len() * (bounds.len() + 2), "{lines:#?}");
    for l in &lines {
        assert!(!l.ends_with(" gain") && !l.ends_with(" regression"), "{l}");
        assert!(!l.contains("DIFFER"), "{l}");
    }
}
