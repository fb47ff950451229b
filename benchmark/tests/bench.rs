//! The benchmark's own tests: a tiny-scale smoke run of every workload,
//! op-stream determinism, and a check that a wrong expectation fails
//! the run.

use std::path::PathBuf;

use udbms_core::Value;
use udbms_datagen::{generate, GenConfig};
use udbms_perfbench::trace::{Breakdown, Span, NO_PARENT};
use udbms_perfbench::{check, measure, ops, report, run, Config, Workload};

const SCALE: f64 = 0.02;

/// A short run at `SCALE`: the warm-up and the minimum of measured
/// rounds, with a scratch directory of its own.
fn tiny(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 7, 0.0, trace);
    cfg.scale = SCALE;
    cfg.ops = 48;
    cfg.clients = 2;
    cfg.dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{}", workload.name(), u8::from(trace)));
    cfg
}

fn benchmark_json() -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    udbms_json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get_field(list)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.get_field("name").as_str().expect("name").to_string(),
                m.get_field("unit").as_str().expect("unit").to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_named_metric_with_zero_errors() {
    for workload in Workload::ALL {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&tiny(workload, trace)).expect("run");
            assert!(outcome.correct, "{}: {}", workload.name(), outcome.report);
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            assert!(
                outcome.report.contains("error_rate") && outcome.report.contains("0.000000 ratio"),
                "{}",
                outcome.report
            );
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, declared(list), "{} {list}", workload.name());
            for (name, unit) in &printed {
                assert!(
                    outcome.report.contains(name) && outcome.report.contains(unit.as_str()),
                    "{name} missing from the report"
                );
            }
            let json = outcome.json();
            assert!(
                json.starts_with(r#"{"correct": true, "attempted": "#),
                "{json}"
            );
            assert!(udbms_json::parse(&json).is_ok(), "{json}");
        }
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_their_reasons() {
    let listed: Vec<(String, String)> = benchmark_json()
        .get_field("workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| {
            (
                w.get_field("name").as_str().expect("name").to_string(),
                w.get_field("why").as_str().expect("why").to_string(),
            )
        })
        .collect();
    let defined: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(listed, defined);
}

#[test]
fn the_same_seed_gives_the_same_op_stream() {
    let data = generate(&GenConfig::at_scale(SCALE));
    let key = |p: &ops::Plan| {
        let items: Vec<_> = p
            .items
            .iter()
            .map(|i| (i.query.id, i.params.clone(), i.literal.clone()))
            .collect();
        (p.ops.clone(), items)
    };
    for workload in Workload::ALL {
        let a = ops::plan(workload, &data, 1, 500).expect("plan");
        let b = ops::plan(workload, &data, 1, 500).expect("plan");
        let c = ops::plan(workload, &data, 2, 500).expect("plan");
        assert_eq!(key(&a), key(&b), "{}", workload.name());
        assert_ne!(key(&a).0, key(&c).0, "{}", workload.name());
    }
}

#[test]
fn adhoc_texts_inline_every_parameter() {
    // the benchmark's own scale: 1 000 customers, 200 products, 3 000 orders
    let data = generate(&GenConfig::at_scale(1.0));
    let plan = ops::plan(Workload::Adhoc, &data, 3, 10).expect("plan");
    for item in &plan.items {
        let text = item
            .literal
            .as_deref()
            .expect("adhoc items carry a literal text");
        assert!(!text.contains('@'), "{text}");
    }
    let texts: std::collections::HashSet<_> = plan
        .items
        .iter()
        .filter_map(|i| i.literal.as_deref())
        .collect();
    assert!(texts.len() > 128, "pool must outgrow the plan cache");
}

#[test]
fn a_tampered_expectation_fails_the_check() {
    let cfg = tiny(Workload::Lookup, false);
    let measured = measure(&cfg).expect("measure");
    let mut expected = check::expectations(
        cfg.workload,
        &measured.plan,
        &measured.subject,
        &GenConfig::at_scale(SCALE),
    )
    .expect("expectations");
    assert!(report(&cfg, &measured, &expected).correct);
    let ops::Op::Read(first) = measured.plan.ops[0] else {
        panic!("lookup issues reads only");
    };
    let want = &mut expected[first as usize];
    *want = want.map(|n| n + 1);
    let outcome = report(&cfg, &measured, &expected);
    assert!(!outcome.correct);
    assert!(outcome.failed > 0);
    assert!(outcome.json().starts_with(r#"{"correct": false"#));
}

#[test]
fn op_spans_must_account_for_the_clients_loop_time() {
    const MS: u64 = 1_000_000;
    let span = |name, parent, start_ms, end_ms| Span {
        name,
        op: 0,
        parent,
        start_ns: start_ms * MS,
        end_ns: end_ms * MS,
    };
    let spans = [
        span("driver.Q6", NO_PARENT, 0, 1_000),
        span("query.prepare", 0, 0, 300),
        span("query.exec", 0, 300, 900),
    ];
    let mut b = Breakdown::default();
    b.add(&spans, 1_010 * MS);
    assert!(b.accounts_for_op_time(), "{}", b.table());
    assert_eq!(b.self_total_ns(), 1_000 * MS);
    assert!((b.unattributed_pct() - 10.0).abs() < 1e-9);
    assert!((b.root_p50_us("driver.Q6") - 1e6).abs() < 1e-9);
    // an op whose work partly ran outside its span
    let mut b = Breakdown::default();
    b.add(&spans, 1_500 * MS);
    assert!(!b.accounts_for_op_time(), "{}", b.table());
}
