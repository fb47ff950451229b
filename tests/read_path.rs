//! Read-path integration tests (PR 5): compiled predicates agree with
//! the interpreter on arbitrary expressions and rows, streaming scans
//! with limit/predicate pushdown return exactly the materialized scan's
//! prefix at several shard counts, and the read lane + plan cache are
//! observable through the driver.

use std::sync::Arc;

use proptest::prelude::*;

use udbms_core::{obj, CollectionSchema, Key, Params, Value};
use udbms_engine::{Engine, Isolation};
use udbms_query::{eval, BinOp, CompiledPred, Env, Expr, MemberStep, Query, UnOp};
use udbms_relational::Predicate;

/// Build a deterministic expression tree over loop variable `r` from an
/// opcode spec. Covers literals, member paths (present and missing),
/// whole-row references, unary and every binary operator — including
/// shapes that produce type errors, which both evaluators must agree
/// on.
fn build_expr(spec: &[(u8, i64)], pos: &mut usize, depth: usize) -> Expr {
    let (op, a) = spec.get(*pos).copied().unwrap_or((0, 1));
    *pos += 1;
    let leaf = |op: u8, a: i64| -> Expr {
        match op % 6 {
            0 => Expr::Literal(Value::Int(a)),
            1 => Expr::Literal(Value::from(format!("s{}", a.rem_euclid(4)))),
            2 => Expr::Literal(Value::Bool(a % 2 == 0)),
            3 => Expr::Var("r".into()),
            _ => {
                let fields = ["g", "n", "name", "missing", "nest"];
                let f = fields[(a.rem_euclid(fields.len() as i64)) as usize];
                Expr::Member {
                    base: Box::new(Expr::Var("r".into())),
                    steps: vec![MemberStep::Field(f.into())],
                }
            }
        }
    };
    if depth >= 3 || op % 16 < 6 {
        return leaf(op, a);
    }
    if op % 16 < 8 {
        let inner = build_expr(spec, pos, depth + 1);
        return Expr::Unary {
            op: if op % 2 == 0 { UnOp::Not } else { UnOp::Neg },
            expr: Box::new(inner),
        };
    }
    let ops = [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::And,
        BinOp::Or,
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::In,
        BinOp::Like,
    ];
    let bin = ops[(a.rem_euclid(ops.len() as i64)) as usize];
    let lhs = build_expr(spec, pos, depth + 1);
    let rhs = build_expr(spec, pos, depth + 1);
    Expr::Binary {
        op: bin,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

proptest! {
    /// A compiled predicate and the interpreter produce the same result
    /// — value or error — for arbitrary row-local expressions over
    /// arbitrary rows.
    #[test]
    fn compiled_predicates_agree_with_interpreter(
        spec in prop::collection::vec((0u8..255, -6i64..6), 1..24),
        g in -4i64..4,
        n in -100i64..100,
        tag in 0i64..4,
    ) {
        let expr = build_expr(&spec, &mut 0, 0);
        let row = obj! {
            "g" => g,
            "n" => n,
            "name" => format!("s{tag}"),
            "nest" => obj! {"x" => g * 2},
        };
        let Some(compiled) = CompiledPred::compile(&expr, "r") else {
            // not row-local (e.g. generated `@param`-free tree never is,
            // but whole-row `Neg` etc. still compile; nothing to check
            // when the compiler declines)
            return Ok(());
        };
        let engine = Engine::new();
        let mut txn = engine.begin(Isolation::Snapshot);
        let env = Env::new().with("r", row.clone());
        let interpreted = eval(&expr, &env, &mut txn);
        let fast = compiled.eval(&row);
        match (&interpreted, &fast) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "expr {:?}", expr),
            (Err(a), Err(b)) => prop_assert_eq!(
                a.to_string(),
                b.to_string(),
                "error mismatch for {:?}",
                expr
            ),
            _ => prop_assert!(
                false,
                "one path errored, the other did not: {:?} vs {:?} for {:?}",
                interpreted,
                fast,
                expr
            ),
        }
        // matches() is the truthiness of eval()
        if let Ok(v) = &fast {
            prop_assert_eq!(compiled.matches(&row).unwrap(), v.is_truthy());
        }
    }

    /// `scan_limited` / `select_limited` return exactly the materialized
    /// scan's prefix at shard counts 1, 3 and 8, for arbitrary data and
    /// limits.
    #[test]
    fn limited_scans_are_materialized_prefixes(
        rows in prop::collection::vec((0i64..96, 0i64..6, -50i64..50), 1..80),
        probe_g in 0i64..6,
        limit in 0usize..40,
    ) {
        for shards in [1usize, 3, 8] {
            let engine = Engine::with_shards(shards);
            engine
                .create_collection(CollectionSchema::key_value("data"))
                .unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    for (k, g, n) in &rows {
                        t.put("data", Key::int(*k), obj! {"g" => *g, "n" => *n})?;
                    }
                    Ok(())
                })
                .unwrap();
            let mut t = engine.begin(Isolation::Snapshot);
            let full = t.scan_shared("data").unwrap();
            let limited = t.scan_limited("data", limit).unwrap();
            prop_assert_eq!(
                &limited,
                &full[..limit.min(full.len())].to_vec(),
                "scan prefix diverged at {} shard(s)",
                shards
            );
            let pred = Predicate::eq("g", Value::Int(probe_g));
            let matches = t.select_shared("data", &pred).unwrap();
            let bounded = t.select_limited("data", &pred, Some(limit)).unwrap();
            prop_assert_eq!(
                &bounded,
                &matches[..limit.min(matches.len())].to_vec(),
                "select prefix diverged at {} shard(s)",
                shards
            );
        }
    }

    /// The MMQL `LIMIT` pushdown returns the same rows as the defeated
    /// (fully materialized) plan, across shard counts and offsets.
    #[test]
    fn mmql_limit_pushdown_equals_materialized_plan(
        rows in prop::collection::vec((0i64..64, 0i64..5), 1..60),
        offset in 0usize..6,
        count in 0usize..20,
    ) {
        for shards in [1usize, 3, 8] {
            let engine = Engine::with_shards(shards);
            engine
                .create_collection(CollectionSchema::key_value("kv"))
                .unwrap();
            engine
                .run(Isolation::Snapshot, |t| {
                    for (k, g) in &rows {
                        t.put("kv", Key::int(*k), obj! {"g" => *g, "k" => *k})?;
                    }
                    Ok(())
                })
                .unwrap();
            let pushed = udbms_query::run(
                &engine,
                Isolation::Snapshot,
                &format!("FOR x IN kv LIMIT {offset}, {count} RETURN x.k"),
            )
            .unwrap();
            // LET between FOR and LIMIT defeats the adjacency rule
            let materialized = udbms_query::run(
                &engine,
                Isolation::Snapshot,
                &format!("FOR x IN kv LET d = 1 LIMIT {offset}, {count} RETURN x.k"),
            )
            .unwrap();
            prop_assert_eq!(&pushed, &materialized, "{} shard(s)", shards);
        }
    }
}

fn social_engine() -> Engine {
    let engine = Engine::new();
    engine
        .create_collection(CollectionSchema::key_value("orders"))
        .unwrap();
    engine
        .run(Isolation::Snapshot, |t| {
            for i in 0..40i64 {
                t.put(
                    "orders",
                    Key::int(i),
                    obj! {"g" => i % 4, "n" => i, "status" => if i % 2 == 0 { "open" } else { "paid" }},
                )?;
            }
            Ok(())
        })
        .unwrap();
    engine
}

/// `scan_shared` overlays a transaction's own puts and deletes on the
/// scanned collection, in key order, under every isolation level, and a
/// buffered write on another collection leaves the scan as storage has
/// it.
#[test]
fn scans_overlay_own_writes_only_on_their_collection() {
    let engine = social_engine();
    engine
        .create_collection(CollectionSchema::key_value("other"))
        .unwrap();
    let committed = engine.begin_read().scan_shared("orders").unwrap();
    let ns = |rows: &[(Key, Arc<Value>)]| -> Vec<(Key, Value)> {
        rows.iter()
            .map(|(k, v)| (k.clone(), v.get_field("n").clone()))
            .collect()
    };
    for iso in [
        Isolation::ReadCommitted,
        Isolation::Snapshot,
        Isolation::Serializable,
    ] {
        // another collection's write: the scan is storage's, row for row
        let mut t = engine.begin(iso);
        t.put("other", Key::int(3), obj! {"n" => -1}).unwrap();
        assert_eq!(t.scan_shared("orders").unwrap(), committed, "{iso:?}");
        assert_eq!(
            t.scan_limited("orders", 5).unwrap(),
            committed[..5].to_vec()
        );
        let g_is_3 = Predicate::eq("g", Value::Int(3));
        assert_eq!(
            t.select_shared("orders", &g_is_3).unwrap(),
            engine
                .begin_read()
                .select_shared("orders", &g_is_3)
                .unwrap()
        );
        t.abort();

        // own put (new and overwrite) and delete on the scanned collection
        let mut t = engine.begin(iso);
        t.put("orders", Key::int(100), obj! {"n" => 100}).unwrap();
        t.put("orders", Key::int(-1), obj! {"n" => -1}).unwrap();
        t.put("orders", Key::int(5), obj! {"n" => 500}).unwrap();
        assert!(t.delete("orders", &Key::int(7)).unwrap());
        let mut want = ns(&committed);
        want.retain(|(k, _)| *k != Key::int(7));
        want.insert(0, (Key::int(-1), Value::Int(-1)));
        want.push((Key::int(100), Value::Int(100)));
        for (k, n) in &mut want {
            if *k == Key::int(5) {
                *n = Value::Int(500);
            }
        }
        assert_eq!(ns(&t.scan_shared("orders").unwrap()), want, "{iso:?}");
        assert_eq!(
            ns(&t.scan_limited("orders", 3).unwrap()),
            want[..3].to_vec()
        );
        // a buffered delete hides the row from predicate scans too
        let g3: Vec<Value> = t
            .select_shared("orders", &g_is_3)
            .unwrap()
            .iter()
            .map(|v| v.get_field("n").clone())
            .collect();
        let want_g3: Vec<Value> = (3..40)
            .step_by(4)
            .filter(|n| *n != 7)
            .map(Value::Int)
            .collect();
        assert_eq!(g3, want_g3, "{iso:?}");
        t.abort();
    }
}

/// Compiled filters and interpreter filters agree through full query
/// execution (the compiled text vs a call-wrapped text that defeats
/// compilation).
#[test]
fn compiled_and_interpreted_queries_agree_end_to_end() {
    let engine = social_engine();
    for (fast, slow) in [
        (
            "FOR r IN orders FILTER r.g % 2 == 1 RETURN r.n",
            "FOR r IN orders FILTER TO_NUMBER(r.g) % 2 == 1 RETURN r.n",
        ),
        (
            "FOR r IN orders FILTER r.n * 2 >= 60 AND r.status == \"open\" RETURN r.n",
            "FOR r IN orders FILTER TO_NUMBER(r.n) * 2 >= 60 AND r.status == \"open\" RETURN r.n",
        ),
    ] {
        let a = udbms_query::run(&engine, Isolation::Snapshot, fast).unwrap();
        let b = udbms_query::run(&engine, Isolation::Snapshot, slow).unwrap();
        assert_eq!(a, b, "{fast}");
    }
}

/// The same query through the read lane and through a full transaction
/// returns identical rows.
#[test]
fn read_lane_and_txn_queries_agree() {
    let engine = social_engine();
    let q = Query::parse("FOR r IN orders FILTER r.g == 2 SORT r.n DESC RETURN r.n").unwrap();
    assert!(q.is_read_only());
    let via_txn = engine.run(Isolation::Snapshot, |t| q.execute(t)).unwrap();
    let mut lane = engine.begin_read();
    let via_lane = q.execute(&mut lane).unwrap();
    lane.commit().unwrap();
    assert_eq!(via_txn, via_lane);
    assert!(engine.stats().read_txns >= 1);
    // DML statements are not read-only
    assert!(!Query::parse("REMOVE 1 IN orders").unwrap().is_read_only());
    assert!(!Query::parse("INSERT {a: 1} INTO orders")
        .unwrap()
        .is_read_only());
}

/// Explain reports the new plan decisions.
#[test]
fn explain_reports_compiled_residual_and_limit_pushdown() {
    let q = Query::parse("FOR r IN orders FILTER r.g % 4 == 3 RETURN r.n").unwrap();
    assert!(q.explain().contains("compiled residual"), "{}", q.explain());
    let q = Query::parse("FOR r IN orders FILTER TO_NUMBER(r.g) == 3 RETURN r.n").unwrap();
    assert!(
        !q.explain().contains("compiled residual"),
        "{}",
        q.explain()
    );
    let q = Query::parse("FOR r IN orders LIMIT 3, 7 RETURN r").unwrap();
    assert!(
        q.explain().contains("limit pushdown: 10"),
        "{}",
        q.explain()
    );
    // a SORT in between defeats the adjacency rule
    let q = Query::parse("FOR r IN orders SORT r.n LIMIT 10 RETURN r").unwrap();
    assert!(!q.explain().contains("limit pushdown"), "{}", q.explain());
}

/// Arc sharing is preserved from storage through query execution: two
/// reads of the same record see the same allocation, and a snapshot
/// scan does not deep-copy rows.
#[test]
fn values_stay_shared_through_the_txn_api() {
    let engine = social_engine();
    let mut a = engine.begin_read();
    let mut b = engine.begin_read();
    let va = a.get_shared("orders", &Key::int(7)).unwrap().unwrap();
    let vb = b.get_shared("orders", &Key::int(7)).unwrap().unwrap();
    assert!(Arc::ptr_eq(&va, &vb));
    let scanned = a.scan_shared("orders").unwrap();
    let again = b.scan_shared("orders").unwrap();
    for ((_, x), (_, y)) in scanned.iter().zip(&again) {
        assert!(Arc::ptr_eq(x, y), "scan must not copy stored rows");
    }
}

/// The driver's plan cache and read lane surface through `counters()`.
#[test]
fn driver_counters_report_plan_cache_and_read_lane() {
    use udbms_datagen::{generate, workload, GenConfig};
    use udbms_driver::{EngineSubject, Subject};

    let data = generate(&GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    });
    let subject = EngineSubject::new();
    subject.load(&data).unwrap();
    let q1 = workload::queries()[0];
    let params = workload::QueryParams::draw(&data, 1).bindings();
    // prepare the same text thrice: one miss, two hits
    let prepared = subject.prepare(&q1).unwrap();
    subject.prepare(&q1).unwrap();
    subject.prepare(&q1).unwrap();
    for _ in 0..4 {
        subject.execute(&prepared, &params).unwrap();
    }
    let counters: std::collections::HashMap<String, i64> = subject.counters().into_iter().collect();
    assert_eq!(counters["plan_misses"], 1, "{counters:?}");
    assert_eq!(counters["plan_hits"], 2, "{counters:?}");
    assert_eq!(
        counters["read_lane"], 4,
        "Q1 is read-only and must ride the lane: {counters:?}"
    );
    assert_eq!(subject.plan_cache().len(), 1);
}

/// Bound parameters keep working through the cached-plan path.
#[test]
fn plan_cache_serves_bindable_plans() {
    let engine = social_engine();
    let cache = udbms_query::PlanCache::new(4);
    let plan = cache
        .get_or_parse("FOR r IN orders FILTER r.g == @g RETURN r.n")
        .unwrap();
    let again = cache
        .get_or_parse("FOR r IN orders FILTER r.g == @g RETURN r.n")
        .unwrap();
    assert!(Arc::ptr_eq(&plan, &again));
    for g in 0..4i64 {
        let bound = plan.bind(&Params::new().with("g", g)).unwrap();
        let mut lane = engine.begin_read();
        let rows = bound.execute(&mut lane).unwrap();
        lane.commit().unwrap();
        assert_eq!(rows.len(), 10, "g={g}");
    }
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}
