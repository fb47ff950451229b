//! MMQL edge cases across crates: scoping, pushdown correctness under
//! mutation, COLLECT corner shapes, traversal bounds — the behaviours a
//! second implementation would most likely get subtly wrong.

use proptest::prelude::*;

use udbms::core::{obj, CollectionSchema, FieldPath, Key, Value};
use udbms::engine::{Engine, Isolation};
use udbms::relational::IndexKind;

fn engine() -> Engine {
    let e = Engine::new();
    e.create_collection(CollectionSchema::document("t", "_id", vec![]))
        .unwrap();
    e.create_graph("g").unwrap();
    e.run(Isolation::Snapshot, |txn| {
        for i in 1..=6 {
            txn.insert("t", obj! {"_id" => i, "v" => i, "grp" => i % 2})?;
        }
        for i in 1..=4 {
            txn.add_vertex("g", Key::int(i), "n", obj! {"n" => i})?;
        }
        txn.add_edge("g", &Key::int(1), &Key::int(2), "e", Value::Null)?;
        txn.add_edge("g", &Key::int(2), &Key::int(3), "e", Value::Null)?;
        txn.add_edge("g", &Key::int(3), &Key::int(1), "e", Value::Null)?; // cycle
        txn.add_edge("g", &Key::int(3), &Key::int(4), "e", Value::Null)?;
        Ok(())
    })
    .unwrap();
    e
}

fn q(e: &Engine, text: &str) -> Vec<Value> {
    udbms::query::run(e, Isolation::Snapshot, text).unwrap()
}

#[test]
fn variable_shadowing_in_nested_for() {
    let e = engine();
    // inner `x` shadows outer `x`; outer scope restored for RETURN of outer
    let out = q(
        &e,
        "FOR x IN [1, 2] LET inner = (FOR x IN [10, 20] RETURN x) RETURN {x, inner}",
    );
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].get_field("x"), &Value::Int(1));
    assert_eq!(out[0].get_dotted("inner[1]").unwrap(), &Value::Int(20));
}

#[test]
fn let_bound_array_iterated_by_name_not_collection() {
    let e = engine();
    // `t` is also a collection name; the LET binding must win
    let out = q(&e, "LET t = [100] FOR row IN t RETURN row");
    assert_eq!(out, vec![Value::Int(100)]);
    // without the binding, the collection is iterated
    let out = q(&e, "FOR row IN t COLLECT AGGREGATE n = COUNT() RETURN n");
    assert_eq!(out, vec![Value::Int(6)]);
}

#[test]
fn collect_without_groups_and_empty_inputs() {
    let e = engine();
    let out = q(
        &e,
        "FOR x IN t FILTER x.v > 100 COLLECT AGGREGATE n = COUNT() RETURN n",
    );
    // no input rows ⇒ no groups ⇒ no output rows (AQL semantics)
    assert_eq!(out, Vec::<Value>::new());
    let out = q(
        &e,
        "FOR x IN t COLLECT g = x.grp AGGREGATE n = COUNT() SORT g RETURN {g, n}",
    );
    assert_eq!(
        out,
        vec![obj! {"g" => 0, "n" => 3}, obj! {"g" => 1, "n" => 3}]
    );
}

#[test]
fn traversal_cycles_and_bounds() {
    let e = engine();
    // BFS never revisits: the 1→2→3→1 cycle terminates
    let out = q(&e, "FOR v IN 1..10 OUTBOUND 1 GRAPH g RETURN v.n");
    assert_eq!(out, vec![Value::Int(2), Value::Int(3), Value::Int(4)]);
    // zero-hop traversal yields only the start
    let out = q(&e, "FOR v IN 0..0 OUTBOUND 1 GRAPH g RETURN v.n");
    assert_eq!(out, vec![Value::Int(1)]);
    // unknown start vertex yields nothing (layer 0 vertex lookup is Null-safe)
    let out = q(&e, "FOR v IN 1..2 OUTBOUND 99 GRAPH g RETURN v");
    assert_eq!(out, Vec::<Value>::new());
}

#[test]
fn pushdown_agrees_with_residual_on_updates_in_txn() {
    let e = engine();
    e.create_index("t", FieldPath::key("v"), IndexKind::BTree)
        .unwrap();
    // inside one transaction: update a row, then query — the pushed
    // predicate must see the uncommitted write exactly like a scan would
    e.run(Isolation::Snapshot, |txn| {
        txn.merge("t", &Key::int(1), obj! {"v" => 100})?;
        let query = udbms::query::Query::parse("FOR x IN t FILTER x.v >= 100 RETURN x._id")?;
        let out = query.execute(txn)?;
        assert_eq!(
            out,
            vec![Value::Int(1)],
            "own write visible through index path"
        );
        let scan_query =
            udbms::query::Query::parse("FOR x IN t FILTER TO_NUMBER(x.v) >= 100 RETURN x._id")?;
        assert_eq!(scan_query.execute(txn)?, out, "pushdown == residual scan");
        Ok(())
    })
    .unwrap();
}

#[test]
fn dynamic_pushdown_handles_null_join_keys() {
    let e = engine();
    // an index on the probed path must NOT change null-equality results
    // (nulls are unindexed; the engine must fall back to scanning)
    e.create_index("t", FieldPath::key("v"), IndexKind::Hash)
        .unwrap();
    e.run(Isolation::Snapshot, |txn| {
        txn.insert("t", obj! {"_id" => 7, "v" => Value::Null})?;
        Ok(())
    })
    .unwrap();
    // o.v == x.v with x.v == null must match only null rows (canonical
    // equality), identically with and without pushdown
    let pushed = q(
        &e,
        "FOR x IN t FILTER x._id == 7 FOR y IN t FILTER y.v == x.v RETURN y._id",
    );
    let scanned = q(
        &e,
        "FOR x IN t FILTER x._id == 7 FOR y IN t FILTER TO_STRING(y.v) == TO_STRING(x.v) AND y.v == x.v RETURN y._id",
    );
    assert_eq!(pushed, scanned);
    assert_eq!(pushed, vec![Value::Int(7)]);
}

#[test]
fn limit_offset_beyond_end_and_distinct_on_objects() {
    let e = engine();
    assert_eq!(
        q(&e, "FOR x IN t LIMIT 100, 5 RETURN x"),
        Vec::<Value>::new()
    );
    assert_eq!(q(&e, "FOR x IN t LIMIT 4, 100 RETURN x._id").len(), 2);
    let out = q(&e, "FOR x IN t RETURN DISTINCT {g: x.grp}");
    assert_eq!(out.len(), 2, "distinct works on constructed objects");
}

#[test]
fn dml_respects_transaction_boundaries() {
    let e = engine();
    // an aborted transaction's DML never lands
    let mut txn = e.begin(Isolation::Snapshot);
    let ins = udbms::query::Query::parse("INSERT {_id: 99, v: 99} INTO t").unwrap();
    ins.execute(&mut txn).unwrap();
    txn.abort();
    assert_eq!(
        q(&e, "FOR x IN t FILTER x._id == 99 RETURN x"),
        Vec::<Value>::new()
    );
    // remove of a missing key reports false, inside the same semantics
    let out = udbms::query::run(&e, Isolation::Snapshot, "REMOVE 1234 IN t").unwrap();
    assert_eq!(out, vec![Value::Bool(false)]);
}

#[test]
fn sort_is_canonical_across_types() {
    let e = engine();
    let out = q(
        &e,
        r#"FOR x IN [true, "z", 3, NULL, 1.5, [1]] SORT x RETURN x"#,
    );
    assert_eq!(
        out,
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
            Value::Int(3),
            Value::from("z"),
            Value::Array(vec![Value::Int(1)]),
        ]
    );
}

#[test]
fn array_index_outside_bounds_is_null_on_both_ends() {
    let e = engine();
    let at = |i: &str| q(&e, &format!("LET a = [1, 2, 3] RETURN a[{i}]"));
    assert_eq!(at("0"), vec![Value::Int(1)]);
    assert_eq!(at("2"), vec![Value::Int(3)]);
    assert_eq!(at("-1"), vec![Value::Int(3)]);
    assert_eq!(at("-3"), vec![Value::Int(1)], "-len is the first element");
    assert_eq!(at("3"), vec![Value::Null]);
    assert_eq!(at("10"), vec![Value::Null]);
    assert_eq!(at("-4"), vec![Value::Null], "one past -len");
    assert_eq!(at("-10"), vec![Value::Null]);
    // the same rule on a stored row's member chain
    let out = q(
        &e,
        "FOR r IN t FILTER r._id == 1 RETURN [[r.v][-1], [r.v][-2]]",
    );
    assert_eq!(out, vec![Value::Array(vec![Value::Int(1), Value::Null])]);
}

/// Group keys: `2` next to `2.0`, `0` next to `-0.0`, plus `Null`, a
/// string and another number.
fn group_value(i: u8) -> Value {
    [
        Value::Int(2),
        Value::Float(2.0),
        Value::Int(0),
        Value::Float(-0.0),
        Value::Null,
        Value::from("a"),
        Value::Int(1),
    ][usize::from(i) % 7]
        .clone()
}

/// Aggregate inputs mixing `Int`, `Float`, `-0.0`, `Null` and non-numbers.
fn input_value(i: u8) -> Value {
    [
        Value::Int(2),
        Value::Float(2.0),
        Value::Int(-3),
        Value::Float(-0.0),
        Value::Null,
        Value::from("a"),
        Value::Float(0.5),
        Value::Int(0),
        Value::Bool(true),
        Value::Float(1e16),
    ][usize::from(i) % 10]
        .clone()
}

/// Strict identity: variant and float bits, not canonical equality.
fn exact(v: &Value) -> String {
    format!("{v:?}")
}

fn rows_engine(rows: &[(u8, u8)]) -> Engine {
    let e = Engine::new();
    e.create_collection(CollectionSchema::key_value("rows"))
        .unwrap();
    e.run(Isolation::Snapshot, |txn| {
        for (i, (g, v)) in rows.iter().enumerate() {
            txn.put(
                "rows",
                Key::int(i as i64),
                obj! {"g" => group_value(*g), "v" => input_value(*v)},
            )?;
        }
        Ok(())
    })
    .unwrap();
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// COLLECT's one-pass grouping and aggregation agree with a
    /// reference: groups in canonical key order, each group keyed by its
    /// first-seen representation, `INTO` members in row order, and every
    /// aggregate bit-identical to the function library's SUM/AVG/MIN/MAX/
    /// LENGTH over the same group's inputs.
    #[test]
    fn collect_matches_reference_grouping_and_function_library(
        rows in prop::collection::vec((0u8..7, 0u8..10), 0..40),
    ) {
        let e = rows_engine(&rows);
        let out = q(
            &e,
            "FOR r IN rows
               COLLECT g = r.g
               AGGREGATE s = SUM(r.v), a = AVG(r.v), lo = MIN(r.v), hi = MAX(r.v), n = COUNT(r.v)
               INTO m
               LET vs = (FOR x IN m RETURN x.r.v)
               RETURN {g, vs, got: [s, a, lo, hi, n],
                       want: [SUM(vs), AVG(vs), MIN(vs), MAX(vs), LENGTH(vs)]}",
        );
        // reference grouping: linear search under canonical equality
        let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
        for (g, v) in &rows {
            let (g, v) = (group_value(*g), input_value(*v));
            match groups.iter_mut().find(|(k, _)| *k == g) {
                Some((_, members)) => members.push(v),
                None => groups.push((g, vec![v])),
            }
        }
        groups.sort_by(|(a, _), (b, _)| a.cmp(b));
        prop_assert_eq!(out.len(), groups.len());
        for (row, (key, members)) in out.iter().zip(&groups) {
            prop_assert_eq!(exact(row.get_field("g")), exact(key));
            prop_assert_eq!(exact(row.get_field("vs")), exact(&Value::Array(members.clone())));
            prop_assert_eq!(exact(row.get_field("got")), exact(row.get_field("want")));
        }
    }

    /// `RETURN DISTINCT` keeps the first occurrence of each canonically
    /// equal value, in output order.
    #[test]
    fn distinct_keeps_first_occurrences(
        rows in prop::collection::vec((0u8..7, 0u8..10), 0..40),
    ) {
        let e = rows_engine(&rows);
        let out = q(&e, "FOR r IN rows RETURN DISTINCT r.v");
        let mut want: Vec<Value> = Vec::new();
        for (_, v) in &rows {
            let v = input_value(*v);
            if !want.contains(&v) {
                want.push(v);
            }
        }
        prop_assert_eq!(
            out.iter().map(exact).collect::<Vec<_>>(),
            want.iter().map(exact).collect::<Vec<_>>()
        );
    }
}
