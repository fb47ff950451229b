//! Output checks, run after the timed phase.
//!
//! Each pool item is executed once more on the unified engine and once
//! on a `PolyglotSubject` oracle loaded with the same dataset; `adhoc`
//! items also run their literal text. An item whose sorted rows agree
//! everywhere yields its row count, which every timed op on that item
//! must then have returned.

use std::collections::HashMap;

use udbms_core::{Params, Result, Value};
use udbms_datagen::{generate, GenConfig};
use udbms_driver::{EngineSubject, PolyglotSubject, PreparedQuery, Subject};
use udbms_query::Query;

use crate::ops::{Item, Op, Plan, Workload};

/// Expected row count per pool item; `None` where the outputs disagree
/// or a check run failed.
pub fn expectations(
    workload: Workload,
    plan: &Plan,
    subject: &EngineSubject,
    gen: &GenConfig,
) -> Result<Vec<Option<u32>>> {
    if workload == Workload::TxnMix {
        // order 360°: every order exists, so Q8 returns exactly one row
        return Ok(vec![Some(1); plan.items.len()]);
    }
    let oracle = PolyglotSubject::new();
    oracle.load(&generate(gen))?;
    // per statement: both prepared forms and the parameters it reads
    let mut prepared: HashMap<&str, (PreparedQuery, PreparedQuery, Vec<String>)> = HashMap::new();
    // items that bind the same values to a statement's parameters (Q6
    // reads none) have the same result: check each such draw once
    let mut checked: HashMap<String, Option<u32>> = HashMap::new();
    let mut out = Vec::with_capacity(plan.items.len());
    for item in &plan.items {
        if !prepared.contains_key(item.query.id) {
            let entry = (
                subject.prepare(&item.query)?,
                oracle.prepare(&item.query)?,
                Query::parse(item.query.mmql)?.parameters(),
            );
            prepared.insert(item.query.id, entry);
        }
        let (on_engine, on_oracle, names) = &prepared[item.query.id];
        let used: Vec<Option<&Value>> = names.iter().map(|n| item.params.get(n)).collect();
        let key = format!("{}{used:?}", item.query.id);
        let rows = *checked
            .entry(key)
            .or_insert_with(|| agreed_rows(subject, &oracle, on_engine, on_oracle, item));
        out.push(rows);
    }
    Ok(out)
}

fn agreed_rows(
    subject: &EngineSubject,
    oracle: &PolyglotSubject,
    on_engine: &PreparedQuery,
    on_oracle: &PreparedQuery,
    item: &Item,
) -> Option<u32> {
    let sorted = |rows: Result<Vec<Value>>| {
        rows.ok().map(|mut r| {
            r.sort();
            r
        })
    };
    let engine = sorted(subject.execute(on_engine, &item.params))?;
    let expected = sorted(oracle.execute(on_oracle, &item.params))?;
    if engine != expected {
        return None;
    }
    if let Some(text) = &item.literal {
        let literal = sorted(subject.plan_cache().get_or_parse(text).and_then(|parsed| {
            subject.execute(&PreparedQuery::new(&item.query, parsed), &Params::new())
        }))?;
        if literal != engine {
            return None;
        }
    }
    u32::try_from(engine.len()).ok()
}

/// Ops of one round whose row count differs from the expectation
/// (`order_update` returns no rows).
pub fn failed_ops(plan: &Plan, expected: &[Option<u32>], rows: &[u32]) -> usize {
    plan.ops
        .iter()
        .zip(rows)
        .filter(|(op, got)| {
            let want = match op {
                Op::Read(k) => expected[*k as usize],
                Op::Update(_) => Some(0),
            };
            want != Some(**got)
        })
        .count()
}
