//! The four workloads and the seeded op streams they issue.
//!
//! A workload is a pool of *items* (a statement plus one parameter
//! draw) and a fixed-length stream of *ops* over that pool. Everything
//! here is a pure function of the dataset and the `--seed`: the engine
//! only ever sees the generated texts, bindings and order keys.

use std::collections::HashMap;

use udbms_core::{Error, Key, Params, Result, SplitMix64, Value};
use udbms_datagen::workload::{self, BenchQuery, OrderPicker, QueryParams};
use udbms_datagen::Dataset;
use udbms_driver::TxnOp;

/// One of the benchmark's named workloads; [`Workload::why`] says why
/// each is in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Short pk- and index-driven statements (Q1, Q2, Q4, Q5, Q8), each
    /// prepared through the plan cache (a hit) and executed with
    /// `@params`.
    Lookup,
    /// The same loop over the heavy statements (Q3, Q6, Q7, Q9, Q10).
    Analytic,
    /// `Lookup`'s statements with each draw's values written into the
    /// text as literals, from a pool of thousands of distinct texts —
    /// far more than the 128-entry plan cache holds.
    Adhoc,
    /// A WAL-backed engine (`Durability::Flush`, the default): one op in
    /// four is the cross-model `order_update` transaction under SI, the
    /// rest are Q8 order-360 reads; both pick orders from one Zipf
    /// `OrderPicker` at θ = 0.9.
    TxnMix,
}

/// Draws per statement in each read workload's pool.
const LOOKUP_DRAWS: usize = 512;
const ANALYTIC_DRAWS: usize = 256;
/// Adhoc draws per statement: ~3 000 distinct literal texts in all.
const ADHOC_DRAWS: usize = 1024;
/// Zipf skew of the `txn_mix` order picker.
const ORDER_THETA: f64 = 0.9;
/// Every `UPDATE_EVERY`-th `txn_mix` op is an `order_update`.
const UPDATE_EVERY: usize = 4;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Lookup,
        Workload::Analytic,
        Workload::Adhoc,
        Workload::TxnMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytic => "analytic",
            Workload::Adhoc => "adhoc",
            Workload::TxnMix => "txn_mix",
        }
    }

    /// Why the workload is in the benchmark (the `why` of its entry in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Lookup => "short pk/index statements via prepare (plan-cache hit) + execute: fixed per-statement work (cache, bind, read-lane snapshot, result build) dominates; scans and commits idle",
            Workload::Analytic => "traversals, range scans and full-collection aggregation (Q3 Q6 Q7 Q9 Q10): executor and storage visibility walk do nearly all the work",
            Workload::Adhoc => "lookup statements with literals from thousands of distinct texts, far over the 128-entry plan cache: the only workload with parse and cache misses on the path",
            Workload::TxnMix => "WAL engine (flush): 1 in 4 ops is order_update, the rest Q8 reads of the same Zipf-hot orders: the only workload on the commit pipeline, where reads share chains with writes",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The statements the workload's reads draw from.
    pub fn statements(self) -> &'static [&'static str] {
        match self {
            Workload::Lookup | Workload::Adhoc => &["Q1", "Q2", "Q4", "Q5", "Q8"],
            Workload::Analytic => &["Q3", "Q6", "Q7", "Q9", "Q10"],
            Workload::TxnMix => &["Q8"],
        }
    }

    /// Ops per round: one to two seconds on two cores, and at least
    /// 1 000 so that ten samples lie beyond each round's p99.
    pub fn default_ops(self) -> usize {
        match self {
            Workload::Lookup => 30_000,
            Workload::Analytic => 1_000,
            Workload::Adhoc => 15_000,
            Workload::TxnMix => 12_000,
        }
    }

    /// Whether the workload runs on a WAL-backed engine.
    pub fn durable(self) -> bool {
        self == Workload::TxnMix
    }

    fn draws(self) -> usize {
        match self {
            Workload::Lookup => LOOKUP_DRAWS,
            Workload::Analytic => ANALYTIC_DRAWS,
            Workload::Adhoc => ADHOC_DRAWS,
            Workload::TxnMix => 0,
        }
    }
}

/// One pool entry: a statement with one parameter draw.
#[derive(Debug, Clone)]
pub struct Item {
    /// The workload statement.
    pub query: BenchQuery,
    /// The draw as `@param` bindings.
    pub params: Params,
    /// `adhoc` only: the statement text with the draw inlined as
    /// literals.
    pub literal: Option<String>,
    /// `txn_mix` only: the `order_update` on this item's order.
    pub update: Option<TxnOp>,
}

/// One operation of the stream: an index into the item pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Execute the item's statement.
    Read(u32),
    /// Run `order_update` on the item's order.
    Update(u32),
}

/// A workload's item pool and its op stream.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The item pool.
    pub items: Vec<Item>,
    /// The op stream one round issues, in order.
    pub ops: Vec<Op>,
}

/// Build the item pool and an `n_ops`-long op stream for `workload`
/// from `seed`. Equal arguments give equal plans.
pub fn plan(workload: Workload, data: &Dataset, seed: u64, n_ops: usize) -> Result<Plan> {
    let root = SplitMix64::new(seed);
    let mut rng = root.substream("ops");
    if workload == Workload::TxnMix {
        return txn_mix_plan(data, &mut rng, n_ops);
    }
    let queries = workload::queries();
    let stmts = workload
        .statements()
        .iter()
        .map(|id| {
            queries
                .iter()
                .find(|q| q.id == *id)
                .copied()
                .ok_or_else(|| Error::NotFound(format!("workload statement {id}")))
        })
        .collect::<Result<Vec<_>>>()?;
    let draws = workload.draws();
    let mut draw_rng = root.substream("draws");
    // item `s * draws + d` is statement `s` with draw `d`
    let mut items = Vec::with_capacity(stmts.len() * draws);
    for q in &stmts {
        for _ in 0..draws {
            // `draw` adds `which` to a constant: keep it far from overflow
            let params = QueryParams::draw(data, draw_rng.below(1 << 40)).bindings();
            let literal = match workload {
                Workload::Adhoc => Some(inline_literals(q.mmql, &params)?),
                _ => None,
            };
            items.push(Item {
                query: *q,
                params,
                literal,
                update: None,
            });
        }
    }
    // Statement choice is uniform but balanced: every block of
    // `stmts.len()` ops is a seeded permutation of the statements, so
    // each statement's share is exact and only the draws vary by seed.
    let mut block: Vec<usize> = (0..stmts.len()).collect();
    let ops = (0..n_ops)
        .map(|i| {
            if i % block.len() == 0 {
                rng.shuffle(&mut block);
            }
            let s = block[i % block.len()];
            Op::Read((s * draws + rng.index(draws)) as u32)
        })
        .collect();
    Ok(Plan { items, ops })
}

fn txn_mix_plan(data: &Dataset, rng: &mut SplitMix64, n_ops: usize) -> Result<Plan> {
    let q8 = workload::queries()
        .into_iter()
        .find(|q| q.id == "Q8")
        .ok_or_else(|| Error::NotFound("workload statement Q8".into()))?;
    // item i is order i: its Q8 read and its order_update
    let mut items = Vec::with_capacity(data.orders.len());
    let mut index = HashMap::with_capacity(data.orders.len());
    for (i, o) in data.orders.iter().enumerate() {
        let id = o.get_field("_id").expect_str("order id")?.to_string();
        index.insert(Key::str(&id), i as u32);
        items.push(Item {
            query: q8,
            params: Params::new().with("order", id.clone()),
            literal: None,
            update: Some(TxnOp::OrderUpdate {
                order: Key::str(id),
            }),
        });
    }
    let picker = OrderPicker::new(data, ORDER_THETA);
    let ops = (0..n_ops)
        .map(|i| {
            let item = index[picker.pick(rng)];
            if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                Op::Update(item)
            } else {
                Op::Read(item)
            }
        })
        .collect();
    Ok(Plan { items, ops })
}

/// `text` with every `@name` replaced by `params[name]` written as an
/// MMQL literal — the statement an application would send if it built
/// its queries by string formatting.
pub fn inline_literals(text: &str, params: &Params) -> Result<String> {
    let mut out = String::with_capacity(text.len() + 32);
    let mut rest = text;
    while let Some(at) = rest.find('@') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        let name = &tail[..len];
        let value = params
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("bind parameter `@{name}`")))?;
        match value {
            Value::Int(i) => out.push_str(&i.to_string()),
            // `{:?}` keeps the decimal point, so the lexer reads a float
            Value::Float(f) => out.push_str(&format!("{f:?}")),
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    if c == '"' || c == '\\' {
                        out.push('\\');
                    }
                    out.push(c);
                }
                out.push('"');
            }
            other => {
                return Err(Error::Invalid(format!(
                    "no MMQL literal for @{name} = {other}"
                )))
            }
        }
        rest = &tail[len..];
    }
    out.push_str(rest);
    Ok(out)
}
