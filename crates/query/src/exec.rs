//! The MMQL executor: a materialized clause pipeline with predicate
//! pushdown into the engine's index-accelerated `select`.
//!
//! Read-path fast lanes (see DESIGN.md "Read path"):
//! * collection sources iterate `Arc`-shared rows (`scan_shared` /
//!   `select_shared`) — no per-row deep clone between storage and the
//!   expression evaluator;
//! * the evaluator reads by reference: variables, member chains,
//!   function arguments and operands borrow the bound rows, and only the
//!   leaf a `RETURN`, `SORT` or `COLLECT` keeps is cloned. `FILTER`
//!   tests truthiness on the borrow, and `LET x = DOCUMENT(…)` binds the
//!   storage handle itself (`Txn::get_shared`), not a copy;
//! * a residual `FILTER` that is row-local compiles once per `FOR`
//!   clause into a [`CompiledPred`] closure tree and runs against the
//!   borrowed row, skipping the `Env` binding for rejected rows;
//! * `FOR … [FILTER …] LIMIT o, n` pushes `o + n` into the engine's
//!   streaming scan so the tail of the collection is never touched;
//! * `COLLECT` groups through a hash map and folds each aggregate as the
//!   row is read, keeping member rows only for `INTO`; `RETURN DISTINCT`
//!   dedups through the same canonical hash.

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use udbms_core::{Error, Key, Result, Value};
use udbms_engine::Txn;
use udbms_relational::Predicate;

use crate::ast::*;
use crate::compile::CompiledPred;
use crate::eval::{eval, eval_const, eval_ref, eval_shared, Env, Val};

/// Execute a parsed statement inside a transaction.
pub fn execute(stmt: &Statement, txn: &mut Txn) -> Result<Vec<Value>> {
    match stmt {
        Statement::Query(body) => run_body(body, &Env::new(), txn),
        Statement::Insert { value, collection } => {
            let v = eval(value, &Env::new(), txn)?;
            let key = txn.insert(collection, v)?;
            Ok(vec![key.into_value()])
        }
        Statement::Update {
            key,
            patch,
            collection,
        } => {
            let k = Key::new(eval(key, &Env::new(), txn)?)?;
            let p = eval(patch, &Env::new(), txn)?;
            txn.merge(collection, &k, p)?;
            Ok(vec![Value::Bool(true)])
        }
        Statement::Remove { key, collection } => {
            let k = Key::new(eval(key, &Env::new(), txn)?)?;
            let existed = txn.delete(collection, &k)?;
            Ok(vec![Value::Bool(existed)])
        }
    }
}

/// Run a query body under a base environment (used for subqueries, which
/// inherit the outer scope).
pub fn run_body(body: &QueryBody, base: &Env, txn: &mut Txn) -> Result<Vec<Value>> {
    let mut rows: Vec<Env> = vec![base.clone()];
    let mut i = 0;
    while i < body.clauses.len() {
        match &body.clauses[i] {
            Clause::For { var, source } => {
                // `FOR x IN name` is ambiguous between a collection and a
                // bound variable holding an array; bound variables win
                // (binding names are uniform across rows of a stage).
                let name_is_var = match source {
                    Source::Collection(name) => {
                        rows.first().is_some_and(|env| env.get(name).is_some())
                    }
                    _ => false,
                };
                // Pushdown: FOR over a collection immediately followed by
                // FILTER — convert the filter (or its conjuncts) into an
                // engine predicate evaluated through indexes. Conjuncts
                // whose right side doesn't mention the loop variable are
                // pushed *dynamically* (evaluated per outer row), giving
                // index nested-loop joins for correlated filters like
                // `o.customer == c.id`.
                let mut pushed: Option<Predicate> = None;
                let mut dynamic: Vec<DynPred> = Vec::new();
                let mut residual: Option<Expr> = None;
                // the residual, compiled once per FOR clause (not per
                // row); non-row-local residuals keep the interpreter
                let mut compiled: Option<CompiledPred> = None;
                let mut consumed_filter = false;
                if !name_is_var {
                    if let Source::Collection(_) = source {
                        if let Some(Clause::Filter(f)) = body.clauses.get(i + 1) {
                            let (p, d, r) = extract_predicates(f, var);
                            let cp = r.as_ref().and_then(|r| CompiledPred::compile(r, var));
                            if p.is_some() || !d.is_empty() {
                                pushed = p;
                                dynamic = d;
                                residual = r;
                                compiled = cp;
                                consumed_filter = true;
                            } else if cp.is_some() {
                                // nothing pushes into the engine, but the
                                // whole filter compiles: fuse it anyway so
                                // it runs against borrowed rows
                                residual = r;
                                compiled = cp;
                                consumed_filter = true;
                            }
                        }
                    }
                }
                // LIMIT directly after this FOR(+fused FILTER): cap the
                // source walk at offset+count rows per outer binding —
                // sound because output order concatenates per-env blocks
                // in order, so rows past that prefix can never surface
                let next_clause = body.clauses.get(i + 1 + usize::from(consumed_filter));
                let push_limit: Option<usize> = match next_clause {
                    Some(Clause::Limit { offset, count })
                        if !name_is_var
                            && matches!(source, Source::Collection(_))
                            && dynamic.is_empty()
                            && residual.is_none() =>
                    {
                        offset.checked_add(*count)
                    }
                    _ => None,
                };
                let mut next = Vec::new();
                for env in &rows {
                    let items: Vec<Arc<Value>> = if name_is_var {
                        let Source::Collection(name) = source else {
                            // lint:allow(unwrap): name_is_var implies a collection source
                            unreachable!()
                        };
                        match env.get(name).cloned().unwrap_or(Value::Null) {
                            Value::Array(items) => items.into_iter().map(Arc::new).collect(),
                            Value::Null => Vec::new(),
                            other => {
                                return Err(Error::type_err(
                                    "Array (FOR source)",
                                    other.type_name(),
                                ))
                            }
                        }
                    } else {
                        // bind dynamic conjuncts against this outer row
                        let bound: Option<Predicate> = if dynamic.is_empty() {
                            pushed.clone()
                        } else {
                            let mut parts: Vec<Predicate> = match &pushed {
                                Some(Predicate::And(ps)) => ps.clone(),
                                Some(p) => vec![p.clone()],
                                None => Vec::new(),
                            };
                            for d in &dynamic {
                                let rhs = eval(&d.rhs, env, txn)?;
                                parts.push(d.bind(rhs));
                            }
                            Some(if parts.len() == 1 {
                                // lint:allow(unwrap): len() == 1 was just checked
                                parts.into_iter().next().expect("len checked")
                            } else {
                                Predicate::And(parts)
                            })
                        };
                        source_items(source, env, txn, bound.as_ref(), push_limit)?
                    };
                    for item in items {
                        if let Some(cp) = &compiled {
                            // filter on the borrowed row; only survivors
                            // pay for an environment frame
                            if !cp.matches(&item)? {
                                continue;
                            }
                            next.push(env.with_shared(var, item));
                        } else {
                            let child = env.with_shared(var, item);
                            if let Some(res) = &residual {
                                if !eval_ref(res, &child, txn)?.is_truthy() {
                                    continue;
                                }
                            }
                            next.push(child);
                        }
                    }
                }
                rows = next;
                if consumed_filter {
                    i += 1; // the FILTER was folded into the FOR
                }
            }
            Clause::Filter(expr) => {
                let mut next = Vec::with_capacity(rows.len());
                for env in rows {
                    if eval_ref(expr, &env, txn)?.is_truthy() {
                        next.push(env);
                    }
                }
                rows = next;
            }
            Clause::Let { var, value } => {
                let mut next = Vec::with_capacity(rows.len());
                for env in rows {
                    let v = eval_shared(value, &env, txn)?;
                    next.push(env.with_shared(var, v));
                }
                rows = next;
            }
            Clause::Sort { keys } => {
                let mut keyed: Vec<(Vec<Value>, Env)> = Vec::with_capacity(rows.len());
                for env in rows {
                    let mut kvals = Vec::with_capacity(keys.len());
                    for (e, _) in keys {
                        kvals.push(eval(e, &env, txn)?);
                    }
                    keyed.push((kvals, env));
                }
                keyed.sort_by(|(a, _), (b, _)| {
                    for (idx, (_, asc)) in keys.iter().enumerate() {
                        let ord = a[idx].canonical_cmp(&b[idx]);
                        let ord = if *asc { ord } else { ord.reverse() };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                rows = keyed.into_iter().map(|(_, env)| env).collect();
            }
            Clause::Limit { offset, count } => {
                rows = rows.into_iter().skip(*offset).take(*count).collect();
            }
            Clause::Collect {
                groups,
                aggregates,
                into,
            } => {
                rows = collect(groups, aggregates, into.as_deref(), rows, base, txn)?;
            }
        }
        i += 1;
    }
    let mut out = Vec::with_capacity(rows.len());
    for env in rows {
        out.push(eval(&body.ret, &env, txn)?);
    }
    if body.distinct {
        out = distinct(out);
    }
    Ok(out)
}

/// `COLLECT groups AGGREGATE aggregates [INTO into]` in one pass over
/// the rows: each row's group key finds its group through a hash map
/// (canonical equality, so `2` and `2.0` share a group and the first-seen
/// representation is kept), each aggregate folds the row's input into a
/// running [`Acc`], and the row is kept as an object only when `INTO`
/// asks for the members. Groups come out in canonical key order.
fn collect(
    groups: &[(String, Expr)],
    aggregates: &[(String, AggFunc, Expr)],
    into: Option<&str>,
    rows: Vec<Env>,
    base: &Env,
    txn: &mut Txn,
) -> Result<Vec<Env>> {
    let mut grouped: HashMap<Canonical<Vec<Value>>, Group> = HashMap::new();
    for env in rows {
        let mut key = Vec::with_capacity(groups.len());
        for (_, e) in groups {
            key.push(eval(e, &env, txn)?);
        }
        let group = grouped.entry(Canonical(key)).or_insert_with(|| Group {
            accs: aggregates.iter().map(|(_, f, _)| Acc::new(*f)).collect(),
            members: Vec::new(),
        });
        for (acc, (_, _, input)) in group.accs.iter_mut().zip(aggregates) {
            acc.add(eval_ref(input, &env, txn)?);
        }
        if into.is_some() {
            group.members.push(env.as_object());
        }
    }
    let mut grouped: Vec<(Canonical<Vec<Value>>, Group)> = grouped.into_iter().collect();
    // keys are pairwise unequal, so an unstable sort is deterministic
    grouped.sort_unstable_by(|(a, _), (b, _)| a.0.cmp(&b.0));
    let mut next = Vec::with_capacity(grouped.len());
    for (Canonical(key), group) in grouped {
        // COLLECT starts a fresh scope
        let mut env = base.clone();
        for ((name, _), v) in groups.iter().zip(key) {
            env = env.with(name, v);
        }
        for ((name, _, _), acc) in aggregates.iter().zip(group.accs) {
            env = env.with(name, acc.finish());
        }
        if let Some(into_var) = into {
            env = env.with(into_var, Value::Array(group.members));
        }
        next.push(env);
    }
    Ok(next)
}

/// One `COLLECT` group: a running accumulator per aggregate, and the
/// member rows as objects (only filled under `INTO`).
struct Group {
    accs: Vec<Acc>,
    members: Vec<Value>,
}

/// The running state of one `COLLECT` aggregate, folded row by row.
/// [`Acc::finish`] equals [`aggregate_array`](crate::eval::aggregate_array)
/// over the same inputs in row order.
enum Acc {
    /// COUNT: every member counts, whatever its input.
    Count(i64),
    /// SUM (`avg == false`) and AVG: the sum of the numeric inputs,
    /// folded from `-0.0` as `Iterator::sum` is; how many there were; and
    /// whether every input was `Int` or `Null` (then SUM is an `Int`).
    Sum {
        avg: bool,
        sum: f64,
        nums: usize,
        ints_only: bool,
    },
    /// MIN: the first of equal minima, nulls skipped.
    Min(Option<Value>),
    /// MAX: the last of equal maxima, nulls skipped.
    Max(Option<Value>),
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        let sum = |avg| Acc::Sum {
            avg,
            sum: -0.0,
            nums: 0,
            ints_only: true,
        };
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => sum(false),
            AggFunc::Avg => sum(true),
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    /// Fold in one member's input; clones it only when it becomes the
    /// running MIN or MAX.
    fn add(&mut self, input: Val<'_>) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum {
                sum,
                nums,
                ints_only,
                ..
            } => {
                if let Some(f) = input.as_float() {
                    *sum += f;
                    *nums += 1;
                }
                *ints_only &= matches!(*input, Value::Int(_) | Value::Null);
            }
            Acc::Min(cur) => {
                if !input.is_null() && cur.as_ref().is_none_or(|c| *input < *c) {
                    *cur = Some(input.into_owned());
                }
            }
            Acc::Max(cur) => {
                if !input.is_null() && cur.as_ref().is_none_or(|c| *input >= *c) {
                    *cur = Some(input.into_owned());
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum { nums: 0, .. } => Value::Null,
            Acc::Sum {
                avg: true,
                sum,
                nums,
                ..
            } => Value::Float(sum / nums as f64),
            Acc::Sum {
                ints_only: true,
                sum,
                ..
            } => Value::Int(sum as i64),
            Acc::Sum { sum, .. } => Value::Float(sum),
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// `RETURN DISTINCT`: the first occurrence of each value under canonical
/// equality, in output order.
fn distinct(values: Vec<Value>) -> Vec<Value> {
    let mut seen = HashSet::with_capacity(values.len());
    let first: Vec<bool> = values
        .iter()
        .map(|v| seen.insert(Canonical(std::slice::from_ref(v))))
        .collect();
    drop(seen);
    values
        .into_iter()
        .zip(first)
        .filter_map(|(v, first)| first.then_some(v))
        .collect()
}

/// A sequence of values hashed consistently with the canonical equality
/// `Value` compares by. `Value`'s own `Hash` tells apart integers beyond
/// 2^53 that compare equal through their `f64` image, so it cannot key a
/// group or a `DISTINCT` set on its own.
#[derive(PartialEq, Eq)]
struct Canonical<T>(T);

impl<T: AsRef<[Value]>> Hash for Canonical<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for v in self.0.as_ref() {
            canonical_hash(v, state);
        }
    }
}

/// Hash a value so that canonically equal values hash equally: numbers
/// by their `f64` image (`-0.0` as `0.0`, every NaN alike), containers
/// element by element, everything else by `Value`'s own `Hash`.
fn canonical_hash<H: Hasher>(v: &Value, state: &mut H) {
    match v {
        Value::Int(_) | Value::Float(_) => {
            let f = v.as_float().unwrap_or(0.0);
            let bits = if f.is_nan() {
                f64::NAN.to_bits()
            } else if f == 0.0 {
                0
            } else {
                f.to_bits()
            };
            state.write_u8(2);
            state.write_u64(bits);
        }
        Value::Array(items) => {
            state.write_u8(5);
            state.write_usize(items.len());
            for item in items {
                canonical_hash(item, state);
            }
        }
        Value::Object(fields) => {
            state.write_u8(6);
            state.write_usize(fields.len());
            for (k, item) in fields {
                k.hash(state);
                canonical_hash(item, state);
            }
        }
        other => other.hash(state),
    }
}

/// Materialize the items a `FOR` iterates, as shared row handles.
/// Collection rows come straight out of the MVCC store as `Arc` bumps;
/// `limit` (when the caller proved a `LIMIT` adjacency) caps the walk.
fn source_items(
    source: &Source,
    env: &Env,
    txn: &mut Txn,
    pushed: Option<&Predicate>,
    limit: Option<usize>,
) -> Result<Vec<Arc<Value>>> {
    match source {
        Source::Collection(name) => match (pushed, limit) {
            (Some(pred), limit) => txn.select_limited(name, pred, limit),
            (None, Some(n)) => Ok(txn
                .scan_limited(name, n)?
                .into_iter()
                .map(|(_, v)| v)
                .collect()),
            (None, None) => Ok(txn.scan_shared(name)?.into_iter().map(|(_, v)| v).collect()),
        },
        Source::Traversal {
            min,
            max,
            dir,
            start,
            graph,
            label,
        } => {
            let start_key = Key::new(eval(start, env, txn)?)?;
            // BFS layers 0..=max, then flatten layers min..=max.
            let mut layers: Vec<Vec<Key>> = vec![vec![start_key.clone()]];
            let mut seen: std::collections::HashSet<Key> = [start_key].into_iter().collect();
            for _ in 0..*max {
                let mut next = Vec::new();
                // lint:allow(unwrap): layers starts non-empty and only grows
                for v in layers.last().expect("layer 0 exists") {
                    for n in txn.neighbors(graph, v, *dir, label.as_deref())? {
                        if seen.insert(n.clone()) {
                            next.push(n);
                        }
                    }
                }
                if next.is_empty() {
                    break;
                }
                layers.push(next);
            }
            let mut out = Vec::new();
            for depth in *min..=*max {
                let Some(layer) = layers.get(depth) else {
                    break;
                };
                for key in layer {
                    // yield the vertex properties with its key attached
                    let mut v = txn.vertex(graph, key)?.unwrap_or(Value::Null);
                    if let Some(obj) = v.as_object_mut() {
                        obj.insert("_key".to_string(), key.value().clone());
                    }
                    out.push(Arc::new(v));
                }
            }
            Ok(out)
        }
        Source::Expr(e) => match eval(e, env, txn)? {
            Value::Array(items) => Ok(items.into_iter().map(Arc::new).collect()),
            Value::Null => Ok(Vec::new()),
            other => Err(Error::type_err("Array (FOR source)", other.type_name())),
        },
    }
}

/// A dynamically-pushable conjunct: `var.path OP <rhs>` where `rhs` does
/// not mention `var` (it is evaluated per outer row at execution time).
#[derive(Debug, Clone)]
pub struct DynPred {
    path: udbms_core::FieldPath,
    op: BinOp,
    rhs: Expr,
}

impl DynPred {
    /// Build the concrete predicate once the right side has a value.
    fn bind(&self, value: Value) -> Predicate {
        let path = self.path.clone();
        match self.op {
            BinOp::Eq => Predicate::Eq(path, value),
            BinOp::Ne => Predicate::Ne(path, value),
            BinOp::Lt => Predicate::Lt(path, value),
            BinOp::Le => Predicate::Le(path, value),
            BinOp::Gt => Predicate::Gt(path, value),
            BinOp::Ge => Predicate::Ge(path, value),
            // lint:allow(unwrap): split_conjuncts only extracts comparison ops
            _ => unreachable!("only comparisons are extracted dynamically"),
        }
    }
}

/// Split a filter expression into an engine predicate over `var` plus a
/// residual expression. Returns `(None, Some(expr))` when nothing is
/// convertible. (Static-only variant, kept for `explain` and tests.)
pub fn extract_predicate(expr: &Expr, var: &str) -> (Option<Predicate>, Option<Expr>) {
    let (p, d, r) = extract_predicates(expr, var);
    // fold unextracted dynamic parts back into the residual
    let mut residual: Vec<Expr> = r.into_iter().collect();
    for dp in d {
        residual.push(Expr::Binary {
            op: dp.op,
            lhs: Box::new(rebuild_member_expr(var, &dp.path)),
            rhs: Box::new(dp.rhs),
        });
    }
    let residual_expr = residual.into_iter().reduce(|a, b| Expr::Binary {
        op: BinOp::And,
        lhs: Box::new(a),
        rhs: Box::new(b),
    });
    (p, residual_expr)
}

fn rebuild_member_expr(var: &str, path: &udbms_core::FieldPath) -> Expr {
    use udbms_core::PathStep;
    let steps = path
        .steps()
        .iter()
        .map(|s| match s {
            PathStep::Key(k) => MemberStep::Field(k.clone()),
            PathStep::Index(i) => MemberStep::Index(Box::new(Expr::Literal(Value::Int(*i as i64)))),
        })
        .collect();
    Expr::Member {
        base: Box::new(Expr::Var(var.to_string())),
        steps,
    }
}

/// Full conjunct classification: `(static predicate, dynamic conjuncts,
/// residual expression)`.
pub fn extract_predicates(
    expr: &Expr,
    var: &str,
) -> (Option<Predicate>, Vec<DynPred>, Option<Expr>) {
    let mut preds = Vec::new();
    let mut dynamic = Vec::new();
    let mut residual = Vec::new();
    split_conjuncts(expr, var, &mut preds, &mut dynamic, &mut residual);
    let pred = match preds.len() {
        0 => None,
        // lint:allow(unwrap): len() == 1 was just matched
        1 => Some(preds.into_iter().next().expect("len checked")),
        _ => Some(Predicate::And(preds)),
    };
    let residual_expr = residual.into_iter().reduce(|a, b| Expr::Binary {
        op: BinOp::And,
        lhs: Box::new(a),
        rhs: Box::new(b),
    });
    (pred, dynamic, residual_expr)
}

fn split_conjuncts(
    expr: &Expr,
    var: &str,
    preds: &mut Vec<Predicate>,
    dynamic: &mut Vec<DynPred>,
    residual: &mut Vec<Expr>,
) {
    if let Expr::Binary {
        op: BinOp::And,
        lhs,
        rhs,
    } = expr
    {
        split_conjuncts(lhs, var, preds, dynamic, residual);
        split_conjuncts(rhs, var, preds, dynamic, residual);
        return;
    }
    if let Some(p) = to_predicate(expr, var) {
        preds.push(p);
        return;
    }
    if let Some(d) = to_dynamic(expr, var) {
        dynamic.push(d);
        return;
    }
    residual.push(expr.clone());
}

/// `var.path OP rhs` (or flipped) with `rhs` independent of `var`.
fn to_dynamic(expr: &Expr, var: &str) -> Option<DynPred> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return None;
    }
    // orient: loop-var path on the left
    if let Some((v, path)) = lhs.as_var_path() {
        if v == var && !path.is_root() && !expr_uses_var(rhs, var) {
            return Some(DynPred {
                path,
                op: *op,
                rhs: rhs.as_ref().clone(),
            });
        }
    }
    if let Some((v, path)) = rhs.as_var_path() {
        if v == var && !path.is_root() && !expr_uses_var(lhs, var) {
            return Some(DynPred {
                path,
                op: flip(*op)?,
                rhs: lhs.as_ref().clone(),
            });
        }
    }
    None
}

/// Conservative: does the expression mention the variable anywhere
/// (including inside subqueries, where it could be captured)?
fn expr_uses_var(expr: &Expr, var: &str) -> bool {
    match expr {
        Expr::Var(v) => v == var,
        Expr::Literal(_) | Expr::Param { .. } => false,
        Expr::Member { base, steps } => {
            expr_uses_var(base, var)
                || steps.iter().any(|s| match s {
                    MemberStep::Field(_) => false,
                    MemberStep::Index(e) => expr_uses_var(e, var),
                })
        }
        Expr::Array(items) => items.iter().any(|e| expr_uses_var(e, var)),
        Expr::Object(fields) => fields.iter().any(|(_, e)| expr_uses_var(e, var)),
        Expr::Unary { expr, .. } => expr_uses_var(expr, var),
        Expr::Binary { lhs, rhs, .. } => expr_uses_var(lhs, var) || expr_uses_var(rhs, var),
        Expr::Call { args, .. } => args.iter().any(|e| expr_uses_var(e, var)),
        Expr::Subquery(body) => {
            body.clauses.iter().any(|c| match c {
                Clause::For { source, .. } => match source {
                    Source::Expr(e) => expr_uses_var(e, var),
                    Source::Traversal { start, .. } => expr_uses_var(start, var),
                    Source::Collection(_) => false,
                },
                Clause::Filter(e) => expr_uses_var(e, var),
                Clause::Let { value, .. } => expr_uses_var(value, var),
                Clause::Sort { keys } => keys.iter().any(|(e, _)| expr_uses_var(e, var)),
                Clause::Limit { .. } => false,
                Clause::Collect {
                    groups, aggregates, ..
                } => {
                    groups.iter().any(|(_, e)| expr_uses_var(e, var))
                        || aggregates.iter().any(|(_, _, e)| expr_uses_var(e, var))
                }
            }) || expr_uses_var(&body.ret, var)
        }
    }
}

fn to_predicate(expr: &Expr, var: &str) -> Option<Predicate> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    // orient: var path on the left, constant on the right
    let (path, value, op) = match (lhs.as_var_path(), eval_const(rhs)) {
        (Some((v, path)), Some(c)) if v == var && !path.is_root() => (path, c, *op),
        _ => match (rhs.as_var_path(), eval_const(lhs)) {
            (Some((v, path)), Some(c)) if v == var && !path.is_root() => (path, c, flip(*op)?),
            _ => return None,
        },
    };
    Some(match op {
        BinOp::Eq => Predicate::Eq(path, value),
        BinOp::Ne => Predicate::Ne(path, value),
        BinOp::Lt => Predicate::Lt(path, value),
        BinOp::Le => Predicate::Le(path, value),
        BinOp::Gt => Predicate::Gt(path, value),
        BinOp::Ge => Predicate::Ge(path, value),
        BinOp::In => match value {
            Value::Array(items) => Predicate::In(path, items),
            _ => return None,
        },
        BinOp::Like => match value {
            Value::Str(p) => Predicate::Like(path, p),
            _ => return None,
        },
        _ => return None,
    })
}

/// Flip a comparison for `const OP var.path` orientation.
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Eq => BinOp::Eq,
        BinOp::Ne => BinOp::Ne,
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Render an execution plan sketch: which FORs push predicates into
/// selects and which scan. Static (no catalog access) — index choice is
/// made inside the engine at run time.
pub fn explain(stmt: &Statement) -> String {
    let Statement::Query(body) = stmt else {
        return format!("{stmt:?}");
    };
    let mut out = String::new();
    let mut i = 0;
    while i < body.clauses.len() {
        match &body.clauses[i] {
            Clause::For { var, source } => match source {
                Source::Collection(name) => {
                    let mut line = format!("for {var} in collection `{name}`");
                    let mut fused_residual = false;
                    let mut fused_dynamic = false;
                    if let Some(Clause::Filter(f)) = body.clauses.get(i + 1) {
                        let (p, d, r) = extract_predicates(f, var);
                        let whole_compiles = r
                            .as_ref()
                            .is_some_and(|r| crate::compile::compilable(r, var));
                        if p.is_some() || !d.is_empty() || (d.is_empty() && whole_compiles) {
                            if let Some(p) = &p {
                                line.push_str(&format!(" [pushdown: {p:?}]"));
                            }
                            if !d.is_empty() {
                                line.push_str(&format!(
                                    " [dynamic pushdown: {} conjunct(s)]",
                                    d.len()
                                ));
                                fused_dynamic = true;
                            }
                            if r.is_some() {
                                line.push_str(if whole_compiles {
                                    " [compiled residual]"
                                } else {
                                    " [residual filter]"
                                });
                                fused_residual = true;
                            }
                            i += 1;
                        }
                    }
                    // mirror the executor's LIMIT adjacency rule
                    if !fused_residual && !fused_dynamic {
                        if let Some(Clause::Limit { offset, count }) = body.clauses.get(i + 1) {
                            line.push_str(&format!(" [limit pushdown: {}]", offset + count));
                        }
                    }
                    out.push_str(&line);
                    out.push('\n');
                }
                Source::Traversal {
                    min,
                    max,
                    dir,
                    graph,
                    label,
                    ..
                } => {
                    out.push_str(&format!(
                        "for {var} in traversal {min}..{max} {dir:?} graph `{graph}` label {label:?}\n"
                    ));
                }
                Source::Expr(_) => out.push_str(&format!("for {var} in <expression>\n")),
            },
            Clause::Filter(_) => out.push_str("filter <expression>\n"),
            Clause::Let { var, .. } => out.push_str(&format!("let {var} = <expression>\n")),
            Clause::Sort { keys } => out.push_str(&format!("sort by {} key(s)\n", keys.len())),
            Clause::Limit { offset, count } => {
                out.push_str(&format!("limit offset={offset} count={count}\n"))
            }
            Clause::Collect {
                groups, aggregates, ..
            } => out.push_str(&format!(
                "collect {} group key(s), {} aggregate(s)\n",
                groups.len(),
                aggregates.len()
            )),
        }
        i += 1;
    }
    out.push_str(if body.distinct {
        "return distinct\n"
    } else {
        "return\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::FieldPath;

    #[test]
    fn predicate_extraction_splits_conjuncts() {
        let stmt = crate::parser::parse(
            "FOR c IN t FILTER c.country == \"FI\" AND c.score > 3 AND LENGTH(c.tags) > 0 RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, residual) = extract_predicate(f, "c");
        match pred.unwrap() {
            Predicate::And(ps) => {
                assert_eq!(ps.len(), 2);
                assert_eq!(
                    ps[0],
                    Predicate::Eq(FieldPath::key("country"), Value::from("FI"))
                );
                assert_eq!(ps[1], Predicate::Gt(FieldPath::key("score"), Value::Int(3)));
            }
            other => panic!("{other:?}"),
        }
        assert!(residual.is_some(), "LENGTH() call cannot be pushed");
    }

    #[test]
    fn reversed_comparisons_flip() {
        let stmt = crate::parser::parse("FOR c IN t FILTER 3 < c.score RETURN c").unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, residual) = extract_predicate(f, "c");
        assert_eq!(
            pred,
            Some(Predicate::Gt(FieldPath::key("score"), Value::Int(3)))
        );
        assert!(residual.is_none());
    }

    #[test]
    fn foreign_variables_stay_residual() {
        let stmt =
            crate::parser::parse("FOR o IN orders FILTER o.customer == c.id RETURN o").unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, residual) = extract_predicate(f, "o");
        assert!(pred.is_none(), "c.id is not constant");
        assert!(residual.is_some());
    }

    #[test]
    fn in_and_like_push_down() {
        let stmt = crate::parser::parse(
            "FOR c IN t FILTER c.country IN [\"FI\", \"SE\"] AND c.name LIKE \"A%\" RETURN c",
        )
        .unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        let (pred, residual) = extract_predicate(f, "c");
        assert!(residual.is_none());
        match pred.unwrap() {
            Predicate::And(ps) => {
                assert!(matches!(&ps[0], Predicate::In(_, items) if items.len() == 2));
                assert!(matches!(&ps[1], Predicate::Like(_, p) if p == "A%"));
            }
            other => panic!("{other:?}"),
        }
    }

    /// Strict identity: variant, float bits (`-0.0` vs `0.0`) and all.
    fn exact(v: &Value) -> String {
        format!("{v:?}")
    }

    /// Every aggregate folded row by row equals the function library's
    /// `aggregate_array` over the same inputs, bit for bit.
    #[test]
    fn accumulators_match_aggregate_array() {
        use crate::eval::aggregate_array;
        let cases: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Null],
            vec![Value::Float(-0.0)],
            vec![Value::Float(-0.0), Value::Float(-0.0)],
            vec![Value::Int(0), Value::Float(-0.0)],
            vec![Value::Int(2), Value::Float(2.0)],
            vec![Value::Float(2.0), Value::Int(2)],
            vec![Value::Int(1), Value::Null, Value::Int(4)],
            vec![Value::Int(1), Value::from("x"), Value::Int(4)],
            vec![Value::from("b"), Value::from("a"), Value::Null],
            vec![Value::Float(0.1), Value::Float(0.2), Value::Float(0.3)],
            vec![Value::Float(f64::NAN), Value::Int(1)],
            vec![Value::Bool(true), Value::Int(3), Value::Float(-1.5)],
        ];
        for items in &cases {
            for (func, name) in [
                (AggFunc::Count, "COUNT"),
                (AggFunc::Sum, "SUM"),
                (AggFunc::Avg, "AVG"),
                (AggFunc::Min, "MIN"),
                (AggFunc::Max, "MAX"),
            ] {
                let mut acc = Acc::new(func);
                for v in items {
                    acc.add(Val::Borrowed(v));
                }
                assert_eq!(
                    exact(&acc.finish()),
                    exact(&aggregate_array(name, items)),
                    "{name} over {items:?}"
                );
            }
        }
    }

    /// MIN keeps the first of equal minima, MAX the last of equal maxima.
    #[test]
    fn min_and_max_keep_their_tie_representation() {
        let fold = |func: AggFunc, items: &[Value]| {
            let mut acc = Acc::new(func);
            for v in items {
                acc.add(Val::Borrowed(v));
            }
            exact(&acc.finish())
        };
        let (int, float) = (Value::Int(2), Value::Float(2.0));
        let int_first = [int.clone(), float.clone()];
        let float_first = [float.clone(), int.clone()];
        assert_eq!(fold(AggFunc::Min, &int_first), exact(&int));
        assert_eq!(fold(AggFunc::Max, &int_first), exact(&float));
        assert_eq!(fold(AggFunc::Min, &float_first), exact(&float));
        assert_eq!(fold(AggFunc::Max, &float_first), exact(&int));
    }

    /// Canonically equal values hash alike, including integers past
    /// 2^53 that are equal only through their `f64` image.
    #[test]
    fn canonical_hash_agrees_with_canonical_equality() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            Canonical(std::slice::from_ref(v)).hash(&mut h);
            h.finish()
        };
        let big = 1i64 << 53;
        let pairs = [
            (Value::Int(2), Value::Float(2.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Float(f64::NAN), Value::Float(-f64::NAN)),
            (Value::Int(big), Value::Int(big + 1)),
            (Value::Int(i64::MAX), Value::Float(i64::MAX as f64)),
            (
                Value::Array(vec![Value::Int(1), Value::from("a")]),
                Value::Array(vec![Value::Float(1.0), Value::from("a")]),
            ),
            (
                Value::Object([("k".to_string(), Value::Int(3))].into()),
                Value::Object([("k".to_string(), Value::Float(3.0))].into()),
            ),
        ];
        for (a, b) in &pairs {
            assert_eq!(a, b, "the pair is canonically equal");
            assert_eq!(hash(a), hash(b), "{a:?} and {b:?} must hash alike");
        }
        assert_ne!(hash(&Value::Int(1)), hash(&Value::from("1")));
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let out = distinct(vec![
            Value::Int(2),
            Value::from("a"),
            Value::Float(2.0),
            Value::Null,
            Value::from("a"),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Null,
        ]);
        assert_eq!(
            out.iter().map(exact).collect::<Vec<_>>(),
            [
                Value::Int(2),
                Value::from("a"),
                Value::Null,
                Value::Float(-0.0)
            ]
            .iter()
            .map(exact)
            .collect::<Vec<_>>()
        );
    }

    #[test]
    fn explain_mentions_pushdown() {
        let stmt = crate::parser::parse(
            "FOR c IN customers FILTER c.country == \"FI\" SORT c.name LIMIT 3 RETURN c.name",
        )
        .unwrap();
        let plan = explain(&stmt);
        assert!(plan.contains("pushdown"), "{plan}");
        assert!(plan.contains("collection `customers`"));
        assert!(plan.contains("limit offset=0 count=3"));
    }
}
