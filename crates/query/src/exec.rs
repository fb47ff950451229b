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
//!   streaming scan so the tail of the collection is never touched.

use std::collections::BTreeMap;
use std::sync::Arc;

use udbms_core::{Error, Key, Result, Value};
use udbms_engine::Txn;
use udbms_relational::Predicate;

use crate::ast::*;
use crate::compile::CompiledPred;
use crate::eval::{aggregate_array, eval, eval_const, eval_ref, eval_shared, Env};

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
                // group key → (group values, member envs)
                let mut grouped: BTreeMap<Vec<Value>, Vec<Env>> = BTreeMap::new();
                for env in rows {
                    let mut key = Vec::with_capacity(groups.len());
                    for (_, e) in groups {
                        key.push(eval(e, &env, txn)?);
                    }
                    grouped.entry(key).or_default().push(env);
                }
                let mut next = Vec::with_capacity(grouped.len());
                for (key, members) in grouped {
                    // COLLECT starts a fresh scope
                    let mut env = base.clone();
                    for ((name, _), v) in groups.iter().zip(key) {
                        env = env.with(name, v);
                    }
                    for (name, func, input) in aggregates {
                        let mut inputs = Vec::with_capacity(members.len());
                        for m in &members {
                            inputs.push(eval(input, m, txn)?);
                        }
                        let fname = match func {
                            AggFunc::Count => "COUNT",
                            AggFunc::Sum => "SUM",
                            AggFunc::Avg => "AVG",
                            AggFunc::Min => "MIN",
                            AggFunc::Max => "MAX",
                        };
                        env = env.with(name, aggregate_array(fname, &inputs));
                    }
                    if let Some(into_var) = into {
                        let objs: Vec<Value> = members.iter().map(Env::as_object).collect();
                        env = env.with(into_var, Value::Array(objs));
                    }
                    next.push(env);
                }
                rows = next;
            }
        }
        i += 1;
    }
    let mut out = Vec::with_capacity(rows.len());
    for env in rows {
        out.push(eval(&body.ret, &env, txn)?);
    }
    if body.distinct {
        let mut seen = Vec::new();
        out.retain(|v| {
            if seen.contains(v) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
    Ok(out)
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
