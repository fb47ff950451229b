//! Expression evaluation and the MMQL function library.

use std::collections::BTreeMap;
use std::sync::Arc;

use udbms_core::{Error, Key, Result, Value};
use udbms_engine::Txn;
use udbms_graph::Direction;
use udbms_relational::like_match;

use crate::ast::{BinOp, Expr, MemberStep, UnOp};

/// One binding frame of a persistent [`Env`] chain.
#[derive(Debug)]
struct Frame {
    name: String,
    value: Arc<Value>,
    parent: Option<Arc<Frame>>,
}

/// A variable environment (one per pipeline row), structured as a
/// **persistent parent-linked chain**: binding a variable allocates one
/// frame that points at the existing chain instead of cloning every
/// outer binding. A `FOR` loop over N rows therefore costs N frame
/// allocations, not N copies of the whole scope — and values bound from
/// storage scans stay `Arc`-shared all the way into the expression
/// evaluator.
#[derive(Debug, Clone, Default)]
pub struct Env {
    head: Option<Arc<Frame>>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Look up a variable (innermost binding wins).
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.get_shared(name).map(Arc::as_ref)
    }

    /// Look up a variable as a shared handle (innermost binding wins).
    pub fn get_shared(&self, name: &str) -> Option<&Arc<Value>> {
        let mut cur = self.head.as_ref();
        while let Some(frame) = cur {
            if frame.name == name {
                return Some(&frame.value);
            }
            cur = frame.parent.as_ref();
        }
        None
    }

    /// Bind (or shadow) a variable, builder-style.
    #[must_use]
    pub fn with(&self, name: &str, value: Value) -> Env {
        self.with_shared(name, Arc::new(value))
    }

    /// Bind (or shadow) a variable to an already-shared value — the
    /// zero-copy row binding used by `FOR` over collection scans.
    #[must_use]
    pub fn with_shared(&self, name: &str, value: Arc<Value>) -> Env {
        Env {
            head: Some(Arc::new(Frame {
                name: name.to_string(),
                value,
                parent: self.head.clone(),
            })),
        }
    }

    /// All bindings as an object (used by `COLLECT … INTO`): innermost
    /// binding wins for shadowed names.
    pub fn as_object(&self) -> Value {
        let mut m = BTreeMap::new();
        let mut cur = self.head.as_ref();
        while let Some(frame) = cur {
            m.entry(frame.name.clone())
                .or_insert_with(|| frame.value.as_ref().clone());
            cur = frame.parent.as_ref();
        }
        Value::Object(m)
    }

    /// Variable names currently bound, outermost first (shadowed names
    /// appear once per binding, as before).
    pub fn names(&self) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = self.head.as_ref();
        while let Some(frame) = cur {
            out.push(frame.name.as_str());
            cur = frame.parent.as_ref();
        }
        out.reverse();
        out
    }
}

/// Evaluate an expression that must be constant (no variables, calls or
/// subqueries). Returns `None` when the expression is not constant.
pub fn eval_const(expr: &Expr) -> Option<Value> {
    if !expr.is_const() {
        return None;
    }
    // No vars/calls ⇒ evaluation cannot touch the txn or an environment.
    eval_pure(expr).ok()
}

/// Evaluate expressions that need no transaction (no DOCUMENT/NEIGHBORS/
/// subqueries). Internal helper for constant folding.
fn eval_pure(expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param { name, line, col } => Err(Error::parse(
            "mmql",
            *line,
            *col,
            format!("unbound parameter `@{name}`"),
        )),
        Expr::Array(items) => items
            .iter()
            .map(eval_pure)
            .collect::<Result<Vec<_>>>()
            .map(Value::Array),
        Expr::Object(fields) => {
            let mut m = BTreeMap::new();
            for (k, e) in fields {
                m.insert(k.clone(), eval_pure(e)?);
            }
            Ok(Value::Object(m))
        }
        Expr::Unary { op, expr } => apply_unary(*op, &eval_pure(expr)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_pure(lhs)?;
            // short-circuit still applies
            match op {
                BinOp::And if !l.is_truthy() => return Ok(Value::Bool(false)),
                BinOp::Or if l.is_truthy() => return Ok(Value::Bool(true)),
                _ => {}
            }
            let r = eval_pure(rhs)?;
            apply_binary(*op, &l, &r)
        }
        _ => Err(Error::Invalid(
            "non-constant expression in constant context".into(),
        )),
    }
}

/// A value produced by the evaluator without copying its inputs: a
/// borrow of a value bound in the [`Env`] or written in the statement, a
/// storage handle shared with the MVCC chain (`DOCUMENT`), or a freshly
/// computed value. Reads through it as a [`Value`];
/// [`Val::into_owned`] clones only when an owned result is needed.
#[derive(Debug)]
pub(crate) enum Val<'a> {
    Borrowed(&'a Value),
    Shared(Arc<Value>),
    Owned(Value),
}

impl std::ops::Deref for Val<'_> {
    type Target = Value;

    fn deref(&self) -> &Value {
        match self {
            Val::Borrowed(v) => v,
            Val::Shared(v) => v,
            Val::Owned(v) => v,
        }
    }
}

impl Val<'_> {
    /// The value as one of its own: clones a borrow or a handle still
    /// shared elsewhere, moves a computed value.
    pub(crate) fn into_owned(self) -> Value {
        match self {
            Val::Borrowed(v) => v.clone(),
            Val::Shared(v) => Arc::unwrap_or_clone(v),
            Val::Owned(v) => v,
        }
    }
}

/// Evaluate an expression against an environment with transaction access
/// (`DOCUMENT`, `NEIGHBORS`, `XPATH` on stored docs, subqueries). Only
/// the result is cloned: variables, member steps and arguments are read
/// by reference.
pub fn eval(expr: &Expr, env: &Env, txn: &mut Txn) -> Result<Value> {
    eval_ref(expr, env, txn).map(Val::into_owned)
}

/// Evaluate for a `LET` binding: a variable or a `DOCUMENT` read binds
/// the `Arc` it already is, a computed value is wrapped once.
pub(crate) fn eval_shared(expr: &Expr, env: &Env, txn: &mut Txn) -> Result<Arc<Value>> {
    match expr {
        Expr::Var(name) => lookup(env, name).cloned(),
        _ => Ok(match eval_ref(expr, env, txn)? {
            Val::Shared(v) => v,
            other => Arc::new(other.into_owned()),
        }),
    }
}

fn lookup<'a>(env: &'a Env, name: &str) -> Result<&'a Arc<Value>> {
    env.get_shared(name)
        .ok_or_else(|| Error::NotFound(format!("variable `{name}`")))
}

/// Evaluate by reference: variables, literals and member chains over
/// them borrow; only computed results are owned.
pub(crate) fn eval_ref<'a>(expr: &'a Expr, env: &'a Env, txn: &mut Txn) -> Result<Val<'a>> {
    Ok(match expr {
        Expr::Literal(v) => Val::Borrowed(v),
        Expr::Param { name, line, col } => {
            return Err(Error::parse(
                "mmql",
                *line,
                *col,
                format!("unbound parameter `@{name}` (execute with Params or bind first)"),
            ))
        }
        Expr::Var(name) => Val::Borrowed(lookup(env, name)?.as_ref()),
        Expr::Member { base, steps } => match eval_ref(base, env, txn)? {
            Val::Borrowed(root) => Val::Borrowed(walk(root, steps, env, txn)?),
            // a storage handle or computed base: walk it in place and
            // clone only the leaf
            base => Val::Owned(walk(&base, steps, env, txn)?.clone()),
        },
        Expr::Array(items) => Val::Owned(Value::Array(
            items
                .iter()
                .map(|e| eval(e, env, txn))
                .collect::<Result<Vec<_>>>()?,
        )),
        Expr::Object(fields) => {
            let mut m = BTreeMap::new();
            for (k, e) in fields {
                m.insert(k.clone(), eval(e, env, txn)?);
            }
            Val::Owned(Value::Object(m))
        }
        Expr::Unary { op, expr } => Val::Owned(apply_unary(*op, &*eval_ref(expr, env, txn)?)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_ref(lhs, env, txn)?;
            match op {
                BinOp::And if !l.is_truthy() => return Ok(Val::Owned(Value::Bool(false))),
                BinOp::Or if l.is_truthy() => return Ok(Val::Owned(Value::Bool(true))),
                _ => {}
            }
            let r = eval_ref(rhs, env, txn)?;
            Val::Owned(apply_binary(*op, &l, &r)?)
        }
        Expr::Call { name, args } => call_function(name, args, env, txn)?,
        Expr::Subquery(body) => Val::Owned(Value::Array(crate::exec::run_body(body, env, txn)?)),
    })
}

/// Walk member steps from `root` by reference. Field steps are
/// [`Value::get_field`], the lookup [`Value::get_path`] (and so a
/// compiled predicate) makes per step; index expressions are evaluated
/// as they are reached.
fn walk<'v>(root: &'v Value, steps: &[MemberStep], env: &Env, txn: &mut Txn) -> Result<&'v Value> {
    let mut cur = root;
    for step in steps {
        cur = match step {
            MemberStep::Field(f) => cur.get_field(f),
            MemberStep::Index(e) => index(cur, &*eval_ref(e, env, txn)?),
        };
    }
    Ok(cur)
}

/// `base[idx]`: an array position (a negative one counts from the end)
/// or an object key. An index outside `-len..len`, or a base and index
/// of any other shape, yields `Null`.
fn index<'v>(base: &'v Value, idx: &Value) -> &'v Value {
    const NULL: &Value = &Value::Null;
    match (base, idx) {
        (Value::Array(items), Value::Int(i)) => {
            let pos = if *i < 0 { items.len() as i64 + i } else { *i };
            usize::try_from(pos)
                .ok()
                .and_then(|p| items.get(p))
                .unwrap_or(NULL)
        }
        (Value::Object(_), Value::Str(k)) => base.get_field(k),
        _ => NULL,
    }
}

pub(crate) fn apply_unary(op: UnOp, v: &Value) -> Result<Value> {
    match op {
        UnOp::Not => Ok(Value::Bool(!v.is_truthy())),
        UnOp::Neg => match v {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(Error::type_err("number (unary -)", other.type_name())),
        },
    }
}

pub(crate) fn apply_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use std::cmp::Ordering;
    let ord = || l.canonical_cmp(r);
    Ok(match op {
        BinOp::Eq => Value::Bool(ord() == Ordering::Equal),
        BinOp::Ne => Value::Bool(ord() != Ordering::Equal),
        BinOp::Lt => Value::Bool(ord() == Ordering::Less),
        BinOp::Le => Value::Bool(ord() != Ordering::Greater),
        BinOp::Gt => Value::Bool(ord() == Ordering::Greater),
        BinOp::Ge => Value::Bool(ord() != Ordering::Less),
        BinOp::And => Value::Bool(l.is_truthy() && r.is_truthy()),
        BinOp::Or => Value::Bool(l.is_truthy() || r.is_truthy()),
        BinOp::In => match r {
            Value::Array(items) => Value::Bool(items.contains(l)),
            _ => Value::Bool(false),
        },
        BinOp::Like => match (l, r) {
            (Value::Str(s), Value::Str(p)) => Value::Bool(like_match(p, s)),
            _ => Value::Bool(false),
        },
        BinOp::Add => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_add(*b)),
            (Value::Str(a), Value::Str(b)) => Value::Str(format!("{a}{b}")),
            (Value::Array(a), Value::Array(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Value::Array(out)
            }
            _ => numeric_op(l, r, "+", |a, b| a + b)?,
        },
        BinOp::Sub => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_sub(*b)),
            _ => numeric_op(l, r, "-", |a, b| a - b)?,
        },
        BinOp::Mul => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Value::Int(a.wrapping_mul(*b)),
            _ => numeric_op(l, r, "*", |a, b| a * b)?,
        },
        BinOp::Div => {
            let (a, b) = both_numeric(l, r, "/")?;
            if b == 0.0 {
                Value::Null
            } else {
                Value::Float(a / b)
            }
        }
        BinOp::Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a.rem_euclid(*b))
                }
            }
            _ => {
                return Err(Error::type_err(
                    "integers (%)",
                    format!("{} % {}", l.type_name(), r.type_name()),
                ))
            }
        },
    })
}

fn both_numeric(l: &Value, r: &Value, op: &str) -> Result<(f64, f64)> {
    match (l.as_float(), r.as_float()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(Error::type_err(
            format!("numbers ({op})"),
            format!("{} {op} {}", l.type_name(), r.type_name()),
        )),
    }
}

fn numeric_op(l: &Value, r: &Value, name: &str, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    let (a, b) = both_numeric(l, r, name)?;
    Ok(Value::Float(f(a, b)))
}

/// Dispatch a function call. Arguments are evaluated by reference, so a
/// function reads a bound document in place instead of copying it.
fn call_function<'a>(name: &str, args: &'a [Expr], env: &'a Env, txn: &mut Txn) -> Result<Val<'a>> {
    let argc = args.len();
    let wrong_arity = |want: &str| {
        Err(Error::Invalid(format!(
            "{name}() expects {want} argument(s), got {argc}"
        )))
    };
    let mut vals: Vec<Val<'a>> = Vec::with_capacity(argc);
    for a in args {
        vals.push(eval_ref(a, env, txn)?);
    }
    match name {
        "LENGTH" | "COUNT" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(Value::Int(match &*vals[0] {
                Value::Array(a) => a.len() as i64,
                Value::Object(o) => o.len() as i64,
                Value::Str(s) => s.chars().count() as i64,
                Value::Null => 0,
                _ => 1,
            }))
        }
        "SUM" | "AVG" | "MIN" | "MAX" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?;
            Ok(aggregate_array(name, items))
        }
        "FIRST" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(vals[0]
                .as_array()
                .and_then(|a| a.first())
                .cloned()
                .unwrap_or(Value::Null))
        }
        "LAST" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(vals[0]
                .as_array()
                .and_then(|a| a.last())
                .cloned()
                .unwrap_or(Value::Null))
        }
        "UNIQUE" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?;
            let mut seen = Vec::new();
            for v in items {
                if !seen.contains(v) {
                    seen.push(v.clone());
                }
            }
            Ok(Value::Array(seen))
        }
        "FLATTEN" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?;
            let mut out = Vec::new();
            for v in items {
                match v {
                    Value::Array(inner) => out.extend(inner.iter().cloned()),
                    other => out.push(other.clone()),
                }
            }
            Ok(Value::Array(out))
        }
        "APPEND" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let mut items = vals[0]
                .as_array()
                .ok_or_else(|| Error::type_err("Array", vals[0].type_name()))?
                .to_vec();
            items.push((*vals[1]).clone());
            Ok(Value::Array(items))
        }
        "CONCAT" => {
            let mut s = String::new();
            for v in &vals {
                match &**v {
                    Value::Null => {}
                    Value::Str(t) => s.push_str(t),
                    other => s.push_str(&other.to_string()),
                }
            }
            Ok(Value::Str(s))
        }
        "UPPER" | "LOWER" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let s = vals[0].expect_str(name)?;
            Ok(Value::Str(if name == "UPPER" {
                s.to_uppercase()
            } else {
                s.to_lowercase()
            }))
        }
        "SUBSTRING" => {
            if !(2..=3).contains(&argc) {
                return wrong_arity("2 or 3");
            }
            let s: Vec<char> = vals[0].expect_str("SUBSTRING")?.chars().collect();
            let start = vals[1].expect_int("SUBSTRING start")?.max(0) as usize;
            let len = match vals.get(2) {
                Some(v) => v.expect_int("SUBSTRING length")?.max(0) as usize,
                None => s.len().saturating_sub(start),
            };
            Ok(Value::Str(s.iter().skip(start).take(len).collect()))
        }
        "CONTAINS" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            match (&*vals[0], &*vals[1]) {
                (Value::Str(s), Value::Str(sub)) => Ok(Value::Bool(s.contains(sub.as_str()))),
                (Value::Array(a), v) => Ok(Value::Bool(a.contains(v))),
                _ => Ok(Value::Bool(false)),
            }
        }
        "ABS" | "FLOOR" | "CEIL" | "ROUND" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            match &*vals[0] {
                Value::Int(i) if name == "ABS" => Ok(Value::Int(i.abs())),
                Value::Int(i) => Ok(Value::Int(*i)),
                Value::Float(f) => Ok(match name {
                    "ABS" => Value::Float(f.abs()),
                    "FLOOR" => Value::Int(f.floor() as i64),
                    "CEIL" => Value::Int(f.ceil() as i64),
                    _ => Value::Int(f.round() as i64),
                }),
                other => Err(Error::type_err("number", other.type_name())),
            }
        }
        "TO_STRING" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(Value::Str(match &*vals[0] {
                Value::Str(s) => s.clone(),
                other => other.to_string(),
            }))
        }
        "TO_NUMBER" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            Ok(match &*vals[0] {
                Value::Int(i) => Value::Int(*i),
                Value::Float(f) => Value::Float(*f),
                Value::Str(s) => match s.trim().parse::<i64>() {
                    Ok(i) => Value::Int(i),
                    Err(_) => s
                        .trim()
                        .parse::<f64>()
                        .map(Value::Float)
                        .unwrap_or(Value::Null),
                },
                Value::Bool(b) => Value::Int(i64::from(*b)),
                _ => Value::Null,
            })
        }
        "COALESCE" | "NOT_NULL" => {
            return Ok(vals
                .into_iter()
                .find(|v| !v.is_null())
                .unwrap_or(Val::Owned(Value::Null)))
        }
        "MERGE" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let mut base = (*vals[0]).clone();
            base.merge_from((*vals[1]).clone());
            Ok(base)
        }
        "KEYS" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let obj = vals[0].expect_object("KEYS")?;
            Ok(Value::Array(
                obj.keys().map(|k| Value::from(k.clone())).collect(),
            ))
        }
        "VALUES" => {
            if argc != 1 {
                return wrong_arity("1");
            }
            let obj = vals[0].expect_object("VALUES")?;
            Ok(Value::Array(obj.values().cloned().collect()))
        }
        "HAS" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let obj = vals[0].expect_object("HAS")?;
            Ok(Value::Bool(
                obj.contains_key(vals[1].expect_str("HAS key")?),
            ))
        }
        "RANGE" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let a = vals[0].expect_int("RANGE start")?;
            let b = vals[1].expect_int("RANGE end")?;
            Ok(Value::Array((a..=b).map(Value::Int).collect()))
        }
        "DOCUMENT" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let coll = vals[0].expect_str("DOCUMENT collection")?;
            let key = Key::new((*vals[1]).clone())?;
            // the stored record itself, not a copy of it
            return Ok(match txn.get_shared(coll, &key)? {
                Some(doc) => Val::Shared(doc),
                None => Val::Owned(Value::Null),
            });
        }
        "NEIGHBORS" => {
            if !(3..=4).contains(&argc) {
                return wrong_arity("3 or 4");
            }
            let graph = vals[0].expect_str("NEIGHBORS graph")?;
            let key = Key::new((*vals[1]).clone())?;
            let dir = match vals[2]
                .expect_str("NEIGHBORS direction")?
                .to_ascii_uppercase()
                .as_str()
            {
                "OUT" | "OUTBOUND" => Direction::Out,
                "IN" | "INBOUND" => Direction::In,
                "ANY" | "BOTH" => Direction::Both,
                other => return Err(Error::Invalid(format!("unknown direction `{other}`"))),
            };
            let label = match vals.get(3).map(|v| &**v) {
                Some(Value::Str(s)) => Some(s.clone()),
                Some(Value::Null) | None => None,
                Some(other) => return Err(Error::type_err("Str (label)", other.type_name())),
            };
            let keys = txn.neighbors(graph, &key, dir, label.as_deref())?;
            Ok(Value::Array(
                keys.into_iter().map(Key::into_value).collect(),
            ))
        }
        "XPATH" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let expr_s = vals[1].expect_str("XPATH expression")?;
            let compiled = udbms_xml::XPath::parse(expr_s)?;
            if vals[0].is_null() {
                Ok(Value::Array(Vec::new()))
            } else {
                let node = udbms_xml::value_to_xml(&vals[0])?;
                Ok(Value::Array(compiled.values(&node)))
            }
        }
        "XPATH_FIRST" => {
            if argc != 2 {
                return wrong_arity("2");
            }
            let expr_s = vals[1].expect_str("XPATH_FIRST expression")?;
            let compiled = udbms_xml::XPath::parse(expr_s)?;
            if vals[0].is_null() {
                Ok(Value::Null)
            } else {
                let node = udbms_xml::value_to_xml(&vals[0])?;
                Ok(compiled
                    .values(&node)
                    .into_iter()
                    .next()
                    .unwrap_or(Value::Null))
            }
        }
        other => Err(Error::NotFound(format!("function `{other}`"))),
    }
    .map(Val::Owned)
}

/// Shared array aggregation used by both the function library and
/// `COLLECT AGGREGATE`.
pub fn aggregate_array(func: &str, items: &[Value]) -> Value {
    match func {
        "SUM" | "AVG" => {
            let nums: Vec<f64> = items.iter().filter_map(Value::as_float).collect();
            if nums.is_empty() {
                return Value::Null;
            }
            let sum: f64 = nums.iter().sum();
            if func == "AVG" {
                Value::Float(sum / nums.len() as f64)
            } else if items
                .iter()
                .all(|v| matches!(v, Value::Int(_) | Value::Null))
            {
                Value::Int(sum as i64)
            } else {
                Value::Float(sum)
            }
        }
        "MIN" => items
            .iter()
            .filter(|v| !v.is_null())
            .min()
            .cloned()
            .unwrap_or(Value::Null),
        "MAX" => items
            .iter()
            .filter(|v| !v.is_null())
            .max()
            .cloned()
            .unwrap_or(Value::Null),
        _ => Value::Int(items.len() as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;
    use udbms_core::{arr, obj, CollectionSchema};
    use udbms_engine::{Engine, Isolation};

    fn eval_str(src: &str) -> Value {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::key_value("kv"))
            .unwrap();
        let mut txn = engine.begin(Isolation::Snapshot);
        let stmt = parser::parse(&format!("RETURN {src}")).unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        eval(&body.ret, &Env::new(), &mut txn).unwrap()
    }

    #[test]
    fn arithmetic_and_types() {
        assert_eq!(eval_str("1 + 2"), Value::Int(3));
        assert_eq!(eval_str("1 + 2.5"), Value::Float(3.5));
        assert_eq!(eval_str("7 % 3"), Value::Int(1));
        assert_eq!(eval_str("1 / 0"), Value::Null);
        assert_eq!(eval_str("7 % 0"), Value::Null);
        assert_eq!(eval_str("2 * 3 + 1"), Value::Int(7));
        assert_eq!(eval_str("-5"), Value::Int(-5));
        assert_eq!(eval_str("\"a\" + \"b\""), Value::from("ab"));
        assert_eq!(eval_str("[1] + [2]"), arr![1, 2]);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval_str("1 < 2 AND 2 < 3"), Value::Bool(true));
        assert_eq!(
            eval_str("1 == 1.0"),
            Value::Bool(true),
            "canonical equality"
        );
        assert_eq!(eval_str("NOT NULL"), Value::Bool(true));
        assert_eq!(eval_str("FALSE OR 5"), Value::Bool(true), "truthiness");
        assert_eq!(eval_str("2 IN [1, 2]"), Value::Bool(true));
        assert_eq!(eval_str("3 IN [1, 2]"), Value::Bool(false));
        assert_eq!(eval_str("\"abc\" LIKE \"a%\""), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // UPPER(1) would be a type error; AND must not evaluate it
        assert_eq!(eval_str("FALSE AND UPPER(1)"), Value::Bool(false));
        assert_eq!(eval_str("TRUE OR UPPER(1)"), Value::Bool(true));
    }

    #[test]
    fn member_access_variants() {
        assert_eq!(eval_str("{a: {b: [10, 20]}}.a.b[1]"), Value::Int(20));
        assert_eq!(eval_str("[1, 2, 3][-1]"), Value::Int(3), "negative index");
        assert_eq!(eval_str("{a: 1}[\"a\"]"), Value::Int(1));
        assert_eq!(eval_str("{a: 1}.missing"), Value::Null);
        assert_eq!(eval_str("[1][9]"), Value::Null);
        assert_eq!(eval_str("[1, 2, 3][-3]"), Value::Int(1));
        assert_eq!(eval_str("[1, 2, 3][-4]"), Value::Null, "before the first");
    }

    /// Evaluate `RETURN {src}` with `r` bound to a nested row.
    fn eval_on_row(src: &str) -> Result<Value> {
        let engine = Engine::new();
        let mut txn = engine.begin(Isolation::Snapshot);
        let row = obj! {"n" => 3, "s" => "str", "tags" => arr!["a", "b"], "o" => obj! {"k" => 1}};
        let env = Env::new().with("r", row).with("i", Value::Int(1));
        let stmt = parser::parse(&format!("RETURN {src}")).unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        eval(&body.ret, &env, &mut txn)
    }

    #[test]
    fn member_access_on_bound_rows() {
        let at = |src: &str| eval_on_row(src).unwrap();
        // a missing field, also further down the chain
        assert_eq!(at("r.missing"), Value::Null);
        assert_eq!(at("r.missing.deeper[0]"), Value::Null);
        // a field of a non-object
        assert_eq!(at("r.n.field"), Value::Null);
        assert_eq!(at("r.tags.field"), Value::Null);
        // an index on a non-array
        assert_eq!(at("r.n[0]"), Value::Null);
        assert_eq!(at("r.s[0]"), Value::Null);
        // a dynamic index expression, evaluated against the environment
        assert_eq!(at("r.tags[i]"), Value::from("b"));
        assert_eq!(at("r.tags[i - 2]"), Value::from("b"));
        assert_eq!(at("r.tags[i + 5]"), Value::Null);
        assert_eq!(at("r.tags[\"0\"]"), Value::Null, "string index on an array");
        // a string index on an object, static or computed
        assert_eq!(at("r[\"o\"][\"k\"]"), Value::Int(1));
        assert_eq!(at("r[CONCAT(\"t\", \"ags\")][0]"), Value::from("a"));
        assert_eq!(at("r.o[1]"), Value::Null, "int index on an object");
        // an error inside an index expression propagates
        assert!(eval_on_row("r.tags[-r.s]").is_err());
        assert!(eval_on_row("unbound.field").is_err());
    }

    #[test]
    fn let_document_binds_the_record_or_null() {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::key_value("kv"))
            .unwrap();
        let mut setup = engine.begin(Isolation::Snapshot);
        setup.put("kv", Key::int(1), obj! {"v" => 10}).unwrap();
        setup.commit().unwrap();
        let run = |txn: &mut Txn, src: &str| {
            let stmt = parser::parse(src).unwrap();
            crate::exec::execute(&stmt, txn).unwrap()
        };

        let mut txn = engine.begin(Isolation::Snapshot);
        // a missing key binds Null
        let out = run(
            &mut txn,
            "LET d = DOCUMENT(\"kv\", 404) RETURN [d, d == NULL, d.v]",
        );
        assert_eq!(out, vec![arr![Value::Null, true, Value::Null]]);
        // the transaction's own buffered put is what DOCUMENT sees
        txn.put("kv", Key::int(1), obj! {"v" => 11}).unwrap();
        txn.put("kv", Key::int(2), obj! {"v" => 20}).unwrap();
        let out = run(
            &mut txn,
            "LET a = DOCUMENT(\"kv\", 1) LET b = DOCUMENT(\"kv\", 2) RETURN [a.v, b.v]",
        );
        assert_eq!(out, vec![arr![11, 20]]);
        // a concurrent snapshot still sees the committed record only
        let mut other = engine.begin(Isolation::Snapshot);
        let out = run(&mut other, "LET a = DOCUMENT(\"kv\", 1) RETURN a");
        assert_eq!(out, vec![obj! {"v" => 10}]);
    }

    #[test]
    fn array_functions() {
        assert_eq!(eval_str("LENGTH([1, 2, 3])"), Value::Int(3));
        assert_eq!(
            eval_str("LENGTH(\"häh\")"),
            Value::Int(3),
            "chars, not bytes"
        );
        assert_eq!(eval_str("SUM([1, 2, 3])"), Value::Int(6));
        assert_eq!(eval_str("SUM([1.5, 2.5])"), Value::Float(4.0));
        assert_eq!(eval_str("AVG([1, 2, 3])"), Value::Float(2.0));
        assert_eq!(eval_str("MIN([3, 1, 2])"), Value::Int(1));
        assert_eq!(eval_str("MAX([3, NULL, 2])"), Value::Int(3));
        assert_eq!(eval_str("SUM([])"), Value::Null);
        assert_eq!(eval_str("FIRST([7, 8])"), Value::Int(7));
        assert_eq!(eval_str("LAST([7, 8])"), Value::Int(8));
        assert_eq!(eval_str("UNIQUE([1, 2, 1, 3])"), arr![1, 2, 3]);
        assert_eq!(eval_str("FLATTEN([[1, 2], 3, [4]])"), arr![1, 2, 3, 4]);
        assert_eq!(eval_str("APPEND([1], 2)"), arr![1, 2]);
        assert_eq!(eval_str("RANGE(1, 4)"), arr![1, 2, 3, 4]);
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            eval_str("CONCAT(\"a\", 1, NULL, \"b\")"),
            Value::from("a1b")
        );
        assert_eq!(eval_str("UPPER(\"abc\")"), Value::from("ABC"));
        assert_eq!(eval_str("LOWER(\"ABC\")"), Value::from("abc"));
        assert_eq!(eval_str("SUBSTRING(\"hello\", 1, 3)"), Value::from("ell"));
        assert_eq!(eval_str("SUBSTRING(\"hello\", 3)"), Value::from("lo"));
        assert_eq!(eval_str("CONTAINS(\"hello\", \"ell\")"), Value::Bool(true));
        assert_eq!(eval_str("CONTAINS([1, 2], 2)"), Value::Bool(true));
    }

    #[test]
    fn numeric_and_misc_functions() {
        assert_eq!(eval_str("ABS(-3)"), Value::Int(3));
        assert_eq!(eval_str("FLOOR(2.7)"), Value::Int(2));
        assert_eq!(eval_str("CEIL(2.1)"), Value::Int(3));
        assert_eq!(eval_str("ROUND(2.5)"), Value::Int(3));
        assert_eq!(eval_str("TO_STRING(42)"), Value::from("42"));
        assert_eq!(eval_str("TO_NUMBER(\"42\")"), Value::Int(42));
        assert_eq!(eval_str("TO_NUMBER(\"4.5\")"), Value::Float(4.5));
        assert_eq!(eval_str("TO_NUMBER(\"zzz\")"), Value::Null);
        assert_eq!(eval_str("COALESCE(NULL, NULL, 7)"), Value::Int(7));
        assert_eq!(eval_str("MERGE({a: 1}, {b: 2})"), obj! {"a" => 1, "b" => 2});
        assert_eq!(eval_str("KEYS({b: 1, a: 2})"), arr!["a", "b"]);
        assert_eq!(eval_str("VALUES({b: 1, a: 2})"), arr![2, 1]);
        assert_eq!(eval_str("HAS({a: 1}, \"a\")"), Value::Bool(true));
    }

    #[test]
    fn xpath_function_on_bridge_value() {
        let engine = Engine::new();
        engine
            .create_collection(CollectionSchema::xml("inv"))
            .unwrap();
        let mut txn = engine.begin(Isolation::Snapshot);
        txn.put_xml("inv", Key::int(1), "<Invoice><Total>9.50</Total></Invoice>")
            .unwrap();
        let stmt =
            parser::parse("RETURN XPATH_FIRST(DOCUMENT(\"inv\", 1), \"/Invoice/Total/text()\")")
                .unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        let out = eval(&body.ret, &Env::new(), &mut txn).unwrap();
        assert_eq!(out, Value::from("9.50"));
    }

    #[test]
    fn unknown_function_and_bad_arity() {
        let engine = Engine::new();
        let mut txn = engine.begin(Isolation::Snapshot);
        let bad = parser::parse("RETURN NO_SUCH_FN(1)").unwrap();
        let crate::ast::Statement::Query(body) = bad else {
            panic!()
        };
        assert!(eval(&body.ret, &Env::new(), &mut txn).is_err());

        let bad = parser::parse("RETURN LENGTH(1, 2)").unwrap();
        let crate::ast::Statement::Query(body) = bad else {
            panic!()
        };
        assert!(eval(&body.ret, &Env::new(), &mut txn).is_err());
    }

    #[test]
    fn env_shadowing_and_object() {
        let env = Env::new().with("x", Value::Int(1)).with("x", Value::Int(2));
        assert_eq!(env.get("x"), Some(&Value::Int(2)));
        assert_eq!(env.get("y"), None);
        assert_eq!(env.as_object().get_field("x"), &Value::Int(2));
    }

    #[test]
    fn const_folding() {
        let stmt = parser::parse("RETURN 1 + 2 * 3").unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        assert_eq!(eval_const(&body.ret), Some(Value::Int(7)));
        let stmt = parser::parse("RETURN x + 1").unwrap();
        let crate::ast::Statement::Query(body) = stmt else {
            panic!()
        };
        assert_eq!(eval_const(&body.ret), None);
    }
}
