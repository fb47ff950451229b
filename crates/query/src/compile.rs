//! Predicate compilation: turn a row-local MMQL expression into a
//! **closure tree** evaluated directly against the borrowed row.
//!
//! The interpreter already reads by reference: a `Var` or member chain
//! borrows the row bound in the [`Env`](crate::eval::Env) and clones
//! only the leaf it projects. What a hot filter still does not need is
//! the per-row `Env` binding and the AST walk with dynamic dispatch on
//! every node. A [`CompiledPred`] pays neither — member chains become a
//! captured [`FieldPath`](udbms_core::FieldPath) resolved with
//! [`Value::get_path`] on the borrowed row (the interpreter's member
//! walk uses the same per-step [`Value::get_field`]), constant
//! subexpressions are folded once at compile time via [`eval_const`],
//! and operators reuse the interpreter's own
//! `apply_unary`/`apply_binary`, so results (including errors and
//! short-circuit behaviour) are identical by construction.
//!
//! Compilation is **total or nothing**: any node the compiler cannot
//! prove row-local (function calls, subqueries, other variables, bind
//! parameters, dynamic member indexes) makes [`CompiledPred::compile`]
//! return `None` and the executor falls back to the interpreter. A
//! proptest (`tests/read_path.rs`) checks agreement on arbitrary
//! expressions and rows.

use udbms_core::{Result, Value};

use crate::ast::{BinOp, Expr};
use crate::eval::{apply_binary, apply_unary, eval_const};

/// A compiled node: a boxed closure from the borrowed row to a value.
type Node = Box<dyn Fn(&Value) -> Result<Value> + Send + Sync>;

/// A row predicate (or projection) compiled from an [`Expr`] that only
/// references one loop variable. Cheap to evaluate, `Send + Sync`, and
/// reusable across every row of a scan — compile once per `FOR` clause,
/// not once per row.
pub struct CompiledPred {
    root: Node,
}

impl std::fmt::Debug for CompiledPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPred").finish_non_exhaustive()
    }
}

impl CompiledPred {
    /// Compile `expr` against loop variable `var`. Returns `None` when
    /// the expression is not row-local (the caller keeps the
    /// interpreter path).
    pub fn compile(expr: &Expr, var: &str) -> Option<CompiledPred> {
        compile_node(expr, var).map(|root| CompiledPred { root })
    }

    /// Evaluate against a borrowed row. Result (value or error) matches
    /// the interpreter evaluating the source expression with the row
    /// bound to the loop variable.
    pub fn eval(&self, row: &Value) -> Result<Value> {
        (self.root)(row)
    }

    /// Truthiness of [`CompiledPred::eval`] — the filter entry point.
    pub fn matches(&self, row: &Value) -> Result<bool> {
        Ok(self.eval(row)?.is_truthy())
    }
}

/// Compile one AST node, or `None` when it is not row-local.
fn compile_node(expr: &Expr, var: &str) -> Option<Node> {
    // constant subtree: fold once, capture the value
    if let Some(c) = eval_const(expr) {
        return Some(Box::new(move |_| Ok(c.clone())));
    }
    match expr {
        Expr::Literal(v) => {
            let v = v.clone();
            Some(Box::new(move |_| Ok(v.clone())))
        }
        Expr::Var(name) if name == var => Some(Box::new(|row| Ok(row.clone()))),
        // member chain rooted at the loop variable with static steps:
        // capture a FieldPath, resolve on the borrowed row (no clone of
        // the row, one clone of the projected leaf)
        Expr::Member { .. } | Expr::Var(_) => {
            let (v, path) = expr.as_var_path()?;
            if v != var {
                return None;
            }
            Some(Box::new(move |row| Ok(row.get_path(&path).clone())))
        }
        Expr::Array(items) => {
            let nodes: Vec<Node> = items
                .iter()
                .map(|e| compile_node(e, var))
                .collect::<Option<_>>()?;
            Some(Box::new(move |row| {
                nodes
                    .iter()
                    .map(|n| n(row))
                    .collect::<Result<Vec<_>>>()
                    .map(Value::Array)
            }))
        }
        Expr::Object(fields) => {
            let nodes: Vec<(String, Node)> = fields
                .iter()
                .map(|(k, e)| compile_node(e, var).map(|n| (k.clone(), n)))
                .collect::<Option<_>>()?;
            Some(Box::new(move |row| {
                let mut m = std::collections::BTreeMap::new();
                for (k, n) in &nodes {
                    m.insert(k.clone(), n(row)?);
                }
                Ok(Value::Object(m))
            }))
        }
        Expr::Unary { op, expr } => {
            let op = *op;
            let inner = compile_node(expr, var)?;
            Some(Box::new(move |row| apply_unary(op, &inner(row)?)))
        }
        Expr::Binary { op, lhs, rhs } => {
            let op = *op;
            let l = compile_node(lhs, var)?;
            let r = compile_node(rhs, var)?;
            Some(Box::new(move |row| {
                let lv = l(row)?;
                // mirror the interpreter's short-circuit exactly
                match op {
                    BinOp::And if !lv.is_truthy() => return Ok(Value::Bool(false)),
                    BinOp::Or if lv.is_truthy() => return Ok(Value::Bool(true)),
                    _ => {}
                }
                apply_binary(op, &lv, &r(row)?)
            }))
        }
        // calls, subqueries, params, foreign vars: interpreter territory
        Expr::Call { .. } | Expr::Subquery(_) | Expr::Param { .. } => None,
    }
}

/// Whether an expression *would* compile (used by `explain` to report
/// the chosen filter strategy without building the closures twice).
pub fn compilable(expr: &Expr, var: &str) -> bool {
    CompiledPred::compile(expr, var).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser;
    use udbms_core::obj;

    fn filter_of(src: &str) -> Expr {
        let stmt = parser::parse(&format!("FOR r IN t FILTER {src} RETURN r")).unwrap();
        let Statement::Query(body) = stmt else {
            panic!()
        };
        let crate::ast::Clause::Filter(f) = &body.clauses[1] else {
            panic!()
        };
        f.clone()
    }

    #[test]
    fn compiles_row_local_comparisons() {
        let row = obj! {"g" => 7, "name" => "Ada", "nest" => obj! {"x" => 2}};
        for (src, want) in [
            ("r.g == 7", true),
            ("r.g % 4 == 3", true),
            ("r.g > 10", false),
            ("r.name LIKE \"A%\"", true),
            ("r.g IN [1, 7]", true),
            ("r.nest.x * 3 == 6", true),
            ("NOT (r.g == 7)", false),
            ("r.g == 7 AND r.name == \"Ada\"", true),
            ("r.g == 0 OR r.name == \"Ada\"", true),
            ("r.missing == NULL", true),
        ] {
            let p = CompiledPred::compile(&filter_of(src), "r")
                .unwrap_or_else(|| panic!("{src} must compile"));
            assert_eq!(p.matches(&row).unwrap(), want, "{src}");
        }
    }

    #[test]
    fn constant_subtrees_fold() {
        let p = CompiledPred::compile(&filter_of("r.g == 3 + 4"), "r").unwrap();
        assert!(p.matches(&obj! {"g" => 7}).unwrap());
        // whole-constant filters compile too
        let p = CompiledPred::compile(&filter_of("1 < 2"), "r").unwrap();
        assert!(p.matches(&Value::Null).unwrap());
    }

    #[test]
    fn non_row_local_expressions_fall_back() {
        for src in [
            "TO_NUMBER(r.g) == 3",               // call
            "r.g == other.g",                    // foreign variable
            "r.g == @p",                         // unbound parameter
            "LENGTH((FOR x IN t RETURN x)) > 0", // subquery inside call
        ] {
            assert!(
                CompiledPred::compile(&filter_of(src), "r").is_none(),
                "{src} must not compile"
            );
        }
    }

    #[test]
    fn short_circuit_skips_rhs_errors() {
        // -r.name is a type error; AND must not reach it when lhs is false
        let p = CompiledPred::compile(&filter_of("r.g == 0 AND -r.name == 1"), "r").unwrap();
        assert!(!p.matches(&obj! {"g" => 7, "name" => "Ada"}).unwrap());
        // but an evaluated type error propagates, like the interpreter
        let p = CompiledPred::compile(&filter_of("-r.name == 1"), "r").unwrap();
        assert!(p.matches(&obj! {"name" => "Ada"}).is_err());
    }

    #[test]
    fn whole_row_and_constructors_compile() {
        let row = obj! {"g" => 1};
        let p = CompiledPred::compile(&filter_of("r == {g: 1}"), "r").unwrap();
        assert!(p.matches(&row).unwrap());
        let p = CompiledPred::compile(&filter_of("[r.g, 2] == [1, 2]"), "r").unwrap();
        assert!(p.matches(&row).unwrap());
        let p = CompiledPred::compile(&filter_of("{a: r.g} == {a: 1}"), "r").unwrap();
        assert!(p.matches(&row).unwrap());
    }
}
