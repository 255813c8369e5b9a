//! Control-flow path enumeration, dependency checking, flag allocation and
//! soundness validation (the code analyzer of Fig. 9c).

use crate::ast::{BinOp, Expr, Program, Stmt};
use crate::CompileError;
use std::collections::{BTreeMap, BTreeSet};

/// How often the eRJS upper bound must be re-estimated (Fig. 9c flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundGranularity {
    /// A single estimation suffices for the whole kernel (e.g. unweighted
    /// Node2Vec, whose returns are hyperparameter constants).
    PerKernel,
    /// The bound changes per step (returns touch per-edge indexed data).
    PerStep,
}

/// One enumerated control-flow path of `get_weight`.
#[derive(Debug, Clone)]
pub struct PathInfo {
    /// Pretty-printed branch conditions along the path.
    pub conditions: Vec<String>,
    /// The fully inlined, constant-folded return expression.
    pub return_expr: Expr,
    /// Names (variables and arrays) the return value depends on.
    pub dependencies: Vec<String>,
    /// Per-path flag from the flag allocator.
    pub granularity: BoundGranularity,
}

/// Everything a `get_weight` program reads from its environment — the
/// dependency surface the walker-lowering pipeline derives label needs,
/// walk order and per-weight memory traffic from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefInfo {
    /// Indexed arrays read (`h`, `adj`, `label`, `deg`, `schema`, …).
    pub arrays: BTreeSet<String>,
    /// Functions called, excluding the `max`/`min`/`abs` builtins
    /// (`linked`, …).
    pub calls: BTreeSet<String>,
    /// Free variables read (`edge`, `prev`, `cur`, `step`, hyperparameters,
    /// …); locals assigned before use are excluded.
    pub frees: BTreeSet<String>,
}

impl RefInfo {
    /// Whether the program consults walk history (`prev`, `has_prev`, or
    /// the `linked` membership probe) — i.e. is second-order.
    pub fn second_order(&self) -> bool {
        self.frees.contains("prev")
            || self.frees.contains("has_prev")
            || self.calls.contains("linked")
    }

    /// Whether the program reads an edge timestamp (`edge_time`) or the
    /// walk clock (`walk_time`).
    pub fn reads_time(&self) -> bool {
        self.frees.contains("edge_time") || self.frees.contains("walk_time")
    }
}

/// Collects every environment reference of `p` (arrays, calls, free
/// variables), skipping locals that were assigned earlier in the program.
pub fn references(p: &Program) -> RefInfo {
    let mut info = RefInfo::default();
    let mut locals = BTreeSet::new();
    ref_stmts(&p.body, &mut locals, &mut info);
    info
}

fn ref_stmts(stmts: &[Stmt], locals: &mut BTreeSet<String>, info: &mut RefInfo) {
    for s in stmts {
        match s {
            Stmt::Assign { name, value } => {
                ref_expr(value, locals, info);
                locals.insert(name.clone());
            }
            Stmt::Return(e) => ref_expr(e, locals, info),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                ref_expr(cond, locals, info);
                // Locals assigned in one branch may be undefined in the
                // other; track them per branch, conservatively keeping the
                // outer set untouched.
                let mut then_locals = locals.clone();
                ref_stmts(then_branch, &mut then_locals, info);
                let mut else_locals = locals.clone();
                ref_stmts(else_branch, &mut else_locals, info);
            }
            Stmt::While { cond, body } => {
                ref_expr(cond, locals, info);
                let mut body_locals = locals.clone();
                ref_stmts(body, &mut body_locals, info);
            }
        }
    }
}

fn ref_expr(e: &Expr, locals: &BTreeSet<String>, info: &mut RefInfo) {
    match e {
        Expr::Num(_) => {}
        Expr::Var(name) => {
            if !locals.contains(name) {
                info.frees.insert(name.clone());
            }
        }
        Expr::Index { array, index } => {
            info.arrays.insert(array.clone());
            ref_expr(index, locals, info);
        }
        Expr::Call { name, args } => {
            if !matches!(name.as_str(), "max" | "min" | "abs") {
                info.calls.insert(name.clone());
            }
            for a in args {
                ref_expr(a, locals, info);
            }
        }
        Expr::Binary { lhs, rhs, .. } => {
            ref_expr(lhs, locals, info);
            ref_expr(rhs, locals, info);
        }
        Expr::Unary { expr, .. } => ref_expr(expr, locals, info),
    }
}

/// Soundness verdict for a parsed program (§5.2 / §7.1 checks).
#[derive(Debug, Clone)]
pub struct Validation {
    /// Whether eRJS estimator generation may proceed.
    pub supported: bool,
    /// Reasons for rejection or caution.
    pub warnings: Vec<String>,
}

/// Validates `p` against the constructs Flexi-Compiler cannot analyze:
/// loops with data-dependent exits, recursion, and warp intrinsics /
/// inter-thread communication.
pub fn validate(p: &Program) -> Validation {
    let mut warnings = Vec::new();
    let mut supported = true;
    check_stmts(&p.body, p, &mut warnings, &mut supported, 0);
    Validation {
        supported,
        warnings,
    }
}

const MAX_NESTING: usize = 16;

fn check_stmts(
    stmts: &[Stmt],
    p: &Program,
    warnings: &mut Vec<String>,
    supported: &mut bool,
    depth: usize,
) {
    if depth > MAX_NESTING {
        warnings.push(format!(
            "control flow nested deeper than {MAX_NESTING} levels; \
             falling back to eRVS-only mode"
        ));
        *supported = false;
        return;
    }
    for s in stmts {
        match s {
            Stmt::While { body, .. } => {
                warnings.push(
                    "loop with data-dependent exit detected; \
                     falling back to eRVS-only mode"
                        .to_string(),
                );
                *supported = false;
                check_stmts(body, p, warnings, supported, depth + 1);
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                check_expr(cond, p, warnings, supported);
                check_stmts(then_branch, p, warnings, supported, depth + 1);
                check_stmts(else_branch, p, warnings, supported, depth + 1);
            }
            Stmt::Assign { value, .. } => check_expr(value, p, warnings, supported),
            Stmt::Return(e) => check_expr(e, p, warnings, supported),
        }
    }
}

fn check_expr(e: &Expr, p: &Program, warnings: &mut Vec<String>, supported: &mut bool) {
    e.visit(&mut |node| {
        if let Expr::Call { name, .. } = node {
            if name == &p.name {
                warnings.push(format!(
                    "recursive call to {name}() detected; \
                     falling back to eRVS-only mode"
                ));
                *supported = false;
            }
            if name.starts_with("__") || name == "syncwarp" || name == "syncthreads" {
                warnings.push(format!(
                    "inter-thread communication intrinsic {name}() detected; \
                     FlexiWalker switches sampling kernels per warp and cannot \
                     preserve user-level warp synchrony — falling back to \
                     eRVS-only mode"
                ));
                *supported = false;
            }
        }
    });
}

/// Enumerates every control-flow path, inlining assignments (dependency
/// checker) and constant-folding hyperparameters.
///
/// # Errors
///
/// Returns [`CompileError::MissingReturn`] if any path can fall off the end
/// of the function.
pub fn enumerate_paths(
    p: &Program,
    hyperparams: &[(String, f64)],
) -> Result<Vec<PathInfo>, CompileError> {
    let mut env: BTreeMap<String, Expr> = BTreeMap::new();
    for (k, v) in hyperparams {
        env.insert(k.clone(), Expr::Num(*v));
    }
    let mut paths = Vec::new();
    walk(&p.body, &env, &mut Vec::new(), &mut paths)?;
    Ok(paths)
}

fn walk(
    stmts: &[Stmt],
    env: &BTreeMap<String, Expr>,
    conds: &mut Vec<String>,
    out: &mut Vec<PathInfo>,
) -> Result<(), CompileError> {
    let Some((first, rest)) = stmts.split_first() else {
        return Err(CompileError::MissingReturn);
    };
    match first {
        Stmt::Assign { name, value } => {
            let mut env = env.clone();
            let inlined = fold(&substitute(value, &env));
            env.insert(name.clone(), inlined);
            walk(rest, &env, conds, out)
        }
        Stmt::Return(e) => {
            let expr = fold(&substitute(e, env));
            let dependencies = collect_deps(&expr);
            let granularity = classify(&expr);
            out.push(PathInfo {
                conditions: conds.clone(),
                return_expr: expr,
                dependencies,
                granularity,
            });
            Ok(())
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let cond_inlined = fold(&substitute(cond, env));
            let mut then_stmts: Vec<Stmt> = then_branch.clone();
            then_stmts.extend_from_slice(rest);
            conds.push(cond_inlined.to_source());
            walk(&then_stmts, env, conds, out)?;
            conds.pop();
            let mut else_stmts: Vec<Stmt> = else_branch.clone();
            else_stmts.extend_from_slice(rest);
            conds.push(format!("!{}", cond_inlined.to_source()));
            walk(&else_stmts, env, conds, out)?;
            conds.pop();
            Ok(())
        }
        Stmt::While { .. } => Err(CompileError::Parse(
            "while reached path enumeration; validate() must run first".into(),
        )),
    }
}

/// Substitutes environment bindings into `e`.
fn substitute(e: &Expr, env: &BTreeMap<String, Expr>) -> Expr {
    match e {
        Expr::Num(n) => Expr::Num(*n),
        Expr::Var(name) => env.get(name).cloned().unwrap_or_else(|| e.clone()),
        Expr::Index { array, index } => Expr::Index {
            array: array.clone(),
            index: Box::new(substitute(index, env)),
        },
        Expr::Call { name, args } => Expr::Call {
            name: name.clone(),
            args: args.iter().map(|a| substitute(a, env)).collect(),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(substitute(lhs, env)),
            rhs: Box::new(substitute(rhs, env)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(substitute(expr, env)),
        },
    }
}

/// Constant-folds numeric arithmetic (including `max`/`min`/`abs` calls).
pub fn fold(e: &Expr) -> Expr {
    match e {
        Expr::Binary { op, lhs, rhs } => {
            let l = fold(lhs);
            let r = fold(rhs);
            if let (Expr::Num(a), Expr::Num(b)) = (&l, &r) {
                if let Some(v) = eval_bin(*op, *a, *b) {
                    return Expr::Num(v);
                }
            }
            Expr::Binary {
                op: *op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }
        }
        Expr::Unary { op, expr } => {
            let inner = fold(expr);
            if let Expr::Num(a) = inner {
                return Expr::Num(match op {
                    crate::ast::UnOp::Neg => -a,
                    crate::ast::UnOp::Not => {
                        if a == 0.0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                });
            }
            Expr::Unary {
                op: *op,
                expr: Box::new(inner),
            }
        }
        Expr::Call { name, args } => {
            let folded: Vec<Expr> = args.iter().map(fold).collect();
            let nums: Option<Vec<f64>> = folded
                .iter()
                .map(|a| match a {
                    Expr::Num(n) => Some(*n),
                    _ => None,
                })
                .collect();
            if let Some(nums) = nums {
                match (name.as_str(), nums.as_slice()) {
                    ("max", [a, b]) => return Expr::Num(a.max(*b)),
                    ("min", [a, b]) => return Expr::Num(a.min(*b)),
                    ("abs", [a]) => return Expr::Num(a.abs()),
                    _ => {}
                }
            }
            Expr::Call {
                name: name.clone(),
                args: folded,
            }
        }
        Expr::Index { array, index } => Expr::Index {
            array: array.clone(),
            index: Box::new(fold(index)),
        },
        other => other.clone(),
    }
}

fn eval_bin(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Eq => bool_to_f(a == b),
        BinOp::Ne => bool_to_f(a != b),
        BinOp::Lt => bool_to_f(a < b),
        BinOp::Le => bool_to_f(a <= b),
        BinOp::Gt => bool_to_f(a > b),
        BinOp::Ge => bool_to_f(a >= b),
        BinOp::And => bool_to_f(a != 0.0 && b != 0.0),
        BinOp::Or => bool_to_f(a != 0.0 || b != 0.0),
    })
}

fn bool_to_f(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

fn collect_deps(e: &Expr) -> Vec<String> {
    let mut deps = Vec::new();
    e.visit(&mut |node| match node {
        Expr::Var(v) if !deps.contains(v) => {
            deps.push(v.clone());
        }
        Expr::Index { array, .. } if !deps.contains(array) => {
            deps.push(array.clone());
        }
        _ => {}
    });
    deps
}

/// Flag allocator: a return value is `PER_STEP` as soon as it references any
/// indexed array or free variable; only pure constants are `PER_KERNEL`.
fn classify(e: &Expr) -> BoundGranularity {
    let mut per_step = false;
    e.visit(&mut |node| match node {
        Expr::Index { .. } | Expr::Var(_) => per_step = true,
        _ => {}
    });
    if per_step {
        BoundGranularity::PerStep
    } else {
        BoundGranularity::PerKernel
    }
}

/// Combines per-path flags into the kernel-wide granularity.
pub fn overall_granularity(paths: &[PathInfo]) -> BoundGranularity {
    if paths
        .iter()
        .any(|p| p.granularity == BoundGranularity::PerStep)
    {
        BoundGranularity::PerStep
    } else {
        BoundGranularity::PerKernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn paths_of(src: &str, hyper: &[(&str, f64)]) -> Vec<PathInfo> {
        let p = parse_program(src).unwrap();
        let hyper: Vec<(String, f64)> = hyper.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        enumerate_paths(&p, &hyper).unwrap()
    }

    #[test]
    fn node2vec_weighted_has_three_paths() {
        let src = r#"
            get_weight() {
                h_e = h[edge];
                post = adj[edge];
                if (post == prev) return h_e / a;
                else if (linked(prev, post)) return h_e;
                else return h_e / b;
            }
        "#;
        let paths = paths_of(src, &[("a", 2.0), ("b", 0.5)]);
        assert_eq!(paths.len(), 3);
        // Assignment inlining resolved h_e to h[edge].
        assert_eq!(paths[0].return_expr.to_source(), "(h[edge] / 2.0)");
        assert_eq!(paths[1].return_expr.to_source(), "h[edge]");
        assert_eq!(paths[2].return_expr.to_source(), "(h[edge] / 0.5)");
        for p in &paths {
            assert_eq!(p.granularity, BoundGranularity::PerStep);
            assert!(p.dependencies.contains(&"h".to_string()));
        }
        assert_eq!(overall_granularity(&paths), BoundGranularity::PerStep);
    }

    #[test]
    fn unweighted_node2vec_is_per_kernel() {
        let src = r#"
            get_weight() {
                post = adj[edge];
                if (post == prev) return 1.0 / a;
                else if (linked(prev, post)) return 1.0;
                else return 1.0 / b;
            }
        "#;
        let paths = paths_of(src, &[("a", 2.0), ("b", 0.5)]);
        assert_eq!(paths.len(), 3);
        // Hyperparameters folded: 1/a = 0.5, 1/b = 2.
        assert_eq!(paths[0].return_expr, Expr::Num(0.5));
        assert_eq!(paths[1].return_expr, Expr::Num(1.0));
        assert_eq!(paths[2].return_expr, Expr::Num(2.0));
        assert_eq!(overall_granularity(&paths), BoundGranularity::PerKernel);
    }

    #[test]
    fn conditions_are_recorded_per_path() {
        let src = "f() { if (x == 1) return 1.0; else return 2.0; }";
        let paths = paths_of(src, &[]);
        assert_eq!(paths[0].conditions, vec!["(x == 1.0)"]);
        assert_eq!(paths[1].conditions, vec!["!(x == 1.0)"]);
    }

    #[test]
    fn code_after_if_is_reachable_from_both_branches() {
        let src = r#"
            f() {
                y = 1.0;
                if (x == 1) y = 2.0;
                return y;
            }
        "#;
        let paths = paths_of(src, &[]);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].return_expr, Expr::Num(2.0));
        assert_eq!(paths[1].return_expr, Expr::Num(1.0));
    }

    #[test]
    fn missing_return_is_detected() {
        let p = parse_program("f() { x = 1.0; }").unwrap();
        assert_eq!(
            enumerate_paths(&p, &[]).unwrap_err(),
            CompileError::MissingReturn
        );
    }

    #[test]
    fn missing_return_in_one_branch_is_detected() {
        let p = parse_program("f() { if (x == 1) return 1.0; else x = 2.0; }").unwrap();
        assert!(enumerate_paths(&p, &[]).is_err());
    }

    #[test]
    fn validate_accepts_straightline_code() {
        let p = parse_program("f() { if (a == 1) return 1.0; else return 2.0; }").unwrap();
        let v = validate(&p);
        assert!(v.supported);
        assert!(v.warnings.is_empty());
    }

    #[test]
    fn validate_rejects_loops() {
        let p = parse_program("f() { while (x < 3) { x = x + 1; } return x; }").unwrap();
        let v = validate(&p);
        assert!(!v.supported);
        assert!(v.warnings[0].contains("loop"));
    }

    #[test]
    fn validate_rejects_recursion() {
        let p = parse_program("get_weight() { return get_weight(); }").unwrap();
        let v = validate(&p);
        assert!(!v.supported);
        assert!(v.warnings[0].contains("recursive"));
    }

    #[test]
    fn validate_rejects_warp_intrinsics() {
        let p = parse_program("f() { x = __ballot_sync(m, p); return x; }").unwrap();
        let v = validate(&p);
        assert!(!v.supported);
        assert!(v.warnings[0].contains("intrinsic"));
    }

    #[test]
    fn fold_handles_arithmetic_and_builtins() {
        use crate::parser::parse_expr;
        assert_eq!(fold(&parse_expr("1 + 2 * 3").unwrap()), Expr::Num(7.0));
        assert_eq!(fold(&parse_expr("max(2, 5)").unwrap()), Expr::Num(5.0));
        assert_eq!(fold(&parse_expr("min(2, 5)").unwrap()), Expr::Num(2.0));
        assert_eq!(fold(&parse_expr("abs(0 - 3)").unwrap()), Expr::Num(3.0));
        assert_eq!(fold(&parse_expr("!0").unwrap()), Expr::Num(1.0));
        // Non-constant parts stay symbolic.
        assert_eq!(
            fold(&parse_expr("x + (1 + 1)").unwrap()).to_source(),
            "(x + 2.0)"
        );
    }

    #[test]
    fn references_collect_arrays_calls_and_frees() {
        let p = parse_program(crate::workloads::NODE2VEC_WEIGHTED).unwrap();
        let info = references(&p);
        assert!(info.arrays.contains("h"));
        assert!(info.arrays.contains("adj"));
        assert!(!info.arrays.contains("label"));
        assert!(info.calls.contains("linked"));
        // Locals (h_e, post) are excluded; builtins are excluded.
        assert!(!info.frees.contains("h_e"));
        assert!(!info.frees.contains("post"));
        assert!(info.frees.contains("prev"));
        assert!(info.frees.contains("a"));
        assert!(info.second_order());
    }

    #[test]
    fn references_first_order_walk_is_not_second_order() {
        let p = parse_program("get_weight(edge) { return h[edge]; }").unwrap();
        let info = references(&p);
        assert!(!info.second_order());
        assert_eq!(
            info.arrays.iter().collect::<Vec<_>>(),
            vec![&"h".to_string()]
        );
        assert!(info.calls.is_empty());
    }

    #[test]
    fn references_branch_locals_do_not_leak() {
        // `y` assigned only in the then-branch must still count as local
        // within it, and `z` read before assignment is free.
        let p = parse_program("f() { if (x == 1) { y = z; } return 1.0; }").unwrap();
        let info = references(&p);
        assert!(info.frees.contains("x"));
        assert!(info.frees.contains("z"));
        assert!(!info.frees.contains("y"));
    }

    #[test]
    fn deps_include_arrays_and_vars_once() {
        use crate::parser::parse_expr;
        let e = parse_expr("h[edge] + h[edge] * x + x").unwrap();
        assert_eq!(
            collect_deps(&e),
            vec!["h".to_string(), "edge".into(), "x".into()]
        );
    }
}
