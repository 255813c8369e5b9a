//! Estimator generation (the code generator of Fig. 9d).
//!
//! From the enumerated return paths this module emits:
//!
//! - the `preprocess()` reduction requests (`h_MAX[]`, `h_SUM[]` arrays);
//! - `get_weight_max()` — per-edge indexed arrays rebound to their `_MAX`
//!   aggregates, maximum over all path returns (the eRJS upper bound);
//! - `get_weight_sum()` — arrays rebound to `_SUM` aggregates, *mean* over
//!   path returns (Eq. 12's `Σw · E[h]` estimate), multiplied by the degree
//!   when the kernel is `PER_KERNEL` (constant returns).
//!
//! The estimators are expression IRs. [`Estimator::lower`] resolves their
//! names once per launch, and the runtime evaluates the lowered form per
//! step through a [`StepInput`]. A pretty-printed C-like rendering is kept
//! for inspection (`CompiledWalk::generated_source`).

use crate::analysis::{fold, overall_granularity, BoundGranularity, PathInfo};
use crate::ast::{Expr, Program, UnOp};

/// Which per-node aggregate of an indexed array a preprocess pass computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `array_MAX[v] = max over v's out-edges`.
    Max,
    /// `array_SUM[v] = sum over v's out-edges`.
    Sum,
}

/// One preprocessing reduction the runtime must run before walking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreprocessRequest {
    /// Array name in the user source (e.g. `h`).
    pub array: String,
    /// Aggregate kind.
    pub kind: AggKind,
}

/// What a lowered estimator reads from the walk at each step.
///
/// Implemented by `Flexi-Runtime`; the compiler only defines the
/// interface. Everything else an estimator names — aggregate tables and
/// hyperparameters — is resolved once by [`Estimator::lower`]. An input
/// that has no walk state answers `None`, which the estimator propagates.
pub trait StepInput {
    /// The current node: the row every aggregate table is indexed at.
    fn cur(&self) -> Option<usize>;

    /// `deg`: the current node's degree.
    fn degree(&self) -> Option<f64>;

    /// `step` / `iter`: the zero-based step index.
    fn step(&self) -> Option<f64>;

    /// A node-indexed runtime scalar such as `deg[cur]`, `deg[prev]`, or
    /// `schema[step]`.
    fn node_scalar(&self, array: &str, index: &str) -> Option<f64>;
}

/// How an estimator combines its per-path values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combine {
    /// Maximum over paths (bound estimation).
    Max,
    /// Mean over paths (weight-sum estimation, Eq. 12).
    Mean,
}

/// A generated helper function (`get_weight_max` / `get_weight_sum`).
#[derive(Debug, Clone)]
pub struct Estimator {
    /// One rebound expression per control-flow path.
    pub exprs: Vec<Expr>,
    /// Path-combination rule.
    pub combine: Combine,
    /// Multiply the combined value by the current degree (PER_KERNEL sum
    /// helpers emulate the weight sum this way, Fig. 9d).
    pub multiply_by_degree: bool,
}

impl Estimator {
    /// Lowers the estimator for one launch: every name resolves here,
    /// once, so per-step evaluation is arithmetic over resolved slots.
    ///
    /// - `array_MAX[..]` / `array_SUM[..]` bind to the table `aggregate`
    ///   returns for `(array, kind)`;
    /// - a free variable is `deg`, then `step` / `iter`, then a
    ///   `hyperparam` constant;
    /// - node-indexed scalars keep their pre-split names for
    ///   [`StepInput::node_scalar`];
    /// - whatever cannot be resolved evaluates to `None`.
    ///
    /// The lowered form performs the same f64 operations in the same order
    /// as the expression tree, so its values are bit-identical.
    pub fn lower<'a>(
        &'a self,
        aggregate: &dyn Fn(&str, AggKind) -> Option<&'a [f32]>,
        hyperparam: &dyn Fn(&str) -> Option<f64>,
    ) -> LoweredEstimator<'a> {
        LoweredEstimator {
            exprs: self
                .exprs
                .iter()
                .map(|e| lower_expr(e, aggregate, hyperparam))
                .collect(),
            combine: self.combine,
            multiply_by_degree: self.multiply_by_degree,
        }
    }

    /// Pretty-prints the estimator body in the Fig. 9d style.
    pub fn to_source(&self, name: &str) -> String {
        let mut s = format!("{name}(...) {{\n");
        let (acc, op) = match self.combine {
            Combine::Max => ("max_val", "max_val = max(max_val, {});"),
            Combine::Mean => ("sum_val", "sum_val = sum_val + {};"),
        };
        for (i, e) in self.exprs.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("    {acc} = {};\n", e.to_source()));
            } else {
                s.push_str(&format!("    {}\n", op.replacen("{}", &e.to_source(), 1)));
            }
        }
        if self.combine == Combine::Mean && self.exprs.len() > 1 {
            s.push_str(&format!(
                "    sum_val = sum_val / {}.0;\n",
                self.exprs.len()
            ));
        }
        if self.multiply_by_degree {
            s.push_str(&format!("    {acc} = {acc} * deg[cur];\n"));
        }
        s.push_str(&format!("    return {acc};\n}}\n"));
        s
    }
}

/// A fully compiled walk: analysis table plus generated helpers.
#[derive(Debug, Clone)]
pub struct CompiledWalk {
    /// The enumerated analysis result table.
    pub paths: Vec<PathInfo>,
    /// Kernel-wide bound granularity.
    pub flag: BoundGranularity,
    /// `get_weight_max()` helper.
    pub max_estimator: Estimator,
    /// `get_weight_sum()` helper.
    pub sum_estimator: Estimator,
    /// Reductions `preprocess()` must run.
    pub preprocess: Vec<PreprocessRequest>,
    /// Non-fatal analysis warnings.
    pub warnings: Vec<String>,
    /// Human-readable rendering of all generated code.
    pub generated_source: String,
}

/// Generates estimators for the enumerated `paths`.
///
/// Returns `None` when some return expression cannot be bounded (unknown
/// calls, boolean returns, …) — the caller falls back to eRVS-only mode.
pub fn generate(
    program: &Program,
    paths: &[PathInfo],
    _hyperparams: &[(String, f64)],
) -> Option<CompiledWalk> {
    let flag = overall_granularity(paths);
    let mut preprocess = Vec::new();
    let mut max_exprs = Vec::new();
    let mut sum_exprs = Vec::new();
    for p in paths {
        let max_e = rebind(&p.return_expr, AggKind::Max, &mut preprocess)?;
        let sum_e = rebind(&p.return_expr, AggKind::Sum, &mut Vec::new())?;
        max_exprs.push(fold(&max_e));
        sum_exprs.push(fold(&sum_e));
    }
    let max_estimator = Estimator {
        exprs: max_exprs,
        combine: Combine::Max,
        multiply_by_degree: false,
    };
    let sum_estimator = Estimator {
        exprs: sum_exprs,
        combine: Combine::Mean,
        multiply_by_degree: flag == BoundGranularity::PerKernel,
    };
    // Sum aggregates are also preprocessed for every max-preprocessed array.
    let mut all_pre = Vec::new();
    for r in &preprocess {
        all_pre.push(r.clone());
        all_pre.push(PreprocessRequest {
            array: r.array.clone(),
            kind: AggKind::Sum,
        });
    }
    all_pre.dedup();
    let generated_source = render_source(program, &all_pre, &max_estimator, &sum_estimator);
    Some(CompiledWalk {
        paths: paths.to_vec(),
        flag,
        max_estimator,
        sum_estimator,
        preprocess: all_pre,
        warnings: Vec::new(),
        generated_source,
    })
}

/// Rebinds edge-indexed arrays to their aggregates and checks estimability.
///
/// - `array[edge]` → `array_MAX[cur]` / `array_SUM[cur]` (recorded in
///   `preprocess`);
/// - `array[other]` (node-indexed scalars) stays, resolved by the env;
/// - `max`/`min`/`abs` calls stay;
/// - anything else (unknown calls, comparisons, `!`) is not estimable.
fn rebind(e: &Expr, kind: AggKind, preprocess: &mut Vec<PreprocessRequest>) -> Option<Expr> {
    match e {
        Expr::Num(n) => Some(Expr::Num(*n)),
        // Free variables: runtime scalars (step, iter, deg) — allowed; the
        // env resolves them at estimation time.
        Expr::Var(v) => Some(Expr::Var(v.clone())),
        Expr::Index { array, index } => {
            if matches!(&**index, Expr::Var(v) if v == "edge") {
                let req = PreprocessRequest {
                    array: array.clone(),
                    kind: AggKind::Max,
                };
                if !preprocess.contains(&req) {
                    preprocess.push(req);
                }
                let suffix = match kind {
                    AggKind::Max => "_MAX",
                    AggKind::Sum => "_SUM",
                };
                Some(Expr::Index {
                    array: format!("{array}{suffix}"),
                    index: Box::new(Expr::Var("cur".into())),
                })
            } else {
                // Node-indexed scalar (deg[cur], schema[step], ...).
                Some(e.clone())
            }
        }
        Expr::Call { name, args } => {
            if !matches!(name.as_str(), "max" | "min" | "abs") {
                return None;
            }
            let args: Option<Vec<Expr>> =
                args.iter().map(|a| rebind(a, kind, preprocess)).collect();
            Some(Expr::Call {
                name: name.clone(),
                args: args?,
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            if op.is_comparison() {
                return None;
            }
            Some(Expr::Binary {
                op: *op,
                lhs: Box::new(rebind(lhs, kind, preprocess)?),
                rhs: Box::new(rebind(rhs, kind, preprocess)?),
            })
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => Some(Expr::Unary {
                op: UnOp::Neg,
                expr: Box::new(rebind(expr, kind, preprocess)?),
            }),
            UnOp::Not => None,
        },
    }
}

/// An [`Estimator`] lowered for one launch by [`Estimator::lower`].
#[derive(Debug, Clone)]
pub struct LoweredEstimator<'a> {
    exprs: Vec<Slot<'a>>,
    combine: Combine,
    multiply_by_degree: bool,
}

impl LoweredEstimator<'_> {
    /// Evaluates the estimator at one walk step.
    ///
    /// Returns `None` if a referenced aggregate/scalar is unavailable.
    pub fn eval(&self, input: &impl StepInput) -> Option<f64> {
        let mut acc: Option<f64> = None;
        for e in &self.exprs {
            let v = e.eval(input)?;
            acc = Some(match (acc, self.combine) {
                (None, _) => v,
                (Some(a), Combine::Max) => a.max(v),
                (Some(a), Combine::Mean) => a + v,
            });
        }
        let mut out = acc?;
        if self.combine == Combine::Mean && !self.exprs.is_empty() {
            out /= self.exprs.len() as f64;
        }
        if self.multiply_by_degree {
            out *= input.degree()?;
        }
        Some(out)
    }
}

/// One node of a lowered estimator expression.
#[derive(Debug, Clone)]
enum Slot<'a> {
    Const(f64),
    /// A name nothing resolved: the estimate is unavailable.
    Missing,
    Degree,
    Step,
    /// A per-node aggregate table, read at the current node.
    Aggregate(&'a [f32]),
    NodeScalar(&'a str, &'a str),
    Add(Box<Slot<'a>>, Box<Slot<'a>>),
    Sub(Box<Slot<'a>>, Box<Slot<'a>>),
    Mul(Box<Slot<'a>>, Box<Slot<'a>>),
    Div(Box<Slot<'a>>, Box<Slot<'a>>),
    Max(Box<Slot<'a>>, Box<Slot<'a>>),
    Min(Box<Slot<'a>>, Box<Slot<'a>>),
    Abs(Box<Slot<'a>>),
    Neg(Box<Slot<'a>>),
}

impl Slot<'_> {
    fn eval(&self, input: &impl StepInput) -> Option<f64> {
        let pair = |a: &Slot, b: &Slot| Some((a.eval(input)?, b.eval(input)?));
        match self {
            Slot::Const(v) => Some(*v),
            Slot::Missing => None,
            Slot::Degree => input.degree(),
            Slot::Step => input.step(),
            Slot::Aggregate(table) => table.get(input.cur()?).map(|&x| f64::from(x)),
            Slot::NodeScalar(array, index) => input.node_scalar(array, index),
            Slot::Add(a, b) => pair(a, b).map(|(a, b)| a + b),
            Slot::Sub(a, b) => pair(a, b).map(|(a, b)| a - b),
            Slot::Mul(a, b) => pair(a, b).map(|(a, b)| a * b),
            Slot::Div(a, b) => pair(a, b).map(|(a, b)| a / b),
            Slot::Max(a, b) => pair(a, b).map(|(a, b)| a.max(b)),
            Slot::Min(a, b) => pair(a, b).map(|(a, b)| a.min(b)),
            Slot::Abs(a) => a.eval(input).map(f64::abs),
            Slot::Neg(a) => a.eval(input).map(|a| -a),
        }
    }
}

fn lower_expr<'a>(
    e: &'a Expr,
    aggregate: &dyn Fn(&str, AggKind) -> Option<&'a [f32]>,
    hyperparam: &dyn Fn(&str) -> Option<f64>,
) -> Slot<'a> {
    let lower = |e: &'a Expr| Box::new(lower_expr(e, aggregate, hyperparam));
    match e {
        Expr::Num(n) => Slot::Const(*n),
        Expr::Var(v) => match v.as_str() {
            "deg" => Slot::Degree,
            "step" | "iter" => Slot::Step,
            other => hyperparam(other).map_or(Slot::Missing, Slot::Const),
        },
        Expr::Index { array, index } => {
            let Expr::Var(index) = &**index else {
                return Slot::Missing;
            };
            let table = if let Some(base) = array.strip_suffix("_MAX") {
                aggregate(base, AggKind::Max)
            } else if let Some(base) = array.strip_suffix("_SUM") {
                aggregate(base, AggKind::Sum)
            } else {
                return Slot::NodeScalar(array, index);
            };
            table.map_or(Slot::Missing, Slot::Aggregate)
        }
        Expr::Call { name, args } => match (name.as_str(), args.as_slice()) {
            ("max", [a, b]) => Slot::Max(lower(a), lower(b)),
            ("min", [a, b]) => Slot::Min(lower(a), lower(b)),
            ("abs", [a]) => Slot::Abs(lower(a)),
            _ => Slot::Missing,
        },
        Expr::Binary { op, lhs, rhs } => {
            use crate::ast::BinOp::*;
            match op {
                Add => Slot::Add(lower(lhs), lower(rhs)),
                Sub => Slot::Sub(lower(lhs), lower(rhs)),
                Mul => Slot::Mul(lower(lhs), lower(rhs)),
                Div => Slot::Div(lower(lhs), lower(rhs)),
                _ => Slot::Missing,
            }
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => Slot::Neg(lower(expr)),
            UnOp::Not => Slot::Missing,
        },
    }
}

fn render_source(
    program: &Program,
    preprocess: &[PreprocessRequest],
    max_est: &Estimator,
    sum_est: &Estimator,
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "// Generated by Flexi-Compiler from {}().\n",
        program.name
    ));
    s.push_str("preprocess(...) {\n");
    for r in preprocess {
        let suffix = match r.kind {
            AggKind::Max => "MAX",
            AggKind::Sum => "SUM",
        };
        s.push_str(&format!("    allocate_and_reduce({}_{suffix});\n", r.array));
    }
    s.push_str("}\n\n");
    s.push_str(&max_est.to_source("get_weight_max"));
    s.push('\n');
    s.push_str(&sum_est.to_source("get_weight_sum"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::enumerate_paths;
    use crate::parser::parse_program;
    use std::collections::HashMap;

    /// One-node walk state: every aggregate is a one-row table at node 0.
    struct TestEnv {
        aggregates: HashMap<(String, &'static str), f32>,
        scalars: HashMap<(String, String), f64>,
        vars: HashMap<String, f64>,
    }

    impl TestEnv {
        fn new() -> Self {
            Self {
                aggregates: HashMap::new(),
                scalars: HashMap::new(),
                vars: HashMap::new(),
            }
        }

        fn eval(&self, est: &Estimator) -> Option<f64> {
            let aggregate = |array: &str, kind: AggKind| {
                let k = match kind {
                    AggKind::Max => "max",
                    AggKind::Sum => "sum",
                };
                self.aggregates
                    .get(&(array.to_string(), k))
                    .map(std::slice::from_ref)
            };
            est.lower(&aggregate, &|name| self.vars.get(name).copied())
                .eval(self)
        }
    }

    impl StepInput for TestEnv {
        fn cur(&self) -> Option<usize> {
            Some(0)
        }
        fn degree(&self) -> Option<f64> {
            self.vars.get("deg").copied()
        }
        fn step(&self) -> Option<f64> {
            self.vars.get("step").copied()
        }
        fn node_scalar(&self, array: &str, index: &str) -> Option<f64> {
            self.scalars
                .get(&(array.to_string(), index.to_string()))
                .copied()
        }
    }

    fn compile_paths(src: &str, hyper: &[(&str, f64)]) -> CompiledWalk {
        let p = parse_program(src).unwrap();
        let hyper: Vec<(String, f64)> = hyper.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        let paths = enumerate_paths(&p, &hyper).unwrap();
        generate(&p, &paths, &hyper).expect("estimable")
    }

    const N2V: &str = r#"
        get_weight() {
            h_e = h[edge];
            post = adj[edge];
            if (post == prev) return h_e / a;
            else if (linked(prev, post)) return h_e;
            else return h_e / b;
        }
    "#;

    #[test]
    fn node2vec_max_estimator_matches_hand_derivation() {
        let c = compile_paths(N2V, &[("a", 2.0), ("b", 0.5)]);
        // max(h_MAX/2, h_MAX, h_MAX/0.5) with h_MAX = 7 → 14.
        let mut env = TestEnv::new();
        env.aggregates.insert(("h".into(), "max"), 7.0);
        env.aggregates.insert(("h".into(), "sum"), 20.0);
        assert_eq!(env.eval(&c.max_estimator), Some(14.0));
    }

    #[test]
    fn node2vec_sum_estimator_is_mean_of_paths() {
        let c = compile_paths(N2V, &[("a", 2.0), ("b", 0.5)]);
        let mut env = TestEnv::new();
        env.aggregates.insert(("h".into(), "max"), 7.0);
        env.aggregates.insert(("h".into(), "sum"), 21.0);
        // (21/2 + 21 + 21/0.5)/3 = (10.5 + 21 + 42)/3 = 24.5.
        assert_eq!(env.eval(&c.sum_estimator), Some(24.5));
    }

    #[test]
    fn node2vec_preprocess_requests_h_max_and_sum() {
        let c = compile_paths(N2V, &[("a", 2.0), ("b", 0.5)]);
        assert!(c.preprocess.contains(&PreprocessRequest {
            array: "h".into(),
            kind: AggKind::Max
        }));
        assert!(c.preprocess.contains(&PreprocessRequest {
            array: "h".into(),
            kind: AggKind::Sum
        }));
        assert_eq!(c.flag, BoundGranularity::PerStep);
    }

    #[test]
    fn per_kernel_sum_multiplies_by_degree() {
        let src = r#"
            get_weight() {
                post = adj[edge];
                if (post == prev) return 1.0 / a;
                else return 1.0;
            }
        "#;
        let c = compile_paths(src, &[("a", 2.0)]);
        assert_eq!(c.flag, BoundGranularity::PerKernel);
        assert!(c.sum_estimator.multiply_by_degree);
        let mut env = TestEnv::new();
        env.vars.insert("deg".into(), 10.0);
        // mean(0.5, 1.0) * 10 = 7.5.
        assert_eq!(env.eval(&c.sum_estimator), Some(7.5));
        // Max needs no runtime data at all.
        assert_eq!(env.eval(&c.max_estimator), Some(1.0));
    }

    #[test]
    fn node_scalars_resolve_through_env() {
        let src = r#"
            get_weight() {
                maxd = max(deg[cur], deg[prev]);
                h_e = h[edge];
                if (linked(prev, post)) return (1.0 - g) / deg[cur] * maxd * h_e;
                else return g / deg[cur] * maxd * h_e;
            }
        "#;
        let c = compile_paths(src, &[("g", 0.2)]);
        let mut env = TestEnv::new();
        env.aggregates.insert(("h".into(), "max"), 2.0);
        env.aggregates.insert(("h".into(), "sum"), 8.0);
        env.scalars.insert(("deg".into(), "cur".into()), 4.0);
        env.scalars.insert(("deg".into(), "prev".into()), 8.0);
        // Path 1: 0.8/4*8*2 = 3.2; path 2: 0.2/4*8*2 = 0.8 → max 3.2.
        let v = env.eval(&c.max_estimator).unwrap();
        assert!((v - 3.2).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn estimation_fails_gracefully_without_aggregates() {
        let c = compile_paths(N2V, &[("a", 2.0), ("b", 0.5)]);
        let env = TestEnv::new();
        assert_eq!(env.eval(&c.max_estimator), None);
    }

    #[test]
    fn boolean_returns_are_not_estimable() {
        let p = parse_program("f() { return x == 1; }").unwrap();
        let paths = enumerate_paths(&p, &[]).unwrap();
        assert!(generate(&p, &paths, &[]).is_none());
    }

    #[test]
    fn unknown_calls_in_returns_are_not_estimable() {
        let p = parse_program("f() { return linked(prev, post); }").unwrap();
        let paths = enumerate_paths(&p, &[]).unwrap();
        assert!(generate(&p, &paths, &[]).is_none());
    }

    #[test]
    fn generated_source_mentions_helpers() {
        let c = compile_paths(N2V, &[("a", 2.0), ("b", 0.5)]);
        assert!(c.generated_source.contains("preprocess"));
        assert!(c.generated_source.contains("get_weight_max"));
        assert!(c.generated_source.contains("get_weight_sum"));
        assert!(c.generated_source.contains("h_MAX"));
        assert!(c.generated_source.contains("h_SUM"));
    }
}
