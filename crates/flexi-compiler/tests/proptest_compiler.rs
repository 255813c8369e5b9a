//! Property-style tests for Flexi-Compiler, driven by seeded sweeps:
//! randomly generated weight programs must (a) survive parse → analysis →
//! codegen, and (b) produce max estimators that soundly dominate every
//! interpreted weight.
//!
//! The original suite used an external property-testing harness; the
//! cases here are generated from a seeded [`SplitMix64`] so the workspace
//! builds offline with zero external dependencies.

use flexi_compiler::{
    compile, interpret, parse_program, AggKind, CompileOutcome, Estimator, InterpEnv, StepInput,
    WalkSpec,
};
use flexi_rng::SplitMix64;

const CASES: usize = 128;

fn rng() -> SplitMix64 {
    SplitMix64::new(0xC0DE_0000_0000_0011)
}

/// A randomly generated branchy `get_weight` whose returns are affine in
/// `h[edge]` — the analyzable fragment every real workload lives in.
#[derive(Debug, Clone)]
struct RandomProgram {
    /// Per-path (scale, offset): `return h[edge] * scale + offset;`.
    paths: Vec<(f64, f64)>,
}

impl RandomProgram {
    fn random(g: &mut SplitMix64) -> Self {
        let count = 1 + g.bounded(5) as usize;
        let paths = (0..count)
            .map(|_| {
                (
                    0.01 + (g.bounded(9990) as f64) / 1000.0,
                    (g.bounded(20_000) as f64) / 1000.0,
                )
            })
            .collect();
        Self { paths }
    }

    fn source(&self) -> String {
        let mut s = String::from("get_weight(edge) {\n    h_e = h[edge];\n");
        for (i, (scale, offset)) in self.paths.iter().enumerate() {
            let ret = format!("return h_e * {scale:.4} + {offset:.4};");
            if i == 0 && self.paths.len() > 1 {
                s.push_str(&format!("    if (cond == {i}) {ret}\n"));
            } else if i + 1 == self.paths.len() {
                if self.paths.len() > 1 {
                    s.push_str(&format!("    else {ret}\n"));
                } else {
                    s.push_str(&format!("    {ret}\n"));
                }
            } else {
                s.push_str(&format!("    else if (cond == {i}) {ret}\n"));
            }
        }
        s.push('}');
        s
    }
}

/// Edge properties are f32 in the graph and in the aggregate tables the
/// estimators read, so the generated values are f32-representable.
fn random_h(g: &mut SplitMix64) -> Vec<f64> {
    let len = 1 + g.bounded(39) as usize;
    (0..len)
        .map(|_| f64::from(g.bounded(100_000) as f32 / 1000.0))
        .collect()
}

struct Env {
    h: Vec<f64>,
    edge: usize,
    cond: f64,
}

impl InterpEnv for Env {
    fn var(&self, name: &str) -> Option<f64> {
        match name {
            "edge" => Some(self.edge as f64),
            "cond" => Some(self.cond),
            _ => None,
        }
    }
    fn index(&self, array: &str, index: f64) -> Option<f64> {
        (array == "h")
            .then(|| self.h.get(index as usize).copied())
            .flatten()
    }
    fn call(&self, _: &str, _: &[f64]) -> Option<f64> {
        None
    }
}

/// One-node aggregate tables for `h` and the node's degree.
struct AggEnv {
    h_max: [f32; 1],
    h_sum: [f32; 1],
    deg: f64,
}

impl AggEnv {
    fn new(h_max: f64, h_sum: f64, deg: f64) -> Self {
        Self {
            h_max: [h_max as f32],
            h_sum: [h_sum as f32],
            deg,
        }
    }

    fn eval(&self, est: &Estimator) -> Option<f64> {
        let aggregate = |array: &str, kind: AggKind| {
            (array == "h").then_some(match kind {
                AggKind::Max => &self.h_max[..],
                AggKind::Sum => &self.h_sum[..],
            })
        };
        est.lower(&aggregate, &|_| None).eval(self)
    }
}

impl StepInput for AggEnv {
    fn cur(&self) -> Option<usize> {
        Some(0)
    }
    fn degree(&self) -> Option<f64> {
        Some(self.deg)
    }
    fn step(&self) -> Option<f64> {
        None
    }
    fn node_scalar(&self, _: &str, _: &str) -> Option<f64> {
        None
    }
}

/// Soundness: the generated `get_weight_max` with `h → h_MAX` dominates
/// the interpreted weight of every edge under every branch condition.
#[test]
fn derived_bound_dominates_interpreted_weights() {
    let mut r = rng();
    for _ in 0..CASES {
        let prog = RandomProgram::random(&mut r);
        let h = random_h(&mut r);
        let spec = WalkSpec {
            source: prog.source(),
            hyperparams: vec![],
        };
        let compiled = match compile(&spec).unwrap() {
            CompileOutcome::Supported(c) => c,
            CompileOutcome::Fallback { warnings } => panic!("fallback: {warnings:?}"),
        };
        let h_max = h.iter().copied().fold(0.0f64, f64::max);
        let h_sum: f64 = h.iter().sum();
        let agg = AggEnv::new(h_max, h_sum, h.len() as f64);
        let bound = agg.eval(&compiled.max_estimator).expect("estimable");

        let parsed = parse_program(&spec.source).unwrap();
        for edge in 0..h.len() {
            for cond in 0..prog.paths.len() {
                let env = Env {
                    h: h.clone(),
                    edge,
                    cond: cond as f64,
                };
                let w = interpret(&parsed, &env).unwrap();
                assert!(
                    bound * (1.0 + 1e-9) >= w,
                    "bound {bound} < weight {w} (edge {edge}, cond {cond})"
                );
            }
        }
    }
}

/// The analysis enumerates exactly one path per return branch.
#[test]
fn path_enumeration_counts_branches() {
    let mut r = rng();
    for _ in 0..CASES {
        let prog = RandomProgram::random(&mut r);
        let spec = WalkSpec {
            source: prog.source(),
            hyperparams: vec![],
        };
        match compile(&spec).unwrap() {
            CompileOutcome::Supported(c) => {
                assert_eq!(c.paths.len(), prog.paths.len());
            }
            CompileOutcome::Fallback { .. } => panic!("unexpected fallback"),
        }
    }
}

/// Pretty-printed source re-parses to the same AST (printer fidelity).
#[test]
fn expression_printing_roundtrips() {
    let mut r = rng();
    for _ in 0..CASES {
        let prog = RandomProgram::random(&mut r);
        let parsed = parse_program(&prog.source()).unwrap();
        // Re-parse every pretty-printed return expression.
        let hyper: Vec<(String, f64)> = vec![];
        let paths = flexi_compiler::enumerate_paths(&parsed, &hyper).unwrap();
        for p in &paths {
            let printed = p.return_expr.to_source();
            let reparsed = flexi_compiler::parser::parse_expr(&printed).unwrap();
            assert_eq!(&reparsed, &p.return_expr, "printed: {printed}");
        }
    }
}

/// Hyperparameter folding: binding the scale as a hyperparameter and
/// writing it symbolically yields the same estimator value.
#[test]
fn hyperparameter_folding_is_transparent() {
    let mut r = rng();
    for _ in 0..CASES {
        let scale = 0.01 + (r.bounded(9990) as f64) / 1000.0;
        let h_max = 0.1 + (r.bounded(49_900) as f64) / 1000.0;
        let symbolic = WalkSpec {
            source: "get_weight(edge) { return h[edge] * k; }".into(),
            hyperparams: vec![("k".into(), scale)],
        };
        let literal = WalkSpec {
            source: format!("get_weight(edge) {{ return h[edge] * {scale}; }}"),
            hyperparams: vec![],
        };
        let eval = |spec: &WalkSpec| match compile(spec).unwrap() {
            CompileOutcome::Supported(c) => AggEnv::new(h_max, h_max, 1.0)
                .eval(&c.max_estimator)
                .unwrap(),
            CompileOutcome::Fallback { .. } => panic!("fallback"),
        };
        let a = eval(&symbolic);
        let b = eval(&literal);
        assert!((a - b).abs() < 1e-9 * (1.0 + a.abs()));
    }
}
