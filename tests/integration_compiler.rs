//! Integration of Flexi-Compiler with the runtime: generated estimators
//! must soundly bound the weights the engine actually computes, and the
//! fallback path must stay correct.

use flexiwalker::compiler::codegen::Combine;
use flexiwalker::compiler::{
    compile, AggKind, BinOp, BoundGranularity, CompileOutcome, Estimator, Expr, UnOp, WalkSpec,
};
use flexiwalker::core::preprocess::Aggregates;
use flexiwalker::core::runtime::{lower_estimator, RuntimeEnv};
use flexiwalker::prelude::*;
use flexiwalker::sampling::stat;

fn graph() -> Csr {
    let g = gen::rmat(9, 4096, gen::RmatParams::WEB, 31);
    WeightModel::Pareto { alpha: 1.5 }.apply(g, 31)
}

fn compiled_for(w: &dyn DynamicWalk) -> flexiwalker::compiler::CompiledWalk {
    match compile(&w.spec()).expect("parses") {
        CompileOutcome::Supported(c) => *c,
        CompileOutcome::Fallback { warnings } => panic!("unexpected fallback: {warnings:?}"),
    }
}

#[test]
fn bound_estimators_dominate_actual_weights_for_all_workloads() {
    let g = flexiwalker::graph::props::assign_uniform_labels(graph(), 5, 31);
    let workloads: Vec<Box<dyn DynamicWalk>> = vec![
        Box::new(Node2Vec::paper(true)),
        Box::new(Node2Vec::paper(false)),
        Box::new(MetaPath::paper(true)),
        Box::new(SecondOrderPr::paper()),
    ];
    for w in &workloads {
        let compiled = compiled_for(w.as_ref());
        let agg = Aggregates::compute(&g, &compiled.preprocess, &DeviceSpec::a6000());
        let max_estimator = lower_estimator(&compiled.max_estimator, &agg, w.as_ref());
        let mut checked = 0usize;
        for cur in (0..g.num_nodes() as u32).step_by(7) {
            if g.degree(cur) == 0 {
                continue;
            }
            for prev in [None, Some((cur + 1) % g.num_nodes() as u32)] {
                for step in [0usize, 1, 3] {
                    let state = WalkState {
                        cur,
                        prev,
                        step,
                        time: 0,
                    };
                    let env = RuntimeEnv {
                        graph: &g,
                        workload: w.as_ref(),
                        state,
                    };
                    let Some(bound) = max_estimator.eval(&env) else {
                        panic!("{}: estimator unavailable", w.name());
                    };
                    for e in g.edge_range(cur) {
                        let actual = f64::from(w.weight(&g, &state, e));
                        // Relative tolerance: estimator math is f64 over
                        // f32 inputs; the engine adds the same slack to the
                        // kernel bound (`rjs_bound`'s SLACK).
                        assert!(
                            bound * (1.0 + 1e-5) >= actual,
                            "{}: bound {bound} < weight {actual} at node {cur}",
                            w.name()
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "{}: too few checks ({checked})", w.name());
    }
}

#[test]
fn granularity_flags_match_paper_classification() {
    assert_eq!(
        compiled_for(&Node2Vec::paper(false)).flag,
        BoundGranularity::PerKernel,
        "unweighted Node2Vec needs a single estimation (paper §3.3)"
    );
    for w in [
        Box::new(Node2Vec::paper(true)) as Box<dyn DynamicWalk>,
        Box::new(MetaPath::paper(true)),
        Box::new(SecondOrderPr::paper()),
    ] {
        assert_eq!(
            compiled_for(w.as_ref()).flag,
            BoundGranularity::PerStep,
            "{} must re-estimate per step",
            w.name()
        );
    }
}

/// A workload whose DSL source Flexi-Compiler must reject (data-dependent
/// loop), exercising the engine's eRVS-only fallback end to end.
#[derive(Clone, Copy)]
struct HostileWorkload;

impl DynamicWalk for HostileWorkload {
    fn name(&self) -> &'static str {
        "hostile"
    }

    fn weight(&self, g: &Csr, _st: &WalkState, edge: usize) -> f32 {
        g.prop(edge)
    }

    fn spec(&self) -> WalkSpec {
        WalkSpec {
            source: "get_weight(edge) { x = 0; while (x < h[edge]) { x = x + 1; } return x; }"
                .to_string(),
            hyperparams: vec![],
        }
    }
}

#[test]
fn compiler_fallback_runs_ervs_only_and_stays_exact() {
    // Star with known weights (integer-valued so the hostile DSL loop and
    // the Rust weight agree): distribution must still be exact.
    let weights = [2.0f32, 4.0, 1.0, 3.0];
    let mut b = CsrBuilder::new(5);
    for (i, &w) in weights.iter().enumerate() {
        b.push_weighted(0, (i + 1) as u32, w);
    }
    let g = b.build().unwrap();
    let engine = FlexiWalkerEngine::new(DeviceSpec::a6000());
    let mut counts = vec![0u64; weights.len()];
    let mut saw_fallback_warning = false;
    for seed in 0..4000u64 {
        let cfg = WalkConfig {
            steps: 1,
            record_paths: true,
            seed,
            ..WalkConfig::default()
        };
        let report = engine
            .run(&WalkRequest::new(g.clone(), &HostileWorkload, &[0]).with_config(cfg))
            .expect("run");
        saw_fallback_warning |= report
            .warnings
            .iter()
            .any(|w| w.contains("no usable bound estimator"));
        assert_eq!(
            report.sampler_steps.get(sampler_ids::ERJS),
            0,
            "fallback must never select eRJS"
        );
        let path = &report.paths.as_ref().unwrap()[0];
        counts[(path[1] - 1) as usize] += 1;
    }
    assert!(saw_fallback_warning, "fallback warning not surfaced");
    stat::assert_matches_distribution(&counts, &stat::normalize(&weights), "fallback");
}

#[test]
fn generated_helpers_render_like_fig9d() {
    let c = compiled_for(&Node2Vec::paper(true));
    let src = &c.generated_source;
    assert!(src.contains("preprocess"), "missing preprocess(): {src}");
    assert!(src.contains("h_MAX"), "missing h_MAX rebinding: {src}");
    assert!(src.contains("h_SUM"), "missing h_SUM rebinding: {src}");
    assert!(src.contains("get_weight_max"), "missing max helper: {src}");
    assert!(src.contains("get_weight_sum"), "missing sum helper: {src}");
}

/// The string-keyed evaluator the estimators had before lowering: every
/// name resolves at every step, and `env = None` means no walk state. It
/// is the reference the lowered form must match bit for bit.
fn reference_eval(est: &Estimator, agg: &Aggregates, env: Option<&RuntimeEnv<'_>>) -> Option<f64> {
    let mut acc: Option<f64> = None;
    for e in &est.exprs {
        let v = reference_expr(e, agg, env)?;
        acc = Some(match (acc, est.combine) {
            (None, _) => v,
            (Some(a), Combine::Max) => a.max(v),
            (Some(a), Combine::Mean) => a + v,
        });
    }
    let mut out = acc?;
    if est.combine == Combine::Mean && !est.exprs.is_empty() {
        out /= est.exprs.len() as f64;
    }
    if est.multiply_by_degree {
        out *= reference_var("deg", env)?;
    }
    Some(out)
}

fn reference_var(name: &str, env: Option<&RuntimeEnv<'_>>) -> Option<f64> {
    let env = env?;
    match name {
        "deg" => Some(env.graph.degree(env.state.cur) as f64),
        "step" | "iter" => Some(env.state.step as f64),
        other => env.workload.hyperparam(other),
    }
}

fn reference_expr(e: &Expr, agg: &Aggregates, env: Option<&RuntimeEnv<'_>>) -> Option<f64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Var(v) => reference_var(v, env),
        Expr::Index { array, index } => {
            let Expr::Var(idx) = &**index else {
                return None;
            };
            let env = env?;
            let read = |base: &str, kind| {
                let x = agg.table(base, kind)?.get(env.state.cur as usize)?;
                Some(f64::from(*x))
            };
            if let Some(base) = array.strip_suffix("_MAX") {
                read(base, AggKind::Max)
            } else if let Some(base) = array.strip_suffix("_SUM") {
                read(base, AggKind::Sum)
            } else {
                env.workload.env_scalar(env.graph, &env.state, array, idx)
            }
        }
        Expr::Call { name, args } => {
            let vals: Option<Vec<f64>> = args.iter().map(|a| reference_expr(a, agg, env)).collect();
            match (name.as_str(), vals?.as_slice()) {
                ("max", [a, b]) => Some(a.max(*b)),
                ("min", [a, b]) => Some(a.min(*b)),
                ("abs", [a]) => Some(a.abs()),
                _ => None,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let a = reference_expr(lhs, agg, env)?;
            let b = reference_expr(rhs, agg, env)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => return None,
            })
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Neg => Some(-reference_expr(expr, agg, env)?),
            UnOp::Not => None,
        },
    }
}

/// A native walker whose spec reads a hyperparameter it never binds.
struct UnsetHyperparam;

impl DynamicWalk for UnsetHyperparam {
    fn name(&self) -> &str {
        "unset_hyperparam"
    }
    fn weight(&self, g: &Csr, _: &WalkState, edge: flexiwalker::graph::EdgeId) -> f32 {
        g.prop(edge)
    }
    fn spec(&self) -> WalkSpec {
        WalkSpec {
            source: "get_weight(edge) { return h[edge] * q; }".into(),
            hyperparams: vec![],
        }
    }
}

/// Lowered estimators equal the string-keyed reference bit for bit, and
/// are `None` exactly where it is, on random nodes and walk states.
#[test]
fn lowered_estimators_match_the_string_keyed_reference_bitwise() {
    let g = gen::rmat(7, 1024, gen::RmatParams::SOCIAL, 5);
    let g = flexiwalker::graph::props::assign_uniform_labels(
        WeightModel::UniformReal.apply(g, 5),
        5,
        5,
    );
    let times: Vec<u64> = (0..g.num_edges() as u64).map(|e| e * 37 % 100).collect();
    let g = g.with_times(times).unwrap();
    let n = g.num_nodes() as u32;
    assert!((0..n).any(|v| g.degree(v) == 0), "sinks are covered");

    let mut defs: Vec<WalkerDef> = WalkerRegistry::builtin()
        .iter()
        .chain(WalkerRegistry::builtin_dsl().iter())
        .cloned()
        .collect();
    defs.push(WalkerDef::native("n2v_unweighted", Node2Vec::paper(false)));
    defs.push(WalkerDef::native("mp_unweighted", MetaPath::paper(false)));
    defs.push(
        WalkerDef::dsl(
            "mixed",
            "get_weight(edge) {
                h_e = h[edge];
                if (has_prev == 0) return abs(0.0 - h_e) * s;
                if (label[edge] == schema[step]) return max(h_e, deg[prev]) / deg[cur];
                return min(h_e * s, -h_e + deg[prev]) - abs(s - h_e);
            }",
        )
        .hyperparam("s", 1.5)
        .array("schema", vec![0.0, 2.0, 4.0]),
    );
    defs.push(WalkerDef::dsl(
        "per_kernel",
        "get_weight(edge) { if (adj[edge] == prev) return 0.5; return -(1.0 - 3.0); }",
    ));
    defs.push(WalkerDef::native("unset_hyperparam", UnsetHyperparam));
    defs.push(WalkerDef::dsl(
        "no_aggregate",
        "get_weight(edge) { return adj[edge] + h[edge]; }",
    ));

    let mut rng = flexiwalker::rng::SplitMix64::new(0x5EED_0010_4E5E);
    let mut some = 0usize;
    let mut unavailable = std::collections::BTreeSet::new();
    for def in &defs {
        let cw = def.lower().expect("lowers");
        let Some(c) = cw.artifacts().compiled.as_ref() else {
            continue; // Reservoir-only fallback: nothing to lower.
        };
        let w = cw.walk_dyn();
        let agg = Aggregates::compute(&g, &c.preprocess, &DeviceSpec::tiny());
        let lowered = [
            (&c.max_estimator, lower_estimator(&c.max_estimator, &agg, w)),
            (&c.sum_estimator, lower_estimator(&c.sum_estimator, &agg, w)),
        ];
        // The static bound evaluates with no walk state at all.
        assert_eq!(
            cw.static_bound().map(f32::to_bits),
            (c.flag == BoundGranularity::PerKernel)
                .then(|| reference_eval(&c.max_estimator, &agg, None))
                .flatten()
                .map(|b| (b as f32).to_bits()),
            "{}: static bound",
            def.name()
        );
        for i in 0..300 {
            let cur = rng.bounded(u64::from(n)) as u32;
            let state = WalkState {
                cur,
                // Every fourth state is a first step.
                prev: (i % 4 != 0).then(|| rng.bounded(u64::from(n)) as u32),
                step: if i % 4 == 0 {
                    0
                } else {
                    rng.bounded(12) as usize
                },
                time: rng.bounded(100),
            };
            let env = RuntimeEnv {
                graph: &g,
                workload: w,
                state,
            };
            for (est, low) in &lowered {
                let want = reference_eval(est, &agg, Some(&env));
                let got = low.eval(&env);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{}: {} at {state:?}",
                    def.name(),
                    est.to_source("estimator")
                );
                if want.is_some() {
                    some += 1;
                } else {
                    unavailable.insert(def.name().to_string());
                }
            }
        }
    }
    assert!(some > 5_000, "only {some} estimates were available");
    // `temporal_linear` reads `edge_time`, which no estimator resolves.
    assert_eq!(
        unavailable.into_iter().collect::<Vec<_>>(),
        ["no_aggregate", "temporal_linear", "unset_hyperparam"]
    );
}
