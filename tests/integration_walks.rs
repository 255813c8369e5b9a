//! Cross-crate integration: every engine × every workload produces valid,
//! correctly distributed walks, all through the `WalkRequest` API.

use flexiwalker::baselines::{
    CSawGpu, CpuSpec, FlowWalkerGpu, KnightKingCpu, NextDoorGpu, SkywalkerGpu, SoWalkerCpu,
    ThunderRwCpu,
};
use flexiwalker::core::multi_device::MultiDeviceEngine;
use flexiwalker::core::partitioned::PartitionedEngine;
use flexiwalker::prelude::*;
use flexiwalker::sampling::stat;

fn all_engines() -> Vec<Box<dyn WalkEngine>> {
    let spec = DeviceSpec::a6000();
    vec![
        Box::new(FlexiWalkerEngine::new(spec.clone())),
        Box::new(CSawGpu::new(spec.clone())),
        Box::new(NextDoorGpu::new(spec.clone())),
        Box::new(SkywalkerGpu::new(spec.clone())),
        Box::new(FlowWalkerGpu::new(spec)),
        Box::new(ThunderRwCpu::new(CpuSpec::epyc_9124p())),
        Box::new(SoWalkerCpu::new(CpuSpec::epyc_9124p())),
        Box::new(KnightKingCpu::new(CpuSpec::epyc_9124p())),
    ]
}

fn workloads() -> Vec<std::sync::Arc<dyn DynamicWalk>> {
    vec![
        std::sync::Arc::new(Node2Vec::paper(true)),
        std::sync::Arc::new(Node2Vec::paper(false)),
        std::sync::Arc::new(MetaPath::paper(true)),
        std::sync::Arc::new(MetaPath::paper(false)),
        std::sync::Arc::new(SecondOrderPr::paper()),
        std::sync::Arc::new(UniformWalk),
    ]
}

fn test_graph() -> Csr {
    let g = gen::rmat(9, 4096, gen::RmatParams::SOCIAL, 77);
    let g = WeightModel::UniformReal.apply(g, 77);
    flexiwalker::graph::props::assign_uniform_labels(g, 5, 77)
}

fn run(
    engine: &dyn WalkEngine,
    g: &Csr,
    w: impl IntoWalker,
    queries: &[NodeId],
    cfg: &WalkConfig,
) -> Result<RunReport, EngineError> {
    engine.run(&WalkRequest::new(g.clone(), w, queries).with_config(cfg.clone()))
}

#[test]
fn every_engine_runs_every_workload_with_valid_edges() {
    let g = test_graph();
    let queries: Vec<NodeId> = (0..64).collect();
    let cfg = WalkConfig {
        steps: 12,
        record_paths: true,
        ..WalkConfig::default()
    };
    for engine in all_engines() {
        for w in workloads() {
            let report = run(engine.as_ref(), &g, w.clone(), &queries, &cfg)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", engine.name(), w.name()));
            assert_eq!(report.queries, 64, "{} {}", engine.name(), w.name());
            // Tallies count sampling attempts: every advancing step plus at
            // most one dead-end attempt per query.
            let tally = report.sampler_steps.total();
            assert!(
                tally >= report.steps_taken && tally <= report.steps_taken + 64,
                "{} {}: tallies {tally} inconsistent with {} steps",
                engine.name(),
                w.name(),
                report.steps_taken
            );
            let paths = report.paths.as_ref().expect("recorded");
            for path in paths {
                for pair in path.windows(2) {
                    assert!(
                        g.has_edge(pair[0], pair[1]),
                        "{} walked non-edge {}->{} under {}",
                        engine.name(),
                        pair[0],
                        pair[1],
                        w.name()
                    );
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_single_step_distribution() {
    // One star node with known weights: every engine must draw the next
    // node from the exact w̃/Σw̃ distribution. This is the cross-system
    // correctness anchor: adaptive selection, estimator bounds, kernel
    // optimisations — none may bend the sampled distribution.
    let weights = [5.0f32, 1.0, 3.0, 2.0, 4.0];
    let mut b = CsrBuilder::new(6);
    for (i, &w) in weights.iter().enumerate() {
        b.push_weighted(0, (i + 1) as u32, w);
    }
    let g = b.build().unwrap();
    let probs = stat::normalize(&weights);
    let cfg_base = WalkConfig {
        steps: 1,
        record_paths: true,
        ..WalkConfig::default()
    };
    for engine in all_engines() {
        let mut counts = vec![0u64; weights.len()];
        for seed in 0..4000u64 {
            let mut cfg = cfg_base.clone();
            cfg.seed = seed;
            let report = run(engine.as_ref(), &g, &UniformWalk, &[0], &cfg).expect("run");
            let path = &report.paths.as_ref().unwrap()[0];
            assert_eq!(path.len(), 2, "{}", engine.name());
            counts[(path[1] - 1) as usize] += 1;
        }
        stat::assert_matches_distribution(&counts, &probs, engine.name());
    }
}

#[test]
fn node2vec_respects_return_parameter() {
    // Path graph 0 <-> 1 with an extra neighbor: with a huge return
    // parameter `a`, revisiting the previous node becomes rare.
    let mut b = CsrBuilder::new(3);
    b.push_weighted(0, 1, 1.0);
    b.push_weighted(1, 0, 1.0);
    b.push_weighted(1, 2, 1.0);
    b.push_weighted(2, 1, 1.0);
    let g = b.build().unwrap();
    let w = Node2Vec {
        a: 1000.0,
        b: 1.0,
        weighted: true,
    };
    let engine = FlexiWalkerEngine::new(DeviceSpec::a6000());
    let mut returns = 0u32;
    let mut total = 0u32;
    for seed in 0..800u64 {
        let cfg = WalkConfig {
            steps: 2,
            record_paths: true,
            seed,
            ..WalkConfig::default()
        };
        let report = run(&engine, &g, &w, &[0], &cfg).expect("run");
        let path = &report.paths.as_ref().unwrap()[0];
        // Step 1: 0 -> 1 (only option). Step 2: 1 -> {0 (return), 2}.
        if path.len() == 3 {
            total += 1;
            if path[2] == 0 {
                returns += 1;
            }
        }
    }
    assert!(total > 700);
    // P(return) = (1/1000) / (1/1000 + 1/b=1) ≈ 0.1%.
    assert!(
        returns < total / 50,
        "{returns}/{total} returns with a=1000 — return parameter ignored?"
    );
}

#[test]
fn metapath_dead_ends_terminate_cleanly_everywhere() {
    // All edges labeled 9 but the schema wants 0: every walk must stop at
    // its start node without panicking, in every engine.
    let g = gen::cycle(16);
    let g = g.with_labels(vec![9; 16]).unwrap();
    let w = MetaPath {
        schema: vec![0],
        weighted: false,
    };
    let queries: Vec<NodeId> = (0..16).collect();
    let cfg = WalkConfig {
        steps: 4,
        record_paths: true,
        ..WalkConfig::default()
    };
    for engine in all_engines() {
        let report = run(engine.as_ref(), &g, &w, &queries, &cfg).expect("run");
        for path in report.paths.as_ref().unwrap() {
            assert_eq!(path.len(), 1, "{} advanced into a dead end", engine.name());
        }
        assert_eq!(report.steps_taken, 0, "{}", engine.name());
    }
}

#[test]
fn flexiwalker_beats_gpu_baselines_on_weighted_workloads() {
    // The headline Table 2 ordering at integration scale.
    let g = test_graph();
    let queries: Vec<NodeId> = (0..128).collect();
    let cfg = WalkConfig {
        steps: 20,
        ..WalkConfig::default()
    };
    let w = Node2Vec::paper(true);
    let spec = DeviceSpec::a6000();
    let flexi = run(
        &FlexiWalkerEngine::new(spec.clone()),
        &g,
        &w,
        &queries,
        &cfg,
    )
    .unwrap();
    for engine in [
        Box::new(CSawGpu::new(spec.clone())) as Box<dyn WalkEngine>,
        Box::new(SkywalkerGpu::new(spec.clone())),
        Box::new(FlowWalkerGpu::new(spec)),
    ] {
        let r = run(engine.as_ref(), &g, &w, &queries, &cfg).unwrap();
        assert!(
            flexi.saturated_seconds < r.saturated_seconds,
            "FlexiWalker ({}) not faster than {} ({})",
            flexi.saturated_seconds,
            engine.name(),
            r.saturated_seconds
        );
    }
}

#[test]
fn every_engine_honours_time_windows_and_the_walk_clock_or_refuses() {
    // rmat(9) with duplicate (u, v) pairs dropped, so each hop names one
    // edge and its timestamp; times spread over [0, 100).
    let base = test_graph();
    let mut b = CsrBuilder::new(base.num_nodes());
    for u in 0..base.num_nodes() as NodeId {
        let mut last = None;
        for e in base.edge_range(u) {
            let v = base.edge_target(e);
            if last != Some(v) {
                b.push_timestamped(u, v, base.prop(e), (e as u64 * 7919) % 100);
                last = Some(v);
            }
        }
    }
    let g = b.build().unwrap();
    let spec = DeviceSpec::a6000();
    let engines: Vec<Box<dyn WalkEngine>> = all_engines()
        .into_iter()
        .chain([
            Box::new(MultiDeviceEngine::new(spec.clone(), 2)) as Box<dyn WalkEngine>,
            Box::new(PartitionedEngine::new(spec, 2)),
        ])
        .collect();
    let queries: Vec<NodeId> = (0..64).collect();
    let cfg = WalkConfig {
        steps: 10,
        record_paths: true,
        ..WalkConfig::default()
    };
    let window = TimeWindow::new(20, 80);
    let timed: std::sync::Arc<dyn DynamicWalk> = std::sync::Arc::new(TemporalUniform);
    let untimed: std::sync::Arc<dyn DynamicWalk> = std::sync::Arc::new(UniformWalk);
    for engine in &engines {
        for (walker, reads_clock, window) in [
            (&timed, true, Some(window)),
            (&untimed, false, Some(window)),
            (&timed, true, None),
            (&untimed, false, None),
        ] {
            let mut req =
                WalkRequest::new(g.clone(), walker.clone(), &queries[..]).with_config(cfg.clone());
            if let Some(w) = window {
                req = req.window(w);
            }
            let what = format!("{} / {} / {window:?}", engine.name(), walker.name());
            let report = match engine.run(&req) {
                Ok(r) => r,
                Err(EngineError::Unsupported(_)) if window.is_some() || reads_clock => continue,
                Err(e) => panic!("{what}: {e}"),
            };
            assert!(report.steps_taken > 0, "{what}: walked nothing");
            let mut bad = 0;
            for path in report
                .paths
                .as_ref()
                .unwrap_or_else(|| panic!("{what}: no paths"))
            {
                let mut clock = window.map_or(0, |w| w.t0);
                for hop in path.windows(2) {
                    let e = g
                        .edge_range(hop[0])
                        .find(|&e| g.edge_target(e) == hop[1])
                        .unwrap_or_else(|| panic!("{what}: non-edge {hop:?}"));
                    let t = g.time(e);
                    if window.is_some_and(|w| !w.contains(t)) || (reads_clock && t < clock) {
                        bad += 1;
                    }
                    clock = t;
                }
            }
            assert_eq!(
                bad, 0,
                "{what}: hops outside the window or behind the clock"
            );
        }
    }
}
