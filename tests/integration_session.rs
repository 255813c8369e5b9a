//! The session API's contract: batch-split determinism, preparation
//! caching, and the pluggable-sampler registry round-trip.

use flexiwalker::prelude::*;
use flexiwalker::sampling::kernels::NeighborView;
use flexiwalker::sampling::{CostInputs, ScalarCost};
use std::sync::Arc;

fn graph() -> Csr {
    let g = gen::rmat(9, 4096, gen::RmatParams::SOCIAL, 123);
    WeightModel::UniformReal.apply(g, 123)
}

/// Paths of every query in submission order, concatenated.
fn all_paths(batches: Vec<(Ticket, Result<RunReport, EngineError>)>) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    for (_, r) in batches {
        out.extend(r.expect("run").paths.expect("recorded"));
    }
    out
}

#[test]
fn one_submit_equals_two_submits_with_same_seed() {
    // The headline batching guarantee: same seed ⇒ identical paths
    // regardless of how the query set is split across submissions (and
    // regardless of handle identity — only content and seed matter).
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..96).collect();

    let mut whole_session = FlexiWalker::builder().device(DeviceSpec::a6000()).build();
    let g = whole_session.load_graph(graph());
    whole_session.submit(
        WalkRequest::new(&g, &w, &queries)
            .steps(12)
            .record_paths(true),
    );
    let whole = all_paths(whole_session.drain());

    let mut split_session = FlexiWalker::builder().device(DeviceSpec::a6000()).build();
    let g = split_session.load_graph(graph());
    split_session.submit(
        WalkRequest::new(&g, &w, &queries[..32])
            .steps(12)
            .record_paths(true),
    );
    split_session.submit(
        WalkRequest::new(&g, &w, &queries[32..])
            .steps(12)
            .record_paths(true),
    );
    let split = all_paths(split_session.drain());

    assert_eq!(whole, split, "batch split changed walk paths");
}

#[test]
fn submits_can_interleave_with_drains() {
    // Draining between submissions must not change the cumulative query
    // stream either.
    let w = SecondOrderPr::paper();
    let queries: Vec<NodeId> = (0..48).collect();

    let mut batched = FlexiWalker::builder().build();
    let g = batched.load_graph(graph());
    batched.submit(
        WalkRequest::new(&g, &w, &queries)
            .steps(8)
            .record_paths(true),
    );
    let together = all_paths(batched.drain());

    let mut interleaved = FlexiWalker::builder().build();
    let g = interleaved.load_graph(graph());
    let mut collected = Vec::new();
    for chunk in queries.chunks(16) {
        interleaved.submit(WalkRequest::new(&g, &w, chunk).steps(8).record_paths(true));
        collected.extend(all_paths(interleaved.drain()));
    }
    assert_eq!(together, collected);
}

#[test]
fn session_caches_preparation_across_submissions() {
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..32).collect();
    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(graph());

    let first = session
        .run(WalkRequest::new(&g, &w, &queries).steps(6))
        .unwrap();
    assert!(first.profile_seconds > 0.0, "first run profiles");
    assert!(first.preprocess_seconds > 0.0, "first run preprocesses");

    let second = session
        .run(WalkRequest::new(&g, &w, &queries).steps(6))
        .unwrap();
    assert_eq!(second.profile_seconds, 0.0, "profile served from cache");
    assert_eq!(
        second.preprocess_seconds, 0.0,
        "aggregates served from cache"
    );

    // A different graph misses the cache again.
    let g2 = session
        .load_graph(WeightModel::UniformReal.apply(gen::rmat(8, 2048, gen::RmatParams::WEB, 9), 9));
    let third = session
        .run(WalkRequest::new(&g2, &w, &queries).steps(6))
        .unwrap();
    assert!(third.profile_seconds > 0.0, "new graph re-profiles");
    // Exactly one digest per loaded graph, however many drains ran.
    assert_eq!(session.stats().digests_computed, 2);
}

/// A deterministic linear-CDF strategy under a made-up id, priced to win
/// every selection — the "bring your own sampler" round-trip.
#[derive(Debug)]
struct TeleportSampler;

impl Sampler for TeleportSampler {
    fn id(&self) -> SamplerId {
        "teleport"
    }

    fn granularity(&self) -> Granularity {
        Granularity::Warp
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        Some(inp.deg * 1e-6)
    }

    fn sample_warp(
        &self,
        ctx: &mut flexiwalker::gpu_sim::WarpCtx,
        view: &NeighborView<'_>,
    ) -> Option<usize> {
        ctx.read_coalesced(view.deg * view.bytes_per_weight);
        let total: f64 = (0..view.deg)
            .map(|i| f64::from(view.weight(i).max(0.0)))
            .sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = ctx.draw_f64(0) * total;
        for i in 0..view.deg {
            let wi = f64::from(view.weight(i).max(0.0));
            if wi <= 0.0 {
                continue;
            }
            target -= wi;
            if target <= 0.0 {
                return Some(i);
            }
        }
        (0..view.deg).rev().find(|&i| view.weight(i) > 0.0)
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        _bound: Option<f32>,
        rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        flexiwalker::sampling::scalar::sample_linear_cdf(weights, &mut { rng })
    }
}

#[test]
fn registered_custom_sampler_is_selected_and_reported() {
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..64).collect();
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::a6000())
        .register_sampler(Arc::new(TeleportSampler))
        .build();
    let g = session.load_graph(graph());
    let csr = g.graph();
    assert!(session.engine().registry().contains("teleport"));

    let report = session
        .run(
            WalkRequest::new(&g, &w, &queries)
                .steps(10)
                .record_paths(true),
        )
        .unwrap();
    // Flexi-Runtime's cost model selected the third-party strategy, and the
    // report keys its steps by the custom id.
    assert!(
        report.sampler_steps.get("teleport") > 0,
        "custom sampler never selected: {}",
        report.sampler_steps
    );
    assert_eq!(report.sampler_steps.total(), report.steps_taken);
    // And the walks it produced are real walks.
    for path in report.paths.as_ref().unwrap() {
        for pair in path.windows(2) {
            assert!(csr.has_edge(pair[0], pair[1]));
        }
    }
}

#[test]
fn forced_custom_sampler_strategy_works_too() {
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..32).collect();
    let mut session = FlexiWalker::builder()
        .strategy(SelectionStrategy::Only("teleport"))
        .register_sampler(Arc::new(TeleportSampler))
        .build();
    let g = session.load_graph(graph());
    let report = session
        .run(WalkRequest::new(&g, &w, &queries).steps(8))
        .unwrap();
    assert_eq!(
        report.sampler_steps.get("teleport"),
        report.steps_taken,
        "Only(..) must route every step through the named sampler"
    );
}

#[test]
fn tickets_are_stable_handles() {
    let w = UniformWalk;
    let q1: Vec<NodeId> = (0..8).collect();
    let q2: Vec<NodeId> = (8..24).collect();
    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(graph());
    let t1 = session.submit(WalkRequest::new(&g, &w, &q1).steps(4));
    let t2 = session.submit(WalkRequest::new(&g, &w, &q2).steps(4));
    assert_ne!(t1, t2);
    assert_eq!(session.pending(), 2);
    let results = session.drain();
    assert_eq!(session.pending(), 0);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].0, t1);
    assert_eq!(results[1].0, t2);
    assert_eq!(results[0].1.as_ref().unwrap().queries, 8);
    assert_eq!(results[1].1.as_ref().unwrap().queries, 16);
}
