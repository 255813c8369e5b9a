//! End-to-end dynamic-graph support (§7.2 extension): walk → mutate →
//! refresh aggregates → walk again, with the eRJS bound staying sound
//! throughout.

use flexiwalker::compiler::{compile, CompileOutcome};
use flexiwalker::core::preprocess::Aggregates;
use flexiwalker::core::runtime::{lower_estimator, RuntimeEnv};
use flexiwalker::graph::dynamic::{DynamicGraph, GraphUpdate};
use flexiwalker::prelude::*;
use flexiwalker::sampling::stat;

#[test]
fn bound_stays_sound_across_updates_and_refreshes() {
    let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 17);
    let g = WeightModel::UniformReal.apply(g, 17);
    let w = Node2Vec::paper(true);
    let compiled = match compile(&w.spec()).unwrap() {
        CompileOutcome::Supported(c) => c,
        _ => panic!("node2vec compiles"),
    };
    let mut agg = Aggregates::compute(&g, &compiled.preprocess, &DeviceSpec::a6000());
    let mut dg = DynamicGraph::new(g);

    let mut rng = flexiwalker::rng::SplitMix64::new(99);
    for round in 0..20 {
        // Mutate: crank random edge weights up hard (the exact case §7.1
        // says breaks stale preprocessed maxima).
        for _ in 0..5 {
            let e = rng.bounded(dg.graph().num_edges() as u64) as usize;
            dg.set_weight(e, 5.0 + (round as f32) * 10.0);
        }
        // Structural churn too.
        let src = rng.bounded(dg.graph().num_nodes() as u64) as u32;
        let dst = rng.bounded(dg.graph().num_nodes() as u64) as u32;
        dg.queue(GraphUpdate::AddEdge {
            src,
            dst,
            weight: 100.0 + round as f32,
            label: 0,
        });
        dg.commit().unwrap();

        // Refresh exactly the dirty nodes.
        let dirty = dg.take_dirty_nodes();
        assert!(!dirty.is_empty());
        agg.refresh_nodes(dg.graph(), &dirty);

        // Soundness: the estimator bound dominates every actual weight.
        let g = dg.graph();
        let max_estimator = lower_estimator(&compiled.max_estimator, &agg, &w);
        for cur in (0..g.num_nodes() as u32).step_by(13) {
            if g.degree(cur) == 0 {
                continue;
            }
            let state = WalkState {
                cur,
                prev: Some((cur + 1) % g.num_nodes() as u32),
                step: 1,
                time: 0,
            };
            let env = RuntimeEnv {
                graph: g,
                workload: &w,
                state,
            };
            let bound = max_estimator.eval(&env).expect("estimable");
            for e in g.edge_range(cur) {
                let actual = f64::from(w.weight(g, &state, e));
                assert!(
                    bound * (1.0 + 1e-5) >= actual,
                    "round {round}: stale bound {bound} < {actual} at {cur}"
                );
            }
        }
    }
}

#[test]
fn stale_aggregates_are_actually_stale_without_refresh() {
    // Negative control: skipping the refresh must leave a violated bound,
    // proving the refresh test above is load-bearing.
    let g = CsrBuilder::new(2)
        .weighted_edge(0, 1, 1.0)
        .weighted_edge(1, 0, 1.0)
        .build()
        .unwrap();
    let w = Node2Vec::paper(true);
    let compiled = match compile(&w.spec()).unwrap() {
        CompileOutcome::Supported(c) => c,
        _ => panic!("compiles"),
    };
    let agg = Aggregates::compute(&g, &compiled.preprocess, &DeviceSpec::a6000());
    let mut dg = DynamicGraph::new(g);
    dg.set_weight(0, 1000.0);
    let state = WalkState {
        cur: 0,
        prev: Some(1),
        step: 1,
        time: 0,
    };
    let env = RuntimeEnv {
        graph: dg.graph(),
        workload: &w,
        state,
    };
    let stale_bound = lower_estimator(&compiled.max_estimator, &agg, &w)
        .eval(&env)
        .unwrap();
    let actual = f64::from(w.weight(dg.graph(), &state, 0));
    assert!(
        stale_bound < actual,
        "expected staleness: bound {stale_bound} vs {actual}"
    );
}

#[test]
fn walks_on_updated_graph_follow_new_distribution() {
    // Star 0 -> {1, 2}: start with equal weights, then boost edge 0->2 to
    // 9x and verify walks redistribute accordingly after refresh.
    let g = CsrBuilder::new(3)
        .weighted_edge(0, 1, 1.0)
        .weighted_edge(0, 2, 1.0)
        .build()
        .unwrap();
    let mut dg = DynamicGraph::new(g);
    dg.set_weight(1, 9.0); // Edge 0 -> 2.
    let g = dg.graph();
    let engine = FlexiWalkerEngine::new(DeviceSpec::a6000());
    let mut counts = [0u64; 2];
    for seed in 0..3000u64 {
        let cfg = WalkConfig {
            steps: 1,
            record_paths: true,
            seed,
            ..WalkConfig::default()
        };
        let r = engine
            .run(&WalkRequest::new(g.clone(), &UniformWalk, &[0]).with_config(cfg))
            .unwrap();
        counts[(r.paths.as_ref().unwrap()[0][1] - 1) as usize] += 1;
    }
    stat::assert_matches_distribution(&counts, &[0.1, 0.9], "post-update walks");
}

/// Builds the deterministic update batch for one round of the interleaved
/// schedule below.
fn schedule_batch(round: u64, num_nodes: u32, num_edges: usize) -> Vec<GraphUpdate> {
    let mut rng = flexiwalker::rng::SplitMix64::new(0xBA7C_0000 + round);
    let mut batch = Vec::new();
    for _ in 0..3 {
        batch.push(GraphUpdate::SetWeight {
            edge: rng.bounded(num_edges as u64) as usize,
            weight: 1.0 + rng.bounded(900) as f32 / 100.0,
        });
    }
    if round % 2 == 1 {
        batch.push(GraphUpdate::AddEdge {
            src: rng.bounded(u64::from(num_nodes)) as u32,
            dst: rng.bounded(u64::from(num_nodes)) as u32,
            weight: 2.0 + round as f32,
            label: 0,
        });
    }
    batch
}

#[test]
fn interleaved_update_schedule_replays_identically() {
    // Epoch-keyed determinism: N drains interleaved with M update batches
    // on one handle must produce exactly the paths of the same schedule
    // replayed on a fresh session — including a replay that reloads the
    // graph at every epoch (full rebuild instead of incremental refresh),
    // which proves the migrated caches are bit-equivalent to rebuilt ones.
    let base = || {
        let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 23);
        WeightModel::UniformReal.apply(g, 23)
    };
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..48).collect();
    const ROUNDS: u64 = 4;

    // Schedule A: one handle, incremental cache migration.
    let run_incremental = || {
        let mut session = FlexiWalker::builder().build();
        let g = session.load_graph(base());
        let mut per_round = Vec::new();
        for round in 0..ROUNDS {
            let report = session
                .run(
                    WalkRequest::new(&g, &w, &queries)
                        .steps(10)
                        .record_paths(true),
                )
                .unwrap();
            assert_eq!(report.graph_version.epoch, round);
            per_round.push(report.paths.unwrap());
            let csr = g.graph();
            session
                .apply_updates(
                    &g,
                    &schedule_batch(round, csr.num_nodes() as u32, csr.num_edges()),
                )
                .unwrap();
        }
        (per_round, session.stats())
    };
    let (a, stats_a) = run_incremental();
    let (b, _) = run_incremental();
    assert_eq!(a, b, "identical schedules must replay identically");
    assert_eq!(stats_a.digests_computed, 1, "one digest for the whole run");
    assert_eq!(
        stats_a.aggregates_built, 1,
        "only the first drain builds aggregates from scratch"
    );
    assert_eq!(
        stats_a.aggregates_refreshed, ROUNDS,
        "one migration per batch"
    );

    // Schedule B: a fresh session that reloads the evolved graph at every
    // epoch — every drain pays a full digest + full aggregate rebuild. The
    // query cursor is kept in lockstep by submitting the same stream.
    let evolving = GraphHandle::new(base());
    let mut c = Vec::new();
    let mut fresh = FlexiWalker::builder().build();
    for round in 0..ROUNDS {
        let snapshot = fresh.load_graph((*evolving.graph()).clone());
        let report = fresh
            .run(
                WalkRequest::new(&snapshot, &w, &queries)
                    .steps(10)
                    .record_paths(true),
            )
            .unwrap();
        c.push(report.paths.unwrap());
        let csr = evolving.graph();
        evolving
            .apply_updates(&schedule_batch(
                round,
                csr.num_nodes() as u32,
                csr.num_edges(),
            ))
            .unwrap();
    }
    assert_eq!(a, c, "incremental serving diverged from full rebuilds");
}

#[test]
fn post_update_walks_traverse_newly_inserted_edges() {
    // Node 0 starts with a single feeble out-edge; a live insertion of a
    // dominant edge must show up in served walks immediately.
    let g = CsrBuilder::new(3)
        .weighted_edge(0, 1, 0.001)
        .weighted_edge(1, 0, 1.0)
        .weighted_edge(2, 0, 1.0)
        .build()
        .unwrap();
    let w = UniformWalk;
    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(g);

    let before = session
        .run(WalkRequest::new(&g, &w, &[0]).steps(1).record_paths(true))
        .unwrap();
    assert_eq!(before.paths.as_ref().unwrap()[0], vec![0, 1]);

    let outcome = session
        .apply_updates(
            &g,
            &[GraphUpdate::AddEdge {
                src: 0,
                dst: 2,
                weight: 10_000.0,
                label: 0,
            }],
        )
        .unwrap();
    assert_eq!(outcome.version.epoch, 1);

    let mut crossed = 0;
    for seed in 0..50u64 {
        let r = session
            .run(
                WalkRequest::new(&g, &w, &[0])
                    .steps(1)
                    .seed(seed)
                    .record_paths(true),
            )
            .unwrap();
        assert_eq!(r.graph_version.epoch, 1);
        if r.paths.as_ref().unwrap()[0] == vec![0, 2] {
            crossed += 1;
        }
    }
    assert!(
        crossed >= 45,
        "inserted dominant edge taken only {crossed}/50 times"
    );
}

#[test]
fn incremental_refresh_touches_only_the_dirty_frontier() {
    // A K-node dirty batch must recompute exactly K aggregates — not all
    // N nodes — and the post-update drain must serve from the migrated
    // cache instead of rebuilding.
    let g = gen::rmat(9, 8192, gen::RmatParams::SOCIAL, 31);
    let g = WeightModel::UniformReal.apply(g, 31);
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..32).collect();

    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(g);
    session
        .run(WalkRequest::new(&g, &w, &queries).steps(5))
        .unwrap();
    assert_eq!(session.stats().aggregates_built, 1);
    assert_eq!(session.stats().aggregate_nodes_refreshed, 0);

    // Touch edges out of three distinct source nodes.
    let csr = g.graph();
    let e0 = csr.edge_range(0).start;
    let e1 = csr.edge_range(1).start;
    let e2 = csr.edge_range(2).start;
    let outcome = session
        .apply_updates(
            &g,
            &[
                GraphUpdate::SetWeight {
                    edge: e0,
                    weight: 9.0,
                },
                GraphUpdate::SetWeight {
                    edge: e1,
                    weight: 9.0,
                },
                GraphUpdate::SetWeight {
                    edge: e2,
                    weight: 9.0,
                },
            ],
        )
        .unwrap();
    let k = outcome.dirty_nodes.len() as u64;
    assert_eq!(k, 3);
    assert_eq!(
        session.stats().aggregate_nodes_refreshed,
        k,
        "refresh must be proportional to the dirty frontier"
    );

    session
        .run(WalkRequest::new(&g, &w, &queries).steps(5))
        .unwrap();
    assert_eq!(
        session.stats().aggregates_built,
        1,
        "post-update drain must reuse the migrated aggregates"
    );
    assert_eq!(
        session.stats().profiles_carried,
        1,
        "weight-only update carries the profile"
    );
    assert_eq!(session.stats().digests_computed, 1, "no re-hash, ever");
}

#[test]
fn out_of_band_updates_do_not_grow_the_caches() {
    // Updates applied directly to the handle (bypassing the session) key
    // fresh cache rows per epoch; the superseded rows must be collected
    // when the newer epoch is served, or a long update stream would leak
    // one aggregate set per batch.
    let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 41);
    let g = WeightModel::UniformReal.apply(g, 41);
    let w = Node2Vec::paper(true);
    let queries: Vec<NodeId> = (0..16).collect();

    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(g);
    for round in 0..5u64 {
        session
            .run(WalkRequest::new(&g, &w, &queries).steps(5))
            .unwrap();
        // Out-of-band: straight through the handle, session unaware.
        g.apply_updates(&[GraphUpdate::SetWeight {
            edge: round as usize,
            weight: 3.0 + round as f32,
        }])
        .unwrap();
    }
    session
        .run(WalkRequest::new(&g, &w, &queries).steps(5))
        .unwrap();
    assert_eq!(
        session.cached_aggregates(),
        1,
        "superseded epochs' aggregate rows must be collected"
    );
    assert!(session.cached_profiles() <= 1);
    assert_eq!(session.stats().digests_computed, 1);
}

#[test]
fn distinct_request_seeds_share_one_profile() {
    // Clients seeding their own requests is the normal way to get
    // independent walks; it must not buy a profile (and a cache row that
    // never leaves) per request.
    let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 5);
    let g = WeightModel::UniformReal.apply(g, 5);
    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(g);
    let walker = session.load_walker("node2vec").unwrap();
    for batch in 0..100u64 {
        for i in 0..100u64 {
            let seed = batch * 100 + i;
            session.submit(
                WalkRequest::new(&g, &walker, &[(seed % 256) as NodeId])
                    .steps(1)
                    .seed(seed),
            );
        }
        for (_, result) in session.drain() {
            result.unwrap();
        }
    }
    assert_eq!(session.stats().profiles_run, 1);
    assert_eq!(session.cached_profiles(), 1);
}

#[test]
fn weight_promotion_re_profiles_instead_of_carrying_a_dead_key() {
    // A SetWeight batch on an unweighted graph promotes the edge props to
    // F32, changing every profile key's bytes-per-weight component: the
    // old profile must be dropped (and re-run on the next drain), not
    // carried to a key that can never be looked up.
    let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 13); // Unweighted.
    let w = UniformWalk;
    let queries: Vec<NodeId> = (0..16).collect();

    let mut session = FlexiWalker::builder().build();
    let g = session.load_graph(g);
    session
        .run(WalkRequest::new(&g, &w, &queries).steps(5))
        .unwrap();
    assert_eq!(session.stats().profiles_run, 1);

    session
        .apply_updates(
            &g,
            &[GraphUpdate::SetWeight {
                edge: 0,
                weight: 2.5,
            }],
        )
        .unwrap();
    assert!(g.graph().is_weighted(), "SetWeight promoted the props");
    assert_eq!(
        session.stats().profiles_carried,
        0,
        "a representation change must not carry the profile"
    );

    session
        .run(WalkRequest::new(&g, &w, &queries).steps(5))
        .unwrap();
    assert_eq!(
        session.stats().profiles_run,
        2,
        "the promoted representation re-profiles"
    );
    assert_eq!(session.cached_profiles(), 1, "the dead key was dropped");
}
