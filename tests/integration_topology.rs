//! Topology determinism, partition-plan soundness and plan-reuse
//! regressions — the differential harness for shard-aware sessions.
//!
//! The headline guarantee: a session's drained **walk output** (paths,
//! step counts, sampler tallies, per-ticket ordering) is bit-identical
//! across every execution topology *and* every worker count. Sharding
//! changes where work executes and what the simulated clock, memory
//! model and migration census read — never what the walks do. A seeded
//! sweep pins this across
//! `topology ∈ {single, multi(2), partitioned(2, 4), outofcore}` ×
//! `workers ∈ {1, 4}`, for all four built-in walkers plus a
//! DSL-registered one, over a session stream whose epochs split
//! mid-stream through `apply_updates`.

use flexiwalker::core::sampler_ids as ids;
use flexiwalker::graph::props;
use flexiwalker::prelude::*;

const WORKERS: [usize; 2] = [1, 4];

fn topologies() -> [Topology; 5] {
    [
        Topology::Single,
        Topology::multi(2),
        Topology::partitioned(2),
        Topology::partitioned(4),
        // Budget far below the spill size, so the sweep also pins the
        // out-of-core replay's determinism under real eviction pressure.
        Topology::out_of_core(8192, 4096),
    ]
}

/// Labeled, weighted R-MAT graph — labels so MetaPath runs, weights so
/// the adaptive samplers have something to bias over.
fn graph(seed: u64) -> Csr {
    let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, seed);
    let g = WeightModel::UniformReal.apply(g, seed);
    props::assign_uniform_labels(g, 5, seed % 7 + 1)
}

/// The DSL walker of the sweep: discourages immediate backtracking.
fn decay_walker() -> WalkerDef {
    WalkerDef::dsl(
        "decay",
        "get_weight(edge) {
             h_e = h[edge];
             if (has_prev == 0) return h_e;
             if (adj[edge] == prev) return h_e * lambda;
             return h_e;
         }",
    )
    .hyperparam("lambda", 0.25)
}

/// Everything *walk-semantic* about one drained ticket — the part that
/// must not depend on topology or worker count. Timing, device activity
/// and migration accounting are deliberately absent: those are exactly
/// what topologies change.
#[derive(Debug, PartialEq)]
struct WalkRecord {
    ticket: usize,
    /// `(dense graph index, epoch)` — raw graph ids are a process-global
    /// counter, normalised to first-appearance order.
    graph_version: (u64, u64),
    queries: usize,
    steps_taken: u64,
    paths: Option<Vec<Vec<NodeId>>>,
    sampler_steps: Vec<(String, u64)>,
}

/// The timing footprint of one ticket, compared bit-exactly *within* a
/// topology across worker counts (floats as bits).
#[derive(Debug, PartialEq)]
struct ClockRecord {
    sim_seconds: u64,
    saturated_seconds: u64,
    migrations: u64,
    link_seconds: u64,
}

fn records(
    drained: Vec<(Ticket, Result<RunReport, EngineError>)>,
) -> (Vec<WalkRecord>, Vec<ClockRecord>) {
    let mut walks = Vec::new();
    let mut clocks = Vec::new();
    for (t, r) in drained {
        let r = r.expect("drain succeeds");
        walks.push(WalkRecord {
            ticket: t.id(),
            graph_version: (r.graph_version.graph_id, r.graph_version.epoch),
            queries: r.queries,
            steps_taken: r.steps_taken,
            paths: r.paths.clone(),
            sampler_steps: r
                .sampler_steps
                .iter()
                .map(|(id, n)| (id.to_string(), n))
                .collect(),
        });
        let (migrations, link_seconds) = r
            .shards
            .as_ref()
            .map_or((0, 0.0), |s| (s.migrations, s.link_seconds));
        clocks.push(ClockRecord {
            sim_seconds: r.sim_seconds.to_bits(),
            saturated_seconds: r.saturated_seconds.to_bits(),
            migrations,
            link_seconds: link_seconds.to_bits(),
        });
    }
    (walks, clocks)
}

/// Replays one scripted session: all four built-ins plus the DSL walker
/// over two graphs, a structural + weight update between the two drains
/// (epoch split mid-stream), and a second graph left at epoch 0 so the
/// final drain covers two graph versions concurrently.
fn run_script(
    seed: u64,
    topology: Topology,
    workers: usize,
) -> (Vec<WalkRecord>, Vec<ClockRecord>, SessionStats) {
    let walkers = ["node2vec", "metapath", "sopr", "uniform", "decay"];
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .workers(workers)
        .topology(topology)
        .register_walker(decay_walker())
        .build();
    let a = session.load_graph(graph(seed));
    let b = session.load_graph(graph(seed + 71));
    let n = a.graph().num_nodes() as u64;

    let mut walks = Vec::new();
    let mut clocks = Vec::new();

    // Drain 1: every walker over graph A at epoch 0.
    for (i, w) in walkers.iter().enumerate() {
        let queries: Vec<NodeId> = (0..24u64)
            .map(|q| ((q * 7 + i as u64 * 13) % n) as NodeId)
            .collect();
        session.submit(
            WalkRequest::new(&a, *w, queries)
                .steps(6)
                .seed(seed ^ 0xD1F)
                .record_paths(true),
        );
    }
    let (w1, c1) = records(session.drain());
    walks.extend(w1);
    clocks.extend(c1);

    // Mid-stream epoch split: graph A advances (structural + weight),
    // graph B stays at epoch 0, and the final drain covers both versions.
    session
        .apply_updates(
            &a,
            &[
                GraphUpdate::AddEdge {
                    src: (seed % n) as NodeId,
                    dst: ((seed * 31 + 1) % n) as NodeId,
                    weight: 2.5,
                    label: 1,
                },
                GraphUpdate::SetWeight {
                    edge: (seed % a.graph().num_edges() as u64) as usize,
                    weight: 0.75,
                },
            ],
        )
        .expect("update applies");
    for (i, w) in walkers.iter().enumerate() {
        let g = if i % 2 == 0 { &a } else { &b };
        let queries: Vec<NodeId> = (0..16u64)
            .map(|q| ((q * 11 + i as u64 * 5) % n) as NodeId)
            .collect();
        session.submit(
            WalkRequest::new(g, *w, queries)
                .steps(5)
                .seed(seed ^ 0xD1F)
                .record_paths(true),
        );
    }
    let (w2, c2) = records(session.drain());
    walks.extend(w2);
    clocks.extend(c2);

    // Normalise process-global graph ids to first-appearance order.
    let mut dense: Vec<u64> = Vec::new();
    for r in &mut walks {
        let idx = match dense.iter().position(|&id| id == r.graph_version.0) {
            Some(i) => i,
            None => {
                dense.push(r.graph_version.0);
                dense.len() - 1
            }
        };
        r.graph_version.0 = idx as u64;
    }
    (walks, clocks, session.stats())
}

#[test]
fn walk_output_is_bit_identical_across_topologies_and_workers() {
    for seed in [3u64, 29] {
        let (reference, _, _) = run_script(seed, Topology::Single, 1);
        assert!(!reference.is_empty());
        // The adaptive strategies actually mixed kernels somewhere in the
        // sweep, so the equality below covers both sampling paths.
        let total_rjs: u64 = reference
            .iter()
            .flat_map(|r| r.sampler_steps.iter())
            .filter(|(id, _)| id == ids::ERJS)
            .map(|(_, n)| n)
            .sum();
        assert!(total_rjs > 0, "seed {seed}: eRJS never selected");
        for topology in topologies() {
            // Within one topology, the full transcript — including the
            // simulated clock and migration census — is identical at
            // every worker count.
            let mut clocks_ref = None;
            for workers in WORKERS {
                let (walks, clocks, stats) = run_script(seed, topology, workers);
                assert_eq!(
                    walks,
                    reference,
                    "seed {seed}: {} x workers({workers}) diverged from the \
                     single-device sequential drain",
                    topology.tag()
                );
                match &clocks_ref {
                    None => clocks_ref = Some(clocks),
                    Some(r) => assert_eq!(
                        &clocks,
                        r,
                        "seed {seed}: {} clock diverged across worker counts",
                        topology.tag()
                    ),
                }
                // Shard accounting matches the topology shape.
                match topology {
                    Topology::Single => {
                        assert_eq!(stats.sharded_drains, 0);
                        assert_eq!(stats.migrations, 0);
                    }
                    Topology::MultiDevice { .. } => {
                        assert_eq!(stats.sharded_drains, 2);
                        assert_eq!(stats.migrations, 0, "duplicated graphs never migrate");
                        assert!(stats.shard_launches > 10, "stats: {stats:?}");
                    }
                    Topology::Partitioned { .. } => {
                        assert_eq!(stats.sharded_drains, 2);
                        assert!(stats.migrations > 0, "hash partitions must migrate");
                        assert!(stats.link_seconds > 0.0);
                        assert_eq!(stats.plan_builds, 2, "one plan per graph");
                        assert_eq!(stats.plan_refreshes, 1, "one structural epoch on A");
                        assert!(stats.plan_hits >= 8, "stats: {stats:?}");
                    }
                    Topology::OutOfCore { .. } => {
                        assert_eq!(stats.sharded_drains, 2);
                        assert_eq!(stats.migrations, 0, "blocks replay on one device");
                        assert!(stats.block_spills > 0, "stats: {stats:?}");
                        assert!(stats.block_loads > 0, "stats: {stats:?}");
                        assert!(
                            stats.block_evictions > 0,
                            "budget below spill size must evict: {stats:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn partitioned_reports_carry_shard_census() {
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .topology(Topology::partitioned(3))
        .build();
    let g = session.load_graph(graph(11));
    let queries: Vec<NodeId> = (0..64u32).collect();
    let report = session
        .run(WalkRequest::new(&g, "node2vec", queries).steps(8))
        .unwrap();
    let shards = report.shards.expect("partitioned run reports shard stats");
    assert_eq!(shards.shards, 3);
    assert_eq!(
        shards.per_shard_steps.iter().sum::<u64>(),
        report.steps_taken
    );
    assert!(shards.migrations > 0);
    assert!(shards.link_seconds > 0.0);
    assert_eq!(
        report.sim_seconds,
        report.sim_seconds.max(shards.link_seconds)
    );
    // The census never needs caller-visible paths.
    assert!(report.paths.is_none());
}

#[test]
fn partitioned_topology_fits_graphs_that_oom_single_and_multi() {
    let csr = graph(17);
    let mut spec = DeviceSpec::tiny();
    // VRAM holds ~40% of the graph: single and duplicated-graph modes
    // must OOM; four partitions (~25% each + row pointers) must fit.
    spec.vram_bytes = csr.memory_bytes() * 2 / 5 + csr.row_ptr().len() * 8;
    let queries: Vec<NodeId> = (0..32u32).collect();
    for topology in [Topology::Single, Topology::multi(4)] {
        let mut session = FlexiWalker::builder()
            .device(spec.clone())
            .topology(topology)
            .build();
        let g = session.load_graph(csr.clone());
        let err = session
            .run(WalkRequest::new(&g, "uniform", &queries).steps(4))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::OutOfMemory { .. }),
            "{} should OOM: {err:?}",
            topology.tag()
        );
    }
    // Two drains of node2vec + uniform walks, recorded; the one graph's
    // process-global id is normalised away so sessions compare.
    let drain_twice = |spec: DeviceSpec, topology: Topology| {
        let mut session = FlexiWalker::builder()
            .device(spec)
            .topology(topology)
            .build();
        let g = session.load_graph(csr.clone());
        let mut walks = Vec::new();
        for _ in 0..2 {
            for w in ["node2vec", "uniform"] {
                session.submit(
                    WalkRequest::new(&g, w, &queries)
                        .steps(4)
                        .record_paths(true),
                );
            }
            walks.extend(records(session.drain()).0);
        }
        for r in &mut walks {
            r.graph_version.0 = 0;
        }
        (walks, session.stats())
    };
    let (walks, stats) = drain_twice(spec, Topology::partitioned(4));
    assert!(walks.iter().all(|r| r.steps_taken > 0));
    assert_eq!(stats.plan_builds, 1, "the plan is built once, then reused");
    let (reference, _) = drain_twice(DeviceSpec::tiny(), Topology::Single);
    assert_eq!(walks, reference, "partitioned output diverged from Single");
}

#[test]
fn partition_plans_cover_every_edge_once_across_scales() {
    // The session path of `partition_bytes_cover_all_edges_once`: the
    // plan a partitioned drain is served from covers each edge exactly
    // once, at every sweep scale, and keeps doing so after structural
    // updates migrate it incrementally.
    for scale in [8u32, 10, 12] {
        for shards in [2usize, 4] {
            let csr = gen::rmat(scale, 4 << scale, gen::RmatParams::SOCIAL, u64::from(scale));
            let csr = WeightModel::UniformReal.apply(csr, u64::from(scale));
            let mut session = FlexiWalker::builder()
                .device(DeviceSpec::a6000())
                .topology(Topology::partitioned(shards))
                .skip_profile(true)
                .build();
            let g = session.load_graph(csr);
            session
                .run(WalkRequest::new(&g, "uniform", &[0u32, 1, 2][..]).steps(2))
                .unwrap();
            assert_eq!(session.stats().plan_builds, 1);

            let snap = g.snapshot();
            let (plan, fetch) = g.partition_plan(&snap, shards);
            assert_eq!(fetch, PlanFetch::Cached, "drain left the plan cached");
            assert_eq!(plan.total_edges(), snap.graph.num_edges() as u64);
            let row = snap.graph.row_ptr().len() * 8;
            let bytes = plan.resident_bytes(&snap.graph);
            assert_eq!(bytes.len(), shards);
            let per_edge = flexiwalker::graph::partition::bytes_per_edge(&snap.graph);
            let edge_bytes: usize = bytes.iter().map(|b| b - row).sum();
            assert_eq!(edge_bytes, snap.graph.num_edges() * per_edge);

            // Structural churn: the incrementally migrated plan equals a
            // from-scratch re-partition of the updated graph.
            let n = snap.graph.num_nodes() as u64;
            for round in 0..4u64 {
                session
                    .apply_updates(
                        &g,
                        &[
                            GraphUpdate::AddEdge {
                                src: ((round * 97 + 3) % n) as NodeId,
                                dst: ((round * 41 + 7) % n) as NodeId,
                                weight: 1.5,
                                label: 0,
                            },
                            GraphUpdate::RemoveEdge {
                                src: ((round * 59) % n) as NodeId,
                                dst: ((round * 23 + 1) % n) as NodeId,
                            },
                        ],
                    )
                    .expect("update applies");
            }
            let snap = g.snapshot();
            let (migrated, fetch) = g.partition_plan(&snap, shards);
            assert_eq!(fetch, PlanFetch::Cached, "updates migrate, not evict");
            assert_eq!(
                *migrated,
                PartitionPlan::compute(&snap.graph, shards),
                "scale {scale} x {shards} shards: refresh != re-partition"
            );
        }
    }
}

#[test]
fn plans_are_reused_across_drains_not_rebuilt_per_launch() {
    // The regression the plan cache exists for: `MultiDeviceEngine`-style
    // re-partitioning on every launch. Re-partitions must track the
    // *structural epoch count*, not the drain count.
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .topology(Topology::partitioned(2))
        .build();
    let g = session.load_graph(graph(23));
    let n = g.graph().num_nodes() as u64;
    let drain = |session: &mut Session, g: &GraphHandle, s: u64| {
        for i in 0..3u64 {
            let queries: Vec<NodeId> = (0..8u64).map(|q| ((q + i * 3 + s) % n) as NodeId).collect();
            session.submit(WalkRequest::new(g, "uniform", queries).steps(4));
        }
        for (_, r) in session.drain() {
            r.expect("drain succeeds");
        }
    };

    let mut structural_epochs = 0u64;
    for round in 0..6u64 {
        drain(&mut session, &g, round);
        if round % 2 == 0 {
            // Structural batch: the cached plan migrates incrementally.
            session
                .apply_updates(
                    &g,
                    &[GraphUpdate::AddEdge {
                        src: ((round * 13) % n) as NodeId,
                        dst: ((round * 7 + 2) % n) as NodeId,
                        weight: 1.0,
                        label: 0,
                    }],
                )
                .unwrap();
            structural_epochs += 1;
        } else {
            // Weight-only batch: the plan carries across untouched.
            session
                .apply_updates(
                    &g,
                    &[GraphUpdate::SetWeight {
                        edge: (round % g.graph().num_edges() as u64) as usize,
                        weight: 1.25,
                    }],
                )
                .unwrap();
        }
    }
    drain(&mut session, &g, 99);

    let stats = session.stats();
    assert_eq!(
        stats.plan_builds, 1,
        "exactly one from-scratch partitioning"
    );
    assert_eq!(
        stats.plan_refreshes, structural_epochs,
        "re-partition work tracks structural epochs, not drains: {stats:?}"
    );
    // 7 drains x 3 requests: every preparation after the first was a hit.
    assert_eq!(stats.plan_hits, 20, "stats: {stats:?}");
}
