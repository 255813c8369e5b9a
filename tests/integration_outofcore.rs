//! Out-of-core drain determinism and resident-cache invariants — the
//! differential harness for `Topology::OutOfCore`.
//!
//! The headline guarantee: a session's drained **walk output** under the
//! block-scheduled out-of-core topology is bit-identical to the same
//! drain under `Topology::Single`, at every worker count, including
//! mid-stream `apply_updates` epoch boundaries — while the graph's
//! resident footprint is capped far below its spill size. A scripted
//! sweep additionally pins the `ResidentCache` eviction invariants
//! (pinned never evicted, budget honoured once eviction settles, epoch
//! bumps drop stale blocks) through real `BlockRuntime` traffic.

use flexiwalker::graph::props;
use flexiwalker::prelude::*;

/// Resident budget and block target for every out-of-core run here:
/// small enough that the scale-8 graph spills into many blocks and the
/// cache is under genuine eviction pressure.
const BUDGET: usize = 8192;
const BLOCK: usize = 4096;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Labeled, weighted R-MAT graph — labels so MetaPath runs, weights so
/// the adaptive samplers bias.
fn graph(seed: u64) -> Csr {
    let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, seed);
    let g = WeightModel::UniformReal.apply(g, seed);
    props::assign_uniform_labels(g, 5, seed % 7 + 1)
}

/// Walk-semantic transcript of one drained ticket: everything that must
/// not depend on topology or worker count.
#[derive(Debug, PartialEq)]
struct WalkRecord {
    ticket: usize,
    epoch: u64,
    queries: usize,
    steps_taken: u64,
    paths: Option<Vec<Vec<NodeId>>>,
    sampler_steps: Vec<(String, u64)>,
}

fn records(drained: Vec<(Ticket, Result<RunReport, EngineError>)>) -> Vec<WalkRecord> {
    drained
        .into_iter()
        .map(|(t, r)| {
            let r = r.expect("drain succeeds");
            WalkRecord {
                ticket: t.id(),
                epoch: r.graph_version.epoch,
                queries: r.queries,
                steps_taken: r.steps_taken,
                paths: r.paths.clone(),
                sampler_steps: r
                    .sampler_steps
                    .iter()
                    .map(|(id, n)| (id.to_string(), n))
                    .collect(),
            }
        })
        .collect()
}

/// Three drains split by two mid-stream update batches (structural +
/// weight-only), every built-in walker, half the requests recording
/// paths — the full lifecycle one PR's worth of serving exercises.
fn run_script(seed: u64, topology: Topology, workers: usize) -> (Vec<WalkRecord>, SessionStats) {
    let walkers = ["node2vec", "metapath", "sopr", "uniform"];
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .workers(workers)
        .topology(topology)
        .build();
    let g = session.load_graph(graph(seed));
    let n = g.graph().num_nodes() as u64;
    let mut walks = Vec::new();

    let submit_round = |session: &mut Session, round: u64| {
        for (i, w) in walkers.iter().enumerate() {
            let queries: Vec<NodeId> = (0..20u64)
                .map(|q| ((q * 7 + i as u64 * 13 + round * 3) % n) as NodeId)
                .collect();
            session.submit(
                WalkRequest::new(&g, *w, queries)
                    .steps(6)
                    .seed(seed ^ 0xB10C)
                    // Half the tickets ask for paths, so the merge's
                    // path-stripping is exercised both ways.
                    .record_paths(i % 2 == 0),
            );
        }
    };

    submit_round(&mut session, 0);
    walks.extend(records(session.drain()));

    // Epoch 1: structural batch (degree census and spill geometry move).
    session
        .apply_updates(
            &g,
            &[
                GraphUpdate::AddEdge {
                    src: (seed % n) as NodeId,
                    dst: ((seed * 31 + 1) % n) as NodeId,
                    weight: 2.5,
                    label: 1,
                },
                GraphUpdate::RemoveEdge {
                    src: ((seed * 13) % n) as NodeId,
                    dst: ((seed * 17 + 2) % n) as NodeId,
                },
            ],
        )
        .expect("structural batch applies");
    submit_round(&mut session, 1);
    walks.extend(records(session.drain()));

    // Epoch 2: weight-only batch (spilled weights must re-encode).
    session
        .apply_updates(
            &g,
            &[GraphUpdate::SetWeight {
                edge: (seed % g.graph().num_edges() as u64) as usize,
                weight: 0.125,
            }],
        )
        .expect("weight batch applies");
    submit_round(&mut session, 2);
    walks.extend(records(session.drain()));

    (walks, session.stats())
}

#[test]
fn out_of_core_output_is_bit_identical_to_single_at_every_worker_count() {
    for seed in [3u64, 41] {
        let (reference, _) = run_script(seed, Topology::Single, 1);
        assert!(!reference.is_empty());
        assert_eq!(
            reference.iter().map(|r| &r.epoch).max(),
            Some(&2),
            "the script must cross two epoch boundaries"
        );
        for workers in WORKERS {
            let (walks, stats) = run_script(seed, Topology::out_of_core(BUDGET, BLOCK), workers);
            assert_eq!(
                walks, reference,
                "seed {seed}: outofcore x workers({workers}) diverged from \
                 the single-device sequential drain"
            );
            // The runs really were served through the block layer, under
            // real eviction pressure, across all three epochs.
            assert!(stats.block_spills > 0, "stats: {stats:?}");
            assert!(stats.block_loads > 0, "stats: {stats:?}");
            assert!(stats.block_evictions > 0, "stats: {stats:?}");
        }
    }
}

/// Drains two identical node2vec submission streams on `csr` (the second
/// runs on warm caches) and returns the last drain's transcript plus the
/// session stats.
fn node2vec_drains(
    csr: &Csr,
    spec: &DeviceSpec,
    topology: Topology,
    workers: usize,
) -> (Vec<WalkRecord>, SessionStats) {
    let mut session = FlexiWalker::builder()
        .device(spec.clone())
        .topology(topology)
        .workers(workers)
        .build();
    let g = session.load_graph(csr.clone());
    let n = csr.num_nodes();
    let mut last = Vec::new();
    for _ in 0..2 {
        for r in 0..4 {
            let queries: Vec<NodeId> = (0..48).map(|i| ((r * 48 + i) % n) as NodeId).collect();
            session.submit(
                WalkRequest::new(&g, "node2vec", queries)
                    .steps(8)
                    .record_paths(true),
            );
        }
        last = records(session.drain());
    }
    (last, session.stats())
}

/// The oversize ladder: on a device whose VRAM holds 3/5 of the graph,
/// `Single` OOMs, while out-of-core budgets of graph/{2, 4, 8} (blocks a
/// quarter of the budget each) serve walks identical to an unconstrained
/// `Single` drain — the harshest rung under eviction pressure and at
/// several workers too.
#[test]
fn out_of_core_serves_an_oversize_ladder_where_single_ooms() {
    let csr = gen::rmat(10, 8192, gen::RmatParams::SOCIAL, 41);
    let csr = WeightModel::UniformReal.apply(csr, 41);
    let graph_bytes = csr.memory_bytes();
    let mut small = DeviceSpec::a6000();
    small.vram_bytes = graph_bytes * 3 / 5;

    let mut single = FlexiWalker::builder().device(small.clone()).build();
    let g = single.load_graph(csr.clone());
    let err = single
        .run(WalkRequest::new(&g, "node2vec", &[0u32, 1][..]).steps(2))
        .unwrap_err();
    assert!(matches!(err, EngineError::OutOfMemory { .. }), "{err:?}");

    let (reference, _) = node2vec_drains(&csr, &DeviceSpec::a6000(), Topology::Single, 1);
    assert!(reference.iter().all(|r| r.steps_taken > 0));
    for k in [2, 4, 8] {
        let budget = graph_bytes / k;
        let topology = Topology::out_of_core(budget, (budget / 4).max(1024));
        let (walks, stats) = node2vec_drains(&csr, &small, topology, 1);
        assert_eq!(walks, reference, "graph/{k} budget diverged from Single");
        if k == 8 {
            assert!(stats.block_loads > 0, "stats: {stats:?}");
            assert!(stats.block_evictions > 0, "stats: {stats:?}");
            let (walks, _) = node2vec_drains(&csr, &small, topology, 4);
            assert_eq!(walks, reference, "graph/8 budget diverged at workers(4)");
        }
    }
}

#[test]
fn out_of_core_reports_carry_block_stats() {
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .topology(Topology::out_of_core(BUDGET, BLOCK))
        .build();
    let g = session.load_graph(graph(9));
    let queries: Vec<NodeId> = (0..32).collect();
    let report = session
        .run(WalkRequest::new(&g, "node2vec", queries).steps(8))
        .unwrap();
    let blocks = report.blocks.expect("out-of-core runs report block stats");
    assert!(blocks.blocks >= 2, "graph must spill into several blocks");
    assert_eq!(blocks.hits + blocks.loads, blocks.launches);
    assert!(blocks.loads > 0, "first drain is cold");
    assert!(blocks.io_seconds > 0.0, "disk time lands on the clock");
    assert_eq!(blocks.resident_budget, BUDGET);
    assert!(report.shards.is_none(), "one device, no shard census");
    assert!(
        report.sim_seconds >= blocks.io_seconds,
        "io is part of the simulated clock"
    );

    // Single runs over the same graph never report block stats.
    let mut single = FlexiWalker::builder().device(DeviceSpec::tiny()).build();
    let g = single.load_graph(graph(9));
    let queries: Vec<NodeId> = (0..32).collect();
    let report = single
        .run(WalkRequest::new(&g, "node2vec", queries).steps(8))
        .unwrap();
    assert!(report.blocks.is_none());
}

#[test]
fn updates_respill_only_dirty_blocks_between_drains() {
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .topology(Topology::out_of_core(BUDGET, BLOCK))
        .build();
    let g = session.load_graph(graph(21));
    let queries: Vec<NodeId> = (0..16).collect();
    session
        .run(WalkRequest::new(&g, "uniform", queries.clone()).steps(5))
        .unwrap();
    let spilled_cold = session.stats().block_spills;
    assert!(spilled_cold > 0, "first drain spills the graph");

    // A one-node weight touch migrates the cached runtime by re-spilling
    // the dirty node's block — not the whole graph.
    let outcome = session
        .apply_updates(
            &g,
            &[GraphUpdate::SetWeight {
                edge: 0,
                weight: 7.0,
            }],
        )
        .unwrap();
    assert!(outcome.blocks_migrated >= 1, "outcome: {outcome:?}");
    let spilled_warm = session.stats().block_spills;
    assert!(
        spilled_warm - spilled_cold < spilled_cold,
        "a one-edge batch must not re-spill every block \
         (cold {spilled_cold}, delta {})",
        spilled_warm - spilled_cold
    );
    // The next drain reuses the migrated runtime: no fresh full spill.
    session
        .run(WalkRequest::new(&g, "uniform", queries).steps(5))
        .unwrap();
    assert_eq!(session.stats().block_spills, spilled_warm);
}

/// Scripted `ResidentCache` sweep through a real `BlockRuntime`: fetch
/// blocks under several budgets with pins outstanding, and check the
/// eviction invariants the scheduler relies on.
#[test]
fn resident_cache_sweep_honours_pins_budget_and_epochs() {
    let h = GraphHandle::new(graph(33));
    let snap = h.snapshot();
    let (rt, _) = h.block_runtime(&snap, BLOCK, BUDGET).unwrap();
    let blocks = rt.blocks();
    assert!(blocks >= 4, "sweep needs several blocks, got {blocks}");

    // Walk every block twice, holding a moving pin window of two blocks.
    let mut pinned: Vec<usize> = Vec::new();
    for round in 0..2 {
        for b in 0..blocks {
            let (data, _) = rt.fetch_pinned(b).unwrap();
            assert_eq!(data.block(), b);
            assert!(
                rt.cache().is_resident(b),
                "round {round}: block {b} must be resident while pinned"
            );
            pinned.push(b);
            if pinned.len() > 2 {
                let old = pinned.remove(0);
                rt.unpin(old);
                // With no pin outstanding on `old`, the cache is free to
                // evict it — but never a still-pinned block.
                for &p in &pinned {
                    assert!(
                        rt.cache().is_resident(p),
                        "round {round}: pinned block {p} was evicted"
                    );
                }
            }
        }
    }
    for b in pinned.drain(..) {
        rt.unpin(b);
    }
    // Eviction settled: with every pin released, the next fetch brings
    // the cache back under its byte budget (one oversized block may
    // exceed it alone; this geometry has none).
    let (_, _) = rt.fetch_pinned(0).unwrap();
    rt.unpin(0);
    // An immediate re-fetch of the block just brought in is a hit.
    let (_, hit) = rt.fetch_pinned(0).unwrap();
    assert!(hit, "back-to-back fetch must be served from residency");
    rt.unpin(0);
    assert!(
        rt.max_block_bytes() <= BUDGET,
        "geometry has no oversized block"
    );
    assert!(
        rt.cache().used_bytes() <= BUDGET,
        "cache over budget after eviction settled: {} > {BUDGET}",
        rt.cache().used_bytes()
    );
    let counters = rt.cache().counters();
    assert!(counters.evictions > 0, "sweep must have evicted");
    assert!(counters.loads > 0 && counters.hits > 0);

    // Epoch bump: apply_updates migrates the cached runtime, re-spilling
    // dirty blocks and dropping their stale resident copies.
    let resident_before: Vec<usize> = (0..blocks).filter(|&b| rt.cache().is_resident(b)).collect();
    assert!(!resident_before.is_empty());
    let out = h
        .apply_updates(&[GraphUpdate::SetWeight {
            edge: 0,
            weight: 3.0,
        }])
        .unwrap();
    assert!(out.blocks_migrated >= 1);
    let dirty_block = rt.block_of(0);
    assert!(
        !rt.cache().is_resident(dirty_block),
        "epoch bump must drop the re-spilled block's stale copy"
    );
    // And the refetched copy carries the new epoch's data.
    let (data, hit) = rt.fetch_pinned(dirty_block).unwrap();
    assert!(!hit, "stale copy was dropped, so this is a cold load");
    assert_eq!(data.weight(0), 3.0);
    rt.unpin(dirty_block);
}
