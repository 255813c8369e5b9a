//! Temporal differential sweep: time-windowed and time-biased walks are
//! **bit-identical** across worker counts and topologies, DSL twins match
//! their native walkers through the full session pipeline, and a
//! [`WalkServer`] interleaving timestamped ingest serves exactly what an
//! offline [`Session`] drains at the same epoch. Every recorded path is
//! checked forward-in-time against the graph it traversed. Two exact
//! simulated-clock checks bound what a stranded rejection step may cost.

use flexiwalker::prelude::*;
use std::sync::Arc;

/// Deterministic per-seed script randomness (splitmix64 step).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const NODES: usize = 192;

/// A timestamped scale-free-ish graph: every node gets a couple of
/// outgoing edges so walks rarely strand, timestamps span `[0, 1000)`.
fn tgraph(seed: u64) -> Csr {
    let mut rng = seed;
    let mut b = CsrBuilder::new(NODES);
    for src in 0..NODES as NodeId {
        for _ in 0..2 + (mix(&mut rng) % 3) {
            let dst = (mix(&mut rng) % NODES as u64) as NodeId;
            let w = 0.5 + (mix(&mut rng) % 8) as f32;
            let time = mix(&mut rng) % 1000;
            b.push_full_at(src, dst, w, (mix(&mut rng) % 4) as u8, time);
        }
    }
    b.build().expect("valid timestamped graph")
}

/// One scripted command; pure data, so the served and offline runs replay
/// the exact same stream.
#[derive(Clone, Debug)]
enum Step {
    Walk {
        walker: &'static str,
        queries: Vec<NodeId>,
        steps: usize,
        window: Option<TimeWindow>,
    },
    Update {
        batch: Vec<GraphUpdate>,
    },
}

/// A mixed temporal script: bursts of time-biased walks (some windowed)
/// with timestamped-ingest batches interleaved mid-stream.
fn script(seed: u64) -> Vec<Step> {
    let mut rng = seed;
    let walkers = ["temporal_uniform", "temporal_exp", "temporal_linear"];
    let mut steps = Vec::new();
    for burst in 0..3 {
        for _ in 0..2 + (mix(&mut rng) % 2) {
            let count = 8 + (mix(&mut rng) % 9) as usize;
            let start = mix(&mut rng) % NODES as u64;
            let window = match mix(&mut rng) % 3 {
                0 => None,
                1 => Some(TimeWindow::since(mix(&mut rng) % 500)),
                _ => {
                    let t0 = mix(&mut rng) % 400;
                    Some(TimeWindow::new(t0, t0 + 300 + mix(&mut rng) % 300))
                }
            };
            steps.push(Step::Walk {
                walker: walkers[(mix(&mut rng) % 3) as usize],
                queries: (0..count)
                    .map(|i| ((start + i as u64) % NODES as u64) as NodeId)
                    .collect(),
                steps: 4 + (mix(&mut rng) % 4) as usize,
                window,
            });
        }
        if burst < 2 {
            // Timestamped ingest: edges land with fresh (monotone-ish)
            // stamps, exercising the mask/plan migration path.
            steps.push(Step::Update {
                batch: (0..4)
                    .map(|_| GraphUpdate::AddEdgeAt {
                        src: (mix(&mut rng) % NODES as u64) as NodeId,
                        dst: (mix(&mut rng) % NODES as u64) as NodeId,
                        weight: 1.0 + (mix(&mut rng) % 4) as f32,
                        label: 0,
                        time: 800 + mix(&mut rng) % 200,
                    })
                    .collect(),
            });
        }
    }
    steps
}

/// Everything observable about one walk, floats as bits so equality is
/// exact.
#[derive(Debug, PartialEq)]
struct WalkRecord {
    epoch: u64,
    queries: usize,
    steps_taken: u64,
    sim_seconds: u64,
    paths: Option<Vec<Vec<NodeId>>>,
}

fn record(report: &RunReport) -> WalkRecord {
    WalkRecord {
        epoch: report.graph_version.epoch,
        queries: report.queries,
        steps_taken: report.steps_taken,
        sim_seconds: report.sim_seconds.to_bits(),
        paths: report.paths.clone(),
    }
}

fn request(g: &GraphHandle, step: &Step) -> WalkRequest {
    let Step::Walk {
        walker,
        queries,
        steps,
        window,
    } = step
    else {
        panic!("not a walk step")
    };
    let req = WalkRequest::new(g, *walker, queries.clone())
        .steps(*steps)
        .record_paths(true);
    match window {
        Some(w) => req.window(*w),
        None => req,
    }
}

fn session_builder(workers: usize, topology: Topology, dsl_twins: bool) -> SessionBuilder {
    let b = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .workers(workers)
        .topology(topology)
        .register_sampler(Arc::new(TcdfSampler));
    if dsl_twins {
        b.walker_registry(WalkerRegistry::builtin_dsl())
    } else {
        b
    }
}

/// Replays the script through a batch `Session`, draining at every update
/// boundary — the reference every other run is compared against.
fn offline_run(seed: u64, workers: usize, topology: Topology, dsl_twins: bool) -> Vec<WalkRecord> {
    let mut session = session_builder(workers, topology, dsl_twins).build();
    let g = session.load_graph(tgraph(seed));
    let mut records = Vec::new();
    let drain = |session: &mut Session, records: &mut Vec<WalkRecord>| {
        records.extend(
            session
                .drain()
                .into_iter()
                .map(|(_, r)| record(&r.expect("drain succeeds"))),
        );
    };
    for step in script(seed) {
        match &step {
            Step::Walk { .. } => {
                session.submit(request(&g, &step));
            }
            Step::Update { batch } => {
                drain(&mut session, &mut records);
                session.apply_updates(&g, batch).expect("update applies");
            }
        }
    }
    drain(&mut session, &mut records);
    assert!(session.stats().epochs_applied >= 2);
    records
}

/// Serves the same script through a `WalkServer`, timestamped ingest
/// interleaved with windowed walk requests.
fn serve_run(seed: u64, workers: usize, topology: Topology) -> (Vec<WalkRecord>, ServerStats) {
    let server = WalkServer::builder()
        .session(session_builder(workers, topology, false))
        .batch_max(4)
        .serve();
    let g = GraphHandle::new(tgraph(seed));
    let mut walk_tickets = Vec::new();
    let mut update_tickets = Vec::new();
    for step in script(seed) {
        match &step {
            Step::Walk { .. } => {
                walk_tickets.push(server.submit(request(&g, &step)).expect("admitted"));
            }
            Step::Update { batch } => {
                update_tickets.push(server.apply_updates(&g, batch.clone()).expect("admitted"));
            }
        }
    }
    for t in update_tickets {
        t.wait().expect("ingest applies");
    }
    let records = walk_tickets
        .into_iter()
        .map(|t| record(&t.wait().expect("served")))
        .collect();
    (records, server.shutdown())
}

/// Checks a recorded path is realisable forward-in-time inside `window`:
/// greedily assigns each hop the earliest admissible parallel edge — the
/// walk clock never runs backwards and never leaves the window.
fn assert_forward_in_time(g: &Csr, path: &[NodeId], window: Option<TimeWindow>) {
    let w = window.unwrap_or_else(TimeWindow::all);
    let mut clock = w.t0;
    for hop in path.windows(2) {
        let (cur, next) = (hop[0], hop[1]);
        let t = g
            .edge_range(cur)
            .filter(|&e| g.edge_target(e) == next && w.contains(g.time(e)) && g.time(e) >= clock)
            .map(|e| g.time(e))
            .min();
        let t = t.unwrap_or_else(|| {
            panic!("hop {cur}->{next} has no admissible edge at clock {clock} in {w}")
        });
        clock = t;
    }
}

/// The acceptance sweep: temporal walks are bit-identical across
/// `workers × topology`, the DSL twins reproduce the native walkers
/// exactly, and the served stream equals the offline drains — all over
/// the same timestamped-ingest script.
#[test]
fn temporal_walks_bit_identical_across_workers_topologies_and_serving() {
    let seed = 17u64;
    let topologies = [
        Topology::Single,
        Topology::MultiDevice { devices: 2 },
        Topology::Partitioned {
            devices: 2,
            link: LinkSpec::nvlink(),
        },
    ];
    // Walk output (paths) is invariant across topologies; the full
    // record — simulated timing included — is invariant across worker
    // counts and serving *within* a topology.
    let path_reference: Vec<_> = offline_run(seed, 1, Topology::Single, false)
        .into_iter()
        .map(|r| r.paths)
        .collect();
    for topology in topologies {
        let reference = offline_run(seed, 1, topology, false);
        assert!(
            reference.iter().any(|r| r.epoch > 0),
            "script must span epochs"
        );
        assert_eq!(
            reference
                .iter()
                .map(|r| r.paths.clone())
                .collect::<Vec<_>>(),
            path_reference,
            "paths diverged across topologies ({topology:?})"
        );
        for workers in [1usize, 2, 4, 8] {
            let offline = offline_run(seed, workers, topology, false);
            assert_eq!(
                offline, reference,
                "offline temporal drains diverged (workers {workers}, {topology:?})"
            );
            let twins = offline_run(seed, workers, topology, true);
            assert_eq!(
                twins, reference,
                "DSL twins diverged from native walkers (workers {workers}, {topology:?})"
            );
            let (served, stats) = serve_run(seed, workers, topology);
            assert_eq!(
                served, reference,
                "served temporal walks diverged (workers {workers}, {topology:?})"
            );
            assert_eq!(stats.served as usize, reference.len());
            assert_eq!(stats.updates_applied, 2);
            assert_eq!(stats.session.epochs_applied, 2);
        }
    }
}

/// Every path emitted by the sweep script is realisable forward-in-time
/// within its request window — at the epoch it was served from.
#[test]
fn recorded_temporal_paths_respect_clocks_and_windows() {
    let seed = 29u64;
    let mut session = session_builder(2, Topology::Single, false).build();
    let g = session.load_graph(tgraph(seed));
    // (window, paths, graph-at-service-time) per request, in drain order.
    let mut checked = 0usize;
    let mut pending: Vec<Option<TimeWindow>> = Vec::new();
    let g2 = g.clone();
    let drain =
        |session: &mut Session, pending: &mut Vec<Option<TimeWindow>>, checked: &mut usize| {
            // Drain happens *before* the next ingest batch, so the handle
            // still shows the graph these walks were served from.
            let snapshot = g2.graph();
            for ((_, r), window) in session.drain().into_iter().zip(pending.drain(..)) {
                let report = r.expect("drain succeeds");
                for path in report.paths.as_ref().expect("recorded") {
                    assert!(!path.is_empty());
                    assert_forward_in_time(&snapshot, path, window);
                    *checked += 1;
                }
            }
        };
    for step in script(seed) {
        match &step {
            Step::Walk { window, .. } => {
                session.submit(request(&g, &step));
                pending.push(*window);
            }
            Step::Update { batch } => {
                drain(&mut session, &mut pending, &mut checked);
                session.apply_updates(&g, batch).expect("update applies");
            }
        }
    }
    drain(&mut session, &mut pending, &mut checked);
    assert!(checked > 50, "sweep exercised plenty of paths ({checked})");
}

/// The temporal CDF strategy slots into the runtime like any other
/// registry entry: forced via `SelectionStrategy::Only`, it serves the
/// whole script and its steps land in the per-sampler tally.
#[test]
fn tcdf_sampler_serves_temporal_walks_when_selected() {
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::tiny())
        .register_sampler(Arc::new(TcdfSampler))
        .strategy(SelectionStrategy::Only(sampler_ids::TCDF))
        .build();
    let g = session.load_graph(tgraph(3));
    let queries: Vec<NodeId> = (0..64).collect();
    let report = session
        .run(
            WalkRequest::new(&g, "temporal_exp", queries)
                .steps(8)
                .window(TimeWindow::since(100))
                .record_paths(true),
        )
        .expect("tcdf serves");
    assert!(report.sampler_steps.get(sampler_ids::TCDF) >= report.steps_taken);
    assert_eq!(report.sampler_steps.get(sampler_ids::ERVS), 0);
    assert_eq!(report.sampler_steps.get(sampler_ids::ERJS), 0);
    let csr = g.graph();
    for path in report.paths.as_ref().unwrap() {
        assert_forward_in_time(&csr, path, Some(TimeWindow::since(100)));
    }
}

/// Progressive timestamped ingest: three doubling `AddEdgeAt` batches
/// from ~1k edges land as one epoch each without re-hashing the graph, and
/// the freshest slice is walkable at every epoch.
#[test]
fn doubling_ingest_ladder_advances_one_epoch_per_batch() {
    const LADDER_NODES: u64 = 1024;
    let mut rng = 0xF1E5u64;
    let mut builder = CsrBuilder::new(LADDER_NODES as usize);
    for _ in 0..1024 {
        builder.push_full_at(
            (mix(&mut rng) % LADDER_NODES) as NodeId,
            (mix(&mut rng) % LADDER_NODES) as NodeId,
            0.5 + (mix(&mut rng) % 8) as f32,
            0,
            mix(&mut rng) % 1000,
        );
    }
    let mut session = session_builder(1, Topology::Single, false).build();
    let g = session.load_graph(builder.build().expect("seed graph"));
    let queries: Vec<NodeId> = (0..64)
        .map(|q| (q * 131 % LADDER_NODES) as NodeId)
        .collect();
    let mut clock = 1000u64;
    for epoch in 1..=3u64 {
        let batch: Vec<GraphUpdate> = (0..g.graph().num_edges())
            .map(|_| {
                clock += mix(&mut rng) % 3;
                GraphUpdate::AddEdgeAt {
                    src: (mix(&mut rng) % LADDER_NODES) as NodeId,
                    dst: (mix(&mut rng) % LADDER_NODES) as NodeId,
                    weight: 0.5 + (mix(&mut rng) % 8) as f32,
                    label: 0,
                    time: clock,
                }
            })
            .collect();
        let outcome = session.apply_updates(&g, &batch).expect("ingest applies");
        assert_eq!(outcome.version.epoch, epoch);
        let report = session
            .run(
                WalkRequest::new(&g, "temporal_uniform", queries.clone())
                    .steps(8)
                    .window(TimeWindow::since(clock - 500)),
            )
            .expect("windowed walk serves");
        assert!(
            report.steps_taken > 0,
            "epoch {epoch}: recent slice unwalkable"
        );
    }
    assert_eq!(g.graph().num_edges(), 8 * 1024);
    let stats = session.stats();
    assert_eq!(stats.epochs_applied, 3);
    assert_eq!(
        stats.digests_computed, 1,
        "ingest must not re-hash the graph"
    );
}

/// A walk clock that outruns a row leaves it with zero live mass while the
/// eRJS bound stays positive. The cost model still picks eRJS on such
/// rows, so rejection must give up after one row's worth of trials. On the
/// simulated clock the adaptive run then stays within 2× of the better
/// forced sampler; with a flat 4 096-trial cap it is ~50× off. What is
/// left is the selector pricing the full row where the window has hidden
/// most of it.
#[test]
fn stranded_temporal_walks_keep_cost_model_near_the_best_forced_sampler() {
    const DAY: u64 = 86_400;
    const NODES: u64 = 1 << 10;
    let mut rng = 0x7E4Fu64;
    let mut b = CsrBuilder::new(NODES as usize);
    for src in 0..NODES as NodeId {
        for _ in 0..4 + mix(&mut rng) % 29 {
            let dst = (mix(&mut rng) % NODES) as NodeId;
            let w = 1.0 + (mix(&mut rng) % 1000) as f32 / 250.0;
            b.push_full_at(src, dst, w, 0, mix(&mut rng) % DAY);
        }
    }
    let csr = b.build().expect("valid timestamped graph");
    let sim_seconds = |strategy| {
        let mut session = FlexiWalker::builder().strategy(strategy).build();
        let g = session.load_graph(csr.clone());
        let queries: Vec<NodeId> = (0..256).map(|q| (q * 3) as NodeId).collect();
        session
            .run(
                WalkRequest::new(&g, "temporal_uniform", queries)
                    .steps(40)
                    .window(TimeWindow::new(0, DAY / 2)),
            )
            .expect("windowed walk serves")
            .sim_seconds
    };
    let adaptive = sim_seconds(SelectionStrategy::CostModel);
    let erjs = sim_seconds(SelectionStrategy::RJS_ONLY);
    let ervs = sim_seconds(SelectionStrategy::RVS_ONLY);
    assert!(
        adaptive <= 2.0 * erjs.min(ervs),
        "cost model {adaptive:.3e} s vs forced eRJS {erjs:.3e} s / eRVS {ervs:.3e} s"
    );
}

/// `metapath` on an unlabelled graph: past the first hop no edge carries
/// the wanted label, so forced eRJS meets a zero-mass row on every walk.
/// Each sampler call may spend at most `2·deg` draws on trials plus the
/// exact pass's two, whatever the row.
#[test]
fn metapath_erjs_on_unlabelled_rows_draws_at_most_one_row_of_trials() {
    let csr = gen::rmat(10, 8192, gen::RmatParams::SOCIAL, 7);
    let mut session = FlexiWalker::builder()
        .strategy(SelectionStrategy::RJS_ONLY)
        .build();
    let g = session.load_graph(csr.clone());
    let queries: Vec<NodeId> = (0..256).collect();
    let report = session
        .run(
            WalkRequest::new(&g, "metapath", queries)
                .steps(5)
                .record_paths(true),
        )
        .expect("metapath serves");
    // Every node on a path hosted at most one sampler call.
    let budget: u64 = report
        .paths
        .as_ref()
        .expect("recorded")
        .iter()
        .flatten()
        .map(|&v| 2 * csr.edge_range(v).len() as u64 + 4)
        .sum();
    assert!(
        report.stats.rng_draws <= budget,
        "{} draws over a budget of {budget}",
        report.stats.rng_draws
    );
}

/// Windows genuinely bind: a window past every timestamp strands walks at
/// their start nodes, the full window reproduces the unwindowed run
/// bit-for-bit (mask short-circuit), and disjoint windows disagree.
#[test]
fn windows_select_different_temporal_slices() {
    // A fresh session per run: the per-query RNG stream advances with
    // every submission, so only runs replayed from the same session
    // state are comparable.
    let run = |window: Option<TimeWindow>| {
        let mut session = session_builder(1, Topology::Single, false).build();
        let g = session.load_graph(tgraph(11));
        let req = WalkRequest::new(&g, "temporal_uniform", (0..32).collect::<Vec<NodeId>>())
            .steps(6)
            .record_paths(true);
        let req = match window {
            Some(w) => req.window(w),
            None => req,
        };
        session.run(req).expect("serves")
    };
    let empty = run(Some(TimeWindow::since(5000)));
    assert_eq!(empty.steps_taken, 0, "no edge is live past every stamp");
    assert!(empty.paths.unwrap().iter().all(|p| p.len() == 1));
    let unwindowed = run(None);
    let full = run(Some(TimeWindow::all()));
    assert_eq!(record(&unwindowed), record(&full));
    let early = run(Some(TimeWindow::until(500)));
    let late = run(Some(TimeWindow::since(500)));
    assert_ne!(
        early.paths, late.paths,
        "disjoint windows see disjoint slices"
    );
}
