//! Per-layer probes of a traced run: each calls one layer's public
//! functions directly, on the workload's own graph, walkers and weight
//! rows, and times them from outside.
//!
//! To add a probe: write a function here that pushes `(name, value)`
//! pairs, call it from [`all`], and list the names in
//! [`crate::catalog::PER_LAYER`] and `BENCHMARK.json` (a test keeps those
//! two in step, and [`crate::report`] refuses to print a result that
//! misses a catalogued name).

use crate::runner::{request, Outcome, Phase};
use crate::stats::{median, percentile};
use crate::workloads::{BatchKind, Op, OpGen, Req, Scenario, Stream, Updates};
use flexiwalker::core::{CostModel, FlexiWalkerEngine, WorkerPool};
use flexiwalker::gpu_sim::{Device, WarpCtx};
use flexiwalker::graph::dynamic::apply_batch;
use flexiwalker::prelude::*;
use flexiwalker::sampling::kernels::NeighborView;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(name, value)`; units come from the catalog.
pub type Values = Vec<(String, f64)>;

/// Seconds per call of `f`, averaged over at least `min_seconds` (and at
/// least three calls). Bodies of nanoseconds loop inside `f`.
fn per_call(min_seconds: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut calls = 0u32;
    loop {
        f();
        calls += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if calls >= 3 && elapsed >= min_seconds {
            return elapsed / f64::from(calls);
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64())
}

/// Queries per request of the reduced first drain the engine, runtime and
/// executor probes replay: the main stream's first op, cut down so that a
/// traced run stays short.
const PROBE_QUERIES: usize = 256;

/// What the probes share: a fresh copy of the workload at epoch 0.
struct Ctx {
    scenario: Scenario,
    graph: GraphHandle,
    seed: u64,
    /// The reduced first drain.
    first: Vec<Req>,
}

impl Ctx {
    fn csr(&self) -> &Csr {
        &self.scenario.graph
    }

    /// A warm session over `builder` and the requests of the first drain,
    /// submitted: `drain` is what is left to time.
    fn warm_session(&self, builder: SessionBuilder) -> Session {
        let mut session = builder.build();
        session.load_graph(&self.graph);
        self.submit_first(&mut session);
        session.drain();
        session
    }

    fn submit_first(&self, session: &mut Session) {
        for req in &self.first {
            session.submit(request(&self.graph, req.walker, req, self.seed));
        }
    }
}

/// Runs every probe. `outcome` is the traced run the probes follow: the
/// metrics that are shares of its main phase are derived here too.
///
/// # Errors
///
/// A probe whose façade call failed.
pub fn all(name: &str, seed: u64, outcome: &Outcome) -> Result<Values, String> {
    let scenario = Scenario::build(name)?;
    let graph = GraphHandle::from_arc(Arc::clone(&scenario.graph));
    let first = OpGen::new(&scenario.main, &scenario, seed).warm_up(PROBE_QUERIES);
    let ctx = Ctx {
        scenario,
        graph,
        seed,
        first,
    };
    let mut out = Values::new();
    rng(&mut out);
    gpu_sim(&mut out);
    sampling(&ctx, &mut out);
    sampler_state(&ctx, &mut out);
    engine(&ctx, &mut out)?;
    runtime(&ctx, &mut out)?;
    core(&ctx, &mut out)?;
    graph_layer(&ctx, &mut out)?;
    pool_and_queue(&mut out);
    session_layer(&ctx, &mut out);
    server(&ctx, outcome, &mut out)?;
    from_phases(outcome, &mut out);
    Ok(out)
}

fn rng(out: &mut Values) {
    const DRAWS: u32 = 1 << 20;
    let mut philox = Philox4x32::new(0x5EED, 7);
    let seconds = per_call(0.05, || {
        let mut acc = 0u32;
        for _ in 0..DRAWS {
            acc ^= philox.next_u32();
        }
        black_box(acc);
    });
    out.push((
        "rng.philox_mdraws_per_s".into(),
        f64::from(DRAWS) / seconds / 1e6,
    ));
}

fn gpu_sim(out: &mut Values) {
    const WARPS: usize = 4096;
    let device = Device::new(DeviceSpec::a6000());
    let seconds = per_call(0.05, || {
        black_box(device.launch(WARPS, 1, |ctx| ctx.warp_id()));
    });
    out.push((
        "gpu_sim.launch_us_per_warp".into(),
        seconds / WARPS as f64 * 1e6,
    ));
}

/// Kernel entry points on rows of the workload's own weights. A row of
/// degree `d` is the graph's first `d` edge weights (cycled on a graph
/// with fewer edges): the weight *law* is the workload's, the degree is
/// the probe's.
fn sampling(ctx: &Ctx, out: &mut Values) {
    let mut registry = SamplerRegistry::with_baselines();
    registry.register(Arc::new(TcdfSampler));
    let g = ctx.csr();
    for degree in [8usize, 64, 1024] {
        let row: Vec<f32> = (0..degree).map(|i| g.prop(i % g.num_edges())).collect();
        let bound = row.iter().copied().fold(0.0f32, f32::max);
        let weight = |i: usize| row[i];
        let view = NeighborView::new(&weight, degree, 8);
        for id in ["ervs", "erjs", "its", "als", "tcdf"] {
            let sampler = registry.get(id).expect("built-in sampler");
            let mut warp = WarpCtx::new(0, ctx.seed);
            let calls = (4096 / degree).max(4);
            let seconds = per_call(0.01, || {
                for _ in 0..calls {
                    let pick = match sampler.granularity() {
                        Granularity::Warp => sampler.sample_warp(&mut warp, &view),
                        Granularity::Lane => sampler.sample_lane(
                            &mut warp,
                            0,
                            &view,
                            sampler.needs_bound().then_some(bound),
                        ),
                    };
                    black_box(pick);
                }
            });
            out.push((
                format!("sampling.{id}.ns_per_sample.d{degree}"),
                seconds / calls as f64 * 1e9,
            ));
        }
    }
}

/// Alias-table state: building it for every node, and patching 256 dirty
/// nodes into a built table.
fn sampler_state(ctx: &Ctx, out: &mut Values) {
    const DIRTY: usize = 256;
    let g = ctx.csr();
    let build = |v: NodeId| {
        let weights: Vec<f32> = g.edge_range(v).map(|e| g.prop(e)).collect();
        AliasSampler.build_node_state(&weights).map(Arc::new)
    };
    let (nodes, seconds) = timed(|| (0..g.num_nodes() as NodeId).map(build).collect::<Vec<_>>());
    out.push((
        "sampling.state.build_ns_per_edge".into(),
        seconds / g.num_edges() as f64 * 1e9,
    ));
    let table = StateTable::new(nodes);
    let stride = (ctx.scenario.starts.len() / DIRTY).max(1);
    let dirty: Vec<NodeId> = ctx
        .scenario
        .starts
        .iter()
        .step_by(stride)
        .take(DIRTY)
        .copied()
        .collect();
    let seconds = per_call(0.02, || {
        let rebuilt = dirty.iter().map(|&v| {
            let weights: Vec<f32> = g.edge_range(v).map(|e| g.prop(e)).collect();
            (v as usize, AliasSampler.build_node_state(&weights))
        });
        black_box(table.patched(rebuilt));
    });
    out.push((
        "sampling.state.patch_us_per_dirty".into(),
        seconds / dirty.len() as f64 * 1e6,
    ));
}

/// Runs `reqs` straight through `engine` (no session, no executor) and
/// returns `(steps, simulated seconds, host seconds)`.
fn run_engine(
    ctx: &Ctx,
    engine: &FlexiWalkerEngine,
    reqs: &[Req],
) -> Result<(u64, f64, f64), String> {
    let mut totals = (0u64, 0.0f64, 0.0f64);
    for req in reqs {
        let walker = Arc::new(
            engine
                .walkers()
                .resolve(req.walker)
                .map_err(|e| e.to_string())?,
        );
        let prepared = engine.prepare(ctx.csr(), &walker, ctx.seed);
        let request = request(&ctx.graph, walker, req, ctx.seed);
        // Once untimed: masks and state tables are per-epoch artifacts on
        // the handle and build on first use.
        engine
            .run_with(&request, &prepared)
            .map_err(|e| e.to_string())?;
        let (report, seconds) = timed(|| engine.run_with(&request, &prepared));
        let report = report.map_err(|e| e.to_string())?;
        totals.0 += report.steps_taken;
        totals.1 += report.sim_seconds;
        totals.2 += seconds;
    }
    Ok(totals)
}

fn engine(ctx: &Ctx, out: &mut Values) -> Result<(), String> {
    let engine = ctx.scenario.session().build().engine().clone();
    let (steps, sim, host) = run_engine(ctx, &engine, &ctx.first)?;
    out.push(("engine.ns_per_step".into(), host / steps as f64 * 1e9));
    out.push(("engine.sim_ns_per_step".into(), sim / steps as f64 * 1e9));
    // The Table 2 trio on this workload's graph, whatever its own walkers.
    let queries: Vec<NodeId> = ctx
        .scenario
        .starts
        .iter()
        .take(PROBE_QUERIES)
        .copied()
        .collect();
    for walker in ["node2vec", "metapath", "sopr"] {
        let req = Req {
            walker,
            window: None,
            queries: queries.clone(),
            steps: 40,
        };
        let (steps, _, host) = run_engine(ctx, &engine, &[req])?;
        out.push((
            format!("engine.ns_per_step.{walker}"),
            host / steps.max(1) as f64 * 1e9,
        ));
    }
    Ok(())
}

fn runtime(ctx: &Ctx, out: &mut Values) -> Result<(), String> {
    let registry = SamplerRegistry::builtin();
    let model = CostModel::default_ratio();
    const CALLS: u32 = 4096;
    let seconds = per_call(0.01, || {
        for deg in 1..=CALLS {
            let d = f64::from(deg);
            black_box(model.select_registry(&registry, d, Some(5.0), Some(3.0 * d)));
        }
    });
    out.push(("runtime.select_ns".into(), seconds / f64::from(CALLS) * 1e9));

    // Regret: simulated time of the cost model's choices over the better
    // of the two forced strategies, on the first drain. Exact.
    let base = ctx.scenario.session().build().engine().clone();
    let forced = |strategy| {
        let mut e = base.clone();
        e.strategy = strategy;
        run_engine(ctx, &e, &ctx.first).map(|(_, sim, _)| sim)
    };
    let adaptive = forced(SelectionStrategy::CostModel)?;
    let best = forced(SelectionStrategy::RVS_ONLY)?.min(forced(SelectionStrategy::RJS_ONLY)?);
    out.push(("runtime.regret".into(), adaptive / best));
    Ok(())
}

fn core(ctx: &Ctx, out: &mut Values) -> Result<(), String> {
    const DIRTY: usize = 256;
    let engine = ctx.scenario.session().build().engine().clone();
    let name = ctx.scenario.main.walkers[0];
    let def = engine
        .walkers()
        .get(name)
        .ok_or_else(|| format!("walker {name} is not registered"))?;
    let (walker, seconds) = timed(|| def.lower());
    let walker = walker.map_err(|e| e.to_string())?;
    out.push(("compiler.load_walker_us".into(), seconds * 1e6));

    let g = ctx.csr();
    let (aggregates, seconds) = timed(|| engine.aggregates_for(g, walker.artifacts()));
    out.push(("core.aggregates_ms".into(), seconds * 1e3));
    let dirty: Vec<NodeId> = ctx.scenario.starts.iter().take(DIRTY).copied().collect();
    let seconds = per_call(0.01, || {
        let mut copy = aggregates.clone();
        black_box(copy.refresh_nodes(g, &dirty));
    });
    let clone_seconds = per_call(0.01, || {
        black_box(aggregates.clone());
    });
    out.push((
        "core.refresh_us_per_node".into(),
        (seconds - clone_seconds).max(0.0) / dirty.len() as f64 * 1e6,
    ));
    let (_, seconds) = timed(|| black_box(engine.profile_for(g, walker.walk_dyn(), ctx.seed)));
    out.push(("core.profile_ms".into(), seconds * 1e3));
    Ok(())
}

/// A batch of the given kind from the workload's own update generator.
fn batch(ctx: &Ctx, kind: BatchKind, size: usize) -> Vec<GraphUpdate> {
    let stream = Stream {
        updates: Some(Updates {
            every: 1,
            phase: 0,
            size,
            kind,
        }),
        ..ctx.scenario.main.clone()
    };
    match OpGen::new(&stream, &ctx.scenario, ctx.seed ^ 0xBA7C).next_op() {
        Op::Update(batch) => batch,
        Op::Walks(_) => unreachable!("an every-op update stream yields only batches"),
    }
}

fn graph_layer(ctx: &Ctx, out: &mut Values) -> Result<(), String> {
    let g = ctx.csr();
    out.push((
        "graph.gen_medges_per_s".into(),
        g.num_edges() as f64 / ctx.scenario.gen_seconds / 1e6,
    ));
    let (_, seconds) = timed(|| {
        let mut session = FlexiWalker::builder().workers(1).build();
        session.load_graph(Arc::clone(&ctx.scenario.graph));
    });
    out.push(("graph.digest_ms".into(), seconds * 1e3));

    let structural = if g.has_times() {
        BatchKind::AddEdgeAt
    } else {
        BatchKind::AddEdge
    };
    let batches = [
        ("weight", batch(ctx, BatchKind::SetWeight, 256)),
        ("struct", batch(ctx, structural, 64)),
    ];
    // On a bare `Csr`: what the batch itself costs.
    for (tag, b) in &batches {
        let mut copy = g.clone();
        let (outcome, seconds) = timed(|| apply_batch(&mut copy, b));
        outcome.map_err(|e| e.to_string())?;
        out.push((
            format!("graph.apply_batch_us_per_update.{tag}"),
            seconds / b.len() as f64 * 1e6,
        ));
    }

    // Through a handle with a partition plan, a time mask and a block
    // runtime cached: the difference to the bare batch is copy-on-write
    // plus migrating those artifacts.
    let handle = GraphHandle::from_arc(Arc::clone(&ctx.scenario.graph));
    let snap = handle.snapshot();
    let bytes = g.memory_bytes();
    let ((_, fetch), seconds) = timed(|| handle.partition_plan(&snap, 2));
    debug_assert_eq!(fetch, PlanFetch::Built);
    out.push(("graph.plan_build_ms".into(), seconds * 1e3));
    let seconds = per_call(0.005, || {
        black_box(handle.partition_plan(&snap, 2));
    });
    out.push(("graph.plan_hit_us".into(), seconds * 1e6));

    let window = TimeWindow::new(0, crate::workloads::DAY / 2);
    let (_, seconds) = timed(|| handle.time_mask(&snap, window));
    out.push(("graph.mask_build_ms".into(), seconds * 1e3));
    let seconds = per_call(0.005, || {
        black_box(handle.time_mask(&snap, window));
    });
    out.push(("graph.mask_hit_us".into(), seconds * 1e6));

    let (runtime, seconds) = timed(|| handle.block_runtime(&snap, bytes / 32, bytes / 4));
    let (runtime, _) = runtime.map_err(|e| e.to_string())?;
    out.push(("graph.block_spill_ms".into(), seconds * 1e3));
    // Cycling through every block with a quarter of them resident: each
    // fetch misses and loads from the spill file.
    let blocks = runtime.blocks();
    let mut loads = 0u32;
    let (result, seconds) = timed(|| -> Result<(), GraphError> {
        for b in (0..blocks).cycle().take(blocks.max(16)) {
            let (_, hit) = runtime.fetch_pinned(b)?;
            runtime.unpin(b);
            loads += u32::from(!hit);
        }
        Ok(())
    });
    result.map_err(|e| e.to_string())?;
    out.push((
        "graph.block_load_us".into(),
        seconds / f64::from(loads.max(1)) * 1e6,
    ));

    for (tag, b) in &batches {
        let (outcome, seconds) = timed(|| handle.apply_updates(b));
        outcome.map_err(|e| e.to_string())?;
        out.push((
            format!("graph.handle_update_us_per_update.{tag}"),
            seconds / b.len() as f64 * 1e6,
        ));
    }
    Ok(())
}

fn pool_and_queue(out: &mut Values) {
    const JOBS: usize = 4096;
    let pool = WorkerPool::new(1);
    let items: Vec<usize> = (0..JOBS).collect();
    let seconds = per_call(0.01, || {
        black_box(pool.run_pipelined(
            &items,
            1,
            |i| i,
            JOBS,
            |_, &x| x,
            |_, done| {
                black_box(done);
            },
        ));
    });
    out.push((
        "pool.dispatch_us_per_job".into(),
        seconds / JOBS as f64 * 1e6,
    ));

    const OPS: usize = 4096;
    let queue = flexiwalker::core::AdmissionQueue::new(256, AdmissionPolicy::Block);
    let seconds = per_call(0.01, || {
        for i in 0..OPS {
            let _ = queue.push(i);
            black_box(queue.pop_wait());
        }
    });
    // One push and one pop per iteration.
    out.push(("queue.ns_per_op".into(), seconds / (2 * OPS) as f64 * 1e9));
}

fn session_layer(ctx: &Ctx, out: &mut Values) {
    const TINY: usize = 256;
    let mut session = ctx.warm_session(ctx.scenario.session());
    let walker = ctx.scenario.main.walkers[0];
    let tiny = Req {
        walker,
        window: ctx.scenario.main.windows[0],
        queries: vec![ctx.scenario.starts[0]],
        steps: 1,
    };
    let built: Vec<WalkRequest> = (0..TINY)
        .map(|_| request(&ctx.graph, walker, &tiny, ctx.seed))
        .collect();
    let mut submit = Vec::new();
    let mut drain = Vec::new();
    for _ in 0..5 {
        let (_, seconds) = timed(|| {
            for r in &built {
                session.submit(r.clone());
            }
        });
        submit.push(seconds / TINY as f64 * 1e6);
        let (_, seconds) = timed(|| black_box(session.drain()));
        drain.push(seconds / TINY as f64 * 1e6);
    }
    out.push(("session.submit_us".into(), median(&submit)));
    out.push(("session.overhead_us_per_req".into(), median(&drain)));

    // The same reduced drain on one worker, two workers, and two
    // partitions: ratios of drain wall, and of launch busy seconds (summed
    // over workers) between two workers and one.
    let drain = |builder: SessionBuilder| {
        let mut session = ctx.warm_session(builder);
        let before = session.stats().stages.launch_seconds;
        let walls: Vec<f64> = (0..3)
            .map(|_| {
                ctx.submit_first(&mut session);
                timed(|| black_box(session.drain())).1
            })
            .collect();
        let busy = session.stats().stages.launch_seconds - before;
        (median(&walls), busy)
    };
    let (one, one_busy) = drain(ctx.scenario.session());
    let (two, two_busy) = drain(ctx.scenario.session().workers(2));
    let (partitioned, _) = drain(ctx.scenario.session().topology(Topology::partitioned(2)));
    out.push(("executor.scaling_2w".into(), one / two));
    out.push(("executor.launch_busy_2w".into(), two_busy / one_busy));
    out.push(("executor.partitioned2_ratio".into(), partitioned / one));
}

/// Rate of the open-loop phase: 3000 requests a second where the closed
/// loop showed at least twice that, else half of what it showed, so that
/// the queue does not grow without bound.
const OPEN_RATE: f64 = 3000.0;
const OPEN_SECONDS: f64 = 1.0;

fn server(ctx: &Ctx, outcome: &Outcome, out: &mut Values) -> Result<(), String> {
    let served = outcome.served();
    let stats = &outcome.measured.server;
    out.push((
        "server.reqs_per_cycle".into(),
        stats.served as f64 / stats.serve_cycles.max(1) as f64,
    ));
    out.push((
        "server.peak_depth".into(),
        stats.admission.peak_depth as f64,
    ));
    out.push(("server.p99_ms".into(), served.latency_ms_overall(0.99)));

    let server = WalkServer::builder()
        .session(ctx.scenario.session())
        .serve();
    let walker = ctx.scenario.main.walkers[0];
    let tiny = Req {
        walker,
        window: ctx.scenario.main.windows[0],
        queries: vec![ctx.scenario.starts[0]],
        steps: 1,
    };
    let mut roundtrips = Vec::new();
    for i in 0..520 {
        let (result, seconds) = timed(|| {
            server
                .submit(request(&ctx.graph, walker, &tiny, ctx.seed))
                .and_then(WalkTicket::wait)
        });
        result.map_err(|e| e.to_string())?;
        // The first requests compile and profile.
        if i >= 20 {
            roundtrips.push(seconds * 1e6);
        }
    }
    out.push(("server.roundtrip_us".into(), median(&roundtrips)));

    // Open loop: requests are due on a fixed schedule and timed from when
    // they were due, so a stall counts against every request behind it.
    let closed_rps = served.requests_per_s();
    let rate = OPEN_RATE.min(closed_rps / 2.0);
    let coda = ctx
        .scenario
        .serve_coda
        .as_ref()
        .unwrap_or(&ctx.scenario.main);
    let stream = Stream {
        updates: None,
        ..coda.clone()
    };
    let mut gen = OpGen::new(&stream, &ctx.scenario, ctx.seed ^ 0x0BE2);
    let total = (rate * OPEN_SECONDS) as usize;
    let (tx, rx) = std::sync::mpsc::channel::<(Instant, WalkTicket)>();
    let mut late_max = 0.0f64;
    let latencies = std::thread::scope(|scope| -> Result<Vec<f64>, String> {
        let collector = scope.spawn(move || {
            rx.iter()
                .map(|(due, ticket)| {
                    ticket
                        .wait()
                        .map(|_| due.elapsed().as_secs_f64() * 1e3)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<f64>, String>>()
        });
        let origin = Instant::now();
        for i in 0..total {
            let due = origin + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_max = late_max.max(due.elapsed().as_secs_f64() * 1e3);
            let Op::Walks(mut reqs) = gen.next_op() else {
                unreachable!("the open-loop stream has no updates")
            };
            let req = reqs.pop().expect("served ops hold one request");
            let ticket = server
                .submit(request(&ctx.graph, req.walker, &req, ctx.seed))
                .map_err(|e| e.to_string())?;
            tx.send((due, ticket)).map_err(|e| e.to_string())?;
        }
        drop(tx);
        collector
            .join()
            .map_err(|_| "collector panicked".to_string())?
    })?;
    out.push(("server.open_rate_rps".into(), rate));
    out.push(("server.open_p50_ms".into(), percentile(&latencies, 0.50)));
    out.push(("server.open_p99_ms".into(), percentile(&latencies, 0.99)));
    out.push(("server.gen_late_max_ms".into(), late_max));

    // One update batch outstanding at a time, through the server.
    let updates = ctx
        .scenario
        .update_coda
        .as_ref()
        .unwrap_or(&ctx.scenario.main)
        .updates
        .expect("every workload names an update batch");
    let mut update_ms = Vec::new();
    for _ in 0..21 {
        let b = batch(ctx, updates.kind, updates.size);
        let (result, seconds) = timed(|| {
            server
                .apply_updates(&ctx.graph, b)
                .and_then(UpdateTicket::wait)
        });
        result.map_err(|e| e.to_string())?;
        update_ms.push(seconds * 1e3);
    }
    out.push(("server.update_p50_ms".into(), median(&update_ms)));
    server.shutdown();
    Ok(())
}

/// Metrics that are shares and ratios of the traced run's own phases.
fn from_phases(outcome: &Outcome, out: &mut Values) {
    let m = &outcome.measured;
    let main: &Phase = &m.main;
    let (before, after) = (&m.stats_before, &m.stats_after);
    let launch = after.stages.launch_seconds - before.stages.launch_seconds;
    let replay = after.stages.replay_seconds - before.stages.replay_seconds;
    let walk_wall = main.walk_wall().max(f64::MIN_POSITIVE);
    out.push(("executor.launch_share".into(), launch / walk_wall));
    // What is left of the walk wall once the kernel and the block replay
    // are taken out: prepare, merge, gather and (served) the queue.
    out.push((
        "executor.facade_share".into(),
        ((walk_wall - launch - replay) / walk_wall).max(0.0),
    ));
    out.push(("ooc.replay_share".into(), replay / walk_wall));
    out.push((
        "ooc.replay_us_per_step".into(),
        replay / main.steps.max(1) as f64 * 1e6,
    ));
    let loads = after.block_loads - before.block_loads;
    let hits = after.block_hits - before.block_hits;
    out.push((
        "graph.block_hit_rate".into(),
        hits as f64 / (hits + loads).max(1) as f64,
    ));
    out.push((
        "session.apply_share".into(),
        main.update_wall() / (main.walk_wall() + main.update_wall()),
    ));

    let total: u64 = main.tally.values().sum();
    let share = |ids: &[&str]| {
        let n: u64 = ids.iter().filter_map(|id| main.tally.get(*id)).sum();
        n as f64 / total.max(1) as f64
    };
    out.push(("sampling.erjs_step_share".into(), share(&["erjs"])));
    out.push(("sampling.ervs_step_share".into(), share(&["ervs"])));
    out.push(("sampling.tcdf_step_share".into(), share(&["tcdf"])));
    out.push(("sampling.state_step_share".into(), share(&["als", "its"])));

    out.push(("bench.trace_overhead_pct".into(), main.trace_overhead_pct()));
    out.push((
        "fail_ratio".into(),
        outcome.failed() as f64 / outcome.attempted().max(1) as f64,
    ));
    out.push((
        "bench.latency_samples".into(),
        outcome.served().latencies_ms.len() as f64,
    ));
}
