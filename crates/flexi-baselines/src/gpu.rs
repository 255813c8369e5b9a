//! GPU baseline engines: C-SAW, NextDoor, Skywalker, FlowWalker.
//!
//! All four share the persistent-warp query loop of the FlexiWalker engine
//! but run a *fixed* sampling kernel, so measured deltas against
//! FlexiWalker isolate exactly the algorithmic differences the paper
//! claims: per-step auxiliary-structure builds (ITS/ALS), exact max
//! reductions (NextDoor), and prefix-sum reservoir traffic (FlowWalker).
//! Auxiliary device allocations are charged against VRAM so oversized runs
//! report the paper's OOM entries.

use flexi_core::{
    DynamicWalk, EngineError, QueryQueue, RunReport, SamplerTally, WalkEngine, WalkRequest,
    WalkState,
};
use flexi_gpu_sim::{Device, DeviceSpec, SimError, WarpCtx, WARP_SIZE};
use flexi_graph::{Csr, NodeId};
use flexi_sampling::kernels::NeighborView;
use flexi_sampling::{
    AliasSampler, ExactMaxRjsSampler, Granularity, ItsSampler, ReservoirPrefixSampler, Sampler,
    SamplerId,
};

/// Which fixed kernel a GPU baseline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GpuBaselineKind {
    /// Inverse-transform sampling (C-SAW).
    Its,
    /// Rejection with exact per-step max reduction (NextDoor).
    RjsExactMax,
    /// Alias table rebuilt per step (Skywalker).
    Alias,
    /// Prefix-sum reservoir (FlowWalker).
    RvsPrefix,
}

impl GpuBaselineKind {
    /// The registry strategy implementing this baseline's kernel — the
    /// same [`Sampler`] objects FlexiWalker can register, reused here with
    /// a fixed choice instead of runtime adaptation.
    fn sampler(self) -> &'static dyn Sampler {
        match self {
            Self::Its => &ItsSampler,
            Self::RjsExactMax => &ExactMaxRjsSampler,
            Self::Alias => &AliasSampler,
            Self::RvsPrefix => &ReservoirPrefixSampler,
        }
    }

    /// Report key for the fixed kernel.
    fn sampler_id(self) -> SamplerId {
        self.sampler().id()
    }
}

/// Shared implementation of all four GPU baselines.
#[derive(Clone, Debug)]
struct GpuBaseline {
    spec: DeviceSpec,
    kind: GpuBaselineKind,
    name: &'static str,
}

impl GpuBaseline {
    /// Auxiliary device memory this system allocates besides the graph.
    fn aux_bytes(&self, g: &Csr, queries: usize) -> usize {
        let active_warps = queries
            .div_ceil(WARP_SIZE)
            .min(self.spec.total_warp_slots())
            .max(1);
        let max_deg = (0..g.num_nodes())
            .map(|v| g.degree(v as u32))
            .max()
            .unwrap_or(0);
        match self.kind {
            // C-SAW materialises a normalised CDF per active warp.
            GpuBaselineKind::Its => max_deg * 4 * active_warps,
            // NextDoor's transit-parallel sort buffers scale with the edge
            // array (paper §6.2: "internally uses sorting ... requires
            // additional memory").
            GpuBaselineKind::RjsExactMax => 16 * g.num_edges() + 64 * queries,
            // Skywalker keeps prob+alias arrays per active warp.
            GpuBaselineKind::Alias => max_deg * 8 * active_warps,
            // FlowWalker's reservoir state is O(1) per query.
            GpuBaselineKind::RvsPrefix => 32 * queries,
        }
    }

    fn run_impl(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        // `baseline_warp` neither masks nor moves a walk clock.
        req.require_untimed()?;
        let snap = req.snapshot();
        let g: &Csr = &snap.graph;
        let walker = req.walker.get()?;
        let w = walker.walk_dyn();
        // NextDoor-class engines skip their max reduction only when the
        // compiled bound is a kernel-wide constant; derived once per run.
        let const_bound = walker.static_bound();
        let queries: &[NodeId] = &req.queries;
        let cfg = &req.config;
        let device = Device::new(self.spec.clone());
        let need = g.memory_bytes() + self.aux_bytes(g, queries.len());
        device.pool().try_alloc(need).map_err(|e| match e {
            SimError::OutOfMemory {
                requested,
                available,
            } => EngineError::OutOfMemory {
                requested,
                available,
            },
        })?;

        let steps = w.preferred_steps().unwrap_or(cfg.steps);
        let queue = QueryQueue::new(queries.len());
        let num_warps = queries
            .len()
            .div_ceil(WARP_SIZE)
            .min(self.spec.total_warp_slots())
            .max(1);
        let kind = self.kind;
        let bytes_per_weight = w.bytes_per_weight(g);
        let record = cfg.record_paths;

        let kernel = |ctx: &mut WarpCtx| {
            baseline_warp(
                ctx,
                g,
                w,
                &queue,
                queries,
                steps,
                record,
                kind,
                bytes_per_weight,
                const_bound,
            )
        };
        let launch = if cfg.host_threads > 1 {
            device.launch_parallel(num_warps, cfg.host_threads, cfg.seed, kernel)
        } else {
            device.launch(num_warps, cfg.seed, kernel)
        };
        if launch.sim_seconds > cfg.time_budget {
            return Err(EngineError::OutOfTime {
                budget_secs: cfg.time_budget,
            });
        }
        let mut steps_taken = 0;
        let mut paths = record.then(|| vec![Vec::new(); queries.len()]);
        for out in &launch.outputs {
            for (q, path, s) in out {
                steps_taken += s;
                if let Some(paths) = &mut paths {
                    paths[*q] = path.clone();
                }
            }
        }
        let saturated_seconds = self
            .spec
            .saturated_seconds(&launch.stats)
            .min(launch.sim_seconds);
        let mut sampler_steps = SamplerTally::new();
        sampler_steps.record(self.kind.sampler_id(), steps_taken);
        Ok(RunReport {
            engine: self.name,
            graph_version: snap.version,
            sim_seconds: launch.sim_seconds,
            saturated_seconds,
            stats: launch.stats,
            queries: queries.len(),
            steps_taken,
            paths,
            sampler_steps,
            sampler_state_builds: 0,
            sampler_state_hits: 0,
            profile_seconds: 0.0,
            preprocess_seconds: 0.0,
            warnings: Vec::new(),
            watts: self.spec.load_watts,
            shards: None,
            blocks: None,
        })
    }
}

type WarpFinished = Vec<(usize, Vec<NodeId>, u64)>;

/// One warp of a fixed-kernel baseline: 32 lanes of queries, each stepped
/// with the system's sampler until the batch drains.
#[allow(clippy::too_many_arguments)]
fn baseline_warp(
    ctx: &mut WarpCtx,
    g: &Csr,
    w: &dyn DynamicWalk,
    queue: &QueryQueue,
    queries: &[NodeId],
    steps: usize,
    record: bool,
    kind: GpuBaselineKind,
    bytes_per_weight: usize,
    const_bound: Option<f32>,
) -> WarpFinished {
    struct Lane {
        query: usize,
        state: WalkState,
        path: Vec<NodeId>,
        steps_taken: u64,
    }
    let mut out = Vec::new();
    let mut lanes: [Option<Lane>; WARP_SIZE] = std::array::from_fn(|_| None);
    loop {
        let mut any = false;
        for slot in lanes.iter_mut() {
            if slot.is_none() {
                ctx.atomic();
                if let Some(q) = queue.pop() {
                    let start = queries[q];
                    let mut path = Vec::new();
                    if record {
                        path.push(start);
                    }
                    *slot = Some(Lane {
                        query: q,
                        state: WalkState::start(start),
                        path,
                        steps_taken: 0,
                    });
                }
            }
            any |= slot.is_some();
        }
        if !any {
            break;
        }
        #[allow(clippy::needless_range_loop)]
        for l in 0..WARP_SIZE {
            let Some(lane) = lanes[l].as_mut() else {
                continue;
            };
            let deg = g.degree(lane.state.cur);
            if lane.state.step >= steps || deg == 0 {
                let lane = lanes[l].take().expect("checked Some");
                out.push((lane.query, lane.path, lane.steps_taken));
                continue;
            }
            let state = lane.state;
            let range = g.edge_range(state.cur);
            let wf = |i: usize| w.weight(g, &state, range.start + i);
            let view = NeighborView::new(&wf, deg, bytes_per_weight);
            let sampler = kind.sampler();
            let picked = match sampler.granularity() {
                Granularity::Warp => sampler.sample_warp(ctx, &view),
                // NextDoor skips its max reduction only when the bound is a
                // static hyperparameter constant (unweighted Node2Vec /
                // MetaPath — its "partial" dynamic support); a `None` bound
                // makes the sampler pay the transit-scattered exact max.
                Granularity::Lane => sampler.sample_lane(ctx, l, &view, const_bound),
            };
            let lane = lanes[l].as_mut().expect("still Some");
            match picked {
                Some(i) => {
                    let next = g.neighbor(lane.state.cur, i);
                    lane.state.advance(next);
                    lane.steps_taken += 1;
                    if record {
                        lane.path.push(next);
                    }
                }
                None => {
                    let lane = lanes[l].take().expect("checked Some");
                    out.push((lane.query, lane.path, lane.steps_taken));
                }
            }
        }
    }
    out
}

macro_rules! baseline_engine {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $kind:expr) => {
        $(#[$doc])*
        #[derive(Clone, Debug)]
        pub struct $ty {
            inner: GpuBaseline,
        }

        impl $ty {
            /// Creates the engine on the given device.
            pub fn new(spec: DeviceSpec) -> Self {
                Self {
                    inner: GpuBaseline {
                        spec,
                        kind: $kind,
                        name: $name,
                    },
                }
            }
        }

        impl WalkEngine for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
                self.inner.run_impl(req)
            }
        }
    };
}

baseline_engine!(
    /// C-SAW (Pandey et al., SC'20): warp-centric inverse-transform
    /// sampling, dynamic-extended per the paper's methodology.
    CSawGpu,
    "C-SAW",
    GpuBaselineKind::Its
);

baseline_engine!(
    /// NextDoor (Jangda et al., EuroSys'21): transit-parallel rejection
    /// sampling with an exact per-step max reduction.
    NextDoorGpu,
    "NextDoor",
    GpuBaselineKind::RjsExactMax
);

baseline_engine!(
    /// Skywalker (Wang et al., PACT'21): alias-method sampling with
    /// per-step table construction for dynamic walks.
    SkywalkerGpu,
    "Skywalker",
    GpuBaselineKind::Alias
);

baseline_engine!(
    /// FlowWalker (Mei et al., VLDB'24): the state-of-the-art dynamic-walk
    /// GPU framework, prefix-sum parallel reservoir sampling.
    FlowWalkerGpu,
    "FlowWalker",
    GpuBaselineKind::RvsPrefix
);

#[cfg(test)]
mod tests {
    use super::*;
    use flexi_core::{FlexiWalkerEngine, Node2Vec, UniformWalk, WalkConfig};
    use flexi_graph::{gen, CsrBuilder, WeightModel};
    use flexi_sampling::stat;

    fn graph() -> Csr {
        let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 99);
        WeightModel::UniformReal.apply(g, 99)
    }

    fn cfg() -> WalkConfig {
        WalkConfig {
            steps: 10,
            record_paths: true,
            ..WalkConfig::default()
        }
    }

    fn run(
        engine: &dyn WalkEngine,
        g: &Csr,
        w: impl flexi_core::IntoWalker,
        queries: &[NodeId],
        c: &WalkConfig,
    ) -> Result<RunReport, EngineError> {
        engine.run(&WalkRequest::new(g.clone(), w, queries).with_config(c.clone()))
    }

    #[test]
    fn all_gpu_baselines_produce_valid_walks() {
        let g = graph();
        let queries: Vec<NodeId> = (0..64).collect();
        let w = Node2Vec::paper(true);
        for e in crate::gpu_baselines(DeviceSpec::tiny()) {
            let r = run(e.as_ref(), &g, &w, &queries, &cfg()).unwrap();
            assert!(r.sim_seconds > 0.0, "{}", e.name());
            assert_eq!(r.queries, 64);
            assert_eq!(
                r.sampler_steps.total(),
                r.steps_taken,
                "{} must report its fixed kernel's steps",
                e.name()
            );
            for path in r.paths.as_ref().unwrap() {
                for pair in path.windows(2) {
                    assert!(
                        g.has_edge(pair[0], pair[1]),
                        "{} walked a non-edge",
                        e.name()
                    );
                }
            }
        }
    }

    #[test]
    fn baseline_single_step_distributions_match() {
        let mut b = CsrBuilder::new(5);
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        for (i, &wgt) in weights.iter().enumerate() {
            b.push_weighted(0, (i + 1) as u32, wgt);
        }
        let g = b.build().unwrap();
        let w = UniformWalk;
        for engine in crate::gpu_baselines(DeviceSpec::tiny()) {
            let mut counts = vec![0u64; 4];
            for seed in 0..4000u64 {
                let mut c = cfg();
                c.steps = 1;
                c.seed = seed;
                let r = run(engine.as_ref(), &g, &w, &[0], &c).unwrap();
                let path = &r.paths.as_ref().unwrap()[0];
                counts[(path[1] - 1) as usize] += 1;
            }
            stat::assert_matches_distribution(&counts, &stat::normalize(&weights), engine.name());
        }
    }

    #[test]
    fn flexiwalker_beats_every_baseline_on_weighted_node2vec() {
        // The headline claim of Table 2 at proxy scale.
        let g = graph();
        let queries: Vec<NodeId> = (0..128).collect();
        let w = Node2Vec::paper(true);
        let mut c = cfg();
        c.record_paths = false;
        let flexi = run(
            &FlexiWalkerEngine::new(DeviceSpec::a6000()),
            &g,
            &w,
            &queries,
            &c,
        )
        .unwrap();
        for e in crate::gpu_baselines(DeviceSpec::a6000()) {
            let r = run(e.as_ref(), &g, &w, &queries, &c).unwrap();
            assert!(
                flexi.sim_seconds < r.sim_seconds,
                "FlexiWalker ({}) not faster than {} ({})",
                flexi.sim_seconds,
                e.name(),
                r.sim_seconds
            );
        }
    }

    #[test]
    fn its_and_alias_pay_auxiliary_build_costs() {
        // Fig. 3's mechanism: ITS/ALS charge more traffic than RVS.
        let g = graph();
        let queries: Vec<NodeId> = (0..64).collect();
        let w = Node2Vec::paper(true);
        let mut c = cfg();
        c.record_paths = false;
        let its = run(&CSawGpu::new(DeviceSpec::tiny()), &g, &w, &queries, &c).unwrap();
        let als = run(&SkywalkerGpu::new(DeviceSpec::tiny()), &g, &w, &queries, &c).unwrap();
        let rvs = run(
            &FlowWalkerGpu::new(DeviceSpec::tiny()),
            &g,
            &w,
            &queries,
            &c,
        )
        .unwrap();
        assert!(its.sim_seconds > rvs.sim_seconds);
        assert!(als.sim_seconds > rvs.sim_seconds);
    }

    #[test]
    fn nextdoor_oom_on_vram_pressure() {
        let g = graph();
        let mut spec = DeviceSpec::tiny();
        // Graph fits, NextDoor's sort buffers (16 B/edge) do not.
        spec.vram_bytes = g.memory_bytes() + 8 * g.num_edges();
        let err = run(
            &NextDoorGpu::new(spec.clone()),
            &g,
            &Node2Vec::paper(true),
            &[0, 1],
            &cfg(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
        // FlowWalker fits in the same VRAM.
        assert!(run(
            &FlowWalkerGpu::new(spec),
            &g,
            &Node2Vec::paper(true),
            &[0, 1],
            &cfg()
        )
        .is_ok());
    }

    #[test]
    fn oot_budget_respected() {
        let g = graph();
        let queries: Vec<NodeId> = (0..128).collect();
        let mut c = cfg();
        c.time_budget = 1e-12;
        let err = run(
            &CSawGpu::new(DeviceSpec::tiny()),
            &g,
            &Node2Vec::paper(true),
            &queries,
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::OutOfTime { .. }));
    }
}
