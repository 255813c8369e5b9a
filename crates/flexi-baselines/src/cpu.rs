//! CPU baseline engines: ThunderRW, SOWalker, KnightKing.
//!
//! Each engine executes the *real* scalar sampling algorithms from
//! `flexi-sampling` per walk step and converts the resulting operation
//! counts into simulated time through [`CpuSpec`], keeping every system in
//! the same simulated-time universe as the GPU engines.

use flexi_core::energy::{CPU_LOAD_WATTS, CPU_OOC_WATTS};
use flexi_core::{
    CompiledWalker, EngineError, RowScratch, RunReport, SamplerTally, WalkEngine, WalkRequest,
    WalkState,
};
use flexi_gpu_sim::CostStats;
use flexi_rng::Xoshiro256pp;
use flexi_sampling::ids;
use flexi_sampling::scalar::{exact_max, sample_its, sample_rejection, ScalarCost};

/// Abstract cycle costs of a server CPU (per-core).
#[derive(Clone, Copy, Debug)]
pub struct CpuSpec {
    /// Worker cores available to the engine.
    pub cores: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Cycles per sequential transition-weight evaluation.
    pub cycles_weight_eval: u64,
    /// Cycles per RNG draw.
    pub cycles_rng: u64,
    /// Cycles per auxiliary-structure element op (prefix add, alias move).
    pub cycles_aux: u64,
    /// Cycles per random memory probe (LLC miss likely).
    pub cycles_probe: u64,
    /// Sustained package watts under load.
    pub watts: f64,
}

impl CpuSpec {
    /// The paper's host CPU: AMD EPYC 9124P, 16 cores.
    pub fn epyc_9124p() -> Self {
        Self {
            cores: 16,
            clock_ghz: 3.0,
            cycles_weight_eval: 24,
            cycles_rng: 20,
            cycles_aux: 6,
            cycles_probe: 90,
            watts: CPU_LOAD_WATTS,
        }
    }

    /// Converts accumulated scalar-operation counts into cycles.
    pub fn cycles(&self, c: &ScalarCost) -> u64 {
        c.weight_evals * self.cycles_weight_eval
            + c.rng_draws * self.cycles_rng
            + c.aux_ops * self.cycles_aux
            + c.probe_reads * self.cycles_probe
    }

    /// Converts cycles into seconds assuming perfect query parallelism
    /// across cores (random walks are embarrassingly parallel).
    pub fn seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.cores as f64 * self.clock_ghz * 1e9)
    }
}

/// Which scalar sampler a CPU engine uses per step.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CpuSampler {
    /// Inverse transform (prefix sums rebuilt every step).
    Its,
    /// Rejection with a constant, workload-derived bound.
    RjsConstBound(f32),
    /// Rejection with an exact max scan every step (KnightKing dynamic).
    RjsExactMax,
}

/// Picks the sampler a CPU system uses for a lowered walker — RJS only
/// when the compiled bound is a kernel-wide constant (unweighted Node2Vec
/// / MetaPath), ITS otherwise.
fn sampler_for(walker: &CompiledWalker, rjs_capable: bool) -> CpuSampler {
    if rjs_capable {
        if let Some(bound) = walker.static_bound() {
            return CpuSampler::RjsConstBound(bound);
        }
    }
    CpuSampler::Its
}

impl CpuSampler {
    /// Report key of the scalar strategy this CPU system runs.
    fn sampler_id(self) -> flexi_sampling::SamplerId {
        match self {
            Self::Its => ids::ITS,
            Self::RjsConstBound(_) | Self::RjsExactMax => ids::RJS,
        }
    }
}

/// Shared walk loop of all CPU engines.
fn cpu_run(
    engine_name: &'static str,
    spec: &CpuSpec,
    sampler: CpuSampler,
    io_model: Option<&IoModel>,
    req: &WalkRequest,
    watts: f64,
) -> Result<RunReport, EngineError> {
    // The scalar step loop neither masks nor moves a walk clock.
    req.require_untimed()?;
    let snap = req.snapshot();
    let g: &flexi_graph::Csr = &snap.graph;
    let w = req.walker.get()?.walk_dyn();
    let queries: &[flexi_graph::NodeId] = &req.queries;
    let cfg = &req.config;
    let steps = w.preferred_steps().unwrap_or(cfg.steps);
    let mut total = ScalarCost::default();
    let mut io_cycles: u64 = 0;
    let mut steps_taken = 0u64;
    let mut paths = cfg.record_paths.then(|| vec![Vec::new(); queries.len()]);
    let base = Xoshiro256pp::new(cfg.seed ^ 0xC0FE);
    let mut scratch = RowScratch::default();

    for (qi, &start) in queries.iter().enumerate() {
        let mut rng = base.nth_jump(qi % 64);
        // Decorrelate queries sharing a jump stream.
        for _ in 0..(qi / 64) {
            use flexi_rng::RandomSource;
            rng.next_u64();
        }
        let mut st = WalkState::start(start);
        if let Some(paths) = &mut paths {
            paths[qi].push(start);
        }
        for _ in 0..steps {
            let range = g.edge_range(st.cur);
            let deg = range.len();
            if deg == 0 {
                break;
            }
            if let Some(io) = io_model {
                io_cycles += io.step_cost(deg);
            }
            let picked = match sampler {
                CpuSampler::Its => {
                    w.fill_row(g, &st, range.clone(), &mut scratch);
                    total.weight_evals += deg as u64;
                    let (p, c) = sample_its(&scratch.weights, &mut rng);
                    total.add(&c);
                    p
                }
                CpuSampler::RjsConstBound(bound) => {
                    let (p, c) = flexi_sampling::scalar::sample_rejection_fn(
                        |i| w.weight(g, &st, range.start + i),
                        deg,
                        bound,
                        &mut rng,
                    );
                    total.add(&c);
                    p
                }
                CpuSampler::RjsExactMax => {
                    w.fill_row(g, &st, range.clone(), &mut scratch);
                    total.weight_evals += deg as u64;
                    let (mx, c1) = exact_max(&scratch.weights);
                    total.add(&c1);
                    if mx <= 0.0 {
                        None
                    } else {
                        let (p, c2) = sample_rejection(&scratch.weights, mx, &mut rng);
                        total.add(&c2);
                        p
                    }
                }
            };
            let Some(i) = picked else { break };
            let next = g.neighbor(st.cur, i);
            st.advance(next);
            steps_taken += 1;
            if let Some(paths) = &mut paths {
                paths[qi].push(next);
            }
        }
        // Periodic OOT check keeps hostile configurations from spinning.
        if qi % 64 == 0 {
            let secs = spec.seconds(spec.cycles(&total) + io_cycles);
            if secs > cfg.time_budget {
                return Err(EngineError::OutOfTime {
                    budget_secs: cfg.time_budget,
                });
            }
        }
    }
    let sim_seconds = spec.seconds(spec.cycles(&total) + io_cycles);
    if sim_seconds > cfg.time_budget {
        return Err(EngineError::OutOfTime {
            budget_secs: cfg.time_budget,
        });
    }
    Ok(RunReport {
        engine: engine_name,
        graph_version: snap.version,
        sim_seconds,
        saturated_seconds: sim_seconds,
        stats: CostStats {
            alu_ops: total.weight_evals + total.aux_ops,
            rng_draws: total.rng_draws,
            random_transactions: total.probe_reads,
            ..Default::default()
        },
        queries: queries.len(),
        steps_taken,
        paths,
        sampler_steps: {
            let mut t = SamplerTally::new();
            t.record(sampler.sampler_id(), steps_taken);
            t
        },
        sampler_state_builds: 0,
        sampler_state_hits: 0,
        profile_seconds: 0.0,
        preprocess_seconds: 0.0,
        warnings: Vec::new(),
        watts,
        shards: None,
        blocks: None,
    })
}

/// Out-of-core I/O penalty model for SOWalker.
#[derive(Clone, Copy, Debug)]
struct IoModel {
    /// Probability (×1e6) that a step's block is not cached.
    miss_ppm: u64,
    /// Cycles a block load costs (NVMe latency at CPU clock).
    block_cycles: u64,
}

impl IoModel {
    fn step_cost(&self, deg: usize) -> u64 {
        // Deterministic expectation: every step pays miss-probability ×
        // block cost; high-degree nodes span more blocks.
        let blocks = 1 + (deg / 4096) as u64;
        self.miss_ppm * self.block_cycles * blocks / 1_000_000
    }
}

/// ThunderRW (Sun et al., VLDB'21): in-memory CPU engine; step-interleaved
/// execution with ITS for dynamic walks, RJS for unweighted Node2Vec.
#[derive(Clone, Debug)]
pub struct ThunderRwCpu {
    spec: CpuSpec,
}

impl ThunderRwCpu {
    /// Creates the engine on the given CPU.
    pub fn new(spec: CpuSpec) -> Self {
        Self { spec }
    }
}

impl WalkEngine for ThunderRwCpu {
    fn name(&self) -> &'static str {
        "ThunderRW"
    }

    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        let sampler = sampler_for(req.walker.get()?, true);
        cpu_run(self.name(), &self.spec, sampler, None, req, self.spec.watts)
    }
}

/// SOWalker (Wu et al., ATC'23): out-of-core second-order walk engine;
/// same samplers as ThunderRW plus a block-I/O penalty.
#[derive(Clone, Debug)]
pub struct SoWalkerCpu {
    spec: CpuSpec,
    /// Fraction of graph blocks resident in memory, in ppm of steps that
    /// miss. Out-of-core systems cache hot blocks; walks still miss often.
    miss_ppm: u64,
}

impl SoWalkerCpu {
    /// Creates the engine with the default miss rate (25% of steps).
    pub fn new(spec: CpuSpec) -> Self {
        Self {
            spec,
            miss_ppm: 250_000,
        }
    }
}

impl WalkEngine for SoWalkerCpu {
    fn name(&self) -> &'static str {
        "SOWalker"
    }

    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        let sampler = sampler_for(req.walker.get()?, true);
        let io = IoModel {
            miss_ppm: self.miss_ppm,
            // ~20 µs NVMe block read at 3 GHz.
            block_cycles: 60_000,
        };
        cpu_run(
            self.name(),
            &self.spec,
            sampler,
            Some(&io),
            req,
            CPU_OOC_WATTS,
        )
    }
}

/// KnightKing (Yang et al., SOSP'19): distributed CPU engine; rejection
/// sampling with an exact per-step max for dynamic walks.
#[derive(Clone, Debug)]
pub struct KnightKingCpu {
    spec: CpuSpec,
}

impl KnightKingCpu {
    /// Creates the engine on the given CPU.
    pub fn new(spec: CpuSpec) -> Self {
        Self { spec }
    }
}

impl WalkEngine for KnightKingCpu {
    fn name(&self) -> &'static str {
        "KnightKing"
    }

    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        // KnightKing's dynamic path uses rejection; the bound is exact when
        // statically known, otherwise an exact max scan per step.
        let sampler = match req.walker.get()?.static_bound() {
            Some(b) => CpuSampler::RjsConstBound(b),
            None => CpuSampler::RjsExactMax,
        };
        cpu_run(self.name(), &self.spec, sampler, None, req, self.spec.watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexi_core::{DynamicWalk, MetaPath, Node2Vec, SecondOrderPr, WalkConfig};
    use flexi_graph::{gen, props, Csr, CsrBuilder, NodeId, WeightModel};
    use flexi_sampling::stat;

    fn graph() -> Csr {
        let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 77);
        WeightModel::UniformReal.apply(g, 77)
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
    fn all_cpu_engines_produce_valid_walks() {
        let g = graph();
        let queries: Vec<NodeId> = (0..32).collect();
        let w = Node2Vec::paper(true);
        let engines: Vec<Box<dyn WalkEngine>> = vec![
            Box::new(ThunderRwCpu::new(CpuSpec::epyc_9124p())),
            Box::new(SoWalkerCpu::new(CpuSpec::epyc_9124p())),
            Box::new(KnightKingCpu::new(CpuSpec::epyc_9124p())),
        ];
        for e in &engines {
            let r = run(e.as_ref(), &g, &w, &queries, &cfg()).unwrap();
            assert!(r.sim_seconds > 0.0, "{}", e.name());
            for path in r.paths.as_ref().unwrap() {
                for pair in path.windows(2) {
                    assert!(g.has_edge(pair[0], pair[1]), "{}", e.name());
                }
            }
        }
    }

    #[test]
    fn unweighted_node2vec_selects_constant_bound_rjs() {
        let lower = |w: Node2Vec| {
            flexi_core::WalkerDef::native(w.name().to_string(), w)
                .lower()
                .unwrap()
        };
        match sampler_for(&lower(Node2Vec::paper(false)), true) {
            CpuSampler::RjsConstBound(b) => assert_eq!(b, 2.0), // 1/b = 2.
            other => panic!("expected const-bound RJS, got {other:?}"),
        }
        assert_eq!(
            sampler_for(&lower(Node2Vec::paper(true)), true),
            CpuSampler::Its
        );
    }

    #[test]
    fn cpu_walk_single_step_matches_distribution() {
        let mut b = CsrBuilder::new(5);
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        for (i, &wgt) in weights.iter().enumerate() {
            b.push_weighted(0, (i + 1) as u32, wgt);
        }
        let g = b.build().unwrap();
        let w = flexi_core::UniformWalk;
        let engine = ThunderRwCpu::new(CpuSpec::epyc_9124p());
        let mut counts = vec![0u64; 4];
        for seed in 0..6000u64 {
            let mut c = cfg();
            c.steps = 1;
            c.seed = seed;
            let r = run(&engine, &g, &w, &[0], &c).unwrap();
            let path = &r.paths.as_ref().unwrap()[0];
            counts[(path[1] - 1) as usize] += 1;
        }
        stat::assert_matches_distribution(&counts, &stat::normalize(&weights), "cpu its");
    }

    #[test]
    fn sowalker_pays_io_penalty_over_thunderrw() {
        let g = graph();
        let queries: Vec<NodeId> = (0..64).collect();
        let w = SecondOrderPr::paper();
        let t = run(
            &ThunderRwCpu::new(CpuSpec::epyc_9124p()),
            &g,
            &w,
            &queries,
            &cfg(),
        )
        .unwrap();
        let s = run(
            &SoWalkerCpu::new(CpuSpec::epyc_9124p()),
            &g,
            &w,
            &queries,
            &cfg(),
        )
        .unwrap();
        assert!(
            s.sim_seconds > t.sim_seconds,
            "out-of-core must be slower: {} vs {}",
            s.sim_seconds,
            t.sim_seconds
        );
    }

    #[test]
    fn knightking_exact_max_is_slower_than_its_on_weighted() {
        let g = graph();
        let queries: Vec<NodeId> = (0..64).collect();
        let w = Node2Vec::paper(true);
        let kk = run(
            &KnightKingCpu::new(CpuSpec::epyc_9124p()),
            &g,
            &w,
            &queries,
            &cfg(),
        )
        .unwrap();
        let t = run(
            &ThunderRwCpu::new(CpuSpec::epyc_9124p()),
            &g,
            &w,
            &queries,
            &cfg(),
        )
        .unwrap();
        assert!(kk.sim_seconds > 0.0 && t.sim_seconds > 0.0);
    }

    #[test]
    fn metapath_walks_respect_schema() {
        let g = props::assign_uniform_labels(graph(), 5, 3);
        let w = MetaPath::paper(true);
        let r = run(
            &ThunderRwCpu::new(CpuSpec::epyc_9124p()),
            &g,
            &w,
            &(0..32).collect::<Vec<_>>(),
            &cfg(),
        )
        .unwrap();
        for path in r.paths.as_ref().unwrap() {
            assert!(path.len() <= 6);
        }
    }

    #[test]
    fn time_budget_triggers_oot() {
        let g = graph();
        let queries: Vec<NodeId> = (0..256).collect();
        let mut c = cfg();
        c.time_budget = 1e-15;
        let err = run(
            &ThunderRwCpu::new(CpuSpec::epyc_9124p()),
            &g,
            &Node2Vec::paper(true),
            &queries,
            &c,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::OutOfTime { .. }));
    }

    #[test]
    fn cpu_spec_cycle_math() {
        let s = CpuSpec::epyc_9124p();
        let c = ScalarCost {
            weight_evals: 10,
            rng_draws: 5,
            aux_ops: 2,
            probe_reads: 1,
        };
        assert_eq!(s.cycles(&c), 10 * 24 + 5 * 20 + 2 * 6 + 90);
        assert!((s.seconds(48_000_000_000) - 1.0).abs() < 1e-9);
    }
}
