//! The FlexiWalker execution engine (paper §5).
//!
//! One persistent warp kernel interleaves the registered samplers: every
//! lane owns a walk query, thread-granular strategies (eRJS trials) run
//! per lane, and when a ballot finds lanes that chose a warp-granular
//! strategy (eRVS) the whole warp executes it for those lanes one at a
//! time, sharing query parameters through shuffles — the §5.2 design
//! generalised over the pluggable [`SamplerRegistry`]. Queries are pulled
//! from the §5.3 atomic queue, and every step consults Flexi-Runtime for
//! the sampler choice.
//!
//! Work is described by a [`WalkRequest`] job struct — an *owned* job
//! with no borrow lifetimes: the graph is an epoch-versioned
//! [`GraphHandle`], the workload and query set are shared `Arc`s. Engines
//! implement [`WalkEngine::run`] over it, pinning one [`GraphSnapshot`]
//! per launch so a run sees a consistent graph version even while updates
//! land on the handle. Every walk query draws from its own Philox stream
//! keyed by the request's [`WalkRequest::query_offset`], so paths are
//! identical regardless of warp placement, host-thread count, or how a
//! query set is split across requests — the foundation of the session
//! API's batching guarantee.

use crate::preprocess::Aggregates;
use crate::profile::{run_profile, ProfileResult};
use crate::queue::QueryQueue;
use crate::runtime::{lower_estimator, ChurnProfile, CostModel, RuntimeEnv, SelectionStrategy};
use crate::walker::{CompiledWalker, IntoWalker, WalkerHandle, WalkerRegistry};
use crate::workload::{DynamicWalk, RowScratch, WalkState};
use flexi_compiler::{BoundGranularity, CompiledWalk, LoweredEstimator};
use flexi_gpu_sim::{CostStats, Device, DeviceSpec, WarpCtx, WARP_SIZE};
use flexi_graph::{
    Csr, DynState, EdgeId, GraphHandle, GraphSnapshot, GraphVersion, NodeId, PlanFetch,
    StateMaintainer, TimeWindow,
};
use flexi_rng::Philox4x32;
use flexi_sampling::kernels::{warp_max_reduce, ErvsMode, NeighborView};
use flexi_sampling::{
    ErvsSampler, Granularity, NodeState, Sampler, SamplerId, SamplerRegistry, StateTable,
};
use std::sync::Arc;

/// Default simulated-time budget (the paper's 12-hour OOT cutoff).
pub const DEFAULT_TIME_BUDGET: f64 = 12.0 * 3600.0;

/// Seed salt separating per-query streams from per-lane warp streams.
const QUERY_STREAM_SALT: u64 = 0x51E5_7A1C_0FFE_E75D;

/// The one seed every §5.1 profile runs under (its result does not depend
/// on the seed; see [`FlexiWalkerEngine::profile_for`]).
const PROFILE_SEED: u64 = 0x5EED;

/// Run configuration shared by every engine.
#[derive(Clone, Debug)]
pub struct WalkConfig {
    /// Steps per walk (the paper uses 80; MetaPath overrides to its schema
    /// depth via [`DynamicWalk::preferred_steps`]).
    pub steps: usize,
    /// Whether to materialise full walk paths in the report.
    pub record_paths: bool,
    /// Simulated-seconds budget; exceeding it is an OOT (paper §6.1).
    pub time_budget: f64,
    /// Host threads for warp execution (walk paths are identical at any
    /// thread count thanks to per-query RNG streams).
    pub host_threads: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for WalkConfig {
    fn default() -> Self {
        Self {
            steps: 80,
            record_paths: false,
            time_budget: DEFAULT_TIME_BUDGET,
            host_threads: 1,
            seed: 0x5EED,
        }
    }
}

/// Conversion into the shared query set a [`WalkRequest`] owns.
pub trait IntoQueries {
    /// Produces the request's shared query set.
    fn into_queries(self) -> Arc<[NodeId]>;
}

impl IntoQueries for Arc<[NodeId]> {
    fn into_queries(self) -> Arc<[NodeId]> {
        self
    }
}

impl IntoQueries for Vec<NodeId> {
    fn into_queries(self) -> Arc<[NodeId]> {
        self.into()
    }
}

impl IntoQueries for &Vec<NodeId> {
    fn into_queries(self) -> Arc<[NodeId]> {
        self.as_slice().into()
    }
}

impl IntoQueries for &[NodeId] {
    fn into_queries(self) -> Arc<[NodeId]> {
        self.into()
    }
}

impl<const N: usize> IntoQueries for &[NodeId; N] {
    fn into_queries(self) -> Arc<[NodeId]> {
        self.as_slice().into()
    }
}

/// One walk job: the graph handle to walk, the walker, the query set,
/// and the run configuration — the unit both [`WalkEngine::run`] and the
/// session API operate on.
///
/// The request is fully owned (no borrow lifetimes): the graph travels as
/// an epoch-versioned [`GraphHandle`] and the walk algorithm as a
/// [`WalkerHandle`] — either already lowered, or a registry name the
/// serving session/engine resolves at run time. A request can outlive the
/// scope that built it, cross threads, and keep serving after runtime
/// updates — engines resolve the graph handle to a pinned
/// [`GraphSnapshot`] at launch.
#[derive(Clone)]
pub struct WalkRequest {
    /// Versioned handle of the graph being walked.
    pub graph: GraphHandle,
    /// The walk algorithm, addressed by handle.
    pub walker: WalkerHandle,
    /// Starting nodes, one walk each.
    pub queries: Arc<[NodeId]>,
    /// Run configuration.
    pub config: WalkConfig,
    /// Global index of `queries[0]` in the submitter's cumulative query
    /// stream.
    ///
    /// [`FlexiWalkerEngine`] (and therefore the session API built on it)
    /// draws query `i`'s randomness from Philox stream `query_offset + i`,
    /// so two requests covering the same global indices (with the same
    /// seed) produce identical paths regardless of how the set is batched.
    /// Baseline engines seed their RNG from the config seed alone and
    /// ignore this field — the batch-split guarantee is FlexiWalker's.
    pub query_offset: u64,
    /// Restricts the walk to edges whose timestamp falls inside this
    /// half-open window: masked-out edges weigh `0.0` and are never
    /// traversed, and walks start with their clock at `window.t0`. `None`
    /// walks the whole graph (equivalent to [`TimeWindow::all`]).
    ///
    /// The window is resolved against the pinned snapshot through the
    /// handle's per-epoch [`TimeMask`](flexi_graph::TimeMask) cache.
    pub window: Option<TimeWindow>,
}

impl WalkRequest {
    /// A request with the default [`WalkConfig`] and offset 0.
    ///
    /// `graph` accepts a `&GraphHandle` (cheap clone of the same versioned
    /// graph), an owned [`GraphHandle`], or a bare [`Csr`] / `Arc<Csr>`
    /// (wrapped in a fresh handle). `walker` accepts a registry name
    /// (`"node2vec"`), a `&W` workload struct, an `Arc<dyn DynamicWalk>`,
    /// a lowered [`CompiledWalker`] or an existing [`WalkerHandle`];
    /// `queries` accepts slices, vectors or a shared `Arc<[NodeId]>`.
    pub fn new(
        graph: impl Into<GraphHandle>,
        walker: impl IntoWalker,
        queries: impl IntoQueries,
    ) -> Self {
        Self {
            graph: graph.into(),
            walker: walker.into_walker(),
            queries: queries.into_queries(),
            config: WalkConfig::default(),
            query_offset: 0,
            window: None,
        }
    }

    /// Pins the request's current graph version for one launch.
    pub fn snapshot(&self) -> GraphSnapshot {
        self.graph.snapshot()
    }

    /// Replaces the walker handle (e.g. with a registry-resolved one).
    pub fn with_walker(mut self, walker: WalkerHandle) -> Self {
        self.walker = walker;
        self
    }

    /// Replaces the run configuration.
    pub fn with_config(mut self, config: WalkConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the walk length.
    pub fn steps(mut self, steps: usize) -> Self {
        self.config.steps = steps;
        self
    }

    /// Sets the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Enables or disables path recording.
    pub fn record_paths(mut self, record: bool) -> Self {
        self.config.record_paths = record;
        self
    }

    /// Sets the host-thread count for warp execution.
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.config.host_threads = threads;
        self
    }

    /// Sets the simulated-time budget.
    pub fn time_budget(mut self, seconds: f64) -> Self {
        self.config.time_budget = seconds;
        self
    }

    /// Sets the global query-stream offset (see [`WalkRequest::query_offset`]).
    pub fn query_offset(mut self, offset: u64) -> Self {
        self.query_offset = offset;
        self
    }

    /// Restricts the walk to edges timestamped inside `window`
    /// (see [`WalkRequest::window`]).
    pub fn window(mut self, window: TimeWindow) -> Self {
        self.window = Some(window);
        self
    }

    /// Refuses what a step loop without a time mask or a walk clock would
    /// walk wrong: a request with a time window, or a walker that reads
    /// `edge_time` / `walk_time` ([`CompiledWalker::reads_time`]). Engines
    /// with such a loop call this first instead of returning paths over
    /// edges outside the window or behind the clock.
    ///
    /// # Errors
    ///
    /// [`EngineError::Unsupported`] for either case, and
    /// [`EngineError::UnknownWalker`] for an unresolved walker name.
    pub fn require_untimed(&self) -> Result<(), EngineError> {
        if self.window.is_some() {
            return Err(EngineError::Unsupported("time windows"));
        }
        if self.walker.get()?.reads_time() {
            return Err(EngineError::Unsupported(
                "walkers that read edge timestamps or the walk clock",
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for WalkRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalkRequest")
            .field("graph", &self.graph.version())
            .field("walker", &self.walker)
            .field("queries", &self.queries.len())
            .field("config", &self.config)
            .field("query_offset", &self.query_offset)
            .field("window", &self.window)
            .finish()
    }
}

/// Errors every engine can report (the paper's OOM / OOT / unsupported
/// table entries).
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// Device memory exhausted.
    OutOfMemory {
        /// Bytes the failing allocation requested.
        requested: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// Simulated time exceeded the budget.
    OutOfTime {
        /// The exceeded budget in simulated seconds.
        budget_secs: f64,
    },
    /// The engine cannot run this workload at all.
    Unsupported(&'static str),
    /// The request addressed a walker name no registry resolves.
    UnknownWalker {
        /// The unresolved walker name.
        name: String,
    },
    /// A walker definition failed to lower (malformed DSL, unresolvable
    /// references, invalid overrides).
    WalkerCompile {
        /// The walker's registry name.
        name: String,
        /// The compiler's diagnostic.
        message: String,
    },
    /// Out-of-core block storage failed: the spill file could not be
    /// read, or a recorded step was absent from the owning block's
    /// adjacency (spill diverged from the served graph).
    Io(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfMemory {
                requested,
                available,
            } => write!(f, "OOM (requested {requested} B, available {available} B)"),
            Self::OutOfTime { budget_secs } => write!(f, "OOT (budget {budget_secs} s)"),
            Self::Unsupported(what) => write!(f, "unsupported: {what}"),
            Self::UnknownWalker { name } => write!(f, "unknown walker {name:?}"),
            Self::WalkerCompile { name, message } => {
                write!(f, "walker {name:?} failed to compile: {message}")
            }
            Self::Io(msg) => write!(f, "block I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Per-sampler step counts, keyed by [`SamplerId`].
///
/// Replaces the former hardcoded `chosen_rjs` / `chosen_rvs` report
/// fields: any registered strategy — including third-party ones — shows up
/// here under its own id.
#[derive(Clone, Debug, Default)]
pub struct SamplerTally {
    counts: Vec<(SamplerId, u64)>,
}

/// Equality is by per-sampler counts, independent of recording order —
/// warp-output order varies with host-thread scheduling and device merge
/// order, and must not make otherwise-identical reports compare unequal.
impl PartialEq for SamplerTally {
    fn eq(&self, other: &Self) -> bool {
        self.counts.iter().all(|(id, n)| other.get(id) == *n)
            && other.counts.iter().all(|(id, n)| self.get(id) == *n)
    }
}

impl Eq for SamplerTally {}

impl SamplerTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `steps` sampling steps under `id`.
    pub fn record(&mut self, id: SamplerId, steps: u64) {
        if steps == 0 {
            return;
        }
        match self.counts.iter_mut().find(|(k, _)| *k == id) {
            Some((_, n)) => *n += steps,
            None => self.counts.push((id, steps)),
        }
    }

    /// Steps sampled by `id` (0 if the strategy never ran).
    pub fn get(&self, id: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == id)
            .map_or(0, |(_, n)| *n)
    }

    /// Iterates `(id, steps)` pairs in first-recorded order.
    pub fn iter(&self) -> impl Iterator<Item = (SamplerId, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// Total steps across all strategies.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, n)| n).sum()
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: &SamplerTally) {
        for (id, n) in other.iter() {
            self.record(id, n);
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

impl std::fmt::Display for SamplerTally {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (id, n) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{id}: {n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Scale-out accounting for a run executed under a multi-device
/// [`Topology`](crate::topology::Topology): where steps executed and what
/// walker migration cost.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Number of shards (devices) the run spanned.
    pub shards: usize,
    /// Steps executed by each shard. Under a partitioned topology a step
    /// is attributed to the device owning the walker's *current* node;
    /// under a duplicated-graph topology, to the device serving the query.
    pub per_shard_steps: Vec<u64>,
    /// Walker migrations across the interconnect (partitioned topologies;
    /// zero when the graph is duplicated and walkers never move).
    pub migrations: u64,
    /// Simulated seconds the migrations spent on the link.
    pub link_seconds: f64,
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Engine name.
    pub engine: &'static str,
    /// The graph version the run was served from (which epoch of which
    /// handle) — lets callers correlate walk output with the update
    /// stream that produced the topology it traversed.
    pub graph_version: GraphVersion,
    /// Main walk time in simulated seconds (excludes profile/preprocess,
    /// which the paper reports separately in Table 3).
    pub sim_seconds: f64,
    /// Walk time under full device saturation: aggregate warp work divided
    /// by total device parallelism. Equals `sim_seconds` for saturated
    /// launches and for CPU engines; the harness extrapolates from this so
    /// an underfilled test launch does not penalise a device that would be
    /// full at paper scale.
    pub saturated_seconds: f64,
    /// Device activity of the main walk.
    pub stats: CostStats,
    /// Number of walk queries processed.
    pub queries: usize,
    /// Total steps taken across all walks.
    pub steps_taken: u64,
    /// Full paths (only when [`WalkConfig::record_paths`]).
    pub paths: Option<Vec<Vec<NodeId>>>,
    /// Sampling steps per strategy, keyed by sampler id.
    pub sampler_steps: SamplerTally,
    /// Sampler-state artifacts built from scratch for this run (cold
    /// epoch-cache misses on the incremental-state path).
    pub sampler_state_builds: u64,
    /// Sampler-state artifacts served from the handle's epoch cache.
    pub sampler_state_hits: u64,
    /// Profiling time (Table 3); zero when served from a session cache.
    pub profile_seconds: f64,
    /// Preprocessing time (Table 3); zero when served from a session cache.
    pub preprocess_seconds: f64,
    /// Compiler / runtime warnings.
    pub warnings: Vec<String>,
    /// Board power under load (energy model input, Fig. 16).
    pub watts: f64,
    /// Scale-out accounting, when the run spanned a multi-device
    /// topology (`None` for plain single-device runs).
    pub shards: Option<ShardStats>,
    /// Out-of-core accounting, when the run was served from disk-resident
    /// blocks under [`Topology::OutOfCore`](crate::Topology::OutOfCore)
    /// (`None` for memory-resident runs).
    pub blocks: Option<crate::out_of_core::BlockStats>,
}

impl RunReport {
    /// Energy of the main walk phase in joules.
    ///
    /// Uses the saturated time: load watts apply when the device is busy.
    pub fn joules(&self) -> f64 {
        self.watts * self.saturated_seconds
    }

    /// Joules per query (Fig. 16's metric).
    pub fn joules_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.joules() / self.queries as f64
        }
    }
}

/// Uniform interface over FlexiWalker and every baseline system.
pub trait WalkEngine: Sync {
    /// Engine name as used in the paper's tables.
    fn name(&self) -> &'static str;

    /// Runs the walk job described by `req`.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] / [`EngineError::OutOfTime`] /
    /// [`EngineError::Unsupported`] mirror the paper's OOM/OOT/`-` table
    /// entries.
    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError>;
}

/// Compile outcome for one workload — the estimator artifacts a session
/// caches across submissions.
#[derive(Clone, Debug, Default)]
pub struct CompiledArtifacts {
    /// The generated estimators, or `None` when the compiler fell back.
    pub compiled: Option<CompiledWalk>,
    /// Compiler warnings to surface in the run report.
    pub warnings: Vec<String>,
}

/// Runs Flexi-Compiler over the workload's `get_weight` spec — the same
/// lowering [`crate::walker::WalkerDef::lower`] performs, exposed for
/// callers holding a bare workload.
pub fn compile_workload(w: &dyn DynamicWalk) -> CompiledArtifacts {
    crate::walker::compile_spec(&w.spec())
}

/// Reusable per-(graph, workload) state: compiled estimators, preprocessed
/// aggregates, and the profiled cost model. Produced by
/// [`FlexiWalkerEngine::prepare`] and cached by the session API.
#[derive(Clone, Debug)]
pub struct PreparedState {
    /// Compile outcome.
    pub artifacts: CompiledArtifacts,
    /// Preprocessed `_MAX`/`_SUM` aggregates.
    pub aggregates: Arc<Aggregates>,
    /// Profiling outcome (`None` when profiling is disabled).
    pub profile: Option<ProfileResult>,
}

/// The FlexiWalker engine: compile → preprocess → profile → adaptive walk.
#[derive(Clone, Debug)]
pub struct FlexiWalkerEngine {
    spec: DeviceSpec,
    /// Sampler-selection strategy (Fig. 13 compares these).
    pub strategy: SelectionStrategy,
    /// Skip the profiling kernels and use the default cost ratio.
    pub skip_profile: bool,
    /// Pin the cost model's `EdgeCost_RJS / EdgeCost_RVS` ratio instead of
    /// profiling it (ratio-sensitivity ablations).
    pub cost_ratio_override: Option<f64>,
    /// Maintain per-node sampler state (alias tables / CDFs) through the
    /// graph handle's epoch cache and serve eligible walks from it.
    /// Opt-in: the state path changes RNG draw sequences, so runs with it
    /// on are bit-identical to each other but not to stateless runs.
    /// Silently inert for walkers whose weights read walk state, and for
    /// time-windowed requests (the artifact cannot encode a mask).
    pub incremental_state: bool,
    /// Expected update churn amortised into stateful pricing (zero by
    /// default). Sessions feed observed refresh rates back here so the
    /// argmin prices table maintenance alongside sampling.
    pub churn: ChurnProfile,
    registry: SamplerRegistry,
    walkers: WalkerRegistry,
}

impl FlexiWalkerEngine {
    /// FlexiWalker with the paper's cost-model selection over the built-in
    /// eRVS/eRJS pair.
    pub fn new(spec: DeviceSpec) -> Self {
        Self::with_strategy(spec, SelectionStrategy::CostModel)
    }

    /// FlexiWalker with an explicit selection strategy (ablations).
    pub fn with_strategy(spec: DeviceSpec, strategy: SelectionStrategy) -> Self {
        Self {
            spec,
            strategy,
            skip_profile: false,
            cost_ratio_override: None,
            incremental_state: false,
            churn: ChurnProfile::default(),
            registry: SamplerRegistry::builtin(),
            walkers: WalkerRegistry::builtin(),
        }
    }

    /// Enables (or disables) the incremental sampler-state path.
    pub fn with_incremental_state(mut self, on: bool) -> Self {
        self.incremental_state = on;
        self
    }

    /// Sets the churn profile stateful pricing amortises over.
    pub fn with_churn(mut self, churn: ChurnProfile) -> Self {
        self.churn = churn;
        self
    }

    /// Replaces the sampler registry wholesale.
    pub fn with_registry(mut self, registry: SamplerRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Replaces the walker registry wholesale.
    pub fn with_walkers(mut self, walkers: WalkerRegistry) -> Self {
        self.walkers = walkers;
        self
    }

    /// Registers an additional (or replacement) sampling strategy.
    pub fn register_sampler(&mut self, sampler: Arc<dyn Sampler>) {
        self.registry.register(sampler);
    }

    /// Registers an additional (or replacement) walker definition.
    pub fn register_walker(&mut self, def: crate::walker::WalkerDef) {
        self.walkers.register(def);
    }

    /// The registered walker definitions.
    pub fn walkers(&self) -> &WalkerRegistry {
        &self.walkers
    }

    /// Resolves a request's walker against this engine's registry,
    /// returning a request whose handle owns the lowered walker. Already
    /// resolved requests pass through unchanged (cheap `Arc` clones).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownWalker`] / [`EngineError::WalkerCompile`] as
    /// [`WalkerRegistry::resolve`].
    pub fn resolve_request(&self, req: &WalkRequest) -> Result<WalkRequest, EngineError> {
        if req.walker.is_resolved() {
            return Ok(req.clone());
        }
        let cw = self.walkers.resolve(req.walker.name())?;
        Ok(req
            .clone()
            .with_walker(WalkerHandle::resolved(Arc::new(cw))))
    }

    /// Re-registers eRVS at the given optimisation stage (the Fig. 12a
    /// ablation axis).
    pub fn with_ervs_mode(mut self, mode: ErvsMode) -> Self {
        self.registry
            .register(Arc::new(ErvsSampler::with_mode(mode)));
        self
    }

    /// The registered sampling strategies.
    pub fn registry(&self) -> &SamplerRegistry {
        &self.registry
    }

    /// The device specification in use.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Computes the preprocessed aggregates the compiled estimators need.
    pub fn aggregates_for(&self, g: &Csr, artifacts: &CompiledArtifacts) -> Aggregates {
        match &artifacts.compiled {
            Some(c) if !c.preprocess.is_empty() => {
                Aggregates::compute(g, &c.preprocess, &self.spec)
            }
            _ => Aggregates::default(),
        }
    }

    /// Runs the §5.1 profiling kernels, unless disabled on this engine.
    ///
    /// The profile charges access *counts*, never drawn values, so it is a
    /// function of the graph and the bytes per weight alone: it always runs
    /// under one internal seed, and `_seed` (kept for source
    /// compatibility) is ignored. That is what lets a session key cached
    /// profiles without the request seed.
    pub fn profile_for(&self, g: &Csr, w: &dyn DynamicWalk, _seed: u64) -> Option<ProfileResult> {
        if self.skip_profile || self.cost_ratio_override.is_some() {
            None
        } else {
            let device = Device::new(self.spec.clone());
            Some(run_profile(&device, g, w.bytes_per_weight(g), PROFILE_SEED))
        }
    }

    /// Full preparation pass over a lowered walker: reuse its compiled
    /// artifacts, then preprocess + profile. The result is reusable across
    /// every run over the same `(graph, walker)` pair — the session API
    /// caches each piece independently. `seed` is unused, as in
    /// [`FlexiWalkerEngine::profile_for`].
    pub fn prepare(&self, g: &Csr, walker: &CompiledWalker, seed: u64) -> PreparedState {
        let artifacts = walker.artifacts().clone();
        let aggregates = Arc::new(self.aggregates_for(g, &artifacts));
        let profile = self.profile_for(g, walker.walk_dyn(), seed);
        PreparedState {
            artifacts,
            aggregates,
            profile,
        }
    }

    /// The cost model for a run, honouring the ratio override and carrying
    /// this engine's churn profile into stateful pricing.
    fn cost_model(&self, profile: Option<&ProfileResult>) -> CostModel {
        let mut model = match self.cost_ratio_override {
            Some(edge_cost_ratio) => CostModel::with_ratio(edge_cost_ratio),
            None => profile.map_or(CostModel::default_ratio(), ProfileResult::cost_model),
        };
        model.churn = self.churn;
        model
    }

    /// Runs `req` against previously prepared state (the session fast
    /// path), pinning the handle's current version.
    ///
    /// # Errors
    ///
    /// As [`WalkEngine::run`].
    pub fn run_with(
        &self,
        req: &WalkRequest,
        prepared: &PreparedState,
    ) -> Result<RunReport, EngineError> {
        let snap = req.snapshot();
        self.run_on(&snap, req, prepared)
    }

    /// Runs `req` against an explicitly pinned graph snapshot.
    ///
    /// The session API uses this to guarantee the walk executes over
    /// exactly the version its caches were prepared for — resolving the
    /// handle twice could interleave with a concurrent
    /// `apply_updates` and pair fresh topology with stale aggregates.
    ///
    /// # Errors
    ///
    /// As [`WalkEngine::run`].
    pub fn run_on(
        &self,
        snap: &GraphSnapshot,
        req: &WalkRequest,
        prepared: &PreparedState,
    ) -> Result<RunReport, EngineError> {
        self.run_on_resident(snap, req, prepared, snap.graph.memory_bytes())
    }

    /// [`FlexiWalkerEngine::run_on`] with an explicit device-resident
    /// footprint for the OOM check.
    ///
    /// A single-device (or duplicated-graph) launch must fit the whole
    /// graph — which is what [`FlexiWalkerEngine::run_on`] passes. A
    /// *partitioned* shard holds only its partition's edges plus the
    /// row-pointer array, so the session shard executor passes the
    /// [`PartitionPlan`](flexi_graph::PartitionPlan) footprint instead:
    /// that is precisely what lets partitioned topologies serve graphs
    /// that overflow one device's VRAM.
    ///
    /// # Errors
    ///
    /// As [`WalkEngine::run`].
    pub fn run_on_resident(
        &self,
        snap: &GraphSnapshot,
        req: &WalkRequest,
        prepared: &PreparedState,
        resident_bytes: usize,
    ) -> Result<RunReport, EngineError> {
        let g: &Csr = &snap.graph;
        let cw = req.walker.get()?;
        let w: &dyn DynamicWalk = cw.walk_dyn();
        let queries: &[NodeId] = &req.queries;
        let cfg = &req.config;
        let mut warnings = prepared.artifacts.warnings.clone();

        if self.registry.is_empty() {
            return Err(EngineError::Unsupported("empty sampler registry"));
        }
        // An explicitly named strategy must exist, in every mode.
        if let SelectionStrategy::Only(id) = self.strategy {
            if !self.registry.contains(id) {
                return Err(EngineError::Unsupported("selected sampler not registered"));
            }
        }

        // Effective strategy: without compiled estimators, strategies that
        // need a bound estimate lose their estimator (the §7.1 fallback).
        // An explicit `Only` of a bound-free strategy — custom or built-in
        // — is honoured untouched; an `Only` of a bound-needing strategy
        // degrades to the highest-priority bound-free one. CostModel,
        // Random and DegreeThreshold keep selecting, restricted to
        // bound-free candidates (for the built-in registry that is exactly
        // "running eRVS-only").
        let bounds_available = prepared.artifacts.compiled.is_some();
        let strategy = if bounds_available {
            self.strategy
        } else {
            let any_bounded = self.registry.iter().any(|s| s.needs_bound());
            match self.strategy {
                SelectionStrategy::Only(id)
                    if self.registry.get(id).is_some_and(|s| !s.needs_bound()) =>
                {
                    SelectionStrategy::Only(id)
                }
                other => {
                    let fallback = self.registry.iter().find(|s| !s.needs_bound()).ok_or(
                        EngineError::Unsupported(
                            "no bound-free sampler registered for the compiler-fallback mode",
                        ),
                    )?;
                    if any_bounded {
                        warnings.push(format!(
                            "no usable bound estimator; bound-requiring samplers disabled \
                             (running {}-class only)",
                            fallback.id()
                        ));
                    }
                    match other {
                        SelectionStrategy::Only(_) => SelectionStrategy::Only(fallback.id()),
                        keep => keep,
                    }
                }
            }
        };

        let device = Device::new(self.spec.clone());
        device
            .pool()
            .try_alloc(resident_bytes)
            .map_err(|e| match e {
                flexi_gpu_sim::SimError::OutOfMemory {
                    requested,
                    available,
                } => EngineError::OutOfMemory {
                    requested,
                    available,
                },
            })?;

        let cost_model = self.cost_model(prepared.profile.as_ref());
        let steps = w.preferred_steps().unwrap_or(cfg.steps);
        let queue = QueryQueue::new(queries.len());
        let slots = self.spec.total_warp_slots();
        let num_warps = queries.len().div_ceil(WARP_SIZE).min(slots).max(1);

        // Resolve the request's time window against the pinned snapshot,
        // through the handle's per-epoch mask cache. Full masks (every edge
        // admitted, e.g. an all-window or a window covering the whole
        // timestamp range) cost nothing per edge: the kernel skips masking.
        let mask: Option<Arc<flexi_graph::TimeMask>> = match req.window {
            Some(window) if !window.is_all() => {
                let (mask, _) = req.graph.time_mask(snap, window);
                (!mask.is_full()).then_some(mask)
            }
            _ => None,
        };

        // Launch-invariant candidate set: every registered strategy, minus
        // the bound-needing ones when no estimator exists. Computed once so
        // per-step selection never allocates. On the incremental-state path
        // each state-capable candidate additionally carries its per-node
        // artifact, fetched through the handle's epoch cache — eligible
        // only when the walker's weights are edge-pure and no time mask is
        // in force (a precomputed table cannot encode either).
        let state_eligible = self.incremental_state && cw.static_weights() && mask.is_none();
        let mut sampler_state_builds = 0u64;
        let mut sampler_state_hits = 0u64;
        let candidates: Vec<Candidate> = self
            .registry
            .iter()
            .filter(|s| bounds_available || !s.needs_bound())
            .map(|s| {
                let state = (state_eligible && s.supports_state())
                    .then(|| {
                        let maintainer: Arc<dyn StateMaintainer> =
                            Arc::new(SamplerStateMaintainer {
                                sampler: Arc::clone(s),
                                walk: Arc::clone(cw.walk()),
                                fingerprint: cw.fingerprint(),
                            });
                        let (state, fetch) = req.graph.sampler_state(snap, &maintainer);
                        match fetch {
                            PlanFetch::Cached => sampler_state_hits += 1,
                            PlanFetch::Built => sampler_state_builds += 1,
                        }
                        state.downcast::<StateTable>().ok()
                    })
                    .flatten();
                Candidate {
                    sampler: Arc::clone(s),
                    state,
                }
            })
            .collect();

        let kernel_cfg = WarpKernelCfg {
            estimators: prepared
                .artifacts
                .compiled
                .as_ref()
                .map(|c| LaunchEstimators {
                    per_step: c.flag == BoundGranularity::PerStep,
                    max: lower_estimator(&c.max_estimator, &prepared.aggregates, w),
                    sum: lower_estimator(&c.sum_estimator, &prepared.aggregates, w),
                }),
            candidates,
            strategy,
            cost_model,
            steps,
            record_paths: cfg.record_paths,
            seed: cfg.seed,
            query_offset: req.query_offset,
            mask: mask.as_deref(),
            start_time: req.window.map_or(0, |w| w.t0),
        };
        let kernel = |ctx: &mut WarpCtx| walk_warp(ctx, g, w, &queue, queries, &kernel_cfg);
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

        let mut sampler_steps = SamplerTally::new();
        let mut steps_taken = 0;
        let mut paths = cfg.record_paths.then(|| vec![Vec::new(); queries.len()]);
        for out in &launch.outputs {
            for (idx, n) in out.tallies.iter().enumerate() {
                if let Some(c) = kernel_cfg.candidates.get(idx) {
                    sampler_steps.record(c.sampler.id(), *n);
                }
            }
            for (q, path, s) in &out.finished {
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
        Ok(RunReport {
            engine: "FlexiWalker",
            graph_version: snap.version,
            sim_seconds: launch.sim_seconds,
            saturated_seconds,
            stats: launch.stats,
            queries: queries.len(),
            steps_taken,
            paths,
            sampler_steps,
            sampler_state_builds,
            sampler_state_hits,
            profile_seconds: prepared.profile.as_ref().map_or(0.0, |p| p.sim_seconds),
            preprocess_seconds: prepared.aggregates.sim_seconds,
            warnings,
            watts: self.spec.load_watts,
            shards: None,
            blocks: None,
        })
    }
}

// The drain executor and the multi-device fleet fan these types across
// host threads; pin the thread-safety contract at compile time so a
// future field (a Cell, an Rc) cannot silently take parallel drains away.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WalkRequest>();
    assert_send_sync::<RunReport>();
    assert_send_sync::<PreparedState>();
    assert_send_sync::<FlexiWalkerEngine>();
    assert_send_sync::<GraphSnapshot>();
    assert_send_sync::<EngineError>();
};

impl WalkEngine for FlexiWalkerEngine {
    fn name(&self) -> &'static str {
        "FlexiWalker"
    }

    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        let req = self.resolve_request(req)?;
        let walker = Arc::clone(req.walker.get()?);
        let snap = req.snapshot();
        let prepared = self.prepare(&snap.graph, &walker, req.config.seed);
        self.run_on(&snap, &req, &prepared)
    }
}

/// Frontier-compacted, structure-of-arrays walker state for one warp's
/// resident lanes (§5.2).
///
/// Each per-walker field lives in its own `WARP_SIZE` array so the
/// per-step scans (retire, select, advance) walk dense homogeneous
/// memory instead of hopping across `Option<Lane>` records, and the hot
/// row invariants of each lane's current node — adjacency row start and
/// length — are hoisted here once per step and reused by selection, the
/// sampling views, the eRJS bound and the advance. The refill scan still
/// touches every slot (each empty slot charges its queue-pop atomic,
/// exactly like the record-per-lane kernel did), so the simulated cost
/// sequence is bit-identical; only the host-side layout changed.
struct WarpLanes {
    query: [usize; WARP_SIZE],
    state: [WalkState; WARP_SIZE],
    steps_taken: [u64; WARP_SIZE],
    /// Each query's private RNG stream (placement-independent randomness).
    rng: [Philox4x32; WARP_SIZE],
    path: [Vec<NodeId>; WARP_SIZE],
    occupied: [bool; WARP_SIZE],
    /// Hoisted per-(lane, step) invariant: the adjacency row start of the
    /// lane's current node.
    row_start: [EdgeId; WARP_SIZE],
    /// Hoisted per-(lane, step) invariant: that row's length (the degree).
    row_len: [usize; WARP_SIZE],
}

impl WarpLanes {
    fn new() -> Self {
        WarpLanes {
            query: [0; WARP_SIZE],
            state: [WalkState::start(0); WARP_SIZE],
            steps_taken: [0; WARP_SIZE],
            rng: std::array::from_fn(|_| Philox4x32::new(0, 0)),
            path: std::array::from_fn(|_| Vec::new()),
            occupied: [false; WARP_SIZE],
            row_start: [0; WARP_SIZE],
            row_len: [0; WARP_SIZE],
        }
    }

    /// Retires lane `l`: its walk output moves to `out` and the slot
    /// frees for the next refill.
    fn finish(&mut self, l: usize, out: &mut WarpOut) {
        self.occupied[l] = false;
        out.finished.push((
            self.query[l],
            std::mem::take(&mut self.path[l]),
            self.steps_taken[l],
        ));
    }
}

/// Per-warp kernel output.
#[derive(Debug, Default)]
struct WarpOut {
    finished: Vec<(usize, Vec<NodeId>, u64)>,
    /// Steps per candidate position.
    tallies: Vec<u64>,
}

/// One selectable strategy for a run: the sampler plus the resident
/// per-node state artifact serving it (incremental-state path only).
struct Candidate {
    sampler: Arc<dyn Sampler>,
    state: Option<Arc<StateTable>>,
}

impl Candidate {
    /// The resident artifact for `v`, when one serves this candidate.
    #[inline]
    fn node_state(&self, v: NodeId) -> Option<&NodeState> {
        self.state.as_ref().and_then(|t| t.node(v as usize))
    }
}

/// Bridges one `(sampler, walker)` pair to the graph handle's epoch-keyed
/// state cache: builds per-node artifacts from the walker's edge-pure
/// weights, and patches exactly the dirty frontier on refresh. Each node's
/// artifact is a pure function of its weight vector, so a patch is
/// bit-identical to a from-scratch rebuild of the same epoch.
struct SamplerStateMaintainer {
    sampler: Arc<dyn Sampler>,
    walk: Arc<dyn DynamicWalk>,
    /// Value fingerprint of the walker the weights come from — part of the
    /// cache key, so two walkers sharing a sampler never share tables.
    fingerprint: u64,
}

impl SamplerStateMaintainer {
    fn node_state(&self, g: &Csr, v: NodeId, scratch: &mut RowScratch) -> Option<NodeState> {
        // Eligibility (CompiledWalker::static_weights) guarantees the
        // weight ignores everything in the start state but the edge.
        self.walk
            .fill_row(g, &WalkState::start(v), g.edge_range(v), scratch);
        self.sampler.build_node_state(&scratch.weights)
    }
}

impl StateMaintainer for SamplerStateMaintainer {
    fn state_key(&self) -> String {
        format!("{}@{:016x}", self.sampler.id(), self.fingerprint)
    }

    fn build(&self, graph: &Csr) -> DynState {
        let mut scratch = RowScratch::default();
        let nodes = (0..graph.num_nodes() as u32)
            .map(|v| self.node_state(graph, v, &mut scratch).map(Arc::new))
            .collect();
        Arc::new(StateTable::new(nodes))
    }

    fn refresh(&self, prev: &DynState, graph: &Csr, dirty: &[NodeId]) -> DynState {
        let table = prev
            .downcast_ref::<StateTable>()
            .expect("state slot holds this maintainer's table");
        let mut scratch = RowScratch::default();
        Arc::new(
            table.patched(
                dirty
                    .iter()
                    .map(|&v| (v as usize, self.node_state(graph, v, &mut scratch))),
            ),
        )
    }
}

/// The compiled `get_weight_max()` / `get_weight_sum()` pair, lowered once
/// per launch against its aggregates and hyperparameters.
struct LaunchEstimators<'a> {
    /// The §4.2 flag: PER_STEP estimators read per-node aggregates;
    /// PER_KERNEL ones are constants evaluated once per warp.
    per_step: bool,
    max: LoweredEstimator<'a>,
    sum: LoweredEstimator<'a>,
}

/// Launch-invariant parameters of the §5.2 warp kernel.
struct WarpKernelCfg<'a> {
    /// `None` when the walker has no estimator (reservoir-only fallback).
    estimators: Option<LaunchEstimators<'a>>,
    /// Strategies selectable this run, in registry priority order
    /// (bound-needing strategies are excluded when no estimator exists).
    candidates: Vec<Candidate>,
    strategy: SelectionStrategy,
    cost_model: CostModel,
    steps: usize,
    record_paths: bool,
    seed: u64,
    query_offset: u64,
    /// Time-window mask over edge ids; `None` means every edge is live
    /// (no window, or a full mask).
    mask: Option<&'a flexi_graph::TimeMask>,
    /// Initial walk clock: the window's lower bound (0 without a window).
    start_time: u64,
}

/// The §5.2 concurrent kernel body for one warp.
fn walk_warp(
    ctx: &mut WarpCtx,
    g: &Csr,
    w: &dyn DynamicWalk,
    queue: &QueryQueue,
    queries: &[NodeId],
    kc: &WarpKernelCfg<'_>,
) -> WarpOut {
    let mut out = WarpOut {
        finished: Vec::new(),
        tallies: vec![0; kc.candidates.len()],
    };
    let bytes_per_weight = w.bytes_per_weight(g);
    let mut lanes = WarpLanes::new();
    // The compacted frontier: lanes still walking, ascending. Rebuilt by
    // each refill, pruned after retire/select, so the per-phase loops
    // visit only live work instead of scanning all `WARP_SIZE` slots.
    let mut active: Vec<usize> = Vec::with_capacity(WARP_SIZE);
    // One row scratch per warp, refilled by every warp-granular step and
    // exact max reduction, so the hot loop allocates nothing per step.
    let mut scratch = RowScratch::default();

    // PER_KERNEL estimators are state-independent (§4.2 flag semantics):
    // evaluate the (max, sum) pair once and let every step's cost-model
    // selection — and the eRJS bound — reuse the registers instead of
    // re-walking the estimator tree per lane per step.
    let per_kernel_ests: Option<(Option<f64>, Option<f64>)> =
        kc.estimators.as_ref().filter(|e| !e.per_step).map(|e| {
            let env = RuntimeEnv {
                graph: g,
                workload: w,
                state: WalkState::start(0),
            };
            ctx.alu(4);
            (e.max.eval(&env), e.sum.eval(&env))
        });
    let per_kernel_bound: Option<f64> = per_kernel_ests.and_then(|(max, _)| max);

    loop {
        // Refill idle lanes from the global queue (§5.3). Every empty
        // slot pays its pop atomic each round, occupied or not — the
        // frontier compaction below must not change the simulated cost.
        active.clear();
        for l in 0..WARP_SIZE {
            if !lanes.occupied[l] {
                ctx.atomic();
                if let Some(q) = queue.pop() {
                    let start = queries[q];
                    lanes.occupied[l] = true;
                    lanes.query[l] = q;
                    lanes.state[l] = WalkState::start_at(start, kc.start_time);
                    lanes.steps_taken[l] = 0;
                    lanes.path[l].clear();
                    if kc.record_paths {
                        lanes.path[l].push(start);
                    }
                    lanes.rng[l] =
                        Philox4x32::new(kc.seed ^ QUERY_STREAM_SALT, kc.query_offset + q as u64);
                }
            }
            if lanes.occupied[l] {
                active.push(l);
            }
        }
        if active.is_empty() {
            break;
        }

        // Retire finished walks, hoist each survivor's adjacency row and
        // pick a sampler for the rest.
        let mut choice: [Option<usize>; WARP_SIZE] = [None; WARP_SIZE];
        // The PER_STEP max estimate selection evaluated for a lane this
        // step, if it did; the eRJS bound reuses it.
        let mut step_max: [Option<Option<f64>>; WARP_SIZE] = [None; WARP_SIZE];
        for &l in &active {
            let range = g.edge_range(lanes.state[l].cur);
            let deg = range.len();
            if lanes.state[l].step >= kc.steps || deg == 0 {
                lanes.finish(l, &mut out);
                continue;
            }
            lanes.row_start[l] = range.start;
            lanes.row_len[l] = deg;
            let state = lanes.state[l];
            ctx.bind_stream(lanes.rng[l].clone());
            choice[l] = select_sampler(
                ctx,
                l,
                deg,
                g,
                w,
                kc,
                per_kernel_ests,
                &state,
                &mut step_max[l],
            );
            lanes.rng[l] = ctx.unbind_stream();
            if choice[l].is_none() {
                // No runnable strategy at this node (e.g. every candidate
                // unpriceable): the walk must terminate, not spin — a lane
                // left active but never advanced would loop forever.
                lanes.finish(l, &mut out);
            }
        }
        // Compact: only lanes with a chosen strategy enter the phases.
        active.retain(|&l| choice[l].is_some());

        // Phase 0: lanes whose chosen strategy holds a resident per-node
        // artifact draw from it directly — no weight scan, no bound
        // estimation; the table already encodes the distribution.
        for &l in &active {
            let Some(idx) = choice[l] else { continue };
            let cand = &kc.candidates[idx];
            let Some(node_state) = cand.node_state(lanes.state[l].cur) else {
                continue;
            };
            ctx.bind_stream(lanes.rng[l].clone());
            let picked = node_state.sample_warp(ctx, l);
            lanes.rng[l] = ctx.unbind_stream();
            out.tallies[idx] += 1;
            advance_lane(&mut lanes, l, picked, g, kc.record_paths, &mut out);
            choice[l] = None;
        }

        // Phase 1: thread-granular lanes run their trials independently.
        for &l in &active {
            let Some(idx) = choice[l] else { continue };
            let sampler = kc.candidates[idx].sampler.as_ref();
            if sampler.granularity() != Granularity::Lane {
                continue;
            }
            let state = lanes.state[l];
            let bound = if sampler.needs_bound() {
                rjs_bound(
                    ctx,
                    g,
                    w,
                    kc,
                    &state,
                    per_kernel_bound,
                    step_max[l],
                    lanes.row_start[l],
                    lanes.row_len[l],
                    bytes_per_weight,
                    &mut scratch,
                )
            } else {
                None
            };
            ctx.bind_stream(lanes.rng[l].clone());
            let picked = with_row_view(
                g,
                w,
                kc.mask,
                &state,
                lanes.row_start[l],
                lanes.row_len[l],
                bytes_per_weight,
                |view| sampler.sample_lane(ctx, l, view, bound),
            );
            lanes.rng[l] = ctx.unbind_stream();
            out.tallies[idx] += 1;
            advance_lane(&mut lanes, l, picked, g, kc.record_paths, &mut out);
        }

        // Ballot: does any lane need a warp-granular strategy?
        let mut preds = [false; WARP_SIZE];
        for &l in &active {
            preds[l] = choice[l]
                .is_some_and(|idx| kc.candidates[idx].sampler.granularity() == Granularity::Warp);
        }
        let mask = ctx.ballot(&preds);
        if mask != 0 {
            // Phase 2: the whole warp cooperates on each such lane in turn,
            // sharing the query parameters via shuffles (§5.2).
            for &l in &active {
                if mask & (1 << l) == 0 {
                    continue;
                }
                let idx = choice[l].expect("mask implies choice");
                let sampler = kc.candidates[idx].sampler.as_ref();
                let state = lanes.state[l];
                let dummy = [0u32; WARP_SIZE];
                ctx.shfl(&dummy, l); // Broadcast target node.
                ctx.shfl(&dummy, l); // Broadcast step/query id.
                fill_masked_row(
                    &mut scratch,
                    g,
                    w,
                    kc.mask,
                    &state,
                    lanes.row_start[l],
                    lanes.row_len[l],
                );
                ctx.bind_stream(lanes.rng[l].clone());
                let picked = sampler.sample_warp(
                    ctx,
                    &NeighborView::from_row(&scratch.weights, bytes_per_weight),
                );
                lanes.rng[l] = ctx.unbind_stream();
                out.tallies[idx] += 1;
                advance_lane(&mut lanes, l, picked, g, kc.record_paths, &mut out);
            }
        }
    }
    out
}

/// Replaces `scratch.weights` with the lane's transition weights, masked
/// edges zeroed. Every warp-granular step reads its weights from here —
/// scan kernels touch the whole row anyway, so an unmasked row is one
/// [`DynamicWalk::fill_row`] pass that lets a walker share work across
/// edges (second-order walkers mark `prev`'s row in the scratch's
/// [`LinkSet`](crate::LinkSet) instead of binary-searching per edge).
/// Under a time window the row is filled edge by edge instead, so edges
/// the mask hides are never evaluated — a window typically hides a large
/// share of a row, and the temporal walkers' decay is the costly part of
/// their weight.
fn fill_masked_row(
    scratch: &mut RowScratch,
    g: &Csr,
    w: &dyn DynamicWalk,
    mask: Option<&flexi_graph::TimeMask>,
    state: &WalkState,
    row_start: EdgeId,
    row_len: usize,
) {
    let range = row_start..row_start + row_len;
    match mask {
        None => w.fill_row(g, state, range, scratch),
        Some(m) => {
            scratch.weights.clear();
            scratch.weights.extend(range.map(|e| {
                if m.admits(e) {
                    w.weight(g, state, e)
                } else {
                    0.0
                }
            }));
        }
    }
}

/// Builds the lane's lazy [`NeighborView`] — for thread-granular
/// rejection, whose point is to evaluate only the edges it probes — with
/// the time-mask branch resolved **once**, outside the per-edge weight
/// loop, and hands it to `body`.
///
/// The masked and unmasked arms use distinct closures, so an unwindowed
/// walk (the common case) pays no per-edge `Option` check at all. Both
/// produce exactly the weights [`fill_masked_row`] would.
#[allow(clippy::too_many_arguments)]
fn with_row_view<R>(
    g: &Csr,
    w: &dyn DynamicWalk,
    mask: Option<&flexi_graph::TimeMask>,
    state: &WalkState,
    row_start: EdgeId,
    row_len: usize,
    bytes_per_weight: usize,
    body: impl FnOnce(&NeighborView) -> R,
) -> R {
    match mask {
        Some(m) => {
            let wf = |i: usize| {
                let edge = row_start + i;
                if m.admits(edge) {
                    w.weight(g, state, edge)
                } else {
                    0.0
                }
            };
            body(&NeighborView::new(&wf, row_len, bytes_per_weight))
        }
        None => {
            let wf = |i: usize| w.weight(g, state, row_start + i);
            body(&NeighborView::new(&wf, row_len, bytes_per_weight))
        }
    }
}

/// Applies a sampled neighbor index (or dead end) to lane `l`, resolving
/// the edge id from the row start hoisted at the top of the step.
fn advance_lane(
    lanes: &mut WarpLanes,
    l: usize,
    picked: Option<usize>,
    g: &Csr,
    record_paths: bool,
    out: &mut WarpOut,
) {
    match picked {
        Some(i) => {
            let edge = lanes.row_start[l] + i;
            let next = g.edge_target(edge);
            // Traversing an edge advances the walk clock to its timestamp
            // (0 on untimed graphs, leaving the clock untouched).
            lanes.state[l].advance_at(next, g.time(edge));
            lanes.steps_taken[l] += 1;
            if record_paths {
                lanes.path[l].push(next);
            }
        }
        // Dead end (all weights zero): the walk terminates here.
        None => lanes.finish(l, out),
    }
}

/// Flexi-Runtime's per-step selection, with cost accounting. Returns the
/// position of the chosen strategy in the run's candidate set. `deg` is
/// the lane's hoisted current-node degree; `per_kernel_ests` is the
/// kernel-start (max, sum) estimator pair when the bound granularity is
/// PER_KERNEL (state-independent, so every step reuses it). A PER_STEP max
/// estimate evaluated here is left in `step_max` for the eRJS bound.
#[allow(clippy::too_many_arguments)]
fn select_sampler(
    ctx: &mut WarpCtx,
    lane: usize,
    deg: usize,
    g: &Csr,
    w: &dyn DynamicWalk,
    kc: &WarpKernelCfg<'_>,
    per_kernel_ests: Option<(Option<f64>, Option<f64>)>,
    state: &WalkState,
    step_max: &mut Option<Option<f64>>,
) -> Option<usize> {
    match kc.strategy {
        SelectionStrategy::Only(id) => kc.candidates.iter().position(|c| c.sampler.id() == id),
        SelectionStrategy::Random => {
            // Uniform over the run's precomputed candidate set.
            if kc.candidates.is_empty() {
                return None;
            }
            Some(ctx.draw_u32(lane) as usize % kc.candidates.len())
        }
        SelectionStrategy::DegreeThreshold(t) => {
            let wanted = if deg >= t {
                Granularity::Lane
            } else {
                Granularity::Warp
            };
            kc.candidates
                .iter()
                .position(|c| c.sampler.granularity() == wanted)
                .or(if kc.candidates.is_empty() {
                    None
                } else {
                    Some(0)
                })
        }
        SelectionStrategy::CostModel => {
            let deg = deg as f64;
            let (max_est, sum_est) = match (per_kernel_ests, &kc.estimators) {
                // PER_KERNEL estimators were evaluated once at kernel
                // start — register-resident constants by §4.2, free here.
                (Some(ests), _) => ests,
                (None, Some(e)) => {
                    let env = RuntimeEnv {
                        graph: g,
                        workload: w,
                        state: *state,
                    };
                    // PER_STEP estimators read the per-node aggregates
                    // (h_MAX, h_SUM) at the lane's current node.
                    ctx.read_random(4);
                    ctx.read_random(4);
                    let max = e.max.eval(&env);
                    *step_max = Some(max);
                    (max, e.sum.eval(&env))
                }
                (None, None) => (None, None),
            };
            ctx.alu(3 * kc.candidates.len().max(1) as u64);
            // The generalised Eq. 11 argmin, priced per candidate: a
            // resident artifact for this node swaps the strategy's step
            // cost for its (cheaper) state-serving cost plus the
            // churn-amortised update charge. Strict `<` keeps the earlier
            // candidate on ties, reproducing the paper's priority order.
            let inputs = kc.cost_model.inputs(deg, max_est, sum_est);
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in kc.candidates.iter().enumerate() {
                let stateful = c.node_state(state.cur).is_some();
                let (sample, update) = kc.cost_model.price(c.sampler.as_ref(), stateful, &inputs);
                let Some(total) = sample.map(|s| s + update) else {
                    continue;
                };
                if best.is_none_or(|(_, b)| total < b) {
                    best = Some((i, total));
                }
            }
            best.map(|(i, _)| i)
        }
    }
}

/// The eRJS upper bound for the lane's current node (§3.3). `step_max` is
/// the max estimate selection already evaluated for this lane-step, if
/// any; the bound still charges its aggregate read either way, so reusing
/// it leaves the simulated clock unchanged. `row_start`, `row_len` and
/// `bytes_per_weight` are the kernel's hoisted invariants, reused by the
/// no-estimator fallback's exact max reduction, which fills the warp's
/// `scratch`.
#[allow(clippy::too_many_arguments)]
fn rjs_bound(
    ctx: &mut WarpCtx,
    g: &Csr,
    w: &dyn DynamicWalk,
    kc: &WarpKernelCfg<'_>,
    state: &WalkState,
    per_kernel_bound: Option<f64>,
    step_max: Option<Option<f64>>,
    row_start: EdgeId,
    row_len: usize,
    bytes_per_weight: usize,
    scratch: &mut RowScratch,
) -> Option<f32> {
    // Float-safety headroom: the estimator math is f64 while kernel weights
    // are f32; a hair of slack keeps "bound >= max" airtight.
    const SLACK: f64 = 1.0 + 1e-5;
    if let Some(b) = per_kernel_bound {
        return Some((b * SLACK) as f32);
    }
    if let Some(e) = &kc.estimators {
        // PER_STEP bounds read h_MAX[cur]; the estimator arithmetic is a
        // handful of register ops either way.
        if e.per_step {
            ctx.read_random(4);
        }
        ctx.alu(4);
        let max = step_max.unwrap_or_else(|| {
            e.max.eval(&RuntimeEnv {
                graph: g,
                workload: w,
                state: *state,
            })
        });
        if let Some(b) = max {
            return Some((b * SLACK) as f32);
        }
    }
    // No estimator: pay the exact max reduction (NextDoor's cost). Masked
    // edges weigh 0 in the kernel, so the reduction can mask them too and
    // stay a tight, sound bound.
    fill_masked_row(scratch, g, w, kc.mask, state, row_start, row_len);
    let m = warp_max_reduce(
        ctx,
        &NeighborView::from_row(&scratch.weights, bytes_per_weight),
    );
    (m > 0.0).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{MetaPath, Node2Vec, SecondOrderPr, TemporalUniform, UniformWalk};
    use flexi_graph::{gen, props, CsrBuilder, WeightModel};
    use flexi_sampling::ids;
    use flexi_sampling::stat;

    fn small_graph() -> Csr {
        let g = gen::rmat(8, 2048, gen::RmatParams::SOCIAL, 11);
        WeightModel::UniformReal.apply(g, 11)
    }

    fn cfg(steps: usize) -> WalkConfig {
        WalkConfig {
            steps,
            record_paths: true,
            ..WalkConfig::default()
        }
    }

    fn run(
        engine: &FlexiWalkerEngine,
        g: &Csr,
        w: impl IntoWalker,
        queries: &[NodeId],
        c: &WalkConfig,
    ) -> Result<RunReport, EngineError> {
        WalkEngine::run(
            engine,
            &WalkRequest::new(g.clone(), w, queries).with_config(c.clone()),
        )
    }

    /// 1 000 nodes: hub 0 points at every node, carries a self-loop and a
    /// duplicate target; nodes 1..=64 each hold a self-loop, a duplicate,
    /// an edge back to the hub and a scattered target; the rest are sinks.
    fn loops_and_hub_graph() -> Csr {
        let mut b = CsrBuilder::new(1000);
        for v in 0..1000u32 {
            b.push_weighted(0, v, 1.0 + (v % 7) as f32);
        }
        b.push_weighted(0, 5, 0.25);
        for v in 1..=64u32 {
            for (t, wgt) in [
                (v, 2.0),
                (0, 3.0),
                (v + 1, 0.5),
                (v + 1, 4.0),
                (v * 37 % 1000, 1.5),
            ] {
                b.push_weighted(v, t, wgt);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn filled_rows_are_bit_identical_to_per_edge_weights() {
        // Every built-in walker, native and DSL twin, on rmat rows and on a
        // graph with self-loops, each under F32, Int8 and unweighted props:
        // the filled (and masked) row — whole, or a sub-range of it — must
        // equal lazy per-edge evaluation bit for bit. Warp-granular steps
        // read the one, rejection the other. One scratch serves graphs of
        // 256 and 1 000 nodes, and its link set is all-zero after each fill.
        let mut graphs = Vec::new();
        for base in [small_graph(), loops_and_hub_graph()] {
            let base = props::assign_uniform_labels(base, 5, 3);
            let times: Vec<u64> = (0..base.num_edges() as u64).map(|e| e * 37 % 100).collect();
            let base = base.with_times(times).unwrap();
            let f32_props = base.props().clone();
            for p in [
                f32_props.quantize_int8(),
                flexi_graph::EdgeProps::Unweighted,
                f32_props,
            ] {
                graphs.push(base.clone().with_props(p).unwrap());
            }
        }
        let walkers: Vec<CompiledWalker> =
            [WalkerRegistry::builtin(), WalkerRegistry::builtin_dsl()]
                .iter()
                .flat_map(|r| r.iter().map(|d| d.lower().unwrap()).collect::<Vec<_>>())
                .collect();
        let mut scratch = RowScratch::default();
        for g in &graphs {
            let n = g.num_nodes() as NodeId;
            let hub = (0..n).max_by_key(|&v| g.degree(v)).unwrap();
            let sink = (0..n).find(|&v| g.degree(v) == 0).expect("graph has sinks");
            assert!((0..n).any(|v| g.neighbors(v).windows(2).any(|p| p[0] == p[1])));
            let mask = flexi_graph::TimeMask::compute(g, TimeWindow::new(20, 70));
            // Rows on both sides of the search/mark crossover.
            let (mut searched, mut marked) = (false, false);
            for cw in &walkers {
                let w = cw.walk_dyn();
                for cur in (0..n).step_by(7).chain([hub]).filter(|&v| g.degree(v) > 0) {
                    let full = g.edge_range(cur);
                    let mid = full.start + full.len() / 2;
                    let first_target = g.edge_target(full.start);
                    let prevs = [None, Some(hub), Some(sink), Some(first_target), Some(cur)];
                    for range in [full.clone(), mid..full.end, full.start..mid] {
                        for (prev, step, mask) in prevs
                            .into_iter()
                            .flat_map(|p| [(p, 1, None), (p, 2, Some(&mask))])
                        {
                            if let Some(p) = prev.filter(|_| !range.is_empty()) {
                                if g.degree(p) > crate::workload::SEARCH_CROSSOVER * range.len() {
                                    searched = true;
                                } else {
                                    marked = true;
                                }
                            }
                            let st = WalkState {
                                cur,
                                prev,
                                step,
                                time: 30,
                            };
                            let (start, len) = (range.start, range.len());
                            fill_masked_row(&mut scratch, g, w, mask, &st, start, len);
                            assert!(scratch.links.is_clear(), "{}: set left dirty", cw.name());
                            let filled: Vec<u32> =
                                scratch.weights.iter().map(|x| x.to_bits()).collect();
                            let lazy: Vec<u32> =
                                with_row_view(g, w, mask, &st, start, len, 8, |v| {
                                    (0..v.deg).map(|i| v.weight(i).to_bits()).collect()
                                });
                            assert_eq!(
                                filled,
                                lazy,
                                "{}: cur {cur} prev {prev:?} edges {range:?} masked {} props {:?}",
                                cw.name(),
                                mask.is_some(),
                                g.props().bytes_per_weight()
                            );
                        }
                    }
                }
            }
            assert!(searched && marked, "both crossover branches ran");
        }
    }

    #[test]
    fn rejection_stays_lazy_and_scans_fill_one_row_per_step() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Property weights, counting how the engine asks for them.
        #[derive(Default)]
        struct Counting {
            weights: AtomicU64,
            fills: AtomicU64,
        }
        impl DynamicWalk for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn weight(&self, g: &Csr, _st: &WalkState, edge: EdgeId) -> f32 {
                self.weights.fetch_add(1, Ordering::Relaxed);
                g.prop(edge)
            }
            fn fill_row(
                &self,
                g: &Csr,
                _st: &WalkState,
                range: std::ops::Range<EdgeId>,
                scratch: &mut RowScratch,
            ) {
                self.fills.fetch_add(1, Ordering::Relaxed);
                scratch.weights.clear();
                scratch.weights.extend(range.map(|e| g.prop(e)));
            }
            fn spec(&self) -> flexi_compiler::WalkSpec {
                UniformWalk.spec()
            }
        }
        const DEG: usize = 1024;
        let mut b = CsrBuilder::new(64);
        for v in 0..64u32 {
            for k in 0..DEG as u32 {
                b.push_weighted(v, (v + k) % 64, 1.0 + (k % 4) as f32);
            }
        }
        let g = b.build().unwrap();
        let queries: Vec<NodeId> = (0..32u32).collect();
        for strategy in [SelectionStrategy::RJS_ONLY, SelectionStrategy::RVS_ONLY] {
            let walk = Arc::new(Counting::default());
            let handle: Arc<dyn DynamicWalk> = walk.clone();
            let engine = FlexiWalkerEngine::with_strategy(DeviceSpec::tiny(), strategy);
            let report = run(&engine, &g, handle, &queries, &cfg(5)).unwrap();
            let steps = report.steps_taken;
            assert_eq!(steps, 32 * 5, "{strategy:?}: no dead ends on positive rows");
            let weights = walk.weights.load(Ordering::Relaxed);
            let fills = walk.fills.load(Ordering::Relaxed);
            if strategy == SelectionStrategy::RJS_ONLY {
                assert_eq!(fills, 0, "eRJS must not fill rows");
                assert!(
                    weights < steps * DEG as u64 / 4,
                    "eRJS evaluated {weights} weights over {steps} steps"
                );
            } else {
                assert_eq!(fills, steps, "eRVS fills exactly one row per step");
                assert_eq!(weights, 0, "eRVS reads only the filled row");
            }
        }
    }

    #[test]
    fn time_window_masks_walks_to_live_edges() {
        // 0→1 @5, 0→2 @10, 1→0 @6, 2→0 @12.
        let mut b = CsrBuilder::new(3);
        b.push_timestamped(0, 1, 1.0, 5);
        b.push_timestamped(0, 2, 1.0, 10);
        b.push_timestamped(1, 0, 1.0, 6);
        b.push_timestamped(2, 0, 1.0, 12);
        let g = b.build().unwrap();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let queries = [0u32; 8];
        let windowed = WalkEngine::run(
            &engine,
            &WalkRequest::new(g.clone(), &UniformWalk, &queries[..])
                .with_config(cfg(6))
                .window(TimeWindow::since(10)),
        )
        .unwrap();
        for path in windowed.paths.as_ref().unwrap() {
            assert!(!path.contains(&1), "edge @5 lies outside [10..): {path:?}");
        }
        // The same request without the window does reach node 1.
        let free = run(&engine, &g, &UniformWalk, &queries, &cfg(6)).unwrap();
        assert!(free.paths.as_ref().unwrap().iter().any(|p| p.contains(&1)));
    }

    #[test]
    fn temporal_walker_advances_the_clock_forward_only() {
        // 0→1 @10, then from 1: @5 (backwards, inadmissible) or @20.
        let mut b = CsrBuilder::new(4);
        b.push_timestamped(0, 1, 1.0, 10);
        b.push_timestamped(1, 2, 1.0, 5);
        b.push_timestamped(1, 3, 1.0, 20);
        let g = b.build().unwrap();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let queries = [0u32; 8];
        let report = run(&engine, &g, &TemporalUniform, &queries, &cfg(3)).unwrap();
        for path in report.paths.as_ref().unwrap() {
            assert_eq!(
                path,
                &vec![0, 1, 3],
                "after traversing @10 the clock forbids the @5 edge"
            );
        }
    }

    #[test]
    fn walks_have_requested_length_and_valid_edges() {
        let g = small_graph();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let queries: Vec<NodeId> = (0..64).collect();
        let w = Node2Vec::paper(true);
        let report = run(&engine, &g, &w, &queries, &cfg(10)).unwrap();
        let paths = report.paths.as_ref().unwrap();
        assert_eq!(paths.len(), 64);
        for (q, path) in paths.iter().enumerate() {
            assert_eq!(path[0], queries[q]);
            assert!(path.len() <= 11, "path too long: {}", path.len());
            for pair in path.windows(2) {
                assert!(
                    g.has_edge(pair[0], pair[1]),
                    "walk used a non-edge {} -> {}",
                    pair[0],
                    pair[1]
                );
            }
        }
        assert_eq!(report.queries, 64);
        assert!(report.steps_taken > 0);
        assert!(report.sim_seconds > 0.0);
        assert_eq!(report.sampler_steps.total(), report.steps_taken);
    }

    #[test]
    fn adaptive_engine_uses_both_kernels_on_mixed_graph() {
        let g = small_graph();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let queries: Vec<NodeId> = (0..128u32).collect();
        let w = Node2Vec::paper(true);
        let report = run(&engine, &g, &w, &queries, &cfg(20)).unwrap();
        let rjs = report.sampler_steps.get(ids::ERJS);
        let rvs = report.sampler_steps.get(ids::ERVS);
        assert!(
            rjs > 0 && rvs > 0,
            "expected both kernels on an R-MAT graph: rjs {rjs} rvs {rvs}"
        );
    }

    #[test]
    fn forced_strategies_use_one_kernel() {
        let g = small_graph();
        let queries: Vec<NodeId> = (0..32u32).collect();
        let w = Node2Vec::paper(true);
        let rvs_engine =
            FlexiWalkerEngine::with_strategy(DeviceSpec::tiny(), SelectionStrategy::RVS_ONLY);
        let rvs = run(&rvs_engine, &g, &w, &queries, &cfg(10)).unwrap();
        assert_eq!(rvs.sampler_steps.get(ids::ERJS), 0);
        assert!(rvs.sampler_steps.get(ids::ERVS) > 0);
        let rjs_engine =
            FlexiWalkerEngine::with_strategy(DeviceSpec::tiny(), SelectionStrategy::RJS_ONLY);
        let rjs = run(&rjs_engine, &g, &w, &queries, &cfg(10)).unwrap();
        assert_eq!(rjs.sampler_steps.get(ids::ERVS), 0);
        assert!(rjs.sampler_steps.get(ids::ERJS) > 0);
    }

    #[test]
    fn single_step_distribution_matches_exact_sampling() {
        // Star graph: 0 -> {1..6} with distinct weights; one walk step from
        // node 0 must follow p = w̃/Σw̃. Repeat over many seeds.
        let mut b = CsrBuilder::new(7);
        let weights = [3.0f32, 2.0, 4.0, 1.0, 0.5, 2.5];
        for (i, &wgt) in weights.iter().enumerate() {
            b.push_weighted(0, (i + 1) as u32, wgt);
        }
        let g = b.build().unwrap();
        let w = UniformWalk;
        let mut counts = vec![0u64; 6];
        for seed in 0..6000u64 {
            let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
            let mut c = cfg(1);
            c.seed = seed;
            let report = run(&engine, &g, &w, &[0], &c).unwrap();
            let path = &report.paths.as_ref().unwrap()[0];
            assert_eq!(path.len(), 2);
            counts[(path[1] - 1) as usize] += 1;
        }
        stat::assert_matches_distribution(&counts, &stat::normalize(&weights), "engine 1-step");
    }

    #[test]
    fn rjs_and_rvs_modes_draw_from_same_distribution() {
        // Forced eRJS and forced eRVS must both produce the target
        // distribution (the selection cannot change walk semantics).
        let mut b = CsrBuilder::new(5);
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        for (i, &wgt) in weights.iter().enumerate() {
            b.push_weighted(0, (i + 1) as u32, wgt);
        }
        let g = b.build().unwrap();
        let w = UniformWalk;
        for strategy in [SelectionStrategy::RJS_ONLY, SelectionStrategy::RVS_ONLY] {
            let mut counts = vec![0u64; 4];
            for seed in 0..5000u64 {
                let engine = FlexiWalkerEngine::with_strategy(DeviceSpec::tiny(), strategy);
                let mut c = cfg(1);
                c.seed = seed;
                let report = run(&engine, &g, &w, &[0], &c).unwrap();
                let path = &report.paths.as_ref().unwrap()[0];
                counts[(path[1] - 1) as usize] += 1;
            }
            stat::assert_matches_distribution(
                &counts,
                &stat::normalize(&weights),
                &format!("{strategy:?}"),
            );
        }
    }

    #[test]
    fn node2vec_never_violates_transition_support() {
        // With b tiny, distance-2 moves dominate, but every move must still
        // be a real edge; with MetaPath, every move must match the schema.
        let g = small_graph();
        let g = props::assign_uniform_labels(g, 5, 3);
        let w = MetaPath::paper(true);
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let queries: Vec<NodeId> = (0..128u32).collect();
        let report = run(&engine, &g, &w, &queries, &cfg(5)).unwrap();
        for path in report.paths.as_ref().unwrap() {
            for (step, pair) in path.windows(2).enumerate() {
                // The traversed edge must carry the schema label.
                let r = g.edge_range(pair[0]);
                let found = r
                    .clone()
                    .any(|e| g.edge_target(e) == pair[1] && g.label(e) == w.wanted_label(step));
                assert!(
                    found,
                    "step {step} violated schema: {} -> {}",
                    pair[0], pair[1]
                );
            }
        }
    }

    #[test]
    fn metapath_uses_schema_depth() {
        let g = props::assign_uniform_labels(small_graph(), 5, 3);
        let w = MetaPath::paper(false);
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let report = run(&engine, &g, &w, &[0, 1, 2], &cfg(80)).unwrap();
        for path in report.paths.as_ref().unwrap() {
            assert!(path.len() <= 6, "MetaPath must stop at schema depth");
        }
    }

    #[test]
    fn sink_start_terminates_immediately() {
        let g = CsrBuilder::new(2).edge(0, 1).build().unwrap();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let w = UniformWalk;
        let report = run(&engine, &g, &w, &[1], &cfg(10)).unwrap();
        assert_eq!(report.paths.as_ref().unwrap()[0], vec![1]);
        assert_eq!(report.steps_taken, 0);
    }

    #[test]
    fn empty_query_set_is_ok() {
        let g = small_graph();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let report = run(&engine, &g, &Node2Vec::paper(true), &[], &cfg(10)).unwrap();
        assert_eq!(report.queries, 0);
        assert_eq!(report.steps_taken, 0);
    }

    #[test]
    fn graph_larger_than_vram_is_oom() {
        let g = small_graph();
        let mut spec = DeviceSpec::tiny();
        spec.vram_bytes = 16; // Absurdly small.
        let engine = FlexiWalkerEngine::new(spec);
        let err = run(&engine, &g, &Node2Vec::paper(true), &[0], &cfg(1)).unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    #[test]
    fn tiny_time_budget_is_oot() {
        let g = small_graph();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let mut c = cfg(80);
        c.time_budget = 1e-12;
        let queries: Vec<NodeId> = (0..64u32).collect();
        let err = run(&engine, &g, &Node2Vec::paper(true), &queries, &c).unwrap_err();
        assert!(matches!(err, EngineError::OutOfTime { .. }));
    }

    #[test]
    fn parallel_hosts_produce_identical_paths() {
        // Per-query RNG streams make paths placement-independent: the same
        // request at 1 and 4 host threads is bit-identical.
        let g = small_graph();
        let queries: Vec<NodeId> = (0..96u32).collect();
        let w = SecondOrderPr::paper();
        let mut c1 = cfg(10);
        c1.record_paths = true;
        let seq = run(
            &FlexiWalkerEngine::new(DeviceSpec::tiny()),
            &g,
            &w,
            &queries,
            &c1,
        )
        .unwrap();
        let mut c2 = c1.clone();
        c2.host_threads = 4;
        let par = run(
            &FlexiWalkerEngine::new(DeviceSpec::tiny()),
            &g,
            &w,
            &queries,
            &c2,
        )
        .unwrap();
        assert_eq!(seq.queries, par.queries);
        assert_eq!(seq.paths, par.paths);
        assert_eq!(seq.steps_taken, par.steps_taken);
    }

    #[test]
    fn batch_split_produces_identical_paths() {
        // The engine-level half of the session guarantee: running queries
        // [0, N) in one request equals two requests of [0, N/2) and
        // [N/2, N) with matching offsets.
        let g = small_graph();
        let queries: Vec<NodeId> = (0..64u32).collect();
        let w = Node2Vec::paper(true);
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let c = cfg(12);
        let whole = WalkEngine::run(
            &engine,
            &WalkRequest::new(g.clone(), &w, &queries).with_config(c.clone()),
        )
        .unwrap();
        let first = WalkEngine::run(
            &engine,
            &WalkRequest::new(g.clone(), &w, &queries[..32]).with_config(c.clone()),
        )
        .unwrap();
        let second = WalkEngine::run(
            &engine,
            &WalkRequest::new(g.clone(), &w, &queries[32..])
                .with_config(c.clone())
                .query_offset(32),
        )
        .unwrap();
        let whole_paths = whole.paths.as_ref().unwrap();
        let mut split_paths = first.paths.clone().unwrap();
        split_paths.extend(second.paths.clone().unwrap());
        assert_eq!(whole_paths, &split_paths);
    }

    #[test]
    fn prepared_state_reuse_matches_fresh_runs() {
        let g = small_graph();
        let queries: Vec<NodeId> = (0..48u32).collect();
        let w = Node2Vec::paper(true);
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let c = cfg(10);
        let req = WalkRequest::new(g.clone(), &w, &queries).with_config(c.clone());
        let walker = Arc::clone(req.walker.get().unwrap());
        let prepared = engine.prepare(&g, &walker, c.seed);
        let cached = engine.run_with(&req, &prepared).unwrap();
        let fresh = WalkEngine::run(&engine, &req).unwrap();
        assert_eq!(cached.paths, fresh.paths);
        assert_eq!(cached.sampler_steps, fresh.sampler_steps);
    }

    #[test]
    fn named_requests_resolve_through_the_engine_registry() {
        // The four built-ins are ordinary registry entries; a request can
        // address them by name and must match the struct-built run bitwise.
        let g = small_graph();
        let queries: Vec<NodeId> = (0..32u32).collect();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let by_name = run(&engine, &g, "node2vec", &queries, &cfg(8)).unwrap();
        let by_struct = run(&engine, &g, &Node2Vec::paper(true), &queries, &cfg(8)).unwrap();
        assert_eq!(by_name.paths, by_struct.paths);
        assert_eq!(by_name.sampler_steps, by_struct.sampler_steps);
        // Unknown names are typed run errors, not panics.
        let err = run(&engine, &g, "no-such-walker", &queries, &cfg(2)).unwrap_err();
        assert!(matches!(err, EngineError::UnknownWalker { .. }));
    }

    #[test]
    fn custom_sampler_is_selectable_and_reported() {
        // A third-party strategy registered via the registry must win the
        // cost-model selection and appear in the report under its own id.
        use flexi_sampling::{CostInputs, ScalarCost};
        #[derive(Debug)]
        struct ToySampler;
        impl Sampler for ToySampler {
            fn id(&self) -> SamplerId {
                "toy"
            }
            fn granularity(&self) -> Granularity {
                Granularity::Warp
            }
            fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
                Some(inp.deg * 1e-3) // Undercut everything.
            }
            fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
                // Exact linear-CDF sample, charged as one coalesced pass.
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
                rng: &mut dyn flexi_rng::RandomSource,
            ) -> (Option<usize>, ScalarCost) {
                flexi_sampling::scalar::sample_linear_cdf(weights, &mut { rng })
            }
        }

        let g = small_graph();
        let mut engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        engine.register_sampler(Arc::new(ToySampler));
        let queries: Vec<NodeId> = (0..64u32).collect();
        let report = run(&engine, &g, &Node2Vec::paper(true), &queries, &cfg(10)).unwrap();
        assert!(
            report.sampler_steps.get("toy") > 0,
            "toy sampler never selected: {}",
            report.sampler_steps
        );
        assert_eq!(report.sampler_steps.total(), report.steps_taken);
        for path in report.paths.as_ref().unwrap() {
            for pair in path.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn wholly_unpriceable_registry_terminates_instead_of_spinning() {
        // A registry whose only strategy can never be priced must not hang
        // the warp loop: walks terminate with zero steps.
        use flexi_sampling::{CostInputs, ScalarCost};
        #[derive(Debug)]
        struct Unpriceable;
        impl Sampler for Unpriceable {
            fn id(&self) -> SamplerId {
                "unpriceable"
            }
            fn granularity(&self) -> Granularity {
                Granularity::Warp
            }
            fn step_cost(&self, _inp: &CostInputs) -> Option<f64> {
                None
            }
            fn sample_warp(&self, _ctx: &mut WarpCtx, _view: &NeighborView<'_>) -> Option<usize> {
                unreachable!("never selected")
            }
            fn sample_scalar(
                &self,
                _w: &[f32],
                _b: Option<f32>,
                _r: &mut dyn flexi_rng::RandomSource,
            ) -> (Option<usize>, ScalarCost) {
                (None, ScalarCost::default())
            }
        }
        let g = small_graph();
        let mut registry = SamplerRegistry::empty();
        registry.register(Arc::new(Unpriceable));
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny()).with_registry(registry);
        let queries: Vec<NodeId> = (0..8u32).collect();
        let report = run(&engine, &g, &Node2Vec::paper(true), &queries, &cfg(5)).unwrap();
        assert_eq!(report.queries, 8);
        assert_eq!(report.steps_taken, 0, "no strategy was runnable");
        for (q, path) in report.paths.as_ref().unwrap().iter().enumerate() {
            assert_eq!(path, &vec![queries[q]]);
        }
    }

    #[test]
    fn sampler_tally_equality_ignores_recording_order() {
        let mut a = SamplerTally::new();
        a.record(ids::ERVS, 5);
        a.record(ids::ERJS, 2);
        let mut b = SamplerTally::new();
        b.record(ids::ERJS, 2);
        b.record(ids::ERVS, 5);
        assert_eq!(a, b);
        b.record("toy", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_forced_sampler_is_unsupported() {
        let g = small_graph();
        let engine = FlexiWalkerEngine::with_strategy(
            DeviceSpec::tiny(),
            SelectionStrategy::Only("no-such-sampler"),
        );
        let err = run(&engine, &g, &Node2Vec::paper(true), &[0], &cfg(1)).unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn fallback_mode_honours_bound_free_custom_only_strategy() {
        // An unanalyzable workload must NOT override an explicit Only() of
        // a strategy that never needed a bound estimator.
        use crate::workload::UniformWalk;
        use flexi_compiler::WalkSpec;
        use flexi_graph::EdgeId;
        use flexi_sampling::{CostInputs, ScalarCost};

        // UniformWalk semantics with a DSL source the compiler rejects.
        #[derive(Clone, Copy)]
        struct Hostile;
        impl DynamicWalk for Hostile {
            fn name(&self) -> &str {
                "hostile"
            }
            fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
                UniformWalk.weight(g, st, edge)
            }
            fn spec(&self) -> WalkSpec {
                WalkSpec {
                    source: "get_weight(edge) { x = 0; while (x < h[edge]) { x = x + 1; } \
                             return x; }"
                        .to_string(),
                    hyperparams: vec![],
                }
            }
        }

        #[derive(Debug)]
        struct Cdf;
        impl Sampler for Cdf {
            fn id(&self) -> SamplerId {
                "cdf"
            }
            fn granularity(&self) -> Granularity {
                Granularity::Warp
            }
            fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
                Some(inp.deg)
            }
            fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
                ctx.read_coalesced(view.deg * view.bytes_per_weight);
                let total: f64 = (0..view.deg)
                    .map(|i| f64::from(view.weight(i).max(0.0)))
                    .sum();
                if total <= 0.0 {
                    return None;
                }
                let mut target = ctx.draw_f64(0) * total;
                for i in 0..view.deg {
                    target -= f64::from(view.weight(i).max(0.0));
                    if target <= 0.0 && view.weight(i) > 0.0 {
                        return Some(i);
                    }
                }
                (0..view.deg).rev().find(|&i| view.weight(i) > 0.0)
            }
            fn sample_scalar(
                &self,
                weights: &[f32],
                _bound: Option<f32>,
                rng: &mut dyn flexi_rng::RandomSource,
            ) -> (Option<usize>, ScalarCost) {
                flexi_sampling::scalar::sample_linear_cdf(weights, &mut { rng })
            }
        }

        let g = small_graph();
        let mut engine =
            FlexiWalkerEngine::with_strategy(DeviceSpec::tiny(), SelectionStrategy::Only("cdf"));
        engine.register_sampler(Arc::new(Cdf));
        let queries: Vec<NodeId> = (0..16u32).collect();
        let report = run(&engine, &g, &Hostile, &queries, &cfg(5)).unwrap();
        assert_eq!(
            report.sampler_steps.get("cdf"),
            report.sampler_steps.total(),
            "compiler fallback overrode a bound-free Only strategy: {}",
            report.sampler_steps
        );
        assert!(report.sampler_steps.get("cdf") > 0);
    }

    #[test]
    fn sampler_tally_merge_and_display() {
        let mut a = SamplerTally::new();
        a.record(ids::ERVS, 5);
        a.record(ids::ERJS, 2);
        let mut b = SamplerTally::new();
        b.record(ids::ERVS, 1);
        b.record("toy", 3);
        a.merge(&b);
        assert_eq!(a.get(ids::ERVS), 6);
        assert_eq!(a.get(ids::ERJS), 2);
        assert_eq!(a.get("toy"), 3);
        assert_eq!(a.get("absent"), 0);
        assert_eq!(a.total(), 11);
        assert_eq!(a.to_string(), "ervs: 6, erjs: 2, toy: 3");
    }

    #[test]
    fn report_energy_math() {
        let r = RunReport {
            engine: "x",
            graph_version: GraphVersion::default(),
            sim_seconds: 2.0,
            saturated_seconds: 2.0,
            stats: CostStats::default(),
            queries: 4,
            steps_taken: 0,
            paths: None,
            sampler_steps: SamplerTally::new(),
            sampler_state_builds: 0,
            sampler_state_hits: 0,
            profile_seconds: 0.0,
            preprocess_seconds: 0.0,
            warnings: vec![],
            watts: 100.0,
            shards: None,
            blocks: None,
        };
        assert_eq!(r.joules(), 200.0);
        assert_eq!(r.joules_per_query(), 50.0);
    }

    #[test]
    fn profile_and_preprocess_overhead_reported() {
        let g = small_graph();
        let engine = FlexiWalkerEngine::new(DeviceSpec::tiny());
        let queries: Vec<NodeId> = (0..32u32).collect();
        let report = run(&engine, &g, &Node2Vec::paper(true), &queries, &cfg(10)).unwrap();
        assert!(report.profile_seconds > 0.0, "profiling ran");
        assert!(report.preprocess_seconds > 0.0, "preprocess ran");
        // Overheads stay well below the main walk (Table 3's claim).
        assert!(report.profile_seconds + report.preprocess_seconds < report.sim_seconds);
    }
}
