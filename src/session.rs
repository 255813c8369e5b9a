//! The session façade: FlexiWalker as a long-lived walk service over
//! live, updatable graphs.
//!
//! [`FlexiWalker::builder`] configures a device, a selection strategy, a
//! [`SamplerRegistry`] and a [`WalkerRegistry`], and produces a
//! [`Session`] — the entry point for heavy query traffic. A session:
//!
//! - **owns its graphs**: [`Session::load_graph`] registers a graph under
//!   an epoch-versioned [`GraphHandle`]; requests reference the handle, so
//!   neither the session nor its requests carry borrow lifetimes;
//! - **serves any registered walker**: the built-ins (`"node2vec"`,
//!   `"metapath"`, `"sopr"`, `"uniform"`) and user definitions
//!   ([`SessionBuilder::register_walker`] — DSL source, pre-built spec or
//!   native implementation) all lower through one compiler pipeline;
//!   [`Session::load_walker`] resolves a name to a [`WalkerHandle`]
//!   (surfacing compile errors typed, up front) and requests may also
//!   address walkers by bare name, resolved at drain time;
//! - **serves walks over live updates**: [`Session::apply_updates`] routes
//!   a batch of [`GraphUpdate`]s through the handle, bumps its epoch, and
//!   *incrementally* refreshes exactly the dirty-node aggregates
//!   (`Aggregates::refresh_nodes`) — an update invalidates precisely the
//!   cached state it must and nothing else;
//! - **caches** lowered walkers (per definition fingerprint),
//!   preprocessed `_MAX`/`_SUM` aggregates (per graph version × walker)
//!   and profiled cost models (per graph version), keyed by epoch-aware
//!   fingerprints.
//!   The graph content digest is computed **once** at load; subsequent
//!   cache keys derive from `(digest, graph id, epoch)`, so drains never
//!   re-hash an unchanged graph;
//! - **batches** walk jobs: [`Session::submit`] enqueues a
//!   [`WalkRequest`] and returns a [`Ticket`]; [`Session::drain`] executes
//!   everything pending. Each query is assigned a global index in the
//!   session's cumulative stream, which seeds its private RNG stream —
//!   with the same seed, one submission of N queries and two submissions
//!   of N/2 produce bit-identical paths;
//! - **parallelises** drains: pending requests are grouped by
//!   `(graph id, epoch, device)` and fanned across
//!   [`SessionBuilder::workers`] host threads, with reports merged back in
//!   submission order — output is bit-identical at every worker count
//!   (see [`crate::executor`]).
//!
//! ## Cache invalidation
//!
//! | cached state | keyed by | weight-only batch | structural batch |
//! |---|---|---|---|
//! | lowered walkers | walker fingerprint | kept | kept |
//! | aggregates | graph version × walker | migrated via dirty-node refresh | migrated via dirty-node refresh |
//! | cost-model profile | graph version | carried to the new epoch | evicted (re-profiled on next drain) |
//! | sampler state (alias/CDF tables) | graph version × sampler × walker fingerprint | patched in O(Δ) | dirty frontier refreshed |
//!
//! [`GraphUpdate`]: flexi_graph::GraphUpdate

use crate::executor::{self, PreparedJob};
use flexi_core::{
    ChurnProfile, CompiledWalker, EngineError, FlexiWalkerEngine, PlanFetch, PreparedState,
    ProfileResult, RunReport, SelectionStrategy, Topology, WalkRequest, WalkerDef, WalkerHandle,
    WalkerRegistry, WorkerPool,
};
use flexi_gpu_sim::DeviceSpec;
use flexi_graph::{
    Csr, GraphError, GraphHandle, GraphSnapshot, GraphUpdate, GraphVersion, UpdateOutcome,
};
use flexi_sampling::{Sampler, SamplerRegistry};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Namespace for the builder entry point: `FlexiWalker::builder()`.
#[derive(Clone, Copy, Debug)]
pub struct FlexiWalker;

impl FlexiWalker {
    /// Starts configuring a walk session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }
}

/// Builder for [`Session`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    spec: DeviceSpec,
    strategy: SelectionStrategy,
    registry: SamplerRegistry,
    walkers: WalkerRegistry,
    skip_profile: bool,
    cost_ratio_override: Option<f64>,
    incremental_state: bool,
    churn: ChurnProfile,
    workers: usize,
    topology: Topology,
}

impl SessionBuilder {
    /// A builder with the paper's defaults: simulated A6000, cost-model
    /// selection, the built-in eRVS/eRJS sampler registry, the built-in
    /// walker registry (`"node2vec"`, `"metapath"`, `"sopr"`,
    /// `"uniform"`), one drain worker per host core.
    pub fn new() -> Self {
        Self {
            spec: DeviceSpec::a6000(),
            strategy: SelectionStrategy::CostModel,
            registry: SamplerRegistry::builtin(),
            walkers: WalkerRegistry::builtin(),
            skip_profile: false,
            cost_ratio_override: None,
            incremental_state: false,
            churn: ChurnProfile::default(),
            workers: WorkerPool::available(),
            topology: Topology::Single,
        }
    }

    /// Sets the simulated device.
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Sets the sampler-selection strategy.
    pub fn strategy(mut self, strategy: SelectionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Replaces the sampler registry wholesale.
    pub fn registry(mut self, registry: SamplerRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers an additional (or replacement) sampling strategy.
    pub fn register_sampler(mut self, sampler: Arc<dyn Sampler>) -> Self {
        self.registry.register(sampler);
        self
    }

    /// Replaces the walker registry wholesale.
    pub fn walker_registry(mut self, walkers: WalkerRegistry) -> Self {
        self.walkers = walkers;
        self
    }

    /// Registers an additional (or replacement) walker definition — a DSL
    /// source, a pre-built spec, or a native [`DynamicWalk`]
    /// implementation. Compile errors surface later, typed, through
    /// [`Session::load_walker`] or the drain result of a request that
    /// names the walker.
    ///
    /// [`DynamicWalk`]: flexi_core::DynamicWalk
    pub fn register_walker(mut self, def: WalkerDef) -> Self {
        self.walkers.register(def);
        self
    }

    /// Disables the §5.1 profiling kernels (default cost ratio).
    pub fn skip_profile(mut self, skip: bool) -> Self {
        self.skip_profile = skip;
        self
    }

    /// Pins the cost model's edge-cost ratio instead of profiling it.
    pub fn cost_ratio(mut self, ratio: f64) -> Self {
        self.cost_ratio_override = Some(ratio);
        self
    }

    /// Maintains per-node sampler state (alias tables / CDFs) in the
    /// graph handle's epoch cache and serves eligible drains from it.
    ///
    /// Opt-in: the state path draws from a different RNG sequence than
    /// stateless sampling, so output is bit-identical across workers,
    /// topologies and churn *within* the mode, but not to a stateless
    /// session. Inert for walkers whose weights read walk state and for
    /// time-windowed requests.
    pub fn incremental_state(mut self, on: bool) -> Self {
        self.incremental_state = on;
        self
    }

    /// Amortises an expected update churn into stateful sampler pricing —
    /// [`ChurnProfile::observed`] converts a session's own refresh/step
    /// counters into this profile.
    pub fn churn(mut self, churn: ChurnProfile) -> Self {
        self.churn = churn;
        self
    }

    /// Sets how many host worker threads [`Session::drain`] fans pending
    /// requests across (clamped to at least 1).
    ///
    /// The default is the host's available parallelism; `1` is the fully
    /// sequential path. Drain output is **bit-identical at every worker
    /// count**: requests are prepared sequentially, grouped by
    /// `(graph id, epoch, device)`, executed as pure jobs over pinned
    /// snapshots, and merged back in submission order (see
    /// [`crate::executor`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the execution topology: how each drained request maps onto
    /// simulated devices (device counts are clamped to at least 1).
    ///
    /// - [`Topology::Single`] (default): one device, whole graph.
    /// - [`Topology::MultiDevice`]: the graph is duplicated on every
    ///   device and each request's queries split across them (§6.6).
    /// - [`Topology::OutOfCore`]: the graph is spilled to disk-resident
    ///   blocks and only a bounded byte budget stays memory-resident —
    ///   serves graphs bigger than host memory.
    /// - [`Topology::Partitioned`]: the graph is hash-partitioned over
    ///   the devices — each holds its shard plus the row pointers, so
    ///   graphs that overflow one device still serve — and walkers
    ///   migrate over the configured link (§7.2). Partition plans are
    ///   cached per epoch on the [`GraphHandle`] and migrated
    ///   incrementally by [`Session::apply_updates`].
    ///
    /// Every topology serves the same unified walker path with per-query
    /// Philox streams, so walk output (paths, step counts, sampler
    /// tallies) is **bit-identical across topologies and worker counts**;
    /// only simulated timing, memory and migration accounting differ.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology.normalized();
        self
    }

    /// Finishes configuration. The session is fully owned — no borrow
    /// lifetime: graphs are registered via [`Session::load_graph`] and
    /// travel in requests as [`GraphHandle`]s.
    pub fn build(self) -> Session {
        let mut engine = FlexiWalkerEngine::with_strategy(self.spec, self.strategy)
            .with_registry(self.registry)
            .with_walkers(self.walkers);
        engine.skip_profile = self.skip_profile;
        engine.cost_ratio_override = self.cost_ratio_override;
        engine.incremental_state = self.incremental_state;
        engine.churn = self.churn;
        Session {
            engine,
            walkers: HashMap::new(),
            aggregates: HashMap::new(),
            profiles: HashMap::new(),
            graphs: HashMap::new(),
            pending: Vec::new(),
            next_ticket: 0,
            query_cursor: 0,
            workers: self.workers,
            topology: self.topology,
            stats: SessionStats::default(),
        }
    }
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Handle identifying one submitted request in [`Session::drain`] output.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(usize);

impl Ticket {
    /// Submission index within the session (0-based).
    pub fn id(self) -> usize {
        self.0
    }
}

/// Key of the per-graph caches: a 128-bit fingerprint (two independently
/// salted hashes).
///
/// At epoch 0 this is the *full content digest* computed once at
/// [`Session::load_graph`] — so two handles loaded from identical content
/// share their epoch-0 caches. After an update batch it becomes a cheap
/// mix of `(content digest, graph id, epoch)`: sound because every
/// mutation path bumps the epoch, and O(1) where the old design re-hashed
/// the whole edge list on every drain.
type GraphFp = (u64, u64);

/// Computes the load-time content digest of `g` — the one O(V + E) hashing
/// pass a graph ever pays in a session.
fn content_digest(g: &Csr) -> GraphFp {
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0x517E_u64.hash(&mut h1);
    0xFACE_u64.hash(&mut h2);
    for h in [&mut h1, &mut h2] {
        g.num_nodes().hash(h);
        g.num_edges().hash(h);
        g.props().bytes_per_weight().hash(h);
        g.has_labels().hash(h);
        g.row_ptr().hash(h);
        g.col_idx().hash(h);
    }
    for e in 0..g.num_edges() {
        let bits = g.prop(e).to_bits();
        bits.hash(&mut h1);
        bits.hash(&mut h2);
    }
    if g.has_labels() {
        for e in 0..g.num_edges() {
            let l = g.label(e);
            l.hash(&mut h1);
            l.hash(&mut h2);
        }
    }
    (h1.finish(), h2.finish())
}

/// Evolves a graph's cache fingerprint to a later epoch without touching
/// the edge list. Unique per `(graph id, epoch)`, which is what keeps the
/// key sound: graph content only changes through `apply_updates`, and
/// every batch bumps the epoch.
fn epoch_fp(content: GraphFp, graph_id: u64, epoch: u64) -> GraphFp {
    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    0xE90C_u64.hash(&mut h1);
    0x0C9E_u64.hash(&mut h2);
    for h in [&mut h1, &mut h2] {
        content.0.hash(h);
        content.1.hash(h);
        graph_id.hash(h);
        epoch.hash(h);
    }
    (h1.finish(), h2.finish())
}

/// Session bookkeeping for one registered graph handle.
#[derive(Clone, Copy, Debug)]
struct GraphEntry {
    /// Content digest computed once at registration, never recomputed.
    content: GraphFp,
    /// The epoch the digest was taken at (0 unless the handle saw updates
    /// before registration).
    digest_epoch: u64,
    /// Latest epoch whose cache rows this session holds — the garbage
    /// collector's cursor. Epochs only advance, so once a newer epoch is
    /// served or migrated to, the rows keyed at this one are unreachable
    /// and can be dropped (this also bounds the cache when updates land
    /// on the handle outside the session).
    live_epoch: u64,
}

impl GraphEntry {
    /// The cache key for `epoch`: the raw content digest at the digest
    /// epoch (so identically-loaded graphs share their initial caches),
    /// a cheap `(digest, id, epoch)` mix afterwards.
    fn fp_at(&self, graph_id: u64, epoch: u64) -> GraphFp {
        if epoch == self.digest_epoch {
            self.content
        } else {
            epoch_fp(self.content, graph_id, epoch)
        }
    }
}

/// Counters exposing the session's cache and executor behaviour — what
/// the no-rehash-on-drain, incremental-refresh and parallel-drain
/// guarantees are asserted against in tests and benchmarks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionStats {
    /// Full O(V + E) content digests computed (once per loaded graph).
    pub digests_computed: u64,
    /// Aggregate sets built from scratch.
    pub aggregates_built: u64,
    /// Aggregate sets migrated across an epoch by incremental refresh.
    pub aggregates_refreshed: u64,
    /// Total dirty nodes recomputed by incremental refreshes.
    pub aggregate_nodes_refreshed: u64,
    /// Profiling kernel runs.
    pub profiles_run: u64,
    /// Profiles carried across a weight-only epoch without re-running.
    pub profiles_carried: u64,
    /// Drains fanned across more than one worker slot (the slot split
    /// itself is scheduling-dependent — a fast worker may still claim
    /// every job).
    pub parallel_drains: u64,
    /// `(graph id, epoch, device)` batch groups formed across all drains.
    pub drain_groups: u64,
    /// Shard launches executed per worker slot, cumulative across drains.
    /// The split between slots is scheduling-dependent; the sum always
    /// equals the number of launches (= drained requests under
    /// [`Topology::Single`]).
    pub worker_requests: Vec<u64>,
    /// Drains executed under a multi-device topology.
    pub sharded_drains: u64,
    /// Shard sub-launches fanned across the pool, cumulative.
    pub shard_launches: u64,
    /// Walker migrations across the simulated interconnect, cumulative
    /// (partitioned topologies only).
    pub migrations: u64,
    /// Simulated seconds those migrations spent on the link, cumulative.
    pub link_seconds: f64,
    /// Blocks written to the out-of-core spill file, cumulative: the
    /// initial spill when an epoch's block runtime is first built, plus
    /// every dirty block re-spilled by [`Session::apply_updates`]
    /// migrating cached runtimes across epochs.
    pub block_spills: u64,
    /// Blocks read back from the spill file by out-of-core drains
    /// (resident-cache misses).
    pub block_loads: u64,
    /// Out-of-core block activations served from the resident cache.
    pub block_hits: u64,
    /// Blocks evicted from the resident cache to stay under its byte
    /// budget.
    pub block_evictions: u64,
    /// Partition plans computed from scratch — once per
    /// `(graph, shard count)` pair per *structural history*, not per
    /// drain.
    pub plan_builds: u64,
    /// Drain preparations served by a cached partition plan.
    pub plan_hits: u64,
    /// Cached plans migrated to a new epoch by incremental dirty-node
    /// refresh (one per cached plan per structural batch; weight-only
    /// batches carry plans without counting here).
    pub plan_refreshes: u64,
    /// Ingest epochs applied through [`Session::apply_updates`]
    /// (non-empty batches only; a no-op batch advances nothing).
    pub epochs_applied: u64,
    /// Cached time-window masks migrated across those epochs (recomputed
    /// on structural batches, carried on weight-only ones).
    pub masks_migrated: u64,
    /// Sampler-state artifacts built from scratch by drains (cold
    /// epoch-cache misses on the incremental-state path).
    pub sampler_state_builds: u64,
    /// Drain launches served by a cached sampler-state artifact.
    pub sampler_state_hits: u64,
    /// Cached sampler-state artifacts patched to a new epoch by
    /// [`Session::apply_updates`] — O(dirty frontier) per batch, on both
    /// weight-only and structural batches (weights are what the tables
    /// encode). Under weight-only churn these dominate
    /// [`SessionStats::sampler_state_builds`].
    pub sampler_state_patches: u64,
    /// Per-request drain latency: every drained request records one
    /// sample — the drain's sequential prepare time plus *that request's
    /// own* pipelined completion offset (prepare start to its merge
    /// landing), so a 100-request drain carries 100 samples and requests
    /// merged early report lower latency than the drain's stragglers. The
    /// serving layer's end-to-end admission-to-response distribution
    /// lives in `ServerStats::serve_latency`; this histogram isolates
    /// the drain-side component.
    pub latency: flexi_core::LatencyHistogram,
    /// Host wall seconds per executor pipeline stage, accumulated across
    /// drains: prepare (sequential cache resolution), launch, merge and
    /// replay busy time, plus the unhidden merge tail (see
    /// [`flexi_core::StageTiming`]).
    pub stages: flexi_core::StageTiming,
}

impl std::fmt::Display for SessionStats {
    /// A compact human-readable summary — the one formatter every bench
    /// and example can share instead of hand-picking counters.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "caches: {} digest(s), {} aggregate build(s), {} refresh(es) over {} dirty node(s), \
             {} profile run(s) ({} carried)",
            self.digests_computed,
            self.aggregates_built,
            self.aggregates_refreshed,
            self.aggregate_nodes_refreshed,
            self.profiles_run,
            self.profiles_carried,
        )?;
        writeln!(
            f,
            "drains: {} group(s), {} parallel, {} sharded ({} shard launches, {} migrations, \
             {:.3} link-s), {} epoch(s), plans: {} built / {} hit / {} refreshed, \
             {} mask(s) migrated",
            self.drain_groups,
            self.parallel_drains,
            self.sharded_drains,
            self.shard_launches,
            self.migrations,
            self.link_seconds,
            self.epochs_applied,
            self.plan_builds,
            self.plan_hits,
            self.plan_refreshes,
            self.masks_migrated,
        )?;
        writeln!(
            f,
            "sampler state: {} built / {} hit / {} patched",
            self.sampler_state_builds, self.sampler_state_hits, self.sampler_state_patches,
        )?;
        writeln!(
            f,
            "blocks: {} spilled / {} loaded / {} hit / {} evicted",
            self.block_spills, self.block_loads, self.block_hits, self.block_evictions,
        )?;
        writeln!(f, "stages: {}", self.stages)?;
        write!(
            f,
            "drain latency: {}  |  per-worker requests: ",
            self.latency
        )?;
        if self.worker_requests.is_empty() {
            write!(f, "-")
        } else {
            let reqs: Vec<String> = self.worker_requests.iter().map(u64::to_string).collect();
            write!(f, "[{}]", reqs.join(", "))
        }
    }
}

/// A long-lived walk service over one engine configuration.
///
/// See the [module docs](self) for the graph-handle lifecycle
/// (`load_graph` → `submit` → `apply_updates` → `drain`) and the caching
/// and batching guarantees.
pub struct Session {
    engine: FlexiWalkerEngine,
    /// Lowered walkers per definition fingerprint — one compile per
    /// distinct definition, shared by every handle and named request.
    walkers: HashMap<u64, Arc<CompiledWalker>>,
    /// Preprocessed aggregates per (graph fingerprint, walker) pair.
    aggregates: HashMap<(GraphFp, u64), Arc<flexi_core::Aggregates>>,
    /// Profiled cost models per (graph fingerprint, bytes-per-weight). The
    /// request seed is not part of the key: a profile does not depend on it.
    profiles: HashMap<(GraphFp, usize), ProfileResult>,
    /// Registered graphs by handle id.
    graphs: HashMap<u64, GraphEntry>,
    pending: Vec<(Ticket, WalkRequest)>,
    next_ticket: usize,
    query_cursor: u64,
    /// Host threads [`Session::drain`] fans requests across.
    workers: usize,
    /// How drained requests map onto simulated devices.
    topology: Topology,
    stats: SessionStats,
}

impl Session {
    /// The underlying engine (registry, strategy, device).
    pub fn engine(&self) -> &FlexiWalkerEngine {
        &self.engine
    }

    /// Number of submitted-but-undrained requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Cache- and executor-behaviour counters.
    pub fn stats(&self) -> SessionStats {
        self.stats.clone()
    }

    /// Host worker threads [`Session::drain`] fans requests across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The execution topology drained requests map onto.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Number of resident aggregate sets — bounded by live graph versions
    /// × workloads (superseded epochs are garbage-collected).
    pub fn cached_aggregates(&self) -> usize {
        self.aggregates.len()
    }

    /// Number of resident cost-model profiles.
    pub fn cached_profiles(&self) -> usize {
        self.profiles.len()
    }

    /// The registered walker definitions.
    pub fn walkers(&self) -> &WalkerRegistry {
        self.engine.walkers()
    }

    /// Number of distinct lowered walker definitions resident in the
    /// session cache.
    pub fn cached_walkers(&self) -> usize {
        self.walkers.len()
    }

    /// Resolves a registered walker name into a ready-to-use
    /// [`WalkerHandle`], lowering the definition through the compiler
    /// pipeline (once per distinct definition — repeat loads share the
    /// cached artifact).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownWalker`] for unregistered names;
    /// [`EngineError::WalkerCompile`] when the definition fails to lower
    /// (malformed DSL, unresolvable references).
    pub fn load_walker(&mut self, name: &str) -> Result<WalkerHandle, EngineError> {
        let def = self
            .engine
            .walkers()
            .get(name)
            .ok_or_else(|| EngineError::UnknownWalker {
                name: name.to_string(),
            })?
            .clone();
        self.lower_cached(&def).map(WalkerHandle::resolved)
    }

    /// Lowers a definition through the session cache (one compile per
    /// distinct definition fingerprint).
    fn lower_cached(&mut self, def: &WalkerDef) -> Result<Arc<CompiledWalker>, EngineError> {
        let fp = def.fingerprint();
        if let Some(cw) = self.walkers.get(&fp) {
            return Ok(Arc::clone(cw));
        }
        let cw = Arc::new(def.lower()?);
        self.walkers.insert(fp, Arc::clone(&cw));
        Ok(cw)
    }

    /// Resolves a request's walker handle: resolved handles pass through,
    /// named ones go through the registry + lowering cache.
    fn resolve_walker(
        &mut self,
        handle: &WalkerHandle,
    ) -> Result<Arc<CompiledWalker>, EngineError> {
        if let Some(cw) = handle.compiled() {
            return Ok(Arc::clone(cw));
        }
        let name = handle.name().to_string();
        let def = self
            .engine
            .walkers()
            .get(&name)
            .ok_or(EngineError::UnknownWalker { name })?
            .clone();
        self.lower_cached(&def)
    }

    /// Registers a graph with the session and returns its handle.
    ///
    /// Accepts a bare [`Csr`] / `Arc<Csr>` (wrapped in a fresh handle) or
    /// an existing [`GraphHandle`]. The full content digest — the cache
    /// key seed — is computed here, exactly once; drains and updates never
    /// re-hash the graph.
    pub fn load_graph(&mut self, graph: impl Into<GraphHandle>) -> GraphHandle {
        let handle = graph.into();
        self.entry_for(&handle);
        handle
    }

    /// The live version of a graph registered with this session.
    pub fn graph_version(&self, handle: &GraphHandle) -> Option<GraphVersion> {
        self.graphs.get(&handle.id()).map(|_| handle.version())
    }

    /// Applies one update batch to a registered graph and migrates the
    /// session's caches to the new epoch.
    ///
    /// Weight-only and structural batches both refresh cached aggregates
    /// *incrementally* — only the dirty nodes reported by the handle are
    /// recomputed. Cost-model profiles survive weight-only batches (the
    /// profiled memory-cost ratio does not depend on weight values) but
    /// are evicted by structural ones, whose degree redistribution they
    /// measured. An unregistered handle is registered first.
    ///
    /// # Errors
    ///
    /// As [`GraphHandle::apply_updates`]; on error the graph, its epoch
    /// and all caches are unchanged.
    pub fn apply_updates(
        &mut self,
        handle: &GraphHandle,
        batch: &[GraphUpdate],
    ) -> Result<UpdateOutcome, GraphError> {
        let entry = *self.entry_for(handle);
        let id = handle.id();

        // The profile carry below is only sound while the edge-property
        // representation (and so every profile key's bytes-per-weight
        // component) is unchanged — a SetWeight batch on an unweighted or
        // INT8 graph promotes the props to F32.
        let pre_weight_bytes = handle.graph().props().bytes_per_weight();

        let outcome = handle.apply_updates(batch)?;
        // Structural batches migrate the handle's cached partition plans
        // by incremental dirty-node refresh (inside the handle, under its
        // write lock); surface the count so plan-reuse guarantees are
        // testable: refreshes track structural epochs, never drains.
        self.stats.plan_refreshes += outcome.plans_migrated as u64;
        self.stats.masks_migrated += outcome.masks_migrated as u64;
        // Cached block runtimes re-spill their dirty blocks on every
        // non-empty batch — the spill encodes weights, so weight-only
        // batches migrate it too.
        self.stats.block_spills += outcome.blocks_migrated as u64;
        // Sampler-state artifacts migrate on *every* non-empty batch —
        // weight-only included, since weights are exactly what the tables
        // encode — by patching only the dirty frontier.
        self.stats.sampler_state_patches += outcome.sampler_states_migrated as u64;
        if outcome.dirty_nodes.is_empty() && !outcome.structural {
            // Empty batch: nothing changed, nothing to migrate.
            return Ok(outcome);
        }
        self.stats.epochs_applied += 1;
        let new_epoch = outcome.version.epoch;
        let old_epoch = new_epoch - 1;
        let old_fp = entry.fp_at(id, old_epoch);
        let new_fp = entry.fp_at(id, new_epoch);

        // Out-of-band epoch advances (handle updated without the session)
        // may have left rows at an even older epoch; drop them first.
        if entry.live_epoch < old_epoch {
            self.evict_epoch(id, &entry, entry.live_epoch);
        }

        // Migrate aggregates by incremental dirty-node refresh, against
        // the exact post-batch graph the outcome pins.
        let agg_keys: Vec<(GraphFp, u64)> = self
            .aggregates
            .keys()
            .filter(|(fp, _)| *fp == old_fp)
            .copied()
            .collect();
        for (fp, wfp) in agg_keys {
            let mut refreshed = (*self.aggregates[&(fp, wfp)]).clone();
            let nodes = refreshed.refresh_nodes(&outcome.graph, &outcome.dirty_nodes);
            self.stats.aggregates_refreshed += 1;
            self.stats.aggregate_nodes_refreshed += nodes as u64;
            self.aggregates.insert((new_fp, wfp), Arc::new(refreshed));
        }

        // Profiles: carry across weight-only epochs (profiling reads
        // degrees and weight *width*, not values), evict on structural
        // batches or a weight-representation change.
        let repr_unchanged = outcome.graph.props().bytes_per_weight() == pre_weight_bytes;
        if !outcome.structural && repr_unchanged {
            let prof_keys: Vec<(GraphFp, usize)> = self
                .profiles
                .keys()
                .filter(|(fp, _)| *fp == old_fp)
                .copied()
                .collect();
            for (fp, bytes) in prof_keys {
                let p = self.profiles[&(fp, bytes)];
                self.profiles.insert((new_fp, bytes), p);
                self.stats.profiles_carried += 1;
            }
        }

        self.evict_epoch(id, &entry, old_epoch);
        self.graphs
            .get_mut(&id)
            .expect("registered above")
            .live_epoch = new_epoch;
        Ok(outcome)
    }

    /// Drops the cache rows keyed at one superseded epoch of `id`.
    ///
    /// Epoch-mixed keys belong to this graph alone; the raw digest key
    /// may be shared by another handle loaded from identical content, in
    /// which case it stays.
    fn evict_epoch(&mut self, id: u64, entry: &GraphEntry, epoch: u64) {
        let fp = entry.fp_at(id, epoch);
        let digest_key = epoch == entry.digest_epoch;
        let shared = digest_key
            && self
                .graphs
                .iter()
                .any(|(gid, e)| *gid != id && e.content == fp);
        if !shared {
            self.aggregates.retain(|(k, _), _| *k != fp);
            self.profiles.retain(|(k, _), _| *k != fp);
        }
    }

    /// Enqueues a walk job and returns its ticket.
    ///
    /// The request's [`WalkRequest::query_offset`] is overwritten with the
    /// session's cumulative query cursor — that is what makes results
    /// independent of how a query set is split across submissions. The
    /// request's graph handle is registered if it was not loaded through
    /// this session.
    pub fn submit(&mut self, req: WalkRequest) -> Ticket {
        self.entry_for(&req.graph);
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let offset = self.query_cursor;
        self.query_cursor += req.queries.len() as u64;
        self.pending.push((ticket, req.query_offset(offset)));
        ticket
    }

    /// Executes every pending request and returns the reports in
    /// submission order.
    ///
    /// Each request resolves its graph handle at drain time — one pinned
    /// snapshot per graph per drain — so a drain after
    /// [`Session::apply_updates`] walks the updated topology (served from
    /// the incrementally refreshed caches). Requests are prepared
    /// sequentially against the session caches, then fanned across the
    /// configured [`SessionBuilder::workers`] grouped by
    /// `(graph id, epoch, device)`; per-query Philox streams and the
    /// submission-ordered merge make the output **bit-identical at every
    /// worker count** (see [`crate::executor`]).
    pub fn drain(&mut self) -> Vec<(Ticket, Result<RunReport, EngineError>)> {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return Vec::new();
        }
        let started = std::time::Instant::now();
        // Phase 1 (sequential): pin snapshots and resolve caches.
        let mut snapshots: HashMap<u64, GraphSnapshot> = HashMap::new();
        let jobs: Vec<PreparedJob> = pending
            .into_iter()
            .map(|(ticket, req)| self.prepare_job(ticket, req, &mut snapshots))
            .collect();
        let prepare_seconds = started.elapsed().as_secs_f64();
        // Phase 2 (pipelined): pure engine runs — one launch per topology
        // shard per request — each request merging the moment its last
        // shard returns, gathered in submission order.
        let run = executor::execute(&self.engine, jobs, self.workers, self.topology);
        // One latency sample per drained ticket: the shared prepare pass
        // plus that request's own pipelined completion offset.
        let drain_seconds = started.elapsed().as_secs_f64();
        for i in 0..run.results.len() {
            let completed = run
                .completion_seconds
                .get(i)
                .map_or(drain_seconds, |c| prepare_seconds + c);
            self.stats.latency.record_seconds(completed);
        }
        let mut stages = run.stages;
        stages.prepare_seconds = prepare_seconds;
        self.stats.stages.add(&stages);
        self.stats.drain_groups += run.groups as u64;
        if run.per_worker.len() > 1 {
            self.stats.parallel_drains += 1;
        }
        if !matches!(self.topology, Topology::Single) {
            self.stats.sharded_drains += 1;
        }
        self.stats.shard_launches += run.shard_launches;
        self.stats.migrations += run.migrations;
        self.stats.link_seconds += run.link_seconds;
        self.stats.block_loads += run.block_loads;
        self.stats.block_hits += run.block_hits;
        self.stats.block_evictions += run.block_evictions;
        if self.stats.worker_requests.len() < run.per_worker.len() {
            self.stats.worker_requests.resize(run.per_worker.len(), 0);
        }
        for (slot, n) in run.per_worker.iter().enumerate() {
            self.stats.worker_requests[slot] += n;
        }
        for report in run.results.iter().filter_map(|(_, r)| r.as_ref().ok()) {
            self.stats.sampler_state_builds += report.sampler_state_builds;
            self.stats.sampler_state_hits += report.sampler_state_hits;
        }
        run.results
    }

    /// Convenience: submit one job and drain immediately.
    ///
    /// # Errors
    ///
    /// As [`flexi_core::WalkEngine::run`]. Any previously pending submissions are
    /// executed first and their reports discarded — drain explicitly when
    /// batching.
    pub fn run(&mut self, req: WalkRequest) -> Result<RunReport, EngineError> {
        let ticket = self.submit(req);
        self.drain()
            .into_iter()
            .find(|(t, _)| *t == ticket)
            .expect("drained batch contains the submitted ticket")
            .1
    }

    /// Returns the entry for `handle`, registering it (one content digest,
    /// the only O(E) hashing pass the graph ever pays) on first sight.
    ///
    /// Cache keys derive deterministically from the entry and an epoch,
    /// so updates applied to the handle outside the session need no
    /// re-sync: unseen epochs simply key fresh cache rows, which rebuild
    /// from scratch on their first drain.
    fn entry_for(&mut self, handle: &GraphHandle) -> &GraphEntry {
        let id = handle.id();
        self.graphs.entry(id).or_insert_with(|| {
            self.stats.digests_computed += 1;
            let snap = handle.snapshot();
            GraphEntry {
                content: content_digest(&snap.graph),
                digest_epoch: snap.version.epoch,
                live_epoch: snap.version.epoch,
            }
        })
    }

    /// Resolves one request through the caches into a [`PreparedJob`] —
    /// the sequential half of a drain. The returned job carries everything
    /// the engine needs, so its execution no longer touches the session.
    fn prepare_job(
        &mut self,
        ticket: Ticket,
        req: WalkRequest,
        snapshots: &mut HashMap<u64, GraphSnapshot>,
    ) -> PreparedJob {
        // Pin the snapshot first, then key the caches for its epoch: the
        // walk must run over exactly the version the prepared state
        // describes. One snapshot per graph per drain — every request in a
        // batch group shares it.
        let id = req.graph.id();
        let snap = snapshots
            .entry(id)
            .or_insert_with(|| req.snapshot())
            .clone();
        let entry = *self.entry_for(&req.graph);
        let gfp = entry.fp_at(id, snap.version.epoch);
        // Serving a newer epoch than the GC cursor means the handle was
        // updated outside the session: the old epoch's rows are now
        // unreachable (epochs only advance) — drop them so out-of-band
        // update streams cannot grow the caches without bound.
        if entry.live_epoch < snap.version.epoch {
            self.evict_epoch(id, &entry, entry.live_epoch);
            self.graphs
                .get_mut(&id)
                .expect("registered above")
                .live_epoch = snap.version.epoch;
        }
        // Partitioned topologies resolve the epoch's partition plan here,
        // from the handle's plan cache — a from-scratch partitioning runs
        // once per (graph, shard count) per structural history, never per
        // drain (apply_updates migrates cached plans incrementally).
        let plan = self.topology.is_partitioned().then(|| {
            let (plan, fetch) = req.graph.partition_plan(&snap, self.topology.devices());
            match fetch {
                PlanFetch::Cached => self.stats.plan_hits += 1,
                PlanFetch::Built => self.stats.plan_builds += 1,
            }
            plan
        });
        // Out-of-core topologies resolve the epoch's block runtime (spill
        // + resident cache) the same way: the spill runs once per (graph,
        // geometry) per structural history — apply_updates re-spills only
        // dirty blocks — and the cache's residency survives across drains.
        let blocks = if let Topology::OutOfCore {
            resident_budget,
            block_bytes,
        } = self.topology
        {
            match req.graph.block_runtime(&snap, block_bytes, resident_budget) {
                Ok((rt, fetch)) => {
                    if fetch == PlanFetch::Built {
                        self.stats.block_spills += rt.blocks() as u64;
                    }
                    Some(rt)
                }
                Err(e) => {
                    // Spilling failed (disk full, unwritable tmp): the job
                    // reports the typed error instead of running.
                    return PreparedJob {
                        ticket,
                        req,
                        snap,
                        prepared: Err(EngineError::Io(e.to_string())),
                        plan,
                        blocks: None,
                        preprocess_hit: true,
                        profile_hit: true,
                    };
                }
            }
        } else {
            None
        };
        // Resolve the walker through the registry + lowering cache; a
        // failure (unknown name, compile error) becomes the job's typed
        // drain result instead of a panic.
        let walker = match self.resolve_walker(&req.walker) {
            Ok(cw) => cw,
            Err(e) => {
                return PreparedJob {
                    ticket,
                    req,
                    snap,
                    prepared: Err(e),
                    plan,
                    blocks,
                    preprocess_hit: true,
                    profile_hit: true,
                }
            }
        };
        // The job's request carries the resolved handle so the engine run
        // never consults the registry again.
        let req = req.with_walker(WalkerHandle::resolved(Arc::clone(&walker)));
        let wfp = walker.fingerprint();
        let artifacts = walker.artifacts().clone();

        let mut preprocess_hit = true;
        let aggregates = match self.aggregates.get(&(gfp, wfp)) {
            Some(agg) => Arc::clone(agg),
            None => {
                preprocess_hit = false;
                self.stats.aggregates_built += 1;
                let agg = Arc::new(self.engine.aggregates_for(&snap.graph, &artifacts));
                self.aggregates.insert((gfp, wfp), Arc::clone(&agg));
                agg
            }
        };

        let profile_key = (gfp, walker.walk_dyn().bytes_per_weight(&snap.graph));
        let mut profile_hit = true;
        let profile = match self.profiles.get(&profile_key) {
            Some(p) => Some(*p),
            None => {
                let fresh =
                    self.engine
                        .profile_for(&snap.graph, walker.walk_dyn(), req.config.seed);
                if let Some(p) = fresh {
                    profile_hit = false;
                    self.stats.profiles_run += 1;
                    self.profiles.insert(profile_key, p);
                }
                fresh
            }
        };

        PreparedJob {
            ticket,
            req,
            snap,
            prepared: Ok(PreparedState {
                artifacts,
                aggregates,
                profile,
            }),
            plan,
            blocks,
            preprocess_hit,
            profile_hit,
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.engine)
            .field("graphs", &self.graphs.len())
            .field("pending", &self.pending.len())
            .field("cached_walkers", &self.walkers.len())
            .field("cached_aggregates", &self.aggregates.len())
            .field("cached_profiles", &self.profiles.len())
            .field("workers", &self.workers)
            .field("topology", &self.topology)
            .field("stats", &self.stats)
            .finish()
    }
}
