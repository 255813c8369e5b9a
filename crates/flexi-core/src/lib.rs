//! FlexiWalker: an extensible framework for efficient dynamic random walks
//! with runtime adaptation (EuroSys '26 reproduction).
//!
//! The crate wires together the three paper components:
//!
//! - **Flexi-Kernel** — the optimised eRVS/eRJS sampling kernels live in
//!   [`flexi_sampling`]; this crate drives them through the concurrent
//!   warp kernel of §5.2 ([`engine`]).
//! - **Flexi-Runtime** — the first-order cost model (Eqs. 9–11) and the
//!   per-node, per-step sampler selection ([`runtime`]), fed by the
//!   profiling kernels of §5.1 ([`profile`]) and the preprocessed
//!   aggregates ([`preprocess`]).
//! - **Flexi-Compiler** — workload analysis and estimator generation from
//!   [`flexi_compiler`]; [`workload`] carries the paper's five workloads as
//!   both DSL sources and hand-written Rust, with tests proving the two
//!   agree.
//!
//! Cross-cutting pieces: the dynamic query queue of §5.3 ([`queue`]),
//! the host-side worker pool that fans independent jobs across threads
//! with a deterministic index-ordered merge ([`pool`]), multi-device
//! execution of §6.6 ([`multi_device`]), and the energy model
//! of §6.7 ([`energy`]). The [`engine::WalkEngine`] trait is the uniform
//! interface every baseline in `flexi-baselines` also implements, which is
//! what lets the benchmark harness iterate Table 2 over all systems.

pub mod energy;
pub mod engine;
pub mod multi_device;
pub mod out_of_core;
pub mod partitioned;
pub mod pool;
pub mod preprocess;
pub mod profile;
pub mod queue;
pub mod runtime;
pub mod service;
pub mod stage;
pub mod topology;
pub mod walker;
pub mod workload;

pub use engine::{
    compile_workload, CompiledArtifacts, EngineError, FlexiWalkerEngine, IntoQueries,
    PreparedState, RunReport, SamplerTally, ShardStats, WalkConfig, WalkEngine, WalkRequest,
    DEFAULT_TIME_BUDGET,
};
// The scale-out seam: topologies, the interconnect model, and the
// migration census the shard executor accounts with.
pub use out_of_core::{block_schedule, BlockStats, DiskSpec};
pub use topology::{migration_census, LinkSpec, Topology};
// The unified walker surface: definitions, the registry, handles, and the
// lowered artifact every source kind compiles into.
pub use walker::{
    CompiledWalker, IntoWalker, WalkerDef, WalkerHandle, WalkerRegistry, WalkerSource,
};
// Re-export the graph-handle seam: requests are built over these, so
// engine users should not have to name `flexi-graph` directly.
pub use flexi_graph::{
    block_of, shard_of, BlockRuntime, CacheCounters, GraphHandle, GraphSnapshot, GraphUpdate,
    GraphVersion, PartitionPlan, PlanFetch, ResidentCache, TimeMask, TimeWindow, UpdateOutcome,
};
pub use pool::{PoolRun, WorkerPool};
// The serving seam: bounded admission in front of the query queue and
// latency-percentile tracking for SLO accounting.
pub use preprocess::Aggregates;
pub use profile::ProfileResult;
pub use queue::QueryQueue;
pub use runtime::{
    ChurnProfile, CostModel, PricedCandidate, RuntimeEnv, SamplerSelection, SelectionStrategy,
};
pub use service::{Admission, AdmissionPolicy, AdmissionQueue, AdmissionStats, LatencyHistogram};
pub use stage::StageTiming;
// Re-export the sampling seam so engine users can register strategies
// without naming `flexi-sampling` directly.
pub use flexi_sampling::{
    ids as sampler_ids, NodeState, Sampler, SamplerId, SamplerRegistry, StateTable,
};
pub use workload::{
    static_max_bound, DynamicWalk, MetaPath, Node2Vec, SecondOrderPr, TemporalExp, TemporalLinear,
    TemporalUniform, UniformWalk, WalkState,
};
