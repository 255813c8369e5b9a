//! Weighted neighbor-sampling algorithms for dynamic random walks.
//!
//! Implements the four base sampling strategies the paper surveys (Fig. 2)
//! and the two optimised kernels it contributes (§3):
//!
//! | Method | Module | Used by |
//! |---|---|---|
//! | Alias sampling (ALS) | [`alias`] | Skywalker |
//! | Inverse-transform (ITS) | [`scalar::sample_its`] | C-SAW, ThunderRW |
//! | Rejection (RJS) | [`scalar::sample_rejection`] | NextDoor, KnightKing |
//! | Reservoir (RVS, prefix-sum) | [`scalar::sample_reservoir_prefix`] | FlowWalker |
//! | **eRVS** (exp-keys + jump) | [`scalar::sample_ervs_exp`], [`scalar::sample_ervs_jump`] | FlexiWalker |
//! | **eRJS** (bound estimation) | [`scalar::sample_rejection`] with estimated bound | FlexiWalker |
//!
//! Every method exists in two forms:
//!
//! - **scalar** ([`scalar`]) — straight-line reference implementations used
//!   by the CPU baseline engines and by the statistical test-suite;
//! - **warp kernels** ([`kernels`]) — SIMT implementations on
//!   [`flexi_gpu_sim::WarpCtx`] that additionally charge the memory
//!   transactions, RNG draws and warp-intrinsic steps each strategy costs,
//!   reproducing the paper's performance hierarchy.
//!
//! Both forms meet in the [`sampler`] module: the [`Sampler`] trait wraps a
//! strategy's identity, kernel entry points and cost-model coefficients,
//! and the [`SamplerRegistry`] is the pluggable set Flexi-Runtime selects
//! over — third-party strategies register there without engine changes.
//!
//! The [`stat`] module provides the chi-square goodness-of-fit helper the
//! correctness tests use to verify every sampler draws from the exact
//! target distribution `p(i) = w̃_i / Σ w̃`.

pub mod alias;
pub mod kernels;
pub mod sampler;
pub mod scalar;
pub mod stat;
pub mod state;
pub mod temporal;

pub use alias::AliasTable;
pub use sampler::{
    ids, AliasSampler, CostInputs, ErjsSampler, ErvsSampler, ExactMaxRjsSampler, Granularity,
    ItsSampler, ReservoirPrefixSampler, Sampler, SamplerId, SamplerRegistry,
};
pub use scalar::ScalarCost;
pub use state::{NodeState, StateTable};
pub use temporal::TcdfSampler;

/// Ceiling on rejection-sampling trials before falling back to a linear scan.
///
/// A pathological bound (or an adversarial weight distribution) could make
/// pure rejection loop for a very long time, so every rejection path bails
/// out to an exact linear-CDF sample, preserving the output distribution
/// while bounding worst-case work. The warp kernel
/// ([`kernels::lane_rejection`]) stops at `min(deg, MAX_REJECTION_TRIALS)`
/// trials, where one pass over the row becomes cheaper than more trials;
/// the scalar baselines ([`scalar::sample_rejection`]) stop at this flat
/// cap, as the KnightKing and NextDoor samplers they model do.
pub const MAX_REJECTION_TRIALS: u32 = 4096;
