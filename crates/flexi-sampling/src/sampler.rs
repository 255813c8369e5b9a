//! The pluggable sampling-strategy abstraction (the "extensible" in
//! FlexiWalker).
//!
//! The paper's framing is that new dynamic-walk sampling strategies plug
//! into the engine and Flexi-Runtime adapts over them per node, per step.
//! This module is that seam:
//!
//! - [`Sampler`] — one neighbor-sampling strategy: an identifier, a scalar
//!   reference implementation, a warp-kernel entry point, and the
//!   first-order cost coefficients Flexi-Runtime feeds into its selection
//!   (the generalisation of the paper's Eq. 9–11 two-way comparison);
//! - [`SamplerRegistry`] — the ordered set of strategies an engine run may
//!   select between. Third-party strategies implement [`Sampler`] and are
//!   registered without touching the engine.
//!
//! The six strategies the paper discusses ship as built-ins: the two
//! optimised Flexi-Kernels ([`ErvsSampler`], [`ErjsSampler`]) and the four
//! baseline methods ([`ItsSampler`], [`AliasSampler`],
//! [`ReservoirPrefixSampler`], [`ExactMaxRjsSampler`]).

use crate::alias::AliasTable;
use crate::kernels::{
    lane_rejection, warp_alias, warp_ervs, warp_its, warp_max_reduce_scattered,
    warp_reservoir_prefix, ErvsMode, NeighborView,
};
use crate::scalar::{
    exact_max, sample_alias, sample_ervs_exp, sample_ervs_jump, sample_its, sample_rejection,
    sample_reservoir_prefix, ScalarCost,
};
use crate::state::NodeState;
use flexi_gpu_sim::WarpCtx;
use flexi_rng::RandomSource;
use std::sync::Arc;

/// Identifier of a sampling strategy, the key of [`SamplerRegistry`] and of
/// per-sampler step counts in run reports.
pub type SamplerId = &'static str;

/// Well-known ids of the built-in strategies.
pub mod ids {
    use super::SamplerId;

    /// Optimised reservoir sampling (exponential keys + jump), §3.2.
    pub const ERVS: SamplerId = "ervs";
    /// Optimised rejection sampling with estimated bound, §3.3.
    pub const ERJS: SamplerId = "erjs";
    /// Inverse-transform sampling (C-SAW).
    pub const ITS: SamplerId = "its";
    /// Alias sampling with per-step table builds (Skywalker).
    pub const ALS: SamplerId = "als";
    /// Prefix-sum reservoir sampling (FlowWalker).
    pub const RVS: SamplerId = "rvs";
    /// Rejection sampling with exact per-step max (NextDoor, KnightKing).
    pub const RJS: SamplerId = "rjs";
    /// Temporal CDF sampling for time-windowed walks
    /// ([`TcdfSampler`](crate::temporal::TcdfSampler)).
    pub const TCDF: SamplerId = "tcdf";
}

/// How a strategy occupies the warp during one sampling step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Granularity {
    /// Thread-granular: each lane samples its own query independently
    /// (rejection-style trials).
    Lane,
    /// Warp-granular: all 32 lanes cooperate on one query's neighbor list
    /// (scan/reduce-style kernels).
    Warp,
}

/// Inputs to a strategy's first-order cost estimate for one candidate
/// sampling step — the generalisation of the paper's Eq. 9–11.
#[derive(Clone, Copy, Debug)]
pub struct CostInputs {
    /// Out-degree of the walker's current node.
    pub deg: f64,
    /// Estimated max transition weight `max(w̃)` (compiler bound), if any.
    pub max_est: Option<f64>,
    /// Estimated weight sum `Σw̃` (compiler sum estimator), if any.
    pub sum_est: Option<f64>,
    /// Profiled `EdgeCost_random / EdgeCost_sequential` ratio (Eq. 11's
    /// `EdgeCost_RJS / EdgeCost_RVS`), measured by the §5.1 kernels.
    pub edge_cost_ratio: f64,
}

/// One pluggable neighbor-sampling strategy.
///
/// Implementations must draw from the *exact* target distribution
/// `p(i) = w̃_i / Σ w̃` — Flexi-Runtime switches strategies per step, which
/// is only sound if every strategy samples the same distribution.
pub trait Sampler: Send + Sync {
    /// Stable identifier (registry key, report key).
    fn id(&self) -> SamplerId;

    /// Human-readable name for tables and logs.
    fn name(&self) -> &'static str {
        self.id()
    }

    /// Warp-occupancy class of the kernel entry point.
    fn granularity(&self) -> Granularity;

    /// Whether [`Sampler::sample_lane`] requires an upper bound on the
    /// transition weights (rejection-style strategies).
    fn needs_bound(&self) -> bool {
        false
    }

    /// Expected cost of sampling one step at a node described by `inp`, in
    /// units of one sequential per-edge access.
    ///
    /// `None` means the strategy cannot run (or cannot be priced) at this
    /// node — e.g. rejection sampling without a usable bound estimate. The
    /// cost-model selection skips such strategies.
    fn step_cost(&self, inp: &CostInputs) -> Option<f64>;

    /// Warp-granular kernel entry point (granularity [`Granularity::Warp`]).
    ///
    /// The whole warp cooperates on `view`; returns the sampled neighbor
    /// index, or `None` if all weights are zero.
    fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
        let _ = (ctx, view);
        unimplemented!("{} has no warp-granular kernel", self.id())
    }

    /// Thread-granular kernel entry point (granularity [`Granularity::Lane`])
    /// on `lane`, with an optional weight upper bound.
    fn sample_lane(
        &self,
        ctx: &mut WarpCtx,
        lane: usize,
        view: &NeighborView<'_>,
        bound: Option<f32>,
    ) -> Option<usize> {
        let _ = (ctx, lane, view, bound);
        unimplemented!("{} has no thread-granular kernel", self.id())
    }

    /// Scalar reference implementation used by CPU engines and the
    /// statistical test-suite.
    fn sample_scalar(
        &self,
        weights: &[f32],
        bound: Option<f32>,
        rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost);

    // ---- Optional incremental-state entry points -------------------------

    /// Whether this strategy can serve steps from a prebuilt, incrementally
    /// maintained per-node artifact ([`NodeState`]).
    ///
    /// Only sound for weight functions that do not depend on walker
    /// history — the engine gates the state path on the compiler's
    /// static-weight analysis.
    fn supports_state(&self) -> bool {
        false
    }

    /// Builds this strategy's per-node artifact from one node's transition
    /// weights (`None` for dead-end / all-zero neighborhoods, and the
    /// default for strategies without state support).
    fn build_node_state(&self, weights: &[f32]) -> Option<NodeState> {
        let _ = weights;
        None
    }

    /// Expected cost of sampling one step *from a prebuilt artifact*, in
    /// the same units as [`Sampler::step_cost`]. This is what the
    /// update-aware cost model prices instead of `step_cost` when the
    /// node's artifact is resident.
    fn state_step_cost(&self, inp: &CostInputs) -> Option<f64> {
        let _ = inp;
        None
    }

    /// Expected cost of re-deriving one dirty node's artifact after an
    /// update batch — the per-node O(Δ) maintenance charge the cost model
    /// amortises against churn when argmin-ing (a strategy that samples
    /// fast but rebuilds slow should lose under heavy churn).
    fn state_update_cost(&self, inp: &CostInputs) -> Option<f64> {
        let _ = inp;
        None
    }
}

/// The ordered set of strategies an engine run selects between.
///
/// Registration order is significant: when the cost model prices two
/// strategies identically, the earlier registration wins. The paper's
/// default pair registers eRVS before eRJS so that Eq. 11's strict
/// inequality (`ratio · max < sum`) is reproduced exactly.
#[derive(Clone)]
pub struct SamplerRegistry {
    samplers: Vec<Arc<dyn Sampler>>,
}

impl SamplerRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self {
            samplers: Vec::new(),
        }
    }

    /// The paper's Flexi-Kernel pair: eRVS (full `+JUMP` kernel) then eRJS.
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register(Arc::new(ErvsSampler::default()));
        r.register(Arc::new(ErjsSampler));
        r
    }

    /// The built-in pair plus the four surveyed baseline strategies
    /// (ITS, ALS, prefix-sum RVS, exact-max RJS).
    pub fn with_baselines() -> Self {
        let mut r = Self::builtin();
        r.register(Arc::new(ItsSampler));
        r.register(Arc::new(AliasSampler));
        r.register(Arc::new(ReservoirPrefixSampler));
        r.register(Arc::new(ExactMaxRjsSampler));
        r
    }

    /// Registers `sampler`, replacing any existing strategy with the same
    /// id (in place, keeping its selection priority).
    pub fn register(&mut self, sampler: Arc<dyn Sampler>) {
        match self.samplers.iter_mut().find(|s| s.id() == sampler.id()) {
            Some(slot) => *slot = sampler,
            None => self.samplers.push(sampler),
        }
    }

    /// Looks a strategy up by id.
    pub fn get(&self, id: &str) -> Option<&Arc<dyn Sampler>> {
        self.samplers.iter().find(|s| s.id() == id)
    }

    /// Whether `id` is registered.
    pub fn contains(&self, id: &str) -> bool {
        self.get(id).is_some()
    }

    /// Registered ids, in priority order.
    pub fn ids(&self) -> Vec<SamplerId> {
        self.samplers.iter().map(|s| s.id()).collect()
    }

    /// Iterates strategies in priority order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Sampler>> {
        self.samplers.iter()
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.samplers.len()
    }

    /// Whether no strategy is registered.
    pub fn is_empty(&self) -> bool {
        self.samplers.is_empty()
    }
}

impl Default for SamplerRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl std::fmt::Debug for SamplerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SamplerRegistry").field(&self.ids()).finish()
    }
}

// ---- Built-in strategies --------------------------------------------------

/// eRVS: the paper's optimised reservoir kernel (§3.2) — exponential keys
/// plus the exponential-jump trick. One coalesced weight pass, `O(log n)`
/// RNG draws.
#[derive(Clone, Copy, Debug)]
pub struct ErvsSampler {
    /// Optimisation stage (the Fig. 12a ablation axis).
    pub mode: ErvsMode,
}

impl Default for ErvsSampler {
    fn default() -> Self {
        Self {
            mode: ErvsMode::ExpJump,
        }
    }
}

impl ErvsSampler {
    /// eRVS at the given optimisation stage.
    pub fn with_mode(mode: ErvsMode) -> Self {
        Self { mode }
    }
}

impl Sampler for ErvsSampler {
    fn id(&self) -> SamplerId {
        ids::ERVS
    }

    fn granularity(&self) -> Granularity {
        Granularity::Warp
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Eq. 9: Cost_RVS = EdgeCost_seq · deg. Always runnable — this is
        // the sound fallback every registry should contain.
        Some(inp.deg)
    }

    fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
        warp_ervs(ctx, view, self.mode)
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        _bound: Option<f32>,
        mut rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        match self.mode {
            ErvsMode::Exp => sample_ervs_exp(weights, &mut rng),
            ErvsMode::ExpJump => sample_ervs_jump(weights, &mut rng),
        }
    }
}

/// eRJS: the paper's optimised rejection kernel (§3.3) — thread-granular
/// trials against a compiler-estimated upper bound, no max reduction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErjsSampler;

impl Sampler for ErjsSampler {
    fn id(&self) -> SamplerId {
        ids::ERJS
    }

    fn granularity(&self) -> Granularity {
        Granularity::Lane
    }

    fn needs_bound(&self) -> bool {
        true
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Eq. 10: Cost_RJS = EdgeCost_rand · deg · max(w̃) / Σw̃ (expected
        // trials × random-probe cost). Unpriceable without estimates.
        match (inp.max_est, inp.sum_est) {
            (Some(mx), Some(sm)) if mx.is_finite() && sm.is_finite() && mx > 0.0 && sm > 0.0 => {
                Some(inp.edge_cost_ratio * inp.deg * mx / sm)
            }
            _ => None,
        }
    }

    fn sample_lane(
        &self,
        ctx: &mut WarpCtx,
        lane: usize,
        view: &NeighborView<'_>,
        bound: Option<f32>,
    ) -> Option<usize> {
        // No usable bound means the estimator declined: treat as a dead end
        // (the runtime should not have selected eRJS here).
        let bound = bound?;
        lane_rejection(ctx, lane, view, bound).0
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        bound: Option<f32>,
        mut rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        match bound {
            Some(b) => sample_rejection(weights, b, &mut rng),
            None => {
                // Scalar fallback: pay the exact max (KnightKing's cost).
                let (mx, mut cost) = exact_max(weights);
                if mx <= 0.0 {
                    return (None, cost);
                }
                let (picked, c2) = sample_rejection(weights, mx, &mut rng);
                cost.add(&c2);
                (picked, cost)
            }
        }
    }
}

/// Inverse-transform sampling with per-step prefix sums (C-SAW).
#[derive(Clone, Copy, Debug, Default)]
pub struct ItsSampler;

impl Sampler for ItsSampler {
    fn id(&self) -> SamplerId {
        ids::ITS
    }

    fn granularity(&self) -> Granularity {
        Granularity::Warp
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Weight pass + staging round-trip + CDF store/normalise passes,
        // then a binary search of random probes.
        Some(5.0 * inp.deg + inp.edge_cost_ratio * inp.deg.max(1.0).log2())
    }

    fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
        warp_its(ctx, view)
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        _bound: Option<f32>,
        mut rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        sample_its(weights, &mut rng)
    }

    fn supports_state(&self) -> bool {
        true
    }

    fn build_node_state(&self, weights: &[f32]) -> Option<NodeState> {
        NodeState::build_cdf(weights)
    }

    fn state_step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // The CDF is prebuilt: only the binary-search inversion remains.
        Some(inp.edge_cost_ratio * inp.deg.max(1.0).log2().max(1.0))
    }

    fn state_update_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Segment re-prefix of one dirty node: weight pass + CDF store.
        Some(2.0 * inp.deg)
    }
}

/// Alias sampling with per-step table construction (Skywalker).
#[derive(Clone, Copy, Debug, Default)]
pub struct AliasSampler;

impl Sampler for AliasSampler {
    fn id(&self) -> SamplerId {
        ids::ALS
    }

    fn granularity(&self) -> Granularity {
        Granularity::Warp
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Weight pass + two-stack table build (read-modify-write of the
        // prob/alias pair, ~2 visits per bucket) + table stores.
        Some(7.0 * inp.deg + 2.0 * inp.edge_cost_ratio)
    }

    fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
        warp_alias(ctx, view)
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        _bound: Option<f32>,
        mut rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        sample_alias(weights, &mut rng)
    }

    fn supports_state(&self) -> bool {
        true
    }

    fn build_node_state(&self, weights: &[f32]) -> Option<NodeState> {
        AliasTable::build(weights).map(NodeState::Alias)
    }

    fn state_step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // The table is prebuilt: two draws and one random bucket probe —
        // the O(1) sample the alias method promises once construction is
        // amortised across an epoch.
        Some(2.0 * inp.edge_cost_ratio)
    }

    fn state_update_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Vose rebuild of one dirty node's table (bias re-factorisation):
        // same two-stack traffic as the stateless per-step build.
        Some(7.0 * inp.deg)
    }
}

/// Prefix-sum parallel reservoir sampling (FlowWalker).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReservoirPrefixSampler;

impl Sampler for ReservoirPrefixSampler {
    fn id(&self) -> SamplerId {
        ids::RVS
    }

    fn granularity(&self) -> Granularity {
        Granularity::Warp
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Double weight traffic (weights + prefix re-read) plus one RNG
        // draw per neighbor.
        Some(2.5 * inp.deg)
    }

    fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
        warp_reservoir_prefix(ctx, view)
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        _bound: Option<f32>,
        mut rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        sample_reservoir_prefix(weights, &mut rng)
    }
}

/// Rejection sampling with an exact per-step max reduction (NextDoor's
/// dynamic path, KnightKing): the strategy eRJS's bound estimation
/// replaces.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactMaxRjsSampler;

impl Sampler for ExactMaxRjsSampler {
    fn id(&self) -> SamplerId {
        ids::RJS
    }

    fn granularity(&self) -> Granularity {
        Granularity::Lane
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Scattered max reduction over every edge, then the expected
        // rejection trials (assume 2 when the skew is unknown).
        let trials = match (inp.max_est, inp.sum_est) {
            (Some(mx), Some(sm)) if sm > 0.0 && mx > 0.0 => inp.deg * mx / sm,
            _ => 2.0,
        };
        Some(inp.edge_cost_ratio * (inp.deg + trials))
    }

    fn sample_lane(
        &self,
        ctx: &mut WarpCtx,
        lane: usize,
        view: &NeighborView<'_>,
        bound: Option<f32>,
    ) -> Option<usize> {
        // A statically known bound skips the reduction (NextDoor's
        // "partial" dynamic support); otherwise pay the transit-scattered
        // exact max.
        let bound = match bound {
            Some(b) => b,
            None => warp_max_reduce_scattered(ctx, view),
        };
        if bound > 0.0 {
            lane_rejection(ctx, lane, view, bound).0
        } else {
            None
        }
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        bound: Option<f32>,
        mut rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        let (bound, mut cost) = match bound {
            Some(b) => (b, ScalarCost::default()),
            None => exact_max(weights),
        };
        if bound <= 0.0 {
            return (None, cost);
        }
        let (picked, c2) = sample_rejection(weights, bound, &mut rng);
        cost.add(&c2);
        (picked, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat;
    use flexi_rng::Philox4x32;

    const WEIGHTS: [f32; 5] = [3.0, 2.0, 4.0, 1.0, 0.5];

    fn all_builtins() -> SamplerRegistry {
        SamplerRegistry::with_baselines()
    }

    #[test]
    fn registry_preserves_priority_order() {
        let r = SamplerRegistry::builtin();
        assert_eq!(r.ids(), vec![ids::ERVS, ids::ERJS]);
        assert!(r.contains(ids::ERJS));
        assert!(!r.contains("nonsense"));
    }

    #[test]
    fn register_replaces_in_place() {
        let mut r = SamplerRegistry::builtin();
        r.register(Arc::new(ErvsSampler::with_mode(ErvsMode::Exp)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.ids(), vec![ids::ERVS, ids::ERJS], "priority kept");
    }

    #[test]
    fn ervs_cost_is_eq9_and_erjs_cost_is_eq10() {
        let inp = CostInputs {
            deg: 100.0,
            max_est: Some(2.0),
            sum_est: Some(100.0),
            edge_cost_ratio: 8.0,
        };
        assert_eq!(ErvsSampler::default().step_cost(&inp), Some(100.0));
        assert_eq!(ErjsSampler.step_cost(&inp), Some(8.0 * 100.0 * 2.0 / 100.0));
    }

    #[test]
    fn erjs_is_unpriceable_without_estimates() {
        let inp = CostInputs {
            deg: 10.0,
            max_est: None,
            sum_est: Some(5.0),
            edge_cost_ratio: 8.0,
        };
        assert_eq!(ErjsSampler.step_cost(&inp), None);
        // eRVS remains runnable: the sound fallback.
        assert!(ErvsSampler::default().step_cost(&inp).is_some());
    }

    #[test]
    fn every_builtin_scalar_entry_matches_distribution() {
        for sampler in all_builtins().iter() {
            let mut counts = vec![0u64; WEIGHTS.len()];
            for trial in 0..40_000u64 {
                let mut rng = Philox4x32::new(trial, 0x5A);
                let (picked, _) = sampler.sample_scalar(&WEIGHTS, Some(4.0), &mut rng);
                counts[picked.expect("positive weights")] += 1;
            }
            stat::assert_matches_distribution(
                &counts,
                &stat::normalize(&WEIGHTS),
                &format!("scalar {}", sampler.id()),
            );
        }
    }

    #[test]
    fn every_builtin_kernel_entry_matches_distribution() {
        for sampler in all_builtins().iter() {
            let wf = |i: usize| WEIGHTS[i];
            let view = NeighborView::new(&wf, WEIGHTS.len(), 8);
            let mut counts = vec![0u64; WEIGHTS.len()];
            for trial in 0..40_000u64 {
                let mut ctx = WarpCtx::new(trial as usize, 0xD1);
                let picked = match sampler.granularity() {
                    Granularity::Warp => sampler.sample_warp(&mut ctx, &view),
                    Granularity::Lane => sampler.sample_lane(&mut ctx, 0, &view, Some(4.0)),
                };
                counts[picked.expect("positive weights")] += 1;
            }
            stat::assert_matches_distribution(
                &counts,
                &stat::normalize(&WEIGHTS),
                &format!("kernel {}", sampler.id()),
            );
        }
    }

    #[test]
    fn row_views_pick_and_charge_exactly_like_lazy_views() {
        // A filled row must be indistinguishable from lazy evaluation: same
        // pick, same charged transactions / draws / shuffles, for every
        // sampler — including rows whose live edges start past the first
        // 32 (the zero-prefix case) and all-dead rows.
        let mut registry = all_builtins();
        registry.register(Arc::new(crate::TcdfSampler));
        let mut rng = Philox4x32::new(7, 0x40);
        let mut rows: Vec<Vec<f32>> = Vec::new();
        for deg in [1usize, 5, 31, 32, 33, 64, 200, 1024] {
            rows.push((0..deg).map(|_| rng.uniform_f32() * 4.0).collect());
            // Sparse: most edges dead.
            rows.push(
                (0..deg)
                    .map(|_| {
                        let w = rng.uniform_f32();
                        if w < 0.8 {
                            0.0
                        } else {
                            w * 8.0
                        }
                    })
                    .collect(),
            );
            // Zero prefix: the first 40 edges dead.
            rows.push(
                (0..deg)
                    .map(|i| if i < 40 { 0.0 } else { 1.0 + (i % 3) as f32 })
                    .collect(),
            );
        }
        rows.push(vec![0.0; 48]);
        for sampler in registry.iter() {
            for (r, row) in rows.iter().enumerate() {
                let bound = row.iter().copied().fold(0.0f32, f32::max);
                let bounds = if sampler.needs_bound() || sampler.id() == ids::RJS {
                    vec![(bound > 0.0).then_some(bound), None]
                } else {
                    vec![None]
                };
                for b in bounds {
                    for seed in 0..4u64 {
                        let wf = |i: usize| row[i];
                        let lazy = NeighborView::new(&wf, row.len(), 12);
                        let filled = NeighborView::from_row(row, 12);
                        let run = |view: &NeighborView<'_>| {
                            let mut ctx = WarpCtx::new(r, seed);
                            let pick = match sampler.granularity() {
                                Granularity::Warp => sampler.sample_warp(&mut ctx, view),
                                Granularity::Lane => sampler.sample_lane(&mut ctx, 3, view, b),
                            };
                            (pick, *ctx.stats())
                        };
                        assert_eq!(
                            run(&lazy),
                            run(&filled),
                            "{} row {r} (deg {}) bound {b:?} seed {seed}",
                            sampler.id(),
                            row.len()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_max_rjs_reduces_when_bound_missing() {
        let wf = |i: usize| WEIGHTS[i];
        let view = NeighborView::new(&wf, WEIGHTS.len(), 8);
        let mut ctx = WarpCtx::new(0, 0xBB);
        let picked = ExactMaxRjsSampler.sample_lane(&mut ctx, 0, &view, None);
        assert!(picked.is_some());
        // The scattered reduction charges random transactions per edge.
        assert!(ctx.stats().random_transactions >= WEIGHTS.len() as u64);
    }

    #[test]
    fn erjs_without_bound_is_dead_end_on_device() {
        let wf = |i: usize| WEIGHTS[i];
        let view = NeighborView::new(&wf, WEIGHTS.len(), 8);
        let mut ctx = WarpCtx::new(0, 0xBC);
        assert_eq!(ErjsSampler.sample_lane(&mut ctx, 0, &view, None), None);
    }
}
