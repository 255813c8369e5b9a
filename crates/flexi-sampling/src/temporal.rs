//! Temporal CDF sampling — the registry entry backing time-windowed walks.
//!
//! Time-biased walkers (exponential/linear recency kernels over a
//! [`TimeWindow`](../../flexi_graph/temporal/struct.TimeWindow.html)-masked
//! neighborhood) produce weight vectors that are *mostly zero*: every
//! masked or backwards-in-time edge weighs nothing. Rejection-style
//! strategies degrade badly there (the acceptance rate collapses with the
//! live fraction), and reservoir kernels still pay an RNG draw per dead
//! neighbor. The temporal CDF strategy instead materialises the running
//! sum in one coalesced pass — dead edges contribute nothing and cost no
//! RNG — and inverts it with a single draw.
//!
//! [`TcdfSampler`] is deliberately **not** part of
//! [`SamplerRegistry::builtin`](crate::SamplerRegistry::builtin): the
//! paper's evaluated pair stays exactly eRVS + eRJS. Temporal sessions
//! register it explicitly and the cost model argmins over it like any
//! other entry.

use crate::kernels::NeighborView;
use crate::sampler::{ids, CostInputs, Granularity, Sampler, SamplerId};
use crate::scalar::ScalarCost;
use crate::state::NodeState;
use flexi_gpu_sim::{WarpCtx, WARP_SIZE};
use flexi_rng::RandomSource;

/// Temporal CDF sampling: one coalesced weight pass accumulating the
/// running sum, one RNG draw, one inversion scan.
///
/// Draws from the exact target distribution `p(i) = w̃_i / Σ w̃` (the
/// registry contract), so Flexi-Runtime may interleave it freely with the
/// other strategies.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcdfSampler;

impl Sampler for TcdfSampler {
    fn id(&self) -> SamplerId {
        ids::TCDF
    }

    fn name(&self) -> &'static str {
        "temporal CDF"
    }

    fn granularity(&self) -> Granularity {
        Granularity::Warp
    }

    fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // One weight pass + the in-register running sum (≈ one sequential
        // unit per edge together), then an inversion whose random probes
        // amortise to a binary-search-depth handful. Always priceable —
        // no bound estimate involved.
        Some(2.0 * inp.deg + inp.edge_cost_ratio * inp.deg.max(1.0).log2())
    }

    fn sample_warp(&self, ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
        warp_tcdf(ctx, view)
    }

    fn sample_scalar(
        &self,
        weights: &[f32],
        _bound: Option<f32>,
        rng: &mut dyn RandomSource,
    ) -> (Option<usize>, ScalarCost) {
        sample_linear_cdf(weights, rng)
    }

    fn supports_state(&self) -> bool {
        true
    }

    fn build_node_state(&self, weights: &[f32]) -> Option<NodeState> {
        NodeState::build_cdf(weights)
    }

    fn state_step_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Prebuilt running sum: only the inversion's random probes remain.
        Some(inp.edge_cost_ratio * inp.deg.max(1.0).log2().max(1.0))
    }

    fn state_update_cost(&self, inp: &CostInputs) -> Option<f64> {
        // Re-prefix one dirty node's segment: a single coalesced pass.
        Some(2.0 * inp.deg)
    }
}

/// The warp kernel: chunked prefix sums over the live weights (one
/// coalesced pass, the running total carried in registers), then a single
/// draw inverted by a scan charged at binary-search depth.
pub fn warp_tcdf(ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
    let n = view.deg;
    if n == 0 {
        return None;
    }
    ctx.read_coalesced(n * view.bytes_per_weight);
    // The CDF never leaves the warp: per-chunk Hillis-Steele prefix sums
    // with the chunk carry shuffled along — no staging round-trip, the
    // structural saving over ITS on mostly-masked neighborhoods.
    let mut prefix = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    let chunks = n.div_ceil(WARP_SIZE);
    for c in 0..chunks {
        let mut vals = [0.0f32; WARP_SIZE];
        for (lane, v) in vals.iter_mut().enumerate() {
            let i = c * WARP_SIZE + lane;
            if i < n {
                *v = view.weight(i).max(0.0);
            }
        }
        let ps = ctx.prefix_sum_f32(&vals);
        for (lane, &p) in ps.iter().enumerate() {
            let i = c * WARP_SIZE + lane;
            if i < n {
                prefix.push(acc + f64::from(p));
            }
        }
        acc += f64::from(ps[WARP_SIZE - 1]);
        ctx.alu(WARP_SIZE as u64);
    }
    let total = *prefix.last().expect("n > 0");
    if total <= 0.0 {
        return None;
    }
    let target = ctx.draw_f64(0) * total;
    // Register-resident inversion: binary search over the prefix vector,
    // each probe a shuffle from the owning lane (no memory traffic).
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        ctx.alu(1);
        let mid = (lo + hi) / 2;
        if prefix[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    finish_pick(view, n, lo)
}

/// Scalar reference: running sum in one pass, one draw, inversion scan.
pub fn sample_linear_cdf(
    weights: &[f32],
    rng: &mut dyn RandomSource,
) -> (Option<usize>, ScalarCost) {
    let n = weights.len();
    let mut cost = ScalarCost {
        weight_evals: n as u64,
        aux_ops: n as u64,
        ..Default::default()
    };
    if n == 0 {
        return (None, cost);
    }
    let total: f64 = weights.iter().map(|&w| f64::from(w.max(0.0))).sum();
    if total <= 0.0 {
        return (None, cost);
    }
    cost.rng_draws = 1;
    let target = rng.uniform_f64() * total;
    let mut acc = 0.0f64;
    for (i, &w) in weights.iter().enumerate() {
        acc += f64::from(w.max(0.0));
        cost.probe_reads += 1;
        if acc >= target && w > 0.0 {
            return (Some(i), cost);
        }
    }
    // Rounding pushed the target past the last positive entry.
    (weights.iter().rposition(|&w| w > 0.0), cost)
}

/// Maps the inverted CDF position to a *positive-weight* neighbor: a zero
/// slot can be hit when the target lands exactly on a run of dead edges.
fn finish_pick(view: &NeighborView<'_>, n: usize, at: usize) -> Option<usize> {
    let mut i = at;
    while i < n && view.weight(i) <= 0.0 {
        i += 1;
    }
    if i == n {
        return (0..n).rev().find(|&j| view.weight(j) > 0.0);
    }
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat;
    use crate::SamplerRegistry;
    use flexi_rng::Philox4x32;

    // A temporal-looking vector: most edges masked to zero.
    const WEIGHTS: [f32; 8] = [0.0, 0.0, 3.0, 0.0, 1.0, 0.0, 0.0, 2.0];

    #[test]
    fn scalar_matches_distribution_on_masked_weights() {
        let mut counts = vec![0u64; WEIGHTS.len()];
        for trial in 0..40_000u64 {
            let mut rng = Philox4x32::new(trial, 0x7C);
            let (picked, _) = TcdfSampler.sample_scalar(&WEIGHTS, None, &mut rng);
            counts[picked.expect("positive weights")] += 1;
        }
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "scalar tcdf");
    }

    #[test]
    fn warp_kernel_matches_distribution() {
        let wf = |i: usize| WEIGHTS[i];
        let view = NeighborView::new(&wf, WEIGHTS.len(), 12);
        let mut counts = vec![0u64; WEIGHTS.len()];
        for trial in 0..40_000u64 {
            let mut ctx = WarpCtx::new(trial as usize, 0x7D);
            let picked = TcdfSampler.sample_warp(&mut ctx, &view);
            counts[picked.expect("positive weights")] += 1;
        }
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "warp tcdf");
    }

    #[test]
    fn dead_neighborhoods_and_empty_views_are_none() {
        let dead = [0.0f32; 4];
        let mut rng = Philox4x32::new(1, 2);
        assert_eq!(TcdfSampler.sample_scalar(&dead, None, &mut rng).0, None);
        let wf = |_: usize| 0.0f32;
        let mut ctx = WarpCtx::new(0, 3);
        assert_eq!(
            TcdfSampler.sample_warp(&mut ctx, &NeighborView::new(&wf, 4, 12)),
            None
        );
        assert_eq!(
            TcdfSampler.sample_warp(&mut ctx, &NeighborView::new(&wf, 0, 12)),
            None
        );
    }

    #[test]
    fn cost_is_priceable_without_bounds_and_charges_weight_pass() {
        let inp = CostInputs {
            deg: 64.0,
            max_est: None,
            sum_est: None,
            edge_cost_ratio: 8.0,
        };
        let cost = TcdfSampler.step_cost(&inp).expect("bound-free");
        assert!((cost - (128.0 + 8.0 * 6.0)).abs() < 1e-9);
        assert!(!TcdfSampler.needs_bound());
        // The kernel's accounting reflects the single coalesced pass.
        let wf = |i: usize| WEIGHTS[i];
        let view = NeighborView::new(&wf, WEIGHTS.len(), 12);
        let mut ctx = WarpCtx::new(0, 0x7E);
        TcdfSampler.sample_warp(&mut ctx, &view).unwrap();
        assert!(ctx.stats().coalesced_transactions >= 1);
        assert_eq!(ctx.stats().random_transactions, 0, "CDF stays in registers");
    }

    #[test]
    fn tcdf_stays_out_of_the_builtin_registries() {
        assert!(!SamplerRegistry::builtin().contains(ids::TCDF));
        assert!(!SamplerRegistry::with_baselines().contains(ids::TCDF));
        let mut r = SamplerRegistry::builtin();
        r.register(std::sync::Arc::new(TcdfSampler));
        assert_eq!(
            r.ids().last().copied(),
            Some(ids::TCDF),
            "appended after the pair"
        );
        assert_eq!(r.len(), 3);
    }
}
