//! Warp-level (SIMT) sampling kernels with memory-cost accounting.
//!
//! Each kernel mirrors its scalar counterpart in [`crate::scalar`] but is
//! expressed as lockstep 32-lane execution on a [`WarpCtx`], charging the
//! DRAM transactions, RNG draws and warp-intrinsic steps the real CUDA
//! kernel would issue. The charged quantities are what the paper's analysis
//! (§3, §4.1) says distinguishes the strategies:
//!
//! - ITS/ALS pay auxiliary-structure construction *per step*;
//! - baseline RJS pays a full max-reduction per step (NextDoor);
//! - baseline RVS pays prefix sums (double weight traffic) and one RNG draw
//!   per neighbor (FlowWalker);
//! - eRVS pays a single weight pass and ~`O(log n)` RNG draws;
//! - eRJS pays only probed weights, given a bound from the estimator.

use crate::MAX_REJECTION_TRIALS;
use flexi_gpu_sim::{WarpCtx, WARP_SIZE};

/// A warp's view of the current node's neighbor transition weights.
///
/// [`NeighborView::weight`]`(i)` is the *dynamic* transition weight
/// `w̃(v, uᵢ) = w(v, uᵢ) · h(v, uᵢ)` of the `i`-th neighbor;
/// `bytes_per_weight` is the DRAM traffic one evaluation touches
/// (adjacency entry + property weight, and for second-order workloads the
/// `dist(v', uᵢ)` probe). The weights come either from a lazy evaluator
/// ([`NeighborView::new`]: rejection probes touch only the edges they
/// draw) or from a row filled in one pass ([`NeighborView::from_row`]:
/// scan kernels index it directly). Both forms charge the same simulated
/// traffic — the kernels charge explicitly, never per call. The two
/// kernels the runtime picks almost every step (eRVS, rejection) resolve
/// the form once per call instead of once per weight, keeping the branch
/// out of their per-edge and per-trial loops.
pub struct NeighborView<'a> {
    weights: Weights<'a>,
    /// Number of neighbors.
    pub deg: usize,
    /// DRAM bytes touched per single-neighbor weight evaluation.
    pub bytes_per_weight: usize,
}

enum Weights<'a> {
    Lazy(&'a dyn Fn(usize) -> f32),
    Row(&'a [f32]),
}

impl<'a> NeighborView<'a> {
    /// A view evaluating `weight(i)` on demand.
    pub fn new(weight: &'a dyn Fn(usize) -> f32, deg: usize, bytes_per_weight: usize) -> Self {
        Self {
            weights: Weights::Lazy(weight),
            deg,
            bytes_per_weight,
        }
    }

    /// A view over an already-computed weight row (`deg = row.len()`).
    pub fn from_row(row: &'a [f32], bytes_per_weight: usize) -> Self {
        Self {
            weights: Weights::Row(row),
            deg: row.len(),
            bytes_per_weight,
        }
    }

    /// The transition weight of neighbor `i < deg`.
    #[inline]
    pub fn weight(&self, i: usize) -> f32 {
        match self.weights {
            Weights::Lazy(f) => f(i),
            Weights::Row(row) => row[i],
        }
    }
}

/// Charges one warp-wide coalesced pass over `count` weights.
fn charge_weight_pass(ctx: &mut WarpCtx, view: &NeighborView<'_>, count: usize) {
    ctx.read_coalesced(count * view.bytes_per_weight);
}

/// Inverse-transform sampling, C-SAW style (Fig. 2c).
///
/// Full weight pass → staging round-trip → warp prefix sums → normalised
/// CDF stored back → binary search by a single lane. Charged: the weight
/// pass, the weight staging write/read, the CDF store plus its
/// normalisation read-modify-write, `log₂ deg` random probes, and the
/// per-chunk shuffle stages with their serial chunk-carry dependency.
#[allow(clippy::needless_range_loop)]
pub fn warp_its(ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
    let n = view.deg;
    if n == 0 {
        return None;
    }
    charge_weight_pass(ctx, view, n);
    // The computed weights are staged to memory and re-read by the
    // prefix-sum pass (registers cannot hold an arbitrary-degree list).
    ctx.write_coalesced(n * 4);
    ctx.read_coalesced(n * 4);
    // Prefix-sum the weights chunk by chunk (Hillis-Steele per chunk).
    let mut prefix = Vec::with_capacity(n);
    let mut acc = 0.0f64;
    let chunks = n.div_ceil(WARP_SIZE);
    for c in 0..chunks {
        let mut vals = [0.0f32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            let i = c * WARP_SIZE + lane;
            if i < n {
                vals[lane] = view.weight(i).max(0.0);
            }
        }
        let ps = ctx.prefix_sum_f32(&vals);
        for lane in 0..WARP_SIZE {
            let i = c * WARP_SIZE + lane;
            if i < n {
                prefix.push(acc + f64::from(ps[lane]));
            }
        }
        acc += f64::from(ps[WARP_SIZE - 1]);
        ctx.alu(WARP_SIZE as u64);
    }
    // Store the CDF, then normalise it in place (C-SAW materialises the
    // normalised distribution in memory: one write pass, one read-modify-
    // write pass, plus the serial chunk-carry dependency chain).
    ctx.write_coalesced(n * 4);
    ctx.read_coalesced(n * 4);
    ctx.write_coalesced(n * 4);
    ctx.alu(n as u64);
    let total = *prefix.last().expect("n > 0");
    if total <= 0.0 {
        return None;
    }
    let target = ctx.draw_f64(0) * total;
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        ctx.read_random(4);
        let mid = (lo + hi) / 2;
        if prefix[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let mut i = lo;
    while i < n && view.weight(i) <= 0.0 {
        i += 1;
    }
    if i == n {
        i = (0..n).rev().find(|&j| view.weight(j) > 0.0)?;
    }
    Some(i)
}

/// Alias sampling, Skywalker style (Fig. 2b).
///
/// Full weight pass → mean reduction → table construction (two arrays
/// written) → 2 RNG draws + one random table probe. The per-step table
/// build is the dominant charge.
pub fn warp_alias(ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
    let n = view.deg;
    if n == 0 {
        return None;
    }
    charge_weight_pass(ctx, view, n);
    let weights: Vec<f32> = (0..n).map(|i| view.weight(i)).collect();
    // Mean reduction (per-chunk butterfly).
    let chunks = n.div_ceil(WARP_SIZE) as u64;
    for _ in 0..chunks {
        let zero = [0.0f32; WARP_SIZE];
        ctx.reduce_sum_f32(&zero);
    }
    // Table construction: classify buckets, then redistribute excess —
    // every bucket is visited on average twice while the two-stack
    // balancing donates overweight mass (read-modify-write of the
    // prob/alias pair each time) — then store the final arrays.
    ctx.alu(3 * n as u64);
    ctx.read_coalesced(n * 8);
    ctx.write_coalesced(n * 8);
    ctx.read_coalesced(n * 8);
    ctx.write_coalesced(n * 8);
    let table = crate::alias::AliasTable::build(&weights)?;
    // Sample: two draws, one random probe into the table.
    let col = ctx.draw_index(0, n);
    let u = ctx.draw_f64(0);
    ctx.read_random(8);
    let pick = if u <= table.bucket_prob(col) {
        col
    } else {
        table.bucket_alias(col)
    };
    Some(pick)
}

/// Rejection sampling trials on a single lane (Fig. 2d).
///
/// `bound` must dominate every transition weight. Each trial costs two RNG
/// draws and two scattered reads (the probed adjacency entry and its
/// property/history data live in separate arrays). Returns the accepted
/// neighbor and the number of trials run.
///
/// After `deg` failed trials (at most [`MAX_REJECTION_TRIALS`]) the lane
/// takes an exact linear-CDF pass instead (one charged coalesced pass over
/// the row, one draw if the row has mass). By then the trials have cost
/// more than that pass (Eq. 10 against Eq. 9), and being memoryless they
/// expect no fewer to come, so stopping is never worse in expectation and
/// the output law stays exact. A row with no live mass under a positive
/// bound — a temporal walker past every stamp, a `metapath` label no edge
/// carries — therefore costs at most one row's worth of trials.
pub fn lane_rejection(
    ctx: &mut WarpCtx,
    lane: usize,
    view: &NeighborView<'_>,
    bound: f32,
) -> (Option<usize>, u32) {
    match view.weights {
        Weights::Lazy(f) => rejection_trials(ctx, lane, view, bound, f),
        Weights::Row(row) => rejection_trials(ctx, lane, view, bound, |i| row[i]),
    }
}

/// [`lane_rejection`] over a resolved weight source.
fn rejection_trials(
    ctx: &mut WarpCtx,
    lane: usize,
    view: &NeighborView<'_>,
    bound: f32,
    weight: impl Fn(usize) -> f32,
) -> (Option<usize>, u32) {
    let n = view.deg;
    // NaN-rejecting guard: `!(bound > 0)` is false for any positive bound
    // and true for zero, negatives and NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if n == 0 || !(bound > 0.0) {
        return (None, 0);
    }
    let max_trials = MAX_REJECTION_TRIALS.min(u32::try_from(n).unwrap_or(u32::MAX));
    for trial in 1..=max_trials {
        let x = ctx.draw_index(lane, n);
        let y = ctx.draw_f32(lane) * bound;
        // A probed weight evaluation gathers from separate arrays (the
        // adjacency entry and the property/history data live apart), so it
        // costs two scattered transactions.
        ctx.read_random(4);
        ctx.read_random(view.bytes_per_weight.saturating_sub(4).max(4));
        ctx.alu(2);
        let w = weight(x);
        if w > 0.0 && y <= w {
            return (Some(x), trial);
        }
    }
    // Exact fallback: one coalesced pass + linear CDF with lane RNG. The
    // row is read twice on the host (sum, then scan) rather than buffered:
    // this runs on every stranded step, and the charge is one pass.
    charge_weight_pass(ctx, view, n);
    ctx.alu(n as u64);
    let total: f64 = (0..n).map(|i| f64::from(weight(i))).sum();
    if total <= 0.0 {
        return (None, max_trials);
    }
    let target = ctx.draw_f64(lane) * total;
    let mut acc = 0.0;
    for i in 0..n {
        let w = weight(i);
        acc += f64::from(w);
        if target <= acc && w > 0.0 {
            return (Some(i), max_trials);
        }
    }
    ((0..n).rev().find(|&i| weight(i) > 0.0), max_trials)
}

/// NextDoor's per-step exact max-weight reduction (the cost eRJS removes).
///
/// Full coalesced weight pass plus per-chunk butterfly reductions; returns
/// the exact maximum.
#[allow(clippy::needless_range_loop)]
pub fn warp_max_reduce(ctx: &mut WarpCtx, view: &NeighborView<'_>) -> f32 {
    let n = view.deg;
    if n == 0 {
        return 0.0;
    }
    charge_weight_pass(ctx, view, n);
    let chunks = n.div_ceil(WARP_SIZE);
    let mut max = 0.0f32;
    for c in 0..chunks {
        let mut vals = [0.0f32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            let i = c * WARP_SIZE + lane;
            if i < n {
                vals[lane] = view.weight(i);
            }
        }
        max = max.max(ctx.reduce_max_f32(&vals));
    }
    max
}

/// NextDoor's max reduction under transit parallelism for *history-
/// dependent* weights.
///
/// NextDoor groups walkers by transit node, but a dynamic walk's weights
/// depend on each walker's `prev`, so the per-walker weight evaluations
/// gather from scattered locations (the `dist(prev, ·)` probes) instead of
/// one coalesced stream. Every weight read is charged as a random
/// transaction — this is the overhead Fig. 12b shows eRJS eliminating.
#[allow(clippy::needless_range_loop)]
pub fn warp_max_reduce_scattered(ctx: &mut WarpCtx, view: &NeighborView<'_>) -> f32 {
    let n = view.deg;
    if n == 0 {
        return 0.0;
    }
    let chunks = n.div_ceil(WARP_SIZE);
    let mut max = 0.0f32;
    for c in 0..chunks {
        let mut vals = [0.0f32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            let i = c * WARP_SIZE + lane;
            if i < n {
                // Same two-array gather as a rejection probe, per edge.
                ctx.read_random(4);
                ctx.read_random(view.bytes_per_weight.saturating_sub(4).max(4));
                vals[lane] = view.weight(i);
            }
        }
        max = max.max(ctx.reduce_max_f32(&vals));
    }
    max
}

/// Baseline reservoir sampling with prefix sums, FlowWalker style (Fig. 2e).
///
/// Two coalesced passes over the weights (weights + prefix sums), one RNG
/// draw per neighbor, argmax reduce. Accepting the *last* index whose
/// `u ≤ w_i / W_i` reproduces sequential reservoir semantics exactly.
#[allow(clippy::needless_range_loop)]
pub fn warp_reservoir_prefix(ctx: &mut WarpCtx, view: &NeighborView<'_>) -> Option<usize> {
    let n = view.deg;
    if n == 0 {
        return None;
    }
    // Pass 1: weights for the prefix-sum build.
    charge_weight_pass(ctx, view, n);
    // Pass 2: FlowWalker re-reads weight/prefix pairs during comparison.
    charge_weight_pass(ctx, view, n);
    let chunks = n.div_ceil(WARP_SIZE);
    let mut candidate = None;
    let mut running = 0.0f64;
    for c in 0..chunks {
        // Per-chunk prefix sums and comparisons in lockstep.
        let mut vals = [0.0f32; WARP_SIZE];
        for lane in 0..WARP_SIZE {
            let i = c * WARP_SIZE + lane;
            if i < n {
                vals[lane] = view.weight(i).max(0.0);
            }
        }
        let ps = ctx.prefix_sum_f32(&vals);
        for lane in 0..WARP_SIZE {
            let i = c * WARP_SIZE + lane;
            if i >= n {
                continue;
            }
            let u = f64::from(ctx.draw_f32(lane));
            let w = f64::from(vals[lane]);
            if w <= 0.0 {
                continue;
            }
            let w_total = running + f64::from(ps[lane]);
            if u <= w / w_total {
                candidate = Some(i);
            }
        }
        running += f64::from(ps[WARP_SIZE - 1]);
        ctx.alu(WARP_SIZE as u64);
    }
    // Final argmax reduce to pick the winning lane's candidate.
    let dummy = [0.0f32; WARP_SIZE];
    ctx.reduce_argmax_f32(&dummy);
    candidate
}

/// Which eRVS optimisation stages to apply (the Fig. 12a ablation axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErvsMode {
    /// Exponential keys only (`+EXP`): one weight pass, one draw/neighbor.
    Exp,
    /// Exponential keys + jump (`+JUMP`): one weight pass, `O(log n)` draws.
    ExpJump,
}

/// eRVS: the paper's optimised reservoir kernel (§3.2, Fig. 4).
///
/// Lane `l` owns the neighbor stripe `{l, l+32, l+64, …}`. Iteration 1
/// computes one key per lane and reduces to the global max `k_g`; in
/// [`ErvsMode::ExpJump`] each lane then runs the exponential-jump scan over
/// its stripe (thresholds seeded from `k_g`, truncated redraws on record
/// updates), and a final argmax reduction picks the winner.
pub fn warp_ervs(ctx: &mut WarpCtx, view: &NeighborView<'_>, mode: ErvsMode) -> Option<usize> {
    match view.weights {
        Weights::Lazy(f) => ervs(ctx, view, mode, f),
        Weights::Row(row) => ervs(ctx, view, mode, |i| row[i]),
    }
}

/// [`warp_ervs`] over a resolved weight source.
fn ervs(
    ctx: &mut WarpCtx,
    view: &NeighborView<'_>,
    mode: ErvsMode,
    weight: impl Fn(usize) -> f32,
) -> Option<usize> {
    let n = view.deg;
    if n == 0 {
        return None;
    }
    // Single coalesced weight pass — no prefix sums (the `EXP` saving).
    charge_weight_pass(ctx, view, n);

    // Iteration 1: one key per lane for the first up-to-32 neighbors.
    let mut lane_key = [f64::NEG_INFINITY; WARP_SIZE];
    let mut lane_best = [usize::MAX; WARP_SIZE];
    let active = n.min(WARP_SIZE);
    let mut keys32 = [f32::NEG_INFINITY; WARP_SIZE];
    for lane in 0..active {
        let w = weight(lane);
        if w > 0.0 {
            let u = open01_lane(ctx, lane);
            let k = u.powf(1.0 / f64::from(w));
            lane_key[lane] = k;
            lane_best[lane] = lane;
            keys32[lane] = k as f32;
        }
    }
    let (_, kg32) = ctx.reduce_argmax_f32(&keys32);
    let k_g = f64::from(kg32);

    // The jump needs a live key to seed its thresholds from. When the first
    // stripe is all dead (a masked or label-mismatched prefix), the rest of
    // the row is keyed one by one instead, exactly as `Exp` does.
    match mode {
        ErvsMode::ExpJump if k_g > f64::NEG_INFINITY => {
            // Per-lane A-ExpJ over the stripe, seeded at the global max.
            // Every lane seeds at the same `k_g`, so its log is taken once.
            let ln_kg = k_g.ln();
            for lane in 0..active {
                // The seed draw moves the lane's stream even when its
                // stripe past the first key is empty.
                let u = open01_lane(ctx, lane);
                if lane + WARP_SIZE >= n {
                    continue;
                }
                let mut k_cur = k_g;
                let mut x_w = u.ln() / ln_kg;
                // One ALU op per stripe entry, charged once per stripe.
                ctx.alu((n - lane).div_ceil(WARP_SIZE) as u64 - 1);
                let mut i = lane + WARP_SIZE;
                while i < n {
                    let w = f64::from(weight(i).max(0.0));
                    if w > 0.0 {
                        if x_w <= w {
                            // Record update with a truncated redraw.
                            let t = k_cur.powf(w);
                            let u2 = t + (1.0 - t) * open01_lane(ctx, lane);
                            k_cur = u2.powf(1.0 / w);
                            lane_key[lane] = k_cur;
                            lane_best[lane] = i;
                            x_w = open01_lane(ctx, lane).ln() / k_cur.ln();
                        } else {
                            x_w -= w;
                        }
                    }
                    i += WARP_SIZE;
                }
            }
        }
        ErvsMode::Exp | ErvsMode::ExpJump => {
            // Every remaining neighbor gets a key; lanes keep local maxima.
            for i in WARP_SIZE..n {
                let lane = i % WARP_SIZE;
                let w = weight(i);
                if w <= 0.0 {
                    continue;
                }
                let u = open01_lane(ctx, lane);
                let k = u.powf(1.0 / f64::from(w));
                ctx.alu(2);
                if k >= lane_key[lane] {
                    lane_key[lane] = k;
                    lane_best[lane] = i;
                }
            }
        }
    }

    // Final argmax reduce across lanes.
    let mut finals = [f32::NEG_INFINITY; WARP_SIZE];
    for lane in 0..WARP_SIZE {
        if lane_best[lane] != usize::MAX {
            finals[lane] = lane_key[lane] as f32;
        }
    }
    let (win_lane, win_key) = ctx.reduce_argmax_f32(&finals);
    if win_key == f32::NEG_INFINITY {
        return None;
    }
    Some(lane_best[win_lane])
}

/// Draws a uniform `f64` strictly inside `(0, 1)` on `lane`.
fn open01_lane(ctx: &mut WarpCtx, lane: usize) -> f64 {
    loop {
        let u = ctx.draw_f64(lane);
        if u < 1.0 {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stat;

    const WEIGHTS: [f32; 5] = [3.0, 2.0, 4.0, 1.0, 0.5];
    const TRIALS: usize = 60_000;

    fn run_warp<F>(weights: &[f32], mut f: F) -> Vec<u64>
    where
        F: FnMut(&mut WarpCtx, &NeighborView<'_>) -> Option<usize>,
    {
        let wf = |i: usize| weights[i];
        let v = NeighborView::new(&wf, weights.len(), 8);
        let mut counts = vec![0u64; weights.len()];
        for trial in 0..TRIALS {
            let mut ctx = WarpCtx::new(trial, 0xAB);
            let i = f(&mut ctx, &v).expect("positive weights");
            counts[i] += 1;
        }
        counts
    }

    #[test]
    fn warp_its_matches_distribution() {
        let counts = run_warp(&WEIGHTS, warp_its);
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "warp its");
    }

    #[test]
    fn warp_reservoir_prefix_matches_distribution() {
        let counts = run_warp(&WEIGHTS, warp_reservoir_prefix);
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "warp rvs");
    }

    #[test]
    fn warp_ervs_exp_matches_distribution() {
        let counts = run_warp(&WEIGHTS, |ctx, v| warp_ervs(ctx, v, ErvsMode::Exp));
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "warp ervs exp");
    }

    #[test]
    fn warp_ervs_jump_matches_distribution() {
        let counts = run_warp(&WEIGHTS, |ctx, v| warp_ervs(ctx, v, ErvsMode::ExpJump));
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "warp ervs jump");
    }

    #[test]
    fn warp_alias_matches_distribution() {
        let counts = run_warp(&WEIGHTS, warp_alias);
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "warp alias");
    }

    #[test]
    fn warp_ervs_jump_matches_on_long_lists() {
        // Exercise multiple stripes per lane (n >> 32).
        let weights: Vec<f32> = (0..150).map(|i| 1.0 + (i % 5) as f32).collect();
        let counts = run_warp(&weights, |ctx, v| warp_ervs(ctx, v, ErvsMode::ExpJump));
        stat::assert_matches_distribution(&counts, &stat::normalize(&weights), "ervs jump 150");
    }

    #[test]
    fn warp_ervs_keys_rows_whose_first_stripe_is_dead() {
        // 32 dead edges (a masked or label-mismatched prefix), then 8 live
        // ones with distinct weights: both modes must still reach them.
        let mut weights = vec![0.0f32; WARP_SIZE];
        weights.extend([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
        for mode in [ErvsMode::Exp, ErvsMode::ExpJump] {
            let counts = run_warp(&weights, |ctx, v| warp_ervs(ctx, v, mode));
            stat::assert_matches_distribution(
                &counts,
                &stat::normalize(&weights),
                &format!("ervs {mode:?} dead first stripe"),
            );
        }
    }

    #[test]
    fn lane_rejection_matches_distribution() {
        let wf = |i: usize| WEIGHTS[i];
        let v = NeighborView::new(&wf, WEIGHTS.len(), 8);
        let mut counts = vec![0u64; WEIGHTS.len()];
        for trial in 0..TRIALS {
            let mut ctx = WarpCtx::new(trial, 0xEF);
            let (i, _) = lane_rejection(&mut ctx, trial % WARP_SIZE, &v, 4.0);
            counts[i.unwrap()] += 1;
        }
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "lane rjs");
    }

    #[test]
    fn lane_rejection_loose_bound_still_exact() {
        let wf = |i: usize| WEIGHTS[i];
        let v = NeighborView::new(&wf, WEIGHTS.len(), 8);
        let mut counts = vec![0u64; WEIGHTS.len()];
        for trial in 0..TRIALS {
            let mut ctx = WarpCtx::new(trial, 0xEE);
            let (i, _) = lane_rejection(&mut ctx, 0, &v, 16.0);
            counts[i.unwrap()] += 1;
        }
        stat::assert_matches_distribution(&counts, &stat::normalize(&WEIGHTS), "lane rjs loose");
    }

    /// Runs `check` on the lazy and on the row form of a view over `weights`.
    fn both_views(weights: &[f32], mut check: impl FnMut(&NeighborView<'_>, &str)) {
        let wf = |i: usize| weights[i];
        check(&NeighborView::new(&wf, weights.len(), 8), "lazy");
        check(&NeighborView::from_row(weights, 8), "row");
    }

    #[test]
    fn lane_rejection_gives_up_on_zero_mass_rows_after_deg_trials() {
        // Live mass zero under a positive bound: the loop can never accept,
        // so everything it spends before the exact pass is waste.
        for d in [1usize, 7, 32, 1000] {
            both_views(&vec![0.0; d], |v, form| {
                let mut ctx = WarpCtx::new(d, 0x2E);
                let (pick, trials) = lane_rejection(&mut ctx, 5, v, 1.0);
                let s = ctx.stats();
                let cap = 2 * d as u64;
                assert_eq!(pick, None, "{form} d={d}");
                assert!(trials as usize <= d, "{form} d={d}: {trials} trials");
                assert!(
                    s.random_transactions <= cap,
                    "{form} d={d}: {} random transactions",
                    s.random_transactions
                );
                assert!(s.rng_draws <= cap, "{form} d={d}: {} draws", s.rng_draws);
            });
        }
    }

    #[test]
    fn lane_rejection_exact_pass_keeps_sparse_rows_exact() {
        // Two live edges in 1 000 at a tight bound: a trial accepts with
        // probability Σw / (deg · bound) = 1/1000, so about e⁻¹ of the calls
        // exhaust their `deg` trials and pick through the exact pass.
        const CALLS: usize = 10_000;
        let mut weights = vec![0.0f32; 1000];
        weights[123] = 1.0;
        weights[877] = 3.0;
        both_views(&weights, |v, form| {
            let mut counts = [0u64; 2];
            let mut exhausted = 0;
            for call in 0..CALLS {
                let mut ctx = WarpCtx::new(call, 0x5A);
                let (pick, trials) = lane_rejection(&mut ctx, call % WARP_SIZE, v, 4.0);
                match pick {
                    Some(123) => counts[0] += 1,
                    Some(877) => counts[1] += 1,
                    other => panic!("{form}: picked {other:?}"),
                }
                if trials as usize == weights.len() {
                    exhausted += 1;
                }
            }
            assert!(
                exhausted * 10 >= CALLS * 3,
                "{form}: only {exhausted} of {CALLS} calls reached the exact pass"
            );
            stat::assert_matches_distribution(
                &counts,
                &[0.25, 0.75],
                &format!("lane rjs sparse {form}"),
            );
        });
    }

    #[test]
    fn warp_max_reduce_is_exact() {
        let wf = |i: usize| WEIGHTS[i];
        let v = NeighborView::new(&wf, WEIGHTS.len(), 8);
        let mut ctx = WarpCtx::new(0, 1);
        assert_eq!(warp_max_reduce(&mut ctx, &v), 4.0);
        // Cost: a full coalesced pass was charged.
        assert!(ctx.stats().coalesced_transactions > 0);
    }

    #[test]
    fn ervs_costs_less_memory_than_prefix_reservoir() {
        let weights: Vec<f32> = (0..256).map(|i| 1.0 + (i % 3) as f32).collect();
        let wf = |i: usize| weights[i];
        let v = NeighborView::new(&wf, weights.len(), 8);
        let mut ctx_rvs = WarpCtx::new(0, 2);
        warp_reservoir_prefix(&mut ctx_rvs, &v);
        let mut ctx_ervs = WarpCtx::new(0, 2);
        warp_ervs(&mut ctx_ervs, &v, ErvsMode::ExpJump);
        assert!(
            ctx_ervs.stats().coalesced_transactions * 2
                <= ctx_rvs.stats().coalesced_transactions + 1,
            "eRVS {} vs RVS {} transactions",
            ctx_ervs.stats().coalesced_transactions,
            ctx_rvs.stats().coalesced_transactions
        );
    }

    #[test]
    fn ervs_jump_charges_one_alu_op_per_entry_past_the_first_stripe() {
        // The jump scan is the kernel's only ALU charge: one op per
        // neighbour after the first 32, dead weights included.
        for n in [1usize, 31, 32, 33, 70, 1024] {
            let weights: Vec<f32> = (0..n).map(|i| (i % 5) as f32).collect();
            let mut ctx = WarpCtx::new(0, 5);
            warp_ervs(
                &mut ctx,
                &NeighborView::from_row(&weights, 8),
                ErvsMode::ExpJump,
            );
            assert_eq!(
                ctx.stats().alu_ops,
                n.saturating_sub(WARP_SIZE) as u64,
                "n = {n}"
            );
        }
    }

    #[test]
    fn ervs_jump_draws_fewer_rngs_than_exp() {
        let weights: Vec<f32> = (0..1024).map(|i| 1.0 + (i % 3) as f32).collect();
        let wf = |i: usize| weights[i];
        let v = NeighborView::new(&wf, weights.len(), 8);
        let mut ctx_exp = WarpCtx::new(0, 3);
        warp_ervs(&mut ctx_exp, &v, ErvsMode::Exp);
        let mut ctx_jump = WarpCtx::new(0, 3);
        warp_ervs(&mut ctx_jump, &v, ErvsMode::ExpJump);
        assert!(
            ctx_jump.stats().rng_draws * 2 < ctx_exp.stats().rng_draws,
            "jump {} vs exp {} draws",
            ctx_jump.stats().rng_draws,
            ctx_exp.stats().rng_draws
        );
    }

    #[test]
    fn empty_views_return_none() {
        let wf = |_: usize| 0.0f32;
        let v = NeighborView::new(&wf, 0, 8);
        let mut ctx = WarpCtx::new(0, 1);
        assert_eq!(warp_its(&mut ctx, &v), None);
        assert_eq!(warp_alias(&mut ctx, &v), None);
        assert_eq!(warp_reservoir_prefix(&mut ctx, &v), None);
        assert_eq!(warp_ervs(&mut ctx, &v, ErvsMode::Exp), None);
        assert_eq!(warp_ervs(&mut ctx, &v, ErvsMode::ExpJump), None);
        assert_eq!(lane_rejection(&mut ctx, 0, &v, 1.0).0, None);
    }

    #[test]
    fn all_zero_weights_return_none() {
        let wf = |_: usize| 0.0f32;
        let v = NeighborView::new(&wf, 6, 8);
        let mut ctx = WarpCtx::new(0, 1);
        assert_eq!(warp_its(&mut ctx, &v), None);
        assert_eq!(warp_alias(&mut ctx, &v), None);
        assert_eq!(warp_reservoir_prefix(&mut ctx, &v), None);
        assert_eq!(warp_ervs(&mut ctx, &v, ErvsMode::ExpJump), None);
        assert_eq!(lane_rejection(&mut ctx, 0, &v, 1.0).0, None);
    }
}
