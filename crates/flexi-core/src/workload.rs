//! Dynamic random-walk workload definitions (paper §2.1).
//!
//! Each workload exists twice, deliberately:
//!
//! 1. as a hand-written Rust [`DynamicWalk::weight`] used by the engines
//!    (fast path), and
//! 2. as a mini-language source ([`DynamicWalk::spec`]) consumed by
//!    Flexi-Compiler to derive the eRJS bound estimators.
//!
//! The test-suite interprets (2) and asserts it equals (1) on random
//! graphs, so the compiler's analysis provably describes the code the
//! engine actually runs.

use flexi_compiler::{workloads as dsl, WalkSpec};
use flexi_graph::{Csr, EdgeId, EdgeProps, NodeId};
use std::ops::Range;

/// Per-walker state a dynamic walk's weight function may consult.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkState {
    /// Current node.
    pub cur: NodeId,
    /// Previously visited node (`None` on the first step).
    pub prev: Option<NodeId>,
    /// Zero-based step index.
    pub step: usize,
    /// The walk's clock: the timestamp of the last traversed edge (or the
    /// walk's starting instant). Temporal walkers compare edge timestamps
    /// against it; on untimed graphs it stays 0.
    pub time: u64,
}

impl WalkState {
    /// State at the start of a walk from `start` (clock at 0).
    pub fn start(start: NodeId) -> Self {
        Self::start_at(start, 0)
    }

    /// State at the start of a walk from `start` with the clock at `time`
    /// (a time-windowed walk starts its clock at the window's lower bound).
    pub fn start_at(start: NodeId, time: u64) -> Self {
        Self {
            cur: start,
            prev: None,
            step: 0,
            time,
        }
    }

    /// Advances to `next`, leaving the clock unchanged.
    pub fn advance(&mut self, next: NodeId) {
        self.prev = Some(self.cur);
        self.cur = next;
        self.step += 1;
    }

    /// Advances to `next` across an edge stamped `time`, moving the clock
    /// forward to it.
    pub fn advance_at(&mut self, next: NodeId, time: u64) {
        self.advance(next);
        self.time = time;
    }
}

/// A dynamic random-walk workload: the paper's gather-move-update model
/// reduced to its `get_weight` core plus metadata.
///
/// `Send + Sync` because workloads travel inside owned [`WalkRequest`]s
/// (shared `Arc`s that may cross threads) and are read concurrently by
/// host-parallel warp execution.
///
/// [`WalkRequest`]: crate::engine::WalkRequest
pub trait DynamicWalk: Send + Sync {
    /// Short name used in reports and for anonymous walker handles.
    fn name(&self) -> &str;

    /// Transition weight `w̃(cur, target(edge))` for an out-edge of
    /// `st.cur`.
    ///
    /// `edge` is a global edge id inside `g.edge_range(st.cur)`.
    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32;

    /// Replaces `scratch.weights` with the weights of every edge in `range`
    /// (a sub-range of `g.edge_range(st.cur)`), in edge order.
    ///
    /// The engine calls this once per warp-granular sampling step instead
    /// of [`DynamicWalk::weight`] once per edge. The default loops `weight`
    /// and ignores `scratch.links`; an override may share work across the
    /// row (marking `prev`'s row in the [`LinkSet`] once instead of a
    /// membership search per edge) but must produce **bit-identical**
    /// values — the same f32 operations in the same order — because
    /// lane-granular samplers still call `weight` on the same edges and a
    /// walk switches between the two per step.
    fn fill_row(&self, g: &Csr, st: &WalkState, range: Range<EdgeId>, scratch: &mut RowScratch) {
        scratch.weights.clear();
        scratch.weights.extend(range.map(|e| self.weight(g, st, e)));
    }

    /// DRAM bytes one weight evaluation touches (drives the simulator's
    /// transaction accounting).
    fn bytes_per_weight(&self, g: &Csr) -> usize {
        // Adjacency entry + property weight.
        4 + g.props().bytes_per_weight()
    }

    /// The mini-language specification for Flexi-Compiler.
    fn spec(&self) -> WalkSpec;

    /// Fixed walk length this workload prescribes, if any (MetaPath walks
    /// exactly its schema depth; others use the engine default).
    fn preferred_steps(&self) -> Option<usize> {
        None
    }

    /// Resolves a node-indexed scalar for the estimator environment
    /// (`deg[cur]`, `schema[step]`, …).
    fn env_scalar(&self, g: &Csr, st: &WalkState, array: &str, index: &str) -> Option<f64> {
        match (array, index) {
            ("deg", "cur") => Some(g.degree(st.cur) as f64),
            ("deg", "prev") => Some(g.degree(st.prev.unwrap_or(st.cur)) as f64),
            _ => None,
        }
    }

    /// Hyperparameter lookup for the estimator environment.
    fn hyperparam(&self, name: &str) -> Option<f64> {
        let _ = name;
        None
    }
}

/// Node2Vec (Grover & Leskovec, Eq. 2): second-order walk with return
/// parameter `a` and in-out parameter `b`.
#[derive(Clone, Copy, Debug)]
pub struct Node2Vec {
    /// Return parameter (`1/a` weight for revisiting the previous node).
    pub a: f32,
    /// In-out parameter (`1/b` weight for distance-2 moves).
    pub b: f32,
    /// Whether edge property weights participate (`h` vs. `h ≡ 1`).
    pub weighted: bool,
}

impl Node2Vec {
    /// The paper's evaluation setting: `a = 2.0`, `b = 0.5`.
    pub fn paper(weighted: bool) -> Self {
        Self {
            a: 2.0,
            b: 0.5,
            weighted,
        }
    }

    /// Eq. 2 for an out-edge of property weight `h` whose target is `prev`
    /// itself (`is_prev`) or lies at `dist(prev, post) == 1` (`linked`):
    /// `h / a`, `h` or `h / b`. The middle case divides by 1, which is
    /// exact, so every case is one f32 division by a selected divisor and
    /// a row fill needs no branch.
    #[inline]
    fn eq2(&self, h: f32, is_prev: bool, linked: bool) -> f32 {
        let divisor = if is_prev {
            self.a
        } else if linked {
            1.0
        } else {
            self.b
        };
        h / divisor
    }
}

impl DynamicWalk for Node2Vec {
    fn name(&self) -> &str {
        if self.weighted {
            "node2vec_weighted"
        } else {
            "node2vec_unweighted"
        }
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        let h = if self.weighted { g.prop(edge) } else { 1.0 };
        let Some(prev) = st.prev else {
            return h; // First step: no history, behave statically.
        };
        let post = g.edge_target(edge);
        self.eq2(h, post == prev, post != prev && g.has_edge(prev, post))
    }

    fn fill_row(&self, g: &Csr, st: &WalkState, range: Range<EdgeId>, scratch: &mut RowScratch) {
        match st.prev {
            None => fill_props(&mut scratch.weights, g, range, self.weighted, |h, _| h),
            Some(prev) => {
                fill_second_order(g, prev, range, self.weighted, scratch, |h, post, linked| {
                    self.eq2(h, post == prev, linked)
                })
            }
        }
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        // Adjacency + property + the dist(prev, post) membership probe.
        4 + if self.weighted {
            g.props().bytes_per_weight()
        } else {
            0
        } + 8
    }

    fn spec(&self) -> WalkSpec {
        // One canonical definition per built-in: the source comes from the
        // compiler's spec table; only the hyperparameters are ours.
        let mut spec = dsl::builtin_spec(if self.weighted {
            "node2vec_weighted"
        } else {
            "node2vec_unweighted"
        })
        .expect("canonical spec exists");
        spec.hyperparams = vec![
            ("a".to_string(), f64::from(self.a)),
            ("b".to_string(), f64::from(self.b)),
        ];
        spec
    }

    fn hyperparam(&self, name: &str) -> Option<f64> {
        match name {
            "a" => Some(f64::from(self.a)),
            "b" => Some(f64::from(self.b)),
            _ => None,
        }
    }
}

/// MetaPath (metapath2vec): the walk must follow an edge-label schema.
#[derive(Clone, Debug)]
pub struct MetaPath {
    /// Label schedule; step `i` must traverse an edge labeled
    /// `schema[i % schema.len()]`.
    pub schema: Vec<u8>,
    /// Whether property weights participate.
    pub weighted: bool,
}

impl MetaPath {
    /// The paper's evaluation setting: schema (0, 1, 2, 3, 4), depth 5.
    pub fn paper(weighted: bool) -> Self {
        Self {
            schema: vec![0, 1, 2, 3, 4],
            weighted,
        }
    }

    /// The label required at `step`.
    pub fn wanted_label(&self, step: usize) -> u8 {
        self.schema[step % self.schema.len()]
    }
}

impl DynamicWalk for MetaPath {
    fn name(&self) -> &str {
        if self.weighted {
            "metapath_weighted"
        } else {
            "metapath_unweighted"
        }
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        if g.label(edge) != self.wanted_label(st.step) {
            return 0.0;
        }
        if self.weighted {
            g.prop(edge)
        } else {
            1.0
        }
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        // Adjacency + label + property.
        4 + 1
            + if self.weighted {
                g.props().bytes_per_weight()
            } else {
                0
            }
    }

    fn spec(&self) -> WalkSpec {
        dsl::builtin_spec(if self.weighted {
            "metapath_weighted"
        } else {
            "metapath_unweighted"
        })
        .expect("canonical spec exists")
    }

    fn preferred_steps(&self) -> Option<usize> {
        Some(self.schema.len())
    }

    fn env_scalar(&self, g: &Csr, st: &WalkState, array: &str, index: &str) -> Option<f64> {
        match (array, index) {
            ("schema", "step") => Some(f64::from(self.wanted_label(st.step))),
            _ => match (array, index) {
                ("deg", "cur") => Some(g.degree(st.cur) as f64),
                ("deg", "prev") => Some(g.degree(st.prev.unwrap_or(st.cur)) as f64),
                _ => None,
            },
        }
    }
}

/// Second-order PageRank (Wu et al., Eq. 3).
#[derive(Clone, Copy, Debug)]
pub struct SecondOrderPr {
    /// Mixing parameter γ.
    pub gamma: f32,
}

impl SecondOrderPr {
    /// The paper's evaluation setting: γ = 0.2.
    pub fn paper() -> Self {
        Self { gamma: 0.2 }
    }

    /// Eq. 3's `(linked, unlinked)` bias for a step `prev → cur`: the
    /// degree terms are per row, so a row fill computes them once.
    #[inline]
    fn eq3_biases(&self, g: &Csr, cur: NodeId, prev: NodeId) -> (f32, f32) {
        let d_cur = g.degree(cur).max(1) as f32;
        let d_prev = g.degree(prev).max(1) as f32;
        let maxd = d_cur.max(d_prev);
        (
            ((1.0 - self.gamma) / d_cur + self.gamma / d_prev) * maxd,
            ((1.0 - self.gamma) / d_cur) * maxd,
        )
    }
}

impl DynamicWalk for SecondOrderPr {
    fn name(&self) -> &str {
        "pagerank_2nd"
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        let h = g.prop(edge);
        let Some(prev) = st.prev else {
            return h;
        };
        let (linked, unlinked) = self.eq3_biases(g, st.cur, prev);
        let w = if g.has_edge(prev, g.edge_target(edge)) {
            linked
        } else {
            unlinked
        };
        w * h
    }

    fn fill_row(&self, g: &Csr, st: &WalkState, range: Range<EdgeId>, scratch: &mut RowScratch) {
        let Some(prev) = st.prev else {
            return fill_props(&mut scratch.weights, g, range, true, |h, _| h);
        };
        let (linked_w, unlinked_w) = self.eq3_biases(g, st.cur, prev);
        fill_second_order(g, prev, range, true, scratch, |h, _, linked| {
            let w = if linked { linked_w } else { unlinked_w };
            w * h
        });
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        4 + g.props().bytes_per_weight() + 8
    }

    fn spec(&self) -> WalkSpec {
        let mut spec = dsl::builtin_spec("pagerank_2nd").expect("canonical spec exists");
        spec.hyperparams = vec![("gamma".to_string(), f64::from(self.gamma))];
        spec
    }

    fn hyperparam(&self, name: &str) -> Option<f64> {
        (name == "gamma").then_some(f64::from(self.gamma))
    }
}

/// Scratch memory for [`DynamicWalk::fill_row`]: the filled weights and
/// the [`LinkSet`] a second-order walker marks `prev`'s row in. The caller
/// owns one per warp (or per scalar loop) and reuses it for every row, so
/// a fill allocates nothing once both have grown to size.
#[derive(Debug, Default)]
pub struct RowScratch {
    /// The last filled row, in edge order.
    pub weights: Vec<f32>,
    /// All-zero between fills; see [`LinkSet::with_row`].
    pub links: LinkSet,
}

/// A bitset over node ids answering `dist(prev, t) == 1` for every target
/// `t` of a row: [`LinkSet::with_row`] sets one bit per entry of `prev`'s
/// row, each query is one load and one bit test with no data-dependent
/// branch, and the same words are zeroed afterwards. The set is all-zero
/// between calls and grows lazily to `num_nodes / 8` bytes.
#[derive(Debug, Default)]
pub struct LinkSet {
    words: Vec<u64>,
}

impl LinkSet {
    /// Runs `body` with the out-neighbours of `prev` in `g` marked, then
    /// clears them. Duplicate entries mark (and clear) the same bit. If
    /// `body` panics the marks stay, so a set must not outlive the unwind.
    pub fn with_row<R>(&mut self, g: &Csr, prev: NodeId, body: impl FnOnce(&Self) -> R) -> R {
        let words = g.num_nodes().div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
        let row = g.neighbors(prev);
        for &v in row {
            self.words[v as usize / 64] |= 1 << (v % 64);
        }
        let out = body(self);
        // Only marked bits are set, so zeroing their whole words restores
        // the all-zero state without a read-modify-write.
        for &v in row {
            self.words[v as usize / 64] = 0;
        }
        out
    }

    /// Whether `v` is marked.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v as usize / 64)
            .is_some_and(|w| (w >> (v % 64)) & 1 != 0)
    }

    /// Whether no bit is set (the state every call leaves behind).
    #[cfg(test)]
    pub(crate) fn is_clear(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// `prev`'s row is searched, not marked, when it is more than this many
/// times longer than the row being filled: marking and clearing cost two
/// stores per `prev` entry, against `log2(d_prev)` mostly mispredicted
/// steps per target for a binary search.
///
/// Chosen from per-row timings of both strategies over 21.6 k
/// `(cur, prev)` steps of node2vec walks on the corpus-skew graph
/// (rmat(15), 2^19 edges, Pareto weights; Xeon VM): 55.1 ms marking every
/// row, 39.4 ms with the crossover at 4×, 8× or 16×, 41.3 ms at 32× and
/// 50.5 ms searching every row, against 38.6 ms for the cheaper strategy
/// row by row. With flat weights 4× was best again (46.0 ms; 46.7 ms at
/// 16×). Rows past 16× cost 3–25 µs to mark and 0.1–1.2 µs to search.
pub(crate) const SEARCH_CROSSOVER: usize = 4;

/// Fills `scratch.weights` with `f(h, post, linked)` for every edge of
/// `range`, where `linked` answers `dist(prev, post) == 1`: through the
/// [`LinkSet`], or by one binary search per target when `prev`'s row is
/// past [`SEARCH_CROSSOVER`].
#[inline]
fn fill_second_order(
    g: &Csr,
    prev: NodeId,
    range: Range<EdgeId>,
    weighted: bool,
    scratch: &mut RowScratch,
    f: impl Fn(f32, NodeId, bool) -> f32,
) {
    let RowScratch { weights, links } = scratch;
    let prev_row = g.neighbors(prev);
    if prev_row.len() > SEARCH_CROSSOVER * range.len() {
        fill_props(weights, g, range, weighted, |h, post| {
            f(h, post, prev_row.binary_search(&post).is_ok())
        });
    } else {
        links.with_row(g, prev, |set| {
            fill_props(weights, g, range, weighted, |h, post| {
                f(h, post, set.contains(post))
            });
        });
    }
}

/// Replaces `out` with `f(h, post)` for every edge of `range`, where `h` is
/// the edge's property weight (1 when `weighted` is false) and `post` its
/// target. The [`EdgeProps`] kind is resolved once per row: `F32` weights
/// stream as a slice beside the targets; other kinds read `g.prop(e)`,
/// which yields the same value.
#[inline]
fn fill_props(
    out: &mut Vec<f32>,
    g: &Csr,
    range: Range<EdgeId>,
    weighted: bool,
    f: impl Fn(f32, NodeId) -> f32,
) {
    let targets = &g.col_idx()[range.clone()];
    out.clear();
    match g.props() {
        EdgeProps::F32(w) if weighted => {
            out.extend(w[range].iter().zip(targets).map(|(&h, &post)| f(h, post)));
        }
        _ if weighted => out.extend(range.zip(targets).map(|(e, &post)| f(g.prop(e), post))),
        _ => out.extend(targets.iter().map(|&post| f(1.0, post))),
    }
}

/// The statically known max transition weight of a workload whose returns
/// are hyperparameter constants (unweighted Node2Vec / MetaPath).
///
/// Systems without bound estimation (NextDoor, KnightKing, ThunderRW) can
/// run rejection sampling only when this is `Some` — the paper's
/// "partially supports dynamic random walk" caveat for NextDoor. The bound
/// is *derived* by compiling the workload's spec and evaluating its
/// `PER_KERNEL` max estimator (no privileged per-workload table); engines
/// on the hot path should read the precomputed
/// [`CompiledWalker::static_bound`](crate::walker::CompiledWalker::static_bound)
/// instead of re-deriving it per call.
pub fn static_max_bound(w: &dyn DynamicWalk) -> Option<f32> {
    crate::walker::spec_static_bound(&w.spec())
}

/// A static first-order walk (DeepWalk-style): `w̃ = h`. Used as the
/// simplest workload in examples and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformWalk;

impl DynamicWalk for UniformWalk {
    fn name(&self) -> &str {
        "uniform_walk"
    }

    fn weight(&self, g: &Csr, _st: &WalkState, edge: EdgeId) -> f32 {
        g.prop(edge)
    }

    fn spec(&self) -> WalkSpec {
        WalkSpec {
            source: "get_weight(edge) { return h[edge]; }".to_string(),
            hyperparams: vec![],
        }
    }
}

/// Forward-in-time walk (temporal subsystem): an edge is traversable only
/// if its timestamp is not older than the walk clock (`WalkState::time`,
/// advanced to each traversed edge's timestamp by the engine), so paths
/// never move backwards in time. Admissible edges weigh their property
/// weight. On untimed graphs every timestamp is 0 and this degenerates to
/// [`UniformWalk`].
///
/// Timestamps are compared through `f64` (exactly like the DSL twin reads
/// them), so clocks above 2⁵³ would lose precision — epoch milliseconds
/// and sequence numbers are far below that.
#[derive(Clone, Copy, Debug, Default)]
pub struct TemporalUniform;

impl DynamicWalk for TemporalUniform {
    fn name(&self) -> &str {
        "temporal_uniform"
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        if (g.time(edge) as f64) < st.time as f64 {
            return 0.0;
        }
        g.prop(edge)
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        // Adjacency + property + the edge timestamp.
        4 + g.props().bytes_per_weight() + 8
    }

    fn spec(&self) -> WalkSpec {
        dsl::builtin_spec("temporal_uniform").expect("canonical spec exists")
    }
}

/// Forward-in-time walk with exponential recency bias: an admissible edge
/// of age `Δ = edge_time − walk_time` weighs `h · exp(−λ·Δ)`, preferring
/// edges close to the walk clock (the classic temporal-walk decay kernel).
///
/// Arithmetic follows the DSL twin op for op with per-operation f32
/// rounding, so both produce bit-identical paths.
#[derive(Clone, Copy, Debug)]
pub struct TemporalExp {
    /// Decay rate λ (per clock unit).
    pub lambda: f64,
}

impl TemporalExp {
    /// The default evaluation setting: λ = 0.1.
    pub fn paper() -> Self {
        Self { lambda: 0.1 }
    }
}

impl DynamicWalk for TemporalExp {
    fn name(&self) -> &str {
        "temporal_exp"
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        let te = g.time(edge) as f64;
        let tw = st.time as f64;
        if te < tw {
            return 0.0;
        }
        // Mirror the interpreter's per-op f32 rounding exactly:
        // age = r(te - tw); x = r(lambda * age); x = r(0 - x);
        // e = r(exp(x)); return r(h * e).
        let age = f64::from((te - tw) as f32);
        let x = f64::from((self.lambda * age) as f32);
        let x = f64::from((0.0 - x) as f32);
        let e = f64::from(x.exp() as f32);
        (f64::from(g.prop(edge)) * e) as f32
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        4 + g.props().bytes_per_weight() + 8
    }

    fn spec(&self) -> WalkSpec {
        let mut spec = dsl::builtin_spec("temporal_exp").expect("canonical spec exists");
        spec.hyperparams = vec![("lambda".to_string(), self.lambda)];
        spec
    }

    fn hyperparam(&self, name: &str) -> Option<f64> {
        (name == "lambda").then_some(self.lambda)
    }
}

/// Forward-in-time walk with linear recency bias: weight falls linearly
/// from `h` at age 0 to 0 at age `span` (a sliding attention window).
#[derive(Clone, Copy, Debug)]
pub struct TemporalLinear {
    /// Window width in clock units; edges older than this weigh 0.
    pub span: f64,
}

impl TemporalLinear {
    /// The default evaluation setting: span = 100 clock units.
    pub fn paper() -> Self {
        Self { span: 100.0 }
    }
}

impl DynamicWalk for TemporalLinear {
    fn name(&self) -> &str {
        "temporal_linear"
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        let te = g.time(edge) as f64;
        let tw = st.time as f64;
        if te < tw {
            return 0.0;
        }
        let age = f64::from((te - tw) as f32);
        if age >= self.span {
            return 0.0;
        }
        // r(h * r(r(span - age) / span)), matching the DSL twin.
        let num = f64::from((self.span - age) as f32);
        let frac = f64::from((num / self.span) as f32);
        (f64::from(g.prop(edge)) * frac) as f32
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        4 + g.props().bytes_per_weight() + 8
    }

    fn spec(&self) -> WalkSpec {
        let mut spec = dsl::builtin_spec("temporal_linear").expect("canonical spec exists");
        spec.hyperparams = vec![("span".to_string(), self.span)];
        spec
    }

    fn hyperparam(&self, name: &str) -> Option<f64> {
        (name == "span").then_some(self.span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexi_graph::CsrBuilder;

    /// Graph: 0→{1,2}, 1→{0,2}, 2→{0}; weights = edge id + 1.
    fn g() -> Csr {
        let mut b = CsrBuilder::new(3);
        b.push_weighted(0, 1, 1.0);
        b.push_weighted(0, 2, 2.0);
        b.push_weighted(1, 0, 3.0);
        b.push_weighted(1, 2, 4.0);
        b.push_weighted(2, 0, 5.0);
        b.build().unwrap()
    }

    #[test]
    fn node2vec_branches_match_eq2() {
        let g = g();
        let w = Node2Vec::paper(true);
        // Walker came 0 → 1; scoring node 1's edges {0, 2}.
        let st = WalkState {
            cur: 1,
            prev: Some(0),
            step: 1,
            time: 0,
        };
        let r = g.edge_range(1);
        // Edge 1→0: post == prev → h/a = 3/2.
        assert_eq!(w.weight(&g, &st, r.start), 1.5);
        // Edge 1→2: linked(0, 2) → h = 4.
        assert_eq!(w.weight(&g, &st, r.start + 1), 4.0);
        // Unlinked case: walker 2 → 0, scoring 0→1 (2→1 absent) → h/b.
        let st2 = WalkState {
            cur: 0,
            prev: Some(2),
            step: 1,
            time: 0,
        };
        let r0 = g.edge_range(0);
        assert_eq!(w.weight(&g, &st2, r0.start), 1.0 / 0.5);
    }

    #[test]
    fn node2vec_first_step_is_static() {
        let g = g();
        let w = Node2Vec::paper(true);
        let st = WalkState::start(0);
        let r = g.edge_range(0);
        assert_eq!(w.weight(&g, &st, r.start), 1.0);
        assert_eq!(w.weight(&g, &st, r.start + 1), 2.0);
    }

    #[test]
    fn node2vec_unweighted_ignores_h() {
        let g = g();
        let w = Node2Vec::paper(false);
        let st = WalkState {
            cur: 1,
            prev: Some(0),
            step: 1,
            time: 0,
        };
        let r = g.edge_range(1);
        assert_eq!(w.weight(&g, &st, r.start), 0.5); // 1/a
        assert_eq!(w.weight(&g, &st, r.start + 1), 1.0);
    }

    #[test]
    fn metapath_masks_by_schema() {
        let g = g().with_labels(vec![0, 1, 0, 1, 0]).unwrap();
        let w = MetaPath {
            schema: vec![0, 1],
            weighted: true,
        };
        let r = g.edge_range(0);
        let st0 = WalkState::start(0);
        // Step 0 wants label 0: edge 0 (label 0) passes, edge 1 (label 1)
        // is masked.
        assert_eq!(w.weight(&g, &st0, r.start), 1.0);
        assert_eq!(w.weight(&g, &st0, r.start + 1), 0.0);
        let st1 = WalkState {
            cur: 0,
            prev: Some(1),
            step: 1,
            time: 0,
        };
        assert_eq!(w.weight(&g, &st1, r.start), 0.0);
        assert_eq!(w.weight(&g, &st1, r.start + 1), 2.0);
        // Schema wraps around.
        assert_eq!(w.wanted_label(2), 0);
    }

    #[test]
    fn metapath_prefers_schema_depth() {
        assert_eq!(MetaPath::paper(true).preferred_steps(), Some(5));
        assert_eq!(
            Node2Vec::paper(true).preferred_steps(),
            None,
            "node2vec uses engine default"
        );
    }

    #[test]
    fn second_order_pr_matches_eq3() {
        let g = g();
        let w = SecondOrderPr { gamma: 0.2 };
        // Walker 0 → 1 (deg(0)=2, deg(1)=2, maxd=2); scoring 1→2 where
        // linked(0, 2) holds: ((0.8/2 + 0.2/2) * 2) * h = 1 * 4.
        let st = WalkState {
            cur: 1,
            prev: Some(0),
            step: 1,
            time: 0,
        };
        let r = g.edge_range(1);
        let got = w.weight(&g, &st, r.start + 1);
        assert!((got - 4.0).abs() < 1e-6, "got {got}");
        // Scoring 1→0: post == prev, NOT linked(0,0) → 0.8/2*2*h = 2.4.
        let got = w.weight(&g, &st, r.start);
        assert!((got - 2.4).abs() < 1e-6, "got {got}");
    }

    #[test]
    fn second_order_pr_first_step_is_property_weight() {
        let g = g();
        let w = SecondOrderPr::paper();
        let st = WalkState::start(2);
        assert_eq!(w.weight(&g, &st, g.edge_range(2).start), 5.0);
    }

    #[test]
    fn walk_state_advances() {
        let mut st = WalkState::start(4);
        st.advance(9);
        assert_eq!(st.cur, 9);
        assert_eq!(st.prev, Some(4));
        assert_eq!(st.step, 1);
        assert_eq!(st.time, 0, "plain advance leaves the clock alone");
        st.advance_at(2, 77);
        assert_eq!((st.cur, st.prev, st.step, st.time), (2, Some(9), 2, 77));
        assert_eq!(WalkState::start_at(3, 50).time, 50);
    }

    /// Timed graph: 0→1 @10 (h=1), 0→2 @20 (h=2), 1→2 @30 (h=4), 2→0 @5 (h=5).
    fn timed() -> Csr {
        let mut b = CsrBuilder::new(3);
        b.push_timestamped(0, 1, 1.0, 10);
        b.push_timestamped(0, 2, 2.0, 20);
        b.push_timestamped(1, 2, 4.0, 30);
        b.push_timestamped(2, 0, 5.0, 5);
        b.build().unwrap()
    }

    #[test]
    fn temporal_uniform_enforces_forward_time() {
        let g = timed();
        let w = TemporalUniform;
        let st = WalkState::start_at(0, 15);
        let r = g.edge_range(0);
        assert_eq!(w.weight(&g, &st, r.start), 0.0, "edge@10 is in the past");
        assert_eq!(w.weight(&g, &st, r.start + 1), 2.0, "edge@20 admissible");
        // Clock equal to the edge time is admissible (not strictly newer).
        let st_eq = WalkState::start_at(0, 20);
        assert_eq!(w.weight(&g, &st_eq, r.start + 1), 2.0);
        // On untimed graphs every edge has implicit time 0 and the walk
        // degenerates to the uniform property-weighted walk.
        let ug = super::tests::g();
        let st0 = WalkState::start(0);
        let r0 = ug.edge_range(0);
        assert_eq!(w.weight(&ug, &st0, r0.start), 1.0);
        assert_eq!(w.weight(&ug, &st0, r0.start + 1), 2.0);
    }

    #[test]
    fn temporal_exp_decays_with_age() {
        let g = timed();
        let w = TemporalExp::paper();
        let st = WalkState::start_at(0, 10);
        let r = g.edge_range(0);
        // Edge@10: age 0 → full property weight.
        assert_eq!(w.weight(&g, &st, r.start), 1.0);
        // Edge@20: age 10, λ=0.1 → 2·exp(-1).
        let got = w.weight(&g, &st, r.start + 1);
        assert!(
            (f64::from(got) - 2.0 * (-1.0f64).exp()).abs() < 1e-6,
            "got {got}"
        );
        // Past edge still hard-masked regardless of decay.
        let late = WalkState::start_at(0, 25);
        assert_eq!(w.weight(&g, &late, r.start + 1), 0.0);
    }

    #[test]
    fn temporal_linear_hits_zero_at_span() {
        let g = timed();
        let st = WalkState::start_at(0, 10);
        let r = g.edge_range(0);
        // span=100: edge@20 has age 10 → 2·(90/100).
        let w = TemporalLinear::paper();
        let got = w.weight(&g, &st, r.start + 1);
        assert!((f64::from(got) - 1.8).abs() < 1e-6, "got {got}");
        // A narrow span masks the same edge entirely.
        let narrow = TemporalLinear { span: 10.0 };
        assert_eq!(narrow.weight(&g, &st, r.start + 1), 0.0);
        assert_eq!(narrow.weight(&g, &st, r.start), 1.0, "age 0 keeps full h");
    }

    #[test]
    fn temporal_hyperparams_and_specs_resolve() {
        let e = TemporalExp::paper();
        assert_eq!(e.hyperparam("lambda"), Some(0.1));
        assert_eq!(e.hyperparam("walk_time"), None, "clock is not a knob");
        let l = TemporalLinear { span: 42.0 };
        assert_eq!(l.hyperparam("span"), Some(42.0));
        assert_eq!(l.spec().hyperparams, vec![("span".to_string(), 42.0)]);
        assert!(TemporalUniform.spec().source.contains("edge_time"));
    }

    #[test]
    fn temporal_dsl_interpreter_is_bit_identical() {
        use flexi_compiler::{interpret_f32, parse_program, InterpEnv};
        struct Env<'a> {
            g: &'a Csr,
            st: &'a WalkState,
            edge: usize,
            hyper: Vec<(&'static str, f64)>,
        }
        impl InterpEnv for Env<'_> {
            fn var(&self, name: &str) -> Option<f64> {
                match name {
                    "edge" => Some(self.edge as f64),
                    "edge_time" => Some(self.g.time(self.edge) as f64),
                    "walk_time" => Some(self.st.time as f64),
                    _ => self.hyper.iter().find(|(k, _)| *k == name).map(|(_, v)| *v),
                }
            }
            fn index(&self, array: &str, index: f64) -> Option<f64> {
                (array == "h").then(|| f64::from(self.g.prop(index as usize)))
            }
            fn call(&self, name: &str, args: &[f64]) -> Option<f64> {
                // The engine's env quantizes exp itself: the interpreter
                // rounds only arithmetic results, not call results.
                match (name, args) {
                    ("exp", [x]) => Some(f64::from(x.exp() as f32)),
                    _ => None,
                }
            }
        }

        type WorkloadCase = (Box<dyn DynamicWalk>, Vec<(&'static str, f64)>);
        let g = timed();
        let workloads: Vec<WorkloadCase> = vec![
            (Box::new(TemporalUniform), vec![]),
            (Box::new(TemporalExp { lambda: 0.3 }), vec![("lambda", 0.3)]),
            (
                Box::new(TemporalLinear { span: 17.0 }),
                vec![("span", 17.0)],
            ),
        ];
        for (w, hyper) in &workloads {
            let program = parse_program(&w.spec().source).unwrap();
            for cur in 0..3u32 {
                for time in [0u64, 5, 10, 15, 20, 27, 30, 1000] {
                    let st = WalkState::start_at(cur, time);
                    for edge in g.edge_range(cur) {
                        let rust = w.weight(&g, &st, edge);
                        let env = Env {
                            g: &g,
                            st: &st,
                            edge,
                            hyper: hyper.clone(),
                        };
                        let dsl_val = interpret_f32(&program, &env).unwrap();
                        // Bit-identical, not merely close: the native twins
                        // replay the interpreter's per-op f32 rounding.
                        assert_eq!(
                            f64::from(rust),
                            dsl_val,
                            "{}: cur {cur} time {time} edge {edge}",
                            w.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn env_scalars_resolve() {
        let g = g();
        let st = WalkState {
            cur: 1,
            prev: Some(2),
            step: 0,
            time: 0,
        };
        let n2v = Node2Vec::paper(true);
        assert_eq!(n2v.env_scalar(&g, &st, "deg", "cur"), Some(2.0));
        assert_eq!(n2v.env_scalar(&g, &st, "deg", "prev"), Some(1.0));
        assert_eq!(n2v.env_scalar(&g, &st, "schema", "step"), None);
        let mp = MetaPath::paper(false);
        assert_eq!(mp.env_scalar(&g, &st, "schema", "step"), Some(0.0));
    }

    #[test]
    fn hyperparams_resolve() {
        let n2v = Node2Vec::paper(true);
        assert_eq!(n2v.hyperparam("a"), Some(2.0));
        assert_eq!(n2v.hyperparam("b"), Some(0.5));
        assert_eq!(n2v.hyperparam("gamma"), None);
        let gamma = SecondOrderPr::paper().hyperparam("gamma").unwrap();
        assert!((gamma - 0.2).abs() < 1e-6);
    }

    #[test]
    fn dsl_interpreter_agrees_with_rust_weights() {
        use flexi_compiler::{interpret, parse_program, InterpEnv};
        // Adapter exposing graph + state to the DSL interpreter.
        struct Env<'a> {
            g: &'a Csr,
            st: &'a WalkState,
            edge: usize,
            hyper: Vec<(&'static str, f64)>,
        }
        impl InterpEnv for Env<'_> {
            fn var(&self, name: &str) -> Option<f64> {
                match name {
                    "edge" => Some(self.edge as f64),
                    "prev" => Some(f64::from(self.st.prev.unwrap_or(self.st.cur))),
                    "has_prev" => Some(if self.st.prev.is_some() { 1.0 } else { 0.0 }),
                    "cur" => Some(f64::from(self.st.cur)),
                    "step" => Some(self.st.step as f64),
                    _ => self.hyper.iter().find(|(k, _)| *k == name).map(|(_, v)| *v),
                }
            }
            fn index(&self, array: &str, index: f64) -> Option<f64> {
                let i = index as usize;
                match array {
                    "h" => Some(f64::from(self.g.prop(i))),
                    "adj" => Some(f64::from(self.g.edge_target(i))),
                    "label" => Some(f64::from(self.g.label(i))),
                    "deg" => Some(self.g.degree(i as u32).max(1) as f64),
                    "schema" => Some(f64::from([0u8, 1, 2, 3, 4][i % 5])),
                    _ => None,
                }
            }
            fn call(&self, name: &str, args: &[f64]) -> Option<f64> {
                match (name, args) {
                    ("linked", [a, b]) => Some(f64::from(self.g.has_edge(*a as u32, *b as u32))),
                    _ => None,
                }
            }
        }

        type WorkloadCase = (Box<dyn DynamicWalk>, Vec<(&'static str, f64)>);
        let g = g().with_labels(vec![0, 1, 2, 3, 4]).unwrap();
        let workloads: Vec<WorkloadCase> = vec![
            (
                Box::new(Node2Vec::paper(true)),
                vec![("a", 2.0), ("b", 0.5)],
            ),
            (Box::new(MetaPath::paper(true)), vec![]),
            (Box::new(SecondOrderPr::paper()), vec![("gamma", 0.2)]),
        ];
        for (w, hyper) in &workloads {
            let program = parse_program(&w.spec().source).unwrap();
            for cur in 0..3u32 {
                for prev in [None, Some(0), Some(1), Some(2)] {
                    for step in 0..3usize {
                        let st = WalkState {
                            cur,
                            prev,
                            step,
                            time: 0,
                        };
                        for edge in g.edge_range(cur) {
                            let rust = w.weight(&g, &st, edge);
                            let env = Env {
                                g: &g,
                                st: &st,
                                edge,
                                hyper: hyper.clone(),
                            };
                            let dsl_val = interpret(&program, &env).unwrap();
                            assert!(
                                (f64::from(rust) - dsl_val).abs() < 1e-5,
                                "{}: cur {cur} prev {prev:?} step {step} edge {edge}: \
                                 rust {rust} vs dsl {dsl_val}",
                                w.name()
                            );
                        }
                    }
                }
            }
        }
    }
}
