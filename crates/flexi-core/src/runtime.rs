//! Flexi-Runtime: per-node, per-step sampler selection (paper §4.1),
//! generalised over the pluggable [`SamplerRegistry`].
//!
//! The paper's first-order cost model compares the expected memory cost of
//! the two optimised kernels at the current node (Eqs. 9–11):
//!
//! ```text
//! Cost_RVS = EdgeCost_RVS · degree
//! Cost_RJS = EdgeCost_RJS · degree · max(w̃) / Σw̃
//! prefer RJS  ⇔  (EdgeCost_RJS / EdgeCost_RVS) · max(w̃) < Σw̃
//! ```
//!
//! Here the comparison runs over *every registered strategy*: each
//! [`Sampler`] prices one step through [`Sampler::step_cost`] (eRVS and
//! eRJS reproduce Eqs. 9 and 10 exactly) and the cheapest priceable
//! strategy wins, with registration order breaking ties. `max(w̃)` comes
//! from the compiler-generated bound estimator (also used as the eRJS
//! bound) and `Σw̃` from the sum estimator (Eq. 12); the edge cost ratio is
//! measured by the profiling kernels (§5.1, [`crate::profile`]).

use crate::preprocess::Aggregates;
use crate::workload::{DynamicWalk, WalkState};
use flexi_compiler::{Estimator, LoweredEstimator, StepInput};
use flexi_graph::Csr;
use flexi_sampling::{ids, CostInputs, Sampler, SamplerId, SamplerRegistry};
use std::sync::Arc;

/// Sampler-selection strategies evaluated in Fig. 13.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SelectionStrategy {
    /// The paper's first-order cost model (Eq. 11), generalised to argmin
    /// over the registry.
    CostModel,
    /// Uniformly random choice among runnable strategies (Fig. 13
    /// baseline).
    Random,
    /// Degree threshold: reservoir-class below the threshold,
    /// rejection-class above (Fig. 13 baseline).
    DegreeThreshold(usize),
    /// Always the named strategy (Fig. 11 ablations; also the compiler
    /// fallback mode with [`ids::ERVS`]).
    Only(SamplerId),
}

impl SelectionStrategy {
    /// Always eRJS (Fig. 11 ablation).
    pub const RJS_ONLY: Self = Self::Only(ids::ERJS);
    /// Always eRVS (Fig. 11 ablation; the compiler-fallback mode).
    pub const RVS_ONLY: Self = Self::Only(ids::ERVS);

    /// The degree-based baseline with the paper's 1K threshold.
    pub fn paper_degree_baseline() -> Self {
        Self::DegreeThreshold(1000)
    }
}

/// Expected update churn the cost model amortises against when pricing
/// stateful strategies — the "update cost" axis of the argmin.
///
/// A strategy served from a prebuilt per-node artifact samples cheaply
/// but pays to keep the artifact current across graph epochs. The churn
/// profile expresses that maintenance pressure as *expected per-node
/// state refreshes per sampling step served*: `0.0` (the default) is a
/// read-only graph where resident state is free to keep, large values
/// describe write-heavy serving where a fast-sampling/slow-rebuilding
/// strategy should lose the argmin.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChurnProfile {
    /// Expected dirty-node artifact refreshes per sampling step served
    /// (refresh rate ÷ sampling rate over the serving horizon).
    pub refreshes_per_step: f64,
}

impl ChurnProfile {
    /// A churn profile from observed counters: `refreshes` dirty-node
    /// patches amortised over `steps` sampling steps.
    pub fn observed(refreshes: u64, steps: u64) -> Self {
        Self {
            refreshes_per_step: if steps == 0 {
                0.0
            } else {
                refreshes as f64 / steps as f64
            },
        }
    }
}

/// One candidate strategy's pricing inside a [`SamplerSelection`] — the
/// *why* behind an argmin outcome, replacing the bare registry index the
/// positional API used to return.
#[derive(Clone)]
pub struct PricedCandidate {
    /// The candidate strategy.
    pub sampler: Arc<dyn Sampler>,
    /// Expected cost of sampling one step (`None`: unpriceable at this
    /// node, e.g. a rejection strategy without a usable bound estimate).
    pub sample_cost: Option<f64>,
    /// Amortised per-step charge for keeping the strategy's state
    /// artifact current under the configured [`ChurnProfile`] (`0.0` for
    /// stateless pricing or a churn-free profile).
    pub update_cost: f64,
    /// Whether the pricing assumed a resident per-node state artifact.
    pub stateful: bool,
}

impl PricedCandidate {
    /// The argmin objective: sample cost plus amortised update cost.
    pub fn total(&self) -> Option<f64> {
        self.sample_cost.map(|c| c + self.update_cost)
    }
}

impl std::fmt::Debug for PricedCandidate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PricedCandidate")
            .field("sampler", &self.sampler.id())
            .field("sample_cost", &self.sample_cost)
            .field("update_cost", &self.update_cost)
            .field("stateful", &self.stateful)
            .finish()
    }
}

/// The typed result of one cost-model argmin: the winning strategy plus
/// the full pricing table it won against.
#[derive(Clone)]
pub struct SamplerSelection {
    /// The selected (cheapest priceable) strategy.
    pub sampler: Arc<dyn Sampler>,
    /// Every candidate's pricing, in priority order — callers can see
    /// whether a strategy won on sample cost, lost on update cost, or was
    /// unpriceable.
    pub priced: Vec<PricedCandidate>,
}

impl SamplerSelection {
    /// The winning candidate's pricing row.
    pub fn winner(&self) -> &PricedCandidate {
        self.priced
            .iter()
            .find(|p| p.sampler.id() == self.sampler.id())
            .expect("selection winner is always priced")
    }
}

impl std::fmt::Debug for SamplerSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerSelection")
            .field("sampler", &self.sampler.id())
            .field("priced", &self.priced)
            .finish()
    }
}

/// The profiled cost model.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// `EdgeCost_RJS / EdgeCost_RVS` — random-probe cost relative to
    /// sequential-scan cost per edge, measured at startup.
    pub edge_cost_ratio: f64,
    /// Expected update churn amortised into stateful pricing (zero by
    /// default, which reproduces the read-only argmin exactly).
    pub churn: ChurnProfile,
}

impl CostModel {
    /// A reasonable default when profiling is skipped (random DRAM access
    /// is roughly this much more expensive than sequential on an A6000).
    pub fn default_ratio() -> Self {
        Self {
            edge_cost_ratio: 8.0,
            churn: ChurnProfile::default(),
        }
    }

    /// A cost model with the given measured/pinned ratio and no churn.
    pub fn with_ratio(edge_cost_ratio: f64) -> Self {
        Self {
            edge_cost_ratio,
            churn: ChurnProfile::default(),
        }
    }

    /// The cost inputs for one candidate step.
    pub fn inputs(&self, deg: f64, max_est: Option<f64>, sum_est: Option<f64>) -> CostInputs {
        CostInputs {
            deg,
            max_est,
            sum_est,
            edge_cost_ratio: self.edge_cost_ratio,
        }
    }

    /// Prices one candidate: stateless strategies through
    /// [`Sampler::step_cost`]; stateful ones (when `stateful`, i.e. a
    /// resident artifact serves this node) through
    /// [`Sampler::state_step_cost`] plus the churn-amortised
    /// [`Sampler::state_update_cost`].
    ///
    /// Returns `(sample_cost, update_cost)`; a `None` sample cost means
    /// the strategy cannot be priced at this node.
    pub fn price(
        &self,
        sampler: &dyn Sampler,
        stateful: bool,
        inp: &CostInputs,
    ) -> (Option<f64>, f64) {
        if stateful {
            if let Some(sample) = sampler.state_step_cost(inp) {
                let update =
                    self.churn.refreshes_per_step * sampler.state_update_cost(inp).unwrap_or(0.0);
                return (Some(sample).filter(|c| c.is_finite()), update);
            }
        }
        (sampler.step_cost(inp).filter(|c| c.is_finite()), 0.0)
    }

    /// Generalised Eq. 11 over explicit candidates: the cheapest priceable
    /// strategy wins on `sample_cost + update_cost`, ties keeping the
    /// earlier candidate — so the built-in `[eRVS, eRJS]` pair reproduces
    /// the paper's strict `ratio · max < sum` comparison exactly. Each
    /// candidate carries whether a resident state artifact serves it at
    /// this node. Returns the full pricing table; `None` only when no
    /// candidate is priceable.
    pub fn selection<'a>(
        &self,
        candidates: impl IntoIterator<Item = (&'a Arc<dyn Sampler>, bool)>,
        deg: f64,
        max_est: Option<f64>,
        sum_est: Option<f64>,
    ) -> Option<SamplerSelection> {
        let inp = self.inputs(deg, max_est, sum_est);
        let mut priced = Vec::new();
        let mut best: Option<(usize, f64)> = None;
        for (s, stateful) in candidates {
            let (sample_cost, update_cost) = self.price(s.as_ref(), stateful, &inp);
            let row = PricedCandidate {
                sampler: Arc::clone(s),
                sample_cost,
                update_cost,
                stateful,
            };
            if let Some(total) = row.total() {
                if best.is_none_or(|(_, c)| total < c) {
                    best = Some((priced.len(), total));
                }
            }
            priced.push(row);
        }
        best.map(|(i, _)| SamplerSelection {
            sampler: Arc::clone(&priced[i].sampler),
            priced,
        })
    }

    /// [`CostModel::selection`] over a whole registry, priced statelessly —
    /// the drop-in replacement for the old positional `select`.
    pub fn select_registry(
        &self,
        registry: &SamplerRegistry,
        deg: f64,
        max_est: Option<f64>,
        sum_est: Option<f64>,
    ) -> Option<SamplerSelection> {
        self.selection(registry.iter().map(|s| (s, false)), deg, max_est, sum_est)
    }
}

/// Lowers a compiled estimator for one launch: aggregate names bind to
/// `aggregates`' tables and hyperparameters to `workload`'s values, so a
/// step evaluates it against a [`RuntimeEnv`] with arithmetic alone.
pub fn lower_estimator<'a>(
    est: &'a Estimator,
    aggregates: &'a Aggregates,
    workload: &dyn DynamicWalk,
) -> LoweredEstimator<'a> {
    est.lower(&|array, kind| aggregates.table(array, kind), &|name| {
        workload.hyperparam(name)
    })
}

/// The per-step input of a lowered estimator: the graph, the workload
/// (for node scalars such as `deg[prev]` or `schema[step]`) and the
/// walker's state.
pub struct RuntimeEnv<'a> {
    /// Graph being walked.
    pub graph: &'a Csr,
    /// The workload (node-scalar lookups).
    pub workload: &'a dyn DynamicWalk,
    /// Current walker state.
    pub state: WalkState,
}

impl StepInput for RuntimeEnv<'_> {
    fn cur(&self) -> Option<usize> {
        Some(self.state.cur as usize)
    }

    fn degree(&self) -> Option<f64> {
        Some(self.graph.degree(self.state.cur) as f64)
    }

    fn step(&self) -> Option<f64> {
        Some(self.state.step as f64)
    }

    fn node_scalar(&self, array: &str, index: &str) -> Option<f64> {
        self.workload
            .env_scalar(self.graph, &self.state, array, index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Node2Vec;
    use flexi_compiler::{AggKind, PreprocessRequest};
    use flexi_gpu_sim::DeviceSpec;
    use flexi_graph::CsrBuilder;
    use flexi_sampling::Granularity;

    fn selected(m: &CostModel, max_est: Option<f64>, sum_est: Option<f64>) -> &'static str {
        let reg = SamplerRegistry::builtin();
        m.select_registry(&reg, 100.0, max_est, sum_est)
            .expect("builtin registry always selects")
            .sampler
            .id()
    }

    #[test]
    fn cost_model_prefers_rjs_for_flat_weights() {
        // 100 neighbors of weight ~1: max = 1, sum = 100, ratio 8 → RJS.
        let m = CostModel::with_ratio(8.0);
        assert_eq!(selected(&m, Some(1.0), Some(100.0)), ids::ERJS);
    }

    #[test]
    fn cost_model_prefers_rvs_for_skewed_weights() {
        // One huge outlier: max = 90, sum = 100 → 8·90 > 100 → RVS.
        let m = CostModel::with_ratio(8.0);
        assert_eq!(selected(&m, Some(90.0), Some(100.0)), ids::ERVS);
    }

    #[test]
    fn cost_model_threshold_is_eq11() {
        let m = CostModel::with_ratio(2.0);
        // 2 * 10 = 20: strictly-less comparison → RVS at equality.
        assert_eq!(selected(&m, Some(10.0), Some(20.0)), ids::ERVS);
        assert_eq!(selected(&m, Some(10.0), Some(20.1)), ids::ERJS);
    }

    #[test]
    fn missing_estimates_fall_back_to_rvs() {
        let m = CostModel::default_ratio();
        assert_eq!(selected(&m, None, Some(5.0)), ids::ERVS);
        assert_eq!(selected(&m, Some(5.0), None), ids::ERVS);
        assert_eq!(selected(&m, Some(f64::NAN), Some(5.0)), ids::ERVS);
        assert_eq!(selected(&m, Some(0.0), Some(5.0)), ids::ERVS);
    }

    #[test]
    fn empty_registry_selects_nothing() {
        let m = CostModel::default_ratio();
        let reg = SamplerRegistry::empty();
        assert!(m
            .select_registry(&reg, 10.0, Some(1.0), Some(10.0))
            .is_none());
    }

    #[test]
    fn selection_exposes_per_candidate_pricing() {
        let m = CostModel::with_ratio(8.0);
        let reg = SamplerRegistry::builtin();
        let sel = m
            .select_registry(&reg, 100.0, Some(1.0), Some(100.0))
            .unwrap();
        assert_eq!(sel.sampler.id(), ids::ERJS);
        assert_eq!(sel.priced.len(), 2, "every candidate is priced");
        let ervs = &sel.priced[0];
        let erjs = &sel.priced[1];
        assert_eq!(ervs.sampler.id(), ids::ERVS);
        assert_eq!(ervs.sample_cost, Some(100.0), "Eq. 9");
        assert_eq!(erjs.sample_cost, Some(8.0), "Eq. 10");
        assert_eq!(erjs.update_cost, 0.0, "stateless pricing has no churn");
        assert_eq!(sel.winner().sampler.id(), ids::ERJS);
        assert!(sel.winner().total() < ervs.total());
    }

    #[test]
    fn resident_state_flips_the_argmin_toward_heavyweight_strategies() {
        use flexi_sampling::AliasSampler;
        let m = CostModel::with_ratio(8.0);
        let reg = SamplerRegistry::with_baselines();
        let deg = 1000.0;
        // Statelessly, ALS pays its per-step table build and loses.
        let cold = m
            .select_registry(&reg, deg, Some(90.0), Some(100.0))
            .unwrap();
        assert_ne!(cold.sampler.id(), ids::ALS);
        // With a resident artifact the table build is amortised away: the
        // O(1) stateful sample (2·ratio = 16) beats every scan strategy.
        let warm = m
            .selection(
                reg.iter().map(|s| (s, s.id() == ids::ALS)),
                deg,
                Some(90.0),
                Some(100.0),
            )
            .unwrap();
        assert_eq!(warm.sampler.id(), ids::ALS);
        let row = warm.winner();
        assert!(row.stateful);
        assert_eq!(row.sample_cost, Some(16.0));
        // Sanity: the stateful coefficients came from the trait hooks.
        let inp = m.inputs(deg, None, None);
        assert_eq!(AliasSampler.state_step_cost(&inp), Some(16.0));
        assert_eq!(AliasSampler.state_update_cost(&inp), Some(7.0 * deg));
    }

    #[test]
    fn churn_charge_prices_update_cost_into_the_argmin() {
        // Under heavy churn the amortised per-step update charge must make
        // a fast-sampling/slow-rebuilding stateful strategy lose to the
        // plain scan — the "samples fast but rebuilds slow" clause.
        let reg = SamplerRegistry::with_baselines();
        let deg = 100.0;
        let pick = |refreshes_per_step: f64| {
            let m = CostModel {
                edge_cost_ratio: 8.0,
                churn: ChurnProfile { refreshes_per_step },
            };
            m.selection(
                reg.iter().map(|s| (s, s.supports_state())),
                deg,
                Some(90.0),
                Some(100.0),
            )
            .unwrap()
        };
        let idle = pick(0.0);
        assert_eq!(idle.sampler.id(), ids::ALS, "free to keep when read-only");
        assert_eq!(idle.winner().update_cost, 0.0);
        // One full dirty-node refresh per step: ALS pays 16 + 700, ITS
        // pays ~53 + 200 — both now lose to eRVS's plain deg scan.
        let churning = pick(1.0);
        assert_eq!(churning.sampler.id(), ids::ERVS);
        let als = churning
            .priced
            .iter()
            .find(|p| p.sampler.id() == ids::ALS)
            .unwrap();
        assert_eq!(als.update_cost, 700.0, "7·deg per refresh, 1 per step");
        assert_eq!(
            ChurnProfile::observed(50, 100).refreshes_per_step,
            0.5,
            "observed counters amortise refreshes over steps"
        );
        assert_eq!(ChurnProfile::observed(5, 0).refreshes_per_step, 0.0);
    }

    #[test]
    fn third_party_sampler_wins_when_cheaper() {
        // A custom strategy undercutting both built-ins must be selected —
        // the registry seam the engine's extensibility rests on.
        struct Cheap;
        impl Sampler for Cheap {
            fn id(&self) -> SamplerId {
                "cheap"
            }
            fn granularity(&self) -> Granularity {
                Granularity::Warp
            }
            fn step_cost(&self, inp: &CostInputs) -> Option<f64> {
                Some(inp.deg * 0.01)
            }
            fn sample_scalar(
                &self,
                _w: &[f32],
                _b: Option<f32>,
                _r: &mut dyn flexi_rng::RandomSource,
            ) -> (Option<usize>, flexi_sampling::ScalarCost) {
                (None, flexi_sampling::ScalarCost::default())
            }
        }
        let mut reg = SamplerRegistry::builtin();
        reg.register(Arc::new(Cheap));
        let m = CostModel::default_ratio();
        let sel = m
            .select_registry(&reg, 100.0, Some(1.0), Some(100.0))
            .unwrap();
        assert_eq!(sel.sampler.id(), "cheap");
        assert_eq!(sel.priced.len(), 3, "all three candidates priced");
    }

    #[test]
    fn runtime_env_resolves_all_value_classes() {
        use flexi_compiler::{codegen::Combine, parser::parse_expr};
        let g = CsrBuilder::new(2)
            .weighted_edge(0, 1, 3.0)
            .weighted_edge(0, 0, 5.0)
            .weighted_edge(1, 0, 1.0)
            .build()
            .unwrap();
        let req = vec![PreprocessRequest {
            array: "h".into(),
            kind: AggKind::Max,
        }];
        let agg = Aggregates::compute(&g, &req, &DeviceSpec::tiny());
        let w = Node2Vec::paper(true);
        let env = RuntimeEnv {
            graph: &g,
            workload: &w,
            state: WalkState::start(0),
        };
        let eval = |src: &str| {
            let est = Estimator {
                exprs: vec![parse_expr(src).unwrap()],
                combine: Combine::Max,
                multiply_by_degree: false,
            };
            lower_estimator(&est, &agg, &w).eval(&env)
        };
        assert_eq!(eval("h_MAX[cur]"), Some(5.0));
        assert_eq!(eval("h_SUM[cur]"), Some(8.0));
        assert_eq!(eval("deg[cur]"), Some(2.0));
        assert_eq!(eval("deg"), Some(2.0));
        assert_eq!(eval("step"), Some(0.0));
        assert_eq!(eval("a"), Some(2.0));
        assert_eq!(eval("nonsense"), None);
    }

    #[test]
    fn compiled_estimator_plus_env_produces_sound_bound() {
        // End-to-end: compile weighted Node2Vec, evaluate its max estimator
        // through RuntimeEnv, and verify it dominates every actual weight.
        use crate::workload::DynamicWalk;
        use flexi_compiler::{compile, CompileOutcome};
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 3.0)
            .weighted_edge(0, 2, 4.5)
            .weighted_edge(1, 0, 2.0)
            .weighted_edge(2, 0, 1.0)
            .build()
            .unwrap();
        let w = Node2Vec::paper(true);
        let compiled = match compile(&w.spec()).unwrap() {
            CompileOutcome::Supported(c) => c,
            _ => panic!("node2vec must compile"),
        };
        let agg = Aggregates::compute(&g, &compiled.preprocess, &DeviceSpec::tiny());
        let max_estimator = lower_estimator(&compiled.max_estimator, &agg, &w);
        for prev in [None, Some(1u32), Some(2u32)] {
            let state = WalkState {
                cur: 0,
                prev,
                step: 1,
                time: 0,
            };
            let env = RuntimeEnv {
                graph: &g,
                workload: &w,
                state,
            };
            let bound = max_estimator.eval(&env).unwrap();
            for e in g.edge_range(0) {
                let actual = f64::from(w.weight(&g, &state, e));
                assert!(
                    bound >= actual - 1e-9,
                    "bound {bound} < actual {actual} (prev {prev:?})"
                );
            }
        }
    }
}
