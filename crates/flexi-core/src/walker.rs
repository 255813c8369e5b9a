//! The unified walker-definition surface: DSL, native and pre-parsed
//! walkers lowered through one pipeline into a [`CompiledWalker`].
//!
//! FlexiWalker's extensibility claim is that *new dynamic-walk algorithms
//! are data, not engine forks*. This module is that seam, mirroring the
//! sampler seam in `flexi-sampling`:
//!
//! - [`WalkerDef`] — one walk algorithm: a name plus a [`WalkerSource`]
//!   (`Dsl` mini-language source, a pre-built [`WalkSpec`], or a `Native`
//!   [`DynamicWalk`] implementation), with optional hyperparameters,
//!   environment arrays (e.g. a MetaPath schema) and a preferred walk
//!   length;
//! - [`WalkerDef::lower`] — the single lowering front door: every source
//!   kind runs through `flexi_compiler::compile` exactly once, producing a
//!   [`CompiledWalker`] that carries the runnable transition program, the
//!   generated bound/sum estimators, and the derived static analysis
//!   (static max-bias bound, label needs, walk order);
//! - [`WalkerRegistry`] — the named set of walker definitions a session
//!   (or engine) serves, with the four built-ins registered as ordinary
//!   entries: `"node2vec"`, `"metapath"`, `"sopr"`, `"uniform"`;
//! - [`WalkerHandle`] — how a [`WalkRequest`] addresses its walker: either
//!   already *resolved* (owning an `Arc<CompiledWalker>`) or *named*
//!   (resolved against a registry at submit/run time, with typed
//!   [`EngineError::UnknownWalker`] / [`EngineError::WalkerCompile`]
//!   errors instead of panics).
//!
//! DSL-defined walkers execute through the mini-language interpreter with
//! f32-rounded arithmetic, so a DSL walker and a hand-written native twin
//! computing the same formula produce **bit-identical paths**.
//!
//! [`WalkRequest`]: crate::engine::WalkRequest

use crate::engine::{CompiledArtifacts, EngineError};
use crate::workload::{
    DynamicWalk, MetaPath, Node2Vec, SecondOrderPr, TemporalExp, TemporalLinear, TemporalUniform,
    UniformWalk, WalkState,
};
use flexi_compiler::{
    compile, interpret_f32, parse_program, references, BoundGranularity, CompileOutcome, InterpEnv,
    Program, RefInfo, StepInput, WalkSpec,
};
use flexi_graph::{Csr, EdgeId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Where a walker's transition logic comes from.
#[derive(Clone)]
pub enum WalkerSource {
    /// Mini-language `get_weight` source, compiled and interpreted.
    Dsl(String),
    /// A pre-built walk specification (source + hyperparameters).
    Spec(WalkSpec),
    /// A hand-written Rust implementation (the fast path).
    Native(Arc<dyn DynamicWalk>),
}

impl std::fmt::Debug for WalkerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dsl(src) => f.debug_tuple("Dsl").field(&src.len()).finish(),
            Self::Spec(spec) => f.debug_tuple("Spec").field(&spec.source.len()).finish(),
            Self::Native(w) => f.debug_tuple("Native").field(&w.name()).finish(),
        }
    }
}

/// One walk-algorithm definition: the unit a [`WalkerRegistry`] stores and
/// [`WalkerDef::lower`] compiles.
///
/// ```
/// use flexi_core::WalkerDef;
///
/// // A decay-biased walk: revisiting the previous node is discouraged.
/// let def = WalkerDef::dsl(
///     "decay",
///     "get_weight(edge) {
///          h_e = h[edge];
///          if (has_prev == 0) return h_e;
///          if (adj[edge] == prev) return h_e * lambda;
///          return h_e;
///      }",
/// )
/// .hyperparam("lambda", 0.25);
/// let compiled = def.lower().expect("compiles");
/// assert_eq!(compiled.name(), "decay");
/// assert!(compiled.second_order(), "it consults walk history");
/// ```
#[derive(Clone, Debug)]
pub struct WalkerDef {
    name: String,
    source: WalkerSource,
    hyperparams: Vec<(String, f64)>,
    arrays: Vec<(String, Vec<f64>)>,
    preferred_steps: Option<usize>,
}

impl WalkerDef {
    /// A walker from mini-language source.
    pub fn dsl(name: impl Into<String>, source: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            source: WalkerSource::Dsl(source.into()),
            hyperparams: Vec::new(),
            arrays: Vec::new(),
            preferred_steps: None,
        }
    }

    /// A walker from a pre-built [`WalkSpec`].
    pub fn spec(name: impl Into<String>, spec: WalkSpec) -> Self {
        Self {
            name: name.into(),
            source: WalkerSource::Spec(spec),
            hyperparams: Vec::new(),
            arrays: Vec::new(),
            preferred_steps: None,
        }
    }

    /// A walker from a hand-written [`DynamicWalk`] implementation.
    pub fn native(name: impl Into<String>, walk: impl DynamicWalk + 'static) -> Self {
        Self::native_shared(name, Arc::new(walk))
    }

    /// [`WalkerDef::native`] over an already-shared implementation.
    pub fn native_shared(name: impl Into<String>, walk: Arc<dyn DynamicWalk>) -> Self {
        Self {
            name: name.into(),
            source: WalkerSource::Native(walk),
            hyperparams: Vec::new(),
            arrays: Vec::new(),
            preferred_steps: None,
        }
    }

    /// Binds a hyperparameter (DSL/Spec sources only — native walkers bake
    /// hyperparameters into the struct). Later bindings of the same name
    /// win.
    pub fn hyperparam(mut self, name: impl Into<String>, value: f64) -> Self {
        let name = name.into();
        self.hyperparams.retain(|(n, _)| *n != name);
        self.hyperparams.push((name, value));
        self
    }

    /// Binds an environment array (e.g. a MetaPath `schema`), indexable by
    /// `step`, `cur` or `prev` in the DSL; indices wrap modulo the length.
    pub fn array(mut self, name: impl Into<String>, values: Vec<f64>) -> Self {
        let name = name.into();
        self.arrays.retain(|(n, _)| *n != name);
        self.arrays.push((name, values));
        self
    }

    /// Fixes the walk length this walker prescribes (like a MetaPath
    /// walking exactly its schema depth). DSL/Spec sources only.
    pub fn preferred_steps(mut self, steps: usize) -> Self {
        self.preferred_steps = Some(steps);
        self
    }

    /// The registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The definition source.
    pub fn source(&self) -> &WalkerSource {
        &self.source
    }

    /// Lowering-cache key of this definition — *not* the name, so two
    /// names over one definition share a compile.
    ///
    /// DSL/Spec sources hash by value (source, hyperparameters, arrays,
    /// preferred steps): the hashed data fully determines the lowered
    /// walker. A `Native` source additionally mixes in the
    /// implementation's `Arc` identity, because a Rust struct may carry
    /// state its `spec()` does not encode (e.g. a `MetaPath` schema) —
    /// distinct instances must never substitute for each other, while
    /// defs sharing one `Arc` still share. The *preparation* caches use
    /// the value-only [`CompiledWalker::fingerprint`] instead, which is
    /// sound there because aggregates are a function of the spec alone.
    pub fn fingerprint(&self) -> u64 {
        let spec = match &self.source {
            WalkerSource::Dsl(src) => WalkSpec {
                source: src.clone(),
                hyperparams: self.hyperparams.clone(),
            },
            WalkerSource::Spec(spec) => merge_hyperparams(spec.clone(), &self.hyperparams),
            WalkerSource::Native(w) => w.spec(),
        };
        let value = fingerprint_parts(&spec, &self.arrays, self.preferred_steps);
        match &self.source {
            WalkerSource::Native(w) => {
                let mut h = DefaultHasher::new();
                value.hash(&mut h);
                (Arc::as_ptr(w) as *const () as usize).hash(&mut h);
                h.finish()
            }
            _ => value,
        }
    }

    /// Lowers this definition through the one compilation pipeline: parse,
    /// analyze and generate estimators via `flexi_compiler::compile`, then
    /// package the runnable walk (interpreted for DSL/Spec sources, the
    /// implementation itself for native ones) together with the derived
    /// static analysis.
    ///
    /// # Errors
    ///
    /// [`EngineError::WalkerCompile`] for malformed DSL source, references
    /// to names the runtime environment cannot resolve, empty environment
    /// arrays, or hyperparameter/array/steps overrides on a native source.
    /// Analyzable-but-unsupported programs (data-dependent loops, …) are
    /// *not* errors; they lower with the sound reservoir-only fallback and
    /// carry warnings.
    pub fn lower(&self) -> Result<CompiledWalker, EngineError> {
        let err = |message: String| EngineError::WalkerCompile {
            name: self.name.clone(),
            message,
        };
        for (n, vals) in &self.arrays {
            if vals.is_empty() {
                return Err(err(format!("environment array {n:?} is empty")));
            }
        }
        match &self.source {
            WalkerSource::Native(walk) => {
                if !self.hyperparams.is_empty() || !self.arrays.is_empty() {
                    return Err(err(
                        "hyperparameter/array overrides apply to DSL walkers only; \
                         native walkers carry them in the implementation"
                            .into(),
                    ));
                }
                if self.preferred_steps.is_some() {
                    return Err(err(
                        "preferred_steps applies to DSL walkers only; native walkers \
                         implement DynamicWalk::preferred_steps"
                            .into(),
                    ));
                }
                let spec = walk.spec();
                let artifacts = compile_spec(&spec);
                let refs = parse_program(&spec.source).ok().map(|p| references(&p));
                Ok(CompiledWalker {
                    name: self.name.clone(),
                    fingerprint: fingerprint_parts(&spec, &[], None),
                    static_bound: derive_static_bound(&artifacts),
                    needs_labels: refs.as_ref().is_some_and(|r| r.arrays.contains("label")),
                    // No parse ⇒ no proof the walk ignores history.
                    second_order: refs.as_ref().is_none_or(RefInfo::second_order),
                    // No parse ⇒ no proof the weights ignore walk state.
                    static_weights: refs.as_ref().is_some_and(weights_are_static),
                    spec,
                    artifacts,
                    walk: Arc::clone(walk),
                })
            }
            WalkerSource::Dsl(_) | WalkerSource::Spec(_) => {
                let spec = match &self.source {
                    WalkerSource::Dsl(src) => WalkSpec {
                        source: src.clone(),
                        hyperparams: self.hyperparams.clone(),
                    },
                    WalkerSource::Spec(s) => merge_hyperparams(s.clone(), &self.hyperparams),
                    WalkerSource::Native(_) => unreachable!("matched above"),
                };
                let program = parse_program(&spec.source).map_err(|e| err(e.to_string()))?;
                let refs = references(&program);
                self.check_references(&refs, &spec).map_err(err)?;
                let artifacts = compile_spec(&spec);
                let walk = Arc::new(DslWalk {
                    name: self.name.clone(),
                    uses_h: refs.arrays.contains("h"),
                    uses_label: refs.arrays.contains("label"),
                    uses_linked: refs.calls.contains("linked"),
                    uses_time: refs.frees.contains("edge_time"),
                    program,
                    hyperparams: spec.hyperparams.clone(),
                    arrays: self.arrays.clone(),
                    preferred: self.preferred_steps,
                    source: spec.source.clone(),
                });
                Ok(CompiledWalker {
                    name: self.name.clone(),
                    fingerprint: fingerprint_parts(&spec, &self.arrays, self.preferred_steps),
                    static_bound: derive_static_bound(&artifacts),
                    needs_labels: refs.arrays.contains("label"),
                    second_order: refs.second_order(),
                    static_weights: weights_are_static(&refs),
                    spec,
                    artifacts,
                    walk,
                })
            }
        }
    }

    /// Rejects references the DSL runtime environment cannot resolve —
    /// surfacing the mistake at load time instead of as silent dead-end
    /// walks.
    fn check_references(&self, refs: &RefInfo, spec: &WalkSpec) -> Result<(), String> {
        const BUILTIN_ARRAYS: [&str; 4] = ["h", "adj", "label", "deg"];
        for a in &refs.arrays {
            let known =
                BUILTIN_ARRAYS.contains(&a.as_str()) || self.arrays.iter().any(|(n, _)| n == a);
            if !known {
                return Err(format!(
                    "unknown array {a:?}; provide it with WalkerDef::array or use one of \
                     h/adj/label/deg"
                ));
            }
        }
        for c in &refs.calls {
            if c != "linked" && c != "exp" {
                return Err(format!(
                    "unknown function {c:?}; only linked(a, b) and exp(x) are available"
                ));
            }
        }
        const BUILTIN_VARS: [&str; 8] = [
            "edge",
            "cur",
            "prev",
            "has_prev",
            "step",
            "iter",
            "edge_time",
            "walk_time",
        ];
        for v in &refs.frees {
            let known =
                BUILTIN_VARS.contains(&v.as_str()) || spec.hyperparams.iter().any(|(n, _)| n == v);
            if !known {
                return Err(format!(
                    "unknown variable {v:?}; bind it with WalkerDef::hyperparam or use one \
                     of edge/cur/prev/has_prev/step/edge_time/walk_time"
                ));
            }
        }
        Ok(())
    }
}

/// Later bindings override the spec's own hyperparameters.
fn merge_hyperparams(mut spec: WalkSpec, overrides: &[(String, f64)]) -> WalkSpec {
    for (name, value) in overrides {
        spec.hyperparams.retain(|(n, _)| n != name);
        spec.hyperparams.push((name.clone(), *value));
    }
    spec
}

fn fingerprint_parts(
    spec: &WalkSpec,
    arrays: &[(String, Vec<f64>)],
    preferred_steps: Option<usize>,
) -> u64 {
    let mut h = DefaultHasher::new();
    spec.source.hash(&mut h);
    for (name, value) in &spec.hyperparams {
        name.hash(&mut h);
        value.to_bits().hash(&mut h);
    }
    for (name, vals) in arrays {
        name.hash(&mut h);
        for v in vals {
            v.to_bits().hash(&mut h);
        }
    }
    preferred_steps.hash(&mut h);
    h.finish()
}

/// Runs Flexi-Compiler over a walk spec, folding hard errors into the
/// sound reservoir-only fallback (the §7.1 behavior native workloads
/// always had).
pub(crate) fn compile_spec(spec: &WalkSpec) -> CompiledArtifacts {
    match compile(spec) {
        Ok(CompileOutcome::Supported(c)) => CompiledArtifacts {
            warnings: c.warnings.clone(),
            compiled: Some(*c),
        },
        Ok(CompileOutcome::Fallback { warnings }) => CompiledArtifacts {
            compiled: None,
            warnings,
        },
        Err(e) => CompiledArtifacts {
            compiled: None,
            warnings: vec![format!(
                "compile error: {e}; falling back to reservoir-only"
            )],
        },
    }
}

/// Evaluates a `PER_KERNEL` max estimator with no runtime data — its
/// expressions are hyperparameter constants, so this is the statically
/// known max transition weight (the generalisation of the old
/// `static_max_bound` name-matching table).
fn derive_static_bound(artifacts: &CompiledArtifacts) -> Option<f32> {
    /// No walk state, no aggregates, no hyperparameters: only constants
    /// evaluate.
    struct NoStep;
    impl StepInput for NoStep {
        fn cur(&self) -> Option<usize> {
            None
        }
        fn degree(&self) -> Option<f64> {
            None
        }
        fn step(&self) -> Option<f64> {
            None
        }
        fn node_scalar(&self, _: &str, _: &str) -> Option<f64> {
            None
        }
    }
    let c = artifacts.compiled.as_ref()?;
    if c.flag != BoundGranularity::PerKernel {
        return None;
    }
    c.max_estimator
        .lower(&|_, _| None, &|_| None)
        .eval(&NoStep)
        .map(|b| b as f32)
}

/// Whether a walker's transition weights are a pure function of the edge —
/// independent of walk position, history and time. Only such walkers can
/// share a per-node sampler-state artifact (alias table / CDF) across every
/// walk and step: any free variable that varies per step would make the
/// precomputed table encode the wrong distribution.
fn weights_are_static(refs: &RefInfo) -> bool {
    const STATE_VARS: [&str; 7] = [
        "cur",
        "prev",
        "has_prev",
        "step",
        "iter",
        "edge_time",
        "walk_time",
    ];
    !refs.calls.contains("linked") && STATE_VARS.iter().all(|v| !refs.frees.contains(*v))
}

/// The statically derived max-bias bound of an arbitrary workload's spec —
/// `Some` only when the compiled bound is a kernel-wide constant (the
/// paper's "partially supports dynamic random walk" capability of
/// NextDoor/KnightKing-class systems).
pub fn spec_static_bound(spec: &WalkSpec) -> Option<f32> {
    derive_static_bound(&compile_spec(spec))
}

/// A fully lowered walker: the runnable transition program plus everything
/// the runtime and the session caches derive from it.
///
/// ```
/// use flexi_core::{WalkerDef, UniformWalk};
///
/// let native = WalkerDef::native("uniform", UniformWalk).lower().unwrap();
/// assert!(!native.second_order(), "first-order walk");
/// assert!(!native.needs_labels());
///
/// // An unweighted walk has a kernel-wide constant bound.
/// let dsl = WalkerDef::dsl("flat", "get_weight(edge) { return 1.0; }")
///     .lower()
///     .unwrap();
/// assert_eq!(dsl.static_bound(), Some(1.0));
/// ```
#[derive(Clone)]
pub struct CompiledWalker {
    name: String,
    spec: WalkSpec,
    artifacts: CompiledArtifacts,
    walk: Arc<dyn DynamicWalk>,
    fingerprint: u64,
    static_bound: Option<f32>,
    needs_labels: bool,
    second_order: bool,
    static_weights: bool,
}

impl CompiledWalker {
    /// The walker's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The canonical spec the artifact was compiled from.
    pub fn spec(&self) -> &WalkSpec {
        &self.spec
    }

    /// Compile outcome: generated estimators (or the fallback) + warnings.
    pub fn artifacts(&self) -> &CompiledArtifacts {
        &self.artifacts
    }

    /// The runnable transition program.
    pub fn walk(&self) -> &Arc<dyn DynamicWalk> {
        &self.walk
    }

    /// The runnable transition program as a trait object.
    pub fn walk_dyn(&self) -> &dyn DynamicWalk {
        self.walk.as_ref()
    }

    /// Preparation-cache key: a value hash of the canonical spec (source
    /// and hyperparameter bits), environment arrays and preferred steps.
    /// Walkers with equal fingerprints compile to identical estimators,
    /// so aggregates keyed by it are shared soundly even across distinct
    /// native instances (whose *lowering* is kept apart by the
    /// instance-aware [`WalkerDef::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Statically known max transition weight, when the compiled bound is
    /// a kernel-wide constant (unweighted Node2Vec / MetaPath).
    pub fn static_bound(&self) -> Option<f32> {
        self.static_bound
    }

    /// Whether the transition program reads edge labels.
    pub fn needs_labels(&self) -> bool {
        self.needs_labels
    }

    /// Whether the walk consults history (`prev` / `linked`) — first-order
    /// walks never do.
    pub fn second_order(&self) -> bool {
        self.second_order
    }

    /// Whether transition weights depend only on the edge itself (no walk
    /// position, history or time). Such walkers are eligible for resident
    /// per-node sampler state (alias tables / CDFs) shared across walks.
    pub fn static_weights(&self) -> bool {
        self.static_weights
    }
}

impl std::fmt::Debug for CompiledWalker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledWalker")
            .field("name", &self.name)
            .field("fingerprint", &self.fingerprint)
            .field("compiled", &self.artifacts.compiled.is_some())
            .field("static_bound", &self.static_bound)
            .field("needs_labels", &self.needs_labels)
            .field("second_order", &self.second_order)
            .field("static_weights", &self.static_weights)
            .finish()
    }
}

/// A DSL-defined workload: interprets the parsed `get_weight` with
/// f32-rounded arithmetic, so it is bit-compatible with a hand-written
/// native twin.
struct DslWalk {
    name: String,
    source: String,
    program: Program,
    hyperparams: Vec<(String, f64)>,
    arrays: Vec<(String, Vec<f64>)>,
    preferred: Option<usize>,
    uses_h: bool,
    uses_label: bool,
    uses_linked: bool,
    uses_time: bool,
}

/// Interpreter environment bridging one weight evaluation to the graph.
struct DslEnv<'a> {
    g: &'a Csr,
    st: &'a WalkState,
    edge: EdgeId,
    walk: &'a DslWalk,
}

impl InterpEnv for DslEnv<'_> {
    fn var(&self, name: &str) -> Option<f64> {
        match name {
            "edge" => Some(self.edge as f64),
            "cur" => Some(f64::from(self.st.cur)),
            "prev" => Some(f64::from(self.st.prev.unwrap_or(self.st.cur))),
            "has_prev" => Some(if self.st.prev.is_some() { 1.0 } else { 0.0 }),
            "step" | "iter" => Some(self.st.step as f64),
            "edge_time" => Some(self.g.time(self.edge) as f64),
            "walk_time" => Some(self.st.time as f64),
            _ => self
                .walk
                .hyperparams
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v),
        }
    }

    fn index(&self, array: &str, index: f64) -> Option<f64> {
        if let Some((_, vals)) = self.walk.arrays.iter().find(|(n, _)| n == array) {
            let i = index.max(0.0) as usize;
            return Some(vals[i % vals.len()]);
        }
        let i = index.max(0.0) as usize;
        match array {
            "h" if i < self.g.num_edges() => Some(f64::from(self.g.prop(i))),
            "adj" if i < self.g.num_edges() => Some(f64::from(self.g.edge_target(i))),
            "label" if i < self.g.num_edges() => Some(f64::from(self.g.label(i))),
            // Degrees are register-resident in the kernel; clamp to 1 so
            // `1 / deg[..]` stays finite at sinks (matching the native
            // workloads' `.max(1)`).
            "deg" if i < self.g.num_nodes() => Some(self.g.degree(i as u32).max(1) as f64),
            _ => None,
        }
    }

    fn call(&self, name: &str, args: &[f64]) -> Option<f64> {
        match (name, args) {
            ("linked", [a, b]) => Some(f64::from(self.g.has_edge(*a as u32, *b as u32))),
            // The interpreter rounds only arithmetic results, so the hook
            // quantizes itself — keeping DSL walks bit-identical to native
            // twins that round after every operation.
            ("exp", [x]) => Some(f64::from(x.exp() as f32)),
            _ => None,
        }
    }
}

impl DynamicWalk for DslWalk {
    fn name(&self) -> &str {
        &self.name
    }

    fn weight(&self, g: &Csr, st: &WalkState, edge: EdgeId) -> f32 {
        let env = DslEnv {
            g,
            st,
            edge,
            walk: self,
        };
        // References were validated at lower time; a residual runtime
        // failure (out-of-range index on a hostile graph) masks the edge.
        interpret_f32(&self.program, &env).unwrap_or(0.0) as f32
    }

    fn bytes_per_weight(&self, g: &Csr) -> usize {
        // Adjacency entry + the memory classes the program actually reads:
        // property weight, edge label, edge timestamp, and the linked()
        // membership probe. Degrees, schema arrays and hyperparameters are
        // register-resident.
        4 + if self.uses_h {
            g.props().bytes_per_weight()
        } else {
            0
        } + usize::from(self.uses_label)
            + if self.uses_linked { 8 } else { 0 }
            + if self.uses_time { 8 } else { 0 }
    }

    fn spec(&self) -> WalkSpec {
        WalkSpec {
            source: self.source.clone(),
            hyperparams: self.hyperparams.clone(),
        }
    }

    fn preferred_steps(&self) -> Option<usize> {
        self.preferred
    }

    fn env_scalar(&self, g: &Csr, st: &WalkState, array: &str, index: &str) -> Option<f64> {
        if let Some((_, vals)) = self.arrays.iter().find(|(n, _)| n == array) {
            let i = match index {
                "step" => st.step,
                "cur" => st.cur as usize,
                "prev" => st.prev.unwrap_or(st.cur) as usize,
                _ => return None,
            };
            return Some(vals[i % vals.len()]);
        }
        match (array, index) {
            ("deg", "cur") => Some(g.degree(st.cur) as f64),
            ("deg", "prev") => Some(g.degree(st.prev.unwrap_or(st.cur)) as f64),
            _ => None,
        }
    }

    fn hyperparam(&self, name: &str) -> Option<f64> {
        self.hyperparams
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// The named set of walker definitions a session (or engine) serves —
/// the walk-algorithm mirror of `SamplerRegistry`.
///
/// Registering a definition under an existing name **replaces it in
/// place**, exactly like sampler registration; a registry never holds two
/// walkers with the same name.
///
/// ```
/// use flexi_core::{WalkerDef, WalkerRegistry};
///
/// let mut registry = WalkerRegistry::builtin();
/// assert!(registry.contains("node2vec"));
/// registry.register(WalkerDef::dsl("flat", "get_weight(edge) { return 1.0; }"));
/// assert_eq!(
///     registry.names(),
///     vec![
///         "node2vec",
///         "metapath",
///         "sopr",
///         "uniform",
///         "temporal_uniform",
///         "temporal_exp",
///         "temporal_linear",
///         "flat"
///     ]
/// );
/// ```
#[derive(Clone, Debug, Default)]
pub struct WalkerRegistry {
    defs: Vec<WalkerDef>,
}

impl WalkerRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The built-in workloads as ordinary registry entries, with the
    /// paper's hyperparameters: weighted Node2Vec (`"node2vec"`), weighted
    /// MetaPath (`"metapath"`), second-order PageRank (`"sopr"`), the
    /// static first-order walk (`"uniform"`), and the three temporal
    /// walks (`"temporal_uniform"`, `"temporal_exp"`, `"temporal_linear"`).
    pub fn builtin() -> Self {
        let mut r = Self::empty();
        r.register(WalkerDef::native("node2vec", Node2Vec::paper(true)));
        r.register(WalkerDef::native("metapath", MetaPath::paper(true)));
        r.register(WalkerDef::native("sopr", SecondOrderPr::paper()));
        r.register(WalkerDef::native("uniform", UniformWalk));
        r.register(WalkerDef::native("temporal_uniform", TemporalUniform));
        r.register(WalkerDef::native("temporal_exp", TemporalExp::paper()));
        r.register(WalkerDef::native(
            "temporal_linear",
            TemporalLinear::paper(),
        ));
        r
    }

    /// The built-ins defined from their canonical DSL specs instead of the
    /// native structs — every entry lowers to an interpreted walker that
    /// is bit-identical to its [`WalkerRegistry::builtin`] twin. Used by
    /// the round-trip test-suite and as a template for DSL-first setups.
    pub fn builtin_dsl() -> Self {
        let canonical = |name: &str| {
            flexi_compiler::workloads::builtin_spec(name).expect("canonical spec exists")
        };
        let mut r = Self::empty();
        r.register(WalkerDef::spec("node2vec", canonical("node2vec_weighted")));
        r.register(
            WalkerDef::spec("metapath", canonical("metapath_weighted"))
                .array("schema", vec![0.0, 1.0, 2.0, 3.0, 4.0])
                .preferred_steps(5),
        );
        r.register(WalkerDef::spec("sopr", canonical("pagerank_2nd")));
        r.register(WalkerDef::dsl(
            "uniform",
            "get_weight(edge) { return h[edge]; }",
        ));
        r.register(WalkerDef::spec(
            "temporal_uniform",
            canonical("temporal_uniform"),
        ));
        r.register(WalkerDef::spec("temporal_exp", canonical("temporal_exp")));
        r.register(WalkerDef::spec(
            "temporal_linear",
            canonical("temporal_linear"),
        ));
        r
    }

    /// Registers `def`, replacing any existing definition with the same
    /// name (in place, keeping its position).
    pub fn register(&mut self, def: WalkerDef) {
        match self.defs.iter_mut().find(|d| d.name() == def.name()) {
            Some(slot) => *slot = def,
            None => self.defs.push(def),
        }
    }

    /// Looks a definition up by name.
    pub fn get(&self, name: &str) -> Option<&WalkerDef> {
        self.defs.iter().find(|d| d.name() == name)
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.defs.iter().map(WalkerDef::name).collect()
    }

    /// Iterates definitions in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &WalkerDef> {
        self.defs.iter()
    }

    /// Number of registered definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether no definition is registered.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Resolves `name` to a lowered walker.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownWalker`] for unregistered names, plus
    /// [`WalkerDef::lower`]'s compile errors.
    pub fn resolve(&self, name: &str) -> Result<CompiledWalker, EngineError> {
        self.get(name)
            .ok_or_else(|| EngineError::UnknownWalker {
                name: name.to_string(),
            })?
            .lower()
    }
}

/// How a [`WalkRequest`] addresses its walker: resolved (owning the
/// lowered artifact) or by registry name.
///
/// Anything convertible [`IntoWalker`] — a native workload struct, an
/// `Arc<dyn DynamicWalk>`, a `&str` name, or another handle — builds one,
/// so request construction never fails; *named* handles resolve against
/// the serving session's (or engine's) [`WalkerRegistry`] at run time,
/// surfacing unknown names as typed [`EngineError::UnknownWalker`] run
/// errors rather than panics.
///
/// ```
/// use flexi_core::{IntoWalker, UniformWalk, WalkerHandle};
///
/// let by_name: WalkerHandle = "node2vec".into_walker();
/// assert!(!by_name.is_resolved());
/// assert_eq!(by_name.name(), "node2vec");
///
/// let native = (&UniformWalk).into_walker();
/// assert!(native.is_resolved());
/// assert_eq!(native.name(), "uniform_walk");
/// ```
///
/// [`WalkRequest`]: crate::engine::WalkRequest
#[derive(Clone)]
pub struct WalkerHandle {
    state: HandleState,
}

#[derive(Clone)]
enum HandleState {
    Resolved(Arc<CompiledWalker>),
    Named(Arc<str>),
}

impl WalkerHandle {
    /// A handle that must be resolved by a registry at run time.
    pub fn named(name: impl Into<Arc<str>>) -> Self {
        Self {
            state: HandleState::Named(name.into()),
        }
    }

    /// A handle over an already-lowered walker.
    pub fn resolved(walker: Arc<CompiledWalker>) -> Self {
        Self {
            state: HandleState::Resolved(walker),
        }
    }

    /// The walker's name.
    pub fn name(&self) -> &str {
        match &self.state {
            HandleState::Resolved(cw) => cw.name(),
            HandleState::Named(n) => n,
        }
    }

    /// Whether the handle already owns its lowered walker.
    pub fn is_resolved(&self) -> bool {
        matches!(self.state, HandleState::Resolved(_))
    }

    /// The lowered walker, if resolved.
    pub fn compiled(&self) -> Option<&Arc<CompiledWalker>> {
        match &self.state {
            HandleState::Resolved(cw) => Some(cw),
            HandleState::Named(_) => None,
        }
    }

    /// The lowered walker, or the typed error a run of an unresolved
    /// handle reports.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownWalker`] when the handle is still a bare name.
    pub fn get(&self) -> Result<&Arc<CompiledWalker>, EngineError> {
        match &self.state {
            HandleState::Resolved(cw) => Ok(cw),
            HandleState::Named(n) => Err(EngineError::UnknownWalker {
                name: n.to_string(),
            }),
        }
    }
}

impl std::fmt::Debug for WalkerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            HandleState::Resolved(cw) => write!(f, "WalkerHandle({:?}, resolved)", cw.name()),
            HandleState::Named(n) => write!(f, "WalkerHandle({n:?}, named)"),
        }
    }
}

/// Conversion into the [`WalkerHandle`] a `WalkRequest` owns.
///
/// Lets request construction accept `&SomeWorkload` (lowered into an
/// anonymous resolved handle), an `Arc<dyn DynamicWalk>`, a registry name,
/// a lowered [`CompiledWalker`], or an existing handle.
///
/// Converting a bare workload struct runs the compiler pipeline at
/// request-construction time (microseconds — parse + estimator codegen
/// over a tiny program). Hot serving loops issuing many requests for one
/// walker should lower once and reuse the handle — clone a
/// `Session::load_walker` handle or pass the registry name, both of which
/// compile once per distinct definition.
pub trait IntoWalker {
    /// Produces the request's walker handle.
    fn into_walker(self) -> WalkerHandle;
}

impl IntoWalker for WalkerHandle {
    fn into_walker(self) -> WalkerHandle {
        self
    }
}

impl IntoWalker for &WalkerHandle {
    fn into_walker(self) -> WalkerHandle {
        self.clone()
    }
}

impl IntoWalker for &str {
    fn into_walker(self) -> WalkerHandle {
        WalkerHandle::named(self)
    }
}

impl IntoWalker for String {
    fn into_walker(self) -> WalkerHandle {
        WalkerHandle::named(self.as_str())
    }
}

impl IntoWalker for CompiledWalker {
    fn into_walker(self) -> WalkerHandle {
        WalkerHandle::resolved(Arc::new(self))
    }
}

impl IntoWalker for Arc<CompiledWalker> {
    fn into_walker(self) -> WalkerHandle {
        WalkerHandle::resolved(self)
    }
}

impl IntoWalker for Arc<dyn DynamicWalk> {
    fn into_walker(self) -> WalkerHandle {
        let name = self.name().to_string();
        WalkerHandle::resolved(Arc::new(
            WalkerDef::native_shared(name, self)
                .lower()
                .expect("native lowering cannot fail"),
        ))
    }
}

impl<W: DynamicWalk + Clone + 'static> IntoWalker for &W {
    fn into_walker(self) -> WalkerHandle {
        let shared: Arc<dyn DynamicWalk> = Arc::new(self.clone());
        shared.into_walker()
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
    fn dsl_walker_weights_match_native_node2vec() {
        let def = WalkerDef::spec(
            "n2v",
            flexi_compiler::workloads::builtin_spec("node2vec_weighted").unwrap(),
        );
        let cw = def.lower().unwrap();
        let native = Node2Vec::paper(true);
        let g = g();
        for cur in 0..3u32 {
            for prev in [None, Some(0), Some(1), Some(2)] {
                for step in 0..3usize {
                    let st = WalkState {
                        cur,
                        prev,
                        step,
                        time: 0,
                    };
                    for e in g.edge_range(cur) {
                        assert_eq!(
                            cw.walk_dyn().weight(&g, &st, e).to_bits(),
                            native.weight(&g, &st, e).to_bits(),
                            "cur {cur} prev {prev:?} step {step} edge {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn temporal_dsl_twins_match_native_bit_identically() {
        // Timed graph: 0→1 @10, 0→2 @20, 1→{0 @5, 2 @30}, 2→0 @0.
        let mut b = CsrBuilder::new(3);
        b.push_timestamped(0, 1, 1.0, 10);
        b.push_timestamped(0, 2, 2.0, 20);
        b.push_timestamped(1, 0, 3.0, 5);
        b.push_timestamped(1, 2, 4.0, 30);
        b.push_timestamped(2, 0, 5.0, 0);
        let g = b.build().unwrap();
        let native = WalkerRegistry::builtin();
        let dsl = WalkerRegistry::builtin_dsl();
        for name in ["temporal_uniform", "temporal_exp", "temporal_linear"] {
            let n = native.get(name).unwrap().lower().unwrap();
            let d = dsl.get(name).unwrap().lower().unwrap();
            for cur in 0..3u32 {
                for time in [0u64, 5, 10, 21, 30, 500] {
                    let st = WalkState::start_at(cur, time);
                    for e in g.edge_range(cur) {
                        assert_eq!(
                            n.walk_dyn().weight(&g, &st, e).to_bits(),
                            d.walk_dyn().weight(&g, &st, e).to_bits(),
                            "{name}: cur {cur} time {time} edge {e}"
                        );
                    }
                }
            }
            // Twins also agree on the simulator's byte accounting.
            assert_eq!(
                n.walk_dyn().bytes_per_weight(&g),
                d.walk_dyn().bytes_per_weight(&g),
                "{name}: bytes_per_weight diverged"
            );
        }
    }

    #[test]
    fn temporal_walkers_lower_first_order_without_labels() {
        let r = WalkerRegistry::builtin();
        for name in ["temporal_uniform", "temporal_exp", "temporal_linear"] {
            let cw = r.get(name).unwrap().lower().unwrap();
            assert!(!cw.second_order(), "{name}: history-free");
            assert!(!cw.needs_labels(), "{name}");
            assert_eq!(cw.static_bound(), None, "{name}: weight depends on h");
        }
        // exp() is interpretable but not estimable: the compiled artifacts
        // carry no estimator and the engine falls back to reservoir-only.
        let exp = r.get("temporal_exp").unwrap().lower().unwrap();
        assert!(exp.artifacts().compiled.is_none());
        assert!(!exp.artifacts().warnings.is_empty());
        let uni = r.get("temporal_uniform").unwrap().lower().unwrap();
        assert!(uni.artifacts().compiled.is_some(), "uniform is estimable");
    }

    #[test]
    fn lowering_derives_analysis() {
        let n2v = WalkerDef::native("node2vec", Node2Vec::paper(true))
            .lower()
            .unwrap();
        assert!(n2v.second_order());
        assert!(!n2v.needs_labels());
        assert_eq!(n2v.static_bound(), None, "weighted: per-step bound");

        let n2v_u = WalkerDef::native("n2v_u", Node2Vec::paper(false))
            .lower()
            .unwrap();
        assert_eq!(n2v_u.static_bound(), Some(2.0), "max(1/a, 1, 1/b)");

        let mp = WalkerDef::native("metapath", MetaPath::paper(true))
            .lower()
            .unwrap();
        assert!(mp.needs_labels());

        let uniform = WalkerDef::native("uniform", UniformWalk).lower().unwrap();
        assert!(!uniform.second_order());
    }

    #[test]
    fn static_weight_analysis_separates_walkers() {
        // Edge-pure weights: eligible for resident sampler state.
        for def in [
            WalkerDef::native("uniform", UniformWalk),
            WalkerDef::dsl("h", "get_weight(edge) { return h[edge]; }"),
            WalkerDef::dsl("flat", "get_weight(edge) { return 2.5; }"),
        ] {
            let cw = def.lower().unwrap();
            assert!(cw.static_weights(), "{} is edge-pure", cw.name());
        }
        // Any walk-state dependence disqualifies.
        for def in [
            WalkerDef::native("node2vec", Node2Vec::paper(true)),
            WalkerDef::native("sopr", SecondOrderPr::paper()),
            WalkerDef::native("t", TemporalExp::paper()),
            WalkerDef::dsl("step", "get_weight(edge) { return h[edge] * step; }"),
        ] {
            let cw = def.lower().unwrap();
            assert!(!cw.static_weights(), "{} reads walk state", cw.name());
        }
        // MetaPath reads schema[step]: state-dependent even though labels
        // are static per edge.
        let mp = WalkerDef::native("metapath", MetaPath::paper(true))
            .lower()
            .unwrap();
        assert!(!mp.static_weights());
    }

    #[test]
    fn dsl_parse_error_is_typed() {
        let err = WalkerDef::dsl("broken", "get_weight() { return ; }")
            .lower()
            .unwrap_err();
        match err {
            EngineError::WalkerCompile { name, message } => {
                assert_eq!(name, "broken");
                assert!(!message.is_empty());
            }
            other => panic!("expected WalkerCompile, got {other:?}"),
        }
    }

    #[test]
    fn dsl_unknown_references_are_rejected_at_lower_time() {
        for (src, needle) in [
            ("get_weight(edge) { return w[edge]; }", "unknown array"),
            (
                "get_weight(edge) { return summon(edge); }",
                "unknown function",
            ),
            (
                "get_weight(edge) { return h[edge] * mystery; }",
                "unknown variable",
            ),
        ] {
            let err = WalkerDef::dsl("x", src).lower().unwrap_err();
            match err {
                EngineError::WalkerCompile { message, .. } => {
                    assert!(message.contains(needle), "{message}")
                }
                other => panic!("expected WalkerCompile, got {other:?}"),
            }
        }
        // Binding the missing pieces makes the same sources lower.
        assert!(WalkerDef::dsl("x", "get_weight(edge) { return w[edge]; }")
            .array("w", vec![1.0, 2.0])
            .lower()
            .is_ok());
        assert!(
            WalkerDef::dsl("x", "get_weight(edge) { return h[edge] * mystery; }")
                .hyperparam("mystery", 3.0)
                .lower()
                .is_ok()
        );
    }

    #[test]
    fn native_overrides_are_rejected() {
        assert!(matches!(
            WalkerDef::native("u", UniformWalk)
                .hyperparam("a", 1.0)
                .lower(),
            Err(EngineError::WalkerCompile { .. })
        ));
        assert!(matches!(
            WalkerDef::native("u", UniformWalk)
                .preferred_steps(3)
                .lower(),
            Err(EngineError::WalkerCompile { .. })
        ));
        assert!(matches!(
            WalkerDef::dsl("e", "get_weight(edge) { return s[step]; }")
                .array("s", vec![])
                .lower(),
            Err(EngineError::WalkerCompile { .. })
        ));
    }

    #[test]
    fn registry_replaces_duplicates_in_place() {
        let mut r = WalkerRegistry::builtin();
        let before: Vec<String> = r.names().iter().map(|n| n.to_string()).collect();
        r.register(WalkerDef::dsl(
            "node2vec",
            "get_weight(edge) { return 1.0; }",
        ));
        assert_eq!(r.names(), before, "position and count preserved");
        // The replacement definition is the one that resolves.
        let cw = r.resolve("node2vec").unwrap();
        assert_eq!(cw.static_bound(), Some(1.0), "the flat replacement won");
    }

    #[test]
    fn registry_resolve_unknown_is_typed() {
        let r = WalkerRegistry::builtin();
        match r.resolve("nope").unwrap_err() {
            EngineError::UnknownWalker { name } => assert_eq!(name, "nope"),
            other => panic!("expected UnknownWalker, got {other:?}"),
        }
    }

    #[test]
    fn native_instances_with_equal_specs_do_not_share_lowering_keys() {
        // MetaPath's schema lives in the struct, not in spec(): two
        // different schemas must key two lowering-cache rows, or a
        // session would substitute one walk for the other.
        let a = WalkerDef::native(
            "mp_a",
            MetaPath {
                schema: vec![0, 1, 2, 3, 4],
                weighted: true,
            },
        );
        let b = WalkerDef::native(
            "mp_b",
            MetaPath {
                schema: vec![2, 2],
                weighted: true,
            },
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Defs sharing one Arc share their key; the lowered preparation
        // fingerprints (spec-value hashes) still coincide — aggregates
        // are a function of the spec alone, so that sharing is sound.
        let shared: Arc<dyn DynamicWalk> = Arc::new(MetaPath::paper(true));
        let c = WalkerDef::native_shared("c", Arc::clone(&shared));
        let d = WalkerDef::native_shared("d", shared);
        assert_eq!(c.fingerprint(), d.fingerprint());
        assert_eq!(
            a.lower().unwrap().fingerprint(),
            b.lower().unwrap().fingerprint(),
            "preparation key is value-hashed"
        );
    }

    #[test]
    fn fingerprints_ignore_names_but_not_definitions() {
        let a = WalkerDef::dsl("a", "get_weight(edge) { return h[edge]; }");
        let b = WalkerDef::dsl("b", "get_weight(edge) { return h[edge]; }");
        assert_eq!(a.fingerprint(), b.fingerprint(), "same definition");
        let c = WalkerDef::dsl("a", "get_weight(edge) { return 2.0; }");
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = WalkerDef::dsl("a", "get_weight(edge) { return h[edge]; }").hyperparam("x", 1.0);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn handles_resolve_and_report_unknown() {
        let named = WalkerHandle::named("ghost");
        assert_eq!(named.name(), "ghost");
        assert!(named.compiled().is_none());
        assert!(matches!(
            named.get(),
            Err(EngineError::UnknownWalker { .. })
        ));
        let resolved = (&UniformWalk).into_walker();
        assert!(resolved.get().is_ok());
        assert_eq!(resolved.get().unwrap().name(), "uniform_walk");
    }

    #[test]
    fn metapath_dsl_twin_masks_by_schema() {
        let g = g().with_labels(vec![0, 1, 0, 1, 0]).unwrap();
        let cw = WalkerDef::spec(
            "mp",
            flexi_compiler::workloads::builtin_spec("metapath_weighted").unwrap(),
        )
        .array("schema", vec![0.0, 1.0])
        .preferred_steps(2)
        .lower()
        .unwrap();
        let w = cw.walk_dyn();
        assert_eq!(w.preferred_steps(), Some(2));
        let st0 = WalkState::start(0);
        let r = g.edge_range(0);
        assert_eq!(w.weight(&g, &st0, r.start), 1.0);
        assert_eq!(w.weight(&g, &st0, r.start + 1), 0.0);
        // schema[step] wraps, like the native wanted_label.
        assert_eq!(w.env_scalar(&g, &st0, "schema", "step"), Some(0.0));
        let st2 = WalkState {
            cur: 0,
            prev: Some(1),
            step: 2,
            time: 0,
        };
        assert_eq!(w.env_scalar(&g, &st2, "schema", "step"), Some(0.0));
    }
}
