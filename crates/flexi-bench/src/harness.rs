//! Shared machinery for the reproduction experiments.

use crate::json::Json;
use flexi_core::{
    EngineError, FlexiWalkerEngine, IntoWalker, Node2Vec, RunReport, WalkConfig, WalkEngine,
    WalkRequest,
};
use flexi_gpu_sim::DeviceSpec;
use flexi_graph::{datasets, props, Csr, GraphHandle, NodeId, WeightModel};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Experiment scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Dataset shrink (powers of two below the registered proxy size).
    pub shrink: u32,
    /// Maximum walk queries per run (results are extrapolated to the
    /// paper's one-query-per-node convention).
    pub query_budget: usize,
    /// Walk steps (the paper uses 80).
    pub steps: usize,
    /// Host threads for warp execution.
    pub host_threads: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Profile {
    /// Fast profile used by `repro` by default (~minutes for everything).
    pub fn quick() -> Self {
        Self {
            shrink: 4,
            query_budget: 256,
            steps: 80,
            host_threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            seed: 0xF1E7,
        }
    }

    /// Full proxy scale (`repro --full`).
    pub fn full() -> Self {
        Self {
            shrink: 0,
            query_budget: 1024,
            ..Self::quick()
        }
    }

    /// Tiny profile for unit tests of the harness itself.
    pub fn test() -> Self {
        Self {
            shrink: 6,
            query_budget: 64,
            steps: 10,
            host_threads: 1,
            seed: 7,
        }
    }
}

/// Result of one engine × dataset × workload cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Extrapolated full-query-set execution time in milliseconds.
    Millis(f64),
    /// Device memory exhausted.
    Oom,
    /// Exceeded the (scaled) 12-hour budget.
    Oot,
    /// The engine cannot run this workload.
    Unsupported,
}

impl Outcome {
    /// The time in ms, if the run completed.
    pub fn ms(&self) -> Option<f64> {
        match self {
            Self::Millis(v) => Some(*v),
            _ => None,
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Millis(v) => {
                if *v >= 100.0 {
                    write!(f, "{v:.0}")
                } else if *v >= 1.0 {
                    write!(f, "{v:.2}")
                } else {
                    write!(f, "{v:.4}")
                }
            }
            Self::Oom => write!(f, "OOM"),
            Self::Oot => write!(f, "OOT"),
            Self::Unsupported => write!(f, "-"),
        }
    }
}

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id (`fig3`, `table2`, …).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Column headers (first column is the row label).
    pub header: Vec<String>,
    /// Rows: label + cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, header: Vec<String>) -> Self {
        Self {
            id,
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Parses a numeric cell back out (for assertions in tests).
    pub fn cell_f64(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.parse().ok()
    }

    /// The table as a JSON value (for the `BENCH_<id>.json` artifacts).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::from(self.id)),
            ("title", Json::from(self.title.clone())),
            (
                "header",
                Json::arr(self.header.iter().map(|h| Json::from(h.clone()))),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|row| {
                    Json::arr(row.iter().map(|cell| match cell.parse::<f64>() {
                        // Numeric cells round-trip as numbers so consumers
                        // need no re-parsing; OOM/OOT/labels stay strings.
                        Ok(v) if v.is_finite() => Json::Num(v),
                        _ => Json::from(cell.clone()),
                    }))
                })),
            ),
        ])
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = format!("## {} — {}\n", self.id, self.title);
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i == 0 {
                    line.push_str(&format!("{cell:<width$}  ", width = widths[0]));
                } else {
                    line.push_str(&format!("{cell:>width$}  ", width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// How a dataset's edge properties are initialised for an experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightSetup {
    /// `h ≡ 1` (unweighted workloads).
    Unweighted,
    /// `h ~ U[1, 5)` (the paper's default weighted setting).
    Uniform,
    /// `h ~ 1 + pareto(α)`.
    Pareto(f64),
    /// `h(v, u) = d(u)`.
    DegreeBased,
    /// Uniform weights quantised to INT8 (§7.2).
    UniformInt8,
}

// Topology cache: generation is the expensive part; weights are re-applied
// per request. Keyed by everything `build_scaled` reads, the seed included.
type TopologyCache = HashMap<(String, u32, u64), Arc<Csr>>;
static TOPOLOGY_CACHE: Mutex<Option<TopologyCache>> = Mutex::new(None);

fn base_topology(name: &str, shrink: u32, seed: u64) -> Arc<Csr> {
    let mut guard = TOPOLOGY_CACHE.lock().expect("topology cache lock");
    let cache = guard.get_or_insert_with(HashMap::new);
    let key = (name.to_string(), shrink, seed);
    if let Some(g) = cache.get(&key) {
        return Arc::clone(g);
    }
    let spec = datasets::proxy(name).unwrap_or_else(|| panic!("unknown dataset {name}"));
    let g = Arc::new(spec.build_scaled(shrink, seed));
    cache.insert(key, Arc::clone(&g));
    g
}

/// Materialises a dataset proxy with the requested weights and labels.
pub fn dataset(p: &Profile, name: &str, weights: WeightSetup, labels: bool) -> Csr {
    let base = base_topology(name, p.shrink, p.seed);
    let g = (*base).clone();
    let g = match weights {
        WeightSetup::Unweighted => WeightModel::Unweighted.apply(g, p.seed),
        WeightSetup::Uniform => WeightModel::UniformReal.apply(g, p.seed),
        WeightSetup::Pareto(alpha) => WeightModel::Pareto { alpha }.apply(g, p.seed),
        WeightSetup::DegreeBased => WeightModel::DegreeBased.apply(g, p.seed),
        WeightSetup::UniformInt8 => {
            let g = WeightModel::UniformReal.apply(g, p.seed);
            let q = g.props().quantize_int8();
            g.with_props(q).expect("same length")
        }
    };
    if labels {
        props::assign_uniform_labels(g, 5, p.seed)
    } else {
        g
    }
}

/// Deterministic stride-sample of walk queries across the node id space.
pub fn queries(g: &Csr, p: &Profile) -> Vec<NodeId> {
    let n = g.num_nodes();
    let budget = p.query_budget.min(n.max(1));
    let stride = (n / budget.max(1)).max(1);
    (0..n)
        .step_by(stride)
        .take(budget)
        .map(|v| v as NodeId)
        .collect()
}

/// Scale factor between the proxy and the original dataset.
fn scale_ratio(name: &str, g: &Csr) -> f64 {
    let spec = datasets::proxy(name).expect("known dataset");
    (g.num_edges() as f64 / spec.orig_edges_count as f64).min(1.0)
}

/// Device for a dataset run: A6000 with VRAM scaled by the proxy ratio so
/// memory pressure reproduces at proxy scale.
pub fn device_for(name: &str, g: &Csr) -> DeviceSpec {
    let mut spec = DeviceSpec::a6000();
    let ratio = scale_ratio(name, g);
    spec.vram_bytes = ((spec.vram_bytes as f64) * ratio).max(1024.0) as usize;
    spec
}

/// Walk configuration for a dataset run, including the scaled OOT budget.
pub fn config_for(p: &Profile, name: &str, g: &Csr, queries_len: usize) -> WalkConfig {
    let ratio = scale_ratio(name, g);
    // 12 h at real scale, shrunk by the proxy ratio and by the fraction of
    // nodes actually queried (results are extrapolated back).
    let budget = 12.0 * 3600.0 * ratio * (queries_len as f64 / g.num_nodes().max(1) as f64);
    WalkConfig {
        steps: p.steps,
        record_paths: false,
        time_budget: budget.max(1e-6),
        host_threads: p.host_threads,
        seed: p.seed,
    }
}

/// Runs an engine and converts the result into an extrapolated [`Outcome`].
///
/// The paper launches one query per node; we run `queries.len()` of them
/// and scale the simulated time linearly (walks are query-parallel).
pub fn run(
    engine: &dyn WalkEngine,
    g: &GraphHandle,
    w: impl IntoWalker,
    qs: &[NodeId],
    cfg: &WalkConfig,
) -> Outcome {
    match engine.run(&WalkRequest::new(g, w, qs).with_config(cfg.clone())) {
        Ok(report) => Outcome::Millis(extrapolate_ms(&report, &g.graph(), qs.len())),
        Err(EngineError::OutOfMemory { .. }) => Outcome::Oom,
        Err(EngineError::OutOfTime { .. }) => Outcome::Oot,
        Err(
            EngineError::Unsupported(_)
            | EngineError::UnknownWalker { .. }
            | EngineError::WalkerCompile { .. }
            | EngineError::Io(_),
        ) => Outcome::Unsupported,
    }
}

/// Extrapolates a run's simulated time to the full one-query-per-node set.
pub fn extrapolate_ms(report: &RunReport, g: &Csr, queries_run: usize) -> f64 {
    let factor = g.num_nodes().max(1) as f64 / queries_run.max(1) as f64;
    // Extrapolate from the saturated-device time: at paper scale (one
    // query per node) every launch fills the device, so the makespan of an
    // underfilled proxy launch would overstate the full run.
    report.saturated_seconds * factor * 1e3
}

/// Machine-readable summary of one representative FlexiWalker run at the
/// given profile — the simulated kernel-time / sampler-tally block
/// `repro --json` records in every `BENCH_<id>.json` artifact, so even
/// table-shaped experiments carry comparable scalars. Every field reads
/// the simulated clock or an exact count; host-clock performance belongs
/// to the `benchmark/` crate.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Dataset the probe ran on.
    pub dataset: &'static str,
    /// Walk queries executed.
    pub queries: usize,
    /// Steps per walk.
    pub steps: usize,
    /// Simulated kernel time of the probe walk in seconds.
    pub kernel_seconds: f64,
    /// Sampling steps per strategy, keyed by sampler id.
    pub sampler_steps: Vec<(String, u64)>,
}

impl RunSummary {
    /// Runs the probe: weighted Node2Vec on the YT proxy under `p`.
    pub fn probe(p: &Profile) -> Self {
        let name = "YT";
        let g = dataset(p, name, WeightSetup::Uniform, false);
        let qs = queries(&g, p);
        let mut cfg = config_for(p, name, &g, qs.len());
        cfg.time_budget = f64::MAX;
        let engine = FlexiWalkerEngine::new(device_for(name, &g));
        let g = GraphHandle::new(g);
        let report = engine
            .run(&WalkRequest::new(&g, &Node2Vec::paper(true), &qs).with_config(cfg))
            .expect("probe run succeeds");
        Self {
            dataset: name,
            queries: qs.len(),
            steps: p.steps,
            kernel_seconds: report.sim_seconds,
            sampler_steps: report
                .sampler_steps
                .iter()
                .map(|(id, n)| (id.to_string(), n))
                .collect(),
        }
    }

    /// The summary as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("dataset", Json::from(self.dataset)),
            ("queries", Json::from(self.queries)),
            ("steps", Json::from(self.steps)),
            ("kernel_seconds", Json::from(self.kernel_seconds)),
            (
                "sampler_steps",
                Json::obj(
                    self.sampler_steps
                        .iter()
                        .map(|(id, n)| (id.clone(), Json::from(*n))),
                ),
            ),
        ])
    }
}

/// Geometric mean of positive values; `None` if empty.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexi_core::{FlexiWalkerEngine, Node2Vec};

    #[test]
    fn dataset_cache_returns_consistent_topology() {
        let p = Profile::test();
        let a = dataset(&p, "YT", WeightSetup::Uniform, false);
        let b = dataset(&p, "YT", WeightSetup::Pareto(2.0), false);
        assert_eq!(a.col_idx(), b.col_idx());
        assert_ne!(
            (0..a.num_edges()).map(|e| a.prop(e)).collect::<Vec<_>>(),
            (0..b.num_edges()).map(|e| b.prop(e)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn weight_setups_produce_expected_props() {
        let p = Profile::test();
        let unweighted = dataset(&p, "YT", WeightSetup::Unweighted, false);
        assert!(!unweighted.is_weighted());
        let int8 = dataset(&p, "YT", WeightSetup::UniformInt8, false);
        assert_eq!(int8.props().bytes_per_weight(), 1);
        let labeled = dataset(&p, "YT", WeightSetup::Uniform, true);
        assert!(labeled.has_labels());
    }

    #[test]
    fn queries_are_bounded_and_deterministic() {
        let p = Profile::test();
        let g = dataset(&p, "CP", WeightSetup::Uniform, false);
        let q1 = queries(&g, &p);
        let q2 = queries(&g, &p);
        assert_eq!(q1, q2);
        assert!(q1.len() <= p.query_budget);
        assert!(!q1.is_empty());
    }

    #[test]
    fn vram_scaling_shrinks_with_dataset() {
        let p = Profile::test();
        let g = dataset(&p, "SK", WeightSetup::Uniform, false);
        let spec = device_for("SK", &g);
        assert!(spec.vram_bytes < DeviceSpec::a6000().vram_bytes / 100);
        // The graph itself must still fit.
        assert!(spec.vram_bytes > g.memory_bytes());
    }

    #[test]
    fn run_produces_time_for_flexiwalker() {
        let p = Profile::test();
        let g = dataset(&p, "YT", WeightSetup::Uniform, false);
        let qs = queries(&g, &p);
        let cfg = config_for(&p, "YT", &g, qs.len());
        let engine = FlexiWalkerEngine::new(device_for("YT", &g));
        let g = GraphHandle::new(g);
        let out = run(&engine, &g, &Node2Vec::paper(true), &qs, &cfg);
        assert!(out.ms().expect("completed") > 0.0, "{out}");
    }

    #[test]
    fn table_renders_and_parses() {
        let mut t = Table::new("t", "demo", vec!["ds".into(), "a".into(), "b".into()]);
        t.push_row(vec!["YT".into(), "1.25".into(), "OOM".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("OOM"));
        assert_eq!(t.cell_f64(0, 1), Some(1.25));
        assert_eq!(t.cell_f64(0, 2), None);
    }

    #[test]
    fn table_to_json_keeps_numbers_and_labels() {
        let mut t = Table::new("t", "demo", vec!["ds".into(), "a".into(), "b".into()]);
        t.push_row(vec!["YT".into(), "1.25".into(), "OOM".into()]);
        let s = t.to_json().render();
        assert!(s.contains("\"id\": \"t\""));
        assert!(s.contains("1.25"));
        assert!(s.contains("\"OOM\""));
        assert!(s.contains("\"YT\""));
    }

    #[test]
    fn run_summary_probe_reports_throughput_and_tallies() {
        use crate::json::tests::extract_number;
        let p = Profile::test();
        let s = RunSummary::probe(&p);
        assert!(s.kernel_seconds > 0.0);
        assert!(s.queries > 0);
        assert!(!s.sampler_steps.is_empty());
        let doc = s.to_json().render();
        assert_eq!(
            extract_number(&doc, "kernel_seconds"),
            Some(s.kernel_seconds)
        );
        assert_eq!(extract_number(&doc, "queries"), Some(s.queries as f64));
        // No host-clock field rides the artifact.
        for key in [
            "wall_seconds",
            "throughput_qps",
            "latency",
            "stages",
            "blocks",
        ] {
            assert!(!doc.contains(&format!("\"{key}\"")), "{key} in {doc}");
        }
    }

    #[test]
    fn dataset_cache_keys_by_seed() {
        let seven = Profile::test();
        let eight = Profile { seed: 8, ..seven };
        let spec = datasets::proxy("YT").expect("known dataset");
        let a = dataset(&seven, "YT", WeightSetup::Uniform, false);
        let b = dataset(&eight, "YT", WeightSetup::Uniform, false);
        let fresh = spec.build_scaled(eight.shrink, eight.seed);
        assert_ne!(
            a.col_idx(),
            fresh.col_idx(),
            "seeds 7 and 8 must generate different topologies"
        );
        assert_eq!(
            (b.row_ptr(), b.col_idx()),
            (fresh.row_ptr(), fresh.col_idx()),
            "seed 8 served seed 7's topology"
        );
    }

    #[test]
    fn geomean_math() {
        assert!((geomean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
    }

    #[test]
    fn outcome_formatting() {
        assert_eq!(Outcome::Millis(1234.6).to_string(), "1235");
        assert_eq!(Outcome::Millis(12.345).to_string(), "12.35");
        assert_eq!(Outcome::Millis(0.5).to_string(), "0.5000");
        assert_eq!(Outcome::Oom.to_string(), "OOM");
        assert_eq!(Outcome::Oot.to_string(), "OOT");
        assert_eq!(Outcome::Unsupported.to_string(), "-");
    }
}
