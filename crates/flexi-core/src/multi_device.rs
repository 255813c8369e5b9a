//! Multi-GPU execution (paper §6.6).
//!
//! The paper scales by *query parallelism*: the graph is duplicated on
//! every device and walk queries are distributed by a hash of their
//! starting node (range-based mapping scaled worse due to load imbalance —
//! both mappings are implemented so Fig. 15's observation is testable).
//! Simulated kernel time of the ensemble is the maximum over devices.
//!
//! Device launches execute on the shared host [`WorkerPool`] — the same
//! pool the session drain executor uses — instead of a serial per-device
//! loop; reports merge in device-index order, so the ensemble result is
//! bit-identical at any host-thread count.

use crate::engine::{EngineError, RunReport, SamplerTally, ShardStats, WalkEngine, WalkRequest};
use crate::pool::WorkerPool;
use crate::runtime::SelectionStrategy;
use crate::FlexiWalkerEngine;
use flexi_gpu_sim::{CostStats, DeviceSpec};
use flexi_graph::{shard_of, NodeId};
use std::sync::Arc;

/// Query-to-device mapping policies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// `device = hash(start_node) % D` — the paper's choice.
    Hash,
    /// Contiguous index ranges — the naïve mapping the paper rejects.
    Range,
}

/// A fleet of identical simulated devices running FlexiWalker.
#[derive(Clone, Debug)]
pub struct MultiDeviceEngine {
    /// Per-device specification.
    pub spec: DeviceSpec,
    /// Number of devices (1–4 in the paper).
    pub num_devices: usize,
    /// Query mapping policy.
    pub partitioning: Partitioning,
    /// Selection strategy forwarded to each device engine.
    pub strategy: SelectionStrategy,
    /// Host worker pool driving the per-device launches concurrently.
    /// Defaults to one thread per device, capped at host parallelism;
    /// results are identical at any width.
    pub pool: WorkerPool,
}

impl MultiDeviceEngine {
    /// Creates a hash-partitioned fleet with the cost-model strategy.
    pub fn new(spec: DeviceSpec, num_devices: usize) -> Self {
        assert!(num_devices > 0, "need at least one device");
        Self {
            spec,
            num_devices,
            partitioning: Partitioning::Hash,
            strategy: SelectionStrategy::CostModel,
            pool: WorkerPool::new(num_devices.min(WorkerPool::available())),
        }
    }

    /// Replaces the host pool (e.g. to share a session's configured width).
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Splits queries by the configured policy; returns per-device batches.
    pub fn partition(&self, queries: &[NodeId]) -> Vec<Vec<NodeId>> {
        let mut parts = vec![Vec::new(); self.num_devices];
        for (i, &q) in queries.iter().enumerate() {
            parts[self.device_of(i, q, queries.len())].push(q);
        }
        parts
    }

    /// The device query `i` (starting at `q`, of `n`) is mapped to.
    fn device_of(&self, i: usize, q: NodeId, n: usize) -> usize {
        let d = self.num_devices;
        match self.partitioning {
            Partitioning::Hash => shard_of(q, d),
            Partitioning::Range => (i / n.div_ceil(d).max(1)).min(d - 1),
        }
    }
}

impl WalkEngine for MultiDeviceEngine {
    fn name(&self) -> &'static str {
        "FlexiWalker-MultiGPU"
    }

    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        let cfg = &req.config;
        // One walker resolution for the whole ensemble; named handles
        // resolve against the built-in registry (the fleet carries no
        // custom walker registrations).
        let req = &if req.walker.is_resolved() {
            req.clone()
        } else {
            let cw = crate::walker::WalkerRegistry::builtin().resolve(req.walker.name())?;
            req.clone()
                .with_walker(crate::walker::WalkerHandle::resolved(Arc::new(cw)))
        };
        let walker = Arc::clone(req.walker.get()?);
        // One snapshot for the whole ensemble: updates landing on the
        // handle mid-run must not split the fleet across graph versions.
        let snap = req.snapshot();
        let parts = self.partition(&req.queries);
        let mut device_seconds: Vec<f64> = Vec::with_capacity(self.num_devices);
        let mut saturated_max = 0.0f64;
        let mut stats = CostStats::default();
        let mut merged = RunReport {
            engine: self.name(),
            graph_version: snap.version,
            sim_seconds: 0.0,
            saturated_seconds: 0.0,
            stats,
            queries: req.queries.len(),
            steps_taken: 0,
            paths: None,
            sampler_steps: SamplerTally::new(),
            sampler_state_builds: 0,
            sampler_state_hits: 0,
            profile_seconds: 0.0,
            preprocess_seconds: 0.0,
            warnings: Vec::new(),
            watts: self.spec.load_watts * self.num_devices as f64,
            shards: None,
            blocks: None,
        };
        // Fan the per-device launches across the host pool: each device
        // prepares and runs independently over the shared snapshot. The
        // pool returns reports in device-index order, so the merge below —
        // and any error propagation — is identical to the old serial loop.
        // (One trade-off: every device runs to completion before an error
        // surfaces, where the serial loop stopped at the first failure.)
        let launches = self.pool.run_indexed(&parts, 1, |d, part| {
            let engine = FlexiWalkerEngine::with_strategy(self.spec.clone(), self.strategy);
            let mut dev_cfg = cfg.clone();
            dev_cfg.seed = cfg.seed.wrapping_add(d as u64).wrapping_mul(0x9E37) ^ cfg.seed;
            let dev_req = WalkRequest {
                window: req.window,
                ..WalkRequest::new(&req.graph, req.walker.clone(), part.as_slice())
                    .with_config(dev_cfg)
            };
            let prepared = engine.prepare(&snap.graph, &walker, dev_req.config.seed);
            engine.run_on(&snap, &dev_req, &prepared)
        });
        let mut per_device_steps = Vec::with_capacity(self.num_devices);
        let mut device_paths = Vec::with_capacity(self.num_devices);
        for launch in launches.results {
            let mut report = launch?;
            device_paths.push(report.paths.take().map(Vec::into_iter));
            saturated_max = saturated_max.max(report.saturated_seconds);
            device_seconds.push(report.sim_seconds);
            per_device_steps.push(report.steps_taken);
            stats.add(&report.stats);
            merged.steps_taken += report.steps_taken;
            merged.sampler_steps.merge(&report.sampler_steps);
            merged.sampler_state_builds += report.sampler_state_builds;
            merged.sampler_state_hits += report.sampler_state_hits;
            merged.profile_seconds = merged.profile_seconds.max(report.profile_seconds);
            merged.preprocess_seconds = merged.preprocess_seconds.max(report.preprocess_seconds);
        }
        // Each device's paths come back in its batch's order; deal them
        // back into query order.
        if cfg.record_paths {
            let n = req.queries.len();
            merged.paths = Some(
                req.queries
                    .iter()
                    .enumerate()
                    .map(|(i, &q)| {
                        device_paths[self.device_of(i, q, n)]
                            .as_mut()
                            .and_then(Iterator::next)
                            .expect("a device reports one path per query it ran")
                    })
                    .collect(),
            );
        }
        // Devices run concurrently: ensemble time is the slowest device.
        merged.sim_seconds = device_seconds.iter().copied().fold(0.0, f64::max);
        // Ensemble saturated time is the busiest device's work — this is
        // what makes imbalanced partitions (range mapping, hub-heavy hash
        // buckets) scale sub-linearly, as the paper observes for AB.
        merged.saturated_seconds = saturated_max;
        merged.stats = stats;
        // Duplicated-graph mode never migrates walkers: the shard census
        // is per-device step execution only.
        merged.shards = Some(ShardStats {
            shards: self.num_devices,
            per_shard_steps: per_device_steps,
            migrations: 0,
            link_seconds: 0.0,
        });
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WalkConfig;
    use crate::workload::Node2Vec;
    use flexi_graph::{gen, Csr, WeightModel};

    fn graph() -> Csr {
        let g = gen::rmat(9, 8192, gen::RmatParams::SOCIAL, 21);
        WeightModel::UniformReal.apply(g, 21)
    }

    #[test]
    fn hash_partition_covers_all_queries() {
        let eng = MultiDeviceEngine::new(DeviceSpec::tiny(), 4);
        let queries: Vec<NodeId> = (0..1000).collect();
        let parts = eng.partition(&queries);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
        // Hash mapping should be roughly balanced.
        for p in &parts {
            assert!(
                p.len() > 150 && p.len() < 350,
                "unbalanced hash partition: {}",
                p.len()
            );
        }
    }

    #[test]
    fn range_partition_is_contiguous() {
        let mut eng = MultiDeviceEngine::new(DeviceSpec::tiny(), 2);
        eng.partitioning = Partitioning::Range;
        let queries: Vec<NodeId> = (0..10).collect();
        let parts = eng.partition(&queries);
        assert_eq!(parts[0], (0..5).collect::<Vec<_>>());
        assert_eq!(parts[1], (5..10).collect::<Vec<_>>());
    }

    #[test]
    fn more_devices_shorten_simulated_time() {
        let g = graph();
        let queries: Vec<NodeId> = (0..512u32).map(|i| i % 512).collect();
        let w = Node2Vec::paper(true);
        let cfg = WalkConfig {
            steps: 10,
            ..WalkConfig::default()
        };
        let req = WalkRequest::new(g, &w, &queries).with_config(cfg);
        let t1 = MultiDeviceEngine::new(DeviceSpec::tiny(), 1)
            .run(&req)
            .unwrap()
            .sim_seconds;
        let t4 = MultiDeviceEngine::new(DeviceSpec::tiny(), 4)
            .run(&req)
            .unwrap()
            .sim_seconds;
        assert!(
            t4 < t1 * 0.6,
            "4 devices ({t4}s) should be much faster than 1 ({t1}s)"
        );
    }

    #[test]
    fn all_walks_complete_across_devices() {
        let g = graph();
        let queries: Vec<NodeId> = (0..200u32).collect();
        let w = Node2Vec::paper(true);
        let cfg = WalkConfig {
            steps: 5,
            ..WalkConfig::default()
        };
        let report = MultiDeviceEngine::new(DeviceSpec::tiny(), 3)
            .run(&WalkRequest::new(g, &w, &queries).with_config(cfg))
            .unwrap();
        assert_eq!(report.queries, 200);
        // Walks may end early at sinks; on aggregate most should advance.
        assert!(report.steps_taken >= 200, "too few steps taken");
        assert!(report.watts > DeviceSpec::tiny().load_watts * 2.9);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_devices_rejected() {
        MultiDeviceEngine::new(DeviceSpec::tiny(), 0);
    }

    #[test]
    fn ensemble_report_is_identical_at_any_pool_width() {
        // The pool's index-ordered merge makes the ensemble bit-identical
        // whether devices launch serially or across host threads.
        let g = graph();
        let queries: Vec<NodeId> = (0..300u32).collect();
        let w = Node2Vec::paper(true);
        let cfg = WalkConfig {
            steps: 8,
            record_paths: true,
            ..WalkConfig::default()
        };
        let req = WalkRequest::new(g, &w, &queries).with_config(cfg);
        let reports: Vec<RunReport> = [1, 2, 8]
            .into_iter()
            .map(|width| {
                MultiDeviceEngine::new(DeviceSpec::tiny(), 3)
                    .with_pool(WorkerPool::new(width))
                    .run(&req)
                    .unwrap()
            })
            .collect();
        for r in &reports[1..] {
            assert_eq!(r.sim_seconds, reports[0].sim_seconds);
            assert_eq!(r.saturated_seconds, reports[0].saturated_seconds);
            assert_eq!(r.steps_taken, reports[0].steps_taken);
            assert_eq!(r.sampler_steps, reports[0].sampler_steps);
            assert_eq!(r.stats, reports[0].stats);
        }
    }
}
