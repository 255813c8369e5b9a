//! Partitioned multi-GPU execution — the paper's §7.2 first extension.
//!
//! The evaluated multi-GPU mode ([`crate::multi_device`]) duplicates the
//! graph on every device and splits *queries*. For graphs larger than one
//! device's VRAM the paper sketches the alternative: partition the *graph*
//! across devices and migrate walkers over the interconnect, "similar to
//! distributed GNN frameworks", while expecting "considerable communication
//! overhead due to the I/O-bound nature of random walks".
//!
//! This module implements that mode: nodes are hash-partitioned, each
//! device stores only its partition's edges (1/D of the graph plus cut
//! metadata), and every step whose destination lives on another device
//! ships the walker state across an NVLink-like link. The tests demonstrate
//! both halves of the paper's claim: partitioning runs graphs that OOM a
//! single device, *and* pays a heavy migration toll relative to the
//! duplicated-graph mode.

use crate::engine::{EngineError, RunReport, SamplerTally, ShardStats, WalkEngine, WalkRequest};
use crate::workload::{RowScratch, WalkState};
use flexi_gpu_sim::{CostStats, DeviceSpec};
use flexi_graph::{shard_of, Csr, NodeId, PartitionPlan};
use flexi_rng::{RandomSource, Xoshiro256pp};
use flexi_sampling::ids;
use flexi_sampling::scalar::sample_ervs_jump;

pub use crate::topology::LinkSpec;

/// Graph-partitioned multi-GPU engine.
#[derive(Clone, Debug)]
pub struct PartitionedEngine {
    /// Per-device specification.
    pub spec: DeviceSpec,
    /// Number of devices holding one partition each.
    pub num_devices: usize,
    /// Interconnect model.
    pub link: LinkSpec,
}

impl PartitionedEngine {
    /// Creates a partitioned engine over `num_devices` devices.
    pub fn new(spec: DeviceSpec, num_devices: usize) -> Self {
        assert!(num_devices > 0, "need at least one device");
        Self {
            spec,
            num_devices,
            link: LinkSpec::nvlink(),
        }
    }

    /// The device owning `node`'s adjacency — [`flexi_graph::shard_of`],
    /// the one ownership hash the whole system shares (the session shard
    /// executor and cached [`PartitionPlan`]s route through it too).
    pub fn owner(&self, node: NodeId) -> usize {
        shard_of(node, self.num_devices)
    }

    /// Bytes of `g` resident on each device: the partition's edges plus
    /// the full row-pointer array (needed to route remote lookups).
    pub fn partition_bytes(&self, g: &Csr) -> Vec<usize> {
        PartitionPlan::compute(g, self.num_devices).resident_bytes(g)
    }
}

impl WalkEngine for PartitionedEngine {
    fn name(&self) -> &'static str {
        "FlexiWalker-Partitioned"
    }

    fn run(&self, req: &WalkRequest) -> Result<RunReport, EngineError> {
        // The scalar step loop below neither masks nor moves a walk clock.
        req.require_untimed()?;
        let snap = req.snapshot();
        let g: &Csr = &snap.graph;
        let w = req.walker.get()?.walk_dyn();
        let queries: &[NodeId] = &req.queries;
        let cfg = &req.config;
        // VRAM check per partition (the whole point of this mode), using
        // the handle's cached plan — steady-state launches over an
        // unchanged epoch reuse one census instead of re-partitioning.
        let (plan, _) = req.graph.partition_plan(&snap, self.num_devices);
        for bytes in plan.resident_bytes(g) {
            if bytes > self.spec.vram_bytes {
                return Err(EngineError::OutOfMemory {
                    requested: bytes,
                    available: self.spec.vram_bytes,
                });
            }
        }

        let steps = w.preferred_steps().unwrap_or(cfg.steps);
        let bytes_per_weight = w.bytes_per_weight(g);
        let mut device_stats = vec![CostStats::default(); self.num_devices];
        let mut steps_by_owner = vec![0u64; self.num_devices];
        let mut migrations = 0u64;
        let mut steps_taken = 0u64;
        let mut paths = cfg.record_paths.then(|| vec![Vec::new(); queries.len()]);
        let mut scratch = RowScratch::default();

        for (qi, &start) in queries.iter().enumerate() {
            let mut rng = Xoshiro256pp::new(cfg.seed ^ 0xA11C).nth_jump(qi % 64);
            for _ in 0..(qi / 64) {
                rng.next_u64();
            }
            let mut st = WalkState::start(start);
            if let Some(paths) = &mut paths {
                paths[qi].push(start);
            }
            for _ in 0..steps {
                let range = g.edge_range(st.cur);
                if range.is_empty() {
                    break;
                }
                let owner = self.owner(st.cur);
                // The owning device scans the partition-resident adjacency
                // (eRVS access pattern) and reduces.
                w.fill_row(g, &st, range.clone(), &mut scratch);
                let weights = &scratch.weights;
                let stats = &mut device_stats[owner];
                stats.coalesced_transactions += ((weights.len() * bytes_per_weight)
                    .div_ceil(self.spec.transaction_bytes))
                    as u64;
                stats.alu_ops += weights.len() as u64;
                stats.shuffle_ops += 5;
                let (picked, cost) = sample_ervs_jump(weights, &mut rng);
                stats.rng_draws += cost.rng_draws;
                let Some(i) = picked else { break };
                let next = g.neighbor(st.cur, i);
                if self.owner(next) != owner {
                    migrations += 1;
                }
                st.advance(next);
                steps_by_owner[owner] += 1;
                steps_taken += 1;
                if let Some(paths) = &mut paths {
                    paths[qi].push(next);
                }
            }
        }

        // Ensemble time: busiest device plus the (serialising) migration
        // traffic — the paper's expected communication overhead.
        let busiest = device_stats
            .iter()
            .map(|s| self.spec.saturated_seconds(s))
            .fold(0.0, f64::max);
        let comm = self.link.seconds(migrations);
        let sim_seconds = busiest + comm;
        if sim_seconds > cfg.time_budget {
            return Err(EngineError::OutOfTime {
                budget_secs: cfg.time_budget,
            });
        }
        let mut stats = CostStats::default();
        for s in &device_stats {
            stats.add(s);
        }
        Ok(RunReport {
            engine: self.name(),
            graph_version: snap.version,
            sim_seconds,
            saturated_seconds: sim_seconds,
            stats,
            queries: queries.len(),
            steps_taken,
            paths,
            sampler_steps: {
                let mut t = SamplerTally::new();
                t.record(ids::ERVS, steps_taken);
                t
            },
            sampler_state_builds: 0,
            sampler_state_hits: 0,
            profile_seconds: 0.0,
            preprocess_seconds: 0.0,
            warnings: vec![format!(
                "partitioned mode: {migrations} walker migrations \
                 ({:.1}% of steps), {comm:.3e}s communication",
                migrations as f64 / steps_taken.max(1) as f64 * 100.0
            )],
            watts: self.spec.load_watts * self.num_devices as f64,
            shards: Some(ShardStats {
                shards: self.num_devices,
                per_shard_steps: steps_by_owner,
                migrations,
                link_seconds: comm,
            }),
            blocks: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WalkConfig;
    use crate::multi_device::MultiDeviceEngine;
    use crate::workload::Node2Vec;
    use flexi_graph::{gen, WeightModel};

    fn graph() -> Csr {
        let g = gen::rmat(9, 8192, gen::RmatParams::SOCIAL, 33);
        WeightModel::UniformReal.apply(g, 33)
    }

    fn cfg() -> WalkConfig {
        WalkConfig {
            steps: 10,
            record_paths: true,
            ..WalkConfig::default()
        }
    }

    fn run(
        engine: &dyn WalkEngine,
        g: &Csr,
        w: impl crate::walker::IntoWalker,
        queries: &[NodeId],
        c: &WalkConfig,
    ) -> Result<RunReport, EngineError> {
        engine.run(&WalkRequest::new(g.clone(), w, queries).with_config(c.clone()))
    }

    #[test]
    fn walks_are_valid_and_complete() {
        let g = graph();
        let engine = PartitionedEngine::new(DeviceSpec::tiny(), 4);
        let queries: Vec<NodeId> = (0..64).collect();
        let report = run(&engine, &g, &Node2Vec::paper(true), &queries, &cfg()).unwrap();
        assert_eq!(report.queries, 64);
        for path in report.paths.as_ref().unwrap() {
            for pair in path.windows(2) {
                assert!(g.has_edge(pair[0], pair[1]));
            }
        }
    }

    #[test]
    fn migrations_happen_and_are_reported() {
        let g = graph();
        let engine = PartitionedEngine::new(DeviceSpec::tiny(), 4);
        let queries: Vec<NodeId> = (0..64).collect();
        let report = run(&engine, &g, &Node2Vec::paper(true), &queries, &cfg()).unwrap();
        // With 4 hash partitions, ~3/4 of steps cross devices.
        assert!(report.warnings[0].contains("migrations"));
        let pct: f64 = report.warnings[0]
            .split('(')
            .nth(1)
            .and_then(|s| s.split('%').next())
            .and_then(|s| s.parse().ok())
            .expect("migration percentage in warning");
        assert!(pct > 50.0, "migration share {pct}% suspiciously low");
    }

    #[test]
    fn partitioning_fits_graphs_that_oom_one_device() {
        let g = graph();
        let mut spec = DeviceSpec::tiny();
        // VRAM holds ~40% of the graph: duplicated mode must OOM, four
        // partitions (~25% each + row pointers) must fit.
        spec.vram_bytes = g.memory_bytes() * 2 / 5 + g.row_ptr().len() * 8;
        let duplicated = MultiDeviceEngine::new(spec.clone(), 4);
        let queries: Vec<NodeId> = (0..32).collect();
        let err = run(&duplicated, &g, &Node2Vec::paper(true), &queries, &cfg()).unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
        let partitioned = PartitionedEngine::new(spec, 4);
        let report = run(&partitioned, &g, &Node2Vec::paper(true), &queries, &cfg()).unwrap();
        assert!(report.steps_taken > 0);
    }

    #[test]
    fn communication_overhead_is_considerable() {
        // The paper's expectation: when the graph fits everywhere, the
        // duplicated mode beats the partitioned mode because walker
        // migration serialises on the interconnect.
        let g = graph();
        let queries: Vec<NodeId> = (0..128).collect();
        let c = WalkConfig {
            steps: 10,
            ..WalkConfig::default()
        };
        let w = Node2Vec::paper(true);
        let dup = run(
            &MultiDeviceEngine::new(DeviceSpec::a6000(), 4),
            &g,
            &w,
            &queries,
            &c,
        )
        .unwrap();
        let part = run(
            &PartitionedEngine::new(DeviceSpec::a6000(), 4),
            &g,
            &w,
            &queries,
            &c,
        )
        .unwrap();
        assert!(
            part.sim_seconds > 2.0 * dup.saturated_seconds,
            "partitioned {} not ≫ duplicated {}",
            part.sim_seconds,
            dup.saturated_seconds
        );
    }

    #[test]
    fn partition_bytes_cover_all_edges_once() {
        let g = graph();
        let engine = PartitionedEngine::new(DeviceSpec::tiny(), 3);
        let parts = engine.partition_bytes(&g);
        assert_eq!(parts.len(), 3);
        let bytes_per_edge = 4 + g.props().bytes_per_weight();
        let edge_bytes: usize = parts.iter().map(|b| b - g.row_ptr().len() * 8).sum();
        assert_eq!(edge_bytes, g.num_edges() * bytes_per_edge);
    }

    #[test]
    fn single_device_partitioning_never_migrates() {
        let g = graph();
        let engine = PartitionedEngine::new(DeviceSpec::tiny(), 1);
        let report = run(&engine, &g, &Node2Vec::paper(true), &[0, 1, 2], &cfg()).unwrap();
        assert!(report.warnings[0].contains("0 walker migrations"));
    }

    #[test]
    fn link_seconds_scale_with_migrations() {
        let link = LinkSpec::nvlink();
        assert_eq!(link.seconds(0), 0.0);
        assert!(link.seconds(1_000_000) > 100.0 * link.seconds(1000));
    }
}
