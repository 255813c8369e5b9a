//! Preprocessing reductions requested by Flexi-Compiler (Fig. 9d).
//!
//! Computes the per-node `_MAX` / `_SUM` aggregates of edge-indexed arrays
//! (`h`, `label`) with one simulated coalesced pass over the edge array,
//! and reports the simulated preprocessing time for Table 3.

use flexi_compiler::{AggKind, PreprocessRequest};
use flexi_gpu_sim::{CostStats, DeviceSpec};
use flexi_graph::Csr;
use std::collections::HashMap;

/// Preprocessed per-node aggregates, keyed by source array name.
#[derive(Debug, Default, Clone)]
pub struct Aggregates {
    tables: HashMap<String, AggTable>,
    /// Simulated seconds the preprocessing kernels took.
    pub sim_seconds: f64,
}

#[derive(Debug, Clone)]
struct AggTable {
    max: Vec<f32>,
    sum: Vec<f32>,
}

impl Aggregates {
    /// Runs the requested reductions for `g` on a device described by
    /// `spec`.
    ///
    /// Unknown array names are ignored with no aggregate produced (the
    /// estimator will then evaluate to `None` and the runtime falls back
    /// to eRVS, preserving soundness).
    pub fn compute(g: &Csr, requests: &[PreprocessRequest], spec: &DeviceSpec) -> Self {
        let mut arrays: Vec<&str> = requests
            .iter()
            .map(|r| r.array.as_str())
            .filter(|a| matches!(*a, "h" | "label"))
            .collect();
        arrays.sort_unstable();
        arrays.dedup();

        let mut tables = HashMap::new();
        let mut stats = CostStats::default();
        let n = g.num_nodes();
        for name in arrays {
            let mut max = vec![1.0f32; n];
            let mut sum = vec![0.0f32; n];
            for v in 0..n {
                let r = g.edge_range(v as u32);
                if r.is_empty() {
                    continue;
                }
                let mut mx = f32::NEG_INFINITY;
                let mut sm = 0.0f32;
                for e in r {
                    let x = match name {
                        "h" => g.prop(e),
                        "label" => f32::from(g.label(e)),
                        _ => unreachable!("filtered above"),
                    };
                    mx = mx.max(x);
                    sm += x;
                }
                max[v] = mx;
                sum[v] = sm;
            }
            // One coalesced read pass over the source array, one segmented
            // reduce, two aggregate-array writes.
            let bytes = match name {
                "h" => g.props().bytes_per_weight().max(1),
                _ => 1,
            };
            stats.coalesced_transactions +=
                ((g.num_edges() * bytes).div_ceil(spec.transaction_bytes)) as u64;
            stats.alu_ops += g.num_edges() as u64;
            stats.coalesced_transactions += ((2 * n * 4).div_ceil(spec.transaction_bytes)) as u64;
            tables.insert(name.to_string(), AggTable { max, sum });
        }
        // The reduction parallelises across the whole device.
        let cycles = stats.cycles(spec) / spec.total_warp_slots().max(1) as u64;
        Self {
            tables,
            sim_seconds: spec.cycles_to_seconds(cycles),
        }
    }

    /// Incrementally recomputes the aggregates of `nodes` after a graph
    /// update (the §7.2 dynamic-graph extension).
    ///
    /// Only the listed nodes' edge ranges are re-scanned, so the cost is
    /// proportional to the dirty frontier rather than the whole graph,
    /// and the per-node recomputation is bit-identical to what
    /// [`Aggregates::compute`] produces from scratch. Pair with the
    /// dirty-node set from `flexi_graph::GraphHandle::apply_updates` (or
    /// `DynamicGraph::take_dirty_nodes`).
    ///
    /// Returns the number of in-range nodes refreshed — the session API
    /// surfaces this so callers can assert updates stay proportional to
    /// the dirty frontier.
    pub fn refresh_nodes(&mut self, g: &Csr, nodes: &[u32]) -> usize {
        if self.tables.is_empty() {
            return 0;
        }
        let n = g.num_nodes();
        let refreshed = nodes.iter().filter(|&&v| (v as usize) < n).count();
        for (name, table) in &mut self.tables {
            for &v in nodes {
                let vu = v as usize;
                if vu >= table.max.len() {
                    continue;
                }
                let r = g.edge_range(v);
                if r.is_empty() {
                    table.max[vu] = 1.0;
                    table.sum[vu] = 0.0;
                    continue;
                }
                let mut mx = f32::NEG_INFINITY;
                let mut sm = 0.0f32;
                for e in r {
                    let x = match name.as_str() {
                        "h" => g.prop(e),
                        "label" => f32::from(g.label(e)),
                        _ => continue,
                    };
                    mx = mx.max(x);
                    sm += x;
                }
                table.max[vu] = mx;
                table.sum[vu] = sm;
            }
        }
        refreshed
    }

    /// Whether two aggregate sets hold bit-identical tables.
    ///
    /// Compares every per-node value by its bit pattern (simulated timing
    /// is ignored) — the check the incremental-refresh tests use to prove
    /// `refresh_nodes` equals a from-scratch rebuild.
    pub fn content_eq(&self, other: &Self) -> bool {
        self.tables.len() == other.tables.len()
            && self.tables.iter().all(|(name, t)| {
                other.tables.get(name).is_some_and(|o| {
                    fn bits(v: &[f32]) -> impl Iterator<Item = u32> + '_ {
                        v.iter().map(|x| x.to_bits())
                    }
                    t.max.len() == o.max.len()
                        && t.sum.len() == o.sum.len()
                        && bits(&t.max).eq(bits(&o.max))
                        && bits(&t.sum).eq(bits(&o.sum))
                })
            })
    }

    /// The per-node table of one aggregate, indexed by node id. Estimator
    /// lowering binds it once per launch; `None` if the aggregate was not
    /// preprocessed.
    pub fn table(&self, array: &str, kind: AggKind) -> Option<&[f32]> {
        let t = self.tables.get(array)?;
        Some(match kind {
            AggKind::Max => &t.max,
            AggKind::Sum => &t.sum,
        })
    }

    /// Aggregate lookup for node `v`.
    #[cfg(test)]
    fn get(&self, array: &str, kind: AggKind, v: u32) -> Option<f64> {
        let x = self.table(array, kind)?.get(v as usize)?;
        Some(f64::from(*x))
    }

    /// Whether any aggregate table exists.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexi_graph::CsrBuilder;

    fn requests() -> Vec<PreprocessRequest> {
        vec![
            PreprocessRequest {
                array: "h".into(),
                kind: AggKind::Max,
            },
            PreprocessRequest {
                array: "h".into(),
                kind: AggKind::Sum,
            },
        ]
    }

    #[test]
    fn aggregates_match_manual_values() {
        let g = CsrBuilder::new(2)
            .weighted_edge(0, 0, 3.0)
            .weighted_edge(0, 1, 5.0)
            .weighted_edge(1, 0, 2.0)
            .build()
            .unwrap();
        let agg = Aggregates::compute(&g, &requests(), &DeviceSpec::tiny());
        assert_eq!(agg.get("h", AggKind::Max, 0), Some(5.0));
        assert_eq!(agg.get("h", AggKind::Sum, 0), Some(8.0));
        assert_eq!(agg.get("h", AggKind::Max, 1), Some(2.0));
        assert!(agg.sim_seconds > 0.0);
    }

    #[test]
    fn label_aggregates_supported() {
        let g = CsrBuilder::new(1)
            .edge(0, 0)
            .edge(0, 0)
            .build()
            .unwrap()
            .with_labels(vec![3, 1])
            .unwrap();
        let req = vec![PreprocessRequest {
            array: "label".into(),
            kind: AggKind::Max,
        }];
        let agg = Aggregates::compute(&g, &req, &DeviceSpec::tiny());
        assert_eq!(agg.get("label", AggKind::Max, 0), Some(3.0));
        assert_eq!(agg.get("label", AggKind::Sum, 0), Some(4.0));
    }

    #[test]
    fn unknown_arrays_are_ignored() {
        let g = CsrBuilder::new(1).edge(0, 0).build().unwrap();
        let req = vec![PreprocessRequest {
            array: "mystery".into(),
            kind: AggKind::Max,
        }];
        let agg = Aggregates::compute(&g, &req, &DeviceSpec::tiny());
        assert!(agg.is_empty());
        assert_eq!(agg.get("mystery", AggKind::Max, 0), None);
    }

    #[test]
    fn sink_nodes_get_neutral_aggregates() {
        let g = CsrBuilder::new(2).weighted_edge(0, 1, 9.0).build().unwrap();
        let agg = Aggregates::compute(&g, &requests(), &DeviceSpec::tiny());
        assert_eq!(agg.get("h", AggKind::Max, 1), Some(1.0));
        assert_eq!(agg.get("h", AggKind::Sum, 1), Some(0.0));
    }

    #[test]
    fn out_of_range_node_is_none() {
        let g = CsrBuilder::new(1).edge(0, 0).build().unwrap();
        let agg = Aggregates::compute(&g, &requests(), &DeviceSpec::tiny());
        assert_eq!(agg.get("h", AggKind::Max, 5), None);
    }

    #[test]
    fn refresh_nodes_tracks_weight_updates() {
        use flexi_graph::dynamic::DynamicGraph;
        let g = CsrBuilder::new(2)
            .weighted_edge(0, 0, 3.0)
            .weighted_edge(0, 1, 5.0)
            .weighted_edge(1, 0, 2.0)
            .build()
            .unwrap();
        let mut agg = Aggregates::compute(&g, &requests(), &DeviceSpec::tiny());
        let mut dg = DynamicGraph::new(g);
        dg.set_weight(1, 50.0); // Edge 0 -> 1 now dominates.
                                // Stale until refreshed.
        assert_eq!(agg.get("h", AggKind::Max, 0), Some(5.0));
        let dirty = dg.take_dirty_nodes();
        agg.refresh_nodes(dg.graph(), &dirty);
        assert_eq!(agg.get("h", AggKind::Max, 0), Some(50.0));
        assert_eq!(agg.get("h", AggKind::Sum, 0), Some(53.0));
        // Untouched node unchanged.
        assert_eq!(agg.get("h", AggKind::Max, 1), Some(2.0));
    }

    #[test]
    fn refresh_nodes_handles_structural_updates() {
        use flexi_graph::dynamic::{DynamicGraph, GraphUpdate};
        let g = CsrBuilder::new(3)
            .weighted_edge(0, 1, 4.0)
            .weighted_edge(0, 2, 1.0)
            .build()
            .unwrap();
        let mut agg = Aggregates::compute(&g, &requests(), &DeviceSpec::tiny());
        let mut dg = DynamicGraph::new(g);
        dg.queue(GraphUpdate::RemoveEdge { src: 0, dst: 1 });
        dg.commit().unwrap();
        let dirty = dg.take_dirty_nodes();
        agg.refresh_nodes(dg.graph(), &dirty);
        assert_eq!(agg.get("h", AggKind::Max, 0), Some(1.0));
        assert_eq!(agg.get("h", AggKind::Sum, 0), Some(1.0));
    }

    #[test]
    fn refresh_ignores_out_of_range_nodes() {
        let g = CsrBuilder::new(1).weighted_edge(0, 0, 2.0).build().unwrap();
        let mut agg = Aggregates::compute(&g, &requests(), &DeviceSpec::tiny());
        agg.refresh_nodes(&g, &[7]);
        assert_eq!(agg.get("h", AggKind::Max, 0), Some(2.0));
    }
}
