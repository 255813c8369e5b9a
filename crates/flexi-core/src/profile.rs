//! Startup profiling kernels (paper §5.1).
//!
//! Two micro-kernels estimate the per-edge cost of each sampling style on
//! the actual device: one issues warp-coalesced sequential weight scans
//! (the eRVS access pattern), the other random single-lane probes (the
//! eRJS pattern). Their cycle ratio is the `EdgeCost_RJS / EdgeCost_RVS`
//! parameter of Eq. 11. The profile is tiny by design — a fixed node
//! sample and a capped neighbor budget — and its simulated time is
//! reported for Table 3.

use crate::runtime::CostModel;
use flexi_gpu_sim::Device;
use flexi_graph::Csr;

/// Outcome of the profiling pass.
#[derive(Clone, Copy, Debug)]
pub struct ProfileResult {
    /// Measured `EdgeCost_RJS / EdgeCost_RVS`.
    pub edge_cost_ratio: f64,
    /// Simulated seconds both kernels took.
    pub sim_seconds: f64,
    /// Edges touched by each kernel.
    pub edges_profiled: usize,
}

impl ProfileResult {
    /// The cost model parameterised by this profile.
    pub fn cost_model(&self) -> CostModel {
        CostModel::with_ratio(self.edge_cost_ratio)
    }
}

/// Number of nodes the profile samples.
const PROFILE_NODES: usize = 64;
/// Neighbor budget per sampled node.
const PROFILE_NEIGHBORS: usize = 32;

/// Runs the two profiling kernels for `g` on `device`.
///
/// Independent of `seed`: node sampling is stride-based, not random, and
/// the kernels charge draw *counts*, so the seed only changes the drawn
/// values, which nothing reads.
pub fn run_profile(device: &Device, g: &Csr, bytes_per_weight: usize, seed: u64) -> ProfileResult {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return ProfileResult {
            edge_cost_ratio: CostModel::default_ratio().edge_cost_ratio,
            sim_seconds: 0.0,
            edges_profiled: 0,
        };
    }
    // Stride-sample nodes across the id space; skip sinks.
    let stride = (n / PROFILE_NODES).max(1);
    let sample: Vec<u32> = (0..n)
        .step_by(stride)
        .map(|v| v as u32)
        .filter(|&v| g.degree(v) > 0)
        .take(PROFILE_NODES)
        .collect();
    if sample.is_empty() {
        return ProfileResult {
            edge_cost_ratio: CostModel::default_ratio().edge_cost_ratio,
            sim_seconds: 0.0,
            edges_profiled: 0,
        };
    }
    let edges_per_node: Vec<usize> = sample
        .iter()
        .map(|&v| g.degree(v).min(PROFILE_NEIGHBORS))
        .collect();
    let total_edges: usize = edges_per_node.iter().sum();

    // Kernel A: sequential coalesced scans (eRVS pattern) + per-chunk
    // reduction, one warp per sampled node.
    let seq = device.launch(sample.len(), seed, |ctx| {
        let count = edges_per_node[ctx.warp_id()];
        ctx.read_coalesced(count * bytes_per_weight);
        ctx.alu(count as u64);
        let zeros = [0.0f32; flexi_gpu_sim::WARP_SIZE];
        ctx.reduce_max_f32(&zeros);
    });

    // Kernel B: random probes (eRJS pattern) with per-probe RNG.
    let rnd = device.launch(sample.len(), seed ^ 0x5151, |ctx| {
        let count = edges_per_node[ctx.warp_id()];
        for _ in 0..count {
            ctx.draw_u32(0);
            ctx.draw_u32(0);
            ctx.read_random(bytes_per_weight);
            ctx.alu(2);
        }
    });

    let spec = device.spec();
    let seq_cycles = seq.stats.cycles(spec).max(1);
    let rnd_cycles = rnd.stats.cycles(spec).max(1);
    let ratio = rnd_cycles as f64 / seq_cycles as f64;
    ProfileResult {
        edge_cost_ratio: ratio.max(1.0),
        sim_seconds: seq.sim_seconds + rnd.sim_seconds,
        edges_profiled: total_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexi_gpu_sim::DeviceSpec;
    use flexi_graph::gen;

    #[test]
    fn profile_reports_random_costlier_than_sequential() {
        let g = gen::rmat(10, 8192, gen::RmatParams::SOCIAL, 3);
        let dev = Device::new(DeviceSpec::a6000());
        let p = run_profile(&dev, &g, 8, 42);
        assert!(
            p.edge_cost_ratio > 1.5,
            "ratio {} should exceed 1.5",
            p.edge_cost_ratio
        );
        assert!(p.sim_seconds > 0.0);
        assert!(p.edges_profiled > 0);
    }

    #[test]
    fn profile_is_deterministic() {
        let g = gen::rmat(9, 4096, gen::RmatParams::WEB, 5);
        let dev = Device::new(DeviceSpec::a6000());
        let a = run_profile(&dev, &g, 8, 1);
        let b = run_profile(&dev, &g, 8, 1);
        assert_eq!(a.edge_cost_ratio, b.edge_cost_ratio);
        assert_eq!(a.sim_seconds, b.sim_seconds);
    }

    #[test]
    fn profile_does_not_depend_on_the_seed() {
        // Charges are counts, not drawn values: a session may therefore
        // key cached profiles without the request seed.
        let g = gen::rmat(10, 8192, gen::RmatParams::SOCIAL, 3);
        let dev = Device::new(DeviceSpec::a6000());
        let first = run_profile(&dev, &g, 8, 0);
        for seed in 1..50 {
            let p = run_profile(&dev, &g, 8, seed * 0x9E37_79B9);
            assert_eq!(p.edge_cost_ratio, first.edge_cost_ratio, "seed {seed}");
            assert_eq!(p.sim_seconds, first.sim_seconds, "seed {seed}");
        }
    }

    #[test]
    fn profile_cost_is_small_versus_graph_size() {
        let g = gen::rmat(12, 100_000, gen::RmatParams::SOCIAL, 9);
        let dev = Device::new(DeviceSpec::a6000());
        let p = run_profile(&dev, &g, 8, 7);
        // Bounded edge budget regardless of graph size.
        assert!(p.edges_profiled <= 64 * 32);
    }

    #[test]
    fn empty_graph_uses_default_ratio() {
        let g = flexi_graph::CsrBuilder::new(0).build().unwrap();
        let dev = Device::new(DeviceSpec::tiny());
        let p = run_profile(&dev, &g, 8, 1);
        assert_eq!(
            p.edge_cost_ratio,
            CostModel::default_ratio().edge_cost_ratio
        );
        assert_eq!(p.edges_profiled, 0);
    }

    #[test]
    fn all_sink_graph_uses_default_ratio() {
        // Nodes but no edges reachable from the stride sample.
        let g = flexi_graph::CsrBuilder::new(8).build().unwrap();
        let dev = Device::new(DeviceSpec::tiny());
        let p = run_profile(&dev, &g, 8, 1);
        assert_eq!(p.edges_profiled, 0);
    }

    #[test]
    fn cost_model_conversion() {
        let p = ProfileResult {
            edge_cost_ratio: 6.5,
            sim_seconds: 0.0,
            edges_profiled: 0,
        };
        assert_eq!(p.cost_model().edge_cost_ratio, 6.5);
    }
}
