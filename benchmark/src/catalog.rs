//! Every metric the benchmark reports: name, unit, direction, bound.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`manifest` subcommand); a test keeps the two in step.

use crate::json::Json;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: measured in untraced runs, reported by every
/// workload, with the share of the baseline's median by which it may
/// worsen before `compare` calls it a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// `true` for simulated device time; everything else is host time or
    /// host memory.
    pub simulated: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: false,
    }
}

/// In `BENCHMARK.json` order. Every host-clock metric carries the widest
/// bound the driver allows: an unchanged binary's ten-run interquartile
/// spread on the recording host is 2-7 % on quiet stretches and up to 20 %
/// on noisy ones (README, "Bounds"), so anything tighter rejects changes
/// that changed nothing.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("steps_per_s", "1/s", Better::Higher, 0.25),
    EndToEnd {
        simulated: true,
        ..e2e("sim_s", "s", Better::Lower, 0.05)
    },
    e2e("updates_per_s", "1/s", Better::Higher, 0.25),
    e2e("serve_rps", "1/s", Better::Higher, 0.25),
    e2e("serve_p50_ms", "ms", Better::Lower, 0.25),
    e2e("serve_p95_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Relative tolerance `compare` applies to `sim_s` when both files were
/// taken with the same seed: simulated time must repeat exactly.
pub const SIM_SAME_SEED_TOLERANCE: f64 = 1e-9;

/// A per-layer metric: measured in the traced run, no bound.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

/// In `BENCHMARK.json` order, grouped by layer (the prefix is the module).
pub const PER_LAYER: [PerLayer; 71] = [
    // flexi-rng
    hi("rng.philox_mdraws_per_s", "1e6/s"),
    // flexi-gpu-sim
    lo("gpu_sim.launch_us_per_warp", "us"),
    // flexi-sampling: kernels on rows of degree 8 / 64 / 1024
    lo("sampling.ervs.ns_per_sample.d8", "ns"),
    lo("sampling.ervs.ns_per_sample.d64", "ns"),
    lo("sampling.ervs.ns_per_sample.d1024", "ns"),
    lo("sampling.erjs.ns_per_sample.d8", "ns"),
    lo("sampling.erjs.ns_per_sample.d64", "ns"),
    lo("sampling.erjs.ns_per_sample.d1024", "ns"),
    lo("sampling.its.ns_per_sample.d8", "ns"),
    lo("sampling.its.ns_per_sample.d64", "ns"),
    lo("sampling.its.ns_per_sample.d1024", "ns"),
    lo("sampling.als.ns_per_sample.d8", "ns"),
    lo("sampling.als.ns_per_sample.d64", "ns"),
    lo("sampling.als.ns_per_sample.d1024", "ns"),
    lo("sampling.tcdf.ns_per_sample.d8", "ns"),
    lo("sampling.tcdf.ns_per_sample.d64", "ns"),
    lo("sampling.tcdf.ns_per_sample.d1024", "ns"),
    // Shares of the main phase's steps: counts, exact. No direction is
    // better; "higher" only fixes how `compare` prints the sign.
    hi("sampling.erjs_step_share", "ratio"),
    hi("sampling.ervs_step_share", "ratio"),
    hi("sampling.tcdf_step_share", "ratio"),
    hi("sampling.state_step_share", "ratio"),
    lo("sampling.state.build_ns_per_edge", "ns"),
    lo("sampling.state.patch_us_per_dirty", "us"),
    // flexi-core::engine
    lo("engine.ns_per_step", "ns"),
    lo("engine.ns_per_step.node2vec", "ns"),
    lo("engine.ns_per_step.metapath", "ns"),
    lo("engine.ns_per_step.sopr", "ns"),
    lo("engine.sim_ns_per_step", "ns"),
    // flexi-core::runtime
    lo("runtime.select_ns", "ns"),
    lo("runtime.regret", "ratio"),
    // flexi-core::preprocess / profile, flexi-compiler
    lo("core.aggregates_ms", "ms"),
    lo("core.refresh_us_per_node", "us"),
    lo("core.profile_ms", "ms"),
    lo("compiler.load_walker_us", "us"),
    // flexi-graph
    hi("graph.gen_medges_per_s", "1e6/s"),
    lo("graph.digest_ms", "ms"),
    lo("graph.apply_batch_us_per_update.weight", "us"),
    lo("graph.apply_batch_us_per_update.struct", "us"),
    lo("graph.handle_update_us_per_update.weight", "us"),
    lo("graph.handle_update_us_per_update.struct", "us"),
    lo("graph.plan_build_ms", "ms"),
    lo("graph.plan_hit_us", "us"),
    lo("graph.mask_build_ms", "ms"),
    lo("graph.mask_hit_us", "us"),
    lo("graph.block_spill_ms", "ms"),
    lo("graph.block_load_us", "us"),
    hi("graph.block_hit_rate", "ratio"),
    // flexi-core::out_of_core
    lo("ooc.replay_us_per_step", "us"),
    lo("ooc.replay_share", "ratio"),
    // flexi-core::pool / service
    lo("pool.dispatch_us_per_job", "us"),
    lo("queue.ns_per_op", "ns"),
    // session + executor
    lo("session.submit_us", "us"),
    lo("session.overhead_us_per_req", "us"),
    lo("session.apply_share", "ratio"),
    hi("executor.launch_share", "ratio"),
    lo("executor.facade_share", "ratio"),
    hi("executor.scaling_2w", "ratio"),
    lo("executor.launch_busy_2w", "ratio"),
    lo("executor.partitioned2_ratio", "ratio"),
    // server
    lo("server.roundtrip_us", "us"),
    hi("server.reqs_per_cycle", "count"),
    lo("server.peak_depth", "count"),
    lo("server.p99_ms", "ms"),
    lo("server.update_p50_ms", "ms"),
    hi("server.open_rate_rps", "1/s"),
    lo("server.open_p50_ms", "ms"),
    lo("server.open_p99_ms", "ms"),
    lo("server.gen_late_max_ms", "ms"),
    // the benchmark itself
    lo("bench.trace_overhead_pct", "%"),
    lo("fail_ratio", "ratio"),
    hi("bench.latency_samples", "count"),
];

/// The command the driver runs, from the repository root; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The contents of `BENCHMARK.json`, from this catalog: `manifest` prints
/// it, and a test holds the checked-in file against it.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strs(&COMMAND)),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(crate::workloads::NOMINAL_SECONDS)),
        (
            "workloads",
            Json::Arr(
                crate::workloads::NAMES
                    .iter()
                    .map(|name| {
                        Json::obj([
                            ("name", Json::str(*name)),
                            ("why", Json::str(crate::workloads::why(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(crate::workloads::NAMES.iter().map(|n| (*n, "s")))
        {
            assert!(legal_name(name), "{name}");
            assert!(legal_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        for name in crate::workloads::NAMES {
            let why = crate::workloads::why(name);
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        }
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    /// `BENCHMARK.json` is what the driver reads; this catalog is what the
    /// program emits. They must say the same.
    #[test]
    fn benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }
}
