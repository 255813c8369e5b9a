//! Golden charges: the simulated clock of four built-in walkers, pinned.
//!
//! One seeded labelled rmat graph; node2vec, metapath, sopr and uniform
//! each run on one worker under the cost model and under forced eRJS.
//! Under the cost model the eRJS bound reuses the max estimate that
//! selection already evaluated for the same lane-step; under forced eRJS
//! nothing was selected, so the bound evaluates the estimator itself.
//! Both paths must charge exactly what they always charged.
//!
//! Every `CostStats` counter, the bits of `sim_seconds`, the sampler
//! tally and a digest of the recorded paths are compared against fixed
//! values. A change that moves any of these numbers changes the paper's
//! simulated results: it must say why, and re-record the table below.

use flexiwalker::prelude::*;

fn labeled_graph() -> Csr {
    let g = gen::rmat(9, 4096, gen::RmatParams::SOCIAL, 7);
    let g = WeightModel::UniformReal.apply(g, 7);
    flexiwalker::graph::props::assign_uniform_labels(g, 5, 7)
}

/// FNV-1a over every path, length-prefixed.
fn path_digest(paths: &[Vec<NodeId>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in paths {
        eat(p.len() as u64);
        for &v in p {
            eat(u64::from(v));
        }
    }
    h
}

/// `(coalesced, random, alu, rng, shuffle, atomic)` transactions/ops.
type Counters = [u64; 6];

#[derive(Debug, PartialEq)]
struct Golden {
    walker: &'static str,
    forced_erjs: bool,
    counters: Counters,
    sim_seconds_bits: u64,
    tally: Vec<(String, u64)>,
    digest: u64,
}

fn observe(walker: &'static str, forced_erjs: bool) -> Golden {
    let strategy = if forced_erjs {
        SelectionStrategy::Only(sampler_ids::ERJS)
    } else {
        SelectionStrategy::CostModel
    };
    let mut session = FlexiWalker::builder()
        .device(DeviceSpec::a6000())
        .strategy(strategy)
        .workers(1)
        .build();
    let g = session.load_graph(labeled_graph());
    let w = session.load_walker(walker).expect("builtin resolves");
    let queries: Vec<NodeId> = (0..128).collect();
    let report = session
        .run(
            WalkRequest::new(&g, &w, &queries)
                .steps(10)
                .seed(7)
                .record_paths(true),
        )
        .expect("run succeeds");
    let s = report.stats;
    Golden {
        walker,
        forced_erjs,
        counters: [
            s.coalesced_transactions,
            s.random_transactions,
            s.alu_ops,
            s.rng_draws,
            s.shuffle_ops,
            s.atomic_ops,
        ],
        sim_seconds_bits: report.sim_seconds.to_bits(),
        tally: report
            .sampler_steps
            .iter()
            .map(|(id, n)| (id.to_string(), n))
            .collect(),
        digest: path_digest(report.paths.as_ref().expect("paths recorded")),
    }
}

type Row = (
    &'static str,
    bool,
    Counters,
    u64,
    &'static [(&'static str, u64)],
    u64,
);

/// Recorded at the commit before estimator lowering.
const GOLDEN: &[Row] = &[
    (
        "node2vec",
        false,
        [857, 2968, 6434, 7704, 3159, 385],
        0x3f176495ea401e33,
        &[("ervs", 261), ("erjs", 346)],
        0x43de71a88905c2e0,
    ),
    (
        "node2vec",
        true,
        [46, 2933, 4849, 2382, 29, 441],
        0x3f14767117f7383c,
        &[("erjs", 615)],
        0xfb7fefd843a2086d,
    ),
    (
        "metapath",
        false,
        [192, 1637, 2548, 2042, 1115, 370],
        0x3f08e47c83a3b72e,
        &[("ervs", 92), ("erjs", 65)],
        0xa5f3d9b24c15bd12,
    ),
    (
        "metapath",
        true,
        [87, 1734, 2396, 1598, 11, 370],
        0x3f0944701265542f,
        &[("erjs", 158)],
        0x7085952511819d5b,
    ),
    (
        "sopr",
        false,
        [656, 5000, 8899, 7566, 2392, 403],
        0x3f21a5bc43b33eb1,
        &[("ervs", 197), ("erjs", 424)],
        0xe987cf36dc992389,
    ),
    (
        "sopr",
        true,
        [194, 5254, 7490, 4660, 28, 406],
        0x3f2185407a09b2e0,
        &[("erjs", 618)],
        0xc5fcc55cd3bed10b,
    ),
    (
        "uniform",
        false,
        [259, 3047, 6820, 4250, 2044, 413],
        0x3f1617536a6d5f30,
        &[("ervs", 168), ("erjs", 443)],
        0xcf692a671dc040c1,
    ),
    (
        "uniform",
        true,
        [6, 2564, 4435, 1958, 30, 470],
        0x3f123e34aefd6140,
        &[("erjs", 618)],
        0xc423caad9dbd016f,
    ),
];

#[test]
fn estimator_charges_match_the_recorded_golden_values() {
    let mut observed = Vec::new();
    for walker in ["node2vec", "metapath", "sopr", "uniform"] {
        for forced_erjs in [false, true] {
            observed.push(observe(walker, forced_erjs));
        }
    }
    let expected: Vec<Golden> = GOLDEN
        .iter()
        .map(
            |&(walker, forced_erjs, counters, bits, tally, digest)| Golden {
                walker,
                forced_erjs,
                counters,
                sim_seconds_bits: bits,
                tally: tally.iter().map(|&(id, n)| (id.to_string(), n)).collect(),
                digest,
            },
        )
        .collect();
    let rendered: Vec<String> = observed
        .iter()
        .map(|o| {
            let tally: Vec<String> = o
                .tally
                .iter()
                .map(|(id, n)| format!("({id:?}, {n})"))
                .collect();
            format!(
                "({:?}, {}, {:?}, {:#x}, &[{}], {:#x}),",
                o.walker,
                o.forced_erjs,
                o.counters,
                o.sim_seconds_bits,
                tally.join(", "),
                o.digest
            )
        })
        .collect();
    assert_eq!(
        observed,
        expected,
        "charges moved; observed rows:\n{}",
        rendered.join("\n")
    );
}
