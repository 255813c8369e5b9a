//! The six workloads: their datasets and op streams.
//!
//! A workload is a graph (its *dataset*), a session configuration and a
//! [`Stream`] — the rule that turns `--seed` into an endless sequence of
//! [`Op`]s: which nodes walks start from, in which order requests come,
//! which edges update batches touch and with what weights. The program
//! under test only ever sees the generated graph, requests and batches.
//!
//! The dataset itself is generated from a constant, not from `--seed`:
//! like a named real-world graph it is part of what the workload *is*.
//! Measured on ten seeds with the graph reseeded too, the sampler mix on
//! `churn-mixed` moved between 70 % and 83 % eRJS (the profiled cost ratio
//! flips per-node choices) and its `steps_per_s` by 30 % — input variance
//! that would bury a 10 % regression. With the dataset fixed, what differs
//! between seeds is a fresh draw of a few hundred thousand start nodes and
//! updated edges, which averages out.

use flexiwalker::prelude::*;
use flexiwalker::rng::{Pareto, SplitMix64};
use std::sync::Arc;

/// Every workload, in the order `run` executes and reports them.
pub const NAMES: [&str; 6] = [
    "corpus-flat",
    "corpus-skew",
    "temporal-window",
    "serve-small",
    "churn-mixed",
    "oversize-blocks",
];

/// Why each workload exists, one line each (mirrored in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "corpus-flat" => {
            "flat weights: eRJS wins most steps and the warp kernel is ~all of the drain"
        }
        "corpus-skew" => {
            "Pareto weights: selection flips to eRVS and hub rows are scanned in O(degree)"
        }
        "temporal-window" => "time-windowed walks: mask lookups, walk clock and early stranding",
        "serve-small" => {
            "tiny served requests in a closed loop: queue, prepare and merge are a third of the wall"
        }
        "churn-mixed" => "update batches beside walks: state patches and cache migration dominate",
        "oversize-blocks" => {
            "graph 4x the resident budget: block replay, loads and evictions dominate"
        }
        _ => "",
    }
}

/// Seconds of measured work the op counts below are sized for on the
/// recording host; they scale with `--seconds` relative to this.
pub const NOMINAL_SECONDS: f64 = 10.0;

/// The law a workload draws edge weights from — used for the graph and for
/// every update batch, so updates do not drift a workload's character.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Weights {
    /// `U[1, 5)`, the paper's default.
    Flat,
    /// `1 + Pareto(1.0)`: heavy skew.
    Skew,
}

impl Weights {
    fn model(self) -> WeightModel {
        match self {
            Weights::Flat => WeightModel::UniformReal,
            Weights::Skew => WeightModel::Pareto { alpha: 1.0 },
        }
    }

    fn draw(self, rng: &mut SplitMix64) -> f32 {
        match self {
            Weights::Flat => 1.0 + 4.0 * unit(rng) as f32,
            Weights::Skew => (1.0 + Pareto::new(1.0).sample(rng)) as f32,
        }
    }
}

fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// What an update batch is made of.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BatchKind {
    /// Every entry rewrites one existing edge's weight.
    SetWeight,
    /// Three of four batches all `SetWeight`; every fourth starts with a
    /// quarter `AddEdge` entries (a structural batch).
    Churn,
    /// Every entry inserts an edge.
    AddEdge,
    /// Every entry inserts an edge stamped inside the day.
    AddEdgeAt,
}

/// When update batches occur in a stream, and what they hold.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Updates {
    /// An op is an update batch when `index % every == phase`.
    pub every: usize,
    pub phase: usize,
    /// Entries per batch.
    pub size: usize,
    pub kind: BatchKind,
}

/// One time window of a temporal request, `[t0, t1)`.
pub type Window = Option<(u64, u64)>;

/// The rule generating a workload's ops.
#[derive(Clone, Debug, PartialEq)]
pub struct Stream {
    /// Walk requests per walk op (one `Session::drain`, or one served
    /// request when this is 1 on a server).
    pub requests: usize,
    /// Start nodes per request.
    pub queries: usize,
    /// Steps per walk.
    pub steps: usize,
    /// Walker names; request `i` uses `walkers[i % len]`.
    pub walkers: Vec<&'static str>,
    /// Time windows; request `i` uses `windows[(i / walkers.len()) % len]`.
    pub windows: Vec<Window>,
    pub updates: Option<Updates>,
    /// Ops of a phase driven through this stream, per [`NOMINAL_SECONDS`].
    pub ops: usize,
}

impl Stream {
    /// Ops after which the stream's pattern repeats: rounds hold whole
    /// cycles, and on a `Session` a traced run keeps tracing on or off for
    /// one.
    pub fn cycle(&self) -> usize {
        match self.updates {
            // Churn batches differ every fourth batch.
            Some(u) if u.kind == BatchKind::Churn => u.every * 4,
            Some(u) => u.every,
            None => 1,
        }
    }

    /// Ops of a phase of a run of `seconds`: whole cycles, at least one.
    /// Fixed work — the count does not depend on how fast the host is.
    pub fn ops_for(&self, seconds: f64) -> usize {
        let cycle = self.cycle();
        let cycles = (self.ops as f64 * seconds / NOMINAL_SECONDS / cycle as f64).round();
        (cycles as usize).max(1) * cycle
    }
}

/// One request of a walk op.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub walker: &'static str,
    pub window: Window,
    pub queries: Vec<NodeId>,
    pub steps: usize,
}

/// One operation against the façade.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Walks(Vec<Req>),
    Update(Vec<GraphUpdate>),
}

/// Turns a [`Stream`] and a seed into ops.
pub struct OpGen {
    stream: Stream,
    rng: SplitMix64,
    index: usize,
    request: usize,
    starts: Arc<[NodeId]>,
    nodes: u64,
    /// Edge ids below this exist at every epoch (edges are only added).
    edges: u64,
    weights: Weights,
}

impl OpGen {
    pub fn new(stream: &Stream, scenario: &Scenario, seed: u64) -> Self {
        Self {
            stream: stream.clone(),
            rng: SplitMix64::new(seed),
            index: 0,
            request: 0,
            starts: Arc::clone(&scenario.starts),
            nodes: scenario.graph.num_nodes() as u64,
            edges: scenario.graph.num_edges() as u64,
            weights: scenario.weights,
        }
    }

    /// Ops generated so far.
    pub fn index(&self) -> usize {
        self.index
    }

    pub fn stream(&self) -> &Stream {
        &self.stream
    }

    /// A walk op of the stream's shape with at most `queries` start nodes
    /// per request: the cold warm-up op of set-up.
    pub fn warm_up(&mut self, queries: usize) -> Vec<Req> {
        let full = self.stream.queries;
        self.stream.queries = full.min(queries);
        let reqs = self.walks();
        self.stream.queries = full;
        reqs
    }

    pub fn next_op(&mut self) -> Op {
        let i = self.index;
        self.index += 1;
        match self.stream.updates {
            Some(u) if i % u.every == u.phase => Op::Update(self.batch(u, i / u.every)),
            _ => Op::Walks(self.walks()),
        }
    }

    fn walks(&mut self) -> Vec<Req> {
        (0..self.stream.requests)
            .map(|_| {
                let r = self.request;
                self.request += 1;
                let s = &self.stream;
                Req {
                    walker: s.walkers[r % s.walkers.len()],
                    window: s.windows[(r / s.walkers.len()) % s.windows.len()],
                    queries: (0..s.queries)
                        .map(|_| self.starts[self.rng.bounded(self.starts.len() as u64) as usize])
                        .collect(),
                    steps: s.steps,
                }
            })
            .collect()
    }

    fn batch(&mut self, u: Updates, nth: usize) -> Vec<GraphUpdate> {
        let adds = match u.kind {
            BatchKind::SetWeight => 0,
            BatchKind::Churn if nth % 4 == 3 => u.size / 4,
            BatchKind::Churn => 0,
            BatchKind::AddEdge | BatchKind::AddEdgeAt => u.size,
        };
        (0..u.size)
            .map(|k| {
                let weight = self.weights.draw(&mut self.rng);
                if k >= adds {
                    return GraphUpdate::SetWeight {
                        edge: self.rng.bounded(self.edges) as usize,
                        weight,
                    };
                }
                let src = self.rng.bounded(self.nodes) as NodeId;
                let dst = self.rng.bounded(self.nodes) as NodeId;
                if u.kind == BatchKind::AddEdgeAt {
                    GraphUpdate::AddEdgeAt {
                        src,
                        dst,
                        weight,
                        label: 0,
                        time: self.rng.bounded(DAY),
                    }
                } else {
                    GraphUpdate::AddEdge {
                        src,
                        dst,
                        weight,
                        label: 0,
                    }
                }
            })
            .collect()
    }
}

/// Which façade the main phase drives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Facade {
    /// `Session::submit` / `drain` / `apply_updates` on the calling thread.
    Session,
    /// `WalkServer`, closed loop, [`OUTSTANDING`] tickets in flight.
    Server,
}

/// The constant every dataset is generated from.
const DATASET_SEED: u64 = 0xF1E8_1DA7_A5E7;

/// Tickets the closed-loop generator keeps outstanding.
pub const OUTSTANDING: usize = 8;

/// Edge stamps of the temporal workload lie in `[0, DAY)`.
pub const DAY: u64 = 86_400;

/// A workload, generated: everything a run needs.
pub struct Scenario {
    pub name: &'static str,
    pub graph: Arc<Csr>,
    /// Nodes with at least one out-edge: where walks start.
    pub starts: Arc<[NodeId]>,
    pub weights: Weights,
    pub facade: Facade,
    pub main: Stream,
    /// The served phase that follows a `Session` main phase, so that the
    /// serve metrics exist on every workload (README, "What a run does").
    pub serve_coda: Option<Stream>,
    /// The phase of back-to-back update batches that follows a main phase
    /// without enough of its own, so that `updates_per_s` exists
    /// everywhere.
    pub update_coda: Option<Stream>,
    /// Seconds of graph generation alone (reported per layer).
    pub gen_seconds: f64,
}

/// What tells the six workloads apart; the rest of a [`Scenario`] follows
/// from these.
struct Spec {
    name: &'static str,
    graph: Csr,
    weights: Weights,
    facade: Facade,
    main: Stream,
    /// Requests of the served coda; 0 when the main phase is served.
    serve_ops: usize,
    /// Batches of the update coda, their size and kind.
    update_coda: Option<(usize, usize, BatchKind)>,
}

/// The served coda every `Session` workload shares: serve-small's request
/// shape on the workload's own graph, walkers and windows.
fn served(main: &Stream, ops: usize) -> Stream {
    Stream {
        requests: 1,
        queries: 4,
        steps: 10,
        updates: None,
        ops,
        ..main.clone()
    }
}

/// `main` with every op an update batch.
fn updates_only(main: &Stream, (ops, size, kind): (usize, usize, BatchKind)) -> Stream {
    Stream {
        updates: Some(Updates {
            every: 1,
            phase: 0,
            size,
            kind,
        }),
        ops,
        ..main.clone()
    }
}

impl Scenario {
    /// Generates workload `name`'s dataset and stream rules.
    ///
    /// # Errors
    ///
    /// An unknown workload name.
    pub fn build(name: &str) -> Result<Self, String> {
        let started = std::time::Instant::now();
        let seed = DATASET_SEED;
        let rmat = |scale: u32, edges: usize, weights: Weights| {
            weights
                .model()
                .apply(gen::rmat(scale, edges, gen::RmatParams::SOCIAL, seed), seed)
        };
        // A walk-only stream of `ops` ops: `requests` x `queries` x `steps`
        // per op. Op counts are sized on the recording host's faster speed
        // for 5.5-8.5 s of main phase, the rest of ten seconds in codas.
        let walks = |ops, requests, queries, steps, walkers: &[&'static str]| Stream {
            requests,
            queries,
            steps,
            walkers: walkers.to_vec(),
            windows: vec![None],
            updates: None,
            ops,
        };
        let Spec {
            name,
            graph,
            weights,
            facade,
            main,
            serve_ops,
            update_coda,
        } = match name {
            "corpus-flat" => Spec {
                name: NAMES[0],
                graph: flexiwalker::graph::props::assign_uniform_labels(
                    rmat(15, 1 << 19, Weights::Flat),
                    5,
                    seed,
                ),
                weights: Weights::Flat,
                facade: Facade::Session,
                main: walks(30, 12, 1024, 40, &["node2vec", "metapath", "sopr"]),
                serve_ops: 60_000,
                update_coda: Some((1500, 256, BatchKind::SetWeight)),
            },
            "corpus-skew" => Spec {
                name: NAMES[1],
                graph: rmat(15, 1 << 19, Weights::Skew),
                weights: Weights::Skew,
                facade: Facade::Session,
                main: walks(20, 1, 1024, 40, &["node2vec"]),
                serve_ops: 10_000,
                update_coda: Some((2000, 256, BatchKind::SetWeight)),
            },
            "temporal-window" => Spec {
                name: NAMES[2],
                graph: temporal_graph(seed),
                weights: Weights::Flat,
                facade: Facade::Session,
                main: Stream {
                    windows: vec![Some((0, DAY / 2)), Some((DAY / 4, DAY)), Some((0, DAY))],
                    ..walks(
                        40,
                        9,
                        2048,
                        40,
                        &["temporal_exp_6h", "temporal_uniform", "temporal_linear_1d"],
                    )
                },
                serve_ops: 55_000,
                update_coda: Some((250, 64, BatchKind::AddEdgeAt)),
            },
            "serve-small" => Spec {
                name: NAMES[3],
                graph: rmat(13, 1 << 16, Weights::Flat),
                weights: Weights::Flat,
                facade: Facade::Server,
                main: Stream {
                    updates: Some(Updates {
                        every: 2000,
                        phase: 1999,
                        size: 16,
                        kind: BatchKind::AddEdge,
                    }),
                    ..walks(220_000, 1, 4, 10, &["node2vec"])
                },
                serve_ops: 0,
                // Batches of 256 so that applying them, not the two thread
                // wake-ups of a round trip through the server, is what
                // `updates_per_s` times (16-edge batches gave 13 % spread).
                update_coda: Some((2000, 256, BatchKind::Churn)),
            },
            "churn-mixed" => Spec {
                name: NAMES[4],
                graph: rmat(15, 1 << 18, Weights::Flat),
                weights: Weights::Flat,
                facade: Facade::Session,
                main: Stream {
                    updates: Some(Updates {
                        every: 2,
                        phase: 0,
                        size: 256,
                        kind: BatchKind::Churn,
                    }),
                    ..walks(1800, 2, 512, 20, &["uniform"])
                },
                serve_ops: 140_000,
                update_coda: None,
            },
            "oversize-blocks" => Spec {
                name: NAMES[5],
                graph: rmat(18, 1 << 22, Weights::Flat),
                weights: Weights::Flat,
                facade: Facade::Session,
                main: walks(15, 8, 512, 20, &["node2vec"]),
                // Served requests take ~2 ms each here. Every update batch
                // appends the blocks it dirtied to the spill file: small
                // batches keep that to ~0.3 GB.
                serve_ops: 1600,
                update_coda: Some((100, 8, BatchKind::SetWeight)),
            },
            other => return Err(format!("unknown workload '{other}' (one of {NAMES:?})")),
        };
        let starts: Arc<[NodeId]> = (0..graph.num_nodes() as NodeId)
            .filter(|&v| graph.degree(v) > 0)
            .collect();
        let serve_coda = (facade == Facade::Session).then(|| served(&main, serve_ops));
        let update_coda = update_coda.map(|u| updates_only(&main, u));
        Ok(Self {
            name,
            graph: Arc::new(graph),
            starts,
            weights,
            facade,
            main,
            serve_coda,
            update_coda,
            gen_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// The session configuration of this workload: one drain worker, and
    /// the samplers, walkers and topology the workload is about.
    pub fn session(&self) -> SessionBuilder {
        let base = FlexiWalker::builder().workers(1);
        match self.name {
            "temporal-window" => base
                .register_sampler(Arc::new(TcdfSampler))
                .register_walker(WalkerDef::native(
                    "temporal_exp_6h",
                    TemporalExp {
                        lambda: 1.0 / (DAY / 4) as f64,
                    },
                ))
                .register_walker(WalkerDef::native(
                    "temporal_linear_1d",
                    TemporalLinear { span: DAY as f64 },
                )),
            "churn-mixed" => base
                .incremental_state(true)
                .register_sampler(Arc::new(AliasSampler))
                .register_sampler(Arc::new(ItsSampler)),
            "oversize-blocks" => {
                let bytes = self.graph.memory_bytes();
                base.topology(Topology::out_of_core(bytes / 4, bytes / 32))
            }
            _ => base,
        }
    }
}

/// 2^14 nodes, out-degree uniform in 4..=32, uniform targets, flat
/// weights, stamps uniform in `[0, DAY)`.
fn temporal_graph(seed: u64) -> Csr {
    const NODES: u64 = 1 << 14;
    let mut rng = SplitMix64::new(seed ^ 0x7E4F_04A1);
    let mut b = CsrBuilder::with_capacity(NODES as usize, NODES as usize * 18);
    for src in 0..NODES as NodeId {
        for _ in 0..4 + rng.bounded(29) {
            let dst = rng.bounded(NODES) as NodeId;
            let weight = Weights::Flat.draw(&mut rng);
            b.push_full_at(src, dst, weight, 0, rng.bounded(DAY));
        }
    }
    b.build()
        .expect("generated ids are in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(name: &str, seed: u64, n: usize) -> Vec<Op> {
        let s = Scenario::build(name).unwrap();
        let mut gen = OpGen::new(&s.main, &s, seed);
        (0..n).map(|_| gen.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        // The small graphs keep this quick; the generator code is shared.
        for name in ["serve-small", "temporal-window"] {
            assert_eq!(ops(name, 7, 40), ops(name, 7, 40), "{name}");
            assert_ne!(ops(name, 7, 40), ops(name, 8, 40), "{name}");
            // The dataset is the workload's own and does not move.
            let (a, b) = (
                Scenario::build(name).unwrap(),
                Scenario::build(name).unwrap(),
            );
            assert_eq!(a.graph.col_idx(), b.graph.col_idx(), "{name}");
        }
    }

    #[test]
    fn update_batches_land_where_the_stream_says() {
        let all = ops("serve-small", 3, 4100);
        for (i, op) in all.iter().enumerate() {
            match op {
                Op::Update(batch) => {
                    assert_eq!(i % 2000, 1999);
                    assert_eq!(batch.len(), 16);
                    assert!(batch
                        .iter()
                        .all(|u| matches!(u, GraphUpdate::AddEdge { .. })));
                }
                Op::Walks(reqs) => {
                    assert_ne!(i % 2000, 1999);
                    assert_eq!(
                        (reqs.len(), reqs[0].queries.len(), reqs[0].steps),
                        (1, 4, 10)
                    );
                }
            }
        }
    }

    #[test]
    fn churn_batches_are_structural_every_fourth() {
        let s = Scenario::build("serve-small").unwrap();
        let stream = Stream {
            updates: Some(Updates {
                every: 2,
                phase: 0,
                size: 256,
                kind: BatchKind::Churn,
            }),
            ..s.main.clone()
        };
        let mut gen = OpGen::new(&stream, &s, 5);
        for nth in 0..8 {
            let Op::Update(batch) = gen.next_op() else {
                panic!("even ops are batches")
            };
            let adds = batch
                .iter()
                .filter(|u| matches!(u, GraphUpdate::AddEdge { .. }))
                .count();
            assert_eq!(adds, if nth % 4 == 3 { 64 } else { 0 });
            assert_eq!(batch.len(), 256);
            assert!(matches!(gen.next_op(), Op::Walks(_)));
        }
    }

    #[test]
    fn temporal_requests_rotate_walkers_then_windows() {
        let s = Scenario::build("temporal-window").unwrap();
        let mut gen = OpGen::new(&s.main, &s, 1);
        let Op::Walks(reqs) = gen.next_op() else {
            panic!("no updates in this stream")
        };
        let seen: std::collections::BTreeSet<_> =
            reqs.iter().map(|r| (r.walker, r.window)).collect();
        assert_eq!(seen.len(), 9, "all walker x window pairs in one drain");
        assert!(s.graph.has_times());
        let degrees: Vec<usize> = (0..s.graph.num_nodes() as NodeId)
            .map(|v| s.graph.degree(v))
            .collect();
        assert!(degrees.iter().all(|d| (4..=32).contains(d)));
    }

    #[test]
    fn queries_start_on_nodes_with_out_edges() {
        let s = Scenario::build("serve-small").unwrap();
        let mut gen = OpGen::new(&s.main, &s, 9);
        for _ in 0..100 {
            if let Op::Walks(reqs) = gen.next_op() {
                assert!(reqs[0].queries.iter().all(|&q| s.graph.degree(q) > 0));
            }
        }
    }
}
