//! One run of one workload: set-up, the measured phases, output checks.
//!
//! A run is `setup → main phase → served coda → update coda → checks →
//! more set-ups`. The main phase is the workload proper and the only phase
//! `peak_rss_mb` covers; the codas exist because the driver wants every
//! end-to-end metric from every workload (README, "What a run does").
//!
//! Every phase is *fixed work*: its op count follows from `--seconds`
//! alone, never from how fast the host is, so step counts, path digest,
//! sampler tallies and simulated seconds repeat exactly for one seed. A
//! phase is cut into up to [`ROUNDS`] equal rounds; a host-clock rate is
//! `Σ count ÷ Σ wall` of a round, a latency percentile the true percentile
//! of a round's samples, and the run reports the median over its rounds.

use crate::host::PeakRss;
use crate::stats::{median, percentile, round_ends};
use crate::trace::Tracer;
use crate::validate::{check_hops, check_shape, Fnv};
use crate::workloads::{Facade, Op, OpGen, Req, Scenario, OUTSTANDING};
use flexiwalker::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Counters of the main phase: equal across runs of one seed, exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Exact {
    pub ops: u64,
    pub steps: u64,
    pub sim_s: f64,
    pub digest: u64,
    pub tally: BTreeMap<SamplerId, u64>,
}

/// One op as measured.
#[derive(Clone, Copy, Debug, Default)]
struct Tick {
    steps: u64,
    /// Walk requests answered.
    requests: u64,
    /// Graph updates applied (batch entries, not batches).
    updates: u64,
    /// Session: wall of the `drain` call. Server: time since the previous
    /// response, when this op was a walk request.
    walk_wall: f64,
    /// Session: wall of the `apply_updates` call. Server: time since the
    /// previous response, when this op was an update batch.
    update_wall: f64,
}

/// One of the equal stretches of consecutive ops a phase is cut into.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub steps: u64,
    pub requests: u64,
    pub updates: u64,
    pub walk_wall: f64,
    pub update_wall: f64,
    /// Where this round's walk latencies lie in [`Phase::latencies_ms`].
    latencies: std::ops::Range<usize>,
}

/// What one phase measured. Times are host seconds.
#[derive(Debug, Default)]
pub struct Phase {
    pub rounds: Vec<Round>,
    /// Op counts at which the rounds end; the last is the phase's.
    ends: Vec<usize>,
    /// Served phases: one per answered walk request, `submit` → `wait`
    /// returns.
    pub latencies_ms: Vec<f32>,
    /// Whether a closed loop drove the phase. Its clock is then the time
    /// between consecutive responses of every op, walks and updates alike;
    /// a `Session` phase times `drain` and `apply_updates` calls apart.
    closed_loop: bool,
    pub ops: u64,
    pub steps: u64,
    pub sim_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Fnv,
    pub tally: BTreeMap<SamplerId, u64>,
    /// The first few failed output checks, for the error message.
    pub errors: Vec<String>,
}

impl Phase {
    /// A phase of `ops` ops whose rounds hold whole repeats of `cycle` ops.
    fn new(ops: usize, cycle: usize, closed_loop: bool) -> Self {
        Self {
            rounds: vec![Round::default()],
            ends: round_ends(ops, cycle, ROUNDS),
            closed_loop,
            ..Self::default()
        }
    }

    /// A phase that could not start.
    fn failed(why: String) -> Self {
        let mut phase = Self::new(1, 1, false);
        phase.attempted = 1;
        phase.fail(why);
        phase
    }

    fn total_ops(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// Whether a traced run records the phase's `index`-th op: every
    /// other round, so that traced and untraced rounds are the same mix of
    /// work and see the same host.
    fn traces(&self, index: usize) -> bool {
        self.ends.partition_point(|&end| end <= index) % 2 == 1
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn exact(&self) -> Exact {
        Exact {
            ops: self.ops,
            steps: self.steps,
            sim_s: self.sim_s,
            digest: self.digest.0,
            tally: self.tally.clone(),
        }
    }

    /// Folds one answered walk request into the phase and runs the cheap
    /// output checks on it. Returns the steps it took.
    fn absorb(&mut self, req: &Req, limit: usize, result: Result<&RunReport, String>) -> u64 {
        self.attempted += 1;
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.fail(format!("{}: {e}", req.walker));
                return 0;
            }
        };
        self.steps += report.steps_taken;
        self.sim_s += report.sim_seconds;
        for (id, n) in report.sampler_steps.iter() {
            *self.tally.entry(id).or_default() += n;
        }
        match check_shape(req, limit, report) {
            Ok(()) => self
                .digest
                .paths(report.paths.as_deref().unwrap_or_default()),
            Err(e) => self.fail(format!("{}: {e}", req.walker)),
        }
        report.steps_taken
    }

    fn latency(&mut self, seconds: f64) {
        self.latencies_ms.push((seconds * 1e3) as f32);
        let round = self.rounds.last_mut().expect("a phase has a round open");
        round.latencies.end = self.latencies_ms.len();
    }

    /// Books one finished op into the open round, and opens the next round
    /// where this one ends.
    fn close_op(&mut self, tick: Tick) {
        let round = self.rounds.last_mut().expect("a phase has a round open");
        round.steps += tick.steps;
        round.requests += tick.requests;
        round.updates += tick.updates;
        round.walk_wall += tick.walk_wall;
        round.update_wall += tick.update_wall;
        self.ops += 1;
        if self.ops as usize == self.ends[self.rounds.len() - 1]
            && self.rounds.len() < self.ends.len()
        {
            let at = self.latencies_ms.len();
            self.rounds.push(Round {
                latencies: at..at,
                ..Round::default()
            });
        }
    }

    pub fn requests(&self) -> u64 {
        self.rounds.iter().map(|r| r.requests).sum()
    }

    pub fn updates(&self) -> u64 {
        self.rounds.iter().map(|r| r.updates).sum()
    }

    pub fn walk_wall(&self) -> f64 {
        self.rounds.iter().map(|r| r.walk_wall).sum()
    }

    pub fn update_wall(&self) -> f64 {
        self.rounds.iter().map(|r| r.update_wall).sum()
    }

    /// `count ÷ wall` of every round (NaN for one that counted nothing),
    /// where `wall` is the closed loop's clock in a served phase and `own`
    /// otherwise.
    fn rates(&self, count: impl Fn(&Round) -> u64, own: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| {
                let wall = if self.closed_loop {
                    r.walk_wall + r.update_wall
                } else {
                    own(r)
                };
                if count(r) > 0 && wall > 0.0 {
                    count(r) as f64 / wall
                } else {
                    f64::NAN
                }
            })
            .collect()
    }

    /// The median over rounds of `count ÷ wall`. NaN when no round counted
    /// anything.
    fn rate(&self, count: impl Fn(&Round) -> u64, own: impl Fn(&Round) -> f64) -> f64 {
        median_or_nan(self.rates(count, own).into_iter())
    }

    pub fn steps_per_s(&self) -> f64 {
        self.rate(|r| r.steps, |r| r.walk_wall)
    }

    pub fn requests_per_s(&self) -> f64 {
        self.rate(|r| r.requests, |r| r.walk_wall)
    }

    pub fn updates_per_s(&self) -> f64 {
        self.rate(|r| r.updates, |r| r.update_wall)
    }

    fn latencies(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        self.latencies_ms[range]
            .iter()
            .map(|&l| f64::from(l))
            .collect()
    }

    /// The median over rounds of the `q`-quantile of a round's walk
    /// latencies. NaN when there are none.
    pub fn latency_ms(&self, q: f64) -> f64 {
        median_or_nan(
            self.rounds
                .iter()
                .filter(|r| !r.latencies.is_empty())
                .map(|r| percentile(&self.latencies(r.latencies.clone()), q)),
        )
    }

    /// The `q`-quantile of walk latency over the whole phase.
    pub fn latency_ms_overall(&self, q: f64) -> f64 {
        percentile(&self.latencies(0..self.latencies_ms.len()), q)
    }

    /// What tracing costs: the median steps per second of the untraced
    /// rounds over that of the traced rounds, minus one, in percent. Only
    /// a traced run has traced rounds.
    pub fn trace_overhead_pct(&self) -> f64 {
        let rates = self.rates(|r| r.steps, |r| r.walk_wall);
        let kind = |traced: bool| {
            median_or_nan(
                (0..rates.len())
                    .filter(|&i| (i % 2 == 1) == traced)
                    .map(|i| rates[i]),
            )
        };
        let (on, off) = (kind(true), kind(false));
        if on.is_finite() && off.is_finite() {
            (off / on - 1.0) * 100.0
        } else {
            0.0
        }
    }
}

/// The median of the values that are numbers; NaN when none is.
fn median_or_nan(values: impl Iterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.filter(|v| !v.is_nan()).collect();
    if values.is_empty() {
        f64::NAN
    } else {
        median(&values)
    }
}

/// Rounds a phase is cut into at most. Finer rounds make the median
/// steadier — a slow blip of the host spoils the few rounds it falls in,
/// not a fifth of the phase — as long as each keeps enough samples: over
/// ten runs of `serve-small` the interquartile spread of `serve_p95_ms` was
/// 9.5 % as one percentile over the window, 6.1 % with 5 rounds and 2.6 %
/// with 25.
pub const ROUNDS: usize = 25;

/// Fewest ops in a round of a served phase: a 95th percentile needs ten
/// samples beyond it, and a round must span many serving cycles (the server
/// answers up to eight tickets in a burst) for a burst at its edge not to
/// matter.
const SERVED_ROUND_MIN: usize = 256;

/// Ops after which a served phase samples the counters.
const SERVED_BLOCK: usize = 64;

/// A workload set up and warm: what the measured phases drive.
pub struct Live {
    pub scenario: Scenario,
    pub graph: GraphHandle,
    pub facade: LiveFacade,
    /// Step limit per walker name: the request's, unless the walker
    /// prescribes its own length (`metapath` walks its schema depth).
    limits: BTreeMap<&'static str, Option<usize>>,
    pub seed: u64,
}

pub enum LiveFacade {
    Session(Box<Session>, BTreeMap<&'static str, WalkerHandle>),
    Server(WalkServer),
}

/// Everything configurable about one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for trace files and the block spill (inside the
    /// checkout).
    pub out: std::path::PathBuf,
}

pub fn request(graph: &GraphHandle, walker: impl IntoWalker, req: &Req, seed: u64) -> WalkRequest {
    let r = WalkRequest::new(graph, walker, req.queries.as_slice())
        .steps(req.steps)
        .seed(seed)
        .record_paths(true);
    match req.window {
        Some((t0, t1)) => r.window(TimeWindow::new(t0, t1)),
        None => r,
    }
}

/// Seed salts keeping the streams of one run apart.
const WARM: u64 = 0x3A11_77AA;
const SERVE_CODA: u64 = 0x5E27_E0DA;
const UPDATE_CODA: u64 = 0x0BDA_7E00;

/// Queries per request of the cold warm-up op: set-up time should be the
/// fixed costs (compile, aggregates, profile, masks, state, spill), not
/// walking.
const WARM_QUERIES: usize = 64;

/// Sets a workload up from nothing and returns it warm, with the seconds
/// that took: graph generation, `load_graph`, `load_walker`, and one cold
/// walk op that compiles walkers and builds aggregates, the profile and
/// whatever per-epoch artifacts the workload uses.
///
/// # Errors
///
/// An unknown workload, or a warm-up op that fails.
pub fn setup(name: &str, seed: u64, tracer: &mut Tracer) -> Result<(Live, f64), String> {
    let started = Instant::now();
    let scenario = Scenario::build(name)?;
    let graph = GraphHandle::from_arc(Arc::clone(&scenario.graph));
    let mut limits = BTreeMap::new();
    let mut warm = OpGen::new(&scenario.main, &scenario, seed ^ WARM);
    let reqs = warm.warm_up(WARM_QUERIES);
    let facade = match scenario.facade {
        Facade::Session => {
            let mut session = scenario.session().build();
            let span = tracer.begin("load_graph", 0, None);
            session.load_graph(&graph);
            tracer.end(span);
            let mut handles = BTreeMap::new();
            for &w in &scenario.main.walkers {
                let span = tracer.begin("load_walker", 0, None);
                let handle = session.load_walker(w).map_err(|e| e.to_string())?;
                tracer.end(span);
                let cw = handle.compiled().expect("load_walker resolves");
                limits.insert(w, cw.walk_dyn().preferred_steps());
                handles.insert(w, handle);
            }
            for req in &reqs {
                session.submit(request(&graph, &handles[req.walker], req, seed));
            }
            for (_, result) in session.drain() {
                result.map_err(|e| format!("warm-up: {e}"))?;
            }
            LiveFacade::Session(Box::new(session), handles)
        }
        Facade::Server => {
            let server = WalkServer::builder().session(scenario.session()).serve();
            warm_server(&server, &graph, &reqs, seed)?;
            for &w in &scenario.main.walkers {
                limits.insert(w, None);
            }
            LiveFacade::Server(server)
        }
    };
    let live = Live {
        scenario,
        graph,
        facade,
        limits,
        seed,
    };
    Ok((live, started.elapsed().as_secs_f64()))
}

fn warm_server(
    server: &WalkServer,
    graph: &GraphHandle,
    reqs: &[Req],
    seed: u64,
) -> Result<(), String> {
    let tickets: Vec<WalkTicket> = reqs
        .iter()
        .map(|req| server.submit(request(graph, req.walker, req, seed)))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("warm-up: {e}"))?;
    for t in tickets {
        t.wait().map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// The most steps a walk of `req` may take.
fn step_limit(limits: &BTreeMap<&'static str, Option<usize>>, req: &Req) -> usize {
    limits
        .get(req.walker)
        .copied()
        .flatten()
        .unwrap_or(req.steps)
}

/// Added to a stream's op index to make the span `op_id` of the phases
/// after the main one, so that ids stay unique across a run.
const SERVE_CODA_IDS: u64 = 1 << 40;
const UPDATE_CODA_IDS: u64 = 2 << 40;

/// Counters sampled at op boundaries of a traced run.
fn session_counters(s: &SessionStats) -> Vec<(&'static str, f64)> {
    vec![
        ("prepare_seconds", s.stages.prepare_seconds),
        ("launch_seconds", s.stages.launch_seconds),
        ("merge_seconds", s.stages.merge_seconds),
        ("replay_seconds", s.stages.replay_seconds),
        ("block_loads", s.block_loads as f64),
        ("block_hits", s.block_hits as f64),
        ("block_evictions", s.block_evictions as f64),
        (
            "aggregate_nodes_refreshed",
            s.aggregate_nodes_refreshed as f64,
        ),
        ("sampler_state_patches", s.sampler_state_patches as f64),
        ("masks_migrated", s.masks_migrated as f64),
    ]
}

/// Drives a `Session` through the next `ops` ops of `gen` on the calling
/// thread.
pub fn drive_session(
    live: &mut Live,
    gen: &mut OpGen,
    ops: usize,
    first_op_id: u64,
    tracer: &mut Tracer,
    rss: &mut PeakRss,
) -> Phase {
    let cycle = gen.stream().cycle();
    let seed = live.seed;
    let mut phase = Phase::new(ops, cycle, false);
    // The first walk op is checked hop by hop at once; the last one seen
    // is kept, and checked when the phase ends.
    let mut first_checked = false;
    let mut last: Option<(Vec<Req>, Vec<RunReport>, Arc<Csr>)> = None;
    let graph = live.graph.clone();
    while (phase.ops as usize) < phase.total_ops() {
        tracer.set_active(phase.traces(phase.ops as usize));
        let op_id = first_op_id + gen.index() as u64;
        let op = gen.next_op();
        let LiveFacade::Session(session, handles) = &mut live.facade else {
            unreachable!("drive_session needs a session façade")
        };
        let mut tick = Tick::default();
        match op {
            Op::Update(batch) => {
                let span = tracer.begin("apply_updates", op_id, None);
                let started = Instant::now();
                let outcome = session.apply_updates(&graph, &batch);
                tick.update_wall = started.elapsed().as_secs_f64();
                tracer.end(span);
                phase.attempted += 1;
                match outcome {
                    Ok(_) => tick.updates = batch.len() as u64,
                    Err(e) => phase.fail(format!("apply_updates: {e}")),
                }
            }
            Op::Walks(reqs) => {
                let op_span = tracer.begin("op", op_id, None);
                for req in &reqs {
                    let span = tracer.begin("submit", op_id, op_span.id());
                    session.submit(request(&graph, &handles[req.walker], req, seed));
                    tracer.end(span);
                }
                let span = tracer.begin("drain", op_id, op_span.id());
                let started = Instant::now();
                let results = session.drain();
                tick.walk_wall = started.elapsed().as_secs_f64();
                tracer.end(span);
                tracer.end(op_span);
                let mut reports = Vec::with_capacity(reqs.len());
                for (req, (_, result)) in reqs.iter().zip(results) {
                    tick.steps += phase.absorb(
                        req,
                        step_limit(&live.limits, req),
                        result.as_ref().map_err(ToString::to_string),
                    );
                    reports.extend(result.ok());
                }
                tick.requests = reports.len() as u64;
                if reports.len() == reqs.len() {
                    let snapshot = graph.graph();
                    if !first_checked {
                        first_checked = true;
                        check_all(&mut phase, &snapshot, &reqs, &reports);
                    }
                    last = Some((reqs, reports, snapshot));
                }
            }
        }
        phase.close_op(tick);
        tracer.sample(op_id, || session_counters(&session.stats()));
        rss.sample();
    }
    if let Some((reqs, reports, snapshot)) = last {
        check_all(&mut phase, &snapshot, &reqs, &reports);
    }
    phase
}

fn check_all(phase: &mut Phase, graph: &Csr, reqs: &[Req], reports: &[RunReport]) {
    for (req, report) in reqs.iter().zip(reports) {
        if let Err(e) = check_hops(graph, req, report) {
            phase.fail(format!("{}: {e}", req.walker));
        }
    }
}

enum Ticket {
    Walk(WalkTicket, Req),
    Update(UpdateTicket, usize),
}

struct Inflight {
    op_id: u64,
    submitted: Instant,
    /// `Err` when admission refused the command.
    ticket: Result<Ticket, String>,
    span: crate::trace::Open,
    traced: bool,
}

/// Drives a `WalkServer` through the next `ops` ops of `gen` in a closed
/// loop: this thread is the one generator, keeping [`OUTSTANDING`] tickets
/// in flight and waiting for them in admission order (the order the server
/// answers in).
pub fn drive_server(
    server: &WalkServer,
    live: &Live,
    gen: &mut OpGen,
    ops: usize,
    first_op_id: u64,
    tracer: &mut Tracer,
    rss: &mut PeakRss,
) -> Phase {
    let graph = &live.graph;
    // Rounds hold whole cycles, and at least `SERVED_ROUND_MIN` ops.
    let cycle = gen.stream().cycle();
    let mut phase = Phase::new(ops, cycle * SERVED_ROUND_MIN.div_ceil(cycle), true);
    let mut inflight: VecDeque<Inflight> = VecDeque::with_capacity(OUTSTANDING);
    let mut first_checked = false;
    let mut last: Option<(Req, RunReport)> = None;
    let first_index = gen.index();
    let mut last_done = Instant::now();
    loop {
        while gen.index() - first_index < phase.total_ops() && inflight.len() < OUTSTANDING {
            let traced = tracer.set_active(phase.traces(gen.index() - first_index));
            let op_id = first_op_id + gen.index() as u64;
            let op = gen.next_op();
            let span = tracer.begin("op", op_id, None);
            let submit = tracer.begin("submit", op_id, span.id());
            let submitted = Instant::now();
            let ticket = match op {
                Op::Walks(mut reqs) => {
                    let req = reqs.pop().expect("served ops hold one request");
                    server
                        .submit(request(graph, req.walker, &req, live.seed))
                        .map(|t| Ticket::Walk(t, req))
                }
                Op::Update(batch) => {
                    let n = batch.len();
                    server
                        .apply_updates(graph, batch)
                        .map(|t| Ticket::Update(t, n))
                }
            };
            tracer.end(submit);
            inflight.push_back(Inflight {
                op_id,
                submitted,
                // A command refused at admission stays in line as an op
                // that failed.
                ticket: ticket.map_err(|e| e.to_string()),
                span,
                traced,
            });
        }
        let Some(next) = inflight.pop_front() else {
            break;
        };
        tracer.set_active(next.traced);
        let mut tick = Tick::default();
        let wait = tracer.begin("wait", next.op_id, next.span.id());
        let mut was_update = false;
        match next.ticket {
            Ok(Ticket::Walk(ticket, req)) => {
                let result = ticket.wait();
                let latency = next.submitted.elapsed().as_secs_f64();
                tracer.end(wait);
                tick.steps = phase.absorb(
                    &req,
                    step_limit(&live.limits, &req),
                    result.as_ref().map_err(ToString::to_string),
                );
                if let Ok(report) = result {
                    tick.requests = 1;
                    phase.latency(latency);
                    if !first_checked {
                        first_checked = true;
                        check_all(
                            &mut phase,
                            &graph.graph(),
                            std::slice::from_ref(&req),
                            std::slice::from_ref(&report),
                        );
                    }
                    last = Some((req, report));
                }
            }
            Ok(Ticket::Update(ticket, n)) => {
                let result = ticket.wait();
                tracer.end(wait);
                was_update = true;
                phase.attempted += 1;
                match result {
                    Ok(_) => tick.updates = n as u64,
                    Err(e) => phase.fail(format!("apply_updates: {e}")),
                }
            }
            Err(refused) => {
                tracer.end(wait);
                phase.attempted += 1;
                phase.fail(format!("refused: {refused}"));
            }
        }
        tracer.end(next.span);
        let done = Instant::now();
        let since_last = done.duration_since(last_done).as_secs_f64();
        last_done = done;
        if was_update {
            tick.update_wall = since_last;
        } else {
            tick.walk_wall = since_last;
        }
        phase.close_op(tick);
        if phase.ops as usize % SERVED_BLOCK == 0 {
            tracer.sample(next.op_id, || session_counters(&server.stats().session));
            rss.sample();
        }
    }
    // Edges are only ever added, so every hop of the last request is
    // still an edge of the final snapshot.
    if let Some((req, report)) = last {
        check_all(&mut phase, &graph.graph(), &[req], &[report]);
    }
    phase
}

/// The measured part of a run, phase by phase.
pub struct Measured {
    pub main: Phase,
    /// The served phase of a `Session` workload (a server workload's main
    /// phase is its served phase).
    pub serve_coda: Option<Phase>,
    pub update_coda: Option<Phase>,
    pub peak_rss_mb: f64,
    /// Session counters before and after the main phase.
    pub stats_before: SessionStats,
    pub stats_after: SessionStats,
    /// Counters of the server that ran the served phase.
    pub server: ServerStats,
    /// Failed counter invariants.
    pub invariants: Vec<String>,
}

/// A server's counters once they account for `offered` walk requests. The
/// serving loop answers tickets first and publishes its counters at the
/// end of the cycle, so a read right after the last `wait` can be one
/// cycle behind; this waits (briefly, bounded) for the publication.
fn settled_stats(server: &WalkServer, offered: u64) -> ServerStats {
    let deadline = Instant::now() + std::time::Duration::from_secs(2);
    loop {
        let stats = server.stats();
        if stats.served >= offered || Instant::now() > deadline {
            return stats;
        }
        std::thread::yield_now();
    }
}

/// Runs the measured phases of `live`, each sized for its share of
/// `seconds` on the recording host.
pub fn measure(live: &mut Live, seconds: f64, tracer: &mut Tracer) -> Measured {
    let mut rss = PeakRss::begin();
    let main_stream = live.scenario.main.clone();
    let ops = main_stream.ops_for(seconds);
    let mut gen = OpGen::new(&main_stream, &live.scenario, live.seed);
    // `served_by`: the counters of the server that ran the served phase,
    // and how many walk requests it was offered.
    let (stats_before, main, stats_after, mut served_by) = match live.scenario.facade {
        Facade::Session => {
            let stats = |live: &Live| match &live.facade {
                LiveFacade::Session(session, _) => session.stats(),
                LiveFacade::Server(_) => {
                    unreachable!("a session workload is set up with a session")
                }
            };
            let before = stats(live);
            let main = drive_session(live, &mut gen, ops, 0, tracer, &mut rss);
            (before, main, stats(live), None)
        }
        Facade::Server => {
            let LiveFacade::Server(server) = &live.facade else {
                unreachable!("a server workload is set up with a server")
            };
            // Warm-up offered one op's worth of requests.
            let warm = main_stream.requests as u64;
            let before = settled_stats(server, warm).session;
            let main = drive_server(server, live, &mut gen, ops, 0, tracer, &mut rss);
            let offered = warm + main.requests();
            let after = settled_stats(server, offered);
            (before, main, after.session.clone(), Some((after, offered)))
        }
    };
    // The main phase's peak, read before anything else allocates: the
    // codas start a second server and rewrite the graph.
    rss.sample();
    let peak_rss_mb = rss.mb();
    let mut invariants = invariants(live, &main, &stats_after);

    let serve_coda = live.scenario.serve_coda.clone().map(|stream| {
        // A second façade over the same handle: per-epoch artifacts on the
        // handle (masks, state tables, blocks) are shared, the server's own
        // session caches are warmed before the clock starts.
        let server = WalkServer::builder()
            .session(live.scenario.session())
            .serve();
        let mut gen = OpGen::new(&stream, &live.scenario, live.seed ^ SERVE_CODA);
        let warm = gen.warm_up(usize::MAX);
        let phase = match warm_server(&server, &live.graph, &warm, live.seed) {
            Ok(()) => drive_server(
                &server,
                live,
                &mut gen,
                stream.ops_for(seconds),
                SERVE_CODA_IDS,
                tracer,
                &mut rss,
            ),
            Err(e) => Phase::failed(e),
        };
        served_by = Some((server.shutdown(), warm.len() as u64 + phase.requests()));
        phase
    });
    let (server, offered) = served_by.expect("every workload has a served phase");
    if server.served != offered || server.admission.rejected + server.admission.shed != 0 {
        invariants.push(format!(
            "served {} of {offered} offered, {} rejected, {} shed",
            server.served, server.admission.rejected, server.admission.shed
        ));
    }

    // Update batches back to back through the workload's façade.
    let update_coda = live.scenario.update_coda.clone().map(|stream| {
        let mut gen = OpGen::new(&stream, &live.scenario, live.seed ^ UPDATE_CODA);
        let ops = stream.ops_for(seconds);
        match &live.facade {
            LiveFacade::Session(..) => {
                drive_session(live, &mut gen, ops, UPDATE_CODA_IDS, tracer, &mut rss)
            }
            LiveFacade::Server(server) => drive_server(
                server,
                live,
                &mut gen,
                ops,
                UPDATE_CODA_IDS,
                tracer,
                &mut rss,
            ),
        }
    });
    Measured {
        main,
        serve_coda,
        update_coda,
        peak_rss_mb,
        stats_before,
        stats_after,
        server,
        invariants,
    }
}

/// Counter invariants of the main phase, as failure messages.
fn invariants(live: &Live, main: &Phase, after: &SessionStats) -> Vec<String> {
    let mut failed = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failed.push(what);
        }
    };
    expect(
        after.digests_computed == 1,
        format!("digests_computed = {}, expected 1", after.digests_computed),
    );
    let walkers = live.scenario.main.walkers.len() as u64;
    expect(
        after.aggregates_built == walkers,
        format!(
            "aggregates_built = {}, expected {walkers} (one per walker)",
            after.aggregates_built
        ),
    );
    match live.scenario.name {
        "churn-mixed" => {
            let batch = live.scenario.main.updates.map_or(1, |u| u.size as u64);
            let epochs = main.updates() / batch;
            expect(
                after.sampler_state_builds == 2 && after.sampler_state_patches == 2 * epochs,
                format!(
                    "sampler state: {} builds, {} patches over {epochs} epochs, expected 2 and {}",
                    after.sampler_state_builds,
                    after.sampler_state_patches,
                    2 * epochs
                ),
            );
        }
        "oversize-blocks" => expect(
            after.block_evictions > 0,
            "no block was evicted: the graph fits the resident budget".to_string(),
        ),
        _ => {}
    }
    failed
}

/// The result of one run.
pub struct Outcome {
    pub scenario_name: &'static str,
    pub setup_s: Vec<f64>,
    pub measured: Measured,
}

impl Outcome {
    /// The phase the serve metrics come from.
    pub fn served(&self) -> &Phase {
        self.measured
            .serve_coda
            .as_ref()
            .unwrap_or(&self.measured.main)
    }

    /// The phase `updates_per_s` comes from.
    pub fn updated(&self) -> &Phase {
        self.measured
            .update_coda
            .as_ref()
            .unwrap_or(&self.measured.main)
    }

    fn phases(&self) -> impl Iterator<Item = &Phase> {
        [
            Some(&self.measured.main),
            self.measured.serve_coda.as_ref(),
            self.measured.update_coda.as_ref(),
        ]
        .into_iter()
        .flatten()
    }

    pub fn attempted(&self) -> u64 {
        self.phases().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases().map(|p| p.failed).sum()
    }

    /// Every failed output check and counter invariant.
    pub fn errors(&self) -> Vec<String> {
        self.phases()
            .flat_map(|p| p.errors.iter().cloned())
            .chain(self.measured.invariants.iter().cloned())
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.measured.invariants.is_empty()
    }

    /// The end-to-end metrics, `(name, value)`, in catalog order.
    pub fn end_to_end(&self) -> Vec<(String, f64)> {
        let main = &self.measured.main;
        let served = self.served();
        [
            ("setup_s", median(&self.setup_s)),
            ("steps_per_s", main.steps_per_s()),
            ("sim_s", main.sim_s),
            ("updates_per_s", self.updated().updates_per_s()),
            ("serve_rps", served.requests_per_s()),
            ("serve_p50_ms", served.latency_ms(0.50)),
            ("serve_p95_ms", served.latency_ms(0.95)),
            ("peak_rss_mb", self.measured.peak_rss_mb),
        ]
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
    }
}

/// Target seconds of set-up repetitions beyond the first: cheap set-ups
/// repeat more often so their median is steadier.
const EXTRA_SETUP_SECONDS: f64 = 1.0;

/// One whole run.
///
/// # Errors
///
/// An unknown workload or a failed warm-up; failed ops and checks are
/// reported in the [`Outcome`], not here.
pub fn run(cfg: &RunConfig, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (mut live, first) = setup(&cfg.workload, cfg.seed, tracer)?;
    let scenario_name = live.scenario.name;
    let measured = measure(&mut live, cfg.seconds, tracer);
    drop(live);
    // Set-up is repeated after the measured window so that memory freed by
    // earlier set-ups cannot pad `peak_rss_mb`; the median is reported.
    let mut setup_s = vec![first];
    let repeats = ((EXTRA_SETUP_SECONDS / first).ceil() as usize).clamp(2, 8);
    let mut quiet = Tracer::new(false);
    for _ in 0..repeats {
        let (again, seconds) = setup(&cfg.workload, cfg.seed, &mut quiet)?;
        drop(again);
        setup_s.push(seconds);
    }
    Ok(Outcome {
        scenario_name,
        setup_s,
        measured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{NAMES, NOMINAL_SECONDS};

    /// One set-up and the measured phases at `scale` of the nominal size.
    fn small_run(name: &str, seed: u64, scale: f64) -> Outcome {
        let mut tracer = Tracer::new(false);
        let (mut live, seconds) = setup(name, seed, &mut tracer).expect("set-up");
        let measured = measure(&mut live, NOMINAL_SECONDS * scale, &mut tracer);
        Outcome {
            scenario_name: live.scenario.name,
            setup_s: vec![seconds],
            measured,
        }
    }

    /// Every workload at `--ops-scale 0.02`: runs, passes its own output
    /// checks and counter invariants, reports every end-to-end metric.
    #[test]
    fn smoke_all_six_workloads() {
        // The out-of-core workload spills; keep the file inside the crate.
        let tmp = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-tmp");
        std::fs::create_dir_all(&tmp).unwrap();
        std::env::set_var("TMPDIR", &tmp);
        let started = Instant::now();
        for name in NAMES {
            let outcome = small_run(name, 11, 0.02);
            assert!(outcome.correct(), "{name}: {:?}", outcome.errors());
            assert!(outcome.attempted() > 0, "{name}");
            let metrics = outcome.end_to_end();
            assert_eq!(metrics.len(), crate::catalog::END_TO_END.len());
            for (metric, value) in metrics {
                assert!(
                    value.is_finite() && value > 0.0,
                    "{name}: {metric} = {value}"
                );
            }
            let main = &outcome.measured.main;
            assert!(main.steps > 0 && main.sim_s > 0.0, "{name}");
        }
        assert!(
            started.elapsed().as_secs_f64() < 15.0,
            "smoke took {:?}",
            started.elapsed()
        );
        let _ = std::fs::remove_dir(&tmp);
    }

    /// The served workload runs on two threads; its counters must still
    /// repeat exactly for one seed, and differ for another.
    #[test]
    fn served_phase_repeats_exactly() {
        let exact = |seed| small_run("serve-small", seed, 0.05).measured.main.exact();
        let (a, b, other) = (exact(3), exact(3), exact(4));
        assert!(a.steps > 0);
        assert_eq!(a, b);
        assert_ne!(a, other);
    }
}
