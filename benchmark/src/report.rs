//! Turning a run into output: the result line of the contract, the detail
//! line the `run` subcommand reads back, and the trace file.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::runner::{self, Exact, Outcome, Phase, RunConfig};
use crate::trace::Tracer;

/// The seed `run` and `selfcheck` use unless told otherwise; the numbers
/// under `recorded/` were taken with it.
pub const DEFAULT_SEED: u64 = 20_260_927;

fn exact_json(e: &Exact) -> Json {
    Json::obj([
        ("ops", Json::from(e.ops)),
        ("steps", Json::from(e.steps)),
        ("sim_s", Json::Num(e.sim_s)),
        // As a string: a 64-bit digest does not fit a JSON number.
        ("digest", Json::str(format!("{:016x}", e.digest))),
        (
            "tally",
            Json::obj(e.tally.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
    ])
}

fn phase_json(p: &Phase) -> Json {
    Json::obj([
        ("ops", Json::from(p.ops)),
        ("requests", Json::from(p.requests())),
        ("steps", Json::from(p.steps)),
        ("walk_wall_s", Json::Num(p.walk_wall())),
        ("updates", Json::from(p.updates())),
        ("update_wall_s", Json::Num(p.update_wall())),
        (
            "round_wall_s",
            Json::Arr(
                p.rounds
                    .iter()
                    .map(|r| Json::Num(r.walk_wall + r.update_wall))
                    .collect(),
            ),
        ),
        ("latency_samples", Json::from(p.latencies_ms.len() as u64)),
        ("attempted", Json::from(p.attempted)),
        ("failed", Json::from(p.failed)),
    ])
}

/// Everything about a run that is not a metric: sample counts per phase
/// and the counters that must repeat exactly for one seed.
pub fn detail(cfg: &RunConfig, outcome: &Outcome, load_start: f64) -> Json {
    let m = &outcome.measured;
    Json::obj([
        ("workload", Json::str(outcome.scenario_name)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("exact", exact_json(&m.main.exact())),
        ("main", phase_json(&m.main)),
        (
            "serve_coda",
            m.serve_coda.as_ref().map_or(Json::Null, phase_json),
        ),
        (
            "update_coda",
            m.update_coda.as_ref().map_or(Json::Null, phase_json),
        ),
        (
            "setup_s",
            Json::Arr(outcome.setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("load_1m_start", Json::Num(load_start)),
        ("load_1m_end", Json::Num(crate::host::load_average())),
        (
            "errors",
            Json::Arr(outcome.errors().into_iter().map(Json::Str).collect()),
        ),
    ])
}

/// The last line of a run's standard output.
fn result_line(outcome: &Outcome, metrics: &[(String, f64, &'static str)]) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::from(outcome.attempted().max(1))),
        ("failed", Json::from(outcome.failed())),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                )
            })),
        ),
    ])
}

/// Pairs measured values with the catalog's names and units, in catalog
/// order.
///
/// # Errors
///
/// A catalogued metric that was not measured, or one that is not a number:
/// a result with a hole in it must not be printed.
fn catalogued(
    values: &[(String, f64)],
    catalog: impl Iterator<Item = (&'static str, &'static str)>,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    catalog
        .map(|(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            Ok((name.to_string(), value, unit))
        })
        .collect()
}

/// One run, as the contract's command: prints every metric by name with
/// its unit, then the detail line, then the result line. Exit code 1 when
/// an output check failed.
///
/// # Errors
///
/// A run that could not start (unknown workload, unwritable output
/// directory, failed warm-up) or that left a catalogued metric unmeasured.
pub fn single(cfg: &RunConfig) -> Result<i32, String> {
    let load_start = crate::host::load_average();
    // The out-of-core workload spills blocks under the system temporary
    // directory; keep that inside the output directory.
    let tmp = cfg.out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    let mut tracer = Tracer::new(cfg.trace);
    let outcome = runner::run(cfg, &mut tracer)?;
    // End-to-end metrics come from untraced runs only; a traced run
    // reports the per-layer metrics instead.
    let metrics = if cfg.trace {
        let path = cfg
            .out
            .join(format!("trace-{}.jsonl", outcome.scenario_name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let values = crate::probes::all(&cfg.workload, cfg.seed, &outcome)?;
        catalogued(&values, PER_LAYER.iter().map(|m| (m.name, m.unit)))?
    } else {
        catalogued(
            &outcome.end_to_end(),
            END_TO_END.iter().map(|m| (m.name, m.unit)),
        )?
    };
    // Best effort: the directory is ours and empty unless a spill leaked.
    let _ = std::fs::remove_dir(&tmp);

    for (name, value, unit) in &metrics {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    for e in outcome.errors() {
        eprintln!("flexi-benchmark: check failed: {e}");
    }
    println!("detail {}", detail(cfg, &outcome, load_start).line());
    println!("{}", result_line(&outcome, &metrics).line());
    Ok(if outcome.correct() { 0 } else { 1 })
}
