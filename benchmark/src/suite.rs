//! `run`, `compare` and `selfcheck`: every workload as a set of runs, and
//! two sets held against each other.
//!
//! `run` starts one child process per run (clean memory, set-up timed per
//! run): three untraced runs per workload, whose medians are the
//! end-to-end numbers, then one traced run for the per-layer numbers. The
//! children are this same binary in single-run mode.

use crate::catalog::{Better, END_TO_END, PER_LAYER, SIM_SAME_SEED_TOLERANCE};
use crate::json::Json;
use crate::stats::{median, spread};
use crate::workloads::{NAMES, NOMINAL_SECONDS};
use std::path::Path;
use std::process::Command;

/// Untraced runs per workload in a set.
const RUNS: usize = 3;

/// What one child printed: its detail line and its result line.
struct Child {
    detail: Json,
    result: Json,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .map_err(|e| format!("starting a run of {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().and_then(|l| Json::parse(l).ok());
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail "))
        .and_then(|l| Json::parse(l).ok());
    match (result, detail) {
        (Some(result), Some(detail)) => Ok(Child { detail, result }),
        _ => Err(format!(
            "a run of {workload} ended with {} and no result:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// What a traced run must show for a workload to count as stressing the
/// layer it was chosen for: `(metric, at least, at most)`.
fn character(workload: &str) -> &'static [(&'static str, f64, f64)] {
    match workload {
        "corpus-flat" => &[
            ("executor.launch_share", 0.95, 1.01),
            ("sampling.erjs_step_share", 0.7, 1.0),
        ],
        "corpus-skew" => &[
            ("executor.launch_share", 0.95, 1.01),
            ("sampling.erjs_step_share", 0.0, 0.2),
        ],
        // The prototype behind the issue expected the kernel to be at most
        // 35 % of a served request; measured, it is ~65 % (README, "First-run
        // observations"). What holds, and what sets this workload apart
        // from the corpus ones (< 0.1 %), is that the façade is a large
        // part of the wall.
        "serve-small" => &[("executor.facade_share", 0.25, 1.0)],
        "churn-mixed" => &[("session.apply_share", 0.3, 1.0)],
        "oversize-blocks" => &[("ooc.replay_share", 0.6, 1.0)],
        _ => &[],
    }
}

/// Runs one workload's set and returns its entry of the result file plus
/// the problems found.
fn workload_set(
    workload: &str,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<(Json, Vec<String>), String> {
    let mut problems = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..RUNS {
        runs.push(child(workload, seed, seconds, false, out)?);
    }
    let traced = child(workload, seed, seconds, true, out)?;

    // Outputs: every run correct, nothing failed, and the main phase's
    // counters identical in every run, traced one included.
    let exact = runs[0].detail.get("exact").cloned().unwrap_or(Json::Null);
    for (i, run) in runs.iter().chain([&traced]).enumerate() {
        if run.result.get("correct") != Some(&Json::Bool(true)) {
            let errors = run.detail.get("errors").map(Json::line).unwrap_or_default();
            problems.push(format!(
                "{workload}: run {i} failed its output checks: {errors}"
            ));
        }
        if run.detail.get("exact") != Some(&exact) {
            problems.push(format!(
                "{workload}: run {i} differs in steps, digest, tallies or sim_s from run 0"
            ));
        }
    }

    println!("\n{workload}");
    let mut e2e = Vec::new();
    for m in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| metric_value(&r.result, m.name))
            .collect();
        if values.len() != RUNS {
            return Err(format!("{workload}: {} missing from a run", m.name));
        }
        let (med, spr) = (median(&values), spread(&values));
        println!(
            "  {:<42} {:>16.6} {:<6} spread {:>5.1} %  [{}]",
            m.name,
            med,
            m.unit,
            spr * 100.0,
            if m.simulated {
                "simulated clock"
            } else {
                "host clock"
            },
        );
        e2e.push((
            m.name,
            Json::obj([
                ("median", Json::Num(med)),
                ("spread", Json::Num(spr)),
                ("unit", Json::str(m.unit)),
                (
                    "runs",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        ));
    }
    let attempted: f64 = runs
        .iter()
        .filter_map(|r| r.result.get("attempted").and_then(Json::as_f64))
        .sum();
    let failed: f64 = runs
        .iter()
        .filter_map(|r| r.result.get("failed").and_then(Json::as_f64))
        .sum();
    println!(
        "  {:<42} {:>16.6} {:<6} ({failed} of {attempted})",
        "fail_ratio",
        failed / attempted.max(1.0),
        "ratio"
    );

    let mut layers = Vec::new();
    for m in PER_LAYER {
        let value = metric_value(&traced.result, m.name)
            .ok_or_else(|| format!("{workload}: {} missing from the traced run", m.name))?;
        println!("  {:<42} {:>16.6} {}", m.name, value, m.unit);
        layers.push((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ));
    }
    for &(name, at_least, at_most) in character(workload) {
        let value = metric_value(&traced.result, name).unwrap_or(f64::NAN);
        if !(at_least..=at_most).contains(&value) {
            problems.push(format!(
                "{workload} lost its character: {name} = {value}, expected {at_least}..={at_most}"
            ));
        }
    }
    let overhead = metric_value(&traced.result, "bench.trace_overhead_pct").unwrap_or(f64::NAN);
    if overhead.is_nan() || overhead > 5.0 {
        problems.push(format!(
            "{workload}: tracing costs {overhead:.1} % (limit 5 %)"
        ));
    }

    let entry = Json::obj([
        ("end_to_end", Json::obj(e2e)),
        ("fail_ratio", Json::Num(failed / attempted.max(1.0))),
        ("per_layer", Json::obj(layers)),
        ("exact", exact),
        (
            "runs",
            Json::Arr(runs.iter().map(|r| r.detail.clone()).collect()),
        ),
    ]);
    Ok((entry, problems))
}

/// Runs every workload and writes `<out>/<file>`. Returns the problems
/// found (failed checks, lost character); an empty list is a clean set.
///
/// # Errors
///
/// A child that did not produce a result, or an unwritable output file.
pub fn run_set(seed: u64, ops_scale: f64, out: &Path, file: &str) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let load_start = crate::host::load_average();
    let seconds = NOMINAL_SECONDS * ops_scale;
    let mut problems = Vec::new();
    let mut entries = Vec::new();
    for workload in NAMES {
        let (entry, found) = workload_set(workload, seed, seconds, out)?;
        entries.push((workload, entry));
        problems.extend(found);
    }
    let host = crate::host::fingerprint(seed, ops_scale, load_start);
    if host.get("noisy") == Some(&Json::Bool(true)) {
        println!("\nnoisy: the 1-minute load average was above the core count at the start");
    }
    let doc = Json::obj([
        ("host", host),
        ("seconds", Json::Num(seconds)),
        ("runs_per_workload", Json::from(RUNS as u64)),
        ("workloads", Json::obj(entries)),
    ]);
    let path = out.join(file);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    for p in &problems {
        println!("PROBLEM {p}");
    }
    Ok(problems)
}

/// One line of a comparison.
#[derive(Debug, PartialEq)]
pub struct Verdict {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    /// By how much `new` is worse than `base`, as a share of `base`
    /// (negative: better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Verdict {
    /// Worse by more than the bound, or missing from the new file (`new`
    /// is NaN then, and `worse_by` infinite).
    pub fn flagged(&self) -> bool {
        self.worse_by > self.bound
    }
}

/// By how much `new` is worse than `base` as a share of `base`, given
/// which direction is better.
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

fn seed_of(doc: &Json) -> Option<f64> {
    doc.get("host")?.get("seed")?.as_f64()
}

/// Holds result file `b` against baseline `a`: one verdict per workload
/// and end-to-end metric of `a` — flagged when `b` lacks it, a result file
/// may never drop a workload — plus the workloads whose exact counters
/// differ although both files were taken on the same inputs.
pub fn compare_docs(a: &Json, b: &Json) -> (Vec<Verdict>, Vec<String>) {
    let same_inputs = seed_of(a).is_some()
        && seed_of(a) == seed_of(b)
        && a.get("seconds").and_then(Json::as_f64) == b.get("seconds").and_then(Json::as_f64);
    let mut verdicts = Vec::new();
    let mut inexact = Vec::new();
    let empty = Json::Null;
    for (workload, wa) in a.get("workloads").unwrap_or(&empty).members() {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        if same_inputs && wb.is_some_and(|wb| wa.get("exact") != wb.get("exact")) {
            inexact.push(workload.clone());
        }
        for m in END_TO_END {
            let med = |w: &Json| w.get("end_to_end")?.get(m.name)?.get("median")?.as_f64();
            let Some(base) = med(wa) else {
                continue;
            };
            let new = wb.and_then(med).unwrap_or(f64::NAN);
            // Simulated time repeats exactly on the same inputs; across
            // seeds it gets the catalog's bound like any other metric.
            let bound = if m.simulated && same_inputs {
                SIM_SAME_SEED_TOLERANCE
            } else {
                m.bound
            };
            verdicts.push(Verdict {
                workload: workload.clone(),
                metric: m.name.to_string(),
                base,
                new,
                worse_by: if new.is_nan() {
                    f64::INFINITY
                } else {
                    worse_by(m.better, base, new)
                },
                bound,
            });
        }
    }
    (verdicts, inexact)
}

/// Whether a comparison is clean: nothing flagged, nothing inexact.
pub fn clean(verdicts: &[Verdict], inexact: &[String]) -> bool {
    inexact.is_empty() && !verdicts.iter().any(Verdict::flagged)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: prints every verdict; exit code 1 when any
/// metric of B is worse than A's by more than its bound or missing, or
/// when exact counters differ on the same seed and seconds.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn compare(a: &str, b: &str) -> Result<i32, String> {
    let (verdicts, inexact) = compare_docs(&load(a)?, &load(b)?);
    for v in &verdicts {
        println!(
            "{:<16} {:<14} {:>16.6} -> {:>16.6}  {:>+7.2} % worse (bound {:.2} %){}",
            v.workload,
            v.metric,
            v.base,
            v.new,
            v.worse_by * 100.0,
            v.bound * 100.0,
            match (v.flagged(), v.new.is_nan()) {
                (true, true) => "  MISSING",
                (true, false) => "  REGRESSION",
                _ => "",
            },
        );
    }
    for w in &inexact {
        println!("{w:<16} steps, digest, tallies or sim_s differ on the same seed  INEXACT");
    }
    let flagged = verdicts.iter().filter(|v| v.flagged()).count();
    println!("{flagged} of {} metrics flagged", verdicts.len());
    Ok(i32::from(!clean(&verdicts, &inexact)))
}

/// `selfcheck`: two sets of the same code, held against each other. Exit
/// code 1 when `compare` flags anything in either direction (exact
/// counters that differ included) or when a set has problems of its own.
///
/// # Errors
///
/// As [`run_set`].
pub fn selfcheck(seed: u64, ops_scale: f64, out: &Path) -> Result<i32, String> {
    let mut problems = run_set(seed, ops_scale, out, "selfcheck-a.json")?;
    problems.extend(run_set(seed, ops_scale, out, "selfcheck-b.json")?);
    let path = |f: &str| out.join(f).to_string_lossy().into_owned();
    let (a, b) = (path("selfcheck-a.json"), path("selfcheck-b.json"));
    println!("\nA -> B");
    let forward = compare(&a, &b)?;
    println!("\nB -> A");
    let backward = compare(&b, &a)?;
    let ok = problems.is_empty() && forward == 0 && backward == 0;
    println!("\nselfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(i32::from(!ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_of(seed: u64, metrics: &[(&str, f64)], digest: &str) -> Json {
        let metric = |v: f64| Json::obj([("median", Json::Num(v))]);
        Json::obj([
            ("host", Json::obj([("seed", Json::from(seed))])),
            ("seconds", Json::Num(10.0)),
            (
                "workloads",
                Json::obj([(
                    "corpus-flat",
                    Json::obj([
                        (
                            "end_to_end",
                            Json::obj(metrics.iter().map(|&(name, v)| (name, metric(v)))),
                        ),
                        ("exact", Json::obj([("digest", Json::str(digest))])),
                    ]),
                )]),
            ),
        ])
    }

    fn doc(seed: u64, steps_per_s: f64, p95: f64, sim_s: f64, digest: &str) -> Json {
        let metrics = [
            ("steps_per_s", steps_per_s),
            ("serve_p95_ms", p95),
            ("sim_s", sim_s),
        ];
        doc_of(seed, &metrics, digest)
    }

    fn verdict<'a>(vs: &'a [Verdict], metric: &str) -> &'a Verdict {
        vs.iter().find(|v| v.metric == metric).unwrap()
    }

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Higher, 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 8.0) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn bounds_flag_only_what_is_worse_by_more() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let base = doc(1, 1000.0, 1.0, 0.5, "aa");
        // Throughput down by just under / just over its bound.
        let ok = doc(
            1,
            1000.0 * (1.0 - bound("steps_per_s") + 0.01),
            1.0,
            0.5,
            "aa",
        );
        let bad = doc(
            1,
            1000.0 * (1.0 - bound("steps_per_s") - 0.01),
            1.0,
            0.5,
            "aa",
        );
        assert!(!verdict(&compare_docs(&base, &ok).0, "steps_per_s").flagged());
        assert!(verdict(&compare_docs(&base, &bad).0, "steps_per_s").flagged());
        // A big improvement is never flagged, in either direction.
        let better = doc(1, 5000.0, 0.1, 0.5, "aa");
        assert!(compare_docs(&base, &better).0.iter().all(|v| !v.flagged()));
        // Latency up by more than its bound.
        let slow = doc(1, 1000.0, 1.0 + bound("serve_p95_ms") + 0.01, 0.5, "aa");
        assert!(verdict(&compare_docs(&base, &slow).0, "serve_p95_ms").flagged());
    }

    #[test]
    fn simulated_time_is_exact_on_the_same_seed_only() {
        let base = doc(1, 1000.0, 1.0, 0.5, "aa");
        let drift = doc(1, 1000.0, 1.0, 0.5 * (1.0 + 1e-6), "aa");
        assert!(verdict(&compare_docs(&base, &drift).0, "sim_s").flagged());
        // Another seed is other inputs: the catalog's bound applies, and
        // differing digests are expected, not reported.
        let other = doc(2, 1000.0, 1.0, 0.5 * (1.0 + 1e-6), "bb");
        let (verdicts, inexact) = compare_docs(&base, &other);
        assert!(!verdict(&verdicts, "sim_s").flagged());
        assert!(inexact.is_empty());
        // The same seed with another digest is reported, and fails the
        // comparison although no metric moved.
        let (verdicts, inexact) = compare_docs(&base, &doc(1, 1000.0, 1.0, 0.5, "bb"));
        assert_eq!(inexact, ["corpus-flat"]);
        assert!(verdicts.iter().all(|v| !v.flagged()));
        assert!(!clean(&verdicts, &inexact));
        assert!(clean(&compare_docs(&base, &base).0, &[]));
    }

    #[test]
    fn a_dropped_workload_or_metric_is_flagged() {
        let base = doc(1, 1000.0, 1.0, 0.5, "aa");
        let empty = Json::obj([
            ("host", Json::obj([("seed", Json::from(1u64))])),
            ("seconds", Json::Num(10.0)),
            ("workloads", Json::Obj(Vec::new())),
        ]);
        let (verdicts, inexact) = compare_docs(&base, &empty);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| v.flagged() && v.new.is_nan()));
        assert!(!clean(&verdicts, &inexact));
        // The other way round nothing is held against anything.
        assert!(compare_docs(&empty, &base).0.is_empty());

        // One metric gone from an otherwise equal file.
        let partial = doc_of(1, &[("steps_per_s", 1000.0), ("serve_p95_ms", 1.0)], "aa");
        let (verdicts, _) = compare_docs(&base, &partial);
        assert!(verdict(&verdicts, "sim_s").flagged());
        assert!(!verdict(&verdicts, "steps_per_s").flagged());
    }
}
