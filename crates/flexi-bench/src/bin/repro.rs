//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--full] [--quick] [--shrink N] [--queries N] [--json DIR]
//! repro all [--full]
//! repro list
//! ```
//!
//! With `--json DIR`, every experiment additionally writes a
//! machine-readable `DIR/BENCH_<experiment>.json` artifact: the tables as
//! structured rows plus a simulated kernel-time / sampler-tally summary
//! probe — the format CI uploads. Artifacts read the simulated clock only.

use flexi_bench::experiments::{run_experiment, ALL_IDS};
use flexi_bench::json::Json;
use flexi_bench::{Profile, RunSummary, Table};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    let mut profile = Profile::quick();
    let mut ids: Vec<String> = Vec::new();
    let mut json_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => profile = Profile::full(),
            "--quick" => profile = Profile::quick(),
            "--shrink" => {
                i += 1;
                profile.shrink = parse_num(&args, i, "--shrink");
            }
            "--queries" => {
                i += 1;
                profile.query_budget = parse_num(&args, i, "--queries");
            }
            "--steps" => {
                i += 1;
                profile.steps = parse_num(&args, i, "--steps");
            }
            "--json" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => json_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--json requires a directory argument");
                        std::process::exit(2);
                    }
                }
            }
            "list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                print_usage();
                std::process::exit(2);
            }
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    ids.dedup();
    println!(
        "# FlexiWalker reproduction (shrink {}, {} queries, {} steps, {} host threads)\n",
        profile.shrink, profile.query_budget, profile.steps, profile.host_threads
    );
    // Validate ids up front: the summary probe below is a real walk run,
    // too expensive to spend on a typo.
    if let Some(bad) = ids.iter().find(|id| !ALL_IDS.contains(&id.as_str())) {
        eprintln!("unknown experiment {bad:?}; `repro list` shows valid ids");
        std::process::exit(2);
    }
    // One summary probe shared by every artifact of this invocation.
    let summary = json_dir.as_ref().map(|dir| {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --json directory {}: {e}", dir.display());
            std::process::exit(2);
        }
        RunSummary::probe(&profile)
    });
    for id in &ids {
        let start = Instant::now();
        match run_experiment(id, &profile) {
            Some(tables) => {
                for t in &tables {
                    println!("{}", t.render());
                }
                let wall = start.elapsed().as_secs_f64();
                println!("({id} regenerated in {wall:.1}s wall time)\n");
                if let (Some(dir), Some(summary)) = (&json_dir, &summary) {
                    write_artifact(dir, id, &profile, summary, &tables);
                }
            }
            None => {
                eprintln!("unknown experiment {id:?}; `repro list` shows valid ids");
                std::process::exit(2);
            }
        }
    }
}

/// Writes `DIR/BENCH_<id>.json` for one regenerated experiment.
fn write_artifact(dir: &Path, id: &str, profile: &Profile, summary: &RunSummary, tables: &[Table]) {
    let doc = Json::obj([
        ("experiment", Json::from(id)),
        (
            "profile",
            Json::obj([
                ("shrink", Json::from(u64::from(profile.shrink))),
                ("query_budget", Json::from(profile.query_budget)),
                ("steps", Json::from(profile.steps)),
                ("host_threads", Json::from(profile.host_threads)),
                ("seed", Json::from(profile.seed)),
            ]),
        ),
        ("summary", summary.to_json()),
        ("tables", Json::arr(tables.iter().map(Table::to_json))),
    ]);
    let path = dir.join(format!("BENCH_{id}.json"));
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("(artifact written to {})\n", path.display());
}

fn parse_num<T: std::str::FromStr>(args: &[String], i: usize, flag: &str) -> T {
    args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a numeric argument");
        std::process::exit(2);
    })
}

fn print_usage() {
    eprintln!(
        "usage: repro <experiment>... [--full|--quick] [--shrink N] [--queries N] [--steps N] \
         [--json DIR]\n\
         experiments: {} | all | list",
        ALL_IDS.join(" | ")
    );
}
