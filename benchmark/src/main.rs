//! The FlexiWalker benchmark. See `README.md` beside this crate.
//!
//! ```text
//! flexi-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run
//! flexi-benchmark run [--seed <n>] [--ops-scale <f>] [--out <dir>]            every workload
//! flexi-benchmark compare <A.json> <B.json>                                  apply the bounds
//! flexi-benchmark selfcheck [--seed <n>] [--ops-scale <f>]                    run twice, compare
//! flexi-benchmark manifest                                                   print BENCHMARK.json
//! ```

mod catalog;
mod host;
mod json;
mod probes;
mod report;
mod runner;
mod stats;
mod suite;
mod trace;
mod validate;
mod workloads;

use std::path::PathBuf;

/// Flags shared by the subcommands.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    ops_scale: f64,
    trace: bool,
    out: PathBuf,
    positional: Vec<String>,
}

fn positive(flag: &str, text: String) -> Result<f64, String> {
    text.parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v > 0.0)
        .ok_or_else(|| format!("{flag} takes a positive number"))
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: report::DEFAULT_SEED,
        seconds: workloads::NOMINAL_SECONDS,
        ops_scale: 1.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => parsed.seconds = positive("--seconds", value("--seconds")?)?,
            "--ops-scale" => parsed.ops_scale = positive("--ops-scale", value("--ops-scale")?)?,
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&argv).and_then(dispatch) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("flexi-benchmark: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn dispatch(args: Args) -> Result<i32, String> {
    match args.positional.first().map(String::as_str) {
        None => {
            let workload = args
                .workload
                .clone()
                .ok_or("--workload <name> or a subcommand (run, compare, selfcheck) is needed")?;
            if args.ops_scale != 1.0 {
                return Err(
                    "--ops-scale belongs to run and selfcheck; a single run is sized by --seconds"
                        .into(),
                );
            }
            report::single(&runner::RunConfig {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                out: args.out,
            })
        }
        Some("run") => {
            let problems = suite::run_set(args.seed, args.ops_scale, &args.out, "results.json")?;
            Ok(i32::from(!problems.is_empty()))
        }
        Some("compare") => match args.positional.as_slice() {
            [_, a, b] => suite::compare(a, b),
            _ => Err("compare takes two result files".into()),
        },
        Some("selfcheck") => suite::selfcheck(args.seed, args.ops_scale, &args.out),
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            Ok(0)
        }
        Some(other) => Err(format!("unknown subcommand '{other}'")),
    }
}
