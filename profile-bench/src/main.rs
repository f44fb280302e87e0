//! `kpn-bench`: the repo's one benchmark runner.
//!
//! ```text
//! kpn-bench profile [--quick] [--seed S] [--out F]   every workload, ladder, BENCH_profile.json
//! kpn-bench compare BASE.json NEW.json                verdict per (workload, metric); exit 1 on a regression
//! kpn-bench --workload W --seed N --seconds S --trace 0|1
//!                                                     one workload, one JSON line (BENCHMARK.json contract)
//! ```
//!
//! Every repetition runs in a fresh child process (`kpn-bench run-one …`),
//! so peak threads and RSS are per repetition and no state leaks from one
//! timing into the next. See `bench_results/profile/README.md`.

mod compare;
mod json;
mod ladder;
mod metrics;
mod probe;
mod procfs;
mod runner;
mod stats;
mod workloads;

use json::Value;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage:
  kpn-bench profile [--quick] [--seed S] [--out FILE]
  kpn-bench compare BASE.json NEW.json
  kpn-bench --workload NAME --seed N --seconds S --trace 0|1";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    /// Flags in `switches` take no value.
    fn parse(argv: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = if switches.contains(&name) {
                    String::new()
                } else {
                    it.next().ok_or(format!("--{name} takes a value"))?.clone()
                };
                args.flags.push((name.to_string(), value));
            } else {
                args.words.push(arg.clone());
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, got {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("profile") => Args::parse(&argv[1..], &["quick"]).and_then(|a| {
            runner::profile(
                a.has("quick"),
                a.num("seed", runner::DEFAULT_SEED)?,
                a.str("out").unwrap_or(runner::DEFAULT_OUT),
            )
        }),
        Some("compare") => match &argv[1..] {
            [base, new] => compare::run(base, new),
            _ => Err(USAGE.to_string()),
        },
        Some("run-one") => Args::parse(&argv[1..], &[]).and_then(|a| run_one(&a)),
        Some("ladder") => Args::parse(&argv[1..], &[]).and_then(|a| run_ladder(&a)),
        Some(flag) if flag.starts_with("--") => Args::parse(&argv, &[]).and_then(|a| {
            let workload = a.str("workload").ok_or(USAGE)?;
            runner::driver(
                workload,
                a.num("seed", runner::DEFAULT_SEED)?,
                a.num("seconds", 10)?,
                a.num("trace", 0)? != 0,
            )
        }),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("kpn-bench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Child: one repetition of one workload; the result is the last line of
/// stdout.
fn run_one(a: &Args) -> Result<ExitCode, String> {
    // First thing: how long the launch took (0 when not told when it began).
    let launch = match a.num("launched-us", 0)? {
        0 => Duration::ZERO,
        at => runner::unix_time().saturating_sub(Duration::from_micros(at)),
    };
    let name = a.words.first().ok_or("run-one takes a workload name")?;
    let spec = workloads::spec(name).ok_or(format!("unknown workload {name}"))?;
    let seed = a.num("seed", runner::DEFAULT_SEED)?;
    let trace = a.num("trace", 0)? != 0;
    let rep = workloads::run(spec, a.num("size", spec.size)?, seed, trace, launch);
    if let Some(path) = a.str("trace-out") {
        std::fs::write(path, rep.record.trace_json(name).pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", runner::rep_json(&rep).compact());
    Ok(ExitCode::SUCCESS)
}

/// Child: the whole ladder in one fresh process.
fn run_ladder(a: &Args) -> Result<ExitCode, String> {
    let mut timer = ladder::Timer {
        sample: Duration::from_millis(a.num("sample-ms", 250)?),
        samples: a.num("samples", 5)? as usize,
        rungs: Vec::new(),
    };
    ladder::run(&mut timer, a.num("seed", runner::DEFAULT_SEED)?);
    let mut rungs = Value::obj();
    for rung in &timer.rungs {
        rungs.set(&rung.name, rung.to_json());
    }
    println!("{}", rungs.compact());
    Ok(ExitCode::SUCCESS)
}
