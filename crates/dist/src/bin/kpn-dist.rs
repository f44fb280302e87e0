//! Topology and distributed-algorithm workbench.
//!
//! ```text
//! kpn-dist gen --shape ring|path|grid|regular|bipartite [--n N] [--w W --h H]
//!              [--d D] [--seed S] [-o FILE.dot]
//! kpn-dist run --algo bmm|mvc3|gossip --dot FILE.dot [--rounds N]
//!              [--mode thread|pooled:W|sim:SEED] [--print-outputs]
//! kpn-dist export --dot FILE.dot --algo NAME --parts P [--rounds N] [-o PREFIX]
//! ```
//!
//! `gen` writes a topology as Graphviz DOT (stdout without `-o`). `run`
//! imports a DOT topology, executes the algorithm round-synchronously
//! under the chosen executor with lint at `Deny`, verifies the outputs
//! against the lockstep reference simulation and the algorithm's
//! validator, and prints a summary. `export` cuts the topology into `P`
//! partition plans, validates them with `kpn-lint`'s spec checker, and
//! writes one `kpn-codec`-encoded `GraphSpec` file per partition.

use kpn_core::{Error, ExecMode, Result, SchedulePolicy, SimScheduler};
use kpn_dist::algorithms::{check_cover, check_matching, Bmm, GossipMax, Mvc3};
use kpn_dist::graph::{self, DistGraph};
use kpn_dist::round::{effective_rounds, run, simulate, DistConfig, NodeAlgorithm};
use kpn_dist::spec::partition_specs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            return;
        }
        Some(other) => Err(Error::Graph(format!("unknown command `{other}`"))),
    };
    if let Err(e) = result {
        eprintln!("kpn-dist: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str = "usage:
  kpn-dist gen --shape ring|path|grid|regular|bipartite [--n N] [--w W --h H] [--d D] [--seed S] [-o FILE.dot]
  kpn-dist run --algo bmm|mvc3|gossip --dot FILE.dot [--rounds N] [--mode thread|pooled:W|sim:SEED] [--print-outputs]
  kpn-dist export --dot FILE.dot --algo NAME --parts P [--rounds N] [-o PREFIX]";

/// Tiny flag parser: `--key value` pairs plus bare flags.
struct Flags<'a> {
    args: &'a [String],
}

impl<'a> Flags<'a> {
    fn get(&self, key: &str) -> Option<&'a str> {
        self.args
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.args.iter().any(|a| a == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::Graph(format!("{key}: cannot parse `{v}`"))),
        }
    }

    fn required(&self, key: &str) -> Result<&'a str> {
        self.get(key)
            .ok_or_else(|| Error::Graph(format!("missing required flag {key}\n{USAGE}")))
    }
}

fn cmd_gen(args: &[String]) -> Result<()> {
    let f = Flags { args };
    let seed: u64 = f.num("--seed", 1)?;
    let g = match f.required("--shape")? {
        "ring" => graph::ring(f.num("--n", 8usize)?)?,
        "path" => graph::path(f.num("--n", 8usize)?)?,
        "grid" => graph::grid(f.num("--w", 4usize)?, f.num("--h", 4usize)?)?,
        "regular" => graph::random_regular(f.num("--n", 16usize)?, f.num("--d", 3usize)?, seed)?,
        "bipartite" => graph::random_bipartite_regular(
            f.num("--n", 16usize)?,
            f.num("--d", 3usize)?,
            seed,
        )?,
        other => return Err(Error::Graph(format!("unknown shape `{other}`"))),
    };
    let dot = g.to_dot();
    match f.get("-o") {
        Some(path) => {
            std::fs::write(path, &dot).map_err(Error::Io)?;
            eprintln!(
                "wrote {path}: {} ({} nodes, {} edges)",
                g.name(),
                g.n(),
                g.edges().len()
            );
        }
        None => print!("{dot}"),
    }
    Ok(())
}

fn parse_mode(spec: &str) -> Result<ExecMode> {
    if spec == "thread" {
        return Ok(ExecMode::Thread);
    }
    if let Some(w) = spec.strip_prefix("pooled:") {
        let workers = w
            .parse()
            .map_err(|_| Error::Graph(format!("--mode: bad worker count `{w}`")))?;
        return Ok(ExecMode::Pooled { workers });
    }
    if let Some(s) = spec.strip_prefix("sim:") {
        let seed = s
            .parse()
            .map_err(|_| Error::Graph(format!("--mode: bad sim seed `{s}`")))?;
        return Ok(ExecMode::Sim(SimScheduler::new(SchedulePolicy::RandomWalk {
            seed,
        })));
    }
    Err(Error::Graph(format!(
        "--mode: `{spec}` is not thread, pooled:W, or sim:SEED"
    )))
}

fn load_dot(f: &Flags) -> Result<DistGraph> {
    let path = f.required("--dot")?;
    let text = std::fs::read_to_string(path).map_err(Error::Io)?;
    DistGraph::from_dot(&text)
}

/// Runs `A`, cross-checks against the lockstep reference, and returns
/// `(outputs, rounds executed)`.
fn run_verified<A: NodeAlgorithm>(
    g: &DistGraph,
    inputs: &[u64],
    cfg: DistConfig,
) -> Result<(Vec<u64>, u64)> {
    let rounds = effective_rounds::<A>(g, cfg.max_rounds);
    let (out, _report) = run::<A>(g, inputs, cfg)?;
    let reference = simulate::<A>(g, inputs, rounds)?;
    if out != reference {
        return Err(Error::Graph(
            "network outputs diverged from the lockstep reference simulation".into(),
        ));
    }
    Ok((out, rounds))
}

fn cmd_run(args: &[String]) -> Result<()> {
    let f = Flags { args };
    let g = load_dot(&f)?;
    let max_rounds: u64 = f.num("--rounds", kpn_dist::DEFAULT_MAX_ROUNDS)?;
    if max_rounds == kpn_dist::DEFAULT_MAX_ROUNDS && f.get("--algo") == Some("gossip") {
        eprintln!(
            "note: gossip never halts on its own; bounding at --rounds {}",
            g.n()
        );
    }
    let cfg = || -> Result<DistConfig> {
        Ok(DistConfig {
            mode: match f.get("--mode") {
                Some(m) => parse_mode(m)?,
                None => ExecMode::default(),
            },
            max_rounds,
            ..DistConfig::default()
        })
    };
    let algo = f.required("--algo")?;
    let (outputs, rounds, summary) = match algo {
        "bmm" => {
            let colors = g.bipartition()?;
            let (out, rounds) = run_verified::<Bmm>(&g, &colors, cfg()?)?;
            let matched = check_matching(&g, &out)?;
            (out, rounds, format!("maximal matching of {matched} edges"))
        }
        "mvc3" => {
            let inputs = vec![0u64; g.n()];
            let (out, rounds) = run_verified::<Mvc3>(&g, &inputs, cfg()?)?;
            let size = check_cover(&g, &out)?;
            (out, rounds, format!("vertex cover of {size} nodes"))
        }
        "gossip" => {
            let inputs: Vec<u64> = (0..g.n() as u64).collect();
            let mut cfg = cfg()?;
            cfg.max_rounds = cfg.max_rounds.min(g.n() as u64);
            let rounds = cfg.max_rounds;
            let (out, _) = run_verified::<GossipMax>(&g, &inputs, cfg)?;
            let max = g.n() as u64 - 1;
            let reached = out.iter().filter(|&&o| o == max).count();
            (
                out,
                rounds,
                format!("max reached {reached}/{} nodes", g.n()),
            )
        }
        other => return Err(Error::Graph(format!("unknown algorithm `{other}`"))),
    };
    println!(
        "{}: {} nodes, {} edges, {rounds} rounds: {summary} (verified against reference)",
        g.name(),
        g.n(),
        g.edges().len()
    );
    if f.has("--print-outputs") {
        for (v, o) in outputs.iter().enumerate() {
            println!("{v}\t{o}");
        }
    }
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<()> {
    let f = Flags { args };
    let g = load_dot(&f)?;
    let algo = f.required("--algo")?;
    let parts: usize = f.num("--parts", 2)?;
    let max_rounds: u64 = f.num("--rounds", kpn_dist::DEFAULT_MAX_ROUNDS)?;
    let inputs = match algo {
        "bmm" => g.bipartition()?,
        _ => vec![0u64; g.n()],
    };
    let specs = partition_specs(&g, algo, parts, kpn_dist::MIN_CAPACITY, &inputs, max_rounds)?;
    let diags = kpn_lint::check_specs(&specs);
    if !diags.is_empty() {
        for d in &diags {
            eprintln!("{d}");
        }
        return Err(Error::Graph(format!(
            "partition plan failed spec lint with {} finding(s)",
            diags.len()
        )));
    }
    let prefix = f.get("-o").unwrap_or("dist");
    for (name, spec) in &specs {
        let path = format!("{prefix}.{name}.spec");
        let bytes = kpn_codec::to_bytes(spec)?;
        std::fs::write(&path, &bytes).map_err(Error::Io)?;
        println!(
            "{path}: {} processes, {} local channels, {} bytes (spec lint clean)",
            spec.processes.len(),
            spec.channels.len(),
            bytes.len()
        );
    }
    Ok(())
}
