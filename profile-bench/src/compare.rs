//! `kpn-bench compare BASE.json NEW.json`: one row per (workload,
//! end-to-end metric) with both medians, quartiles, the ratio with its base
//! and a verdict; exit code 1 when any row regressed.

use crate::json::{self, Value};
use crate::stats::{judge, Better, Summary, Verdict};
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("workloads").is_none() {
        return Err(format!(
            "{path}: not a kpn-bench profile (no \"workloads\")"
        ));
    }
    Ok(doc)
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Summary,
    pub new: Summary,
    pub verdict: Verdict,
}

/// Rows for every metric the two profiles share; direction and bound are
/// the base profile's (the bound a change is held to is fixed before it).
pub fn rows(base: &Value, new: &Value) -> Vec<Row> {
    let mut rows = Vec::new();
    for (workload, b) in base.get("workloads").map(Value::fields).unwrap_or_default() {
        let Some(n) = new.get("workloads").and_then(|w| w.get(workload)) else {
            continue;
        };
        for (metric, bm) in b.get("end_to_end").map(Value::fields).unwrap_or_default() {
            let Some(nm) = n.get("end_to_end").and_then(|e| e.get(metric)) else {
                continue;
            };
            let (bs, ns) = (Summary::from_json(bm), Summary::from_json(nm));
            let better = Better::parse(bm.get("better").and_then(Value::as_str).unwrap_or("lower"));
            let verdict = judge(&bs, &ns, better, bm.num("bound", 0.10));
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                base: bs,
                new: ns,
                verdict,
            });
        }
    }
    rows
}

pub fn run(base_path: &str, new_path: &str) -> Result<ExitCode, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let describe = |doc: &Value| {
        let m = doc.get("machine").cloned().unwrap_or_else(Value::obj);
        format!(
            "commit {} seed {} nproc {}",
            m.get("commit").and_then(Value::as_str).unwrap_or("unknown"),
            doc.num("seed", f64::NAN),
            m.num("nproc", f64::NAN)
        )
    };
    println!("base: {base_path} ({})", describe(&base));
    println!("new:  {new_path} ({})", describe(&new));
    println!(
        "{:<22} {:<14} {:>13} {:>25} {:>13} {:>25} {:>8}  verdict",
        "workload", "metric", "base median", "[q1 .. q3]", "new median", "[q1 .. q3]", "new/base"
    );
    let rows = rows(&base, &new);
    for r in &rows {
        let range = |s: &Summary| format!("[{:.4} .. {:.4}]", s.q1, s.q3);
        println!(
            "{:<22} {:<14} {:>13.4} {:>25} {:>13.4} {:>25} {:>8.3}  {}",
            r.workload,
            r.metric,
            r.base.median,
            range(&r.base),
            r.new.median,
            range(&r.new),
            r.new.median / r.base.median,
            r.verdict.as_str()
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} unresolved, {} regressed",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(if count(Verdict::Regressed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(items_per_s: &[f64], failed_share: &[f64]) -> Value {
        let metric = |samples: &[f64], better: &str, bound: f64| {
            let mut v = Summary::of(samples).to_json();
            v.set("better", better);
            v.set("bound", bound);
            v
        };
        Value::obj().with(
            "workloads",
            Value::obj().with(
                "relay_local",
                Value::obj().with(
                    "end_to_end",
                    Value::obj()
                        .with("items_per_s", metric(items_per_s, "higher", 0.10))
                        .with("failed_share", metric(failed_share, "lower", 0.0)),
                ),
            ),
        )
    }

    #[test]
    fn rows_carry_the_base_profiles_direction_and_bound() {
        let base = profile(&[100.0, 101.0, 99.0, 100.0, 100.5], &[0.0; 5]);
        let same = profile(&[98.0, 100.0, 99.5, 101.0, 100.0], &[0.0; 5]);
        let slow = profile(&[80.0, 81.0, 79.0, 80.0, 80.5], &[0.0; 5]);
        let broken = profile(
            &[100.0, 101.0, 99.0, 100.0, 100.5],
            &[0.0, 0.0, 0.0, 0.0, 0.5],
        );
        let verdicts =
            |new: &Value| -> Vec<Verdict> { rows(&base, new).iter().map(|r| r.verdict).collect() };
        assert_eq!(verdicts(&same), [Verdict::Ok, Verdict::Ok]);
        assert_eq!(verdicts(&slow), [Verdict::Regressed, Verdict::Ok]);
        assert_eq!(verdicts(&broken), [Verdict::Ok, Verdict::Regressed]);
        // Through the file format and back.
        let reread = json::parse(&base.pretty()).unwrap();
        assert_eq!(rows(&reread, &slow)[0].verdict, Verdict::Regressed);
    }
}
