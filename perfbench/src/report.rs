//! `perfbench set` — every workload, untraced then traced, each in a child
//! process, every metric printed by name with its unit — and
//! `perfbench compare A B`, which applies each end-to-end metric's
//! direction and bound to two set documents.

use crate::host;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

pub struct SetArgs {
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
}

/// `values[workload][metric]` — one value per run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Run one child; returns its contract line (the last line of stdout).
fn child(args: &SetArgs, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(dir)) = (trace, &args.trace_out) {
        cmd.arg("--trace-out").arg(dir);
    }
    // stderr is inherited: failed checks show up as they happen.
    let out =
        cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", trace as u8, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or_else(|| format!("{workload}: no output"))?;
    serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn summary(def: &MetricDef, values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values);
    json!({
        "unit": def.unit,
        "better": def.better.as_str(),
        "bound": def.bound.map_or(Value::Null, Value::from),
        "values": Value::from(values),
        "median": median(values),
        "q1": q1,
        "q3": q3
    })
}

pub fn set(args: &SetArgs) -> Result<(), String> {
    let mut samples: Samples = BTreeMap::new();
    let (mut attempted, mut failed) = (BTreeMap::new(), BTreeMap::new());
    for run in 0..args.runs {
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                eprintln!(
                    "perfbench: run {}/{} {workload} --trace {}",
                    run + 1,
                    args.runs,
                    trace as u8
                );
                let line = child(args, workload, trace)?;
                *attempted.entry(workload).or_insert(0.0) +=
                    line["attempted"].as_f64().unwrap_or(0.0);
                *failed.entry(workload).or_insert(0.0) += line["failed"].as_f64().unwrap_or(0.0);
                let table: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
                for def in table {
                    let v = line["metrics"][def.name]["value"]
                        .as_f64()
                        .ok_or_else(|| format!("{workload}: metric {} missing", def.name))?;
                    samples
                        .entry(workload.to_string())
                        .or_default()
                        .entry(def.name.to_string())
                        .or_default()
                        .push(v);
                }
            }
        }
    }

    // Every metric by name with its unit, one column per workload.
    println!("{:<38} {:>8}  {}", "metric (median of runs)", "unit", workloads_header());
    for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let cells: Vec<String> = WORKLOADS
            .iter()
            .map(|(w, _)| format!("{:>17.6}", median(&samples[*w][def.name])))
            .collect();
        println!("{:<38} {:>8}  {}", def.name, def.unit, cells.join(" "));
    }
    let cells: Vec<String> = WORKLOADS
        .iter()
        .map(|(w, _)| format!("{:>17.6}", failed[w] / attempted[w].max(1.0)))
        .collect();
    println!("{:<38} {:>8}  {}", "failed_frac", "ratio", cells.join(" "));

    let mut doc_workloads = BTreeMap::new();
    for (workload, why) in WORKLOADS {
        let mut groups = BTreeMap::new();
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let metrics: BTreeMap<String, Value> = table
                .iter()
                .map(|def| (def.name.to_string(), summary(def, &samples[workload][def.name])))
                .collect();
            groups.insert(key.to_string(), Value::Object(metrics));
        }
        groups.insert("why".into(), Value::from(why));
        groups.insert("attempted".into(), Value::from(attempted[workload]));
        groups.insert("failed".into(), Value::from(failed[workload]));
        doc_workloads.insert(workload.to_string(), Value::Object(groups));
    }
    let doc = json!({
        "kind": "perfbench-set",
        "v": 1,
        "runs": args.runs,
        "smoke": args.smoke,
        "fingerprint": host::fingerprint(args.seed, args.seconds),
        "workloads": Value::Object(doc_workloads)
    });
    if let Some(path) = &args.out {
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }

    // Same commit, same seed, different process launches: the runs must
    // agree on every end-to-end metric within that metric's bound.
    let mut problems = Vec::new();
    for (workload, _) in WORKLOADS {
        if failed[workload] > 0.0 {
            problems.push(format!("{workload}: {} operations or checks failed", failed[workload]));
        }
        for def in &END_TO_END {
            let v = &samples[workload][def.name];
            let (lo, hi) =
                v.iter().fold((f64::INFINITY, 0.0f64), |(l, h), x| (l.min(*x), h.max(*x)));
            let bound = def.bound.unwrap_or(0.0);
            if v.len() > 1 && hi - lo > bound * lo {
                problems.push(format!(
                    "{workload} {}: runs span {lo:.6}..{hi:.6} {}, more than the {bound} bound",
                    def.name, def.unit
                ));
            }
        }
    }
    if problems.is_empty() {
        eprintln!(
            "perfbench: {} run(s) clean; end-to-end metrics agree within their bounds",
            args.runs
        );
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn workloads_header() -> String {
    WORKLOADS.iter().map(|(w, _)| format!("{w:>17}")).collect::<Vec<_>>().join(" ")
}

/// Verdict on one end-to-end metric of one workload.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Within,
    Improved,
    Regressed,
    /// A set's own quartile spread exceeds the bound: the medians cannot
    /// resolve a change of the size the bound allows.
    Unresolved,
}

/// Apply `def`'s direction and bound to baseline values `a` and candidate
/// values `b`. Returns the verdict and the worsening as a share of the
/// baseline median (positive = worse).
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma.abs().max(f64::MIN_POSITIVE),
        Better::Higher => (ma - mb) / ma.abs().max(f64::MIN_POSITIVE),
    };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (verdict, worse)
}

fn values(doc: &Value, workload: &str, group: &str, metric: &str) -> Vec<f64> {
    doc["workloads"][workload][group][metric]["values"]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))?;
        if doc["kind"].as_str() != Some("perfbench-set") {
            return Err(format!("{p}: not a perfbench-set document"));
        }
        Ok(doc)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["cpu_model", "nproc", "rustc"] {
        if a["fingerprint"][key] != b["fingerprint"][key] {
            eprintln!(
                "perfbench: WARNING: {key} differs ({} vs {}); the sets are not comparable",
                a["fingerprint"][key].compact(),
                b["fingerprint"][key].compact()
            );
        }
    }
    let mut regressed = 0;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse", "bound"
    );
    for (workload, _) in WORKLOADS {
        for def in &END_TO_END {
            let (va, vb) = (
                values(&a, workload, "end_to_end", def.name),
                values(&b, workload, "end_to_end", def.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload} {}: missing from one of the sets", def.name));
            }
            let (verdict, worse) = judge(def, &va, &vb);
            regressed += (verdict == Verdict::Regressed) as u32;
            println!(
                "{workload:<18} {:<12} {:>14.6} {:>14.6} {:>+8.1}% {:>6}  {verdict:?}",
                def.name,
                median(&va),
                median(&vb),
                worse * 100.0,
                def.bound.unwrap_or(0.0)
            );
        }
        let failed = |doc: &Value| doc["workloads"][workload]["failed"].as_f64().unwrap_or(0.0);
        if failed(&b) > failed(&a) {
            regressed += 1;
            println!(
                "{workload:<18} failed       {:>14} {:>14}  more failures than the baseline: Regressed",
                failed(&a),
                failed(&b)
            );
        }
    }
    // Per-layer metrics carry no bound: show where the medians moved.
    println!("\nper-layer medians that moved by more than 5% (no bound applies):");
    for (workload, _) in WORKLOADS {
        for def in &PER_LAYER {
            let (ma, mb) = (
                median(&values(&a, workload, "per_layer", def.name)),
                median(&values(&b, workload, "per_layer", def.name)),
            );
            if ma != 0.0 && ((mb - ma) / ma).abs() > 0.05 {
                println!(
                    "{workload:<18} {:<36} {ma:>14.6} -> {mb:>14.6} {} ({:+.1}%)",
                    def.name,
                    def.unit,
                    (mb - ma) / ma * 100.0
                );
            }
        }
    }
    if regressed > 0 {
        Err(format!("{regressed} end-to-end regression(s) beyond the bound"))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let wall = &MetricDef { name: "t", unit: "s", better: Better::Lower, bound: Some(0.10) };
        // Lower is better: +20% is a regression, -20% an improvement.
        assert_eq!(judge(wall, &[1.0, 1.01], &[1.2, 1.21]).0, Verdict::Regressed);
        assert_eq!(judge(wall, &[1.0, 1.01], &[0.8, 0.81]).0, Verdict::Improved);
        assert_eq!(judge(wall, &[1.0, 1.01], &[1.05, 1.06]).0, Verdict::Within);
        // A set whose own quartiles are wider than the bound resolves nothing.
        assert_eq!(judge(wall, &[1.0, 1.5], &[1.2, 1.21]).0, Verdict::Unresolved);
        // Higher is better flips the sign.
        let up = MetricDef { better: Better::Higher, ..*wall };
        assert_eq!(judge(&up, &[10.0, 10.1], &[8.0, 8.1]).0, Verdict::Regressed);
        let (v, worse) = judge(&up, &[10.0, 10.1], &[12.0, 12.1]);
        assert_eq!(v, Verdict::Improved);
        assert!(worse < -0.19 && worse > -0.21, "{worse}");
    }
}
