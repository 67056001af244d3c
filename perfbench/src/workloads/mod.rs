//! The six reference workloads. Names are fixed; later issues cite them.

pub mod ensemble;
pub mod serve;
pub mod solver;
pub mod workflow;

use crate::run::{run, RunArgs, RunOutput};
use awp_pario::md5::Md5;
use awp_solver::stations::Seismogram;

/// Feed one seismogram's three traces into `h` — the unit of every
/// "identical across reps / backends / decompositions" check.
fn hash_seismogram(h: &mut Md5, s: &Seismogram) {
    for v in s.vx.iter().chain(&s.vy).chain(&s.vz) {
        h.update(&v.to_le_bytes());
    }
}

/// Run the workload `args.workload` names; `None` for an unknown name.
pub fn dispatch(args: &RunArgs) -> Option<RunOutput> {
    Some(match args.workload.as_str() {
        "loh1-serial" | "loh1-mpml" | "basin-lts" => run::<solver::SolverWorkload>(args),
        "shakeout-workflow" => run::<workflow::WorkflowWorkload>(args),
        "catalog-ensemble" => run::<ensemble::EnsembleWorkload>(args),
        "serve-mix" => run::<serve::ServeWorkload>(args),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn keys(v: &Value) -> Vec<String> {
        match v {
            Value::Object(m) => m.keys().cloned().collect(),
            other => panic!("expected an object, got {other}"),
        }
    }

    /// Every workload at smoke size, untraced and traced: the run is
    /// correct, and its contract line carries exactly the keys, metric
    /// names and units `BENCHMARK.json` lists — every end-to-end metric
    /// non-zero.
    #[test]
    fn smoke_runs_emit_exactly_what_benchmark_json_lists() {
        let doc: Value = serde_json::from_str(include_str!("../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let workloads = doc["workloads"].as_array().expect("workloads");
        assert_eq!(workloads.len(), 6);
        for w in workloads {
            let workload = w["name"].as_str().expect("name").to_string();
            for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = RunArgs {
                    workload: workload.clone(),
                    seed: 5,
                    seconds: 0.3,
                    trace,
                    trace_out: None,
                    smoke: true,
                };
                let out = dispatch(&args).expect("a workload BENCHMARK.json names must dispatch");
                let r = &out.result;
                assert_eq!(keys(r), ["attempted", "correct", "failed", "metrics"], "{workload}");
                assert_eq!(r["correct"].as_bool(), Some(true), "{workload} trace {trace}");
                assert_eq!(r["failed"].as_f64(), Some(0.0), "{workload} trace {trace}");
                assert!(r["attempted"].as_f64() >= Some(1.0));
                let mut want: Vec<(String, String)> = doc[table]
                    .as_array()
                    .expect(table)
                    .iter()
                    .map(|m| {
                        (m["name"].as_str().unwrap().into(), m["unit"].as_str().unwrap().into())
                    })
                    .collect();
                want.sort();
                let got: Vec<(String, String)> = keys(&r["metrics"])
                    .into_iter()
                    .map(|name| {
                        let m = &r["metrics"][name.as_str()];
                        assert_eq!(keys(m), ["unit", "value"], "{workload} {name}");
                        let v = m["value"].as_f64().expect("numeric value");
                        assert!(v.is_finite(), "{workload} {name}");
                        assert!(
                            trace || v > 0.0,
                            "{workload} {name}: end-to-end metrics are never 0"
                        );
                        (name, m["unit"].as_str().expect("unit").to_string())
                    })
                    .collect();
                assert_eq!(got, want, "{workload} {table}");
                assert_eq!(out.detail["fingerprint"]["seed"].as_f64(), Some(5.0));
            }
        }
    }
}
