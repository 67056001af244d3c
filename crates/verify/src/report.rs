//! Aggregate verification report: serialisation to `results/verify.json`
//! and the schema self-check `awp verify` runs on its own output before
//! declaring success (same discipline as the Chrome-trace validator in
//! the CLI: never emit an artifact you haven't parsed back).

use crate::accuracy::AccuracyCase;
use crate::convergence::ConvergenceResult;
use crate::fuzz::FuzzResult;
use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// Schema version stamped into every report; bump on breaking layout
/// changes so downstream parsers can refuse what they don't understand.
/// v2 dropped v1's `steal` section.
pub const SCHEMA_VERSION: u64 = 2;

/// The whole verification outcome.
#[derive(Debug, Clone, Serialize)]
pub struct VerifyReport {
    pub schema_version: u64,
    /// "smoke" or "full".
    pub mode: String,
    pub accuracy: Vec<AccuracyCase>,
    pub convergence: ConvergenceResult,
    pub fuzz: FuzzResult,
    /// Conjunction of every stream's gate.
    pub passed: bool,
}

impl VerifyReport {
    pub fn new(
        mode: &str,
        accuracy: Vec<AccuracyCase>,
        convergence: ConvergenceResult,
        fuzz: FuzzResult,
    ) -> Self {
        let passed = accuracy.iter().all(|c| c.passed) && convergence.passed && fuzz.passed;
        VerifyReport {
            schema_version: SCHEMA_VERSION,
            mode: mode.to_string(),
            accuracy,
            convergence,
            fuzz,
            passed,
        }
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Write to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")
    }
}

/// Validate a serialised report: parseable JSON, the right schema
/// version, every section present with the fields and types a consumer
/// relies on. Returns the number of accuracy cases checked.
pub fn validate_json(text: &str) -> Result<usize, String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("report is not valid JSON: {e}"))?;
    let schema = v["schema_version"].as_f64().ok_or("missing schema_version")?;
    if schema != SCHEMA_VERSION as f64 {
        return Err(format!("schema_version {schema} != {SCHEMA_VERSION}"));
    }
    let mode = v["mode"].as_str().ok_or("missing mode")?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("unknown mode {mode:?}"));
    }
    v["passed"].as_bool().ok_or("missing passed")?;

    let cases = v["accuracy"].as_array().ok_or("accuracy missing or not an array")?;
    if cases.is_empty() {
        return Err("accuracy has no cases".into());
    }
    for (i, c) in cases.iter().enumerate() {
        c["case"].as_str().ok_or(format!("accuracy[{i}]: missing case"))?;
        for key in ["worst_l2", "worst_envelope", "worst_shift_dt", "l2_tol", "env_tol"] {
            let x = c[key].as_f64().ok_or(format!("accuracy[{i}]: missing {key}"))?;
            if !x.is_finite() || x < 0.0 {
                return Err(format!("accuracy[{i}].{key} = {x} is not a finite misfit"));
            }
        }
        c["passed"].as_bool().ok_or(format!("accuracy[{i}]: missing passed"))?;
        let recs = c["receivers"].as_array().ok_or(format!("accuracy[{i}]: missing receivers"))?;
        if recs.is_empty() {
            return Err(format!("accuracy[{i}]: no receivers"));
        }
    }

    let conv = &v["convergence"];
    conv["observed_order"].as_f64().ok_or("convergence: missing observed_order")?;
    conv["passed"].as_bool().ok_or("convergence: missing passed")?;
    let levels = conv["levels"].as_array().ok_or("convergence: missing levels")?;
    if levels.len() < 2 {
        return Err("convergence: fewer than two levels".into());
    }
    for (i, l) in levels.iter().enumerate() {
        for key in ["h", "dt", "error"] {
            let x = l[key].as_f64().ok_or(format!("levels[{i}]: missing {key}"))?;
            // NaN must fail too, so compare via partial_cmp rather than `>`.
            if x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("levels[{i}].{key} = {x} must be positive"));
            }
        }
    }

    let fuzz = &v["fuzz"];
    fuzz["passed"].as_bool().ok_or("fuzz: missing passed")?;
    let runs = fuzz["runs"].as_f64().ok_or("fuzz: missing runs")?;
    if runs < 1.0 {
        return Err("fuzz: no replays executed".into());
    }
    let fp = fuzz["baseline_fingerprint"].as_str().ok_or("fuzz: missing fingerprint")?;
    if fp.len() != 16 || !fp.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!("fuzz: malformed fingerprint {fp:?}"));
    }
    fuzz["mismatched_seeds"].as_array().ok_or("fuzz: missing mismatched_seeds")?;

    Ok(cases.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{AccuracyCase, ComponentScore, ReceiverScore};
    use crate::convergence::{ConvergenceResult, LevelResult};
    use crate::fuzz::FuzzResult;

    fn sample_report(passed: bool) -> VerifyReport {
        let case = AccuracyCase {
            case: "explosion".into(),
            n: 48,
            h: 100.0,
            dt: 3.96e-3,
            steps: 90,
            rise_time: 0.26,
            worst_l2: 0.03,
            worst_envelope: 0.02,
            worst_shift_dt: 0.4,
            l2_tol: 0.12,
            env_tol: 0.12,
            shift_tol_dt: 1.5,
            passed,
            receivers: vec![ReceiverScore {
                station: "r0".into(),
                offset: [8, 0, 0],
                distance_m: 800.0,
                components: vec![ComponentScore {
                    component: "vx".into(),
                    l2: 0.03,
                    envelope: 0.02,
                    shift_dt: 0.4,
                    nodal: false,
                }],
            }],
        };
        let convergence = ConvergenceResult {
            levels: vec![
                LevelResult { n: 32, h: 100.0, dt: 4e-3, steps: 60, error: 0.09 },
                LevelResult { n: 64, h: 50.0, dt: 2e-3, steps: 120, error: 0.02 },
            ],
            observed_order: 2.17,
            order_lo: 2.0,
            order_hi: 4.5,
            passed: true,
        };
        let fuzz = FuzzResult {
            ranks: 8,
            steps: 24,
            runs: 16,
            base_seed: 1,
            mismatched_seeds: vec![],
            baseline_fingerprint: "0123456789abcdef".into(),
            passed: true,
        };
        VerifyReport::new("smoke", vec![case], convergence, fuzz)
    }

    #[test]
    fn roundtrip_validates() {
        let r = sample_report(true);
        assert!(r.passed);
        assert_eq!(validate_json(&r.to_json()), Ok(1));
    }

    #[test]
    fn overall_pass_is_a_conjunction() {
        let r = sample_report(false);
        assert!(!r.passed, "one failing accuracy case fails the report");
        // Still schema-valid: failure is a result, not a malformed artifact.
        assert_eq!(validate_json(&r.to_json()), Ok(1));
    }

    #[test]
    fn validator_rejects_broken_reports() {
        assert!(validate_json("not json").is_err());
        assert!(validate_json("{}").unwrap_err().contains("schema_version"));
        let mut r = sample_report(true);
        r.fuzz.baseline_fingerprint = "xyz".into();
        assert!(validate_json(&r.to_json()).unwrap_err().contains("fingerprint"));
        let mut r2 = sample_report(true);
        r2.convergence.levels.pop();
        assert!(validate_json(&r2.to_json()).unwrap_err().contains("two levels"));
        let mut r3 = sample_report(true);
        r3.accuracy.clear();
        assert!(validate_json(&r3.to_json()).unwrap_err().contains("no cases"));
    }

    #[test]
    fn write_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("awp_verify_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("verify.json");
        sample_report(true).write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_json(&text), Ok(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
