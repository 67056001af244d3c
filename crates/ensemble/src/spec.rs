//! Canonical scenario identity.
//!
//! A [`ScenarioSpec`] is the *name* of a simulation: every physical knob
//! that changes the output, and nothing that doesn't. Its canonical byte
//! form (sorted `key=value` lines, floats as IEEE-754 bit patterns) feeds
//! MD5 to produce the content address under which results are stored.
//!
//! Canonicalization rules (pinned by `tests/ensemble.rs`):
//! - fields are emitted as `key=value\n` lines sorted by key — field order
//!   in any JSON encoding or construction path is irrelevant;
//! - `f64` values are emitted as the 16-hex-digit big-endian bit pattern
//!   of the value, with `-0.0` normalised to `0.0`; NaN is rejected at
//!   construction (a NaN knob has no meaningful identity);
//! - integers and booleans are emitted in decimal / `true|false`;
//! - the first line is a versioned magic (`awp-scenario v2`), so a
//!   canonicalization change cannot silently collide with older hashes
//!   (v2 dropped v1's `sched` line: the tile scheduler was bit-exact, so
//!   it never named a different output).

use awp_odc::scenario::{Scenario, SourceSpec};
use awp_pario::Md5;
use serde_json::Value;

/// Everything that identifies one ensemble member. All-`pub` on purpose:
/// the hash covers every field, so there is no invariant to protect
/// beyond finiteness (checked in [`canonical`](Self::canonical)).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario family: `shakeout-k`, `terashake-k`, or `w2w` (the
    /// kinematic catalogue entries — ensemble members perturb a kinematic
    /// source; dynamic-rupture members would carry their own seed field).
    pub family: String,
    /// Cells along the box length (sets h and the whole grid).
    pub nx: usize,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Moment magnitude of the event.
    pub mw: f64,
    /// Hypocentre position along the fault trace, as a fraction of its
    /// length in `[0, 1]`.
    pub hypo_frac: f64,
    /// Rupture speed (m/s).
    pub vr: f64,
    /// Rise time (s).
    pub rise_time: f64,
    /// Seed of the stochastic CVM perturbation (0 + amp 0.0 = unperturbed).
    pub cvm_seed: u64,
    /// CVM perturbation amplitude in `[0, 1)`.
    pub cvm_amp: f64,
    /// Run the solve with clustered local time stepping.
    pub lts: bool,
}

/// Canonical text form of one f64: the hex bit pattern, `-0.0` folded
/// into `0.0`. Errors on non-finite input.
fn canon_f64(key: &str, x: f64) -> Result<String, String> {
    if !x.is_finite() {
        return Err(format!("spec field {key} = {x} is not finite"));
    }
    let x = if x == 0.0 { 0.0 } else { x }; // -0.0 == 0.0 → normalised
    Ok(format!("{:016x}", x.to_bits()))
}

impl ScenarioSpec {
    /// A spec with the family's catalogue defaults (the same numbers the
    /// `awp run` CLI uses), ready for field-wise perturbation.
    pub fn new(family: &str, nx: usize) -> Result<Self, String> {
        let sc = base_scenario(family, nx)?;
        let (mw, vr, rise_time) = match sc.source {
            SourceSpec::Kinematic { mw, vr, rise_time, .. } => (mw, vr, rise_time),
            SourceSpec::Dynamic { .. } => {
                unreachable!("base families are kinematic")
            }
        };
        Ok(Self {
            family: family.to_string(),
            nx,
            duration_s: sc.duration,
            mw,
            hypo_frac: 0.9,
            vr,
            rise_time,
            cvm_seed: 0,
            cvm_amp: 0.0,
            lts: false,
        })
    }

    /// The canonical byte form: versioned magic + sorted `key=value`
    /// lines. Two specs are the same scenario iff these bytes are equal.
    pub fn canonical(&self) -> Result<String, String> {
        let mut fields: Vec<(&str, String)> = vec![
            ("family", self.family.clone()),
            ("nx", self.nx.to_string()),
            ("duration_s", canon_f64("duration_s", self.duration_s)?),
            ("mw", canon_f64("mw", self.mw)?),
            ("hypo_frac", canon_f64("hypo_frac", self.hypo_frac)?),
            ("vr", canon_f64("vr", self.vr)?),
            ("rise_time", canon_f64("rise_time", self.rise_time)?),
            ("cvm_seed", self.cvm_seed.to_string()),
            ("cvm_amp", canon_f64("cvm_amp", self.cvm_amp)?),
            ("lts", self.lts.to_string()),
        ];
        fields.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = String::from("awp-scenario v2\n");
        for (k, v) in fields {
            out.push_str(k);
            out.push('=');
            out.push_str(&v);
            out.push('\n');
        }
        Ok(out)
    }

    /// The content address: MD5 of the canonical bytes.
    pub fn hash(&self) -> Result<String, String> {
        Ok(Md5::digest_hex(self.canonical()?.as_bytes()))
    }

    /// The mesh-sharing key: the subset of the identity the CVM build
    /// depends on. Two specs with equal mesh keys may share one
    /// `Arc<Mesh>`; everything else (source, duration, solver opts) is
    /// per-event.
    pub fn mesh_key(&self) -> Result<String, String> {
        Ok(format!(
            "family={};nx={};cvm_seed={};cvm_amp={}",
            self.family,
            self.nx,
            self.cvm_seed,
            canon_f64("cvm_amp", self.cvm_amp)?
        ))
    }

    /// Materialise the [`Scenario`] this spec names (the mesh is built
    /// separately so it can be shared — see
    /// [`Scenario::prepare_with_mesh`]).
    pub fn to_scenario(&self) -> Result<Scenario, String> {
        if !(0.0..=1.0).contains(&self.hypo_frac) {
            return Err(format!("hypo_frac {} outside [0, 1]", self.hypo_frac));
        }
        let mut sc = base_scenario(&self.family, self.nx)?
            .with_duration(self.duration_s)
            .with_hypo_frac(self.hypo_frac);
        let direction = match sc.source {
            SourceSpec::Kinematic { direction, .. } => direction,
            SourceSpec::Dynamic { .. } => unreachable!("base families are kinematic"),
        };
        sc.source = SourceSpec::Kinematic {
            mw: self.mw,
            direction,
            vr: self.vr,
            rise_time: self.rise_time,
        };
        Ok(sc)
    }

    /// JSON object form (for job files and the serve protocol). Field
    /// order is irrelevant to identity — the canonical form sorts.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "family": self.family.as_str(),
            "nx": self.nx,
            "duration_s": self.duration_s,
            "mw": self.mw,
            "hypo_frac": self.hypo_frac,
            "vr": self.vr,
            "rise_time": self.rise_time,
            "cvm_seed": self.cvm_seed,
            "cvm_amp": self.cvm_amp,
            "lts": self.lts
        })
    }

    /// Parse a spec from a JSON object. Missing physical fields fall back
    /// to the family defaults (so a serve client may send just
    /// `{"family":"shakeout-k","nx":16,"mw":7.5}`), which keeps the wire
    /// format forward-extensible without making identity ambiguous — the
    /// *parsed* spec is always fully populated before hashing.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let family = v["family"].as_str().ok_or("spec: missing family")?;
        let nx = v["nx"].as_f64().ok_or("spec: missing nx")? as usize;
        let mut spec = Self::new(family, nx)?;
        if let Some(x) = v["duration_s"].as_f64() {
            spec.duration_s = x;
        }
        if let Some(x) = v["mw"].as_f64() {
            spec.mw = x;
        }
        if let Some(x) = v["hypo_frac"].as_f64() {
            spec.hypo_frac = x;
        }
        if let Some(x) = v["vr"].as_f64() {
            spec.vr = x;
        }
        if let Some(x) = v["rise_time"].as_f64() {
            spec.rise_time = x;
        }
        if let Some(x) = v["cvm_seed"].as_f64() {
            spec.cvm_seed = x as u64;
        }
        if let Some(x) = v["cvm_amp"].as_f64() {
            spec.cvm_amp = x;
        }
        if let Some(b) = v["lts"].as_bool() {
            spec.lts = b;
        }
        Ok(spec)
    }
}

/// The kinematic catalogue families an ensemble can perturb.
fn base_scenario(family: &str, nx: usize) -> Result<Scenario, String> {
    use awp_odc::scenario::RuptureDirection;
    Ok(match family {
        "shakeout-k" => Scenario::shakeout_k(nx, 0.3),
        "terashake-k" => Scenario::terashake_k(nx, RuptureDirection::SeToNw),
        "w2w" => Scenario::wall_to_wall(nx),
        other => return Err(format!("unknown scenario family '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_is_sorted_and_versioned() {
        let spec = ScenarioSpec::new("shakeout-k", 16).unwrap();
        let c = spec.canonical().unwrap();
        assert!(c.starts_with("awp-scenario v2\n"));
        let keys: Vec<&str> =
            c.lines().skip(1).map(|l| l.split('=').next().unwrap()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "canonical keys must be sorted");
        assert_eq!(keys.len(), 10, "one line per identity field");
    }

    #[test]
    fn negative_zero_and_nan_are_canonicalized() {
        let mut a = ScenarioSpec::new("shakeout-k", 16).unwrap();
        let mut b = a.clone();
        a.cvm_amp = 0.0;
        b.cvm_amp = -0.0;
        assert_eq!(a.hash().unwrap(), b.hash().unwrap(), "-0.0 folds into 0.0");
        a.mw = f64::NAN;
        assert!(a.hash().is_err(), "NaN has no identity");
    }

    #[test]
    fn json_round_trip_preserves_identity() {
        let mut spec = ScenarioSpec::new("terashake-k", 20).unwrap();
        spec.mw = 7.31;
        spec.hypo_frac = 0.123456789012345;
        spec.cvm_seed = 424242;
        spec.cvm_amp = 0.05;
        spec.lts = true;
        let text = spec.to_json().to_string();
        let back =
            ScenarioSpec::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.hash().unwrap(), back.hash().unwrap());
    }

    #[test]
    fn to_scenario_applies_overrides() {
        let mut spec = ScenarioSpec::new("shakeout-k", 16).unwrap();
        spec.mw = 7.2;
        spec.duration_s = 33.0;
        spec.hypo_frac = 0.4;
        let sc = spec.to_scenario().unwrap();
        assert_eq!(sc.duration, 33.0);
        assert_eq!(sc.hypo_frac, Some(0.4));
        match sc.source {
            SourceSpec::Kinematic { mw, .. } => assert_eq!(mw, 7.2),
            _ => panic!("kinematic family"),
        }
        assert!(spec.to_scenario().is_ok());
        assert!(ScenarioSpec::new("no-such-family", 16).is_err());
    }
}
