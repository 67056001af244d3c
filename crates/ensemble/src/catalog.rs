//! Seeded catalog generation — the statistical event-sequence layer.
//!
//! Shape follows the kes model (SNIPPETS.md snippet 3): each fault
//! segment accumulates moment deficit under tectonic loading; event
//! nucleation sites are drawn from a maximum-entropy (softmax) spatial
//! distribution over that deficit; event sizes follow a truncated
//! Gutenberg–Richter law; the event *rate* scales with the total
//! outstanding deficit (moment balance); and mainshocks above a
//! productivity threshold spawn Omori-law aftershock trains
//! (`rate ∝ K/(t+c)^p`). Everything is driven by one splitmix64 stream,
//! so a `(config, seed)` pair names exactly one catalog, forever.

use crate::spec::ScenarioSpec;

/// Catalog generation knobs. `Clone` so a cold-store replay can rebuild
/// the identical event list from the identical config.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    pub seed: u64,
    /// Total events to emit (mainshocks + aftershocks).
    pub events: usize,
    /// Scenario family every event belongs to.
    pub family: String,
    pub nx: usize,
    pub duration_s: f64,
    /// Truncated Gutenberg–Richter band and b-value.
    pub mw_min: f64,
    pub mw_max: f64,
    pub b_value: f64,
    /// Along-fault moment-deficit bins (nucleation resolution).
    pub segments: usize,
    /// MaxEnt inverse temperature: 0 = uniform nucleation, larger =
    /// sharper preference for the most moment-starved segment.
    pub maxent_beta: f64,
    /// Mainshocks at or above this magnitude spawn aftershock trains.
    pub aftershock_min_mw: f64,
    /// Omori parameters: productivity, corner time (years), decay power.
    pub omori_k: f64,
    pub omori_c: f64,
    pub omori_p: f64,
    /// CVM realisations cycled across mainshock sequences. Keep values
    /// < 2^53: they travel through JSON numbers.
    pub cvm_seeds: Vec<u64>,
    pub cvm_amp: f64,
    pub lts: bool,
}

impl CatalogConfig {
    /// A small, fully specified catalog for tests and the serve smoke.
    pub fn demo(seed: u64, events: usize, nx: usize, duration_s: f64) -> Self {
        Self {
            seed,
            events,
            family: "shakeout-k".into(),
            nx,
            duration_s,
            mw_min: 6.6,
            mw_max: 7.9,
            b_value: 1.0,
            segments: 8,
            maxent_beta: 2.0,
            aftershock_min_mw: 7.4,
            omori_k: 2.0,
            omori_c: 0.02,
            omori_p: 1.2,
            cvm_seeds: vec![11, 23],
            cvm_amp: 0.04,
            lts: false,
        }
    }

    /// Parse the serve-protocol catalog request body (unknown keys are
    /// ignored; everything defaults from [`demo`](Self::demo)).
    pub fn from_value(v: &serde_json::Value) -> Result<Self, String> {
        let seed = v["seed"].as_f64().ok_or("catalog: missing seed")? as u64;
        let events = v["events"].as_f64().ok_or("catalog: missing events")? as usize;
        let nx = v["nx"].as_f64().unwrap_or(16.0) as usize;
        let duration_s = v["duration_s"].as_f64().unwrap_or(20.0);
        let mut cfg = Self::demo(seed, events, nx, duration_s);
        if let Some(f) = v["family"].as_str() {
            cfg.family = f.to_string();
        }
        if let Some(x) = v["mw_min"].as_f64() {
            cfg.mw_min = x;
        }
        if let Some(x) = v["mw_max"].as_f64() {
            cfg.mw_max = x;
        }
        if let Some(x) = v["cvm_amp"].as_f64() {
            cfg.cvm_amp = x;
        }
        if let Some(b) = v["lts"].as_bool() {
            cfg.lts = b;
        }
        Ok(cfg)
    }
}

/// How an event entered the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Mainshock,
    /// Omori child of the mainshock at this catalog index.
    Aftershock { parent: usize },
}

/// One catalog entry: when, why, and the full scenario identity.
#[derive(Debug, Clone)]
pub struct CatalogEvent {
    pub idx: usize,
    /// Occurrence time in catalog years since t = 0.
    pub t_years: f64,
    pub kind: EventKind,
    pub spec: ScenarioSpec,
}

/// Stateless splitmix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Seismic moment (N·m) of a magnitude (Hanks–Kanamori).
fn moment(mw: f64) -> f64 {
    10f64.powf(1.5 * mw + 9.05)
}

/// Truncated Gutenberg–Richter inverse CDF draw.
fn gr_magnitude(state: &mut u64, mw_min: f64, mw_max: f64, b: f64) -> f64 {
    let u = unit(state);
    let span = 1.0 - 10f64.powf(-b * (mw_max - mw_min));
    mw_min - (1.0 - u * span).log10() / b
}

/// Generate the catalog for `cfg`. Pure function of the config (including
/// its seed): identical inputs produce identical event lists, which is
/// what makes cold-store replays reproduce identical content hashes.
pub fn generate_catalog(cfg: &CatalogConfig) -> Result<Vec<CatalogEvent>, String> {
    if cfg.events == 0 {
        return Ok(Vec::new());
    }
    if cfg.cvm_seeds.is_empty() {
        return Err("catalog: cvm_seeds must not be empty".into());
    }
    if cfg.mw_min >= cfg.mw_max {
        return Err(format!("catalog: mw band [{}, {}] empty", cfg.mw_min, cfg.mw_max));
    }
    let mut rng = cfg.seed ^ 0xA7_CA_7A_10; // domain-separate from other users
    let nseg = cfg.segments.max(1);
    // Moment deficit per segment, in units of one characteristic event's
    // moment. Seeded non-uniformly so the first MaxEnt draw is already
    // spatially structured.
    let m_char = moment(0.5 * (cfg.mw_min + cfg.mw_max));
    let mut deficit: Vec<f64> = (0..nseg).map(|_| 0.5 + unit(&mut rng)).collect();
    // Tectonic loading refills deficit at one characteristic event per
    // segment per century.
    let loading_per_year = 0.01;

    let mut events: Vec<CatalogEvent> = Vec::with_capacity(cfg.events);
    // Pending aftershocks: (t_years, mw, hypo_frac, parent idx).
    let mut pending: Vec<(f64, f64, f64, usize)> = Vec::new();
    let mut t_years = 0.0f64;
    let mut mainshocks = 0usize;

    while events.len() < cfg.events {
        // Moment-balance rate: the more outstanding deficit, the sooner
        // the next mainshock (deterministic exponential draw).
        let total_deficit: f64 = deficit.iter().sum();
        let rate_per_year = 0.05 * (1.0 + total_deficit); // events / year
        let dt_years = -(1.0 - unit(&mut rng)).ln() / rate_per_year;
        let t_main = t_years + dt_years;

        // Any queued aftershock due before the next mainshock goes first.
        pending.sort_by(|a, b| a.0.total_cmp(&b.0));
        while events.len() < cfg.events {
            match pending.first() {
                Some(&(t_a, mw_a, hf_a, parent)) if t_a <= t_main => {
                    pending.remove(0);
                    let idx = events.len();
                    events.push(make_event(cfg, idx, t_a, EventKind::Aftershock { parent }, mw_a, hf_a, mainshocks)?);
                }
                _ => break,
            }
        }
        if events.len() >= cfg.events {
            break;
        }

        // Load deficit over the elapsed interval, then nucleate.
        for d in deficit.iter_mut() {
            *d += loading_per_year * dt_years;
        }
        t_years = t_main;
        let mw = gr_magnitude(&mut rng, cfg.mw_min, cfg.mw_max, cfg.b_value);
        // MaxEnt nucleation: softmax over per-segment deficit.
        let max_d = deficit.iter().cloned().fold(f64::MIN, f64::max);
        let weights: Vec<f64> =
            deficit.iter().map(|d| (cfg.maxent_beta * (d - max_d)).exp()).collect();
        let wsum: f64 = weights.iter().sum();
        let mut pick = unit(&mut rng) * wsum;
        let mut seg = nseg - 1;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                seg = i;
                break;
            }
            pick -= w;
        }
        let hypo_frac = (seg as f64 + unit(&mut rng)) / nseg as f64;
        // Moment release drains the nucleation segment (and bleeds into
        // neighbours), floored at zero.
        let release = moment(mw) / m_char;
        deficit[seg] = (deficit[seg] - release).max(0.0);
        for n in [seg.wrapping_sub(1), seg + 1] {
            if n < nseg {
                deficit[n] = (deficit[n] - 0.25 * release).max(0.0);
            }
        }
        let idx = events.len();
        events.push(make_event(cfg, idx, t_years, EventKind::Mainshock, mw, hypo_frac, mainshocks)?);
        mainshocks += 1;

        // Omori train: productivity grows with magnitude above threshold.
        if mw >= cfg.aftershock_min_mw {
            let n_aft =
                (cfg.omori_k * 10f64.powf(mw - cfg.aftershock_min_mw)).round() as usize;
            for _ in 0..n_aft.min(16) {
                // Inverse-CDF Omori delay: t = c((1-u)^(1/(1-p)) - 1).
                let u = unit(&mut rng);
                let dt_a = cfg.omori_c * ((1.0 - u).powf(1.0 / (1.0 - cfg.omori_p)) - 1.0);
                let mw_a = gr_magnitude(
                    &mut rng,
                    cfg.mw_min,
                    (mw - 0.4).max(cfg.mw_min + 0.1),
                    cfg.b_value,
                );
                // Aftershocks cluster near the mainshock rupture.
                let hf_a = (hypo_frac + 0.15 * (unit(&mut rng) - 0.5)).clamp(0.0, 1.0);
                pending.push((t_years + dt_a, mw_a, hf_a, idx));
            }
        }
    }
    Ok(events)
}

/// Bind the statistical draw into a full scenario identity.
fn make_event(
    cfg: &CatalogConfig,
    idx: usize,
    t_years: f64,
    kind: EventKind,
    mw: f64,
    hypo_frac: f64,
    sequence: usize,
) -> Result<CatalogEvent, String> {
    let mut spec = ScenarioSpec::new(&cfg.family, cfg.nx)?;
    spec.duration_s = cfg.duration_s;
    spec.mw = mw;
    spec.hypo_frac = hypo_frac;
    // One CVM realisation per mainshock sequence: a mainshock and its
    // aftershocks see the same earth, successive sequences cycle through
    // the configured realisations — so mesh reuse amortises within a
    // sequence and the catalog still samples CVM variability across it.
    let seq = match kind {
        EventKind::Mainshock => sequence,
        EventKind::Aftershock { .. } => sequence.saturating_sub(1),
    };
    spec.cvm_seed = cfg.cvm_seeds[seq % cfg.cvm_seeds.len()];
    spec.cvm_amp = cfg.cvm_amp;
    spec.lts = cfg.lts;
    Ok(CatalogEvent { idx, t_years, kind, spec })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogs_are_deterministic_in_the_seed() {
        let cfg = CatalogConfig::demo(77, 12, 16, 20.0);
        let a = generate_catalog(&cfg).unwrap();
        let b = generate_catalog(&cfg).unwrap();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec, "event {} differs across runs", x.idx);
            assert_eq!(x.t_years, y.t_years);
        }
        let c = generate_catalog(&CatalogConfig::demo(78, 12, 16, 20.0)).unwrap();
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.spec != y.spec),
            "different seeds must produce different catalogs"
        );
    }

    #[test]
    fn catalog_respects_physical_bounds_and_ordering() {
        let cfg = CatalogConfig::demo(5, 24, 16, 20.0);
        let events = generate_catalog(&cfg).unwrap();
        let mut t_prev = 0.0;
        for e in &events {
            assert!(e.spec.mw >= cfg.mw_min && e.spec.mw <= cfg.mw_max, "mw {}", e.spec.mw);
            assert!((0.0..=1.0).contains(&e.spec.hypo_frac));
            assert!(e.t_years >= t_prev, "catalog must be time-ordered");
            t_prev = e.t_years;
            if let EventKind::Aftershock { parent } = e.kind {
                assert!(parent < e.idx, "aftershock parent precedes child");
                assert!(matches!(events[parent].kind, EventKind::Mainshock));
            }
        }
        // The demo band crosses the aftershock threshold, so a 24-event
        // catalog should contain both kinds.
        assert!(events.iter().any(|e| matches!(e.kind, EventKind::Mainshock)));
    }

    #[test]
    fn events_have_distinct_identities() {
        let events = generate_catalog(&CatalogConfig::demo(2468, 8, 16, 20.0)).unwrap();
        let mut hashes: Vec<String> =
            events.iter().map(|e| e.spec.hash().unwrap()).collect();
        hashes.sort();
        hashes.dedup();
        assert_eq!(hashes.len(), 8, "continuous mw/hypo draws must not collide");
    }
}
