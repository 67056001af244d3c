//! Optimal checkpoint-interval model (Young 1974, Daly 2006).
//!
//! At petascale the machine fails faster than a hero run finishes: the
//! M8 production run rode through node losses on checkpoint/restart, and
//! the choice of checkpoint cadence is a first-order term in
//! time-to-solution. With per-checkpoint cost δ (seconds to quiesce,
//! flush the aggregation buffers and write every rank's epoch file) and
//! system MTBF M, Young's first-order optimum is
//!
//! ```text
//! τ_opt ≈ sqrt(2 δ M)
//! ```
//!
//! and Daly's higher-order refinement (valid for δ < 2M) is
//!
//! ```text
//! τ_opt = sqrt(2 δ M) · [1 + ⅓·sqrt(δ/(2M)) + (1/9)·(δ/(2M))] − δ
//! ```
//!
//! Daly's full expected-completion model, with restart cost R and solve
//! (failure-free) time T_s, treats failures as Poisson with rate 1/M:
//!
//! ```text
//! T_wall = M · e^{R/M} · (e^{(τ+δ)/M} − 1) · T_s / τ
//! ```
//!
//! The `awp` CLI's chaos harness and the `CheckpointStore` epoch cadence
//! take their intervals from this model; `awp repro S7C` sweeps it.

use serde::Serialize;

/// Inputs to the checkpoint-interval model.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ResilienceInput {
    /// Seconds to write one full checkpoint epoch (all ranks), δ.
    pub ckpt_cost: f64,
    /// Seconds to restart from an epoch (teardown + read + rewind), R.
    pub restart_cost: f64,
    /// System mean time between failures (seconds), M.
    pub mtbf: f64,
    /// Failure-free solve time (seconds), T_s.
    pub solve_time: f64,
}

/// Young's first-order optimal interval τ ≈ sqrt(2 δ M).
pub fn young_interval(ckpt_cost: f64, mtbf: f64) -> f64 {
    assert!(ckpt_cost > 0.0 && mtbf > 0.0);
    (2.0 * ckpt_cost * mtbf).sqrt()
}

/// Daly's higher-order optimal interval; collapses to `mtbf` when the
/// checkpoint is so expensive (δ ≥ 2M) that the series diverges.
pub fn daly_interval(ckpt_cost: f64, mtbf: f64) -> f64 {
    assert!(ckpt_cost > 0.0 && mtbf > 0.0);
    if ckpt_cost >= 2.0 * mtbf {
        return mtbf;
    }
    let x = ckpt_cost / (2.0 * mtbf);
    young_interval(ckpt_cost, mtbf) * (1.0 + x.sqrt() / 3.0 + x / 9.0) - ckpt_cost
}

/// First-order overhead fraction of checkpointing at interval τ:
/// δ/τ (time spent writing) + τ/(2M) (expected rework after a failure).
pub fn overhead_fraction(interval: f64, ckpt_cost: f64, mtbf: f64) -> f64 {
    assert!(interval > 0.0);
    ckpt_cost / interval + interval / (2.0 * mtbf)
}

/// Daly's expected wall-clock completion time at interval τ.
pub fn expected_wall_clock(inp: &ResilienceInput, interval: f64) -> f64 {
    assert!(interval > 0.0);
    let m = inp.mtbf;
    m * (inp.restart_cost / m).exp()
        * (((interval + inp.ckpt_cost) / m).exp() - 1.0)
        * inp.solve_time
        / interval
}

/// One row of the interval sweep.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    pub interval: f64,
    pub overhead: f64,
    pub wall_clock: f64,
}

/// Sweep τ geometrically over `[lo, hi]` (inclusive, `n ≥ 2` points).
pub fn sweep(inp: &ResilienceInput, lo: f64, hi: f64, n: usize) -> Vec<SweepPoint> {
    assert!(n >= 2 && lo > 0.0 && hi > lo);
    let ratio = (hi / lo).powf(1.0 / (n - 1) as f64);
    (0..n)
        .map(|i| {
            let interval = lo * ratio.powi(i as i32);
            SweepPoint {
                interval,
                overhead: overhead_fraction(interval, inp.ckpt_cost, inp.mtbf),
                wall_clock: expected_wall_clock(inp, interval),
            }
        })
        .collect()
}

/// Convert an interval in seconds to a solver-step cadence (≥ 1).
pub fn interval_to_steps(interval: f64, step_seconds: f64) -> usize {
    assert!(step_seconds > 0.0);
    ((interval / step_seconds).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m8ish() -> ResilienceInput {
        // M8-scale ballpark: 5-minute epoch write, 10-minute restart,
        // 12-hour MTBF, 24-hour solve.
        ResilienceInput {
            ckpt_cost: 300.0,
            restart_cost: 600.0,
            mtbf: 12.0 * 3600.0,
            solve_time: 24.0 * 3600.0,
        }
    }

    #[test]
    fn young_matches_closed_form() {
        assert!((young_interval(300.0, 43_200.0) - (2.0f64 * 300.0 * 43_200.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn daly_approaches_young_for_cheap_checkpoints() {
        // δ ≪ M ⇒ the higher-order terms vanish.
        let (c, m) = (1.0, 1.0e6);
        let y = young_interval(c, m);
        let d = daly_interval(c, m);
        assert!((d - y).abs() / y < 0.01, "daly {d} vs young {y}");
    }

    #[test]
    fn daly_clamps_to_mtbf_when_checkpoint_dominates() {
        assert_eq!(daly_interval(100.0, 40.0), 40.0);
    }

    #[test]
    fn young_minimises_first_order_overhead() {
        let (c, m) = (300.0, 43_200.0);
        let opt = young_interval(c, m);
        let at = |t: f64| overhead_fraction(t, c, m);
        assert!(at(opt) < at(opt * 0.5));
        assert!(at(opt) < at(opt * 2.0));
        // Exact stationary point of δ/τ + τ/(2M).
        let eps = opt * 1e-4;
        assert!(at(opt) <= at(opt - eps) && at(opt) <= at(opt + eps));
    }

    #[test]
    fn daly_interval_near_wall_clock_minimum() {
        let inp = m8ish();
        let opt = daly_interval(inp.ckpt_cost, inp.mtbf);
        let at = |t: f64| expected_wall_clock(&inp, t);
        // The full model's minimum sits at Daly's τ within a few percent:
        // both neighbours 2× away are strictly worse, and a fine local
        // scan finds no point better than 0.1% below it.
        assert!(at(opt) < at(opt / 2.0) && at(opt) < at(opt * 2.0));
        let best_nearby = (1..200)
            .map(|i| at(opt * (0.5 + i as f64 / 100.0)))
            .fold(f64::INFINITY, f64::min);
        assert!(at(opt) < best_nearby * 1.001);
    }

    #[test]
    fn wall_clock_exceeds_solve_time_and_degrades_with_mtbf() {
        let inp = m8ish();
        let t = daly_interval(inp.ckpt_cost, inp.mtbf);
        let base = expected_wall_clock(&inp, t);
        assert!(base > inp.solve_time);
        let flaky = ResilienceInput { mtbf: inp.mtbf / 4.0, ..inp };
        let t2 = daly_interval(flaky.ckpt_cost, flaky.mtbf);
        assert!(expected_wall_clock(&flaky, t2) > base, "worse MTBF must cost more");
    }

    #[test]
    fn sweep_is_geometric_and_brackets_minimum() {
        let inp = m8ish();
        let pts = sweep(&inp, 60.0, 86_400.0, 25);
        assert_eq!(pts.len(), 25);
        assert!((pts[0].interval - 60.0).abs() < 1e-6);
        assert!((pts[24].interval - 86_400.0).abs() < 1e-3);
        // Overhead is U-shaped: endpoints are worse than the interior min.
        let min = pts.iter().map(|p| p.overhead).fold(f64::INFINITY, f64::min);
        assert!(pts[0].overhead > min && pts[24].overhead > min);
    }

    #[test]
    fn interval_to_steps_rounds_and_floors_at_one() {
        assert_eq!(interval_to_steps(10.0, 3.0), 3);
        assert_eq!(interval_to_steps(0.01, 3.0), 1);
    }
}
