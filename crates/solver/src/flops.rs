//! Floating-point operation accounting.
//!
//! The paper reports sustained Tflop/s via PAPI hardware counters
//! (§V.B); we count analytically from the kernel expressions instead.
//! Counts below are per interior grid point per time step, tallied from
//! `kernels.rs` (one multiply-or-add = 1 flop).

/// Velocity update: per component the D4 bracket costs 5 flops per
/// direction (2 mul + 3 add/sub) × 3 directions + 2 combining adds = 17,
/// plus `dth * r * (…)` (2 mul) and the accumulate (1 add) = 20; three
/// components → 60.
pub const VELOCITY_FLOPS: u64 = 60;

/// Stress update: strain rates exx/eyy/ezz 3×5 = 15 + trace 2; normal
/// components (λ·tr + 2μ·e)·dth and accumulate = 6 each → 18; shear
/// components: 2-direction bracket 11 + 2 mul + 1 add = 14 each → 42.
/// Total 77.
pub const STRESS_FLOPS: u64 = 77;

/// Memory-variable update per stress component: `a·ζ + (1−a)·c·(Δ/dt)`
/// (5) plus `Δ − dt·ζ` (2) ≈ 7;×6 components = 42.
pub const ATTEN_FLOPS: u64 = 42;

/// M-PML correction per *zone* cell per step (`pml.rs`), on top of
/// [`per_point`]. Velocity pass: 9 D4 brackets × 5, 9 ψ updates
/// `b·ψ + a·D` × 3, and per component `dth·r·(px + py + pz)` with its
/// accumulate (5) × 3 — 87 in all. Stress pass: 9 brackets × 5, 9 ψ
/// updates × 3, `2μ` (1), the trace (2), normal components
/// `dth·(λ·tr + 2μ·p)` with accumulate (5) × 3 and shear components
/// `dth·μ·(p1 + p2)` with accumulate (4) × 3 — 102 in all.
pub const MPML_FLOPS: u64 = 87 + 102;

/// Flops per interior point per full time step.
pub const fn per_point(attenuation: bool) -> u64 {
    VELOCITY_FLOPS + STRESS_FLOPS + if attenuation { ATTEN_FLOPS } else { 0 }
}

/// Simple accumulator a solver carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlopCounter {
    pub total: u64,
}

impl FlopCounter {
    pub fn add_step(&mut self, points: usize, attenuation: bool) {
        self.total += points as u64 * per_point(attenuation);
    }

    /// The M-PML correction of one step over `zone_cells` cells.
    pub fn add_mpml(&mut self, zone_cells: usize) {
        self.total += zone_cells as u64 * MPML_FLOPS;
    }

    /// Sustained flop rate over `seconds` of wall time.
    pub fn rate(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            self.total as f64 / seconds
        }
    }
}

/// The Eq. (8) per-point work constant `C` — total flops per point per
/// step including boundary work; elastic + anelastic matches the paper's
/// implied C ≈ 165 on Jaguar (see `awp-perfmodel`).
pub const EQ8_C: f64 = per_point(true) as f64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_point_counts() {
        assert_eq!(per_point(false), 137);
        assert_eq!(per_point(true), 179);
    }

    #[test]
    fn counter_accumulates() {
        let mut c = FlopCounter::default();
        c.add_step(1000, false);
        c.add_step(1000, true);
        assert_eq!(c.total, 1000 * 137 + 1000 * 179);
        assert!(c.rate(2.0) > 0.0);
        assert_eq!(c.rate(0.0), 0.0);
    }

    #[test]
    fn mpml_census_on_known_grid() {
        // 40³, width 10: the zone is everything outside the 20 × 20 × 30
        // clear core (x/y lo+hi layers, z bottom layer only).
        let zone = 40 * 40 * 40 - 20 * 20 * 30;
        let mut c = FlopCounter::default();
        c.add_step(40 * 40 * 40, false);
        c.add_mpml(zone);
        assert_eq!(MPML_FLOPS, 189);
        assert_eq!(c.total, 64_000 * 137 + 52_000 * 189);
    }

    #[test]
    fn eq8_constant_near_paper_value() {
        // The paper's Jaguar timings imply C ≈ 165 flops/point/step; our
        // kernels land in the same regime (within ~15%).
        assert!((EQ8_C - 165.0).abs() / 165.0 < 0.15, "C = {EQ8_C}");
    }
}
