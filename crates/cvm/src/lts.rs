//! Depth-keyed dt-cluster construction for local time stepping.
//!
//! The solver's global step is bound by the *worldwide* Vp maximum, so in
//! velocity structures with strong depth contrast (soft basins over hard
//! basement) most of the column is stepped far below its local CFL limit.
//! This module partitions the depth axis into **rate-2ᵏ clusters**: maximal
//! z-slabs whose local CFL bound admits a step of `rate × dt`, with rates
//! constrained to powers of two and adjacent slabs to a 2× ratio so the
//! solver's cluster schedule only ever couples clusters one octave apart.
//!
//! Clustering is along depth only: the CVM's velocity contrast is
//! depth-dominated (layering, basins), the per-plane Vp profile reduces
//! across x/y-partitioned ranks by elementwise max, and z-slabs keep every
//! cluster interface a pair of horizontal planes — cheap to snapshot and
//! time-interpolate.
//!
//! All adjustments are **conservative**: a plane's assigned rate only ever
//! decreases below its CFL-derived bound, never above, so every cluster
//! step `rate × dt` is stable wherever it is applied.

use crate::mesh::Mesh;

/// One dt-cluster: the depth planes `[k0, k1)` stepped at `rate × dt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSpec {
    pub k0: usize,
    pub k1: usize,
    /// Power-of-two step multiplier (1 = the global dt).
    pub rate: u32,
}

impl ClusterSpec {
    pub fn planes(&self) -> usize {
        self.k1 - self.k0
    }
}

/// Per-plane rate bound: the largest power of two `r ≤ 2^max_rate_log2`
/// with `r × dt` within plane k's own CFL limit `6h/(7√3 · vp_max(k))`.
pub fn rate_profile(vp_max_per_k: &[f64], h: f64, dt: f64, max_rate_log2: u32) -> Vec<u32> {
    let cap = 1u32 << max_rate_log2.min(16);
    vp_max_per_k
        .iter()
        .map(|&vp| {
            let dt_cfl = 6.0 * h / (7.0 * 3.0f64.sqrt() * vp.max(1e-9));
            let mut r = 1u32;
            while r < cap && f64::from(r * 2) * dt <= dt_cfl {
                r *= 2;
            }
            r
        })
        .collect()
}

/// Turn a per-plane rate profile into a cluster partition:
///
/// 1. normalise so the finest rate is 1 (a uniformly coarse profile means
///    the *caller's* dt is conservative; rates are relative, and rate 1
///    must mean "steps every global tick" so a single cluster degenerates
///    to the plain scheme);
/// 2. relax to a 2× adjacent ratio by lowering rates;
/// 3. widen slabs thinner than `min_slab` planes by borrowing planes from a
///    coarser neighbour (lowering their rate), or — when no coarser
///    neighbour exists — absorbing the slab into its finest neighbour;
/// 4. merge equal-rate neighbours.
///
/// The result: consecutive clusters differ by **exactly** 2×, every
/// cluster is at least `min_slab` planes thick (unless the whole column is
/// one cluster), and no plane's rate exceeds its profile bound.
pub fn clusters_from_profile(rates: &[u32], min_slab: usize) -> Vec<ClusterSpec> {
    assert!(!rates.is_empty(), "empty rate profile");
    let min_slab = min_slab.max(1);
    let m = *rates.iter().min().unwrap();
    let mut r: Vec<u32> = rates.iter().map(|&x| (x / m).max(1)).collect();
    // 2× adjacent-ratio relaxation (pure lowering; fixed point exists
    // because rates only decrease and are bounded below by 1).
    loop {
        let mut changed = false;
        for k in 0..r.len() {
            let mut cap = r[k];
            if k > 0 {
                cap = cap.min(2 * r[k - 1]);
            }
            if k + 1 < r.len() {
                cap = cap.min(2 * r[k + 1]);
            }
            if cap < r[k] {
                r[k] = cap;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Runs of equal rate → slabs.
    let mut slabs: Vec<ClusterSpec> = Vec::new();
    for (k, &rate) in r.iter().enumerate() {
        match slabs.last_mut() {
            Some(s) if s.rate == rate => s.k1 = k + 1,
            _ => slabs.push(ClusterSpec { k0: k, k1: k + 1, rate }),
        }
    }
    // Thickness/ratio repair loop. Every action lowers some plane's rate
    // or shrinks the slab count, so the loop terminates; `fuel` guards
    // against a logic regression turning that into a hang.
    let mut fuel = 4 * rates.len().max(16);
    loop {
        fuel -= 1;
        assert!(fuel > 0, "cluster repair did not converge");
        // Merge equal neighbours first.
        let mut merged: Vec<ClusterSpec> = Vec::new();
        for s in &slabs {
            match merged.last_mut() {
                Some(p) if p.rate == s.rate => p.k1 = s.k1,
                _ => merged.push(*s),
            }
        }
        slabs = merged;
        if slabs.len() <= 1 {
            break;
        }
        // Enforce the 2× ratio (can be re-broken by an absorb below).
        if let Some(i) = (0..slabs.len() - 1)
            .find(|&i| slabs[i].rate.max(slabs[i + 1].rate) > 2 * slabs[i].rate.min(slabs[i + 1].rate))
        {
            let lo = slabs[i].rate.min(slabs[i + 1].rate);
            let hi = if slabs[i].rate > slabs[i + 1].rate { i } else { i + 1 };
            slabs[hi].rate = 2 * lo;
            continue;
        }
        // Widen or absorb a thin slab.
        if let Some(i) = (0..slabs.len()).find(|&i| slabs[i].planes() < min_slab) {
            let above = i.checked_sub(1).map(|p| slabs[p].rate);
            let below = slabs.get(i + 1).map(|n| n.rate);
            let coarser_above = above.is_some_and(|r| r > slabs[i].rate);
            let coarser_below = below.is_some_and(|r| r > slabs[i].rate);
            if coarser_above || coarser_below {
                // Borrow one plane from the coarser side (prefer the
                // coarser of the two): that plane's rate drops to ours.
                let from_above = match (coarser_above, coarser_below) {
                    (true, true) => above.unwrap() >= below.unwrap(),
                    (a, _) => a,
                };
                if from_above {
                    slabs[i - 1].k1 -= 1;
                    slabs[i].k0 -= 1;
                    if slabs[i - 1].planes() == 0 {
                        slabs.remove(i - 1);
                    }
                } else {
                    slabs[i + 1].k0 += 1;
                    slabs[i].k1 += 1;
                    if slabs[i + 1].planes() == 0 {
                        slabs.remove(i + 1);
                    }
                }
            } else {
                // All neighbours are finer: fold this slab down to the
                // finest adjacent rate (conservative) and let the merge
                // pass fuse them.
                let tgt = above.into_iter().chain(below).min().unwrap();
                slabs[i].rate = tgt;
            }
            continue;
        }
        break;
    }
    slabs
}

/// Full clustering pass over a mesh: per-plane Vp profile → rate profile →
/// cluster partition.
pub fn cluster_by_depth(mesh: &Mesh, dt: f64, max_rate_log2: u32, min_slab: usize) -> Vec<ClusterSpec> {
    clusters_from_profile(&rate_profile(&mesh.vp_max_per_k(), mesh.h, dt, max_rate_log2), min_slab)
}

/// Ideal wall-clock speedup of the cluster census over global-dt stepping,
/// counting kernel plane-updates only: `nz / Σ planes_c / rate_c`.
pub fn theoretical_speedup(clusters: &[ClusterSpec]) -> f64 {
    let nz: usize = clusters.iter().map(ClusterSpec::planes).sum();
    let cost: f64 = clusters.iter().map(|c| c.planes() as f64 / f64::from(c.rate)).sum();
    if cost > 0.0 {
        nz as f64 / cost
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshGenerator;
    use crate::model::{HomogeneousModel, LayeredModel};
    use awp_grid::dims::Dims3;

    fn check_invariants(specs: &[ClusterSpec], nz: usize, min_slab: usize) {
        assert_eq!(specs.first().unwrap().k0, 0);
        assert_eq!(specs.last().unwrap().k1, nz);
        for w in specs.windows(2) {
            assert_eq!(w[0].k1, w[1].k0, "contiguous");
            let (a, b) = (w[0].rate, w[1].rate);
            assert_eq!(a.max(b), 2 * a.min(b), "adjacent clusters differ by exactly 2x: {specs:?}");
        }
        for s in specs {
            assert!(s.rate.is_power_of_two());
            if specs.len() > 1 {
                assert!(s.planes() >= min_slab, "thin slab in {specs:?}");
            }
        }
        assert_eq!(specs.iter().map(|s| s.rate).min(), Some(1), "finest rate is 1");
    }

    #[test]
    fn homogeneous_collapses_to_one_cluster() {
        let mesh =
            MeshGenerator::new(&HomogeneousModel::rock(), Dims3::new(4, 4, 16), 100.0).generate();
        let dt = mesh.stats().dt_max() * 0.9;
        let specs = cluster_by_depth(&mesh, dt, 3, 4);
        assert_eq!(specs, vec![ClusterSpec { k0: 0, k1: 16, rate: 1 }]);
        // Even a uniformly *soft* medium (every plane could rate-4) is one
        // rate-1 cluster after normalisation: the caller's dt is simply
        // conservative and clustering has nothing to exploit.
        let soft = MeshGenerator::new(
            &HomogeneousModel::new(1500.0, 600.0, 2000.0),
            Dims3::new(4, 4, 16),
            100.0,
        )
        .generate();
        let specs = cluster_by_depth(&soft, dt, 3, 4);
        assert_eq!(specs, vec![ClusterSpec { k0: 0, k1: 16, rate: 1 }]);
    }

    #[test]
    fn loh1_contrast_is_below_one_octave() {
        // Vp 4000 over 6000: ratio 1.5 < 2, so no plane earns rate 2 and
        // the whole column stays a single cluster.
        let mesh = MeshGenerator::new(&LayeredModel::loh1(), Dims3::new(4, 4, 20), 100.0).generate();
        let dt = mesh.stats().dt_max() * 0.95;
        assert_eq!(cluster_by_depth(&mesh, dt, 3, 4).len(), 1);
    }

    #[test]
    fn basin_earns_transition_band() {
        // 12 soft planes (rate-4 capable) over 4 rock planes: the 2x ratio
        // rule needs a rate-2 band, widened to min_slab by borrowing from
        // the rate-4 side.
        let mut prof = vec![1500.0; 12];
        prof.extend([6000.0; 4]);
        let h = 100.0;
        let dt = 6.0 * h / (7.0 * 3.0f64.sqrt() * 6000.0) * 0.999;
        let rates = rate_profile(&prof, h, dt, 3);
        assert_eq!(&rates[..12], &[4; 12]);
        assert_eq!(&rates[12..], &[1; 4]);
        let specs = clusters_from_profile(&rates, 4);
        check_invariants(&specs, 16, 4);
        assert_eq!(
            specs,
            vec![
                ClusterSpec { k0: 0, k1: 8, rate: 4 },
                ClusterSpec { k0: 8, k1: 12, rate: 2 },
                ClusterSpec { k0: 12, k1: 16, rate: 1 },
            ]
        );
        let s = theoretical_speedup(&specs);
        assert!((s - 2.0).abs() < 1e-12, "16/(2+2+4) = 2.0, got {s}");
    }

    #[test]
    fn deep_contrast_builds_octave_ladder() {
        // Rate-8-capable soft column over rock: bands 8/4/2/1, each
        // transition band at least min_slab planes.
        let mut prof = vec![700.0; 24];
        prof.extend([6000.0; 8]);
        let h = 100.0;
        let dt = 6.0 * h / (7.0 * 3.0f64.sqrt() * 6000.0) * 0.999;
        let specs = clusters_from_profile(&rate_profile(&prof, h, dt, 3), 4);
        check_invariants(&specs, 32, 4);
        let ladder: Vec<u32> = specs.iter().map(|s| s.rate).collect();
        assert_eq!(ladder, vec![8, 4, 2, 1]);
    }

    #[test]
    fn rate_cap_is_honoured() {
        let mut prof = vec![700.0; 24];
        prof.extend([6000.0; 8]);
        let h = 100.0;
        let dt = 6.0 * h / (7.0 * 3.0f64.sqrt() * 6000.0) * 0.999;
        let specs = clusters_from_profile(&rate_profile(&prof, h, dt, 1), 4);
        check_invariants(&specs, 32, 4);
        assert!(specs.iter().all(|s| s.rate <= 2));
    }

    #[test]
    fn thin_max_rate_slab_folds_down() {
        // A 2-plane rate-4 cap between rate-2 material: no coarser
        // neighbour to borrow from, so it folds into the finer rate.
        let rates = [2, 2, 2, 2, 4, 4, 2, 2, 2, 2, 1, 1, 1, 1];
        let specs = clusters_from_profile(&rates, 4);
        check_invariants(&specs, 14, 4);
        assert_eq!(
            specs,
            vec![ClusterSpec { k0: 0, k1: 10, rate: 2 }, ClusterSpec { k0: 10, k1: 14, rate: 1 }]
        );
    }

    #[test]
    fn rates_never_exceed_profile() {
        // Conservativity: whatever the repair loop does, no plane may end
        // up above its CFL-derived bound (after normalisation).
        let profiles: [&[u32]; 4] = [
            &[8, 1, 8, 1, 8, 1, 8, 1],
            &[1, 2, 4, 8, 8, 4, 2, 1, 1, 1],
            &[4, 4, 4, 4, 1, 4, 4, 4, 4],
            &[2, 1, 2, 1, 2, 1],
        ];
        for prof in profiles {
            let specs = clusters_from_profile(prof, 3);
            let nz: usize = specs.iter().map(ClusterSpec::planes).sum();
            assert_eq!(nz, prof.len());
            for s in &specs {
                for k in s.k0..s.k1 {
                    assert!(s.rate <= prof[k], "plane {k} over-rated in {specs:?}");
                }
            }
        }
    }
}
