//! Clustered local time stepping (LTS): rate-2ᵏ dt-clusters keyed to the
//! velocity model's depth structure.
//!
//! The paper's solver advances the whole grid at the single global CFL
//! step dictated by the stiffest material (§II.B: `dt ≤ 6h/(7√3·Vp_max)`).
//! In a basin-over-rock medium most z-planes tolerate a step 2–8× larger;
//! this module partitions the grid into horizontal *dt-clusters* whose
//! steps are power-of-two multiples of the base `dt` (the clustering pass
//! lives in `awp_cvm::lts`), and advances each cluster only on the base
//! ticks it "fires" on (tick `n` fires cluster `c` iff `n % rate_c == 0`).
//!
//! # Schedule and interface coupling
//!
//! One base tick (`Solver::step`, which walks the `StepPlan` built here)
//! runs in lock-step sub-phases across all firing clusters:
//!
//! 1. **prev-capture** — for every interface whose coarse side fires, the
//!    two coarse edge planes of `v` and of the z-coupled stresses are
//!    snapshotted (they become the `prev` endpoint for interpolation
//!    during the coarse cluster's next `rate` ticks);
//! 2. **velocity phases** of every firing cluster;
//! 3. **stress phases** of every firing cluster, top to bottom
//!    (free-surface velocity imaging runs just before the surface
//!    cluster's stress phase). Under a sponge the stress walk of cluster
//!    `[k0, k1)` also retires the velocity sponge of planes `[k0, k1 − 2)`
//!    two planes behind itself (`boundary::SpongeFold`): their only
//!    remaining same-tick readers are the walk's own earlier rows. The
//!    last two planes stay undamped — the cluster below, whose phase comes
//!    later, still reads them and, as a fine side, blends them;
//! 4. **velocity sponge** of every firing cluster on the planes its walk
//!    did not retire (after *all* stress phases, so same-tick stress
//!    reads see undamped velocities — the fused schedule's semantics).
//!
//! Because adjacent clusters always differ by exactly one octave (the
//! clustering pass enforces the 2× adjacency rule), cross-cluster ghost
//! reads need only two interpolation cases; all other reads use live
//! neighbour values, which sub-phase ordering makes either exact or a
//! clamped O(Δt) extrapolation:
//!
//! * a fine **velocity** phase on a tick where the coarse neighbour is
//!   idle reads the coarse z-coupled stresses (σxz, σyz, σzz — the only
//!   components the z-derivatives reach across the interface) at the
//!   midpoint `½·prev + ½·live` (exact for the 2× ratio);
//! * a fine **stress** phase on a tick where the coarse neighbour also
//!   fires reads the coarse velocities at `¼·prev + ¾·live` (exact: the
//!   fine half-step time lands three quarters of the way between the
//!   coarse cluster's previous and current half-step velocities).
//!
//! The ghosts are realised as save → overwrite → kernel → restore on the
//! two coarse edge planes (interior columns only: kernels reach
//! neighbour-cluster k-planes solely through z-derivatives, which never
//! offset i/j, so halo columns of foreign planes are never read).
//!
//! A direction note: the issue motivating this work sketches soft basins
//! as the *fine* clusters. The physics runs the other way — `dt_CFL`
//! scales with `1/Vp`, so the stiff high-Vp basement pins the base step
//! and the soft low-Vp basin coarsens — and the machinery is agnostic:
//! clusters come from the per-plane CFL profile, whichever way it slopes.

use crate::attenuation::Attenuation;
use crate::boundary::Sponge;
use crate::config::{AbcKind, LtsOpts, SolverConfig};
use crate::medium::Medium;
use crate::pml::Mpml;
use crate::exchange::Phase;
use crate::shell::Win;
use crate::state::WaveState;
use awp_cvm::lts::{clusters_from_profile, rate_profile, theoretical_speedup, ClusterSpec};
use awp_cvm::mesh::Mesh;
use awp_grid::array3::Array3;
use awp_grid::decomp::Subdomain;
use awp_grid::fpmode;
use awp_grid::stagger::Component;

/// Highest cluster count the runtime accepts: cluster indices share the
/// message-tag step field with the tick number (`exchange::tag_step`), so
/// they must fit in 4 bits. Real CFL profiles produce a handful of octave
/// bands; an adversarial profile that exceeds this simply falls back to
/// global time stepping.
pub const MAX_CLUSTERS: usize = 16;

/// The velocity components interpolated across a coarse interface plane.
const V_COMPS: [Component; 3] = [Component::Vx, Component::Vy, Component::Vz];
/// The stress components the velocity z-derivatives read across an
/// interface (σxz, σyz, σzz — no other stress crosses a k-plane).
const S_COMPS: [Component; 3] = [Component::Sxz, Component::Syz, Component::Szz];

/// A solver-agnostic cluster schedule: the dt-clusters (k-ranges + rates)
/// plus derived quantities. Built once from the *global* per-plane Vp
/// profile so every rank of a decomposed run derives the identical
/// partition.
#[derive(Debug, Clone, PartialEq)]
pub struct LtsPlan {
    pub clusters: Vec<ClusterSpec>,
}

impl LtsPlan {
    /// Build from a per-k-plane maximum-Vp profile (global extent).
    pub fn from_profile(vp_max_per_k: &[f64], h: f64, dt: f64, opts: LtsOpts) -> Self {
        let rates = rate_profile(vp_max_per_k, h, dt, opts.max_rate_log2);
        Self { clusters: clusters_from_profile(&rates, opts.min_slab) }
    }

    /// Build from a (global) mesh.
    pub fn from_mesh(mesh: &Mesh, dt: f64, opts: LtsOpts) -> Self {
        Self::from_profile(&mesh.vp_max_per_k(), mesh.h, dt, opts)
    }

    /// More than one rate band ⇒ the LTS schedule differs from fused.
    pub fn is_multi_rate(&self) -> bool {
        self.clusters.len() > 1
    }

    /// Slowest cadence in the ladder (ticks between the coarsest cluster's
    /// fires). Every `max_rate` ticks the whole grid aligns: all clusters
    /// fire and every interface re-captures `prev`, so checkpoints cut at
    /// multiples of this need no interpolation state.
    pub fn max_rate(&self) -> u32 {
        self.clusters.iter().map(|c| c.rate).max().unwrap_or(1)
    }

    /// Ideal update-count speedup of this schedule over global stepping.
    pub fn theoretical_speedup(&self) -> f64 {
        theoretical_speedup(&self.clusters)
    }
}

/// The dt-dependent operators of one step size: attenuation coefficients,
/// M-PML profiles and sponge amplitudes are all functions of `dt`, so a
/// cluster stepping `rate·dt` owns a set built for that step. A rate-1
/// cluster owns none and steps with the solver's.
#[derive(Default)]
pub(crate) struct Operators {
    pub atten: Option<Attenuation>,
    pub mpml: Option<Mpml>,
    pub sponge: Option<Sponge>,
}

/// One cluster of the step plan: its window and cadence, and its private
/// operators.
pub(crate) struct StepCluster {
    pub win: Win,
    pub rate: u32,
    pub own: Operators,
    /// Substeps executed (telemetry).
    pub fires: u64,
    /// Nanoseconds accumulated inside this cluster's phases.
    pub ns: u64,
}

impl StepCluster {
    fn new(win: Win, rate: u32, own: Operators) -> Self {
        Self { win, rate, own, fires: 0, ns: 0 }
    }
}

/// One fine↔coarse interface: the bookkeeping for the two ghost
/// interpolation cases on the coarse side's two edge planes.
pub(crate) struct LtsInterface {
    /// Cluster indices into `LtsRuntime::clusters`.
    pub fine: usize,
    pub coarse: usize,
    /// Interior k of the two coarse planes adjacent to the fine cluster,
    /// nearest to the interface first.
    pub planes: [usize; 2],
    /// Snapshots captured at the coarse cluster's firing tick:
    /// `[v × 3][plane × 2]` then `[σ × 3][plane × 2]`.
    prev: Vec<Vec<f32>>,
    /// Scratch holding live values while an overwrite is active.
    save: Vec<Vec<f32>>,
}

impl LtsInterface {
    fn new(fine: usize, coarse: usize, planes: [usize; 2], plane_len: usize) -> Self {
        Self {
            fine,
            coarse,
            planes,
            prev: (0..12).map(|_| vec![0.0; plane_len]).collect(),
            save: (0..12).map(|_| vec![0.0; plane_len]).collect(),
        }
    }

    /// Index into `prev`/`save`: component slot `c` (0..6 over v then σ),
    /// plane slot `p` (0..2).
    fn slot(c: usize, p: usize) -> usize {
        c * 2 + p
    }

    /// Sub-phase 0: snapshot the coarse edge planes (runs on the coarse
    /// cluster's firing ticks, before any update).
    pub fn capture_prev(&mut self, state: &WaveState) {
        for (ci, comp) in V_COMPS.iter().chain(S_COMPS.iter()).enumerate() {
            let arr = state.field(*comp);
            for (pi, &k) in self.planes.iter().enumerate() {
                copy_plane(arr, k, &mut self.prev[Self::slot(ci, pi)]);
            }
        }
    }

    /// Overwrite the coarse edge planes of `comps` (offset `c0` into the
    /// snapshot slots) with `w_prev·prev + (1−w_prev)·live`, saving the
    /// live values for [`Self::restore`].
    fn blend(&mut self, state: &mut WaveState, comps: &[Component], c0: usize, w_prev: f32) {
        for (ci, comp) in comps.iter().enumerate() {
            let arr = state.field_mut(*comp);
            for (pi, &k) in self.planes.iter().enumerate() {
                let s = Self::slot(c0 + ci, pi);
                copy_plane(arr, k, &mut self.save[s]);
                blend_plane(arr, k, &self.prev[s], w_prev);
            }
        }
    }

    fn restore(&mut self, state: &mut WaveState, comps: &[Component], c0: usize) {
        for (ci, comp) in comps.iter().enumerate() {
            let arr = state.field_mut(*comp);
            for (pi, &k) in self.planes.iter().enumerate() {
                write_plane(arr, k, &self.save[Self::slot(c0 + ci, pi)]);
            }
        }
    }

    /// Overwrite the ghosts the fine cluster's `phase` reads: its velocity
    /// phase runs while the coarse side idles and reads σ at the midpoint;
    /// its stress phase runs when the coarse side fires too and reads v at
    /// the ¾ point.
    pub fn blend_ghosts(&mut self, state: &mut WaveState, phase: Phase) {
        match phase {
            Phase::Velocity => self.blend(state, &S_COMPS, 3, 0.5),
            Phase::Stress => self.blend(state, &V_COMPS, 0, 0.25),
        }
    }

    /// Put back the live values [`Self::blend_ghosts`] overwrote.
    pub fn restore_ghosts(&mut self, state: &mut WaveState, phase: Phase) {
        match phase {
            Phase::Velocity => self.restore(state, &S_COMPS, 3),
            Phase::Stress => self.restore(state, &V_COMPS, 0),
        }
    }
}

/// Copy interior plane `k` of `a` (x-fastest, row-contiguous) into `out`.
fn copy_plane(a: &Array3, k: usize, out: &mut [f32]) {
    let d = a.interior();
    debug_assert_eq!(out.len(), d.nx * d.ny);
    let data = a.as_slice();
    for j in 0..d.ny {
        let row = a.offset(0, j as isize, k as isize);
        out[j * d.nx..(j + 1) * d.nx].copy_from_slice(&data[row..row + d.nx]);
    }
}

fn write_plane(a: &mut Array3, k: usize, src: &[f32]) {
    let d = a.interior();
    debug_assert_eq!(src.len(), d.nx * d.ny);
    for j in 0..d.ny {
        let row = a.offset(0, j as isize, k as isize);
        a.as_mut_slice()[row..row + d.nx].copy_from_slice(&src[j * d.nx..(j + 1) * d.nx]);
    }
}

/// `plane ← w_prev·prev + (1−w_prev)·plane` over interior columns.
fn blend_plane(a: &mut Array3, k: usize, prev: &[f32], w_prev: f32) {
    let d = a.interior();
    let w_live = 1.0 - w_prev;
    for j in 0..d.ny {
        debug_assert!(fpmode::is_flushing());
        let row = a.offset(0, j as isize, k as isize);
        let live = &mut a.as_mut_slice()[row..row + d.nx];
        for (v, p) in live.iter_mut().zip(&prev[j * d.nx..(j + 1) * d.nx]) {
            *v = w_prev * p + w_live * *v;
        }
    }
}

/// What one rank's `Solver::step` walks each base tick: the clusters and
/// the interfaces between them. Global time stepping is the plan with one
/// rate-1 cluster over the whole grid, no private operators and no
/// interfaces.
pub(crate) struct StepPlan {
    pub clusters: Vec<StepCluster>,
    pub interfaces: Vec<LtsInterface>,
}

impl StepPlan {
    /// The single-cluster (global dt) plan.
    pub fn global(sub: &Subdomain) -> Self {
        let one = StepCluster::new(Win::full(sub.dims), 1, Operators::default());
        Self { clusters: vec![one], interfaces: Vec::new() }
    }

    /// The plan for `specs`, which must come from the global profile
    /// (identical on every rank); the rank's subdomain must span the full
    /// z extent (enforced by `SolvePlan::new` via the single-z-part config
    /// rule). A census of one cluster, or one too fragmented for the tag
    /// space, yields [`StepPlan::global`].
    pub fn build(
        cfg: &SolverConfig,
        sub: &Subdomain,
        med: &Medium,
        vp_max: f64,
        specs: &[ClusterSpec],
    ) -> Self {
        if specs.len() < 2 || specs.len() > MAX_CLUSTERS {
            return Self::global(sub);
        }
        debug_assert_eq!(
            specs.last().unwrap().k1,
            sub.dims.nz,
            "cluster partition must cover the rank's full z extent"
        );
        let d = sub.dims;
        let clusters = specs
            .iter()
            .map(|c| {
                let rate = c.rate;
                let dt_c = cfg.dt * f64::from(rate);
                let win = Win { k0: c.k0, k1: c.k1, ..Win::full(d) };
                let mut own = Operators::default();
                if rate > 1 {
                    own.atten = cfg.attenuation.then(|| {
                        Attenuation::new(med, dt_c, cfg.q_band.0, cfg.q_band.1, sub.origin)
                    });
                    match cfg.abc {
                        // amp^rate: the Cerjan profile is exp(−(a·d)²) with
                        // a ∝ √(−ln amp), so raising amp to the rate yields
                        // exactly profile^rate per fire — the damping a
                        // rate-1 cluster accumulates over the same interval.
                        AbcKind::Sponge { width, amp } => {
                            own.sponge = Some(Sponge::new(
                                sub,
                                width,
                                amp.powi(rate as i32),
                                cfg.free_surface,
                            ));
                        }
                        AbcKind::Mpml { width, pmax } => {
                            own.mpml = Some(
                                Mpml::for_window(
                                    sub,
                                    med.h,
                                    vp_max,
                                    width,
                                    pmax,
                                    dt_c,
                                    cfg.q_band.1.max(0.5),
                                    1e-4,
                                    win,
                                )
                                .with_backend(crate::simd::backend_for(&cfg.opts)),
                            );
                        }
                        AbcKind::None => {}
                    }
                }
                StepCluster::new(win, rate, own)
            })
            .collect();
        let plane_len = d.nx * d.ny;
        let mut interfaces = Vec::new();
        for i in 0..specs.len() - 1 {
            let (up, dn) = (&specs[i], &specs[i + 1]);
            debug_assert_eq!(up.k1, dn.k0, "clusters must tile contiguously");
            debug_assert_ne!(up.rate, dn.rate, "adjacent clusters must differ in rate");
            // The coarser (slower) side owns the interpolated edge planes.
            let (fine, coarse, planes) = if up.rate < dn.rate {
                (i, i + 1, [dn.k0, dn.k0 + 1])
            } else {
                (i + 1, i, [up.k1 - 1, up.k1 - 2])
            };
            interfaces.push(LtsInterface::new(fine, coarse, planes, plane_len));
        }
        Self { clusters, interfaces }
    }

    /// More than one cluster: the schedule differs from global dt.
    pub fn is_multi_rate(&self) -> bool {
        self.clusters.len() > 1
    }

    /// Per-cluster accounting for telemetry.
    pub fn stats(&self) -> Vec<awp_telemetry::LtsClusterStat> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(i, c)| awp_telemetry::LtsClusterStat {
                cluster: i as u8,
                rate: c.rate,
                planes: (c.win.k1 - c.win.k0) as u32,
                fires: c.fires,
                ns: c.ns,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::dims::Dims3;

    #[test]
    fn plan_from_profile_collapses_uniform_media() {
        let prof = vec![6000.0; 32];
        let dt = 6.0 * 100.0 / (7.0 * 3.0f64.sqrt() * 6000.0);
        let plan = LtsPlan::from_profile(&prof, 100.0, dt, LtsOpts::new());
        assert_eq!(plan.clusters.len(), 1);
        assert!(!plan.is_multi_rate());
        assert_eq!(plan.max_rate(), 1);
        assert!((plan.theoretical_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn plan_from_contrast_profile_is_multi_rate() {
        let mut prof = vec![1500.0; 24];
        prof.extend(vec![6000.0; 8]);
        let dt = 6.0 * 100.0 / (7.0 * 3.0f64.sqrt() * 6000.0);
        let plan = LtsPlan::from_profile(&prof, 100.0, dt, LtsOpts::new());
        assert!(plan.is_multi_rate());
        assert!(plan.max_rate() >= 2);
        assert!(plan.theoretical_speedup() > 1.5);
    }

    #[test]
    fn blend_plane_midpoint_and_restore_roundtrip() {
        // The steppers that call `blend_plane` hold the guard; so must we.
        let _ftz = fpmode::FlushGuard::enter();
        let d = Dims3::new(4, 3, 3);
        let mut a = Array3::new(d, 2);
        a.map_interior(|idx, _| (idx.i + 10 * idx.j + 100 * idx.k) as f32);
        let n = d.nx * d.ny;
        let mut prev = vec![0.0f32; n];
        let mut live = vec![0.0f32; n];
        copy_plane(&a, 1, &mut live);
        // prev = live + 2 ⇒ midpoint blend = live + 1 everywhere.
        for (p, l) in prev.iter_mut().zip(&live) {
            *p = l + 2.0;
        }
        blend_plane(&mut a, 1, &prev, 0.5);
        let mut blended = vec![0.0f32; n];
        copy_plane(&a, 1, &mut blended);
        for (b, l) in blended.iter().zip(&live) {
            assert_eq!(*b, l + 1.0);
        }
        // Other planes untouched.
        assert_eq!(a.get(0, 0, 0), 0.0);
        assert_eq!(a.get(1, 1, 2), 1.0 + 10.0 + 200.0);
        // Restore.
        write_plane(&mut a, 1, &live);
        let mut back = vec![0.0f32; n];
        copy_plane(&a, 1, &mut back);
        assert_eq!(back, live);
    }
}
