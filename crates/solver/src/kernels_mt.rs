//! Hybrid (multithreaded) kernels — the paper's MPI/OpenMP hybrid mode
//! (§IV.D): "multiple OpenMP threads, spawned from a single MPI process,
//! directly access shared memory space within a node".
//!
//! Rayon stands in for OpenMP. Each pass parallelises over z-planes of the
//! *written* array while reading the other fields through shared slices —
//! every cell computes exactly the expression of the single-threaded
//! optimized kernels, so results are bit-identical (tests pin this). Like
//! the paper found, the hybrid path trades intra-rank imbalance for thread
//! overhead: it is exposed as an option (`SolverOpts::hybrid`), not a
//! default.
//!
//! The flush-subnormals mode (`awp_grid::fpmode`) is per thread and the
//! planes run on pool workers, so each plane closure enters its own guard.

use crate::attenuation::Attenuation;
use crate::kernels::layout;
use crate::medium::Medium;
use crate::shell::Win;
use crate::state::WaveState;
use awp_grid::fpmode::FlushGuard;
use awp_grid::{C1, C2};
use rayon::prelude::*;
use std::sync::{Arc, Mutex, OnceLock};

/// Run `f` on a dedicated pool of `threads` workers (0 = rayon's global
/// pool). Pools are built once per distinct size and cached, so hybrid
/// runs pinned to an explicit thread count (`SolverOpts::threads`, for
/// deterministic CI on small machines) pay the spawn cost only once.
fn with_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        return f();
    }
    type PoolCache = Mutex<Vec<(usize, Arc<rayon::ThreadPool>)>>;
    static POOLS: OnceLock<PoolCache> = OnceLock::new();
    let pool = {
        let mut pools = POOLS.get_or_init(Default::default).lock().unwrap();
        match pools.iter().find(|(n, _)| *n == threads) {
            Some((_, p)) => Arc::clone(p),
            None => {
                let p = Arc::new(
                    rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .expect("hybrid thread pool"),
                );
                pools.push((threads, Arc::clone(&p)));
                p
            }
        }
    };
    pool.install(f)
}

/// Multithreaded velocity update (optimized path only: precomputed
/// reciprocal media required). `threads` pins the worker count (0 = global
/// pool).
pub fn update_velocity_mt(state: &mut WaveState, med: &Medium, dth: f32, threads: usize) {
    let win = Win::full(state.dims);
    update_velocity_mt_win(state, med, dth, win, threads);
}

/// Windowed multithreaded velocity update (shell/interior split): planes
/// outside `win.k0..win.k1` are skipped, rows clipped to the window. Same
/// per-cell expression as the fused pass, hence bit-identical on the
/// window.
pub fn update_velocity_mt_win(
    state: &mut WaveState,
    med: &Medium,
    dth: f32,
    win: Win,
    threads: usize,
) {
    if win.is_empty() {
        return;
    }
    with_pool(threads, || velocity_mt_body(state, med, dth, win));
}

fn velocity_mt_body(state: &mut WaveState, med: &Medium, dth: f32, win: Win) {
    let (sy, sz, _) = layout(state);
    let rx = med.rhox_inv.as_ref().expect("precompute() not called").as_slice();
    let ry = med.rhoy_inv.as_ref().expect("precompute() not called").as_slice();
    let rz = med.rhoz_inv.as_ref().expect("precompute() not called").as_slice();
    let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, .. } = state;
    let (sxx, syy, szz) = (sxx.as_slice(), syy.as_slice(), szz.as_slice());
    let (sxy, sxz_s, syz_s) = (sxy.as_slice(), sxz.as_slice(), syz.as_slice());

    // vx pass.
    vx.as_mut_slice().par_chunks_mut(sz).enumerate().for_each(|(kp, plane)| {
        if kp < 2 + win.k0 || kp >= 2 + win.k1 {
            return;
        }
        let _ftz = FlushGuard::enter();
        let zoff = kp * sz;
        for j in win.j0..win.j1 {
            let row = 2 + sy * (j + 2);
            for i in win.i0..win.i1 {
                let ol = row + i;
                let o = zoff + ol;
                plane[ol] += dth
                    * rx[o]
                    * (C1 * (sxx[o + 1] - sxx[o])
                        + C2 * (sxx[o + 2] - sxx[o - 1])
                        + C1 * (sxy[o] - sxy[o - sy])
                        + C2 * (sxy[o + sy] - sxy[o - 2 * sy])
                        + C1 * (sxz_s[o] - sxz_s[o - sz])
                        + C2 * (sxz_s[o + sz] - sxz_s[o - 2 * sz]));
            }
        }
    });
    // vy pass.
    vy.as_mut_slice().par_chunks_mut(sz).enumerate().for_each(|(kp, plane)| {
        if kp < 2 + win.k0 || kp >= 2 + win.k1 {
            return;
        }
        let _ftz = FlushGuard::enter();
        let zoff = kp * sz;
        for j in win.j0..win.j1 {
            let row = 2 + sy * (j + 2);
            for i in win.i0..win.i1 {
                let ol = row + i;
                let o = zoff + ol;
                plane[ol] += dth
                    * ry[o]
                    * (C1 * (sxy[o] - sxy[o - 1])
                        + C2 * (sxy[o + 1] - sxy[o - 2])
                        + C1 * (syy[o + sy] - syy[o])
                        + C2 * (syy[o + 2 * sy] - syy[o - sy])
                        + C1 * (syz_s[o] - syz_s[o - sz])
                        + C2 * (syz_s[o + sz] - syz_s[o - 2 * sz]));
            }
        }
    });
    // vz pass.
    vz.as_mut_slice().par_chunks_mut(sz).enumerate().for_each(|(kp, plane)| {
        if kp < 2 + win.k0 || kp >= 2 + win.k1 {
            return;
        }
        let _ftz = FlushGuard::enter();
        let zoff = kp * sz;
        for j in win.j0..win.j1 {
            let row = 2 + sy * (j + 2);
            for i in win.i0..win.i1 {
                let ol = row + i;
                let o = zoff + ol;
                plane[ol] += dth
                    * rz[o]
                    * (C1 * (sxz_s[o] - sxz_s[o - 1])
                        + C2 * (sxz_s[o + 1] - sxz_s[o - 2])
                        + C1 * (syz_s[o] - syz_s[o - sy])
                        + C2 * (syz_s[o + sy] - syz_s[o - 2 * sy])
                        + C1 * (szz[o + sz] - szz[o])
                        + C2 * (szz[o + 2 * sz] - szz[o - sz]));
            }
        }
    });
}

/// Multithreaded stress update (optimized path; optional attenuation).
/// `threads` pins the worker count (0 = global pool).
pub fn update_stress_mt(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    threads: usize,
) {
    let win = Win::full(state.dims);
    update_stress_mt_win(state, med, atten, dth, dt, win, threads);
}

/// Windowed multithreaded stress update — see [`update_velocity_mt_win`].
pub fn update_stress_mt_win(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    win: Win,
    threads: usize,
) {
    if win.is_empty() {
        return;
    }
    with_pool(threads, || stress_mt_body(state, med, atten, dth, dt, win));
}

fn stress_mt_body(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    win: Win,
) {
    let (sy, sz, _) = layout(state);
    let lam = med.lam.as_slice();
    let mu = med.mu.as_slice();
    let mxy = med.mu_xy.as_ref().expect("precompute() not called").as_slice();
    let mxz = med.mu_xz.as_ref().expect("precompute() not called").as_slice();
    let myz = med.mu_yz.as_ref().expect("precompute() not called").as_slice();
    let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, mem, .. } = state;
    let (vx, vy, vz) = (vx.as_slice(), vy.as_slice(), vz.as_slice());
    let at = atten.map(|a| (a.decay.as_slice(), a.cs.as_slice(), a.cp.as_slice()));

    #[inline(always)]
    fn anelastic(delta: f32, zeta: &mut f32, a: f32, c: f32, dt: f32) -> f32 {
        let z = a * *zeta + (1.0 - a) * c * (delta / dt);
        *zeta = z;
        delta - dt * z
    }

    // A plane-parallel pass over one written array (+ its memory array).
    macro_rules! pass {
        ($field:expr, $memfield:expr, $csel:ident, $expr:expr) => {{
            let mem_slice: Option<&mut [f32]> = $memfield;
            match (mem_slice, &at) {
                (Some(zarr), Some((a, cs, cp))) => {
                    let _ = cs;
                    let _ = cp;
                    $field
                        .as_mut_slice()
                        .par_chunks_mut(sz)
                        .zip(zarr.par_chunks_mut(sz))
                        .enumerate()
                        .for_each(|(kp, (plane, zplane))| {
                            if kp < 2 + win.k0 || kp >= 2 + win.k1 {
                                return;
                            }
                            let _ftz = FlushGuard::enter();
                            let zoff = kp * sz;
                            for j in win.j0..win.j1 {
                                let row = 2 + sy * (j + 2);
                                for i in win.i0..win.i1 {
                                    let ol = row + i;
                                    let o = zoff + ol;
                                    let delta: f32 = $expr(o);
                                    let c = $csel(o);
                                    plane[ol] += anelastic(delta, &mut zplane[ol], a[o], c, dt);
                                }
                            }
                        });
                }
                _ => {
                    $field.as_mut_slice().par_chunks_mut(sz).enumerate().for_each(
                        |(kp, plane)| {
                            if kp < 2 + win.k0 || kp >= 2 + win.k1 {
                                return;
                            }
                            let _ftz = FlushGuard::enter();
                            let zoff = kp * sz;
                            for j in win.j0..win.j1 {
                                let row = 2 + sy * (j + 2);
                                for i in win.i0..win.i1 {
                                    let ol = row + i;
                                    let o = zoff + ol;
                                    plane[ol] += $expr(o);
                                }
                            }
                        },
                    );
                }
            }
        }};
    }

    let exx = |o: usize| C1 * (vx[o] - vx[o - 1]) + C2 * (vx[o + 1] - vx[o - 2]);
    let eyy = |o: usize| C1 * (vy[o] - vy[o - sy]) + C2 * (vy[o + sy] - vy[o - 2 * sy]);
    let ezz = |o: usize| C1 * (vz[o] - vz[o - sz]) + C2 * (vz[o + sz] - vz[o - 2 * sz]);
    let cp_sel = |o: usize| at.map(|(_, _, cp)| cp[o]).unwrap_or(0.0);
    let cs_sel = |o: usize| at.map(|(_, cs, _)| cs[o]).unwrap_or(0.0);

    let mem_parts = mem.as_mut().map(|m| {
        (
            m.xx.as_mut_slice() as *mut [f32],
            m.yy.as_mut_slice() as *mut [f32],
            m.zz.as_mut_slice() as *mut [f32],
            m.xy.as_mut_slice() as *mut [f32],
            m.xz.as_mut_slice() as *mut [f32],
            m.yz.as_mut_slice() as *mut [f32],
        )
    });
    // Safety: each raw pointer is used exactly once, in its own pass, and
    // never aliases the written stress array.
    let (zxx, zyy, zzz, zxy, zxz, zyz) = match mem_parts {
        Some((a, b, c, d2, e, f)) => unsafe {
            (
                Some(&mut *a),
                Some(&mut *b),
                Some(&mut *c),
                Some(&mut *d2),
                Some(&mut *e),
                Some(&mut *f),
            )
        },
        None => (None, None, None, None, None, None),
    };

    pass!(sxx, zxx, cp_sel, |o: usize| {
        let tr = exx(o) + eyy(o) + ezz(o);
        dth * (lam[o] * tr + 2.0 * mu[o] * exx(o))
    });
    pass!(syy, zyy, cp_sel, |o: usize| {
        let tr = exx(o) + eyy(o) + ezz(o);
        dth * (lam[o] * tr + 2.0 * mu[o] * eyy(o))
    });
    pass!(szz, zzz, cp_sel, |o: usize| {
        let tr = exx(o) + eyy(o) + ezz(o);
        dth * (lam[o] * tr + 2.0 * mu[o] * ezz(o))
    });
    pass!(sxy, zxy, cs_sel, |o: usize| {
        dth * mxy[o]
            * (C1 * (vx[o + sy] - vx[o])
                + C2 * (vx[o + 2 * sy] - vx[o - sy])
                + C1 * (vy[o + 1] - vy[o])
                + C2 * (vy[o + 2] - vy[o - 1]))
    });
    pass!(sxz, zxz, cs_sel, |o: usize| {
        dth * mxz[o]
            * (C1 * (vx[o + sz] - vx[o])
                + C2 * (vx[o + 2 * sz] - vx[o - sz])
                + C1 * (vz[o + 1] - vz[o])
                + C2 * (vz[o + 2] - vz[o - 1]))
    });
    pass!(syz, zyz, cs_sel, |o: usize| {
        dth * myz[o]
            * (C1 * (vy[o + sz] - vy[o])
                + C2 * (vy[o + 2 * sz] - vy[o - sz])
                + C1 * (vz[o + sy] - vz[o])
                + C2 * (vz[o + 2 * sy] - vz[o - sy]))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{update_stress, update_velocity};
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::LayeredModel;
    use awp_grid::blocking::BlockSpec;
    use awp_grid::dims::{Dims3, Idx3};
    use awp_grid::stagger::Component;

    fn setup(d: Dims3) -> (Medium, WaveState) {
        let m = LayeredModel::loh1();
        let mesh = MeshGenerator::new(&m, d, 150.0).generate();
        let mut med = Medium::from_mesh(&mesh);
        med.precompute();
        let mut st = WaveState::new(d, false);
        let mut x = 12345u64;
        for c in Component::ALL {
            let f = st.field_mut(c);
            for v in f.as_mut_slice() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = ((x % 2000) as f32 / 1000.0 - 1.0) * 1e4;
            }
        }
        (med, st)
    }

    #[test]
    fn mt_velocity_matches_st_bitwise() {
        let d = Dims3::new(17, 13, 11);
        let (med, st) = setup(d);
        let mut a = st.clone();
        let mut b = st;
        update_velocity(&mut a, &med, 0.01, BlockSpec::JAGUAR, true);
        update_velocity_mt(&mut b, &med, 0.01, 0);
        assert_eq!(a.vx, b.vx);
        assert_eq!(a.vy, b.vy);
        assert_eq!(a.vz, b.vz);
    }

    #[test]
    fn mt_stress_matches_st_bitwise_elastic() {
        let d = Dims3::new(14, 12, 10);
        let (med, st) = setup(d);
        let mut a = st.clone();
        let mut b = st;
        update_stress(&mut a, &med, None, 0.01, 1e-3, BlockSpec::JAGUAR, true);
        update_stress_mt(&mut b, &med, None, 0.01, 1e-3, 2);
        for c in Component::STRESSES {
            assert_eq!(a.field(c), b.field(c), "{c:?}");
        }
    }

    #[test]
    fn mt_stress_matches_st_bitwise_anelastic() {
        let d = Dims3::new(12, 10, 9);
        let (med, st) = setup(d);
        let at = Attenuation::new(&med, 1e-3, 0.1, 3.0, Idx3::new(0, 0, 0));
        let mut a = st.clone();
        a.mem = Some(crate::state::MemoryVars::new(d));
        let mut b = a.clone();
        // Two steps so memory-variable state feeds back.
        for _ in 0..2 {
            update_stress(&mut a, &med, Some(&at), 0.01, 1e-3, BlockSpec::JAGUAR, true);
            update_stress_mt(&mut b, &med, Some(&at), 0.01, 1e-3, 2);
        }
        for c in Component::STRESSES {
            assert_eq!(a.field(c), b.field(c), "{c:?}");
        }
        let (ma, mb) = (a.mem.unwrap(), b.mem.unwrap());
        assert_eq!(ma.xy, mb.xy);
        assert_eq!(ma.zz, mb.zz);
    }

    #[test]
    fn mt_full_step_sequence_stable() {
        let d = Dims3::new(16, 16, 16);
        let (med, _) = setup(d);
        let mut st = WaveState::new(d, false);
        st.sxx.set(8, 8, 8, 1e6);
        // dth = dt/h with dt = 0.0075 s, h = 150 m — inside the CFL bound.
        for _ in 0..20 {
            update_velocity_mt(&mut st, &med, 5e-5, 2);
            update_stress_mt(&mut st, &med, None, 5e-5, 0.0075, 2);
        }
        assert!(!st.has_nan());
        assert!(st.max_velocity() > 0.0);
    }

    #[test]
    fn mt_windowed_union_matches_fused_and_pool_is_pinned() {
        use crate::shell::ShellPlan;
        let d = Dims3::new(13, 11, 9);
        let (med, st) = setup(d);
        let at = Attenuation::new(&med, 1e-3, 0.1, 3.0, Idx3::new(0, 0, 0));
        let mut fused = st.clone();
        fused.mem = Some(crate::state::MemoryVars::new(d));
        let mut split = fused.clone();
        let plan = ShellPlan::from_widths(d, [2, 0, 2, 2, 0, 2], false);
        update_velocity_mt(&mut fused, &med, 0.01, 2);
        update_stress_mt(&mut fused, &med, Some(&at), 0.01, 1e-3, 2);
        for w in plan.shells.iter().chain(std::iter::once(&plan.interior)) {
            update_velocity_mt_win(&mut split, &med, 0.01, *w, 2);
        }
        for w in plan.shells.iter().chain(std::iter::once(&plan.interior)) {
            update_stress_mt_win(&mut split, &med, Some(&at), 0.01, 1e-3, *w, 2);
        }
        for c in Component::ALL {
            assert_eq!(fused.field(c), split.field(c), "{c:?}");
        }
        let (mf, ms) = (fused.mem.unwrap(), split.mem.unwrap());
        assert_eq!(mf.xx, ms.xx);
        assert_eq!(mf.yz, ms.yz);
        // A pinned pool really runs with the requested width.
        let seen = with_pool(3, rayon::current_num_threads);
        assert_eq!(seen, 3);
    }
}
