//! The optimized leapfrog kernels: one lane-generic body per update (§IV.B
//! taken to its conclusion: after reciprocal media the x inner loop is pure
//! unit-stride streaming arithmetic — exactly the shape vector units want).
//!
//! Strategy:
//!
//! * one generic kernel body per update, written against the tiny `Lanes`
//!   abstraction and marked `#[inline(always)]`;
//! * `#[target_feature]` wrappers monomorphise it for the vector widths
//!   of [`SimdBackend`] (`core::arch` intrinsics); the `f32` instantiation
//!   is the portable backend, what `SolverOpts::simd = false` runs, *and*
//!   the ragged row tail;
//! * runtime dispatch via `is_x86_feature_detected!`, probed once.
//!
//! **Bit-exactness.** Every operation in the kernels is a lane-independent
//! IEEE-754 f32 add/sub/mul/div with the association of the slice-indexed
//! loops in `kernels::reference` (no FMA contraction — intrinsics never
//! fuse). A vector lane therefore computes the identical rounding sequence
//! at any width, and the property tests below pin every backend to that
//! reference bit for bit. This is what lets `SolverOpts::simd` default on
//! without disturbing any of the serial/parallel equivalence tests.

use crate::attenuation::Attenuation;
use crate::boundary::SpongeFold;
use crate::kernels::{layout, reach_in_bounds, row_in_extent};
use crate::medium::Medium;
use crate::shell::Win;
use crate::state::WaveState;
use awp_grid::blocking::{blocked_tiles_range, BlockSpec};
use awp_grid::fpmode::{self, FlushGuard};
use awp_grid::{C1, C2};
use std::sync::OnceLock;

/// A runtime-selectable kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// 8 × f32 per op (AVX2).
    Avx2,
    /// 4 × f32 per op (SSE2 — baseline on every x86_64).
    Sse2,
    /// Portable lane-width-1 instantiation of the same generic body.
    Scalar,
}

impl SimdBackend {
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Sse2 => "sse2",
            SimdBackend::Scalar => "scalar",
        }
    }

    /// f32 lanes per vector operation.
    pub fn lanes(self) -> usize {
        match self {
            SimdBackend::Avx2 => 8,
            SimdBackend::Sse2 => 4,
            SimdBackend::Scalar => 1,
        }
    }

    /// Whether the running CPU can execute this backend.
    pub fn available(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Widest backend the running CPU supports; probed once, then cached.
pub fn detect() -> SimdBackend {
    static BACKEND: OnceLock<SimdBackend> = OnceLock::new();
    *BACKEND.get_or_init(|| {
        [SimdBackend::Avx2, SimdBackend::Sse2]
            .into_iter()
            .find(|b| b.available())
            .unwrap_or(SimdBackend::Scalar)
    })
}

/// The backend `opts` select for passes that have no scalar twin of their
/// own: the widest available when `opts.simd` rides on the optimized
/// layout, else the width-1 instantiation.
pub(crate) fn backend_for(opts: &crate::config::SolverOpts) -> SimdBackend {
    if opts.simd && opts.reciprocal_media {
        detect()
    } else {
        SimdBackend::Scalar
    }
}

/// SIMD velocity update — bit-identical to
/// `update_velocity(…, optimized = true)`.
pub fn update_velocity_simd(state: &mut WaveState, med: &Medium, dth: f32, block: BlockSpec) {
    let win = Win::full(state.dims);
    update_velocity_backend_win(state, med, dth, block, win, detect());
}

/// SIMD stress update (optional attenuation) — bit-identical to
/// `update_stress(…, optimized = true)`.
pub fn update_stress_simd(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
) {
    let win = Win::full(state.dims);
    update_stress_backend_win(state, med, atten, dth, dt, block, win, detect());
}

/// Velocity update over `win` (LTS clusters) on an explicit
/// backend; panics if the CPU lacks it. Bit-identical to the fused pass
/// restricted to `win`: the vector loop restarts at `win.i0` with the same
/// expression tree (unaligned loads, no FMA) and per-cell updates are
/// window-invariant.
pub fn update_velocity_backend_win(
    state: &mut WaveState,
    med: &Medium,
    dth: f32,
    block: BlockSpec,
    win: Win,
    backend: SimdBackend,
) {
    assert!(backend.available(), "{} not supported by this CPU", backend.name());
    if win.is_empty() {
        return;
    }
    let _ftz = FlushGuard::enter();
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        SimdBackend::Avx2 => unsafe { velocity_avx2(state, med, dth, block, win) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        SimdBackend::Sse2 => unsafe { velocity_sse2(state, med, dth, block, win) },
        // SAFETY: the f32 instantiation performs ordinary slice-derived
        // pointer accesses with the same bounds as the scalar kernel.
        _ => unsafe { velocity_body::<f32>(state, med, dth, block, win) },
    }
}

/// Stress update over `win` on an explicit backend — see
/// [`update_velocity_backend_win`].
#[allow(clippy::too_many_arguments)]
pub fn update_stress_backend_win(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    win: Win,
    backend: SimdBackend,
) {
    stress_backend_win_fold(state, med, atten, dth, dt, block, win, backend, None);
}

/// [`update_stress_backend_win`] with the sponge folded into the row walk
/// (see [`SpongeFold`]); `None` is the plain update.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stress_backend_win_fold(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    win: Win,
    backend: SimdBackend,
    fold: Option<&SpongeFold>,
) {
    assert!(backend.available(), "{} not supported by this CPU", backend.name());
    if win.is_empty() {
        return;
    }
    let _ftz = FlushGuard::enter();
    match backend {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        SimdBackend::Avx2 => unsafe { stress_avx2(state, med, atten, dth, dt, block, win, fold) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: availability asserted above.
        SimdBackend::Sse2 => unsafe { stress_sse2(state, med, atten, dth, dt, block, win, fold) },
        // SAFETY: as for the velocity fallback.
        _ => unsafe { stress_body::<f32>(state, med, atten, dth, dt, block, win, fold) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn velocity_avx2(state: &mut WaveState, med: &Medium, dth: f32, block: BlockSpec, win: Win) {
    velocity_body::<x86::V8>(state, med, dth, block, win)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn velocity_sse2(state: &mut WaveState, med: &Medium, dth: f32, block: BlockSpec, win: Win) {
    velocity_body::<x86::V4>(state, med, dth, block, win)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn stress_avx2(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    win: Win,
    fold: Option<&SpongeFold>,
) {
    stress_body::<x86::V8>(state, med, atten, dth, dt, block, win, fold)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
#[allow(clippy::too_many_arguments)]
unsafe fn stress_sse2(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    win: Win,
    fold: Option<&SpongeFold>,
) {
    stress_body::<x86::V4>(state, med, atten, dth, dt, block, win, fold)
}

/// `WIDTH` consecutive f32 lanes and the four arithmetic ops the kernels
/// need. Arithmetic methods are safe to *call* but instantiating the x86
/// impls off-CPU is UB — upheld by the `available()` assert at dispatch.
pub(crate) trait Lanes: Copy {
    const WIDTH: usize;
    /// # Safety
    /// `p .. p + WIDTH` must be readable.
    unsafe fn load(p: *const f32) -> Self;
    /// # Safety
    /// `p .. p + WIDTH` must be writable.
    unsafe fn store(self, p: *mut f32);
    fn splat(v: f32) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
}

impl Lanes for f32 {
    const WIDTH: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    fn splat(v: f32) -> Self {
        v
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self / o
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
    use super::Lanes;
    use core::arch::x86_64::*;

    /// 8-lane AVX vector. Only constructed under `#[target_feature(enable =
    /// "avx2")]` wrappers after runtime detection.
    #[derive(Clone, Copy)]
    pub struct V8(__m256);

    impl Lanes for V8 {
        const WIDTH: usize = 8;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V8(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: V8 values only exist inside avx2-detected dispatch.
            V8(unsafe { _mm256_set1_ps(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V8(unsafe { _mm256_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V8(unsafe { _mm256_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V8(unsafe { _mm256_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V8(unsafe { _mm256_div_ps(self.0, o.0) })
        }
    }

    /// 4-lane SSE2 vector (baseline on x86_64, kept for the narrow-vector
    /// contrast in benches and as the pre-AVX fallback).
    #[derive(Clone, Copy)]
    pub struct V4(__m128);

    impl Lanes for V4 {
        const WIDTH: usize = 4;
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            V4(_mm_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm_storeu_ps(p, self.0)
        }
        #[inline(always)]
        fn splat(v: f32) -> Self {
            // SAFETY: V4 values only exist inside sse2-detected dispatch.
            V4(unsafe { _mm_set1_ps(v) })
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V4(unsafe { _mm_add_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V4(unsafe { _mm_sub_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V4(unsafe { _mm_mul_ps(self.0, o.0) })
        }
        #[inline(always)]
        fn div(self, o: Self) -> Self {
            // SAFETY: as for `splat`.
            V4(unsafe { _mm_div_ps(self.0, o.0) })
        }
    }
}

/// Raw field pointers for the velocity body (Copy, so the inner loops can
/// pass them freely without borrow juggling).
#[derive(Clone, Copy)]
pub(crate) struct VelPtrs {
    pub vx: *mut f32,
    pub vy: *mut f32,
    pub vz: *mut f32,
    pub sxx: *const f32,
    pub syy: *const f32,
    pub szz: *const f32,
    pub sxy: *const f32,
    pub sxz: *const f32,
    pub syz: *const f32,
    pub rx: *const f32,
    pub ry: *const f32,
    pub rz: *const f32,
}

impl VelPtrs {
    pub fn new(state: &mut WaveState, med: &Medium) -> Self {
        Self {
            vx: state.vx.as_mut_slice().as_mut_ptr(),
            vy: state.vy.as_mut_slice().as_mut_ptr(),
            vz: state.vz.as_mut_slice().as_mut_ptr(),
            sxx: state.sxx.as_slice().as_ptr(),
            syy: state.syy.as_slice().as_ptr(),
            szz: state.szz.as_slice().as_ptr(),
            sxy: state.sxy.as_slice().as_ptr(),
            sxz: state.sxz.as_slice().as_ptr(),
            syz: state.syz.as_slice().as_ptr(),
            rx: med.rhox_inv.as_ref().expect("precompute() not called").as_slice().as_ptr(),
            ry: med.rhoy_inv.as_ref().expect("precompute() not called").as_slice().as_ptr(),
            rz: med.rhoz_inv.as_ref().expect("precompute() not called").as_slice().as_ptr(),
        }
    }
}

/// One velocity chunk: lanes `[o, o + WIDTH)` of all three components,
/// mirroring the scalar expression tree term for term.
///
/// # Safety
/// All pointers must cover the padded array and `o ± 2·stride + WIDTH − 1`
/// must stay inside it — guaranteed for interior offsets of a halo-2 array
/// when the caller bounds the vector loop by `i + WIDTH <= nx` (the last
/// lane then touches exactly the indices the scalar loop touches at
/// `i = nx − 1`).
#[inline(always)]
unsafe fn vel_chunk<V: Lanes>(p: VelPtrs, o: usize, sy: usize, sz: usize, dth: f32) {
    let c1 = V::splat(C1);
    let c2 = V::splat(C2);
    let dth = V::splat(dth);
    let acc = c1
        .mul(V::load(p.sxx.add(o + 1)).sub(V::load(p.sxx.add(o))))
        .add(c2.mul(V::load(p.sxx.add(o + 2)).sub(V::load(p.sxx.add(o - 1)))))
        .add(c1.mul(V::load(p.sxy.add(o)).sub(V::load(p.sxy.add(o - sy)))))
        .add(c2.mul(V::load(p.sxy.add(o + sy)).sub(V::load(p.sxy.add(o - 2 * sy)))))
        .add(c1.mul(V::load(p.sxz.add(o)).sub(V::load(p.sxz.add(o - sz)))))
        .add(c2.mul(V::load(p.sxz.add(o + sz)).sub(V::load(p.sxz.add(o - 2 * sz)))));
    V::load(p.vx.add(o) as *const f32)
        .add(dth.mul(V::load(p.rx.add(o))).mul(acc))
        .store(p.vx.add(o));
    let acc = c1
        .mul(V::load(p.sxy.add(o)).sub(V::load(p.sxy.add(o - 1))))
        .add(c2.mul(V::load(p.sxy.add(o + 1)).sub(V::load(p.sxy.add(o - 2)))))
        .add(c1.mul(V::load(p.syy.add(o + sy)).sub(V::load(p.syy.add(o)))))
        .add(c2.mul(V::load(p.syy.add(o + 2 * sy)).sub(V::load(p.syy.add(o - sy)))))
        .add(c1.mul(V::load(p.syz.add(o)).sub(V::load(p.syz.add(o - sz)))))
        .add(c2.mul(V::load(p.syz.add(o + sz)).sub(V::load(p.syz.add(o - 2 * sz)))));
    V::load(p.vy.add(o) as *const f32)
        .add(dth.mul(V::load(p.ry.add(o))).mul(acc))
        .store(p.vy.add(o));
    let acc = c1
        .mul(V::load(p.sxz.add(o)).sub(V::load(p.sxz.add(o - 1))))
        .add(c2.mul(V::load(p.sxz.add(o + 1)).sub(V::load(p.sxz.add(o - 2)))))
        .add(c1.mul(V::load(p.syz.add(o)).sub(V::load(p.syz.add(o - sy)))))
        .add(c2.mul(V::load(p.syz.add(o + sy)).sub(V::load(p.syz.add(o - 2 * sy)))))
        .add(c1.mul(V::load(p.szz.add(o + sz)).sub(V::load(p.szz.add(o)))))
        .add(c2.mul(V::load(p.szz.add(o + 2 * sz)).sub(V::load(p.szz.add(o - sz)))));
    V::load(p.vz.add(o) as *const f32)
        .add(dth.mul(V::load(p.rz.add(o))).mul(acc))
        .store(p.vz.add(o));
}

/// Generic velocity driver: vector chunks along x, the ragged tail re-runs
/// the same body at lane width 1 so every element sees the identical
/// expression tree.
///
/// # Safety
/// Caller must ensure `V`'s instruction set is available and `win` lies
/// inside the grid, so every lane's stencil reach stays inside the padded
/// fields; debug builds check the reach and the extent per row
/// ([`reach_in_bounds`], [`row_in_extent`]).
#[inline(always)]
unsafe fn velocity_body<V: Lanes>(
    state: &mut WaveState,
    med: &Medium,
    dth: f32,
    block: BlockSpec,
    win: Win,
) {
    let (sy, sz, base) = layout(state);
    let len = state.vx.as_slice().len();
    let p = VelPtrs::new(state, med);
    for (jr, kr) in blocked_tiles_range(win.j0, win.j1, win.k0, win.k1, block) {
        for k in kr {
            for j in jr.clone() {
                debug_assert!(fpmode::is_flushing());
                let row = base + sy * j + sz * k;
                debug_assert!(
                    reach_in_bounds(row + win.i0, win.i1 - win.i0, (sy, sz), len),
                    "velocity row ({j}, {k}) of {win:?} reaches outside the padded fields"
                );
                debug_assert!(
                    row_in_extent(win, j, k, state.dims),
                    "velocity row ({j}, {k}) of {win:?} leaves the {:?} extent",
                    state.dims
                );
                let mut i = win.i0;
                while i + V::WIDTH <= win.i1 {
                    vel_chunk::<V>(p, row + i, sy, sz, dth);
                    i += V::WIDTH;
                }
                while i < win.i1 {
                    vel_chunk::<f32>(p, row + i, sy, sz, dth);
                    i += 1;
                }
            }
        }
    }
}

/// Raw field pointers for the stress body.
#[derive(Clone, Copy)]
pub(crate) struct StressPtrs {
    /// Read by the update; written only by a folded velocity sponge.
    pub vx: *mut f32,
    pub vy: *mut f32,
    pub vz: *mut f32,
    pub sxx: *mut f32,
    pub syy: *mut f32,
    pub szz: *mut f32,
    pub sxy: *mut f32,
    pub sxz: *mut f32,
    pub syz: *mut f32,
    pub lam: *const f32,
    pub mu: *const f32,
    pub mxy: *const f32,
    pub mxz: *const f32,
    pub myz: *const f32,
}

impl StressPtrs {
    pub fn new(state: &mut WaveState, med: &Medium) -> Self {
        Self {
            vx: state.vx.as_mut_slice().as_mut_ptr(),
            vy: state.vy.as_mut_slice().as_mut_ptr(),
            vz: state.vz.as_mut_slice().as_mut_ptr(),
            sxx: state.sxx.as_mut_slice().as_mut_ptr(),
            syy: state.syy.as_mut_slice().as_mut_ptr(),
            szz: state.szz.as_mut_slice().as_mut_ptr(),
            sxy: state.sxy.as_mut_slice().as_mut_ptr(),
            sxz: state.sxz.as_mut_slice().as_mut_ptr(),
            syz: state.syz.as_mut_slice().as_mut_ptr(),
            lam: med.lam.as_slice().as_ptr(),
            mu: med.mu.as_slice().as_ptr(),
            mxy: med.mu_xy.as_ref().expect("precompute() not called").as_slice().as_ptr(),
            mxz: med.mu_xz.as_ref().expect("precompute() not called").as_slice().as_ptr(),
            myz: med.mu_yz.as_ref().expect("precompute() not called").as_slice().as_ptr(),
        }
    }
}

/// Memory-variable and constant-Q coefficient pointers (attenuation only).
#[derive(Clone, Copy)]
struct AnelasticPtrs {
    zxx: *mut f32,
    zyy: *mut f32,
    zzz: *mut f32,
    zxy: *mut f32,
    zxz: *mut f32,
    zyz: *mut f32,
    a: *const f32,
    cs: *const f32,
    cp: *const f32,
}

/// Lane version of the kernels' `anelastic` helper: update the memory
/// variable in place and return the corrected stress increment. Same
/// association as the scalar: `a·ζ + ((1−a)·c)·(Δ/dt)`, then `Δ − dt·ζ`.
///
/// # Safety
/// `zp + o .. zp + o + WIDTH` must be in bounds.
#[inline(always)]
unsafe fn anelastic_chunk<V: Lanes>(delta: V, zp: *mut f32, o: usize, a: V, c: V, dt: V) -> V {
    let z = a
        .mul(V::load(zp.add(o) as *const f32))
        .add(V::splat(1.0).sub(a).mul(c).mul(delta.div(dt)));
    z.store(zp.add(o));
    delta.sub(dt.mul(z))
}

/// One stress chunk: lanes `[o, o + WIDTH)` of all six components (plus
/// memory variables when attenuation is on), mirroring the scalar
/// expression tree term for term. With `damp` — the row's Cerjan factors
/// `(gx at lane 0, gy·gz)` — each updated stress is multiplied by
/// `gx·(gy·gz)` before it is stored, which is what damping the stored
/// value in a later pass computes.
///
/// # Safety
/// Same bounds contract as [`vel_chunk`]; `damp.0 .. + WIDTH` readable.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn stress_chunk<V: Lanes>(
    p: StressPtrs,
    an: Option<AnelasticPtrs>,
    o: usize,
    sy: usize,
    sz: usize,
    dth: f32,
    dt: f32,
    damp: Option<(*const f32, f32)>,
) {
    let g = damp.map(|(gx, gjk)| V::load(gx).mul(V::splat(gjk)));
    let put = |f: *mut f32, delta: V| {
        let s = V::load(f.add(o) as *const f32).add(delta);
        g.map_or(s, |g| s.mul(g)).store(f.add(o));
    };
    let c1 = V::splat(C1);
    let c2 = V::splat(C2);
    let dthv = V::splat(dth);
    let exx = c1
        .mul(V::load(p.vx.add(o)).sub(V::load(p.vx.add(o - 1))))
        .add(c2.mul(V::load(p.vx.add(o + 1)).sub(V::load(p.vx.add(o - 2)))));
    let eyy = c1
        .mul(V::load(p.vy.add(o)).sub(V::load(p.vy.add(o - sy))))
        .add(c2.mul(V::load(p.vy.add(o + sy)).sub(V::load(p.vy.add(o - 2 * sy)))));
    let ezz = c1
        .mul(V::load(p.vz.add(o)).sub(V::load(p.vz.add(o - sz))))
        .add(c2.mul(V::load(p.vz.add(o + sz)).sub(V::load(p.vz.add(o - 2 * sz)))));
    let tr = exx.add(eyy).add(ezz);
    let l = V::load(p.lam.add(o));
    let m2 = V::splat(2.0).mul(V::load(p.mu.add(o)));
    let dxy = dthv.mul(V::load(p.mxy.add(o))).mul(
        c1.mul(V::load(p.vx.add(o + sy)).sub(V::load(p.vx.add(o))))
            .add(c2.mul(V::load(p.vx.add(o + 2 * sy)).sub(V::load(p.vx.add(o - sy)))))
            .add(c1.mul(V::load(p.vy.add(o + 1)).sub(V::load(p.vy.add(o)))))
            .add(c2.mul(V::load(p.vy.add(o + 2)).sub(V::load(p.vy.add(o - 1))))),
    );
    let dxz = dthv.mul(V::load(p.mxz.add(o))).mul(
        c1.mul(V::load(p.vx.add(o + sz)).sub(V::load(p.vx.add(o))))
            .add(c2.mul(V::load(p.vx.add(o + 2 * sz)).sub(V::load(p.vx.add(o - sz)))))
            .add(c1.mul(V::load(p.vz.add(o + 1)).sub(V::load(p.vz.add(o)))))
            .add(c2.mul(V::load(p.vz.add(o + 2)).sub(V::load(p.vz.add(o - 1))))),
    );
    let dyz = dthv.mul(V::load(p.myz.add(o))).mul(
        c1.mul(V::load(p.vy.add(o + sz)).sub(V::load(p.vy.add(o))))
            .add(c2.mul(V::load(p.vy.add(o + 2 * sz)).sub(V::load(p.vy.add(o - sz)))))
            .add(c1.mul(V::load(p.vz.add(o + sy)).sub(V::load(p.vz.add(o)))))
            .add(c2.mul(V::load(p.vz.add(o + 2 * sy)).sub(V::load(p.vz.add(o - sy))))),
    );
    let dxx = dthv.mul(l.mul(tr).add(m2.mul(exx)));
    let dyy = dthv.mul(l.mul(tr).add(m2.mul(eyy)));
    let dzz = dthv.mul(l.mul(tr).add(m2.mul(ezz)));
    match an {
        Some(an) => {
            let a = V::load(an.a.add(o));
            let cs = V::load(an.cs.add(o));
            let cp = V::load(an.cp.add(o));
            let dtv = V::splat(dt);
            put(p.sxx, anelastic_chunk::<V>(dxx, an.zxx, o, a, cp, dtv));
            put(p.syy, anelastic_chunk::<V>(dyy, an.zyy, o, a, cp, dtv));
            put(p.szz, anelastic_chunk::<V>(dzz, an.zzz, o, a, cp, dtv));
            put(p.sxy, anelastic_chunk::<V>(dxy, an.zxy, o, a, cs, dtv));
            put(p.sxz, anelastic_chunk::<V>(dxz, an.zxz, o, a, cs, dtv));
            put(p.syz, anelastic_chunk::<V>(dyz, an.zyz, o, a, cs, dtv));
        }
        None => {
            put(p.sxx, dxx);
            put(p.syy, dyy);
            put(p.szz, dzz);
            put(p.sxy, dxy);
            put(p.sxz, dxz);
            put(p.syz, dyz);
        }
    }
}

/// `field[o..o+WIDTH] += delta`.
///
/// # Safety
/// `f + o .. f + o + WIDTH` must be in bounds.
#[inline(always)]
pub(crate) unsafe fn accumulate<V: Lanes>(f: *mut f32, o: usize, delta: V) {
    V::load(f.add(o) as *const f32).add(delta).store(f.add(o));
}

/// `f[o..o + n] *= gx[..n] · gjk` for the three velocities: the Cerjan
/// factor of one row, formed as [`crate::boundary::Sponge::apply`] forms it.
///
/// # Safety
/// `f + o .. f + o + n` must be in bounds for every field, `gx .. gx + n`
/// readable.
#[inline(always)]
unsafe fn damp_row<V: Lanes>(fields: [*mut f32; 3], o: usize, gx: *const f32, gjk: f32, n: usize) {
    let mut i = 0;
    while i + V::WIDTH <= n {
        let g = V::load(gx.add(i)).mul(V::splat(gjk));
        for f in fields {
            V::load(f.add(o + i) as *const f32).mul(g).store(f.add(o + i));
        }
        i += V::WIDTH;
    }
    while i < n {
        let g = *gx.add(i) * gjk;
        for f in fields {
            *f.add(o + i) *= g;
        }
        i += 1;
    }
}

/// Generic stress driver — see [`velocity_body`]. With a `fold` the walk
/// does the sponge's work while the rows are in cache: a row's stresses
/// are damped as they are stored, and its epilogue retires the velocity
/// row two planes behind.
///
/// # Safety
/// As for [`velocity_body`]; the epilogue's row `o − 2·sz` is inside the
/// checked reach.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn stress_body<V: Lanes>(
    state: &mut WaveState,
    med: &Medium,
    atten: Option<&Attenuation>,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    win: Win,
    fold: Option<&SpongeFold>,
) {
    let (sy, sz, base) = layout(state);
    let len = state.vx.as_slice().len();
    let p = StressPtrs::new(state, med);
    // Anelasticity engages exactly when the scalar kernel's `if let` does:
    // memory variables allocated *and* coefficients supplied.
    let an = match (state.mem.as_mut(), atten) {
        (Some(m), Some(at)) => Some(AnelasticPtrs {
            zxx: m.xx.as_mut_slice().as_mut_ptr(),
            zyy: m.yy.as_mut_slice().as_mut_ptr(),
            zzz: m.zz.as_mut_slice().as_mut_ptr(),
            zxy: m.xy.as_mut_slice().as_mut_ptr(),
            zxz: m.xz.as_mut_slice().as_mut_ptr(),
            zyz: m.yz.as_mut_slice().as_mut_ptr(),
            a: at.decay.as_slice().as_ptr(),
            cs: at.cs.as_slice().as_ptr(),
            cp: at.cp.as_slice().as_ptr(),
        }),
        _ => None,
    };
    for (jr, kr) in blocked_tiles_range(win.j0, win.j1, win.k0, win.k1, block) {
        for k in kr {
            for j in jr.clone() {
                debug_assert!(fpmode::is_flushing());
                let row = base + sy * j + sz * k;
                debug_assert!(
                    reach_in_bounds(row + win.i0, win.i1 - win.i0, (sy, sz), len),
                    "stress row ({j}, {k}) of {win:?} reaches outside the padded fields"
                );
                debug_assert!(
                    row_in_extent(win, j, k, state.dims),
                    "stress row ({j}, {k}) of {win:?} leaves the {:?} extent",
                    state.dims
                );
                let damp = fold.filter(|f| !f.defers(j, k)).map(|f| f.sponge.row_factors(j, k));
                let at = |i: usize| damp.map(|(gx, gjk)| (gx[i..].as_ptr(), gjk));
                let mut i = win.i0;
                while i + V::WIDTH <= win.i1 {
                    stress_chunk::<V>(p, an, row + i, sy, sz, dth, dt, at(i));
                    i += V::WIDTH;
                }
                while i < win.i1 {
                    stress_chunk::<f32>(p, an, row + i, sy, sz, dth, dt, at(i));
                    i += 1;
                }
                if let Some(f) = fold.filter(|f| (f.retire.0 + 2..f.retire.1 + 2).contains(&k)) {
                    let (gx, gjk) = f.sponge.row_factors(j, k - 2);
                    let (o, n) = (row + win.i0 - 2 * sz, win.i1 - win.i0);
                    damp_row::<V>([p.vx, p.vy, p.vz], o, gx[win.i0..].as_ptr(), gjk, n);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::kernels::reference::{update_stress_win, update_velocity_win};
    use crate::state::MemoryVars;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::LayeredModel;
    use awp_grid::dims::{Dims3, Idx3};
    use awp_grid::stagger::Component;

    fn setup(d: Dims3, seed: u64) -> (Medium, WaveState) {
        let m = LayeredModel::loh1();
        let mesh = MeshGenerator::new(&m, d, 150.0).generate();
        let mut med = Medium::from_mesh(&mesh);
        med.precompute();
        let mut st = WaveState::new(d, false);
        let mut x = seed | 1;
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

    /// Every backend this CPU can run (shared with `solver::fold_tests`).
    pub(crate) fn backends() -> Vec<SimdBackend> {
        [SimdBackend::Avx2, SimdBackend::Sse2, SimdBackend::Scalar]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    /// Property dims: full-vector rows, ragged tails for both lane widths,
    /// rows narrower than any vector, and degenerate single-cell planes.
    const DIMS: [(usize, usize, usize); 8] = [
        (16, 12, 10),
        (13, 11, 9),
        (8, 8, 8),
        (7, 5, 4),
        (5, 3, 3),
        (3, 2, 2),
        (9, 1, 1),
        (33, 4, 3),
    ];

    fn assert_bits_equal(a: &WaveState, b: &WaveState, what: &str) {
        for c in Component::ALL {
            for (i, (x, y)) in
                a.field(c).as_slice().iter().zip(b.field(c).as_slice()).enumerate()
            {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: {c:?}[{i}] {x:e} vs {y:e}"
                );
            }
        }
    }

    #[test]
    fn detect_returns_an_available_backend() {
        let b = detect();
        assert!(b.available());
        assert!(b.lanes() >= 1);
        assert!(!b.name().is_empty());
        #[cfg(target_arch = "x86_64")]
        assert_ne!(b, SimdBackend::Scalar, "every x86_64 has at least SSE2");
    }

    #[test]
    fn velocity_matches_scalar_bitwise() {
        for backend in backends() {
            for (seed, &(nx, ny, nz)) in DIMS.iter().enumerate() {
                let d = Dims3::new(nx, ny, nz);
                let (med, st) = setup(d, 0x9e3779b9 + seed as u64);
                let mut scalar = st.clone();
                let mut simd = st;
                let (b, w) = (BlockSpec::JAGUAR, Win::full(d));
                update_velocity_win(&mut scalar, &med, 0.01, b, w);
                update_velocity_backend_win(&mut simd, &med, 0.01, b, w, backend);
                assert_bits_equal(&scalar, &simd, &format!("{} {d:?}", backend.name()));
            }
        }
    }

    #[test]
    fn stress_matches_scalar_bitwise() {
        for backend in backends() {
            for (seed, &(nx, ny, nz)) in DIMS.iter().enumerate() {
                let d = Dims3::new(nx, ny, nz);
                let (med, st) = setup(d, 0xdeadbeef + seed as u64);
                let mut scalar = st.clone();
                let mut simd = st;
                let (b, w) = (BlockSpec::new(3, 2), Win::full(d));
                update_stress_win(&mut scalar, &med, None, 0.01, 1e-3, b, w);
                update_stress_backend_win(&mut simd, &med, None, 0.01, 1e-3, b, w, backend);
                assert_bits_equal(&scalar, &simd, &format!("{} {d:?}", backend.name()));
            }
        }
    }

    #[test]
    fn anelastic_stress_matches_scalar_bitwise_over_steps() {
        for backend in backends() {
            let d = Dims3::new(11, 7, 6);
            let (med, st) = setup(d, 0xfeed);
            let at = Attenuation::new(&med, 1e-3, 0.1, 3.0, Idx3::new(0, 0, 0));
            let mut scalar = st.clone();
            scalar.mem = Some(MemoryVars::new(d));
            let mut simd = scalar.clone();
            // Multiple steps so memory-variable feedback is exercised.
            for _ in 0..3 {
                let (b, w) = (BlockSpec::JAGUAR, Win::full(d));
                update_stress_win(&mut scalar, &med, Some(&at), 0.01, 1e-3, b, w);
                update_stress_backend_win(&mut simd, &med, Some(&at), 0.01, 1e-3, b, w, backend);
            }
            assert_bits_equal(&scalar, &simd, backend.name());
            let (ms, mv) = (scalar.mem.unwrap(), simd.mem.unwrap());
            assert_eq!(ms.xx, mv.xx, "{}", backend.name());
            assert_eq!(ms.yz, mv.yz, "{}", backend.name());
        }
    }

    #[test]
    fn windowed_shell_interior_union_matches_fused() {
        // Running two-cell face boxes and the core they leave (any order)
        // must be bit-identical to the fused full-domain pass, per backend.
        for backend in backends() {
            for (seed, &(nx, ny, nz)) in DIMS.iter().enumerate() {
                let d = Dims3::new(nx, ny, nz);
                let (full, i1, j1) = (Win::full(d), (nx - 2).max(2), ny.saturating_sub(2));
                let wins = [
                    Win { i1: 2, ..full },
                    Win { i0: i1, ..full },
                    Win { i0: 2, i1, j0: j1, ..full },
                    Win { i0: 2, i1, j1, k1: 2.min(nz), ..full },
                    Win { i0: 2, i1, j1, k0: 2.min(nz), ..full },
                ];
                let (med, st) = setup(d, 0x5eed + seed as u64);
                let at = Attenuation::new(&med, 1e-3, 0.1, 3.0, Idx3::new(0, 0, 0));
                let mut fused = st.clone();
                fused.mem = Some(MemoryVars::new(d));
                let mut split = fused.clone();
                let (b, at) = (BlockSpec::new(3, 2), Some(&at));
                update_velocity_backend_win(&mut fused, &med, 0.01, b, full, backend);
                update_stress_backend_win(&mut fused, &med, at, 0.01, 1e-3, b, full, backend);
                for w in &wins {
                    update_velocity_backend_win(&mut split, &med, 0.01, b, *w, backend);
                }
                for w in &wins {
                    update_stress_backend_win(&mut split, &med, at, 0.01, 1e-3, b, *w, backend);
                }
                assert_bits_equal(&fused, &split, &format!("{} {d:?}", backend.name()));
                let (mf, ms) = (fused.mem.unwrap(), split.mem.unwrap());
                assert_eq!(mf.xx, ms.xx, "{} {d:?}", backend.name());
                assert_eq!(mf.yz, ms.yz, "{} {d:?}", backend.name());
            }
        }
    }

    #[test]
    fn simd_blocked_matches_simd_unblocked() {
        let d = Dims3::new(14, 10, 8);
        let (med, st) = setup(d, 0xabcd);
        let mut a = st.clone();
        let mut b = st;
        update_velocity_simd(&mut a, &med, 0.02, BlockSpec::JAGUAR);
        update_velocity_simd(&mut b, &med, 0.02, BlockSpec::UNBLOCKED);
        assert_bits_equal(&a, &b, "block invariance");
        update_stress_simd(&mut a, &med, None, 0.02, 1e-3, BlockSpec::new(2, 5));
        update_stress_simd(&mut b, &med, None, 0.02, 1e-3, BlockSpec::UNBLOCKED);
        assert_bits_equal(&a, &b, "block invariance (stress)");
    }

    /// A window one plane past the grid: the debug-build row check fires on
    /// the first row whose reach leaves the padded fields, before it runs.
    #[cfg(debug_assertions)]
    fn beyond_the_grid() -> (Medium, WaveState, Win) {
        let d = Dims3::new(13, 6, 5);
        let (med, st) = setup(d, 0x0b0b);
        (med, st, Win { k1: d.nz + 1, ..Win::full(d) })
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "velocity row (0, 5) of")]
    fn velocity_rows_outside_the_padded_fields_are_caught_in_debug_builds() {
        let (med, mut st, win) = beyond_the_grid();
        update_velocity_backend_win(&mut st, &med, 0.01, BlockSpec::UNBLOCKED, win, detect());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stress row (0, 5) of")]
    fn stress_rows_outside_the_padded_fields_are_caught_in_debug_builds() {
        let (med, mut st, win) = beyond_the_grid();
        let b = BlockSpec::UNBLOCKED;
        update_stress_backend_win(&mut st, &med, None, 0.01, 1e-3, b, win, detect());
    }

    /// A window one cell past the grid along x: every row runs into the
    /// next row's halo, which the flat reach check cannot see, so the
    /// per-axis extent check fires on the first row.
    #[cfg(debug_assertions)]
    fn past_the_x_extent() -> (Medium, WaveState, Win) {
        let d = Dims3::new(13, 6, 5);
        let (med, st) = setup(d, 0x0c0c);
        let win = Win { i1: d.nx + 1, ..Win::full(d) };
        let (sy, sz, base) = layout(&st);
        let len = st.vx.as_slice().len();
        assert!(reach_in_bounds(base, win.i1, (sy, sz), len), "the flat check must pass");
        (med, st, win)
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "velocity row (0, 0) of")]
    fn velocity_rows_past_the_x_extent_are_caught_in_debug_builds() {
        let (med, mut st, win) = past_the_x_extent();
        update_velocity_backend_win(&mut st, &med, 0.01, BlockSpec::UNBLOCKED, win, detect());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stress row (0, 0) of")]
    fn stress_rows_past_the_x_extent_are_caught_in_debug_builds() {
        let (med, mut st, win) = past_the_x_extent();
        let b = BlockSpec::UNBLOCKED;
        update_stress_backend_win(&mut st, &med, None, 0.01, 1e-3, b, win, detect());
    }
}
