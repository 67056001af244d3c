//! Multi-axial PML absorbing boundaries (paper §II.D).
//!
//! Implemented as a convolutional PML (recursive-convolution memory
//! variables; Komatitsch & Martin 2007) with the multi-axial stabilisation
//! of Meza-Fajardo & Papageorgiou (2008): inside the x-oriented layer the
//! y/z derivative directions are damped at a fraction `pmax` of the normal
//! profile, which is what keeps split PMLs stable "in the presence of
//! strong gradients of the media parameters".
//!
//! The implementation is a *correction pass*: the ordinary kernels run
//! everywhere; inside the PML slabs each directional derivative `D` gains
//! a convolved memory term `ψ ← b ψ + a D` and the field receives the
//! `coef·ψ` correction. This keeps the hot kernels untouched (the paper
//! similarly confines ABC work to edge processors, §III.A).
//!
//! Three things keep the pass cheap:
//!
//! * **Tabulated coefficients.** The damping profile along an axis takes
//!   only a handful of distinct values (`width` levels plus zero), so the
//!   three `(b, a)` pairs of a cell are a function of its (x, y, z) level
//!   triple. The f64 `exp`/division formula runs once per triple at
//!   construction; the passes only look the results up.
//! * **Zone-only ψ.** The absorbing zone clipped to the subdomain is a few
//!   disjoint boxes (damped-z slabs, damped-y strips between them,
//!   damped-x strips between those); ψ exists only there, 18 compact
//!   arrays per box. A rank or LTS cluster that holds no zone cell
//!   allocates nothing and its passes return immediately.
//! * **Branch-free rows.** A pass walks box ∩ window as contiguous i-rows
//!   through one [`Lanes`]-generic body (separate mul/add like the SIMD
//!   stencils, so every backend rounds identically) and stores ψ
//!   unconditionally. A term whose own damping is zero inside the zone
//!   (`pmax = 0` cross terms) has `(b, a) = (0, 0)`: its ψ stays `+0` and
//!   it contributes `+0`, which is what skipping it would.

use crate::kernels::layout;
use crate::medium::Medium;
use crate::shell::Win;
use crate::simd::{accumulate, Lanes, SimdBackend, StressPtrs, VelPtrs};
use crate::state::WaveState;
use awp_grid::decomp::Subdomain;
use awp_grid::dims::Dims3;
use awp_grid::fpmode::{self, FlushGuard};
use awp_grid::{C1, C2};

/// Number of ψ memory terms per zone cell (9 velocity-pass + 9
/// stress-pass).
const N_PSI: usize = 18;

// ψ indices, velocity pass.
const P_VX_X: usize = 0;
const P_VX_Y: usize = 1;
const P_VX_Z: usize = 2;
const P_VY_X: usize = 3;
const P_VY_Y: usize = 4;
const P_VY_Z: usize = 5;
const P_VZ_X: usize = 6;
const P_VZ_Y: usize = 7;
const P_VZ_Z: usize = 8;
// ψ indices, stress pass.
const P_EXX: usize = 9;
const P_EYY: usize = 10;
const P_EZZ: usize = 11;
const P_SXY_Y: usize = 12; // ∂y vx
const P_SXY_X: usize = 13; // ∂x vy
const P_SXZ_Z: usize = 14; // ∂z vx
const P_SXZ_X: usize = 15; // ∂x vz
const P_SYZ_Z: usize = 16; // ∂z vy
const P_SYZ_Y: usize = 17; // ∂y vz

/// Rows of the per-row coefficient scratch: `b` then `a` for the x, y and
/// z derivative directions.
const N_COEF: usize = 6;

/// Damping profile d(x) (1/s) along one *global* axis of `n` cells:
/// quadratic ramps of `width` cells from the `lo` and/or `hi` face.
fn axis_profile(n: usize, width: usize, d0: f64, lo: bool, hi: bool) -> Vec<f64> {
    (0..n)
        .map(|gi| {
            let mut d = 0.0;
            if lo && gi < width {
                let x = (width - gi) as f64 / width as f64;
                d += d0 * x * x;
            }
            if hi && gi + width >= n {
                let x = (gi + width + 1 - n) as f64 / width as f64;
                d += d0 * x * x;
            }
            d
        })
        .collect()
}

/// The three global damping profiles for a subdomain's decomposition
/// (x lo/hi, y lo/hi, z bottom; the top is the free surface), quadratic
/// with theoretical reflection coefficient `r0`. `vp_max` is the maximum
/// P speed of the *global* grid, so the profiles are functions of global
/// quantities only and every rank of every decomposition builds the same.
fn global_profiles(sub: &Subdomain, h: f64, vp_max: f64, width: usize, r0: f64) -> [Vec<f64>; 3] {
    assert!(width >= 2, "PML width must be at least 2 cells");
    let l = width as f64 * h;
    let d0 = -3.0 * vp_max * r0.ln() / (2.0 * l);
    let g = sub.decomp.global;
    [
        axis_profile(g.nx, width, d0, true, true),
        axis_profile(g.ny, width, d0, true, true),
        axis_profile(g.nz, width, d0, false, true),
    ]
}

/// Effective damping for a derivative along `axis` where the three
/// profiles read `d`: own-axis profile plus M-PML cross terms.
#[inline]
fn d_eff(axis: usize, d: [f64; 3], pmax: f64) -> f64 {
    match axis {
        0 => d[0] + pmax * (d[1] + d[2]),
        1 => d[1] + pmax * (d[0] + d[2]),
        _ => d[2] + pmax * (d[0] + d[1]),
    }
}

/// Recursive-convolution coefficients `(b, a)` for damping `d`, CFS
/// frequency shift `alpha` (1/s) and step `dt`.
#[inline]
fn coeffs(d: f64, alpha: f64, dt: f64) -> (f32, f32) {
    if d <= 0.0 {
        return (0.0, 0.0);
    }
    let b = (-(d + alpha) * dt).exp();
    let a = d / (d + alpha) * (b - 1.0);
    (b as f32, a as f32)
}

/// Distinct values of a global profile, ascending: the axis' damping
/// levels. A function of global indices only, so every rank of every
/// decomposition derives the same levels.
fn levels(global: &[f64]) -> Vec<f64> {
    let mut v = global.to_vec();
    v.sort_by(f64::total_cmp);
    v.dedup();
    v
}

/// Half-open index runs along one axis.
type Runs = Vec<(usize, usize)>;

/// The runs of `d[lo..hi]`, split into damped (`d > 0`) and clear.
fn runs(d: &[f64], lo: usize, hi: usize) -> (Runs, Runs) {
    let (mut damped, mut clear) = (Vec::new(), Vec::new());
    let mut start = lo;
    for i in lo..hi {
        if i + 1 == hi || (d[i + 1] > 0.0) != (d[i] > 0.0) {
            if d[i] > 0.0 { &mut damped } else { &mut clear }.push((start, i + 1));
            start = i + 1;
        }
    }
    (damped, clear)
}

/// One box of zone cells and its ψ memory: term `t` of the cell at
/// box-local (i, j, k) lives at `psi[t·cells + (k·nj + j)·ni + i]`.
#[derive(Debug, Clone)]
struct ZoneBox {
    win: Win,
    psi: Vec<f32>,
}

impl ZoneBox {
    fn new(win: Win) -> Self {
        Self { win, psi: vec![0.0; N_PSI * win.count()] }
    }
}

/// The M-PML state for one rank (or one LTS cluster's k-window of it).
#[derive(Debug, Clone)]
pub struct Mpml {
    dims: Dims3,
    /// Per local cell along x: its damping level. Along y and z the level
    /// is pre-multiplied by the table stride of that axis, so a cell's
    /// table index is `lx[i] + ly[j] + lz[k]`.
    lx: Vec<u32>,
    ly: Vec<u32>,
    lz: Vec<u32>,
    /// `[bx, ax, by, ay, bz, az]` per (x, y, z) level triple.
    table: Vec<[f32; N_COEF]>,
    boxes: Vec<ZoneBox>,
    backend: SimdBackend,
    /// Coefficients of the row being processed, expanded per cell:
    /// `N_COEF` rows of `dims.nx`.
    row: Vec<f32>,
}

impl Mpml {
    /// Build for a subdomain of a grid with spacing `h` and global maximum
    /// P speed `vp_max`. `width` cells per absorbing face (x lo/hi, y
    /// lo/hi, z bottom; the top is the free surface), quadratic profile
    /// with theoretical reflection coefficient `r0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        sub: &Subdomain,
        h: f64,
        vp_max: f64,
        width: usize,
        pmax: f64,
        dt: f64,
        f0: f64,
        r0: f64,
    ) -> Self {
        Self::for_window(sub, h, vp_max, width, pmax, dt, f0, r0, Win::full(sub.dims))
    }

    /// [`Mpml::new`] restricted to the zone cells inside `win` (an LTS
    /// cluster's k-slab): passes over cells outside it do nothing.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn for_window(
        sub: &Subdomain,
        h: f64,
        vp_max: f64,
        width: usize,
        pmax: f64,
        dt: f64,
        f0: f64,
        r0: f64,
        win: Win,
    ) -> Self {
        let global = global_profiles(sub, h, vp_max, width, r0);
        let (o, n) = (sub.origin, sub.dims);
        let local =
            [&global[0][o.i..o.i + n.nx], &global[1][o.j..o.j + n.ny], &global[2][o.k..o.k + n.nz]];

        // Zone ∩ win as disjoint boxes: damped-z slabs, damped-y strips
        // over the clear z runs, damped-x strips over the clear y runs.
        let (zd, zc) = runs(local[2], win.k0, win.k1);
        let (yd, yc) = runs(local[1], win.j0, win.j1);
        let (xd, _) = runs(local[0], win.i0, win.i1);
        let mut boxes = Vec::new();
        for &(k0, k1) in &zd {
            boxes.push(ZoneBox::new(Win { k0, k1, ..win }));
        }
        for &(k0, k1) in &zc {
            for &(j0, j1) in &yd {
                boxes.push(ZoneBox::new(Win { j0, j1, k0, k1, ..win }));
            }
            for &(j0, j1) in &yc {
                for &(i0, i1) in &xd {
                    boxes.push(ZoneBox::new(Win { i0, i1, j0, j1, k0, k1 }));
                }
            }
        }
        let mut pml = Self {
            dims: n,
            lx: Vec::new(),
            ly: Vec::new(),
            lz: Vec::new(),
            table: Vec::new(),
            boxes,
            backend: crate::simd::detect(),
            row: Vec::new(),
        };
        if pml.boxes.is_empty() {
            return pml;
        }

        let lv = [levels(&global[0]), levels(&global[1]), levels(&global[2])];
        let alpha = std::f64::consts::PI * f0;
        for &dz in &lv[2] {
            for &dy in &lv[1] {
                for &dx in &lv[0] {
                    let d = [dx, dy, dz];
                    let (bx, ax) = coeffs(d_eff(0, d, pmax), alpha, dt);
                    let (by, ay) = coeffs(d_eff(1, d, pmax), alpha, dt);
                    let (bz, az) = coeffs(d_eff(2, d, pmax), alpha, dt);
                    pml.table.push([bx, ax, by, ay, bz, az]);
                }
            }
        }
        let index = |axis: usize, stride: usize| -> Vec<u32> {
            local[axis]
                .iter()
                .map(|d| {
                    let level = lv[axis]
                        .binary_search_by(|v| v.total_cmp(d))
                        .expect("local profile values are global profile values");
                    (level * stride) as u32
                })
                .collect()
        };
        pml.lx = index(0, 1);
        pml.ly = index(1, lv[0].len());
        pml.lz = index(2, lv[0].len() * lv[1].len());
        pml.row = vec![0.0; N_COEF * n.nx];
        pml
    }

    /// Run the passes on `backend` instead of the widest one the CPU has
    /// (all backends round identically). Panics if the CPU lacks it.
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        assert!(backend.available(), "{} not supported by this CPU", backend.name());
        self.backend = backend;
        self
    }

    /// Apply the velocity-pass PML correction (after the velocity update).
    pub fn apply_velocity(&mut self, state: &mut WaveState, med: &Medium, dth: f32) {
        let win = Win::full(state.dims);
        self.apply_velocity_win(state, med, dth, win);
    }

    /// Windowed velocity-pass correction (overlap slabs, tiles). The ψ
    /// update at a cell reads only that cell's ψ and the frozen
    /// cross-field derivatives, so restricting to a window is bit-exact.
    pub fn apply_velocity_win(&mut self, state: &mut WaveState, med: &Medium, dth: f32, win: Win) {
        if self.boxes.is_empty() || win.is_empty() {
            return;
        }
        self.check_dims(state, med);
        let lay = layout(state);
        let p = VelPtrs::new(state, med);
        self.run(p, lay, dth, win);
    }

    /// Apply the stress-pass PML correction (after the stress update).
    pub fn apply_stress(&mut self, state: &mut WaveState, med: &Medium, dth: f32) {
        let win = Win::full(state.dims);
        self.apply_stress_win(state, med, dth, win);
    }

    /// Windowed stress-pass correction — see [`Mpml::apply_velocity_win`].
    pub fn apply_stress_win(&mut self, state: &mut WaveState, med: &Medium, dth: f32, win: Win) {
        if self.boxes.is_empty() || win.is_empty() {
            return;
        }
        self.check_dims(state, med);
        let lay = layout(state);
        let p = StressPtrs::new(state, med);
        self.run(p, lay, dth, win);
    }

    /// The row passes index the fields by this instance's box geometry
    /// through raw pointers: the arrays must have the extent it was built
    /// for (windows need no check — they are clipped to the boxes).
    fn check_dims(&self, state: &WaveState, med: &Medium) {
        assert!(
            state.dims == self.dims && med.dims == self.dims,
            "M-PML built for {:?} applied to state {:?} / medium {:?}",
            self.dims,
            state.dims,
            med.dims
        );
    }

    fn run<P: Pass>(&mut self, p: P, lay: (usize, usize, usize), dth: f32, win: Win) {
        let _ftz = FlushGuard::enter();
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `with_backend`/`detect` only select available
            // backends; `check_dims` ran, so `rows`' bounds contract holds.
            SimdBackend::Avx2 => unsafe { rows_avx2(self, p, lay, dth, win) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            SimdBackend::Sse2 => unsafe { rows_sse2(self, p, lay, dth, win) },
            // SAFETY: `check_dims` ran, so `rows`' bounds contract holds.
            _ => unsafe { rows::<f32, P>(self, p, lay, dth, win) },
        }
    }

    /// Zone cells this instance holds ψ for.
    pub fn zone_cells(&self) -> usize {
        self.boxes.iter().map(|b| b.win.count()).sum()
    }

    /// Zone cells inside `win` (the cells a windowed pass corrects).
    pub fn zone_cells_win(&self, win: Win) -> usize {
        self.boxes.iter().map(|b| b.win.intersect(win).count()).sum()
    }

    /// Heap bytes of ψ storage: 18 f32 per zone cell.
    pub fn psi_bytes(&self) -> usize {
        self.boxes.iter().map(|b| b.psi.len() * std::mem::size_of::<f32>()).sum()
    }

    /// Fraction of local cells inside the PML zone (diagnostics).
    pub fn zone_fraction(&self) -> f64 {
        self.zone_cells() as f64 / self.dims.count() as f64
    }

    /// ψ memory as named checkpoint fields, one per zone box, named
    /// `{prefix}psi{box}` (box order is fixed by the subdomain geometry).
    pub fn checkpoint_fields(&self, prefix: &str) -> Vec<(String, Vec<f32>)> {
        self.boxes
            .iter()
            .enumerate()
            .map(|(n, b)| (format!("{prefix}psi{n}"), b.psi.clone()))
            .collect()
    }

    /// Restore ψ from [`Mpml::checkpoint_fields`] output (other names are
    /// ignored).
    pub fn restore_fields(&mut self, prefix: &str, fields: &[(String, Vec<f32>)]) {
        for (name, data) in fields {
            let n = name.strip_prefix(prefix).and_then(|s| s.strip_prefix("psi"));
            if let Some(b) =
                n.and_then(|n| n.parse::<usize>().ok()).and_then(|n| self.boxes.get_mut(n))
            {
                b.psi.copy_from_slice(data);
            }
        }
    }
}

/// One of the two correction passes: the field pointers it works on and
/// its per-chunk body.
trait Pass: Copy {
    /// Correct lanes `[o, o + WIDTH)` of the padded fields.
    ///
    /// # Safety
    /// Field pointers must cover the padded arrays with
    /// `o ± 2·stride + WIDTH − 1` inside them; `psi + t·cells` for
    /// `t < N_PSI` and `co + r·cs` for `r < N_COEF` must each be valid for
    /// `WIDTH` lanes; `V`'s instruction set must be available.
    #[allow(clippy::too_many_arguments)]
    unsafe fn chunk<V: Lanes>(
        self,
        psi: *mut f32,
        cells: usize,
        co: *const f32,
        cs: usize,
        o: usize,
        sy: usize,
        sz: usize,
        dth: f32,
    );
}

/// 4th-order staggered difference bracket `C1·(f[p1] − f[m1]) + C2·(f[p2] − f[m2])`.
///
/// # Safety
/// The four offsets must be readable for `WIDTH` lanes.
#[inline(always)]
unsafe fn d4<V: Lanes>(f: *const f32, p1: usize, m1: usize, p2: usize, m2: usize) -> V {
    V::splat(C1)
        .mul(V::load(f.add(p1)).sub(V::load(f.add(m1))))
        .add(V::splat(C2).mul(V::load(f.add(p2)).sub(V::load(f.add(m2)))))
}

/// `ψ ← b·ψ + a·D`, returning the new ψ.
///
/// # Safety
/// `psi` must be valid for `WIDTH` lanes.
#[inline(always)]
unsafe fn convolve<V: Lanes>(psi: *mut f32, b: V, a: V, d: V) -> V {
    let new = b.mul(V::load(psi as *const f32)).add(a.mul(d));
    new.store(psi);
    new
}

impl Pass for VelPtrs {
    #[inline(always)]
    unsafe fn chunk<V: Lanes>(
        self,
        psi: *mut f32,
        cells: usize,
        co: *const f32,
        cs: usize,
        o: usize,
        sy: usize,
        sz: usize,
        dth: f32,
    ) {
        let f = self;
        let dth = V::splat(dth);
        let (bx, ax) = (V::load(co), V::load(co.add(cs)));
        let (by, ay) = (V::load(co.add(2 * cs)), V::load(co.add(3 * cs)));
        let (bz, az) = (V::load(co.add(4 * cs)), V::load(co.add(5 * cs)));
        let px = convolve(psi.add(P_VX_X * cells), bx, ax, d4::<V>(f.sxx, o + 1, o, o + 2, o - 1));
        let py = convolve(
            psi.add(P_VX_Y * cells),
            by,
            ay,
            d4::<V>(f.sxy, o, o - sy, o + sy, o - 2 * sy),
        );
        let pz = convolve(
            psi.add(P_VX_Z * cells),
            bz,
            az,
            d4::<V>(f.sxz, o, o - sz, o + sz, o - 2 * sz),
        );
        accumulate::<V>(f.vx, o, dth.mul(V::load(f.rx.add(o))).mul(px.add(py).add(pz)));
        let px = convolve(psi.add(P_VY_X * cells), bx, ax, d4::<V>(f.sxy, o, o - 1, o + 1, o - 2));
        let py = convolve(
            psi.add(P_VY_Y * cells),
            by,
            ay,
            d4::<V>(f.syy, o + sy, o, o + 2 * sy, o - sy),
        );
        let pz = convolve(
            psi.add(P_VY_Z * cells),
            bz,
            az,
            d4::<V>(f.syz, o, o - sz, o + sz, o - 2 * sz),
        );
        accumulate::<V>(f.vy, o, dth.mul(V::load(f.ry.add(o))).mul(px.add(py).add(pz)));
        let px = convolve(psi.add(P_VZ_X * cells), bx, ax, d4::<V>(f.sxz, o, o - 1, o + 1, o - 2));
        let py = convolve(
            psi.add(P_VZ_Y * cells),
            by,
            ay,
            d4::<V>(f.syz, o, o - sy, o + sy, o - 2 * sy),
        );
        let pz = convolve(
            psi.add(P_VZ_Z * cells),
            bz,
            az,
            d4::<V>(f.szz, o + sz, o, o + 2 * sz, o - sz),
        );
        accumulate::<V>(f.vz, o, dth.mul(V::load(f.rz.add(o))).mul(px.add(py).add(pz)));
    }
}

impl Pass for StressPtrs {
    #[inline(always)]
    unsafe fn chunk<V: Lanes>(
        self,
        psi: *mut f32,
        cells: usize,
        co: *const f32,
        cs: usize,
        o: usize,
        sy: usize,
        sz: usize,
        dth: f32,
    ) {
        let f = self;
        let dth = V::splat(dth);
        let (bx, ax) = (V::load(co), V::load(co.add(cs)));
        let (by, ay) = (V::load(co.add(2 * cs)), V::load(co.add(3 * cs)));
        let (bz, az) = (V::load(co.add(4 * cs)), V::load(co.add(5 * cs)));
        let pxx = convolve(psi.add(P_EXX * cells), bx, ax, d4::<V>(f.vx, o, o - 1, o + 1, o - 2));
        let pyy =
            convolve(psi.add(P_EYY * cells), by, ay, d4::<V>(f.vy, o, o - sy, o + sy, o - 2 * sy));
        let pzz =
            convolve(psi.add(P_EZZ * cells), bz, az, d4::<V>(f.vz, o, o - sz, o + sz, o - 2 * sz));
        let l = V::load(f.lam.add(o));
        let m2 = V::splat(2.0).mul(V::load(f.mu.add(o)));
        let ptr = pxx.add(pyy).add(pzz);
        accumulate::<V>(f.sxx, o, dth.mul(l.mul(ptr).add(m2.mul(pxx))));
        accumulate::<V>(f.syy, o, dth.mul(l.mul(ptr).add(m2.mul(pyy))));
        accumulate::<V>(f.szz, o, dth.mul(l.mul(ptr).add(m2.mul(pzz))));
        let p1 = convolve(
            psi.add(P_SXY_Y * cells),
            by,
            ay,
            d4::<V>(f.vx, o + sy, o, o + 2 * sy, o - sy),
        );
        let p2 = convolve(psi.add(P_SXY_X * cells), bx, ax, d4::<V>(f.vy, o + 1, o, o + 2, o - 1));
        accumulate::<V>(f.sxy, o, dth.mul(V::load(f.mxy.add(o))).mul(p1.add(p2)));
        let p1 = convolve(
            psi.add(P_SXZ_Z * cells),
            bz,
            az,
            d4::<V>(f.vx, o + sz, o, o + 2 * sz, o - sz),
        );
        let p2 = convolve(psi.add(P_SXZ_X * cells), bx, ax, d4::<V>(f.vz, o + 1, o, o + 2, o - 1));
        accumulate::<V>(f.sxz, o, dth.mul(V::load(f.mxz.add(o))).mul(p1.add(p2)));
        let p1 = convolve(
            psi.add(P_SYZ_Z * cells),
            bz,
            az,
            d4::<V>(f.vy, o + sz, o, o + 2 * sz, o - sz),
        );
        let p2 = convolve(
            psi.add(P_SYZ_Y * cells),
            by,
            ay,
            d4::<V>(f.vz, o + sy, o, o + 2 * sy, o - sy),
        );
        accumulate::<V>(f.syz, o, dth.mul(V::load(f.myz.add(o))).mul(p1.add(p2)));
    }
}

/// Generic pass driver: every zone box ∩ `win`, row by row; vector chunks
/// along x, the ragged tail re-runs the same body at lane width 1.
///
/// # Safety
/// `p` must point into padded arrays of `pml.dims` laid out as `lay`
/// (`kernels::layout`) and `V`'s instruction set must be available. Rows
/// are clipped to the boxes, which lie inside `pml.dims`, so the stencil
/// reach of 2 stays inside the halo; ψ and coefficient offsets stay
/// inside their box / scratch row by construction.
#[inline(always)]
unsafe fn rows<V: Lanes, P: Pass>(
    pml: &mut Mpml,
    p: P,
    (sy, sz, base): (usize, usize, usize),
    dth: f32,
    win: Win,
) {
    let Mpml { dims, lx, ly, lz, table, boxes, row, .. } = pml;
    let cs = dims.nx;
    let co = row.as_mut_ptr();
    for b in boxes.iter_mut() {
        let w = b.win.intersect(win);
        if w.is_empty() {
            continue;
        }
        let (ni, nj) = (b.win.i1 - b.win.i0, b.win.j1 - b.win.j0);
        let cells = b.win.count();
        let psi = b.psi.as_mut_ptr();
        let n = w.i1 - w.i0;
        // Rows sharing (y, z) levels share coefficients: expand once.
        let mut expanded = u32::MAX;
        for (k, &zl) in (w.k0..).zip(&lz[w.k0..w.k1]) {
            for (j, &yl) in (w.j0..).zip(&ly[w.j0..w.j1]) {
                let level = yl + zl;
                if level != expanded {
                    for (c, &l) in lx[w.i0..w.i1].iter().enumerate() {
                        let t = table[(level + l) as usize];
                        for (r, v) in t.iter().enumerate() {
                            *co.add(r * cs + c) = *v;
                        }
                    }
                    expanded = level;
                }
                debug_assert!(fpmode::is_flushing());
                let o = base + w.i0 + sy * j + sz * k;
                let q = psi.add(((k - b.win.k0) * nj + (j - b.win.j0)) * ni + (w.i0 - b.win.i0));
                let mut c = 0;
                while c + V::WIDTH <= n {
                    p.chunk::<V>(q.add(c), cells, co.add(c), cs, o + c, sy, sz, dth);
                    c += V::WIDTH;
                }
                while c < n {
                    p.chunk::<f32>(q.add(c), cells, co.add(c), cs, o + c, sy, sz, dth);
                    c += 1;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_avx2<P: Pass>(pml: &mut Mpml, p: P, lay: (usize, usize, usize), dth: f32, win: Win) {
    rows::<crate::simd::x86::V8, P>(pml, p, lay, dth, win)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn rows_sse2<P: Pass>(pml: &mut Mpml, p: P, lay: (usize, usize, usize), dth: f32, win: Win) {
    rows::<crate::simd::x86::V4, P>(pml, p, lay, dth, win)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::HomogeneousModel;
    use awp_grid::array3::Array3;
    use awp_grid::decomp::Decomp3;
    use awp_grid::dims::Idx3;
    use awp_grid::stagger::Component;

    const DT: f64 = 1e-3;
    const F0: f64 = 2.0;
    const R0: f64 = 1e-4;

    /// The per-cell formulation the row passes replaced, kept as the
    /// reference they must match bit for bit: `exp`/division per ψ term,
    /// a zone test per cell, conditional ψ stores, full-size ψ arrays.
    struct Reference {
        d: [Vec<f64>; 3],
        pmax: f64,
        alpha: f64,
        dt: f64,
        psi: Vec<Array3>,
    }

    impl Reference {
        fn new(sub: &Subdomain, med: &Medium, width: usize, pmax: f64) -> Self {
            let g = global_profiles(sub, med.h, med.vp_max(), width, R0);
            let (o, n) = (sub.origin, sub.dims);
            Self {
                d: [
                    g[0][o.i..o.i + n.nx].to_vec(),
                    g[1][o.j..o.j + n.ny].to_vec(),
                    g[2][o.k..o.k + n.nz].to_vec(),
                ],
                pmax,
                alpha: std::f64::consts::PI * F0,
                dt: DT,
                psi: (0..N_PSI).map(|_| Array3::new(n, awp_grid::HALO)).collect(),
            }
        }

        fn in_zone(&self, i: usize, j: usize, k: usize) -> bool {
            self.d[0][i] > 0.0 || self.d[1][j] > 0.0 || self.d[2][k] > 0.0
        }

        fn zone_cells(&self) -> usize {
            let n = [self.d[0].len(), self.d[1].len(), self.d[2].len()];
            let mut inside = 0;
            for k in 0..n[2] {
                for j in 0..n[1] {
                    inside += (0..n[0]).filter(|&i| self.in_zone(i, j, k)).count();
                }
            }
            inside
        }

        #[allow(clippy::too_many_arguments)]
        fn step_psi(
            &mut self,
            t: usize,
            o: usize,
            axis: usize,
            i: usize,
            j: usize,
            k: usize,
            bracket: f32,
        ) -> f32 {
            let d = d_eff(axis, [self.d[0][i], self.d[1][j], self.d[2][k]], self.pmax);
            let old = self.psi[t].as_slice()[o];
            let new = if d <= 0.0 {
                0.0
            } else {
                let (b, a) = coeffs(d, self.alpha, self.dt);
                b * old + a * bracket
            };
            if new != 0.0 || old != 0.0 {
                self.psi[t].as_mut_slice()[o] = new;
            }
            new
        }

        fn apply_velocity_win(&mut self, state: &mut WaveState, med: &Medium, dth: f32, win: Win) {
            let _ftz = FlushGuard::enter();
            let (sy, sz, base) = layout(state);
            let rx = med.rhox_inv.as_ref().unwrap().as_slice();
            let ry = med.rhoy_inv.as_ref().unwrap().as_slice();
            let rz = med.rhoz_inv.as_ref().unwrap().as_slice();
            let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, .. } = state;
            let (vx, vy, vz) = (vx.as_mut_slice(), vy.as_mut_slice(), vz.as_mut_slice());
            let (sxx, syy, szz) = (sxx.as_slice(), syy.as_slice(), szz.as_slice());
            let (sxy, sxz, syz) = (sxy.as_slice(), sxz.as_slice(), syz.as_slice());
            for k in win.k0..win.k1 {
                for j in win.j0..win.j1 {
                    for i in win.i0..win.i1 {
                        if !self.in_zone(i, j, k) {
                            continue;
                        }
                        let o = base + i + sy * j + sz * k;
                        let bx = C1 * (sxx[o + 1] - sxx[o]) + C2 * (sxx[o + 2] - sxx[o - 1]);
                        let by = C1 * (sxy[o] - sxy[o - sy]) + C2 * (sxy[o + sy] - sxy[o - 2 * sy]);
                        let bz = C1 * (sxz[o] - sxz[o - sz]) + C2 * (sxz[o + sz] - sxz[o - 2 * sz]);
                        let px = self.step_psi(P_VX_X, o, 0, i, j, k, bx);
                        let py = self.step_psi(P_VX_Y, o, 1, i, j, k, by);
                        let pz = self.step_psi(P_VX_Z, o, 2, i, j, k, bz);
                        vx[o] += dth * rx[o] * (px + py + pz);
                        let bx = C1 * (sxy[o] - sxy[o - 1]) + C2 * (sxy[o + 1] - sxy[o - 2]);
                        let by = C1 * (syy[o + sy] - syy[o]) + C2 * (syy[o + 2 * sy] - syy[o - sy]);
                        let bz = C1 * (syz[o] - syz[o - sz]) + C2 * (syz[o + sz] - syz[o - 2 * sz]);
                        let px = self.step_psi(P_VY_X, o, 0, i, j, k, bx);
                        let py = self.step_psi(P_VY_Y, o, 1, i, j, k, by);
                        let pz = self.step_psi(P_VY_Z, o, 2, i, j, k, bz);
                        vy[o] += dth * ry[o] * (px + py + pz);
                        let bx = C1 * (sxz[o] - sxz[o - 1]) + C2 * (sxz[o + 1] - sxz[o - 2]);
                        let by = C1 * (syz[o] - syz[o - sy]) + C2 * (syz[o + sy] - syz[o - 2 * sy]);
                        let bz = C1 * (szz[o + sz] - szz[o]) + C2 * (szz[o + 2 * sz] - szz[o - sz]);
                        let px = self.step_psi(P_VZ_X, o, 0, i, j, k, bx);
                        let py = self.step_psi(P_VZ_Y, o, 1, i, j, k, by);
                        let pz = self.step_psi(P_VZ_Z, o, 2, i, j, k, bz);
                        vz[o] += dth * rz[o] * (px + py + pz);
                    }
                }
            }
        }

        fn apply_stress_win(&mut self, state: &mut WaveState, med: &Medium, dth: f32, win: Win) {
            let _ftz = FlushGuard::enter();
            let (sy, sz, base) = layout(state);
            let lam = med.lam.as_slice();
            let mu = med.mu.as_slice();
            let mxy = med.mu_xy.as_ref().unwrap().as_slice();
            let mxz = med.mu_xz.as_ref().unwrap().as_slice();
            let myz = med.mu_yz.as_ref().unwrap().as_slice();
            let WaveState { vx, vy, vz, sxx, syy, szz, sxy, sxz, syz, .. } = state;
            let (vx, vy, vz) = (vx.as_slice(), vy.as_slice(), vz.as_slice());
            let (sxx, syy, szz) = (sxx.as_mut_slice(), syy.as_mut_slice(), szz.as_mut_slice());
            let (sxy, sxz, syz) = (sxy.as_mut_slice(), sxz.as_mut_slice(), syz.as_mut_slice());
            for k in win.k0..win.k1 {
                for j in win.j0..win.j1 {
                    for i in win.i0..win.i1 {
                        if !self.in_zone(i, j, k) {
                            continue;
                        }
                        let o = base + i + sy * j + sz * k;
                        let bexx = C1 * (vx[o] - vx[o - 1]) + C2 * (vx[o + 1] - vx[o - 2]);
                        let beyy = C1 * (vy[o] - vy[o - sy]) + C2 * (vy[o + sy] - vy[o - 2 * sy]);
                        let bezz = C1 * (vz[o] - vz[o - sz]) + C2 * (vz[o + sz] - vz[o - 2 * sz]);
                        let pxx = self.step_psi(P_EXX, o, 0, i, j, k, bexx);
                        let pyy = self.step_psi(P_EYY, o, 1, i, j, k, beyy);
                        let pzz = self.step_psi(P_EZZ, o, 2, i, j, k, bezz);
                        let l = lam[o];
                        let m2 = 2.0 * mu[o];
                        let ptr = pxx + pyy + pzz;
                        sxx[o] += dth * (l * ptr + m2 * pxx);
                        syy[o] += dth * (l * ptr + m2 * pyy);
                        szz[o] += dth * (l * ptr + m2 * pzz);
                        let bvxy = C1 * (vx[o + sy] - vx[o]) + C2 * (vx[o + 2 * sy] - vx[o - sy]);
                        let bvyx = C1 * (vy[o + 1] - vy[o]) + C2 * (vy[o + 2] - vy[o - 1]);
                        let p1 = self.step_psi(P_SXY_Y, o, 1, i, j, k, bvxy);
                        let p2 = self.step_psi(P_SXY_X, o, 0, i, j, k, bvyx);
                        sxy[o] += dth * mxy[o] * (p1 + p2);
                        let bvxz = C1 * (vx[o + sz] - vx[o]) + C2 * (vx[o + 2 * sz] - vx[o - sz]);
                        let bvzx = C1 * (vz[o + 1] - vz[o]) + C2 * (vz[o + 2] - vz[o - 1]);
                        let p1 = self.step_psi(P_SXZ_Z, o, 2, i, j, k, bvxz);
                        let p2 = self.step_psi(P_SXZ_X, o, 0, i, j, k, bvzx);
                        sxz[o] += dth * mxz[o] * (p1 + p2);
                        let bvyz = C1 * (vy[o + sz] - vy[o]) + C2 * (vy[o + 2 * sz] - vy[o - sz]);
                        let bvzy = C1 * (vz[o + sy] - vz[o]) + C2 * (vz[o + 2 * sy] - vz[o - sy]);
                        let p1 = self.step_psi(P_SYZ_Z, o, 2, i, j, k, bvyz);
                        let p2 = self.step_psi(P_SYZ_Y, o, 1, i, j, k, bvzy);
                        syz[o] += dth * myz[o] * (p1 + p2);
                    }
                }
            }
        }
    }

    fn rock(d: Dims3) -> Medium {
        let mesh = MeshGenerator::new(&HomogeneousModel::rock(), d, 100.0).generate();
        let mut med = Medium::from_mesh(&mesh);
        med.precompute();
        med
    }

    fn setup(d: Dims3, width: usize) -> (Subdomain, Medium, Mpml) {
        let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
        let med = rock(d);
        let pml = Mpml::new(&sub, med.h, med.vp_max(), width, 0.1, DT, F0, R0);
        (sub, med, pml)
    }

    /// A wavefield with every padded value drawn from a seeded xorshift.
    fn random_state(d: Dims3, seed: u64) -> WaveState {
        let mut st = WaveState::new(d, false);
        let mut x = seed | 1;
        for c in Component::ALL {
            for v in st.field_mut(c).as_mut_slice() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *v = ((x % 2000) as f32 / 1000.0 - 1.0) * 1e3;
            }
        }
        st
    }

    fn backends() -> Vec<SimdBackend> {
        [SimdBackend::Scalar, SimdBackend::Sse2, SimdBackend::Avx2]
            .into_iter()
            .filter(|b| b.available())
            .collect()
    }

    /// Fields of `fast` over its interior and every ψ it holds must carry
    /// the bits `reference` has at the same global cells (`at` = origin of
    /// `fast`'s subdomain inside the reference grid).
    fn assert_matches(
        fast: (&WaveState, &[&Mpml]),
        reference: (&WaveState, &Reference),
        at: Idx3,
        what: &str,
    ) {
        let (st, pmls) = fast;
        let (rst, r) = reference;
        let d = st.dims;
        let g = |i: usize, j: usize, k: usize| {
            ((i + at.i) as isize, (j + at.j) as isize, (k + at.k) as isize)
        };
        for c in Component::ALL {
            for k in 0..d.nz {
                for j in 0..d.ny {
                    for i in 0..d.nx {
                        let (gi, gj, gk) = g(i, j, k);
                        let a = st.field(c).get(i as isize, j as isize, k as isize);
                        let b = rst.field(c).get(gi, gj, gk);
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{what}: {c:?}({i},{j},{k}) {a:e} vs {b:e}"
                        );
                    }
                }
            }
        }
        let mut held = 0;
        for pml in pmls {
            for b in &pml.boxes {
                let w = b.win;
                let (ni, nj, cells) = (w.i1 - w.i0, w.j1 - w.j0, w.count());
                held += cells;
                for t in 0..N_PSI {
                    for k in w.k0..w.k1 {
                        for j in w.j0..w.j1 {
                            for i in w.i0..w.i1 {
                                let (gi, gj, gk) = g(i, j, k);
                                assert!(
                                    r.in_zone(gi as usize, gj as usize, gk as usize),
                                    "{what}: box cell outside zone"
                                );
                                let a = b.psi
                                    [t * cells + ((k - w.k0) * nj + (j - w.j0)) * ni + (i - w.i0)];
                                let e = r.psi[t].get(gi, gj, gk);
                                assert_eq!(
                                    a.to_bits(),
                                    e.to_bits(),
                                    "{what}: ψ{t}({i},{j},{k}) {a:e} vs {e:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
        // Boxes are disjoint and inside the zone, so holding as many cells
        // as the zone has means holding exactly the zone.
        if !pmls.is_empty() && d == rst.dims {
            assert_eq!(held, r.zone_cells(), "{what}: boxes must tile the zone");
        }
    }

    #[test]
    fn boxes_tile_expected_zone() {
        let (_, _, pml) = setup(Dims3::new(40, 40, 40), 10);
        // x: 10 lo + 10 hi of 40; y same; z: only bottom 10. Clear core
        // 20 × 20 × 30 ⇒ zone fraction 1 − 0.1875.
        assert!((pml.zone_fraction() - 0.8125).abs() < 1e-12, "{}", pml.zone_fraction());
        assert_eq!(pml.zone_cells(), 52_000);
        // z slab, 2 y strips, 2 x strips.
        assert_eq!(pml.boxes.len(), 5);
        assert_eq!(pml.psi_bytes(), N_PSI * 4 * 52_000);
        assert_eq!(
            pml.zone_cells_win(Win { i0: 0, i1: 40, j0: 0, j1: 40, k0: 30, k1: 40 }),
            16_000
        );
        assert_eq!(pml.zone_cells_win(Win { i0: 10, i1: 30, j0: 10, j1: 30, k0: 0, k1: 30 }), 0);
    }

    #[test]
    fn profile_and_coefficients_behave() {
        let p = axis_profile(40, 10, 500.0, true, true);
        assert!(p[0] > p[5], "profile decays inward");
        assert_eq!(p[20], 0.0);
        assert_eq!(p[0], p[39], "lo and hi ramps mirror");
        assert_eq!(levels(&p).len(), 11, "width levels plus zero");
        let z = axis_profile(40, 10, 500.0, false, true);
        assert_eq!(z[0], 0.0, "top face is the free surface");
        assert!(z[39] > 0.0);
        // Inside the x layer the y derivative is damped at pmax × the x
        // profile.
        let d = [p[0], 0.0, 0.0];
        assert!((d_eff(1, d, 0.1) / d_eff(0, d, 0.1) - 0.1).abs() < 1e-12);
        let (b, a) = coeffs(1000.0, std::f64::consts::PI * F0, DT);
        assert!(b > 0.0 && b < 1.0);
        assert!(a < 0.0, "correction opposes the derivative");
        assert_eq!(coeffs(0.0, 1.0, DT), (0.0, 0.0));
    }

    #[test]
    fn table_holds_the_per_cell_formula() {
        let d = Dims3::new(20, 18, 16);
        let (sub, med, pml) = setup(d, 5);
        let r = Reference::new(&sub, &med, 5, 0.1);
        for (k, j, i) in [(0, 0, 0), (15, 17, 19), (8, 9, 10), (14, 2, 10), (3, 9, 18)] {
            let t = pml.table[(pml.lx[i] + pml.ly[j] + pml.lz[k]) as usize];
            for axis in 0..3 {
                let de = d_eff(axis, [r.d[0][i], r.d[1][j], r.d[2][k]], 0.1);
                assert_eq!(
                    (t[2 * axis], t[2 * axis + 1]),
                    coeffs(de, r.alpha, DT),
                    "({i},{j},{k}) axis {axis}"
                );
            }
        }
    }

    #[test]
    fn interior_cells_untouched() {
        let d = Dims3::new(30, 30, 30);
        let (_, med, mut pml) = setup(d, 6);
        let mut st = WaveState::new(d, false);
        // Put a stress spike dead centre — inside no zone.
        st.sxx.set(15, 15, 15, 1e6);
        let before = st.clone();
        pml.apply_velocity(&mut st, &med, 0.01);
        // Centre cell and its neighbours are outside every slab → no change.
        assert_eq!(st.vx.get(15, 15, 15), before.vx.get(15, 15, 15));
        assert_eq!(st.vx.get(14, 15, 15), 0.0);
    }

    #[test]
    fn psi_accumulates_in_zone() {
        let d = Dims3::new(24, 24, 24);
        let (_, med, mut pml) = setup(d, 8);
        let mut st = WaveState::new(d, false);
        // Stress gradient inside the x-lo layer.
        st.sxx.set(2, 12, 12, 1e6);
        pml.apply_velocity(&mut st, &med, 0.01);
        // The correction must have moved vx near the spike.
        let v = st.vx.get(2, 12, 12).abs() + st.vx.get(1, 12, 12).abs();
        assert!(v > 0.0, "PML correction should act in the layer");
    }

    /// Full-grid passes, several steps so ψ feeds back, on every backend,
    /// with the cross terms on and off (`pmax = 0` leaves zone cells whose
    /// cross-direction terms have `(b, a) = (0, 0)`), on a grid with
    /// ragged SIMD tails.
    #[test]
    fn fast_pass_matches_reference_full_grid() {
        let d = Dims3::new(21, 19, 13);
        let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
        let med = rock(d);
        for pmax in [0.1, 0.0] {
            for backend in backends() {
                let what = format!("pmax {pmax} on {}", backend.name());
                let mut pml = Mpml::new(&sub, med.h, med.vp_max(), 5, pmax, DT, F0, R0)
                    .with_backend(backend);
                let mut r = Reference::new(&sub, &med, 5, pmax);
                let mut fast = random_state(d, 0xfeed);
                let mut slow = fast.clone();
                for _ in 0..3 {
                    pml.apply_velocity(&mut fast, &med, 0.01);
                    pml.apply_stress(&mut fast, &med, 0.01);
                    r.apply_velocity_win(&mut slow, &med, 0.01, Win::full(d));
                    r.apply_stress_win(&mut slow, &med, 0.01, Win::full(d));
                }
                assert_matches((&fast, &[&pml]), (&slow, &r), Idx3::new(0, 0, 0), &what);
                if pmax == 0.0 {
                    let mid = pml.table[(pml.lx[0] + pml.ly[9] + pml.lz[3]) as usize];
                    assert!(mid[1] < 0.0 && mid[2..] == [0.0; 4], "x layer only damps ∂x: {mid:?}");
                }
            }
        }
    }

    /// Two-cell face boxes around a core: windows that cut through every
    /// zone box along all three axes.
    #[test]
    fn fast_pass_matches_reference_over_shell_windows() {
        let d = Dims3::new(20, 18, 16);
        let (sub, med, mut pml) = setup(d, 5);
        let mut r = Reference::new(&sub, &med, 5, 0.1);
        let mut fast = random_state(d, 0x1234);
        let mut slow = fast.clone();
        let full = Win::full(d);
        let wins = [
            Win { i1: 2, ..full },
            Win { i0: 18, ..full },
            Win { i0: 2, i1: 18, j1: 2, ..full },
            Win { i0: 2, i1: 18, j0: 2, k0: 14, ..full },
            Win { i0: 2, i1: 18, j0: 2, k1: 14, ..full },
        ];
        for _ in 0..2 {
            for w in &wins {
                pml.apply_velocity_win(&mut fast, &med, 0.01, *w);
            }
            for w in &wins {
                pml.apply_stress_win(&mut fast, &med, 0.01, *w);
            }
            r.apply_velocity_win(&mut slow, &med, 0.01, Win::full(d));
            r.apply_stress_win(&mut slow, &med, 0.01, Win::full(d));
        }
        assert_matches((&fast, &[&pml]), (&slow, &r), Idx3::new(0, 0, 0), "shell windows");
    }

    /// k-slabs as LTS clusters cut them, each with a private instance that
    /// holds only its slab's zone cells.
    #[test]
    fn cluster_windows_match_reference_and_hold_only_their_slab() {
        let d = Dims3::new(20, 18, 16);
        let (sub, med, whole) = setup(d, 5);
        let slab = |k0, k1| Win { k0, k1, ..Win::full(d) };
        let wins = [slab(0, 4), slab(4, 9), slab(9, 16)];
        let mut parts: Vec<Mpml> = wins
            .iter()
            .map(|&w| Mpml::for_window(&sub, med.h, med.vp_max(), 5, 0.1, DT, F0, R0, w))
            .collect();
        for (p, w) in parts.iter().zip(&wins) {
            assert_eq!(p.zone_cells(), whole.zone_cells_win(*w));
            assert_eq!(p.psi_bytes(), N_PSI * 4 * p.zone_cells());
        }
        assert_eq!(parts.iter().map(Mpml::zone_cells).sum::<usize>(), whole.zone_cells());
        let mut r = Reference::new(&sub, &med, 5, 0.1);
        let mut fast = random_state(d, 0x77);
        let mut slow = fast.clone();
        for _ in 0..2 {
            for (p, w) in parts.iter_mut().zip(&wins) {
                p.apply_velocity_win(&mut fast, &med, 0.01, *w);
            }
            for (p, w) in parts.iter_mut().zip(&wins) {
                p.apply_stress_win(&mut fast, &med, 0.01, *w);
            }
            r.apply_velocity_win(&mut slow, &med, 0.01, Win::full(d));
            r.apply_stress_win(&mut slow, &med, 0.01, Win::full(d));
        }
        let parts: Vec<&Mpml> = parts.iter().collect();
        assert_matches((&fast, &parts), (&slow, &r), Idx3::new(0, 0, 0), "cluster slabs");
    }

    /// Every rank of 1/2/4/8-rank and finer decompositions — including
    /// subdomains narrower than the layer and a rank no layer reaches —
    /// computes the cells the undecomposed reference computes, with ψ
    /// storage proportional to its own zone cells.
    #[test]
    fn ranks_match_reference_and_store_only_their_zone() {
        let d = Dims3::new(24, 18, 16);
        let width = 5;
        let gsub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
        let gmed = rock(d);
        // A pass is a function of (input state, ψ): feed the velocity pass
        // `a` and the stress pass `b` twice each, so the second round runs
        // on the ψ the first left behind, and no halo exchange is needed
        // to give every rank the reference's inputs.
        let (a, b) = (random_state(d, 0xabcd), random_state(d, 0xef01));
        let rounds = |vel: &mut dyn FnMut(&mut WaveState),
                      stress: &mut dyn FnMut(&mut WaveState),
                      a: &WaveState,
                      b: &WaveState| {
            let mut last = None;
            for _ in 0..2 {
                let (mut va, mut sb) = (a.clone(), b.clone());
                vel(&mut va);
                stress(&mut sb);
                last = Some((va, sb));
            }
            last.unwrap()
        };
        let r = std::cell::RefCell::new(Reference::new(&gsub, &gmed, width, 0.1));
        let (ref_va, ref_sb) = rounds(
            &mut |st| r.borrow_mut().apply_velocity_win(st, &gmed, 0.01, Win::full(d)),
            &mut |st| r.borrow_mut().apply_stress_win(st, &gmed, 0.01, Win::full(d)),
            &a,
            &b,
        );
        let r = r.into_inner();
        // Cut a rank's padded local arrays out of a global state.
        let cut = |global: &WaveState, sub: &Subdomain| -> WaveState {
            let mut st = WaveState::new(sub.dims, false);
            let (o, n) = (sub.origin, sub.dims);
            let h = awp_grid::HALO as isize;
            for c in Component::ALL {
                for k in -h..n.nz as isize + h {
                    for j in -h..n.ny as isize + h {
                        for i in -h..n.nx as isize + h {
                            let v = global.field(c).get(
                                i + o.i as isize,
                                j + o.j as isize,
                                k + o.k as isize,
                            );
                            st.field_mut(c).set(i, j, k, v);
                        }
                    }
                }
            }
            st
        };
        let mut unreached = 0;
        for parts in [[1, 1, 1], [2, 1, 1], [2, 2, 1], [2, 2, 2], [8, 1, 1], [3, 3, 2]] {
            let decomp = Decomp3::new(d, parts);
            let mut zone = 0;
            for rank in 0..decomp.rank_count() {
                let sub = decomp.subdomain(rank);
                let what = format!("{parts:?} rank {rank}");
                let med = rock(sub.dims);
                let pml = Mpml::new(&sub, med.h, med.vp_max(), width, 0.1, DT, F0, R0);
                let pml = std::cell::RefCell::new(pml);
                let (la, lb) = (cut(&a, &sub), cut(&b, &sub));
                let (va, sb) = rounds(
                    &mut |st| pml.borrow_mut().apply_velocity(st, &med, 0.01),
                    &mut |st| pml.borrow_mut().apply_stress(st, &med, 0.01),
                    &la,
                    &lb,
                );
                let pml = pml.into_inner();
                assert_eq!(pml.psi_bytes(), N_PSI * 4 * pml.zone_cells(), "{what}");
                zone += pml.zone_cells();
                assert_matches((&va, &[]), (&ref_va, &r), sub.origin, &what);
                assert_matches((&sb, &[&pml]), (&ref_sb, &r), sub.origin, &what);
                if pml.zone_cells() == 0 {
                    unreached += 1;
                    assert_eq!(pml.psi_bytes(), 0, "{what}");
                    assert!(pml.table.is_empty() && pml.row.is_empty(), "{what}");
                    for c in Component::ALL {
                        assert_eq!(va.field(c), la.field(c), "{what}: no-op on {c:?}");
                        assert_eq!(sb.field(c), lb.field(c), "{what}: no-op on {c:?}");
                    }
                }
            }
            assert_eq!(zone, r.zone_cells(), "{parts:?}: rank zones must tile the global zone");
        }
        // [3, 3, 2]: the centre rank of the upper z half touches no layer.
        assert_eq!(unreached, 1);
    }

    #[test]
    fn psi_checkpoint_round_trips_and_ignores_foreign_names() {
        let d = Dims3::new(20, 18, 16);
        let (sub, med, mut pml) = setup(d, 5);
        let mut st = random_state(d, 0x99);
        pml.apply_velocity(&mut st, &med, 0.01);
        pml.apply_stress(&mut st, &med, 0.01);
        let mut fields = pml.checkpoint_fields("mpml_");
        assert_eq!(fields.len(), pml.boxes.len());
        assert_eq!(fields[0].0, "mpml_psi0");
        assert_eq!(fields.iter().map(|(_, v)| v.len() * 4).sum::<usize>(), pml.psi_bytes());
        fields.push(("lts1_mpml_psi0".into(), vec![7.0; 3]));
        fields.push(("vx".into(), vec![7.0; 3]));
        let mut fresh = Mpml::new(&sub, med.h, med.vp_max(), 5, 0.1, DT, F0, R0);
        fresh.restore_fields("mpml_", &fields);
        for (a, b) in fresh.boxes.iter().zip(&pml.boxes) {
            assert_eq!(a.psi, b.psi);
        }
    }
}
