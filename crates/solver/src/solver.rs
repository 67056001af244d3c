//! The AWM drivers: serial single-rank runs and rank-parallel runs over
//! the virtual cluster, following the flow of the paper's Fig. 6 ("wave
//! mode"): update velocities → share with neighbours → update stresses →
//! share → repeat, with Eq. (7) phase timing.

use crate::arena::HaloArena;
use crate::attenuation::Attenuation;
use crate::boundary::{
    apply_free_surface_stress, apply_free_surface_stress_win, apply_free_surface_velocity,
    owns_free_surface, Sponge,
};
use crate::config::{AbcKind, ConfigError, SolverConfig};
use crate::exchange::{
    exchange, exchange_k, finish_exchange, full_plan, reduced_stress_plan,
    reduced_velocity_plan, start_exchange, start_exchange_k, FieldPlan, Phase,
};
use crate::flops::FlopCounter;
use crate::lts::{LtsCluster, LtsPlan, LtsRuntime, MAX_CLUSTERS};
use crate::kernels::{update_stress, update_stress_win, update_velocity, update_velocity_win};
use crate::kernels_mt::{
    update_stress_mt, update_stress_mt_win, update_velocity_mt, update_velocity_mt_win,
};
use crate::medium::Medium;
use crate::pml::Mpml;
use crate::shell::{ShellPlan, Win};
use crate::simd::{
    update_stress_simd, update_stress_simd_win, update_velocity_simd, update_velocity_simd_win,
};
use crate::sourceinj::SourceInjector;
use crate::state::WaveState;
use crate::stations::{Seismogram, Station, StationRecorder};
use awp_cvm::mesh::Mesh;
use awp_grid::blocking::BlockSpec;
use awp_grid::decomp::{Decomp3, Subdomain};
use awp_grid::fpmode::FlushGuard;
use awp_grid::stagger::Component;
use awp_source::kinematic::KinematicSource;
use awp_source::partition::partition_spatial;
use awp_telemetry::{
    CausalKind, Counter as TelCounter, HistKind as TelHistKind, Phase as TelPhase, Recorder,
    Registry, Snapshot, NO_PEER,
};
use awp_vcluster::cluster::RankCtx;
use awp_vcluster::sched::fold_counters;
use awp_vcluster::{Category, Cluster, ExecSlot, HostTopology, SchedulePlan, Tile, TimeLedger};
use std::sync::Arc;
use std::time::Instant;

/// Kernel backend for one window of the shell/interior split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Scalar,
    Simd,
    Hybrid,
}

/// A scheduler [`Tile`] viewed as a kernel window.
fn win_of(t: Tile) -> Win {
    Win { i0: t.i0, i1: t.i1, j0: t.j0, j1: t.j1, k0: t.k0, k1: t.k1 }
}

/// A kernel window viewed as a scheduler [`Tile`].
fn tile_of(w: Win) -> Tile {
    Tile { i0: w.i0, i1: w.i1, j0: w.j0, j1: w.j1, k0: w.k0, k1: w.k1 }
}

/// Executor context for a velocity tile batch: raw pointers into the owner
/// rank's solver, valid from `submit` to `run_to_completion` per the
/// [`ExecSlot`] contract. Tiles partition the window into disjoint k-slabs
/// and the velocity kernel writes only velocity components of its own
/// cells while reading stresses (which the batch never writes), so the
/// concurrent mutable accesses through `state` never alias a written cell.
struct VelTileCtx {
    state: *mut WaveState,
    med: *const Medium,
    dth: f32,
    block: BlockSpec,
    simd: bool,
}

unsafe fn run_velocity_tile(p: *const (), t: Tile) {
    let c = unsafe { &*(p as *const VelTileCtx) };
    let state = unsafe { &mut *c.state };
    let med = unsafe { &*c.med };
    if c.simd {
        update_velocity_simd_win(state, med, c.dth, c.block, win_of(t));
    } else {
        update_velocity_win(state, med, c.dth, c.block, win_of(t));
    }
}

/// Executor context for a stress tile batch (same aliasing argument as
/// [`VelTileCtx`], with the field roles swapped: tiles write stresses and
/// memory variables of their own cells, read velocities). `atten` is null
/// when attenuation is off.
struct StressTileCtx {
    state: *mut WaveState,
    med: *const Medium,
    atten: *const Attenuation,
    dth: f32,
    dt: f32,
    block: BlockSpec,
    simd: bool,
}

unsafe fn run_stress_tile(p: *const (), t: Tile) {
    let c = unsafe { &*(p as *const StressTileCtx) };
    let state = unsafe { &mut *c.state };
    let med = unsafe { &*c.med };
    let atten = unsafe { c.atten.as_ref() };
    if c.simd {
        update_stress_simd_win(state, med, atten, c.dth, c.dt, c.block, win_of(t));
    } else {
        update_stress_win(state, med, atten, c.dth, c.dt, c.block, win_of(t));
    }
}

/// One rank's solver instance.
pub struct Solver {
    pub cfg: SolverConfig,
    pub sub: Subdomain,
    pub med: Medium,
    pub state: WaveState,
    pub atten: Option<Attenuation>,
    pub sponge: Option<Sponge>,
    pub mpml: Option<Mpml>,
    pub injector: SourceInjector,
    pub recorder: StationRecorder,
    pub step: usize,
    pub flops: FlopCounter,
    vel_plan: Vec<FieldPlan>,
    str_plan: Vec<FieldPlan>,
    /// Precomputed shell/interior decomposition for the overlap timestep.
    shell: ShellPlan,
    /// Pooled halo staging buffers (zero-copy exchange path).
    arena: HaloArena,
    /// Armed local-time-stepping runtime (`None` ⇒ fused global-dt path).
    lts: Option<LtsRuntime>,
}

/// Output of one rank's run.
#[derive(Debug)]
pub struct RankResult {
    pub rank: usize,
    pub seismograms: Vec<Seismogram>,
    pub ledger: TimeLedger,
    pub flops: u64,
    pub steps: usize,
    /// Final surface velocity field (decimated) if requested.
    pub surface: Option<Vec<f32>>,
    /// Running per-surface-cell peak |v_horizontal| (PGV map fragment),
    /// x-fastest over this rank's surface cells (empty off-surface ranks).
    pub pgv_map: Vec<f32>,
    /// This rank's telemetry snapshot: per-phase span totals
    /// (`Phase::{Send, Wait, Inject}` replace the old `ExchangeStats`),
    /// comm counters, and latency histograms. Empty/disabled unless the run
    /// was started with a telemetry registry
    /// ([`run_parallel_with`]/[`try_run_parallel_with`]) — the
    /// overlap-efficiency bench reads the `Wait` total to measure how much
    /// communication the split timestep hid.
    pub telemetry: Snapshot,
    pub sub: Subdomain,
}

impl Solver {
    /// Build a rank's solver from its local mesh and (rank-local) source.
    /// Panics on an invalid configuration — use [`Solver::try_new`] to get
    /// a recoverable [`ConfigError`] instead.
    pub fn new(
        cfg: SolverConfig,
        sub: Subdomain,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
    ) -> Self {
        Self::try_new(cfg, sub, mesh, source, stations).expect("invalid solver configuration")
    }

    /// Fallible constructor: checks option consistency
    /// (`SolverConfig::validate`) before building anything, so a bad
    /// engine/overlap combination fails the run gracefully instead of
    /// panicking a rank thread mid-step.
    pub fn try_new(
        cfg: SolverConfig,
        sub: Subdomain,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        assert_eq!(mesh.dims, sub.dims, "mesh does not match subdomain");
        let mut med = Medium::from_mesh(mesh);
        // CFL guard.
        let dt_max = 6.0 * cfg.h / (7.0 * 3.0f64.sqrt() * med.vp_max());
        assert!(
            cfg.dt <= dt_max * 1.0001,
            "dt {} violates the CFL bound {dt_max}",
            cfg.dt
        );
        med.precompute();
        let state = WaveState::new(sub.dims, cfg.attenuation);
        let atten = cfg.attenuation.then(|| {
            Attenuation::new(&med, cfg.dt, cfg.q_band.0, cfg.q_band.1, sub.origin)
        });
        let sponge = match cfg.abc {
            AbcKind::Sponge { width, amp } => {
                Some(Sponge::new(&sub, width, amp, cfg.free_surface))
            }
            _ => None,
        };
        let mpml = match cfg.abc {
            AbcKind::Mpml { width, pmax } => Some(
                Mpml::new(&sub, &med, width, pmax, cfg.dt, cfg.q_band.1.max(0.5), 1e-4)
                    .with_backend(crate::simd::backend_for(&cfg.opts)),
            ),
            _ => None,
        };
        let injector = SourceInjector::new(source, cfg.h);
        let recorder = StationRecorder::new(stations, &sub, cfg.dt);
        let (vel_plan, str_plan) = if cfg.opts.reduced_comm {
            (reduced_velocity_plan(), reduced_stress_plan())
        } else {
            (
                full_plan(&Component::VELOCITIES),
                full_plan(&Component::STRESSES),
            )
        };
        let shell = ShellPlan::new(&sub, cfg.free_surface && owns_free_surface(&sub));
        Ok(Self {
            cfg,
            sub,
            med,
            state,
            atten,
            sponge,
            mpml,
            injector,
            recorder,
            step: 0,
            flops: FlopCounter::default(),
            vel_plan,
            str_plan,
            shell,
            arena: HaloArena::new(),
            lts: None,
        })
    }

    /// Arm clustered local time stepping from a plan derived from the
    /// *global* velocity structure (so all ranks agree on the partition).
    /// Returns `true` when a multi-rate runtime is active; single-cluster
    /// plans — uniform media, or a profile whose CFL headroom never
    /// reaches one octave — leave the solver on the fused global-dt path,
    /// which is the bit-exact degenerate case of the LTS schedule.
    pub fn enable_lts(&mut self, plan: &LtsPlan) -> bool {
        self.lts = LtsRuntime::build(&self.cfg, &self.sub, &self.med, &plan.clusters);
        self.lts.is_some()
    }

    /// Is a multi-rate LTS schedule driving this solver?
    pub fn lts_active(&self) -> bool {
        self.lts.is_some()
    }

    /// Per-cluster substep/time accounting (empty when LTS is not armed).
    pub fn lts_stats(&self) -> Vec<awp_telemetry::LtsClusterStat> {
        self.lts.as_ref().map(LtsRuntime::stats).unwrap_or_default()
    }

    /// Everything a bit-exact restart needs, as named checkpoint fields:
    /// the wavefield ([`WaveState::checkpoint_fields`]) plus the M-PML ψ
    /// memory of the solver (`mpml_psi{box}`) and of each LTS cluster that
    /// owns a dt-scaled instance (`lts{cluster}_mpml_psi{box}`).
    pub fn checkpoint_fields(&self) -> Vec<(String, Vec<f32>)> {
        let mut out = self.state.checkpoint_fields();
        if let Some(p) = &self.mpml {
            out.extend(p.checkpoint_fields("mpml_"));
        }
        for (c, cl) in self.lts.iter().flat_map(|rt| rt.clusters.iter().enumerate()) {
            if let Some(p) = &cl.mpml {
                out.extend(p.checkpoint_fields(&format!("lts{c}_mpml_")));
            }
        }
        out
    }

    /// Inverse of [`Solver::checkpoint_fields`] (arm LTS first: cluster ψ
    /// is restored into the armed runtime). Unknown names are ignored.
    pub fn restore_fields(&mut self, fields: &[(String, Vec<f32>)]) {
        self.state.restore_fields(fields);
        if let Some(p) = &mut self.mpml {
            p.restore_fields("mpml_", fields);
        }
        for (c, cl) in self.lts.iter_mut().flat_map(|rt| rt.clusters.iter_mut().enumerate()) {
            if let Some(p) = &mut cl.mpml {
                p.restore_fields(&format!("lts{c}_mpml_"), fields);
            }
        }
    }

    /// Heap-touching events in the exchange staging arena (flat across
    /// steady-state steps ⇔ the halo pipeline is allocation-free).
    pub fn arena_allocations(&self) -> u64 {
        self.arena.allocations()
    }

    /// The shell/interior decomposition the overlap timestep uses.
    pub fn shell_plan(&self) -> &ShellPlan {
        &self.shell
    }

    fn dth(&self) -> f32 {
        (self.cfg.dt / self.cfg.h) as f32
    }

    /// Velocity phase over one window: kernel update then the M-PML
    /// velocity correction, both restricted to `w`. The M-PML work is
    /// recorded as a nested `Boundary` span (inclusive: it also counts
    /// toward the enclosing window-phase span).
    fn velocity_win(&mut self, w: Win, dth: f32, block: BlockSpec, backend: Backend, tel: &mut Recorder) {
        match backend {
            Backend::Hybrid => update_velocity_mt_win(
                &mut self.state,
                &self.med,
                dth,
                w,
                self.cfg.opts.threads,
            ),
            Backend::Simd => update_velocity_simd_win(&mut self.state, &self.med, dth, block, w),
            Backend::Scalar => update_velocity_win(&mut self.state, &self.med, dth, block, w),
        }
        if let Some(p) = &mut self.mpml {
            let t0 = tel.start();
            p.apply_velocity_win(&mut self.state, &self.med, dth, w);
            tel.finish(t0, TelPhase::Boundary);
        }
    }

    /// Stress phase over one window, in the fused pass's order: kernel
    /// update → M-PML correction → source injection → free-surface imaging
    /// (surface-touching windows only) → stress sponge. Boundary-condition
    /// work (M-PML, free surface, sponge) and source injection are recorded
    /// as nested `Boundary`/`Source` spans inside the window-phase span.
    #[allow(clippy::too_many_arguments)]
    fn stress_win(
        &mut self,
        w: Win,
        t: f64,
        on_surface: bool,
        dth: f32,
        block: BlockSpec,
        backend: Backend,
        tel: &mut Recorder,
    ) {
        let dt = self.cfg.dt as f32;
        match backend {
            Backend::Hybrid => update_stress_mt_win(
                &mut self.state,
                &self.med,
                self.atten.as_ref(),
                dth,
                dt,
                w,
                self.cfg.opts.threads,
            ),
            Backend::Simd => update_stress_simd_win(
                &mut self.state,
                &self.med,
                self.atten.as_ref(),
                dth,
                dt,
                block,
                w,
            ),
            Backend::Scalar => update_stress_win(
                &mut self.state,
                &self.med,
                self.atten.as_ref(),
                dth,
                dt,
                block,
                w,
            ),
        }
        if let Some(p) = &mut self.mpml {
            let t0 = tel.start();
            p.apply_stress_win(&mut self.state, &self.med, dth, w);
            tel.finish(t0, TelPhase::Boundary);
        }
        let t0 = tel.start();
        self.injector.inject_win(&mut self.state, t, self.cfg.dt, w);
        tel.finish(t0, TelPhase::Source);
        if (on_surface && w.k0 == 0) || self.sponge.is_some() {
            let t0 = tel.start();
            if on_surface && w.k0 == 0 {
                apply_free_surface_stress_win(&mut self.state, w);
            }
            if let Some(sp) = &self.sponge {
                sp.apply_components_win(&mut self.state, &Component::STRESSES, w);
            }
            tel.finish(t0, TelPhase::Boundary);
        }
    }

    /// Run a window's velocity kernel as disjoint-write k-slab tiles on
    /// this rank's dispatch queue, then park on the batch barrier (helping
    /// lagging peers while waiting). Only the cell-pure kernel is tiled —
    /// boundary work stays owner-side, after the barrier.
    fn tiled_velocity_kernel(
        &mut self,
        w: Win,
        dth: f32,
        block: BlockSpec,
        simd: bool,
        ctx: &mut RankCtx,
        planes: usize,
    ) {
        let sched = Arc::clone(ctx.sched().expect("tiled path requires an attached scheduler"));
        let rank = ctx.rank();
        let tiles = tile_of(w).split_k(planes);
        ctx.telem.observe_count(TelHistKind::QueueDepth, tiles.len() as u64);
        let tctx = VelTileCtx { state: &mut self.state, med: &self.med, dth, block, simd };
        // SAFETY: `tctx` outlives the batch (submit → run_to_completion,
        // both below, on this stack frame); tiles write disjoint cells and
        // the kernel is cell-pure, so concurrent executors never write the
        // same memory (see `awp_vcluster::sched` module docs).
        unsafe {
            let exec = ExecSlot::new(&tctx as *const VelTileCtx as *const (), run_velocity_tile);
            sched.submit(rank, exec, &tiles);
        }
        sched.run_to_completion(rank);
    }

    /// Stress-kernel counterpart of [`Self::tiled_velocity_kernel`].
    /// `atten` is the effective attenuation for this window (null ⇒ none;
    /// LTS clusters pass their dt-scaled override).
    #[allow(clippy::too_many_arguments)]
    fn tiled_stress_kernel(
        &mut self,
        w: Win,
        atten: *const Attenuation,
        dth: f32,
        dt: f32,
        block: BlockSpec,
        simd: bool,
        ctx: &mut RankCtx,
        planes: usize,
    ) {
        let sched = Arc::clone(ctx.sched().expect("tiled path requires an attached scheduler"));
        let rank = ctx.rank();
        let tiles = tile_of(w).split_k(planes);
        ctx.telem.observe_count(TelHistKind::QueueDepth, tiles.len() as u64);
        let tctx = StressTileCtx {
            state: &mut self.state,
            med: &self.med,
            atten,
            dth,
            dt,
            block,
            simd,
        };
        // SAFETY: as in `tiled_velocity_kernel` — context outlives the
        // batch, tiles are disjoint-write.
        unsafe {
            let exec = ExecSlot::new(&tctx as *const StressTileCtx as *const (), run_stress_tile);
            sched.submit(rank, exec, &tiles);
        }
        sched.run_to_completion(rank);
    }

    /// [`Self::velocity_win`] with the kernel tiled onto the scheduler.
    /// The M-PML tail runs owner-side after the batch barrier, in the
    /// untiled path's exact order — bit-exact under any steal schedule.
    fn velocity_win_sched(
        &mut self,
        w: Win,
        dth: f32,
        block: BlockSpec,
        backend: Backend,
        ctx: &mut RankCtx,
        planes: usize,
    ) {
        debug_assert_ne!(backend, Backend::Hybrid, "validate() rejects sched+hybrid");
        self.tiled_velocity_kernel(w, dth, block, backend == Backend::Simd, ctx, planes);
        if let Some(p) = &mut self.mpml {
            let t0 = ctx.telem.start();
            p.apply_velocity_win(&mut self.state, &self.med, dth, w);
            ctx.telem.finish(t0, TelPhase::Boundary);
        }
    }

    /// [`Self::stress_win`] with the kernel tiled onto the scheduler. The
    /// non-cell-pure tail (M-PML → source injection → free surface →
    /// sponge) runs owner-side after the batch barrier, in the untiled
    /// pass's order.
    #[allow(clippy::too_many_arguments)]
    fn stress_win_sched(
        &mut self,
        w: Win,
        t: f64,
        on_surface: bool,
        dth: f32,
        block: BlockSpec,
        backend: Backend,
        ctx: &mut RankCtx,
        planes: usize,
    ) {
        debug_assert_ne!(backend, Backend::Hybrid, "validate() rejects sched+hybrid");
        let dt = self.cfg.dt as f32;
        let atten = self.atten.as_ref().map_or(std::ptr::null(), |a| a as *const Attenuation);
        self.tiled_stress_kernel(w, atten, dth, dt, block, backend == Backend::Simd, ctx, planes);
        if let Some(p) = &mut self.mpml {
            let t0 = ctx.telem.start();
            p.apply_stress_win(&mut self.state, &self.med, dth, w);
            ctx.telem.finish(t0, TelPhase::Boundary);
        }
        let t0 = ctx.telem.start();
        self.injector.inject_win(&mut self.state, t, self.cfg.dt, w);
        ctx.telem.finish(t0, TelPhase::Source);
        if (on_surface && w.k0 == 0) || self.sponge.is_some() {
            let t0 = ctx.telem.start();
            if on_surface && w.k0 == 0 {
                apply_free_surface_stress_win(&mut self.state, w);
            }
            if let Some(sp) = &self.sponge {
                sp.apply_components_win(&mut self.state, &Component::STRESSES, w);
            }
            ctx.telem.finish(t0, TelPhase::Boundary);
        }
    }

    /// [`Self::lts_velocity_win`] with the kernel tiled onto the scheduler
    /// (cluster-rate dt, cluster M-PML override in the owner-side tail).
    #[allow(clippy::too_many_arguments)]
    fn lts_velocity_win_sched(
        &mut self,
        cl: &mut LtsCluster,
        w: Win,
        dth_c: f32,
        block: BlockSpec,
        backend: Backend,
        ctx: &mut RankCtx,
        planes: usize,
    ) {
        debug_assert_ne!(backend, Backend::Hybrid, "validate() rejects sched+hybrid");
        self.tiled_velocity_kernel(w, dth_c, block, backend == Backend::Simd, ctx, planes);
        if let Some(p) = cl.mpml.as_mut().or(self.mpml.as_mut()) {
            let t0 = ctx.telem.start();
            p.apply_velocity_win(&mut self.state, &self.med, dth_c, w);
            ctx.telem.finish(t0, TelPhase::Boundary);
        }
    }

    /// [`Self::lts_stress_win`] with the kernel tiled onto the scheduler
    /// (cluster-rate dt and attenuation; cluster boundary overrides in the
    /// owner-side tail, fused order preserved).
    #[allow(clippy::too_many_arguments)]
    fn lts_stress_win_sched(
        &mut self,
        cl: &mut LtsCluster,
        w: Win,
        t_mid: f64,
        dt_c: f64,
        on_surface: bool,
        dth_c: f32,
        block: BlockSpec,
        backend: Backend,
        ctx: &mut RankCtx,
        planes: usize,
    ) {
        debug_assert_ne!(backend, Backend::Hybrid, "validate() rejects sched+hybrid");
        let atten = cl
            .atten
            .as_ref()
            .or(self.atten.as_ref())
            .map_or(std::ptr::null(), |a| a as *const Attenuation);
        self.tiled_stress_kernel(
            w,
            atten,
            dth_c,
            dt_c as f32,
            block,
            backend == Backend::Simd,
            ctx,
            planes,
        );
        if let Some(p) = cl.mpml.as_mut().or(self.mpml.as_mut()) {
            let t0 = ctx.telem.start();
            p.apply_stress_win(&mut self.state, &self.med, dth_c, w);
            ctx.telem.finish(t0, TelPhase::Boundary);
        }
        let t0 = ctx.telem.start();
        self.injector.inject_win(&mut self.state, t_mid, dt_c, w);
        ctx.telem.finish(t0, TelPhase::Source);
        let surface_win = on_surface && w.k0 == 0;
        if surface_win || cl.sponge.is_some() || self.sponge.is_some() {
            let t0 = ctx.telem.start();
            if surface_win {
                apply_free_surface_stress_win(&mut self.state, w);
            }
            if let Some(sp) = cl.sponge.as_ref().or(self.sponge.as_ref()) {
                sp.apply_components_win(&mut self.state, &Component::STRESSES, w);
            }
            ctx.telem.finish(t0, TelPhase::Boundary);
        }
    }

    /// Velocity phase of one LTS cluster window: like [`Self::velocity_win`]
    /// but with the cluster's dt-scaled operators (rate-1 clusters fall
    /// back to the solver's global-dt M-PML).
    fn lts_velocity_win(
        &mut self,
        cl: &mut LtsCluster,
        w: Win,
        dth_c: f32,
        block: BlockSpec,
        backend: Backend,
        tel: &mut Recorder,
    ) {
        match backend {
            Backend::Hybrid => update_velocity_mt_win(
                &mut self.state,
                &self.med,
                dth_c,
                w,
                self.cfg.opts.threads,
            ),
            Backend::Simd => {
                update_velocity_simd_win(&mut self.state, &self.med, dth_c, block, w)
            }
            Backend::Scalar => update_velocity_win(&mut self.state, &self.med, dth_c, block, w),
        }
        if let Some(p) = cl.mpml.as_mut().or(self.mpml.as_mut()) {
            let t0 = tel.start();
            p.apply_velocity_win(&mut self.state, &self.med, dth_c, w);
            tel.finish(t0, TelPhase::Boundary);
        }
    }

    /// Stress phase of one LTS cluster window, in the fused pass's order
    /// (kernel → M-PML → source at the substep midpoint → free-surface
    /// imaging → stress sponge), using the cluster's dt-scaled operators.
    #[allow(clippy::too_many_arguments)]
    fn lts_stress_win(
        &mut self,
        cl: &mut LtsCluster,
        w: Win,
        t_mid: f64,
        dt_c: f64,
        on_surface: bool,
        dth_c: f32,
        block: BlockSpec,
        backend: Backend,
        tel: &mut Recorder,
    ) {
        let atten = cl.atten.as_ref().or(self.atten.as_ref());
        match backend {
            Backend::Hybrid => update_stress_mt_win(
                &mut self.state,
                &self.med,
                atten,
                dth_c,
                dt_c as f32,
                w,
                self.cfg.opts.threads,
            ),
            Backend::Simd => update_stress_simd_win(
                &mut self.state,
                &self.med,
                atten,
                dth_c,
                dt_c as f32,
                block,
                w,
            ),
            Backend::Scalar => update_stress_win(
                &mut self.state,
                &self.med,
                atten,
                dth_c,
                dt_c as f32,
                block,
                w,
            ),
        }
        if let Some(p) = cl.mpml.as_mut().or(self.mpml.as_mut()) {
            let t0 = tel.start();
            p.apply_stress_win(&mut self.state, &self.med, dth_c, w);
            tel.finish(t0, TelPhase::Boundary);
        }
        let t0 = tel.start();
        self.injector.inject_win(&mut self.state, t_mid, dt_c, w);
        tel.finish(t0, TelPhase::Source);
        let surface_win = on_surface && w.k0 == 0;
        if surface_win || cl.sponge.is_some() || self.sponge.is_some() {
            let t0 = tel.start();
            if surface_win {
                apply_free_surface_stress_win(&mut self.state, w);
            }
            if let Some(sp) = cl.sponge.as_ref().or(self.sponge.as_ref()) {
                sp.apply_components_win(&mut self.state, &Component::STRESSES, w);
            }
            tel.finish(t0, TelPhase::Boundary);
        }
    }

    /// One serial base tick of the LTS schedule (see `crate::lts` module
    /// docs for the sub-phase structure and interface interpolation).
    fn step_serial_lts(&mut self, ledger: &mut TimeLedger) {
        let mut rt = self.lts.take().expect("lts runtime armed");
        let n = self.step as u64;
        let dth = self.dth();
        let block = self.cfg.opts.block;
        let optimized = self.cfg.opts.reciprocal_media;
        let hybrid = self.cfg.opts.hybrid && optimized;
        let simd = self.cfg.opts.simd && optimized && !hybrid;
        let backend = if hybrid {
            Backend::Hybrid
        } else if simd {
            Backend::Simd
        } else {
            Backend::Scalar
        };
        let on_surface = self.cfg.free_surface && owns_free_surface(&self.sub);
        let mut tel = Recorder::disabled();
        let mut firing = [false; MAX_CLUSTERS];
        for (i, c) in rt.clusters.iter().enumerate() {
            firing[i] = n % u64::from(c.rate) == 0;
        }

        let t_tick = Instant::now();
        // Sub-phase 0: snapshot coarse edge planes on coarse firing ticks.
        for f in &mut rt.interfaces {
            if firing[f.coarse] {
                f.capture_prev(&self.state);
            }
        }

        // Sub-phase 1: velocity phases. A fine cluster whose coarse
        // neighbour idles this tick reads midpoint-interpolated σ ghosts.
        for c in 0..rt.clusters.len() {
            if !firing[c] {
                continue;
            }
            let tc = Instant::now();
            for f in &mut rt.interfaces {
                if f.fine == c && !firing[f.coarse] {
                    f.blend_stress(&mut self.state);
                }
            }
            let w = rt.clusters[c].win;
            let dth_c = dth * rt.clusters[c].rate as f32;
            self.lts_velocity_win(&mut rt.clusters[c], w, dth_c, block, backend, &mut tel);
            for f in &mut rt.interfaces {
                if f.fine == c && !firing[f.coarse] {
                    f.restore_stress(&mut self.state);
                }
            }
            rt.clusters[c].ns += tc.elapsed().as_nanos() as u64;
        }

        // Sub-phase 2: stress phases. Free-surface velocity imaging runs
        // just before the surface cluster's phase (only its windows reach
        // the mirrored halo planes — deeper clusters start ≥ min_slab ≥ 4
        // planes down, beyond the stencil's reach of 2). A fine cluster
        // whose coarse neighbour also fires reads ¾-interpolated v ghosts.
        for c in 0..rt.clusters.len() {
            if !firing[c] {
                continue;
            }
            let tc = Instant::now();
            if on_surface && rt.clusters[c].win.k0 == 0 {
                apply_free_surface_velocity(&mut self.state, &self.med, self.cfg.h as f32);
            }
            for f in &mut rt.interfaces {
                if f.fine == c && firing[f.coarse] {
                    f.blend_velocity(&mut self.state);
                }
            }
            let w = rt.clusters[c].win;
            let rate = rt.clusters[c].rate;
            let dth_c = dth * rate as f32;
            let dt_c = self.cfg.dt * f64::from(rate);
            // Substep midpoint: the σ update spans base ticks n..n+rate, so
            // the source term applies at its centre (rate 1 ⇒ n·dt, fused).
            let t_mid = (n as f64 + (f64::from(rate) - 1.0) * 0.5) * self.cfg.dt;
            self.lts_stress_win(
                &mut rt.clusters[c],
                w,
                t_mid,
                dt_c,
                on_surface,
                dth_c,
                block,
                backend,
                &mut tel,
            );
            for f in &mut rt.interfaces {
                if f.fine == c && firing[f.coarse] {
                    f.restore_velocity(&mut self.state);
                }
            }
            let cl = &mut rt.clusters[c];
            cl.fires += 1;
            cl.ns += tc.elapsed().as_nanos() as u64;
            self.flops.add_step(w.count(), self.cfg.attenuation);
            if let Some(p) = rt.clusters[c].mpml.as_ref().or(self.mpml.as_ref()) {
                self.flops.add_mpml(p.zone_cells_win(w));
            }
        }

        // Sub-phase 3: velocity sponge of every firing cluster, after all
        // stress phases read the undamped velocities (fused semantics).
        for cl in &mut rt.clusters {
            let fires = n % u64::from(cl.rate) == 0;
            if !fires {
                continue;
            }
            let w = cl.win;
            if let Some(sp) = cl.sponge.as_ref().or(self.sponge.as_ref()) {
                sp.apply_components_win(&mut self.state, &Component::VELOCITIES, w);
            }
        }
        ledger.add(Category::Comp, t_tick.elapsed());

        ledger.time(Category::Output, || {
            self.recorder.record(&self.state);
        });
        self.lts = Some(rt);
        self.step += 1;
    }

    /// Advance one step without communication (serial / interior of the
    /// parallel step). `ledger` receives phase timings.
    pub fn step_serial(&mut self, ledger: &mut TimeLedger) {
        // Covers the stepper's own arithmetic (the LTS ghost blends) and
        // makes the kernels' guards below nested ones.
        let _ftz = FlushGuard::enter();
        if self.lts.is_some() {
            return self.step_serial_lts(ledger);
        }
        let t = self.step as f64 * self.cfg.dt;
        let dth = self.dth();
        let block = self.cfg.opts.block;
        let optimized = self.cfg.opts.reciprocal_media;
        let on_surface = self.cfg.free_surface && owns_free_surface(&self.sub);

        let hybrid = self.cfg.opts.hybrid && optimized;
        // SIMD rides on the optimized (reciprocal-media) data layout; the
        // hybrid path keeps its own Rayon kernels.
        let simd = self.cfg.opts.simd && optimized && !hybrid;
        ledger.time(Category::Comp, || {
            if hybrid {
                update_velocity_mt(&mut self.state, &self.med, dth, self.cfg.opts.threads);
            } else if simd {
                update_velocity_simd(&mut self.state, &self.med, dth, block);
            } else {
                update_velocity(&mut self.state, &self.med, dth, block, optimized);
            }
            if let Some(p) = &mut self.mpml {
                p.apply_velocity(&mut self.state, &self.med, dth);
            }
        });
        // (parallel drivers exchange velocity halos here)
        ledger.time(Category::Comp, || {
            if on_surface {
                apply_free_surface_velocity(&mut self.state, &self.med, self.cfg.h as f32);
            }
            if hybrid {
                update_stress_mt(
                    &mut self.state,
                    &self.med,
                    self.atten.as_ref(),
                    dth,
                    self.cfg.dt as f32,
                    self.cfg.opts.threads,
                );
            } else if simd {
                update_stress_simd(
                    &mut self.state,
                    &self.med,
                    self.atten.as_ref(),
                    dth,
                    self.cfg.dt as f32,
                    block,
                );
            } else {
                update_stress(
                    &mut self.state,
                    &self.med,
                    self.atten.as_ref(),
                    dth,
                    self.cfg.dt as f32,
                    block,
                    optimized,
                );
            }
            if let Some(p) = &mut self.mpml {
                p.apply_stress(&mut self.state, &self.med, dth);
            }
            self.injector.inject(&mut self.state, t, self.cfg.dt);
            if on_surface {
                apply_free_surface_stress(&mut self.state);
            }
            if let Some(sp) = &self.sponge {
                sp.apply(&mut self.state);
            }
        });
        ledger.time(Category::Output, || {
            self.recorder.record(&self.state);
        });
        self.flops.add_step(self.sub.dims.count(), self.cfg.attenuation);
        if let Some(p) = &self.mpml {
            self.flops.add_mpml(p.zone_cells());
        }
        self.step += 1;
    }

    /// Replace the source injector (used by the temporal-partition driver
    /// when a new source window is loaded).
    pub fn set_source(&mut self, source: &KinematicSource) {
        self.injector = SourceInjector::new(source, self.cfg.h);
    }

    /// Serial run with *temporal source partitioning* (paper §III.D /
    /// Eq. 7's φT_reinit term): the moment-rate histories are windowed
    /// into segments of `window` source samples; each segment is loaded
    /// only when the simulation enters its time range, with the swap cost
    /// charged to the `Reinit` ledger category. M8 used 36 such loops of
    /// 3000 steps each.
    pub fn run_serial_windowed(
        cfg: SolverConfig,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
        window: usize,
    ) -> RankResult {
        use awp_source::partition::TemporalPartition;
        let decomp = Decomp3::new(cfg.dims, [1, 1, 1]);
        let sub = decomp.subdomain(0);
        let tp = TemporalPartition::new(source, window);
        let mut solver = Solver::new(cfg.clone(), sub, mesh, &tp.segments[0], stations);
        if let Some(lo) = cfg.opts.lts {
            solver.enable_lts(&LtsPlan::from_mesh(mesh, cfg.dt, lo));
        }
        let mut current_seg = 0usize;
        let mut ledger = TimeLedger::new();
        let mut pgv = vec![0.0f32; cfg.dims.nx * cfg.dims.ny];
        for step in 0..cfg.steps {
            let t = step as f64 * cfg.dt;
            let seg = tp.segment_for(t);
            if seg != current_seg {
                ledger.time(Category::Reinit, || {
                    solver.set_source(&tp.segments[seg]);
                });
                current_seg = seg;
            }
            solver.step_serial(&mut ledger);
            update_pgv(&solver.state, &mut pgv);
        }
        RankResult {
            rank: 0,
            seismograms: solver.recorder.into_seismograms(),
            ledger,
            flops: solver.flops.total,
            steps: cfg.steps,
            surface: Some(crate::stations::surface_velocities(&solver.state, 1)),
            pgv_map: pgv,
            telemetry: Snapshot::default(),
            sub,
        }
    }

    /// Serial convenience: run the whole configuration on one rank.
    pub fn run_serial(
        cfg: SolverConfig,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
    ) -> RankResult {
        let decomp = Decomp3::new(cfg.dims, [1, 1, 1]);
        let sub = decomp.subdomain(0);
        let mut solver = Solver::new(cfg.clone(), sub, mesh, source, stations);
        if let Some(lo) = cfg.opts.lts {
            solver.enable_lts(&LtsPlan::from_mesh(mesh, cfg.dt, lo));
        }
        let mut ledger = TimeLedger::new();
        let mut pgv = vec![0.0f32; cfg.dims.nx * cfg.dims.ny];
        for _ in 0..cfg.steps {
            solver.step_serial(&mut ledger);
            update_pgv(&solver.state, &mut pgv);
        }
        RankResult {
            rank: 0,
            seismograms: solver.recorder.into_seismograms(),
            ledger,
            flops: solver.flops.total,
            steps: cfg.steps,
            surface: Some(crate::stations::surface_velocities(&solver.state, 1)),
            pgv_map: pgv,
            telemetry: Snapshot::default(),
            sub,
        }
    }

    /// One full parallel step (velocity → exchange → stress → exchange),
    /// honouring the configured engine, overlap and barrier options.
    ///
    /// With overlap on (§IV.C) each pass runs as a *shell/interior split*:
    /// the boundary shell — the planes that feed outgoing ghost faces — is
    /// updated first, every halo send starts immediately, and the interior
    /// core is updated with the full-strength backend (SIMD, blocked,
    /// optionally Rayon) while the messages fly: "While the value of v is
    /// computed, the exchange of u can be performed simultaneously".
    /// Because the velocity pass reads only stresses and the stress pass
    /// reads only velocities, per-cell updates are window-order invariant
    /// and the split is bit-exact against the fused pass — which lets it
    /// compose with SIMD, hybrid threading and M-PML instead of excluding
    /// them. Overlap only requires the asynchronous engine (validated at
    /// construction) and the optimized data layout.
    pub fn step_parallel(&mut self, ctx: &mut RankCtx) {
        // As in `step_serial`; the rank thread keeps the mode across the
        // halo exchanges, which only copy.
        let _ftz = FlushGuard::enter();
        if self.lts.is_some() {
            self.step_parallel_lts(ctx);
            self.health_probe(ctx);
            return;
        }
        let t = self.step as f64 * self.cfg.dt;
        let dth = self.dth();
        let block = self.cfg.opts.block;
        let optimized = self.cfg.opts.reciprocal_media;
        let hybrid = self.cfg.opts.hybrid && optimized;
        let simd = self.cfg.opts.simd && optimized && !hybrid;
        let on_surface = self.cfg.free_surface && owns_free_surface(&self.sub);
        let step_tag = self.step as u64;
        ctx.telem.set_step(step_tag);
        let use_overlap = self.cfg.opts.overlap
            && ctx.mode() == awp_vcluster::CommMode::Asynchronous
            && optimized;
        // Shell slabs are thin (≤2 planes): spawning a thread pool on them
        // costs more than the update, so the shell always runs single
        // threaded (SIMD when available) and only the interior goes hybrid.
        let shell_backend = if self.cfg.opts.simd && optimized {
            Backend::Simd
        } else {
            Backend::Scalar
        };
        let interior_backend = if hybrid { Backend::Hybrid } else { shell_backend };
        // Interior tiles go on the work-stealing scheduler when both the
        // config asks for it and the cluster carries one; shells stay
        // owner-side (they gate the halo sends and are too thin to split).
        let sched_planes = self
            .cfg
            .opts
            .sched
            .filter(|_| use_overlap && ctx.sched().is_some())
            .map(|s| s.tile_planes);

        // Velocity phase. Each compute interval is measured once and feeds
        // both the coarse Eq. (7) ledger (Category::Comp) and the telemetry
        // phase span — one clock read, two sinks.
        if use_overlap {
            for w in self.shell.shells {
                let t0 = Instant::now();
                self.velocity_win(w, dth, block, shell_backend, &mut ctx.telem);
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::VelocityShell, t0, el);
            }
            let pending = start_exchange(
                &self.state,
                &self.sub,
                ctx,
                &self.vel_plan,
                Phase::Velocity,
                step_tag,
                &mut self.arena,
            );
            let interior = self.shell.interior;
            let t0 = Instant::now();
            if let Some(planes) = sched_planes {
                self.velocity_win_sched(interior, dth, block, interior_backend, ctx, planes);
            } else {
                self.velocity_win(interior, dth, block, interior_backend, &mut ctx.telem);
            }
            let el = t0.elapsed();
            ctx.ledger.add(Category::Comp, el);
            ctx.telem.span_at(TelPhase::VelocityInterior, t0, el);
            finish_exchange(&mut self.state, ctx, pending, &mut self.arena);
        } else {
            // Fused pass: the whole velocity update is one Interior span.
            let t0 = Instant::now();
            if hybrid {
                update_velocity_mt(&mut self.state, &self.med, dth, self.cfg.opts.threads);
            } else if simd {
                update_velocity_simd(&mut self.state, &self.med, dth, block);
            } else {
                update_velocity(&mut self.state, &self.med, dth, block, optimized);
            }
            if let Some(p) = &mut self.mpml {
                let tb = ctx.telem.start();
                p.apply_velocity(&mut self.state, &self.med, dth);
                ctx.telem.finish(tb, TelPhase::Boundary);
            }
            let el = t0.elapsed();
            ctx.ledger.add(Category::Comp, el);
            ctx.telem.span_at(TelPhase::VelocityInterior, t0, el);
            exchange(
                &mut self.state,
                &self.sub,
                ctx,
                &self.vel_plan,
                Phase::Velocity,
                step_tag,
                &mut self.arena,
            );
        }

        // Stress phase.
        if use_overlap {
            // Velocity imaging must precede every stress window (all of
            // them read the mirrored velocities near the surface).
            if on_surface {
                let t0 = Instant::now();
                apply_free_surface_velocity(&mut self.state, &self.med, self.cfg.h as f32);
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::Boundary, t0, el);
            }
            for w in self.shell.shells {
                let t0 = Instant::now();
                self.stress_win(w, t, on_surface, dth, block, shell_backend, &mut ctx.telem);
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::StressShell, t0, el);
            }
            let pending = start_exchange(
                &self.state,
                &self.sub,
                ctx,
                &self.str_plan,
                Phase::Stress,
                step_tag,
                &mut self.arena,
            );
            let interior = self.shell.interior;
            let t0 = Instant::now();
            if let Some(planes) = sched_planes {
                self.stress_win_sched(interior, t, on_surface, dth, block, interior_backend, ctx, planes);
            } else {
                self.stress_win(interior, t, on_surface, dth, block, interior_backend, &mut ctx.telem);
            }
            let el = t0.elapsed();
            ctx.ledger.add(Category::Comp, el);
            ctx.telem.span_at(TelPhase::StressInterior, t0, el);
            // The velocity sponge runs after every stress window has read
            // the undamped velocities; it commutes with the in-flight
            // stress messages because it touches no stress component.
            if let Some(sp) = &self.sponge {
                let t0 = Instant::now();
                sp.apply_components(&mut self.state, &Component::VELOCITIES);
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::Boundary, t0, el);
            }
            finish_exchange(&mut self.state, ctx, pending, &mut self.arena);
        } else {
            let t0 = Instant::now();
            if on_surface {
                let tb = ctx.telem.start();
                apply_free_surface_velocity(&mut self.state, &self.med, self.cfg.h as f32);
                ctx.telem.finish(tb, TelPhase::Boundary);
            }
            if hybrid {
                update_stress_mt(
                    &mut self.state,
                    &self.med,
                    self.atten.as_ref(),
                    dth,
                    self.cfg.dt as f32,
                    self.cfg.opts.threads,
                );
            } else if simd {
                update_stress_simd(
                    &mut self.state,
                    &self.med,
                    self.atten.as_ref(),
                    dth,
                    self.cfg.dt as f32,
                    block,
                );
            } else {
                update_stress(
                    &mut self.state,
                    &self.med,
                    self.atten.as_ref(),
                    dth,
                    self.cfg.dt as f32,
                    block,
                    optimized,
                );
            }
            if let Some(p) = &mut self.mpml {
                let tb = ctx.telem.start();
                p.apply_stress(&mut self.state, &self.med, dth);
                ctx.telem.finish(tb, TelPhase::Boundary);
            }
            let tb = ctx.telem.start();
            self.injector.inject(&mut self.state, t, self.cfg.dt);
            ctx.telem.finish(tb, TelPhase::Source);
            if on_surface || self.sponge.is_some() {
                let tb = ctx.telem.start();
                if on_surface {
                    apply_free_surface_stress(&mut self.state);
                }
                if let Some(sp) = &self.sponge {
                    sp.apply(&mut self.state);
                }
                ctx.telem.finish(tb, TelPhase::Boundary);
            }
            let el = t0.elapsed();
            ctx.ledger.add(Category::Comp, el);
            ctx.telem.span_at(TelPhase::StressInterior, t0, el);
            exchange(
                &mut self.state,
                &self.sub,
                ctx,
                &self.str_plan,
                Phase::Stress,
                step_tag,
                &mut self.arena,
            );
        }

        if self.cfg.opts.per_step_barrier {
            ctx.barrier();
        }
        let t0 = Instant::now();
        self.recorder.record(&self.state);
        let el = t0.elapsed();
        ctx.ledger.add(Category::Output, el);
        ctx.telem.span_at(TelPhase::Output, t0, el);
        self.flops.add_step(self.sub.dims.count(), self.cfg.attenuation);
        if let Some(p) = &self.mpml {
            self.flops.add_mpml(p.zone_cells());
        }
        self.step += 1;
        self.health_probe(ctx);
    }

    /// Simulation-health sentinel (`--health-every N`): scan the shell
    /// slabs of the velocity field for non-finite values and the peak |v|
    /// watermark. The shells bound every halo that left this rank, so
    /// corruption is caught at the cheapest surface before it spreads to
    /// peers. Emits a structured Health causal event (tag 1 = non-finite
    /// found, bytes = watermark f32 bits) and aborts the run with a clear
    /// error instead of letting NaNs silently reach the outputs.
    fn health_probe(&mut self, ctx: &mut RankCtx) {
        let every = self.cfg.opts.health_every;
        if every == 0 {
            return;
        }
        // `step` was just incremented: probe the step that completed.
        let step = (self.step as u64).saturating_sub(1);
        if step % every != 0 {
            return;
        }
        let mut peak = 0.0f32;
        let mut finite = true;
        for w in self.shell.shells {
            for k in w.k0..w.k1 {
                for j in w.j0..w.j1 {
                    for i in w.i0..w.i1 {
                        let (i, j, k) = (i as isize, j as isize, k as isize);
                        let m = self
                            .state
                            .vx
                            .get(i, j, k)
                            .abs()
                            .max(self.state.vy.get(i, j, k).abs())
                            .max(self.state.vz.get(i, j, k).abs());
                        if m.is_finite() {
                            peak = peak.max(m);
                        } else {
                            finite = false;
                        }
                    }
                }
            }
        }
        ctx.telem.count(TelCounter::HealthProbes, 1);
        ctx.telem.causal_mark(
            CausalKind::Health,
            NO_PEER,
            u64::from(!finite),
            u64::from(peak.to_bits()),
        );
        if !finite {
            panic!("sim-health: non-finite velocity at step {step} rank {}", ctx.rank());
        }
    }

    /// One parallel base tick of the LTS schedule. Same sub-phase structure
    /// as [`Self::step_serial_lts`], with each firing cluster running its
    /// own *k-windowed* x/y halo exchange at the cluster's cadence (ranks
    /// never split z under LTS — validated by the drivers — so z-plan
    /// entries have no neighbour and naturally drop out). Message tags pack
    /// the cluster index into the low bits of the step field
    /// (`tick << 4 | c`, cluster count ≤ [`MAX_CLUSTERS`]), keeping every
    /// cluster-phase exchange in its own tag space. With overlap on, the
    /// shell/interior split is intersected with the cluster's k-slab, so
    /// LTS composes with the hidden-communication path unchanged.
    fn step_parallel_lts(&mut self, ctx: &mut RankCtx) {
        let mut rt = self.lts.take().expect("lts runtime armed");
        let n = self.step as u64;
        ctx.telem.set_step(n);
        let dth = self.dth();
        let block = self.cfg.opts.block;
        let optimized = self.cfg.opts.reciprocal_media;
        let hybrid = self.cfg.opts.hybrid && optimized;
        let on_surface = self.cfg.free_surface && owns_free_surface(&self.sub);
        let use_overlap = self.cfg.opts.overlap
            && ctx.mode() == awp_vcluster::CommMode::Asynchronous
            && optimized;
        let shell_backend = if self.cfg.opts.simd && optimized {
            Backend::Simd
        } else {
            Backend::Scalar
        };
        let interior_backend = if hybrid { Backend::Hybrid } else { shell_backend };
        let sched_planes = self
            .cfg
            .opts
            .sched
            .filter(|_| use_overlap && ctx.sched().is_some())
            .map(|s| s.tile_planes);
        let mut firing = [false; MAX_CLUSTERS];
        for (i, c) in rt.clusters.iter().enumerate() {
            firing[i] = n % u64::from(c.rate) == 0;
        }

        // Sub-phase 0: snapshot coarse edge planes on coarse firing ticks.
        for f in &mut rt.interfaces {
            if firing[f.coarse] {
                f.capture_prev(&self.state);
            }
        }

        // Sub-phase 1: velocity phases.
        for c in 0..rt.clusters.len() {
            if !firing[c] {
                continue;
            }
            ctx.telem.set_cluster(c as u8);
            // Cluster-tick causal anchor: tag = cluster index, bytes = rate
            // (one mark per firing cluster per base tick, velocity phase).
            ctx.telem.causal_mark(
                CausalKind::ClusterTick,
                NO_PEER,
                c as u64,
                u64::from(rt.clusters[c].rate),
            );
            for f in &mut rt.interfaces {
                if f.fine == c && !firing[f.coarse] {
                    f.blend_stress(&mut self.state);
                }
            }
            let w = rt.clusters[c].win;
            let dth_c = dth * rt.clusters[c].rate as f32;
            let kr = (w.k0, w.k1);
            let tag_step = (n << 4) | c as u64;
            let tc = Instant::now();
            if use_overlap {
                for s in self.shell.shells {
                    let sw = s.intersect(w);
                    if sw.is_empty() {
                        continue;
                    }
                    let t0 = Instant::now();
                    self.lts_velocity_win(
                        &mut rt.clusters[c],
                        sw,
                        dth_c,
                        block,
                        shell_backend,
                        &mut ctx.telem,
                    );
                    let el = t0.elapsed();
                    ctx.ledger.add(Category::Comp, el);
                    ctx.telem.span_at(TelPhase::VelocityShell, t0, el);
                }
                let pending = start_exchange_k(
                    &self.state,
                    &self.sub,
                    ctx,
                    &self.vel_plan,
                    Phase::Velocity,
                    tag_step,
                    &mut self.arena,
                    kr,
                );
                let iw = self.shell.interior.intersect(w);
                if !iw.is_empty() {
                    let t0 = Instant::now();
                    if let Some(planes) = sched_planes {
                        self.lts_velocity_win_sched(
                            &mut rt.clusters[c],
                            iw,
                            dth_c,
                            block,
                            interior_backend,
                            ctx,
                            planes,
                        );
                    } else {
                        self.lts_velocity_win(
                            &mut rt.clusters[c],
                            iw,
                            dth_c,
                            block,
                            interior_backend,
                            &mut ctx.telem,
                        );
                    }
                    let el = t0.elapsed();
                    ctx.ledger.add(Category::Comp, el);
                    ctx.telem.span_at(TelPhase::VelocityInterior, t0, el);
                }
                // Drop the ghost overwrites before the halo injection so
                // the blend window stays as narrow as possible; messages
                // only ever carry this cluster's own k-range, so the
                // blended coarse planes never leak into a send.
                for f in &mut rt.interfaces {
                    if f.fine == c && !firing[f.coarse] {
                        f.restore_stress(&mut self.state);
                    }
                }
                finish_exchange(&mut self.state, ctx, pending, &mut self.arena);
            } else {
                let t0 = Instant::now();
                self.lts_velocity_win(
                    &mut rt.clusters[c],
                    w,
                    dth_c,
                    block,
                    interior_backend,
                    &mut ctx.telem,
                );
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::VelocityInterior, t0, el);
                for f in &mut rt.interfaces {
                    if f.fine == c && !firing[f.coarse] {
                        f.restore_stress(&mut self.state);
                    }
                }
                exchange_k(
                    &mut self.state,
                    &self.sub,
                    ctx,
                    &self.vel_plan,
                    Phase::Velocity,
                    tag_step,
                    &mut self.arena,
                    kr,
                );
            }
            rt.clusters[c].ns += tc.elapsed().as_nanos() as u64;
        }

        // Sub-phase 2: stress phases.
        for c in 0..rt.clusters.len() {
            if !firing[c] {
                continue;
            }
            ctx.telem.set_cluster(c as u8);
            if on_surface && rt.clusters[c].win.k0 == 0 {
                let t0 = Instant::now();
                apply_free_surface_velocity(&mut self.state, &self.med, self.cfg.h as f32);
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::Boundary, t0, el);
            }
            for f in &mut rt.interfaces {
                if f.fine == c && firing[f.coarse] {
                    f.blend_velocity(&mut self.state);
                }
            }
            let w = rt.clusters[c].win;
            let rate = rt.clusters[c].rate;
            let dth_c = dth * rate as f32;
            let dt_c = self.cfg.dt * f64::from(rate);
            let t_mid = (n as f64 + (f64::from(rate) - 1.0) * 0.5) * self.cfg.dt;
            let kr = (w.k0, w.k1);
            let tag_step = (n << 4) | c as u64;
            let tc = Instant::now();
            if use_overlap {
                for s in self.shell.shells {
                    let sw = s.intersect(w);
                    if sw.is_empty() {
                        continue;
                    }
                    let t0 = Instant::now();
                    self.lts_stress_win(
                        &mut rt.clusters[c],
                        sw,
                        t_mid,
                        dt_c,
                        on_surface,
                        dth_c,
                        block,
                        shell_backend,
                        &mut ctx.telem,
                    );
                    let el = t0.elapsed();
                    ctx.ledger.add(Category::Comp, el);
                    ctx.telem.span_at(TelPhase::StressShell, t0, el);
                }
                let pending = start_exchange_k(
                    &self.state,
                    &self.sub,
                    ctx,
                    &self.str_plan,
                    Phase::Stress,
                    tag_step,
                    &mut self.arena,
                    kr,
                );
                let iw = self.shell.interior.intersect(w);
                if !iw.is_empty() {
                    let t0 = Instant::now();
                    if let Some(planes) = sched_planes {
                        self.lts_stress_win_sched(
                            &mut rt.clusters[c],
                            iw,
                            t_mid,
                            dt_c,
                            on_surface,
                            dth_c,
                            block,
                            interior_backend,
                            ctx,
                            planes,
                        );
                    } else {
                        self.lts_stress_win(
                            &mut rt.clusters[c],
                            iw,
                            t_mid,
                            dt_c,
                            on_surface,
                            dth_c,
                            block,
                            interior_backend,
                            &mut ctx.telem,
                        );
                    }
                    let el = t0.elapsed();
                    ctx.ledger.add(Category::Comp, el);
                    ctx.telem.span_at(TelPhase::StressInterior, t0, el);
                }
                for f in &mut rt.interfaces {
                    if f.fine == c && firing[f.coarse] {
                        f.restore_velocity(&mut self.state);
                    }
                }
                finish_exchange(&mut self.state, ctx, pending, &mut self.arena);
            } else {
                let t0 = Instant::now();
                self.lts_stress_win(
                    &mut rt.clusters[c],
                    w,
                    t_mid,
                    dt_c,
                    on_surface,
                    dth_c,
                    block,
                    interior_backend,
                    &mut ctx.telem,
                );
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::StressInterior, t0, el);
                for f in &mut rt.interfaces {
                    if f.fine == c && firing[f.coarse] {
                        f.restore_velocity(&mut self.state);
                    }
                }
                exchange_k(
                    &mut self.state,
                    &self.sub,
                    ctx,
                    &self.str_plan,
                    Phase::Stress,
                    tag_step,
                    &mut self.arena,
                    kr,
                );
            }
            let cl = &mut rt.clusters[c];
            cl.fires += 1;
            cl.ns += tc.elapsed().as_nanos() as u64;
            self.flops.add_step(w.count(), self.cfg.attenuation);
            if let Some(p) = rt.clusters[c].mpml.as_ref().or(self.mpml.as_ref()) {
                self.flops.add_mpml(p.zone_cells_win(w));
            }
        }

        // Sub-phase 3: velocity sponge of every firing cluster.
        for (c, cl) in rt.clusters.iter_mut().enumerate() {
            if !firing[c] {
                continue;
            }
            let w = cl.win;
            if let Some(sp) = cl.sponge.as_ref().or(self.sponge.as_ref()) {
                ctx.telem.set_cluster(c as u8);
                let t0 = Instant::now();
                sp.apply_components_win(&mut self.state, &Component::VELOCITIES, w);
                let el = t0.elapsed();
                ctx.ledger.add(Category::Comp, el);
                ctx.telem.span_at(TelPhase::Boundary, t0, el);
            }
        }
        ctx.telem.set_cluster(awp_telemetry::NO_CLUSTER);

        if self.cfg.opts.per_step_barrier {
            ctx.barrier();
        }
        let t0 = Instant::now();
        self.recorder.record(&self.state);
        let el = t0.elapsed();
        ctx.ledger.add(Category::Output, el);
        ctx.telem.span_at(TelPhase::Output, t0, el);
        self.lts = Some(rt);
        self.step += 1;
    }
}

/// Track per-surface-cell peak horizontal velocity into a local PGV map
/// (only meaningful on ranks owning the free surface).
pub fn update_pgv(state: &WaveState, pgv: &mut [f32]) {
    let _ftz = FlushGuard::enter();
    let d = state.dims;
    debug_assert_eq!(pgv.len(), d.nx * d.ny);
    for j in 0..d.ny {
        for i in 0..d.nx {
            let vx = state.vx.get(i as isize, j as isize, 0);
            let vy = state.vy.get(i as isize, j as isize, 0);
            let h = (vx * vx + vy * vy).sqrt();
            let p = &mut pgv[i + d.nx * j];
            if h > *p {
                *p = h;
            }
        }
    }
}

/// Run a configuration across `parts` ranks of the virtual cluster,
/// partitioning the mesh and source internally. `meshes` must hold one
/// local mesh per rank (use `awp_pario::partition` or
/// [`partition_mesh_direct`]).
pub fn run_parallel(
    cfg: &SolverConfig,
    parts: [usize; 3],
    meshes: &[Mesh],
    source: &KinematicSource,
    stations: &[Station],
) -> Vec<RankResult> {
    try_run_parallel(cfg, parts, meshes, source, stations)
        .expect("invalid solver configuration")
}

/// [`run_parallel`] with an optional telemetry registry: when `Some`, every
/// rank records phase spans / counters / histograms, each `RankResult`
/// carries the rank's snapshot, and the registry can produce the aggregate
/// [`awp_telemetry::TelemetryReport`] and Chrome trace after the run.
pub fn run_parallel_with(
    cfg: &SolverConfig,
    parts: [usize; 3],
    meshes: &[Mesh],
    source: &KinematicSource,
    stations: &[Station],
    telemetry: Option<Arc<Registry>>,
) -> Vec<RankResult> {
    try_run_parallel_with(cfg, parts, meshes, source, stations, telemetry)
        .expect("invalid solver configuration")
}

/// Fallible variant of [`run_parallel`]: validates the configuration
/// before any rank thread spawns, so an inconsistent option set (e.g.
/// overlap on the synchronous engine) surfaces as a [`ConfigError`]
/// instead of a cross-thread panic.
pub fn try_run_parallel(
    cfg: &SolverConfig,
    parts: [usize; 3],
    meshes: &[Mesh],
    source: &KinematicSource,
    stations: &[Station],
) -> Result<Vec<RankResult>, ConfigError> {
    try_run_parallel_with(cfg, parts, meshes, source, stations, None)
}

/// Fallible, telemetry-aware driver (see [`run_parallel_with`]).
pub fn try_run_parallel_with(
    cfg: &SolverConfig,
    parts: [usize; 3],
    meshes: &[Mesh],
    source: &KinematicSource,
    stations: &[Station],
    telemetry: Option<Arc<Registry>>,
) -> Result<Vec<RankResult>, ConfigError> {
    try_run_parallel_sched(cfg, parts, meshes, source, stations, telemetry, None)
}

/// Fallible driver with an optional [`SchedulePlan`]: when `Some`, the
/// virtual cluster deterministically perturbs message delivery order and
/// wait-all polling per the plan's seed. The schedule fuzzer in
/// `awp-verify` drives this to assert that results are bit-exact under
/// any legal completion order; production paths pass `None` and keep the
/// plain FIFO mailboxes.
#[allow(clippy::too_many_arguments)]
pub fn try_run_parallel_sched(
    cfg: &SolverConfig,
    parts: [usize; 3],
    meshes: &[Mesh],
    source: &KinematicSource,
    stations: &[Station],
    telemetry: Option<Arc<Registry>>,
    schedule: Option<Arc<SchedulePlan>>,
) -> Result<Vec<RankResult>, ConfigError> {
    let decomp = Decomp3::new(cfg.dims, parts);
    try_run_parallel_decomp(cfg, decomp, meshes, source, stations, telemetry, schedule)
}

/// Lowest-level fallible driver: takes an explicit (possibly skewed)
/// [`Decomp3`] instead of a balanced `parts` split. The scheduler bench
/// uses this to construct a deliberately imbalanced decomposition and
/// measure how much wall-clock work stealing recovers.
#[allow(clippy::too_many_arguments)]
pub fn try_run_parallel_decomp(
    cfg: &SolverConfig,
    decomp: Decomp3,
    meshes: &[Mesh],
    source: &KinematicSource,
    stations: &[Station],
    telemetry: Option<Arc<Registry>>,
    schedule: Option<Arc<SchedulePlan>>,
) -> Result<Vec<RankResult>, ConfigError> {
    cfg.validate()?;
    if cfg.opts.lts.is_some() && decomp.parts[2] != 1 {
        return Err(ConfigError::LtsNeedsSingleZPart);
    }
    assert_eq!(decomp.global, cfg.dims, "decomposition does not match the configured grid");
    let n = decomp.rank_count();
    assert_eq!(meshes.len(), n, "need one local mesh per rank");
    // The dt-cluster partition must be identical on every rank, so it is
    // derived from the *global* per-plane Vp profile: with no z split each
    // local mesh spans the full z extent, and the global profile is the
    // elementwise max over ranks.
    let lts_plan = cfg.opts.lts.map(|lo| {
        let mut prof = vec![0.0f64; cfg.dims.nz];
        for m in meshes {
            for (p, v) in prof.iter_mut().zip(m.vp_max_per_k()) {
                *p = p.max(v);
            }
        }
        LtsPlan::from_profile(&prof, cfg.h, cfg.dt, lo)
    });
    let sources = partition_spatial(source, &decomp);
    let mut cluster = Cluster::new(n, cfg.opts.comm_mode.into());
    if let Some(reg) = telemetry {
        cluster = cluster.with_telemetry(reg);
    }
    if let Some(plan) = schedule {
        cluster = cluster.with_schedule(plan);
    }
    if cfg.opts.sched.is_some() {
        cluster = cluster.with_sched(HostTopology::detect());
    }
    Ok(cluster.run(|ctx| {
        let rank = ctx.rank();
        let sub = decomp.subdomain(rank);
        let mut solver = Solver::new(cfg.clone(), sub, &meshes[rank], &sources[rank], stations);
        // One-time material halo exchange so seam media match the serial
        // run exactly.
        exchange_material_halos(&mut solver.med, &sub, ctx);
        solver.med.precompute();
        if let Some(plan) = &lts_plan {
            solver.enable_lts(plan);
        }
        let mut pgv = if owns_free_surface(&sub) {
            vec![0.0f32; sub.dims.nx * sub.dims.ny]
        } else {
            Vec::new()
        };
        for _ in 0..cfg.steps {
            solver.step_parallel(ctx);
            if !pgv.is_empty() {
                update_pgv(&solver.state, &mut pgv);
            }
        }
        ctx.telem.count(TelCounter::ArenaAllocs, solver.arena_allocations());
        if solver.lts_active() {
            ctx.telem.set_lts_stats(solver.lts_stats());
        }
        if let Some(s) = ctx.sched() {
            let s = Arc::clone(s);
            fold_counters(&s, rank, &mut ctx.telem);
        }
        RankResult {
            rank,
            seismograms: solver.recorder.into_seismograms(),
            ledger: solver_ledger(ctx),
            flops: solver.flops.total,
            steps: cfg.steps,
            surface: owns_free_surface(&sub)
                .then(|| crate::stations::surface_velocities(&solver.state, 1)),
            pgv_map: pgv,
            telemetry: ctx.telem.snapshot(),
            sub,
        }
    }))
}

fn solver_ledger(ctx: &RankCtx) -> TimeLedger {
    ctx.ledger.clone()
}

/// Exchange the raw material halos once at startup (5 arrays), replacing
/// the clamped placeholders at rank seams with true neighbour values.
///
/// Uses parity-ordered blocking sends so it is deadlock-free under both
/// the eager asynchronous engine and the rendezvous synchronous one.
pub fn exchange_material_halos(med: &mut Medium, sub: &Subdomain, ctx: &mut RankCtx) {
    use awp_grid::face::{extract_face, face_len, inject_halo, Axis, Face};
    use awp_vcluster::message::make_tag;
    // Material phase id 7 (outside Velocity/Stress).
    const PHASE: u8 = 7;
    // One-shot startup exchange, but it rides the same zero-copy protocol
    // as the per-step path: pooled staged sends, received vectors recycled.
    let mut arena = HaloArena::new();
    for fid in 0u8..5 {
        for axis in Axis::ALL {
            let (f_lo, f_hi) = match axis {
                Axis::X => (Face::XLo, Face::XHi),
                Axis::Y => (Face::YLo, Face::YHi),
                Axis::Z => (Face::ZLo, Face::ZHi),
            };
            let even = sub.coords[axis.index()] % 2 == 0;
            // Direction 1: low → high (fills low halos of the high rank).
            let send_hi = |med: &Medium, ctx: &mut RankCtx, arena: &mut HaloArena| {
                if let Some(nb) = sub.neighbor(f_hi) {
                    let field = material_array(med, fid);
                    let mut buf = arena.take_buf(face_len(field, f_hi, 2));
                    extract_face(field, f_hi, 2, &mut buf);
                    let tag = make_tag(PHASE, fid, f_lo.id() as u8, 0);
                    ctx.send(nb, tag, buf);
                }
            };
            let recv_lo = |med: &mut Medium, ctx: &mut RankCtx, arena: &mut HaloArena| {
                if let Some(nb) = sub.neighbor(f_lo) {
                    let tag = make_tag(PHASE, fid, f_lo.id() as u8, 0);
                    let data = ctx.recv(nb, tag).into_f32();
                    inject_halo(material_array_mut(med, fid), f_lo, 2, &data);
                    arena.put_buf(data);
                }
            };
            if even {
                send_hi(med, ctx, &mut arena);
                recv_lo(med, ctx, &mut arena);
            } else {
                recv_lo(med, ctx, &mut arena);
                send_hi(med, ctx, &mut arena);
            }
            // Direction 2: high → low.
            let send_lo = |med: &Medium, ctx: &mut RankCtx, arena: &mut HaloArena| {
                if let Some(nb) = sub.neighbor(f_lo) {
                    let field = material_array(med, fid);
                    let mut buf = arena.take_buf(face_len(field, f_lo, 2));
                    extract_face(field, f_lo, 2, &mut buf);
                    let tag = make_tag(PHASE, fid, f_hi.id() as u8, 0);
                    ctx.send(nb, tag, buf);
                }
            };
            let recv_hi = |med: &mut Medium, ctx: &mut RankCtx, arena: &mut HaloArena| {
                if let Some(nb) = sub.neighbor(f_hi) {
                    let tag = make_tag(PHASE, fid, f_hi.id() as u8, 0);
                    let data = ctx.recv(nb, tag).into_f32();
                    inject_halo(material_array_mut(med, fid), f_hi, 2, &data);
                    arena.put_buf(data);
                }
            };
            if even {
                send_lo(med, ctx, &mut arena);
                recv_hi(med, ctx, &mut arena);
            } else {
                recv_hi(med, ctx, &mut arena);
                send_lo(med, ctx, &mut arena);
            }
        }
    }
}

fn material_array(med: &Medium, id: u8) -> &awp_grid::array3::Array3 {
    match id {
        0 => &med.rho,
        1 => &med.lam,
        2 => &med.mu,
        3 => &med.qs,
        _ => &med.qp,
    }
}

fn material_array_mut(med: &mut Medium, id: u8) -> &mut awp_grid::array3::Array3 {
    match id {
        0 => &mut med.rho,
        1 => &mut med.lam,
        2 => &mut med.mu,
        3 => &mut med.qs,
        _ => &mut med.qp,
    }
}

/// Cut a global mesh into per-rank local meshes directly in memory (tests
/// and examples; production paths go through `awp-pario`).
pub fn partition_mesh_direct(mesh: &Mesh, decomp: &Decomp3) -> Vec<Mesh> {
    (0..decomp.rank_count())
        .map(|r| {
            let s = decomp.subdomain(r);
            let mut local = Mesh::zeroed(s.dims, mesh.h);
            for k in 0..s.dims.nz {
                for j in 0..s.dims.ny {
                    for i in 0..s.dims.nx {
                        local.set_sample(
                            i,
                            j,
                            k,
                            mesh.sample(s.origin.i + i, s.origin.j + j, s.origin.k + k),
                        );
                    }
                }
            }
            local
        })
        .collect()
}
