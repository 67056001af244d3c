//! The AWM drivers: serial single-rank runs and rank-parallel runs over
//! the virtual cluster, following the flow of the paper's Fig. 6 ("wave
//! mode"): update velocities → share with neighbours → update stresses →
//! share → repeat, with Eq. (7) phase timing.
//!
//! There is one stepper, [`Solver::step_serial`] and
//! [`Solver::step_parallel`] being its two entry points. It walks a
//! precomputed plan of dt-clusters (`crate::lts`): global time stepping is
//! the plan with a single rate-1 cluster, and a serial run is a step with
//! no communicator.

use crate::arena::HaloArena;
use crate::attenuation::Attenuation;
use crate::boundary::{
    apply_free_surface_stress_win, apply_free_surface_velocity, owns_free_surface, Sponge,
    SpongeFold,
};
use crate::config::{AbcKind, ConfigError, SolverConfig};
use crate::exchange::{
    exchange_k, finish_exchange, full_plan, reduced_stress_plan, reduced_velocity_plan,
    start_exchange_k, tag_step, FieldPlan, Phase,
};
use crate::flops::FlopCounter;
use crate::kernels::{update_stress, update_velocity};
use crate::lts::{LtsInterface, LtsPlan, StepPlan, MAX_CLUSTERS};
use crate::medium::{global_vp_max, Medium};
use crate::pml::Mpml;
use crate::shell::{halo_feeding_slabs, Win};
use crate::simd::{stress_backend_win_fold, update_velocity_backend_win, SimdBackend};
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
    Registry, Snapshot, NO_CLUSTER, NO_PEER,
};
use awp_vcluster::cluster::RankCtx;
use awp_vcluster::sched::fold_counters;
use awp_vcluster::{
    Category, Cluster, CommMode, ExecSlot, HostTopology, SchedulePlan, Tile, TimeLedger,
};
use std::sync::Arc;
use std::time::Instant;

/// The update loops this solver runs, resolved once at construction.
#[derive(Debug, Clone, Copy)]
enum Loops {
    /// The inline-division, full-grid-only loops of `kernels.rs` (no
    /// `reciprocal_media`): the Table 2 / Fig. 13 ladder.
    Legacy,
    /// The lane-generic body of `crate::simd` at the widest width the CPU
    /// has — or, without `simd`, at width 1.
    Lanes(SimdBackend),
    /// The slice-indexed loops of `kernels::reference`, folding nothing
    /// (kernel → inject → image → damp over whole windows): the
    /// separate-pass stepper `fold_tests` holds the folded walk to.
    #[cfg(test)]
    Reference,
}

#[derive(Debug, Clone, Copy)]
struct Kernels {
    loops: Loops,
    block: BlockSpec,
}

impl Kernels {
    /// Does the stress walk fold the sponge in? Only the lane body does.
    fn folds(self) -> bool {
        matches!(self.loops, Loops::Lanes(_))
    }

    fn velocity(self, state: &mut WaveState, med: &Medium, dth: f32, w: Win) {
        match self.loops {
            Loops::Legacy => {
                // `validate()` keeps the legacy layout away from the overlap
                // pipeline and from LTS, the only sources of windows.
                debug_assert_eq!(w, Win::full(state.dims), "legacy kernels are full-grid only");
                update_velocity(state, med, dth, self.block, false);
            }
            Loops::Lanes(b) => update_velocity_backend_win(state, med, dth, self.block, w, b),
            #[cfg(test)]
            Loops::Reference => {
                crate::kernels::reference::update_velocity_win(state, med, dth, self.block, w)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn stress(
        self,
        state: &mut WaveState,
        med: &Medium,
        atten: Option<&Attenuation>,
        dth: f32,
        dt: f32,
        w: Win,
        fold: Option<&SpongeFold>,
    ) {
        let block = self.block;
        match self.loops {
            Loops::Legacy => {
                debug_assert_eq!(w, Win::full(state.dims), "legacy kernels are full-grid only");
                update_stress(state, med, atten, dth, dt, block, false);
            }
            Loops::Lanes(b) => {
                stress_backend_win_fold(state, med, atten, dth, dt, block, w, b, fold)
            }
            #[cfg(test)]
            Loops::Reference => {
                crate::kernels::reference::update_stress_win(state, med, atten, dth, dt, block, w)
            }
        }
    }
}

/// Executor context for one tile batch: raw pointers into the owner rank's
/// solver, valid from `submit` to `run_to_completion` per the [`ExecSlot`]
/// contract. Tiles partition the window into disjoint k-slabs and both
/// kernels are cell-pure — the velocity kernel writes only velocity
/// components of its own cells while reading stresses, the stress kernel
/// writes only stresses and memory variables of its own cells while reading
/// velocities (a tiled walk retires no velocity plane: a neighbouring tile
/// may still read it), and a batch runs one of the two — so the concurrent
/// mutable accesses through `state` never alias a written cell. `atten` is
/// null when attenuation is off.
struct TileCtx<'a> {
    kernels: Kernels,
    phase: Phase,
    state: *mut WaveState,
    med: *const Medium,
    atten: *const Attenuation,
    dth: f32,
    dt: f32,
    fold: Option<SpongeFold<'a>>,
}

unsafe fn run_tile(p: *const (), t: Tile) {
    let c = unsafe { &*(p as *const TileCtx) };
    let state = unsafe { &mut *c.state };
    let med = unsafe { &*c.med };
    let w = Win { i0: t.i0, i1: t.i1, j0: t.j0, j1: t.j1, k0: t.k0, k1: t.k1 };
    match c.phase {
        Phase::Velocity => c.kernels.velocity(state, med, c.dth, w),
        Phase::Stress => {
            let atten = unsafe { c.atten.as_ref() };
            c.kernels.stress(state, med, atten, c.dth, c.dt, w, c.fold.as_ref())
        }
    }
}

/// Where a step's messages and timings go: a rank of the virtual cluster,
/// or — a serial run — nowhere, with the caller's ledger.
enum Comm<'a> {
    Serial { ledger: &'a mut TimeLedger, tel: &'a mut Recorder },
    Rank(&'a mut RankCtx),
}

impl Comm<'_> {
    fn rank(&mut self) -> Option<&mut RankCtx> {
        match self {
            Comm::Serial { .. } => None,
            Comm::Rank(ctx) => Some(ctx),
        }
    }

    fn tel(&mut self) -> &mut Recorder {
        match self {
            Comm::Serial { tel, .. } => tel,
            Comm::Rank(ctx) => &mut ctx.telem,
        }
    }

    fn ledger(&mut self) -> &mut TimeLedger {
        match self {
            Comm::Serial { ledger, .. } => ledger,
            Comm::Rank(ctx) => &mut ctx.ledger,
        }
    }

    /// Close the interval opened at `t0`: one clock read feeds both the
    /// coarse Eq. (7) ledger and the telemetry phase span.
    fn charge(&mut self, cat: Category, phase: TelPhase, t0: Instant) {
        let el = t0.elapsed();
        self.ledger().add(cat, el);
        self.tel().span_at(phase, t0, el);
    }
}

/// What every window pass of one step shares.
struct Pass<'a> {
    kernels: Kernels,
    med: &'a Medium,
    injector: &'a SourceInjector,
    /// This rank images the free surface.
    on_surface: bool,
}

/// What one firing cluster steps with this tick: its step sizes and the
/// dt-dependent operators — its own, or (rate 1) the solver's.
struct ClusterOps<'a> {
    dth: f32,
    dt: f64,
    /// Source time: the σ update spans base ticks `n..n+rate`, so the
    /// source term applies at its centre (rate 1 ⇒ `n·dt`).
    t_src: f64,
    atten: Option<&'a Attenuation>,
    mpml: Option<&'a mut Mpml>,
    /// The stress sponge: what of it the walk applies, what waits.
    fold: Option<SpongeFold<'a>>,
}

impl Pass<'_> {
    /// Run one kernel over `w`: inline, or — `tile_planes` — as disjoint-write
    /// k-slab tiles on this rank's dispatch queue, parking on the batch
    /// barrier (helping lagging peers while waiting). Only the cell-pure
    /// kernel is tiled; boundary work stays owner-side, after the barrier,
    /// which keeps the pass bit-exact under any steal schedule.
    fn kernel(
        &self,
        phase: Phase,
        state: &mut WaveState,
        ops: &ClusterOps,
        w: Win,
        tile_planes: Option<usize>,
        comm: &mut Comm,
    ) {
        let (dth, dt) = (ops.dth, ops.dt as f32);
        let (Some(planes), Some(ctx)) = (tile_planes, comm.rank()) else {
            return match phase {
                Phase::Velocity => self.kernels.velocity(state, self.med, dth, w),
                Phase::Stress => {
                    self.kernels.stress(state, self.med, ops.atten, dth, dt, w, ops.fold.as_ref())
                }
            };
        };
        let sched = Arc::clone(ctx.sched().expect("tiled pass requires an attached scheduler"));
        let rank = ctx.rank();
        let tiles =
            Tile { i0: w.i0, i1: w.i1, j0: w.j0, j1: w.j1, k0: w.k0, k1: w.k1 }.split_k(planes);
        ctx.telem.observe_count(TelHistKind::QueueDepth, tiles.len() as u64);
        let tctx = TileCtx {
            kernels: self.kernels,
            phase,
            state,
            med: self.med,
            atten: ops.atten.map_or(std::ptr::null(), |a| a as *const Attenuation),
            dth,
            dt,
            fold: ops.fold,
        };
        // SAFETY: `tctx` outlives the batch (submit → run_to_completion,
        // both below, on this stack frame); tiles write disjoint cells and
        // the kernels are cell-pure, so concurrent executors never write
        // the same memory (see `awp_vcluster::sched` module docs).
        unsafe {
            let exec = ExecSlot::new(&tctx as *const TileCtx as *const (), run_tile);
            sched.submit(rank, exec, &tiles);
        }
        sched.run_to_completion(rank);
    }

    /// Velocity phase over one window: kernel update then the M-PML
    /// velocity correction, both restricted to `w`. The M-PML work is
    /// recorded as a nested `Boundary` span (inclusive: it also counts
    /// toward the enclosing window-phase span).
    fn velocity_win(
        &self,
        state: &mut WaveState,
        ops: &mut ClusterOps,
        w: Win,
        tiles: Option<usize>,
        comm: &mut Comm,
    ) {
        self.kernel(Phase::Velocity, state, ops, w, tiles, comm);
        if let Some(p) = ops.mpml.as_deref_mut() {
            let t0 = comm.tel().start();
            p.apply_velocity_win(state, self.med, ops.dth, w);
            comm.tel().finish(t0, TelPhase::Boundary);
        }
    }

    /// Stress phase over one window: kernel update (which, under a sponge,
    /// damps every row it does not defer — `SpongeFold`) → M-PML
    /// correction → source injection → free-surface imaging
    /// (surface-touching windows only) → sponge on the deferred rows.
    /// Boundary-condition work outside the kernel and source injection are
    /// recorded as nested `Boundary`/`Source` spans inside the window-phase
    /// span.
    fn stress_win(
        &self,
        state: &mut WaveState,
        ops: &mut ClusterOps,
        w: Win,
        tiles: Option<usize>,
        comm: &mut Comm,
    ) {
        self.kernel(Phase::Stress, state, ops, w, tiles, comm);
        let tel = comm.tel();
        if let Some(p) = ops.mpml.as_deref_mut() {
            let t0 = tel.start();
            p.apply_stress_win(state, self.med, ops.dth, w);
            tel.finish(t0, TelPhase::Boundary);
        }
        let t0 = tel.start();
        self.injector.inject_win(state, ops.t_src, ops.dt, w);
        tel.finish(t0, TelPhase::Source);
        let images = self.on_surface && w.k0 == 0;
        if images || ops.fold.is_some() {
            let t0 = tel.start();
            if images {
                apply_free_surface_stress_win(state, w);
            }
            if let Some(fold) = &ops.fold {
                fold.damp_deferred(state, w);
            }
            tel.finish(t0, TelPhase::Boundary);
        }
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
    kernels: Kernels,
    /// Maximum P speed of the global grid: the M-PML damping scale, which
    /// every rank of a decomposition must agree on.
    vp_max: f64,
    vel_plan: Vec<FieldPlan>,
    str_plan: Vec<FieldPlan>,
    /// Pooled halo staging buffers (zero-copy exchange path).
    arena: HaloArena,
    /// The dt-clusters [`Solver::step`] walks (one, unless LTS is armed).
    plan: StepPlan,
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
    /// ([`try_run_parallel_decomp`]) — the overlap-efficiency bench reads
    /// the `Wait` total to measure how much communication the split
    /// timestep hid.
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
    /// panicking a rank thread mid-step. Takes `mesh`'s own maximum P speed
    /// for the global one — right when `sub` is the whole grid; a rank of a
    /// decomposed heterogeneous grid wants [`Solver::try_new_rank`].
    pub fn try_new(
        cfg: SolverConfig,
        sub: Subdomain,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
    ) -> Result<Self, ConfigError> {
        Self::try_new_rank(cfg, sub, mesh, source, stations, 0.0)
    }

    /// [`Solver::try_new`] for one rank of a decomposed grid: `vp_max` is
    /// the maximum P speed over *all* ranks' meshes ([`global_vp_max`]), so
    /// the CFL guard and the M-PML damping profile are functions of the
    /// global grid and parallel ≡ serial on heterogeneous media. A value
    /// below the local maximum is raised to it.
    pub fn try_new_rank(
        cfg: SolverConfig,
        sub: Subdomain,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
        vp_max: f64,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        assert_eq!(mesh.dims, sub.dims, "mesh does not match subdomain");
        let mut med = Medium::from_mesh(mesh);
        let vp_max = vp_max.max(med.vp_max());
        // CFL guard.
        let dt_max = 6.0 * cfg.h / (7.0 * 3.0f64.sqrt() * vp_max);
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
        let backend = crate::simd::backend_for(&cfg.opts);
        let mpml = match cfg.abc {
            AbcKind::Mpml { width, pmax } => Some(
                Mpml::new(&sub, med.h, vp_max, width, pmax, cfg.dt, cfg.q_band.1.max(0.5), 1e-4)
                    .with_backend(backend),
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
        let loops = if cfg.opts.reciprocal_media { Loops::Lanes(backend) } else { Loops::Legacy };
        let kernels = Kernels { loops, block: cfg.opts.block };
        Ok(Self {
            plan: StepPlan::global(&sub),
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
            kernels,
            vp_max,
            vel_plan,
            str_plan,
            arena: HaloArena::new(),
        })
    }

    /// Arm clustered local time stepping from a plan derived from the
    /// *global* velocity structure (so all ranks agree on the partition).
    /// Returns `true` when a multi-rate schedule is active; single-cluster
    /// plans — uniform media, or a profile whose CFL headroom never
    /// reaches one octave — are global time stepping, the bit-exact
    /// degenerate case of the LTS schedule.
    pub fn enable_lts(&mut self, plan: &LtsPlan) -> bool {
        self.plan =
            StepPlan::build(&self.cfg, &self.sub, &self.med, self.vp_max, &plan.clusters);
        self.lts_active()
    }

    /// Is a multi-rate LTS schedule driving this solver?
    pub fn lts_active(&self) -> bool {
        self.plan.is_multi_rate()
    }

    /// Per-cluster substep/time accounting (empty under global dt).
    pub fn lts_stats(&self) -> Vec<awp_telemetry::LtsClusterStat> {
        if self.lts_active() {
            self.plan.stats()
        } else {
            Vec::new()
        }
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
        for (c, cl) in self.plan.clusters.iter().enumerate() {
            if let Some(p) = &cl.own.mpml {
                out.extend(p.checkpoint_fields(&format!("lts{c}_mpml_")));
            }
        }
        out
    }

    /// Inverse of [`Solver::checkpoint_fields`] (arm LTS first: cluster ψ
    /// is restored into the armed plan). Unknown names are ignored.
    pub fn restore_fields(&mut self, fields: &[(String, Vec<f32>)]) {
        self.state.restore_fields(fields);
        if let Some(p) = &mut self.mpml {
            p.restore_fields("mpml_", fields);
        }
        for (c, cl) in self.plan.clusters.iter_mut().enumerate() {
            if let Some(p) = &mut cl.own.mpml {
                p.restore_fields(&format!("lts{c}_mpml_"), fields);
            }
        }
    }

    /// Heap-touching events in the exchange staging arena (flat across
    /// steady-state steps ⇔ the halo pipeline is allocation-free).
    pub fn arena_allocations(&self) -> u64 {
        self.arena.allocations()
    }

    /// One base tick (see the `crate::lts` module docs for the schedule and
    /// the interface interpolation). Every cluster that fires on this tick
    /// runs its velocity phase, then every firing cluster — top to bottom —
    /// its stress phase, and a phase is: blend the interface ghosts → per
    /// slab [update the window → start that slab's halo sends] → restore
    /// the ghosts → finish the exchange. Under a sponge the stress update
    /// of a window is kernel (damping each row it does not defer, and the
    /// velocity row two planes behind) → inject → image → damp the
    /// deferred rows (`SpongeFold`); the tick ends with the velocity sponge
    /// on the planes no walk retired.
    ///
    /// With overlap on (§IV.C) the cluster's window is walked as the
    /// full-row k-slabs of `crate::shell` and each slab's k-range of the
    /// x/y faces is posted as soon as the slab is done, so its messages
    /// fly while the next slabs compute: "While the value of v is computed,
    /// the exchange of u can be performed simultaneously". Because the
    /// velocity pass reads only stresses and the stress pass reads only
    /// velocities, per-cell updates are window-order invariant and the
    /// pipeline is bit-exact against the fused pass, which is the same
    /// walk with the whole cluster as its one slab and a blocking exchange
    /// after it. The fused pass is what runs without a communicator, on
    /// the synchronous engine and on the legacy layout.
    ///
    /// Each firing cluster exchanges only its own k-range of the x/y halos
    /// (ranks never split z under LTS — validated by the drivers — so
    /// z-plan entries have no neighbour and drop out). The tag's step field
    /// packs tick, cluster (≤ [`MAX_CLUSTERS`]) and slab index
    /// (`exchange::tag_step`), keeping every slab of every cluster phase
    /// in its own tag space.
    fn step(&mut self, mut comm: Comm) {
        let n = self.step as u64;
        let dt = self.cfg.dt;
        let dth = (dt / self.cfg.h) as f32;
        let on_surface = self.cfg.free_surface && owns_free_surface(&self.sub);
        let opts = self.cfg.opts;
        let async_rank = comm.rank().is_some_and(|ctx| ctx.mode() == CommMode::Asynchronous);
        let split = opts.overlap && async_rank && opts.reciprocal_media;
        // Each slab's tiles go on the work-stealing scheduler when both the
        // config asks for it and the cluster carries one; the owner starts
        // the slab's sends after its batch barrier.
        let tiles = opts
            .sched
            .filter(|_| split && comm.rank().is_some_and(|ctx| ctx.sched().is_some()))
            .map(|s| s.tile_planes);
        let Solver {
            sub, med, state, atten, sponge, mpml, injector, flops, vel_plan, str_plan, arena, ..
        } = self;
        let multi = self.plan.is_multi_rate();
        let StepPlan { clusters, interfaces } = &mut self.plan;
        let kernels = self.kernels;
        let pass = Pass { kernels, med, injector, on_surface };
        // Where the stress walk of cluster window `w` stops retiring the
        // velocity sponge (`SpongeFold::retire` = `[w.k0, here)`); the rest
        // waits for the end of the tick. Row (j, k − 2) is final after
        // stress row (j, k) only in a plain k-major walk with no tile beside
        // it, and the lag never reaches the last two planes — the two the
        // cluster below, whose stress phase comes later (clusters run top
        // to bottom), still reads and blends.
        let retires = kernels.folds() && kernels.block == BlockSpec::UNBLOCKED && tiles.is_none();
        let retired_to = |w: Win| if retires { w.k1.saturating_sub(2).max(w.k0) } else { w.k0 };
        comm.tel().set_step(n);
        let mut firing = [false; MAX_CLUSTERS];
        for (f, c) in firing.iter_mut().zip(clusters.iter()) {
            *f = n % u64::from(c.rate) == 0;
        }

        // Snapshot the coarse edge planes on coarse firing ticks.
        for f in interfaces.iter_mut().filter(|f| firing[f.coarse]) {
            f.capture_prev(state);
        }

        for phase in [Phase::Velocity, Phase::Stress] {
            let (halo, span) = match phase {
                Phase::Velocity => (&*vel_plan, TelPhase::VelocityInterior),
                Phase::Stress => (&*str_plan, TelPhase::StressInterior),
            };
            for (c, cl) in clusters.iter_mut().enumerate().filter(|(c, _)| firing[*c]) {
                let tc = Instant::now();
                if multi {
                    comm.tel().set_cluster(c as u8);
                }
                if multi && phase == Phase::Velocity {
                    // Cluster-tick causal anchor: tag = cluster index,
                    // bytes = rate (one mark per firing cluster per tick).
                    let rate = u64::from(cl.rate);
                    comm.tel().causal_mark(CausalKind::ClusterTick, NO_PEER, c as u64, rate);
                }
                if phase == Phase::Stress && on_surface && cl.win.k0 == 0 {
                    // Velocity imaging precedes every stress window of the
                    // surface cluster (only its windows reach the mirrored
                    // halo planes — deeper clusters start ≥ min_slab ≥ 4
                    // planes down, beyond the stencil's reach of 2).
                    let t0 = Instant::now();
                    apply_free_surface_velocity(state, med, self.cfg.h as f32);
                    comm.charge(Category::Comp, TelPhase::Boundary, t0);
                }
                // A fine cluster's velocity phase interpolates while its
                // coarse neighbour idles, its stress phase while the
                // neighbour fires too.
                let ghosts = |f: &&mut LtsInterface| {
                    f.fine == c && firing[f.coarse] == (phase == Phase::Stress)
                };
                for f in interfaces.iter_mut().filter(ghosts) {
                    f.blend_ghosts(state, phase);
                }
                let rate = f64::from(cl.rate);
                let sponge = cl.own.sponge.as_ref().or(sponge.as_ref());
                let mut ops = ClusterOps {
                    dth: dth * cl.rate as f32,
                    dt: dt * rate,
                    t_src: (n as f64 + (rate - 1.0) * 0.5) * dt,
                    atten: cl.own.atten.as_ref().or(atten.as_ref()),
                    mpml: cl.own.mpml.as_mut().or(mpml.as_mut()),
                    fold: sponge.map(|sponge| SpongeFold {
                        sponge,
                        sources: injector,
                        imaged: match (kernels.folds(), on_surface && cl.win.k0 == 0) {
                            (false, _) => usize::MAX,
                            (true, true) => 3,
                            (true, false) => 0,
                        },
                        retire: (cl.win.k0, retired_to(cl.win)),
                    }),
                };
                let slabs = if split { &cl.slabs[..] } else { std::slice::from_ref(&cl.win) };
                let mut pending = split.then(|| arena.take_reqs());
                for (s, &w) in slabs.iter().enumerate() {
                    let t0 = Instant::now();
                    match phase {
                        Phase::Velocity => pass.velocity_win(state, &mut ops, w, tiles, &mut comm),
                        Phase::Stress => pass.stress_win(state, &mut ops, w, tiles, &mut comm),
                    }
                    comm.charge(Category::Comp, span, t0);
                    if let (Some(ctx), Some(p)) = (comm.rank(), pending.as_mut()) {
                        let (tag, kr) = (tag_step(n, c, s), (w.k0, w.k1));
                        start_exchange_k(state, sub, ctx, halo, phase, tag, arena, kr, p);
                    }
                }
                // Drop the ghost overwrites before the halo injection so
                // the blend window stays as narrow as possible; messages
                // only ever carry this cluster's own k-range, so the
                // blended coarse planes never leak into a send.
                for f in interfaces.iter_mut().filter(ghosts) {
                    f.restore_ghosts(state, phase);
                }
                if let Some(ctx) = comm.rank() {
                    match pending {
                        Some(p) => finish_exchange(state, ctx, p, arena),
                        None => {
                            let (tag, kr) = (tag_step(n, c, 0), (cl.win.k0, cl.win.k1));
                            exchange_k(state, sub, ctx, halo, phase, tag, arena, kr)
                        }
                    }
                }
                cl.ns += tc.elapsed().as_nanos() as u64;
                if phase == Phase::Stress {
                    cl.fires += 1;
                    flops.add_step(cl.win.count(), self.cfg.attenuation);
                    if let Some(p) = ops.mpml {
                        flops.add_mpml(p.zone_cells_win(cl.win));
                    }
                }
            }
        }

        // Velocity sponge of every firing cluster on the planes its stress
        // walk did not retire, after *all* stress phases have read the
        // undamped velocities.
        for (c, cl) in clusters.iter().enumerate().filter(|(c, _)| firing[*c]) {
            if let Some(sp) = cl.own.sponge.as_ref().or(sponge.as_ref()) {
                if multi {
                    comm.tel().set_cluster(c as u8);
                }
                let t0 = Instant::now();
                let rest = Win { k0: retired_to(cl.win), ..cl.win };
                sp.apply_components_win(state, &Component::VELOCITIES, rest);
                comm.charge(Category::Comp, TelPhase::Boundary, t0);
            }
        }
        if multi {
            comm.tel().set_cluster(NO_CLUSTER);
        }

        if let Some(ctx) = comm.rank().filter(|_| opts.per_step_barrier) {
            ctx.barrier();
        }
        let t0 = Instant::now();
        self.recorder.record(state);
        comm.charge(Category::Output, TelPhase::Output, t0);
        self.step += 1;
        if let Some(ctx) = comm.rank() {
            self.health_probe(ctx, n);
        }
    }

    /// Advance one step without communication. `ledger` receives phase
    /// timings.
    pub fn step_serial(&mut self, ledger: &mut TimeLedger) {
        // Covers the stepper's own arithmetic (the LTS ghost blends) and
        // makes the kernels' guards nested ones.
        let _ftz = FlushGuard::enter();
        self.step(Comm::Serial { ledger, tel: &mut Recorder::disabled() });
    }

    /// Advance one step as a rank of the virtual cluster (velocity →
    /// exchange → stress → exchange), honouring the configured engine,
    /// overlap and barrier options.
    pub fn step_parallel(&mut self, ctx: &mut RankCtx) {
        // As in `step_serial`; the rank thread keeps the mode across the
        // halo exchanges, which only copy.
        let _ftz = FlushGuard::enter();
        self.step(Comm::Rank(ctx));
    }

    /// Simulation-health sentinel (`--health-every N`): scan the
    /// halo-feeding slabs of the velocity field after step `step` for
    /// non-finite values and the peak |v| watermark. They hold every value
    /// that left this rank, so corruption is caught at the cheapest surface
    /// before it spreads to peers. Emits a structured Health causal event (tag 1 =
    /// non-finite found, bytes = watermark f32 bits) and aborts the run
    /// with a clear error instead of letting NaNs silently reach the
    /// outputs.
    fn health_probe(&self, ctx: &mut RankCtx, step: u64) {
        let every = self.cfg.opts.health_every;
        if every == 0 || step % every != 0 {
            return;
        }
        let mut peak = 0.0f32;
        let mut finite = true;
        for w in halo_feeding_slabs(&self.sub) {
            for k in w.k0..w.k1 {
                for j in w.j0..w.j1 {
                    for i in w.i0..w.i1 {
                        let (i, j, k) = (i as isize, j as isize, k as isize);
                        let st = &self.state;
                        // `f32::max` drops a NaN operand, so test each
                        // component before folding the watermark.
                        for v in [st.vx.get(i, j, k), st.vy.get(i, j, k), st.vz.get(i, j, k)] {
                            finite &= v.is_finite();
                            peak = peak.max(v.abs());
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

    /// Replace the source injector (used by the temporal-partition driver
    /// when a new source window is loaded).
    pub fn set_source(&mut self, source: &KinematicSource) {
        self.injector = SourceInjector::new(source, self.cfg.h);
    }

    /// The serial run loop: one rank over the whole grid, LTS armed from
    /// the mesh when configured. `before_step` runs ahead of each step.
    fn run_serial_with(
        cfg: SolverConfig,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
        mut before_step: impl FnMut(&mut Solver, &mut TimeLedger),
    ) -> RankResult {
        let sub = Decomp3::new(cfg.dims, [1, 1, 1]).subdomain(0);
        let mut solver = Solver::new(cfg.clone(), sub, mesh, source, stations);
        if let Some(lo) = cfg.opts.lts {
            solver.enable_lts(&LtsPlan::from_mesh(mesh, cfg.dt, lo));
        }
        let mut ledger = TimeLedger::new();
        let mut pgv = vec![0.0f32; cfg.dims.nx * cfg.dims.ny];
        for _ in 0..cfg.steps {
            before_step(&mut solver, &mut ledger);
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
        let tp = awp_source::partition::TemporalPartition::new(source, window);
        let mut current_seg = 0usize;
        Self::run_serial_with(cfg, mesh, &tp.segments[0], stations, |solver, ledger| {
            let seg = tp.segment_for(solver.step as f64 * solver.cfg.dt);
            if seg != current_seg {
                ledger.time(Category::Reinit, || solver.set_source(&tp.segments[seg]));
                current_seg = seg;
            }
        })
    }

    /// Serial convenience: run the whole configuration on one rank.
    pub fn run_serial(
        cfg: SolverConfig,
        mesh: &Mesh,
        source: &KinematicSource,
        stations: &[Station],
    ) -> RankResult {
        Self::run_serial_with(cfg, mesh, source, stations, |_, _| {})
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
/// partitioning the source internally. `meshes` must hold one local mesh
/// per rank (use `awp_pario::partition` or [`partition_mesh_direct`]).
/// Panics on an invalid configuration.
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
    let decomp = Decomp3::new(cfg.dims, parts);
    try_run_parallel_decomp(cfg, decomp, meshes, source, stations, None, None)
}

/// The general fallible driver: takes an explicit (possibly skewed)
/// [`Decomp3`] instead of a balanced `parts` split — the scheduler bench
/// constructs a deliberately imbalanced one to measure how much wall-clock
/// work stealing recovers. With a telemetry registry every rank records
/// phase spans / counters / histograms, each `RankResult` carries the
/// rank's snapshot, and the registry can produce the aggregate
/// [`awp_telemetry::TelemetryReport`] and Chrome trace after the run. With
/// a [`SchedulePlan`] the virtual cluster deterministically perturbs
/// message delivery order and wait-all polling per the plan's seed; the
/// schedule fuzzer in `awp-verify` drives this to assert that results are
/// bit-exact under any legal completion order.
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
    let vp_max = global_vp_max(meshes);
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
        let mut solver =
            Solver::try_new_rank(cfg.clone(), sub, &meshes[rank], &sources[rank], stations, vp_max)
                .expect("validated above");
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
            ledger: ctx.ledger.clone(),
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

/// Fill the raw material halos once at startup (5 arrays) with what the
/// serial run holds there: true neighbour values across rank seams,
/// nearest-interior copies beyond global boundaries — edges and corners
/// included, which `Medium::precompute`'s four-cell harmonic means read
/// diagonally. The axes go one after another and each slab spans the
/// halos of the axes already done (x, then y including the x-halos, then z
/// including both), so a corner value arrives in up to three hops.
///
/// Uses parity-ordered blocking sends so it is deadlock-free under both
/// the eager asynchronous engine and the rendezvous synchronous one.
pub fn exchange_material_halos(med: &mut Medium, sub: &Subdomain, ctx: &mut RankCtx) {
    use awp_grid::array3::Array3;
    use awp_grid::face::{Axis, Face};
    use awp_vcluster::message::make_tag;
    // Material phase id 7 (outside Velocity/Stress).
    const PHASE: u8 = 7;
    const W: isize = 2;
    let n = [sub.dims.nx as isize, sub.dims.ny as isize, sub.dims.nz as isize];
    let fields = [&mut med.rho, &mut med.lam, &mut med.mu, &mut med.qs, &mut med.qp];
    for (fid, field) in fields.into_iter().enumerate() {
        for axis in Axis::ALL {
            let a = axis.index();
            // Visit `layers` along `axis` × the interior of the axes still
            // to come × the halo-extended range of the axes already done.
            let slab = |layers: std::ops::Range<isize>, f: &mut dyn FnMut([isize; 3])| {
                let span = |ax: usize| match ax.cmp(&a) {
                    std::cmp::Ordering::Less => -W..n[ax] + W,
                    std::cmp::Ordering::Equal => layers.clone(),
                    std::cmp::Ordering::Greater => 0..n[ax],
                };
                for k in span(2) {
                    for j in span(1) {
                        span(0).for_each(|i| f([i, j, k]));
                    }
                }
            };
            let (lo, hi) = (Face::ALL[2 * a], Face::ALL[2 * a + 1]);
            let even = sub.coords[a] % 2 == 0;
            // Low → high fills the low halos of the high rank, then back.
            for (from, into) in [(hi, lo), (lo, hi)] {
                let tag = make_tag(PHASE, fid as u8, into.id() as u8, 0);
                let send = |field: &Array3, ctx: &mut RankCtx| {
                    let Some(nb) = sub.neighbor(from) else { return };
                    let mut buf = Vec::new();
                    let inner = if from.is_low() { 0..W } else { n[a] - W..n[a] };
                    slab(inner, &mut |[i, j, k]| buf.push(field.get(i, j, k)));
                    ctx.send(nb, tag, buf);
                };
                let fill = |field: &mut Array3, ctx: &mut RankCtx| {
                    let halo = if into.is_low() { -W..0 } else { n[a]..n[a] + W };
                    match sub.neighbor(into) {
                        Some(nb) => {
                            let data = ctx.recv(nb, tag).into_f32();
                            let mut next = data.iter();
                            slab(halo, &mut |[i, j, k]| {
                                field.set(i, j, k, *next.next().expect("material slab too short"))
                            });
                            assert!(next.next().is_none(), "material slab too long");
                        }
                        // `Medium::clamp_halos` left the right copies, except
                        // of halo cells an earlier axis has since received.
                        None if sub.decomp.parts[..a].iter().any(|&p| p > 1) => {
                            slab(halo, &mut |p| {
                                let mut q = p;
                                q[a] = p[a].clamp(0, n[a] - 1);
                                field.set(p[0], p[1], p[2], field.get(q[0], q[1], q[2]));
                            })
                        }
                        None => {}
                    }
                };
                if even {
                    send(field, ctx);
                    fill(field, ctx);
                } else {
                    fill(field, ctx);
                    send(field, ctx);
                }
            }
        }
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

#[cfg(test)]
mod fold_tests;
