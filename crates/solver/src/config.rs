//! Solver configuration, optimisation toggles and the Table-2 code-version
//! presets.

use awp_grid::blocking::BlockSpec;
use awp_grid::dims::Dims3;
use awp_vcluster::CommMode;
use serde::{Deserialize, Serialize};

/// Absorbing boundary selection (paper §II.D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AbcKind {
    /// No absorbing boundaries (rigid box) — verification only.
    None,
    /// Cerjan sponge layers: unconditionally stable, weaker absorption.
    Sponge { width: usize, amp: f64 },
    /// Multi-axial PML (M-PML): strong absorption; `pmax` is the
    /// cross-coupling ratio stabilising strong media gradients.
    Mpml { width: usize, pmax: f64 },
}

impl AbcKind {
    /// The M8 production choice: "we successfully used M-PMLs with a width
    /// of 10 grid points" (§II.D). The cross-coupling ratio 0.3 is what our
    /// long-run probes need to keep the free-surface/PML corner stable —
    /// exactly the instability M-PML was invented to suppress ("the
    /// split-equation PMLs … are known to be numerically unstable", §II.D).
    pub fn m8() -> Self {
        AbcKind::Mpml { width: 10, pmax: 0.3 }
    }

    pub fn default_sponge() -> Self {
        AbcKind::Sponge { width: 20, amp: 0.92 }
    }

    pub fn width(&self) -> usize {
        match *self {
            AbcKind::None => 0,
            AbcKind::Sponge { width, .. } | AbcKind::Mpml { width, .. } => width,
        }
    }
}

/// Optimisation toggles — each maps to one of the paper's §IV items so
/// benches can measure them independently (Table 2 / Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverOpts {
    /// §IV.B: precompute reciprocal densities and harmonic moduli once
    /// ("we store the reciprocals of mu and lam") instead of dividing in
    /// the inner loops.
    pub reciprocal_media: bool,
    /// §IV.B cache blocking of the (k, j) loop nest. An ablation toggle:
    /// the Table-2 presets from v7.1 on carry the paper's 16/8, but on the
    /// vector backends blocking measures slower than the plain k-major
    /// walk (EXPERIMENTS.md row BLK), and only that walk can retire the
    /// velocity sponge behind itself, so [`SolverOpts::optimized`] runs
    /// unblocked.
    pub block: BlockSpec,
    /// §IV.A reduced algorithm-level communication (per-field per-axis
    /// minimal halo widths instead of blanket 2-cell exchanges).
    pub reduced_comm: bool,
    /// Run the optimized kernel body at the widest vector width the CPU
    /// has (runtime-dispatched AVX2/SSE2); off, the same body runs at
    /// width 1. Requires `reciprocal_media`; every width is bit-exact with
    /// the others, so it composes freely with every equivalence test —
    /// including the overlap slab pipeline.
    pub simd: bool,
    /// §IV.C computation/communication overlap via the k-slab pipeline
    /// (`crate::shell`): the window is walked as a few full-row k-slabs and
    /// each slab's halo sends fly while the next slabs update; off, the
    /// fused pass exchanges after the whole window. Composes with `simd`, M-PML
    /// and LTS; requires the asynchronous engine
    /// (`SolverConfig::validate` rejects the combination otherwise).
    pub overlap: bool,
    /// §IV.A synchronous vs asynchronous engine.
    pub comm_mode: CommModeOpt,
    /// Insert a global barrier every step (the redundant synchronisation
    /// the paper removes; kept togglable to measure T_sync).
    pub per_step_barrier: bool,
    /// Clustered local time stepping: partition the depth axis into
    /// rate-2ᵏ dt-clusters from the medium's per-plane CFL bounds and
    /// substep each at its own rate. `None` (the default, including in
    /// [`SolverOpts::optimized`]) keeps single-rate stepping; LTS stays an
    /// explicit opt-in ([`SolverOpts::optimized_lts`]) because a
    /// multi-rate schedule is a different — O(dt)-equivalent but not
    /// bit-identical — numerical scheme whenever the medium warrants ≥ 2
    /// rates. A cluster census of 1 *is* single-rate stepping, bit for
    /// bit. Requires `reciprocal_media` (the windowed kernels assume the
    /// optimized layout) and, in parallel runs, a z-unpartitioned
    /// decomposition (`parts[2] == 1`).
    #[serde(default)]
    pub lts: Option<LtsOpts>,
    /// Cooperative work-stealing tile scheduler: decompose each pipeline
    /// slab's velocity/stress update into disjoint-write k-slab tiles on
    /// per-rank dispatch queues, and let ranks that finish early (or park
    /// in `finish_exchange`) steal tiles from lagging peers. `None` keeps
    /// the one-thread-per-rank path. Requires `overlap` (tiles are cut
    /// from the slabs of the overlap pipeline). Bit-exact with the
    /// unscheduled path under any steal order. This is the repo's answer
    /// to §IV.D's load imbalance; the paper's hybrid MPI/OpenMP mode lost
    /// to pure MPI there and is not reproduced.
    #[serde(default)]
    pub sched: Option<SchedOpts>,
    /// Simulation-health sentinel cadence (`--health-every N`): every N
    /// steps each rank scans its halo-feeding slabs for non-finite velocities and
    /// records the |v| watermark, aborting with a clear `sim-health:` error
    /// on NaN/Inf instead of writing garbage outputs. 0 (the default)
    /// disables the probe entirely.
    #[serde(default)]
    pub health_every: u64,
}

/// Knobs for the work-stealing tile scheduler (see `awp_vcluster::sched`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedOpts {
    /// Tile granularity: z-planes per tile. Tiles keep the full i/j extent
    /// of the interior window (identical SIMD row geometry), so this is
    /// the only split knob. 0 means one tile per window (no stealing
    /// opportunity — useful for overhead measurement).
    pub tile_planes: usize,
}

impl SchedOpts {
    pub fn new() -> Self {
        Self { tile_planes: 4 }
    }
}

impl Default for SchedOpts {
    fn default() -> Self {
        Self::new()
    }
}

/// Knobs for the dt-cluster construction (see `awp_cvm::lts`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LtsOpts {
    /// Cap on the rate ladder: clusters step at most `2^max_rate_log2 × dt`.
    pub max_rate_log2: u32,
    /// Minimum cluster thickness in depth planes. Must be at least 4
    /// (2 × the stencil half-width) so the two ghost planes a fine cluster
    /// reads from its coarse neighbour never reach into a third cluster.
    pub min_slab: usize,
}

impl LtsOpts {
    pub fn new() -> Self {
        Self { max_rate_log2: 3, min_slab: 4 }
    }
}

impl Default for LtsOpts {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializable mirror of [`CommMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommModeOpt {
    Synchronous,
    Asynchronous,
}

impl From<CommModeOpt> for CommMode {
    fn from(m: CommModeOpt) -> CommMode {
        match m {
            CommModeOpt::Synchronous => CommMode::Synchronous,
            CommModeOpt::Asynchronous => CommMode::Asynchronous,
        }
    }
}

impl SolverOpts {
    /// Everything that pays on this code — AWP-ODC v7.2 minus the cache
    /// blocking, plus the vector backend and the overlap pipeline.
    pub fn optimized() -> Self {
        Self {
            reciprocal_media: true,
            block: BlockSpec::UNBLOCKED,
            reduced_comm: true,
            simd: true,
            overlap: true, // k-slab pipeline: composes with simd/M-PML/LTS
            comm_mode: CommModeOpt::Asynchronous,
            per_step_barrier: false,
            lts: None,
            sched: None,
            health_every: 0,
        }
    }

    /// Everything on *plus* clustered local time stepping: when the
    /// medium's depth-contrast warrants ≥ 2 rates the solver substeps
    /// dt-clusters; otherwise the census collapses to one cluster and this
    /// is bit-identical to [`SolverOpts::optimized`].
    pub fn optimized_lts() -> Self {
        Self { lts: Some(LtsOpts::new()), ..Self::optimized() }
    }

    /// Everything off — the original research code.
    pub fn legacy() -> Self {
        Self {
            reciprocal_media: false,
            block: BlockSpec::UNBLOCKED,
            reduced_comm: false,
            simd: false,
            overlap: false,
            comm_mode: CommModeOpt::Synchronous,
            per_step_barrier: true,
            lts: None,
            sched: None,
            health_every: 0,
        }
    }

    /// Everything on *plus* the work-stealing tile scheduler: interior
    /// updates run as disjoint-write k-slab tiles that idle ranks steal.
    /// Bit-exact with [`SolverOpts::optimized`] under any steal order.
    pub fn optimized_sched() -> Self {
        Self { sched: Some(SchedOpts::new()), ..Self::optimized() }
    }
}

/// A configuration rejected at solver construction — before any rank
/// thread spawns — instead of panicking mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `opts.overlap` requires the asynchronous engine: the split timestep
    /// posts sends early and completes receives late, which the ordered
    /// synchronous rendezvous cannot express.
    OverlapNeedsAsyncEngine,
    /// `opts.lts` requires the optimized (reciprocal-media) layout: the
    /// cluster schedule drives the windowed kernels, which assume it.
    LtsNeedsOptimizedLayout,
    /// `opts.lts` requires `parts[2] == 1` in parallel runs: with the
    /// depth axis unpartitioned every rank holds the full rate ladder, all
    /// cluster coupling stays rank-local, and halo exchange is per-cluster
    /// x/y traffic at each cluster's own cadence.
    LtsNeedsSingleZPart,
    /// `opts.lts.min_slab` must be ≥ 4: a fine cluster reads two ghost
    /// planes from its coarse neighbour, which must not span a cluster.
    LtsSlabTooThin,
    /// `opts.sched` requires `opts.overlap`: tiles are cut from the slabs
    /// of the overlap pipeline; the fused step submits none.
    SchedNeedsOverlap,
    /// `abc` describes a layer the boundary code cannot build on
    /// `dims`; the message names the offending parameter.
    BadAbsorbingLayer(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::OverlapNeedsAsyncEngine => write!(
                f,
                "opts.overlap requires the asynchronous engine \
                 (set opts.comm_mode = Asynchronous or disable overlap)"
            ),
            ConfigError::LtsNeedsOptimizedLayout => write!(
                f,
                "opts.lts requires the optimized layout (set opts.reciprocal_media or disable lts)"
            ),
            ConfigError::LtsNeedsSingleZPart => write!(
                f,
                "opts.lts requires a z-unpartitioned decomposition (parts[2] == 1)"
            ),
            ConfigError::LtsSlabTooThin => write!(
                f,
                "opts.lts.min_slab must be at least 4 (two stencil half-widths)"
            ),
            ConfigError::SchedNeedsOverlap => write!(
                f,
                "opts.sched requires the overlap slab pipeline \
                 (set opts.overlap or drop opts.sched)"
            ),
            ConfigError::BadAbsorbingLayer(why) => write!(f, "bad absorbing layer: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Code versions of Table 2, each enabling the optimisations the paper
/// attributes to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CodeVersion {
    /// 2004 TeraShake-K: MPI tuning only.
    V1_0,
    /// 2005 TeraShake-D: I/O tuning.
    V2_0,
    /// 2006: partitioned mesh.
    V3_0,
    /// 2007 ShakeOut-K: incorporated SGSN.
    V4_0,
    /// 2008 ShakeOut-D: asynchronous communication.
    V5_0,
    /// 2009 W2W: single-CPU optimisation (+overlap experiments).
    V6_0,
    /// 2010: cache blocking.
    V7_1,
    /// 2010 M8: cache blocking + reduced communication.
    V7_2,
}

impl CodeVersion {
    pub const ALL: [CodeVersion; 8] = [
        CodeVersion::V1_0,
        CodeVersion::V2_0,
        CodeVersion::V3_0,
        CodeVersion::V4_0,
        CodeVersion::V5_0,
        CodeVersion::V6_0,
        CodeVersion::V7_1,
        CodeVersion::V7_2,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            CodeVersion::V1_0 => "1.0",
            CodeVersion::V2_0 => "2.0",
            CodeVersion::V3_0 => "3.0",
            CodeVersion::V4_0 => "4.0",
            CodeVersion::V5_0 => "5.0",
            CodeVersion::V6_0 => "6.0",
            CodeVersion::V7_1 => "7.1",
            CodeVersion::V7_2 => "7.2",
        }
    }

    /// Solver-level toggles for this version (I/O-side optimisations are
    /// handled by the pario crate).
    pub fn opts(&self) -> SolverOpts {
        let mut o = SolverOpts::legacy();
        if *self >= CodeVersion::V5_0 {
            o.comm_mode = CommModeOpt::Asynchronous;
            o.per_step_barrier = false;
        }
        if *self >= CodeVersion::V6_0 {
            o.reciprocal_media = true;
        }
        if *self >= CodeVersion::V7_1 {
            o.block = BlockSpec::JAGUAR;
        }
        if *self >= CodeVersion::V7_2 {
            o.reduced_comm = true;
        }
        o
    }
}

// Ordering for the >= comparisons above.
impl PartialOrd for CodeVersion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CodeVersion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

/// Full solver configuration for one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Global grid extent.
    pub dims: Dims3,
    /// Grid spacing (m).
    pub h: f64,
    /// Time step (s); must satisfy the CFL bound.
    pub dt: f64,
    /// Number of time steps.
    pub steps: usize,
    /// Absorbing boundary condition on sides and bottom.
    pub abc: AbcKind,
    /// Apply the free-surface condition at the top (else ABC there too).
    pub free_surface: bool,
    /// Enable anelastic attenuation (coarse-grained memory variables).
    pub attenuation: bool,
    /// Frequency band for the constant-Q fit (Hz).
    pub q_band: (f64, f64),
    pub opts: SolverOpts,
}

impl SolverConfig {
    /// Check option consistency. Called by `Solver::try_new` and
    /// `try_run_parallel` so invalid combinations fail the run gracefully
    /// instead of panicking a rank thread.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.opts.overlap && self.opts.comm_mode == CommModeOpt::Synchronous {
            return Err(ConfigError::OverlapNeedsAsyncEngine);
        }
        if let Some(lts) = self.opts.lts {
            if !self.opts.reciprocal_media {
                return Err(ConfigError::LtsNeedsOptimizedLayout);
            }
            if lts.min_slab < 4 {
                return Err(ConfigError::LtsSlabTooThin);
            }
        }
        if self.opts.sched.is_some() && !self.opts.overlap {
            return Err(ConfigError::SchedNeedsOverlap);
        }
        self.validate_abc().map_err(ConfigError::BadAbsorbingLayer)
    }

    /// The absorbing layer must be buildable on `dims`. Both kinds need a
    /// usable width and strength. M-PML layers must also fit: opposite
    /// lo/hi layers may not overlap and the bottom layer may not reach the
    /// free surface, because a cell damped from both sides has no
    /// undamped interior to absorb for. Overlapping Cerjan sponges are
    /// well defined (the factors multiply) and small grids use them.
    fn validate_abc(&self) -> Result<(), String> {
        let d = self.dims;
        match self.abc {
            AbcKind::None => Ok(()),
            AbcKind::Sponge { width, amp } => {
                if width == 0 {
                    return Err("sponge width must be at least 1 cell".into());
                }
                if !(amp > 0.0 && amp < 1.0) {
                    return Err(format!("sponge amp {amp} must be in (0, 1)"));
                }
                Ok(())
            }
            AbcKind::Mpml { width, pmax } => {
                if width < 2 {
                    return Err(format!("M-PML width {width} must be at least 2 cells"));
                }
                if !(pmax.is_finite() && pmax >= 0.0) {
                    return Err(format!("M-PML pmax {pmax} must be finite and non-negative"));
                }
                if 2 * width > d.nx || 2 * width > d.ny || width > d.nz {
                    return Err(format!(
                        "M-PML width {width} does not fit {}x{}x{} \
                         (needs 2*width <= nx, ny and width <= nz)",
                        d.nx, d.ny, d.nz
                    ));
                }
                Ok(())
            }
        }
    }

    /// A small default box for tests and examples.
    pub fn small(dims: Dims3, h: f64, dt: f64, steps: usize) -> Self {
        Self {
            dims,
            h,
            dt,
            steps,
            abc: AbcKind::default_sponge(),
            free_surface: true,
            attenuation: false,
            q_band: (0.1, 2.0),
            opts: SolverOpts::optimized(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_accumulate_optimisations() {
        let v1 = CodeVersion::V1_0.opts();
        assert!(!v1.reciprocal_media && !v1.reduced_comm);
        assert_eq!(v1.comm_mode, CommModeOpt::Synchronous);
        let v5 = CodeVersion::V5_0.opts();
        assert_eq!(v5.comm_mode, CommModeOpt::Asynchronous);
        assert!(!v5.reciprocal_media);
        let v6 = CodeVersion::V6_0.opts();
        assert!(v6.reciprocal_media);
        assert_eq!(v6.block, BlockSpec::UNBLOCKED);
        let v72 = CodeVersion::V7_2.opts();
        assert!(v72.reduced_comm);
        assert_eq!(v72.block, BlockSpec::JAGUAR);
    }

    #[test]
    fn version_ordering_is_chronological() {
        for w in CodeVersion::ALL.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn optimized_differs_from_legacy() {
        assert_ne!(SolverOpts::optimized(), SolverOpts::legacy());
        assert_eq!(CodeVersion::V7_2.opts(), {
            let mut o = SolverOpts::optimized();
            o.overlap = false;
            // The explicit-SIMD backend postdates the paper's v7.2; the
            // Table-2 presets stay scalar so version contrasts are honest.
            o.simd = false;
            // ... and keep the paper's 16/8 blocking, which `optimized()`
            // dropped after measuring it.
            o.block = BlockSpec::JAGUAR;
            o
        });
    }

    #[test]
    fn validate_rejects_overlap_on_sync_engine() {
        let mut cfg = SolverConfig::small(Dims3::new(8, 8, 8), 100.0, 1e-3, 4);
        assert!(cfg.validate().is_ok());
        cfg.opts.overlap = true;
        cfg.opts.comm_mode = CommModeOpt::Synchronous;
        assert_eq!(cfg.validate(), Err(ConfigError::OverlapNeedsAsyncEngine));
        cfg.opts.overlap = false;
        assert!(cfg.validate().is_ok(), "sync engine without overlap is fine");
        let msg = ConfigError::OverlapNeedsAsyncEngine.to_string();
        assert!(msg.contains("asynchronous"), "{msg}");
    }

    #[test]
    fn validate_rejects_unbuildable_absorbing_layers() {
        let on = |dims: Dims3, abc: AbcKind| {
            let mut cfg = SolverConfig::small(dims, 100.0, 1e-3, 4);
            cfg.abc = abc;
            cfg.validate()
        };
        let d = Dims3::new(24, 24, 16);
        let why = |abc: AbcKind| -> String {
            match on(d, abc) {
                Err(ConfigError::BadAbsorbingLayer(why)) => why,
                other => panic!("{abc:?} must be rejected, got {other:?}"),
            }
        };
        assert!(why(AbcKind::Mpml { width: 1, pmax: 0.3 }).contains("at least 2"));
        assert!(why(AbcKind::Mpml { width: 6, pmax: -0.1 }).contains("pmax"));
        assert!(why(AbcKind::Mpml { width: 6, pmax: f64::NAN }).contains("pmax"));
        assert!(why(AbcKind::Mpml { width: 6, pmax: f64::INFINITY }).contains("pmax"));
        // 2·13 > 24 in x/y; 17 > 16 in z.
        assert!(why(AbcKind::Mpml { width: 13, pmax: 0.3 }).contains("does not fit"));
        assert!(matches!(
            on(Dims3::new(40, 40, 16), AbcKind::Mpml { width: 17, pmax: 0.3 }),
            Err(ConfigError::BadAbsorbingLayer(_))
        ));
        assert!(why(AbcKind::Sponge { width: 0, amp: 0.92 }).contains("width"));
        assert!(why(AbcKind::Sponge { width: 8, amp: 1.0 }).contains("amp"));
        assert!(why(AbcKind::Sponge { width: 8, amp: f64::NAN }).contains("amp"));
        let msg = ConfigError::BadAbsorbingLayer("x".into()).to_string();
        assert!(msg.contains("absorbing layer"), "{msg}");

        for ok in [
            AbcKind::None,
            AbcKind::Mpml { width: 8, pmax: 0.0 },
            AbcKind::Mpml { width: 12, pmax: 0.3 },
            // Overlapping sponges are well defined and small grids use them.
            AbcKind::Sponge { width: 30, amp: 0.92 },
        ] {
            assert_eq!(on(d, ok), Ok(()), "{ok:?}");
        }
    }

    #[test]
    fn optimized_enables_overlap_split() {
        let o = SolverOpts::optimized();
        assert!(o.overlap && o.simd, "v-next default: overlap composes with simd");
    }

    #[test]
    fn lts_is_opt_in_and_validated() {
        assert!(SolverOpts::optimized().lts.is_none(), "LTS is an explicit opt-in");
        let o = SolverOpts::optimized_lts();
        assert_eq!(o.lts, Some(LtsOpts::new()));
        assert_eq!({ let mut p = o; p.lts = None; p }, SolverOpts::optimized());
        let mut cfg = SolverConfig::small(Dims3::new(8, 8, 8), 100.0, 1e-3, 4);
        cfg.opts = SolverOpts::optimized_lts();
        assert!(cfg.validate().is_ok());
        cfg.opts.reciprocal_media = false;
        cfg.opts.simd = false;
        cfg.opts.overlap = false;
        assert_eq!(cfg.validate(), Err(ConfigError::LtsNeedsOptimizedLayout));
        cfg.opts = SolverOpts::optimized_lts();
        cfg.opts.lts = Some(LtsOpts { max_rate_log2: 3, min_slab: 2 });
        assert_eq!(cfg.validate(), Err(ConfigError::LtsSlabTooThin));
    }

    #[test]
    fn sched_is_opt_in_and_arbitrated_against_hybrid() {
        assert!(SolverOpts::optimized().sched.is_none(), "scheduler is an explicit opt-in");
        let o = SolverOpts::optimized_sched();
        assert_eq!(o.sched, Some(SchedOpts::new()));
        assert_eq!({ let mut p = o; p.sched = None; p }, SolverOpts::optimized());

        let mut cfg = SolverConfig::small(Dims3::new(8, 8, 8), 100.0, 1e-3, 4);
        cfg.opts = SolverOpts::optimized_sched();
        assert!(cfg.validate().is_ok());
        // Tiles are the interior window of the overlap split.
        cfg.opts.overlap = false;
        assert_eq!(cfg.validate(), Err(ConfigError::SchedNeedsOverlap));
        let msg = ConfigError::SchedNeedsOverlap.to_string();
        assert!(msg.contains("overlap"), "{msg}");
    }

    #[test]
    fn abc_widths() {
        assert_eq!(AbcKind::None.width(), 0);
        assert_eq!(AbcKind::m8().width(), 10);
        assert_eq!(AbcKind::default_sponge().width(), 20);
    }
}
