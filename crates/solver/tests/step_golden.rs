//! Absolute pins for the time stepper.
//!
//! Every other stepper suite is *relative* (parallel ≡ serial, folded ≡
//! separate passes, any delivery order ≡ FIFO), so a change that moves
//! all paths together — say, recording seismograms before instead of after
//! the velocity sponge — passes them all. This suite hashes everything a step
//! produces and compares against constants recorded once, at the commit
//! before the steppers were merged into one. The constants are not to be
//! edited by a change that claims to keep the arithmetic.

#![cfg(target_arch = "x86_64")]

use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::LayeredModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_solver::boundary::owns_free_surface;
use awp_solver::solver::{partition_mesh_direct, update_pgv, Solver};
use awp_solver::{AbcKind, LtsPlan, SolverConfig, SolverOpts, Station};
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::partition::partition_spatial;
use awp_source::stf::Stf;
use awp_vcluster::{Cluster, TimeLedger};

const H: f64 = 150.0;
/// A multiple of the basin ladder's slowest rate (4), so the LTS cases end
/// on a tick where every cluster has fired.
const STEPS: usize = 44;

#[derive(Clone, Copy, Debug)]
enum Scenario {
    Loh1Sponge,
    Loh1Mpml,
    BasinLtsSponge,
    BasinLtsMpml,
}

#[derive(Clone, Copy, Debug)]
enum Mode {
    /// `step_serial`.
    Serial,
    /// `[2,1,1]`, scenario options as they are.
    Split,
    /// `[1,2,1]`, scenario options as they are.
    SplitY,
    /// `[2,2,1]`, scenario options as they are.
    Fused,
    /// `[2,1,1]` under `SolverOpts::legacy()` (synchronous engine,
    /// non-reciprocal kernels, per-step barrier).
    Legacy,
}

/// `(scenario, mode, hash)`; combinations `validate()` rejects (LTS on the
/// legacy layout) are absent. Both SIMD settings must produce the hash.
const GOLDEN: [(Scenario, Mode, u64); 18] = [
    (Scenario::Loh1Sponge, Mode::Serial, 0x28ea_9e84_cc34_737a),
    (Scenario::Loh1Sponge, Mode::Split, 0xfa0b_91f4_b29f_723d),
    (Scenario::Loh1Sponge, Mode::SplitY, 0xff7f_f98d_b4b5_af8a),
    (Scenario::Loh1Sponge, Mode::Fused, 0x1bb8_c66d_819d_5a40),
    (Scenario::Loh1Sponge, Mode::Legacy, 0x95ca_297d_f1c4_6d11),
    (Scenario::Loh1Mpml, Mode::Serial, 0x4f6e_52ba_0ea2_ce68),
    (Scenario::Loh1Mpml, Mode::Split, 0x1cfb_11a2_e109_ed8a),
    (Scenario::Loh1Mpml, Mode::SplitY, 0xec36_9883_f13d_a977),
    (Scenario::Loh1Mpml, Mode::Fused, 0xa353_34d5_48e8_380a),
    (Scenario::Loh1Mpml, Mode::Legacy, 0x962f_76fc_a750_5b9c),
    (Scenario::BasinLtsSponge, Mode::Serial, 0xfaf9_4b1c_726d_1d8d),
    (Scenario::BasinLtsSponge, Mode::Split, 0x812c_073c_ed84_5d38),
    (Scenario::BasinLtsSponge, Mode::SplitY, 0x69e1_fb81_d779_4050),
    (Scenario::BasinLtsSponge, Mode::Fused, 0x9378_ac1b_8a72_87b1),
    (Scenario::BasinLtsMpml, Mode::Serial, 0xdb06_48de_6b1b_0107),
    (Scenario::BasinLtsMpml, Mode::Split, 0x52b3_062a_d70c_dcef),
    (Scenario::BasinLtsMpml, Mode::SplitY, 0xe04e_dc61_7ec5_80eb),
    (Scenario::BasinLtsMpml, Mode::Fused, 0x75f5_13a1_56bd_b31c),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, data: &[f32]) {
        for v in data {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn f64s(&mut self, data: &[f64]) {
        for v in data {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

fn fixture(scenario: Scenario) -> (SolverConfig, Mesh, KinematicSource, Vec<Station>) {
    let (lts, abc) = match scenario {
        Scenario::Loh1Sponge => (false, AbcKind::default_sponge()),
        Scenario::Loh1Mpml => (false, AbcKind::m8()),
        Scenario::BasinLtsSponge => (true, AbcKind::default_sponge()),
        Scenario::BasinLtsMpml => (true, AbcKind::m8()),
    };
    // The basin is deep enough for a [4×20, 2×4, 1×8] cluster ladder.
    let (d, model, dt, tau) = if lts {
        (Dims3::new(24, 20, 32), LayeredModel::basin_over_rock(24.0 * H), 0.012, 0.25)
    } else {
        (Dims3::new(24, 22, 16), LayeredModel::loh1(), 0.0105, 0.1)
    };
    let mesh = MeshGenerator::new(&model, d, H).generate();
    let source = KinematicSource::point(
        Idx3::new(d.nx / 2 + 1, d.ny / 2 - 1, 8),
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau },
        dt,
    );
    // One station per quadrant of the [2,2,1] split, one at depth.
    let stations = vec![
        Station::new("near", Idx3::new(d.nx / 2, d.ny / 2, 0)),
        Station::new("corner", Idx3::new(3, 4, 0)),
        Station::new("edge", Idx3::new(d.nx - 4, 5, 0)),
        Station::new("deep", Idx3::new(6, d.ny - 5, d.nz - 3)),
    ];
    let mut cfg = SolverConfig::small(d, H, dt, STEPS);
    cfg.abc = abc;
    cfg.attenuation = true;
    cfg.opts = if lts { SolverOpts::optimized_lts() } else { SolverOpts::optimized() };
    (cfg, mesh, source, stations)
}

/// Everything one rank's stepping produced: the nine padded fields, the
/// memory variables and every ψ box (`checkpoint_fields`), the seismograms
/// and the PGV map.
fn digest(h: &mut Fnv, solver: Solver, pgv: &[f32]) {
    for (name, data) in solver.checkpoint_fields() {
        h.bytes(name.as_bytes());
        h.f32s(&data);
    }
    for s in solver.recorder.into_seismograms() {
        h.bytes(s.station.name.as_bytes());
        h.f64s(&s.vx);
        h.f64s(&s.vy);
        h.f64s(&s.vz);
    }
    h.f32s(pgv);
}

/// Step the case to the end and hash every rank's output in rank order;
/// `None` when `validate()` rejects the combination.
fn run(scenario: Scenario, mode: Mode, simd: bool) -> Option<u64> {
    let (mut cfg, mesh, source, stations) = fixture(scenario);
    let parts = match mode {
        Mode::Serial => [1, 1, 1],
        Mode::Split | Mode::Legacy => [2, 1, 1],
        Mode::SplitY => [1, 2, 1],
        Mode::Fused => [2, 2, 1],
    };
    match mode {
        Mode::Serial | Mode::Split | Mode::SplitY | Mode::Fused => {}
        Mode::Legacy => cfg.opts = SolverOpts { lts: cfg.opts.lts, ..SolverOpts::legacy() },
    }
    cfg.opts.simd = simd && cfg.opts.reciprocal_media;
    cfg.validate().ok()?;
    let plan = cfg.opts.lts.map(|lo| LtsPlan::from_mesh(&mesh, cfg.dt, lo));
    let decomp = Decomp3::new(cfg.dims, parts);
    let mut h = Fnv::new();

    if matches!(mode, Mode::Serial) {
        let mut solver = Solver::new(cfg.clone(), decomp.subdomain(0), &mesh, &source, &stations);
        if let Some(p) = &plan {
            assert!(solver.enable_lts(p), "{scenario:?}: the basin must arm a multi-rate plan");
        }
        let mut ledger = TimeLedger::new();
        let mut pgv = vec![0.0f32; cfg.dims.nx * cfg.dims.ny];
        for _ in 0..STEPS {
            solver.step_serial(&mut ledger);
            update_pgv(&solver.state, &mut pgv);
        }
        assert!(pgv.iter().any(|&v| v > 0.0), "{scenario:?}: the pinned run must carry signal");
        digest(&mut h, solver, &pgv);
        return Some(h.0);
    }

    let meshes = partition_mesh_direct(&mesh, &decomp);
    let sources = partition_spatial(&source, &decomp);
    let per_rank = Cluster::new(decomp.rank_count(), cfg.opts.comm_mode.into()).run(|ctx| {
        let rank = ctx.rank();
        let sub = decomp.subdomain(rank);
        let mut solver = Solver::try_new_rank(
            cfg.clone(),
            sub,
            &meshes[rank],
            &sources[rank],
            &stations,
            0.0,
            ctx,
        )
        .expect("valid configuration");
        if let Some(p) = &plan {
            assert!(solver.enable_lts(p));
        }
        let surface = owns_free_surface(&sub);
        let mut pgv = vec![0.0f32; if surface { sub.dims.nx * sub.dims.ny } else { 0 }];
        for _ in 0..STEPS {
            solver.step_parallel(ctx);
            if surface {
                update_pgv(&solver.state, &mut pgv);
            }
        }
        let mut h = Fnv::new();
        digest(&mut h, solver, &pgv);
        h.0
    });
    for rank_hash in per_rank {
        h.bytes(&rank_hash.to_le_bytes());
    }
    Some(h.0)
}

#[test]
fn every_stepping_path_reproduces_its_recorded_hash() {
    let mut wrong = Vec::new();
    for (scenario, mode, want) in GOLDEN {
        let simds: &[bool] = if matches!(mode, Mode::Legacy) { &[false] } else { &[true, false] };
        for &simd in simds {
            let got = run(scenario, mode, simd)
                .unwrap_or_else(|| panic!("{scenario:?} {mode:?}: validate() rejected a pinned case"));
            if got != want {
                wrong.push(format!("({scenario:?}, {mode:?}) simd={simd}: {got:#018x}, recorded {want:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "stepper output changed:\n{}", wrong.join("\n"));
}

#[test]
fn lts_on_the_legacy_layout_is_rejected_not_pinned() {
    for scenario in [Scenario::BasinLtsSponge, Scenario::BasinLtsMpml] {
        assert_eq!(run(scenario, Mode::Legacy, false), None, "{scenario:?}");
    }
}
