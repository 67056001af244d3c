//! Ablation benches over the solver's design choices: each DESIGN.md
//! optimisation toggled independently on a full solver step, plus the
//! physics options (attenuation, ABC kind).

use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::dims::{Dims3, Idx3};
use awp_solver::config::{AbcKind, SolverConfig};
use awp_solver::solver::Solver;
use awp_solver::stations::Station;
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_vcluster::TimeLedger;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn build(cfg: SolverConfig) -> Solver {
    let mesh = MeshGenerator::new(&LayeredModel::gradient_crust(900.0), cfg.dims, cfg.h).generate();
    let decomp = awp_grid::decomp::Decomp3::new(cfg.dims, [1, 1, 1]);
    let source = KinematicSource::point(
        Idx3::new(cfg.dims.nx / 2, cfg.dims.ny / 2, cfg.dims.nz / 2),
        MomentTensor::strike_slip(0.0),
        1e17,
        Stf::Triangle { rise_time: 0.5 },
        cfg.dt,
    );
    Solver::new(
        cfg.clone(),
        decomp.subdomain(0),
        &mesh,
        &source,
        &[Station::new("s", Idx3::new(2, 2, 0))],
    )
}

fn base_cfg(d: Dims3) -> SolverConfig {
    let h = 200.0;
    // Safe dt for the gradient crust (Vp < 8 km/s).
    let dt = 6.0 * h / (7.0 * 3f64.sqrt() * 8000.0) * 0.9;
    SolverConfig::small(d, h, dt, 1)
}

fn bench_step_ablation(c: &mut Criterion) {
    let d = Dims3::new(56, 56, 48);
    let mut group = c.benchmark_group("solver_step_ablation");
    group.sample_size(15);
    type Variant<'a> = (&'a str, Box<dyn Fn(&mut SolverConfig)>);
    let variants: Vec<Variant> = vec![
        ("v72_baseline", Box::new(|_c: &mut SolverConfig| {})),
        ("no_reciprocal_media", Box::new(|c| c.opts.reciprocal_media = false)),
        ("cache_blocking_16x8", Box::new(|c| c.opts.block = awp_grid::blocking::BlockSpec::JAGUAR)),
        ("anelastic", Box::new(|c| c.attenuation = true)),
        ("mpml_abc", Box::new(|c| c.abc = AbcKind::Mpml { width: 10, pmax: 0.3 })),
        ("no_abc", Box::new(|c| c.abc = AbcKind::None)),
    ];
    for (name, tweak) in variants {
        let mut cfg = base_cfg(d);
        tweak(&mut cfg);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut solver = build(cfg.clone());
            let mut ledger = TimeLedger::new();
            b.iter(|| solver.step_serial(&mut ledger));
        });
    }
    group.finish();
}

fn bench_rupture_step(c: &mut Criterion) {
    use awp_rupture::prestress::{FaultPrestress, PrestressConfig};
    use awp_rupture::sgsn::{DepthModel, RuptureConfig, RuptureSolver};
    let h = 500.0;
    let dims = Dims3::new(64, 20, 20);
    let model = DepthModel::uniform(dims.nz, 2700.0, 6000.0, 3464.0);
    let pc = PrestressConfig::m8_like(48, 14, h, 7);
    let prestress = FaultPrestress::build(&pc);
    let cfg = RuptureConfig {
        dims,
        h,
        dt: 0.02,
        steps: 1,
        j0: 10,
        i_range: (8, 56),
        k_range: (0, 14),
        sponge_width: 5,
        rupture_threshold: 1e-3,
        record_decimation: 4,
    };
    let mut group = c.benchmark_group("rupture_step");
    group.sample_size(15);
    group.bench_function("dfr_step_25k_cells", |b| {
        let mut solver = RuptureSolver::new(cfg.clone(), model.clone(), prestress.clone());
        b.iter(|| solver.step());
    });
    group.finish();
}

criterion_group!(benches, bench_step_ablation, bench_rupture_step);
criterion_main!(benches);
