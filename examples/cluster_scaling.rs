//! Virtual-cluster scaling demo (paper §IV.A, §V).
//!
//! Runs the same wave-propagation problem on 1–8 ranks of the in-process
//! cluster, contrasts the synchronous and asynchronous communication
//! engines, and prints the Eq. (8) model's projection to the paper's
//! petascale core counts.
//!
//! ```text
//! cargo run --release --example cluster_scaling
//! ```

use awp_odc::cvm::mesh::MeshGenerator;
use awp_odc::cvm::model::LayeredModel;
use awp_odc::grid::decomp::Decomp3;
use awp_odc::grid::dims::{Dims3, Idx3};
use awp_odc::perfmodel::evolution::VersionFeatures;
use awp_odc::perfmodel::machines::Machine;
use awp_odc::perfmodel::scaling::strong_scaling;
use awp_odc::perfmodel::speedup::{efficiency, m8_mesh, m8_parts, ModelInput, PAPER_C};
use awp_odc::solver::config::{CommModeOpt, SolverConfig};
use awp_odc::solver::solver::{partition_mesh_direct, run_parallel};
use awp_odc::solver::stations::Station;
use awp_odc::source::kinematic::KinematicSource;
use awp_odc::source::moment::MomentTensor;
use awp_odc::source::stf::Stf;

fn main() {
    let dims = Dims3::new(96, 96, 64);
    let h = 200.0;
    let model = LayeredModel::gradient_crust(900.0);
    let mesh = MeshGenerator::new(&model, dims, h).generate();
    let dt = mesh.stats().dt_max() * 0.9;
    let source = KinematicSource::point(
        Idx3::new(48, 48, 30),
        MomentTensor::strike_slip(0.0),
        1.0e18,
        Stf::Triangle { rise_time: 1.0 },
        dt,
    );
    let stations = [Station::new("probe", Idx3::new(20, 20, 0))];
    let steps = 60;

    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host hardware threads: {host} (ranks timeshare beyond this)");
    println!("strong scaling of a {} cell problem, {steps} steps:", dims.count());
    println!("ranks  parts      wall(s)  speedup  efficiency");
    let mut t1 = 0.0;
    for (p, parts) in [(1usize, [1, 1, 1]), (2, [2, 1, 1]), (4, [2, 2, 1]), (8, [2, 2, 2])] {
        let cfg = SolverConfig::small(dims, h, dt, steps);
        let decomp = Decomp3::new(dims, parts);
        let meshes = partition_mesh_direct(&mesh, &decomp);
        let t0 = std::time::Instant::now();
        let _ = run_parallel(&cfg, parts, &meshes, &source, &stations);
        let wall = t0.elapsed().as_secs_f64();
        if p == 1 {
            t1 = wall;
        }
        let speedup = t1 / wall;
        println!(
            "{p:>5}  {parts:?}  {wall:>8.2}  {speedup:>7.2}  {:>9.2}",
            speedup / p as f64
        );
    }

    println!("\nsynchronous vs asynchronous engine (4 ranks):");
    for mode in [CommModeOpt::Synchronous, CommModeOpt::Asynchronous] {
        let mut cfg = SolverConfig::small(dims, h, dt, steps);
        cfg.opts.comm_mode = mode;
        let decomp = Decomp3::new(dims, [2, 2, 1]);
        let meshes = partition_mesh_direct(&mesh, &decomp);
        let t0 = std::time::Instant::now();
        let _ = run_parallel(&cfg, [2, 2, 1], &meshes, &source, &stations);
        println!("  {mode:?}: {:.2} s", t0.elapsed().as_secs_f64());
    }

    println!("\nEq. (8) projection (Jaguar profile, C = {PAPER_C}):");
    let jaguar = Machine::Jaguar.profile();
    let pts = strong_scaling(
        m8_mesh(),
        &[1024, 8192, 65536, 223074],
        &jaguar,
        PAPER_C,
        VersionFeatures::for_version("7.2"),
    );
    println!("cores     t/step(s)  efficiency");
    for pt in &pts {
        println!("{:>7}  {:>9.4}  {:>9.3}", pt.cores, pt.time_per_step, pt.efficiency);
    }
    let e = efficiency(&ModelInput {
        n: m8_mesh(),
        parts: m8_parts(),
        machine: jaguar,
        c: PAPER_C,
    });
    println!(
        "\nM8 on 223,074 Jaguar cores: modeled efficiency {:.1}% (paper: 98.6%)",
        e * 100.0
    );
}
