//! Rank-state storage (`awp_grid::storage`) seen from the solver: a
//! recycled buffer never carries state from the solve that freed it, and
//! every rank state lays its buffers out at the same staggered page
//! offsets, whichever thread builds it.

use super::*;
use crate::config::AbcKind;
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::array3::Array3;
use awp_grid::dims::{Dims3, Idx3};
use awp_grid::storage::PAGE;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use std::sync::Barrier;

const H: f64 = 150.0;

/// LOH.1 under the M-PML with attenuation and a free surface.
fn case(d: Dims3, steps: usize) -> (SolverConfig, Mesh, KinematicSource, Vec<Station>) {
    let dt = 0.0105;
    let mesh = MeshGenerator::new(&LayeredModel::loh1(), d, H).generate();
    let hypo = Idx3::new(d.nx / 2, d.ny / 2, d.nz / 3);
    let source = KinematicSource::point(
        hypo,
        MomentTensor::strike_slip(0.3),
        5.0e16,
        Stf::Brune { tau: 0.1 },
        dt,
    );
    let stations = vec![Station::new("st", Idx3::new(hypo.i + 3, hypo.j + 2, 0))];
    let mut cfg = SolverConfig::small(d, H, dt, steps);
    cfg.abc = AbcKind::m8();
    cfg.attenuation = true;
    (cfg, mesh, source, stations)
}

fn build(d: Dims3, steps: usize) -> Solver {
    let (cfg, mesh, source, stations) = case(d, steps);
    let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
    Solver::new(cfg, sub, &mesh, &source, &stations)
}

/// Page offset of every per-cell buffer the solver holds.
fn page_offsets(s: &Solver) -> Vec<usize> {
    let med = &s.med;
    let derived = [&med.rhox_inv, &med.rhoy_inv, &med.rhoz_inv, &med.mu_xy, &med.mu_xz, &med.mu_yz];
    let mut arrays: Vec<&Array3> = vec![&med.rho, &med.lam, &med.mu, &med.qs, &med.qp];
    arrays.extend(derived.into_iter().flatten());
    arrays.extend(Component::ALL.iter().map(|&c| s.state.field(c)));
    let mem = s.state.mem.as_ref().expect("attenuation is on");
    arrays.extend([&mem.xx, &mem.yy, &mem.zz, &mem.xy, &mem.xz, &mem.yz]);
    let atten = s.atten.as_ref().expect("attenuation is on");
    arrays.extend([&atten.decay, &atten.cs, &atten.cp]);
    let mut starts: Vec<*const f32> = arrays.iter().map(|a| a.as_slice().as_ptr()).collect();
    starts.extend(s.mpml.as_ref().expect("M-PML is on").psi_starts());
    starts.into_iter().map(|p| p as usize % PAGE).collect()
}

#[test]
fn a_recycled_rank_state_starts_quiescent() {
    // Dims no other test here builds, so the second state reuses the
    // first one's blocks.
    let d = Dims3::new(30, 26, 18);
    let mut first = build(d, 10);
    let mut ledger = TimeLedger::new();
    for _ in 0..10 {
        first.step_serial(&mut ledger);
    }
    let fields = first.checkpoint_fields();
    assert!(fields
        .iter()
        .any(|(name, v)| name.starts_with("mpml_psi") && v.iter().any(|&x| x != 0.0)));
    assert!(fields.iter().any(|(name, v)| name.starts_with("mem_") && v.iter().any(|&x| x != 0.0)));
    drop(first);
    let second = build(d, 10);
    for (name, v) in second.checkpoint_fields() {
        assert!(v.iter().all(|x| x.to_bits() == 0), "{name} carried state into a new solve");
    }
}

#[test]
fn consecutive_solves_are_bit_identical() {
    let (cfg, mesh, source, stations) = case(Dims3::new(28, 24, 20), 30);
    let a = Solver::run_serial(cfg.clone(), &mesh, &source, &stations);
    let b = Solver::run_serial(cfg, &mesh, &source, &stations);
    let bits = |r: &RankResult| -> (Vec<u64>, Vec<u32>) {
        let s = r.seismograms.iter().flat_map(|s| s.vx.iter().chain(&s.vy).chain(&s.vz));
        (s.map(|v| v.to_bits()).collect(), r.pgv_map.iter().map(|v| v.to_bits()).collect())
    };
    let (sa, pa) = bits(&a);
    assert!(sa.iter().any(|&v| v != 0), "the station saw no signal");
    assert_eq!((sa, pa), bits(&b));
}

#[test]
fn rank_states_share_one_staggered_layout() {
    let d = Dims3::new(28, 24, 20);
    let alone = page_offsets(&build(d, 1));
    let mut distinct = alone.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), alone.len(), "two buffers share a page offset: {alone:?}");
    assert_eq!(page_offsets(&build(d, 1)), alone, "the next solve on this thread moved");
    let barrier = Barrier::new(2);
    let concurrent: Vec<Vec<usize>> = std::thread::scope(|scope| {
        let ranks: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    page_offsets(&build(d, 1))
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().expect("rank thread panicked")).collect()
    });
    assert!(concurrent.iter().all(|o| *o == alone), "{concurrent:?} vs {alone:?}");
}
