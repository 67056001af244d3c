//! The row-slice media builders against their per-cell references, bit
//! for bit: serial builds and the 2- and 4-rank builds after the material
//! halo exchange, on seeded heterogeneous meshes with μ = 0 cells.

use super::*;
use crate::attenuation::Attenuation;
use crate::solver::exchange_material_halos;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::Idx3;
use awp_vcluster::{Cluster, CommMode};

/// Seeded mesh with independent per-cell speeds, density and Q; about
/// one cell in eight has Vs = 0, so μ = 0 (fluid pockets).
fn seeded_mesh(dims: Dims3, seed: u64) -> Mesh {
    let mut x = seed;
    let mut uniform = |lo: f32, hi: f32| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        lo + (hi - lo) * ((x >> 40) as f32 / (1u64 << 24) as f32)
    };
    let mut mesh = Mesh::zeroed(dims, 100.0);
    for p in 0..dims.count() {
        mesh.vp[p] = uniform(1500.0, 6500.0);
        mesh.vs[p] = if uniform(0.0, 1.0) < 0.125 { 0.0 } else { uniform(200.0, 3500.0) };
        mesh.rho[p] = uniform(1000.0, 3000.0);
        mesh.qs[p] = uniform(0.5, 200.0);
        mesh.qp[p] = uniform(0.5, 400.0);
    }
    assert!(mesh.vs.contains(&0.0), "the mesh must carry μ = 0 cells");
    mesh
}

fn bits(a: &Array3) -> Vec<u32> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_media_equal(got: &Medium, want: &Medium, what: &str) {
    let raw = |m: &Medium| [&m.rho, &m.lam, &m.mu, &m.qs, &m.qp].map(bits);
    assert!(raw(got) == raw(want), "{what}: raw arrays (halos included) differ");
    let derived = |m: &Medium| {
        [&m.rhox_inv, &m.rhoy_inv, &m.rhoz_inv, &m.mu_xy, &m.mu_xz, &m.mu_yz]
            .map(|a| bits(a.as_ref().expect("precomputed")))
    };
    assert!(derived(got) == derived(want), "{what}: precomputed arrays differ");
    assert_eq!(got.vp_max().to_bits(), want.vp_max_per_cell().to_bits(), "{what}: vp_max");
}

fn assert_attenuation_equal(med: &Medium, origin: Idx3, what: &str) {
    let got = Attenuation::new(med, 1.3e-3, 0.1, 2.5, origin);
    let want = Attenuation::new_per_cell(med, 1.3e-3, 0.1, 2.5, origin);
    let arrays = |a: &Attenuation| [&a.decay, &a.cs, &a.cp].map(bits);
    assert!(arrays(&got) == arrays(&want), "{what}: attenuation coefficients differ");
}

#[test]
fn serial_build_equals_per_cell_reference() {
    for (seed, dims) in
        [(1, Dims3::new(9, 7, 5)), (2, Dims3::new(1, 4, 3)), (3, Dims3::new(16, 3, 8))]
    {
        let mesh = seeded_mesh(dims, seed);
        let mut got = Medium::from_mesh(&mesh);
        let mut want = Medium::from_mesh_per_cell(&mesh);
        got.precompute();
        want.precompute_per_cell();
        assert_media_equal(&got, &want, &format!("serial {dims:?}"));
        // The μ = 0 rule must have fired somewhere.
        assert!(got.mu_xy.as_ref().unwrap().as_slice().contains(&0.0));
        for origin in [Idx3::new(0, 0, 0), Idx3::new(3, 6, 1)] {
            assert_attenuation_equal(&got, origin, &format!("serial {dims:?} at {origin:?}"));
        }
    }
}

#[test]
fn rank_builds_after_the_halo_exchange_equal_per_cell_reference() {
    let global = Dims3::new(12, 10, 6);
    let mesh = seeded_mesh(global, 7);
    for parts in [[2, 1, 1], [2, 2, 1], [1, 2, 2]] {
        let decomp = Decomp3::new(global, parts);
        let meshes = crate::solver::partition_mesh_direct(&mesh, &decomp);
        Cluster::new(decomp.rank_count(), CommMode::Asynchronous).run(|ctx| {
            let sub = decomp.subdomain(ctx.rank());
            let local = &meshes[ctx.rank()];
            let mut got = Medium::from_mesh(local);
            exchange_material_halos(&mut got, &sub, ctx);
            got.precompute();
            let mut want = Medium::from_mesh_per_cell(local);
            exchange_material_halos(&mut want, &sub, ctx);
            want.precompute_per_cell();
            let what = format!("{parts:?} rank {}", ctx.rank());
            assert_media_equal(&got, &want, &what);
            assert_attenuation_equal(&got, sub.origin, &what);
        });
    }
}
