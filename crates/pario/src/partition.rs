//! PetaMeshP: mesh partitioning for hundreds of thousands of ranks
//! (paper §III.C, Figs. 8–9).
//!
//! Two I/O models, as in the paper:
//!
//! 1. **Serial pre-partitioning** — the global mesh file is cut into
//!    per-rank local files before the run ("provides efficient data
//!    locality… may encounter system-level issues by incurring excessive
//!    metadata operations", hence the optional [`OpenThrottle`]).
//! 2. **On-demand reader/receiver redistribution** — a subset of ranks
//!    ("readers") read highly contiguous XY planes with burst reads and
//!    scatter sub-rows to the destination ranks ("receivers") with
//!    point-to-point messages.
//!
//! Both produce identical per-rank sub-meshes; tests assert that.

use crate::throttle::OpenThrottle;
use awp_cvm::mesh::Mesh;
use awp_cvm::meshfile::{self, VALUES_PER_POINT};
use awp_grid::decomp::Decomp3;
use awp_vcluster::{Cluster, CommMode};
use std::io;
use std::path::{Path, PathBuf};

/// File name of rank `r`'s pre-partitioned sub-mesh.
pub fn rank_file_name(rank: usize) -> String {
    format!("mesh.{rank:06}.bin")
}

/// Serial pre-partitioning: cut the global mesh file into one local mesh
/// file per rank. Returns the per-rank paths (rank order).
pub fn prepartition(
    mesh_path: &Path,
    decomp: &Decomp3,
    out_dir: &Path,
    throttle: Option<&OpenThrottle>,
) -> io::Result<Vec<PathBuf>> {
    let (dims, h) = meshfile::read_header(mesh_path)?;
    assert_eq!(dims, decomp.global, "decomposition does not match mesh file");
    std::fs::create_dir_all(out_dir)?;
    let mut paths = Vec::with_capacity(decomp.rank_count());
    for rank in 0..decomp.rank_count() {
        let sub = decomp.subdomain(rank);
        let _guard = throttle.map(|t| t.acquire());
        let records = meshfile::read_subvolume(
            mesh_path,
            sub.origin.i,
            sub.origin.j,
            sub.origin.k,
            sub.dims.nx,
            sub.dims.ny,
            sub.dims.nz,
        )?;
        let local = meshfile::mesh_from_records(sub.dims, h, &records);
        let path = out_dir.join(rank_file_name(rank));
        meshfile::write_mesh(&path, &local)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Read rank `r`'s pre-partitioned sub-mesh.
pub fn read_prepartitioned(
    dir: &Path,
    rank: usize,
    throttle: Option<&OpenThrottle>,
) -> io::Result<Mesh> {
    let _guard = throttle.map(|t| t.acquire());
    meshfile::read_mesh(&dir.join(rank_file_name(rank)))
}

/// All ranks read their pre-partitioned files concurrently (the
/// "simultaneous reading of the pre-partitioned mesh files in 4 minutes"
/// path of §VII.B), under an open throttle.
pub fn read_all_prepartitioned(
    dir: &Path,
    decomp: &Decomp3,
    throttle: &OpenThrottle,
) -> io::Result<Vec<Mesh>> {
    use rayon::prelude::*;
    (0..decomp.rank_count())
        .into_par_iter()
        .map(|r| read_prepartitioned(dir, r, Some(throttle)))
        .collect()
}

/// On-demand partitioning: `n_readers` reader ranks stream XY planes from
/// the global file and redistribute sub-rows to every owning rank over the
/// virtual cluster. Returns per-rank sub-meshes in rank order.
pub fn partition_ondemand(
    mesh_path: &Path,
    decomp: &Decomp3,
    n_readers: usize,
) -> io::Result<Vec<Mesh>> {
    let (dims, h) = meshfile::read_header(mesh_path)?;
    assert_eq!(dims, decomp.global, "decomposition does not match mesh file");
    let n = decomp.rank_count();
    let n_readers = n_readers.clamp(1, n);
    let cluster = Cluster::new(n, CommMode::Asynchronous);
    let mesh_path = mesh_path.to_path_buf();

    let results: Vec<io::Result<Mesh>> = cluster.run(|ctx| {
        let rank = ctx.rank();
        let sub = decomp.subdomain(rank);
        let mut local = Mesh::zeroed(sub.dims, h);

        // Reader role: planes are dealt round-robin over readers.
        if rank < n_readers {
            for k in (0..dims.nz).filter(|k| k % n_readers == rank) {
                let plane = meshfile::read_plane(&mesh_path, k)?;
                // Scatter the (i, j) sub-rectangles of this plane to the
                // ranks owning it (all parts whose z-range contains k).
                for dst in 0..n {
                    let dsub = decomp.subdomain(dst);
                    let kz = dsub.origin.k;
                    if k < kz || k >= kz + dsub.dims.nz {
                        continue;
                    }
                    let mut chunk =
                        Vec::with_capacity(dsub.dims.nx * dsub.dims.ny * VALUES_PER_POINT);
                    for j in dsub.origin.j..dsub.origin.j + dsub.dims.ny {
                        let row0 = (dsub.origin.i + dims.nx * j) * VALUES_PER_POINT;
                        chunk.extend_from_slice(
                            &plane[row0..row0 + dsub.dims.nx * VALUES_PER_POINT],
                        );
                    }
                    if dst == rank {
                        place_plane(&mut local, &sub.dims, k - kz, &chunk);
                    } else {
                        ctx.send(dst, k as u64, chunk);
                    }
                }
            }
        }

        // Receiver role: collect every local plane not self-delivered.
        for lk in 0..sub.dims.nz {
            let gk = sub.origin.k + lk;
            let reader = gk % n_readers;
            if reader == rank && rank < n_readers {
                continue; // self-delivered above
            }
            let chunk = ctx.recv(reader, gk as u64);
            place_plane(&mut local, &sub.dims, lk, &chunk);
        }
        Ok(local)
    });
    results.into_iter().collect()
}

/// Write one interleaved-record plane into a local mesh at level `lk`.
fn place_plane(mesh: &mut Mesh, dims: &awp_grid::dims::Dims3, lk: usize, records: &[f32]) {
    assert_eq!(records.len(), dims.nx * dims.ny * VALUES_PER_POINT, "plane size mismatch");
    let base = lk * dims.nx * dims.ny;
    for p in 0..dims.nx * dims.ny {
        let r = &records[p * VALUES_PER_POINT..(p + 1) * VALUES_PER_POINT];
        mesh.vp[base + p] = r[0];
        mesh.vs[base + p] = r[1];
        mesh.rho[base + p] = r[2];
        mesh.qs[base + p] = r[3];
        mesh.qp[base + p] = r[4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_cvm::mesh::MeshGenerator;
    use awp_cvm::model::LayeredModel;
    use awp_grid::dims::Dims3;

    fn global_mesh() -> Mesh {
        let m = LayeredModel::gradient_crust(900.0);
        MeshGenerator::new(&m, Dims3::new(12, 10, 8), 500.0).generate()
    }

    fn write_global(dir: &Path) -> PathBuf {
        let path = dir.join("global.bin");
        meshfile::write_mesh(&path, &global_mesh()).unwrap();
        path
    }

    fn expected_sub(decomp: &Decomp3, rank: usize) -> Mesh {
        let g = global_mesh();
        let s = decomp.subdomain(rank);
        let mut sub = Mesh::zeroed(s.dims, g.h);
        for k in 0..s.dims.nz {
            for j in 0..s.dims.ny {
                for i in 0..s.dims.nx {
                    sub.set_sample(
                        i,
                        j,
                        k,
                        g.sample(s.origin.i + i, s.origin.j + j, s.origin.k + k),
                    );
                }
            }
        }
        sub
    }

    #[test]
    fn prepartition_matches_direct_extraction() {
        let dir = tempfile::tempdir().unwrap();
        let path = write_global(dir.path());
        let decomp = Decomp3::new(Dims3::new(12, 10, 8), [2, 2, 2]);
        let out = dir.path().join("parts");
        let paths = prepartition(&path, &decomp, &out, None).unwrap();
        assert_eq!(paths.len(), 8);
        for rank in 0..8 {
            let local = read_prepartitioned(&out, rank, None).unwrap();
            assert_eq!(local, expected_sub(&decomp, rank), "rank {rank}");
        }
    }

    #[test]
    fn ondemand_matches_prepartition() {
        let dir = tempfile::tempdir().unwrap();
        let path = write_global(dir.path());
        let decomp = Decomp3::new(Dims3::new(12, 10, 8), [2, 2, 2]);
        for n_readers in [1, 2, 4, 8] {
            let meshes = partition_ondemand(&path, &decomp, n_readers).unwrap();
            assert_eq!(meshes.len(), 8);
            for (rank, m) in meshes.iter().enumerate() {
                assert_eq!(m, &expected_sub(&decomp, rank), "readers={n_readers} rank={rank}");
            }
        }
    }

    #[test]
    fn ondemand_works_with_uneven_split() {
        let dir = tempfile::tempdir().unwrap();
        let path = write_global(dir.path());
        let decomp = Decomp3::new(Dims3::new(12, 10, 8), [3, 2, 1]);
        let meshes = partition_ondemand(&path, &decomp, 2).unwrap();
        for (rank, m) in meshes.iter().enumerate() {
            assert_eq!(m, &expected_sub(&decomp, rank), "rank {rank}");
        }
    }

    #[test]
    fn throttled_parallel_read_respects_limit() {
        let dir = tempfile::tempdir().unwrap();
        let path = write_global(dir.path());
        let decomp = Decomp3::new(Dims3::new(12, 10, 8), [2, 2, 2]);
        let out = dir.path().join("parts");
        prepartition(&path, &decomp, &out, None).unwrap();
        let throttle = OpenThrottle::new(3);
        let meshes = read_all_prepartitioned(&out, &decomp, &throttle).unwrap();
        assert_eq!(meshes.len(), 8);
        assert!(throttle.peak_open() <= 3);
        assert_eq!(throttle.total_opens(), 8);
        for (rank, m) in meshes.iter().enumerate() {
            assert_eq!(m, &expected_sub(&decomp, rank));
        }
    }

    #[test]
    fn mismatched_decomp_panics() {
        let dir = tempfile::tempdir().unwrap();
        let path = write_global(dir.path());
        let wrong = Decomp3::new(Dims3::new(10, 10, 8), [2, 2, 2]);
        let out = dir.path().join("parts");
        let err = std::panic::catch_unwind(|| prepartition(&path, &wrong, &out, None));
        assert!(err.is_err());
    }
}
