//! The single global mesh file produced by CVM2MESH and consumed by the
//! mesh partitioner (paper §III.B–C).
//!
//! Layout: a fixed header, then point-interleaved `(vp, vs, rho, qs, qp)`
//! f32 records in x-fastest order. One XY plane is therefore a contiguous
//! byte range — exactly the property PetaMeshP's "readers" exploit ("each
//! XY plane is read in parallel … and distributed to the associated
//! receivers", §III.C, Fig. 9).

use crate::mesh::Mesh;
use awp_grid::dims::Dims3;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// File magic, bumped on format change.
pub const MAGIC: &[u8; 8] = b"AWPMESH1";

/// f32 values per mesh point.
pub const VALUES_PER_POINT: usize = 5;

/// Bytes per mesh point record.
pub const RECORD_BYTES: usize = VALUES_PER_POINT * 4;

/// Header size in bytes: magic + 3×u64 dims + f64 h.
pub const HEADER_BYTES: u64 = 8 + 3 * 8 + 8;

/// Records encoded or decoded per file transfer (80 KiB).
const CHUNK_POINTS: usize = 4096;

/// Write a mesh to `path`, `CHUNK_POINTS` records per write.
pub fn write_mesh(path: &Path, mesh: &Mesh) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(mesh.dims.nx as u64).to_le_bytes())?;
    w.write_all(&(mesh.dims.ny as u64).to_le_bytes())?;
    w.write_all(&(mesh.dims.nz as u64).to_le_bytes())?;
    w.write_all(&mesh.h.to_le_bytes())?;
    let n = mesh.dims.count();
    let mut chunk = vec![0u8; CHUNK_POINTS * RECORD_BYTES];
    for start in (0..n).step_by(CHUNK_POINTS) {
        let points = start..(start + CHUNK_POINTS).min(n);
        let bytes = &mut chunk[..points.len() * RECORD_BYTES];
        for (rec, p) in bytes.chunks_exact_mut(RECORD_BYTES).zip(points) {
            let values = [mesh.vp[p], mesh.vs[p], mesh.rho[p], mesh.qs[p], mesh.qp[p]];
            for (b, v) in rec.chunks_exact_mut(4).zip(values) {
                b.copy_from_slice(&v.to_le_bytes());
            }
        }
        w.write_all(bytes)?;
    }
    w.flush()
}

/// Read the header of a mesh file: `(dims, h)`.
pub fn read_header(path: &Path) -> io::Result<(Dims3, f64)> {
    let mut r = BufReader::new(File::open(path)?);
    read_header_from(&mut r)
}

fn read_header_from<R: Read>(r: &mut R) -> io::Result<(Dims3, f64)> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad mesh file magic"));
    }
    let mut b8 = [0u8; 8];
    let mut next_u64 = |r: &mut R| -> io::Result<u64> {
        r.read_exact(&mut b8)?;
        Ok(u64::from_le_bytes(b8))
    };
    let nx = next_u64(r)? as usize;
    let ny = next_u64(r)? as usize;
    let nz = next_u64(r)? as usize;
    r.read_exact(&mut b8)?;
    let h = f64::from_le_bytes(b8);
    Ok((Dims3::new(nx, ny, nz), h))
}

/// Read an entire mesh file.
pub fn read_mesh(path: &Path) -> io::Result<Mesh> {
    let mut r = BufReader::new(File::open(path)?);
    let (dims, h) = read_header_from(&mut r)?;
    let n = dims.count();
    let mut mesh = Mesh::zeroed(dims, h);
    let mut chunk = vec![0u8; CHUNK_POINTS * RECORD_BYTES];
    for start in (0..n).step_by(CHUNK_POINTS) {
        let points = start..(start + CHUNK_POINTS).min(n);
        let bytes = &mut chunk[..points.len() * RECORD_BYTES];
        r.read_exact(bytes)?;
        for (rec, p) in bytes.chunks_exact(RECORD_BYTES).zip(points) {
            let v = |at: usize| f32::from_le_bytes(rec[at..at + 4].try_into().unwrap());
            (mesh.vp[p], mesh.vs[p], mesh.rho[p], mesh.qs[p], mesh.qp[p]) =
                (v(0), v(4), v(8), v(12), v(16));
        }
    }
    Ok(mesh)
}

/// Byte offset of point `(i, j, k)`'s record.
pub fn point_offset(dims: Dims3, i: usize, j: usize, k: usize) -> u64 {
    HEADER_BYTES + (dims.linear(awp_grid::dims::Idx3::new(i, j, k)) as u64) * RECORD_BYTES as u64
}

/// Read one contiguous XY plane (fixed `k`): returns `nx*ny` records of
/// `VALUES_PER_POINT` f32 each, flattened. This is the "contiguous burst
/// reading" unit of Fig. 9.
pub fn read_plane(path: &Path, k: usize) -> io::Result<Vec<f32>> {
    let mut f = File::open(path)?;
    let (dims, _) = {
        let mut r = BufReader::new(&mut f);
        read_header_from(&mut r)?
    };
    if k >= dims.nz {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "plane index out of range"));
    }
    let plane_points = dims.nx * dims.ny;
    let start = point_offset(dims, 0, 0, k);
    f.seek(SeekFrom::Start(start))?;
    let mut bytes = vec![0u8; plane_points * RECORD_BYTES];
    f.read_exact(&mut bytes)?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Read a sub-volume `[i0..i0+nx) × [j0..j0+ny) × [k0..k0+nz)` as an
/// interleaved record buffer — the per-rank extraction of the mesh
/// partitioner. Performs one positioned read per contiguous run of the
/// file: an x-row in general (the natural fragmentation the paper's §III.C
/// wrestles with), a whole XY plane when the sub-volume spans the full x
/// extent, and the whole sub-volume when it also spans the full y extent.
#[allow(clippy::too_many_arguments)]
pub fn read_subvolume(
    path: &Path,
    i0: usize,
    j0: usize,
    k0: usize,
    nx: usize,
    ny: usize,
    nz: usize,
) -> io::Result<Vec<f32>> {
    let mut f = File::open(path)?;
    let (dims, _) = {
        let mut r = BufReader::new(&mut f);
        read_header_from(&mut r)?
    };
    if i0 + nx > dims.nx || j0 + ny > dims.ny || k0 + nz > dims.nz {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "subvolume out of range"));
    }
    if nx * ny * nz == 0 {
        return Ok(Vec::new());
    }
    let full_x = i0 == 0 && nx == dims.nx;
    let run_points = match (full_x, j0 == 0 && ny == dims.ny) {
        (true, true) => nx * ny * nz,
        (true, false) => nx * ny,
        (false, _) => nx,
    };
    let mut bytes = vec![0u8; nx * ny * nz * RECORD_BYTES];
    // Rows land in the buffer in file order; a run starts every
    // `run_points` points.
    for k in k0..k0 + nz {
        for j in j0..j0 + ny {
            let at = ((k - k0) * ny + (j - j0)) * nx;
            if at % run_points == 0 {
                let run = &mut bytes[at * RECORD_BYTES..(at + run_points) * RECORD_BYTES];
                f.read_exact_at(run, point_offset(dims, i0, j, k))?;
            }
        }
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
}

/// Rebuild a [`Mesh`] from an interleaved record buffer.
pub fn mesh_from_records(dims: Dims3, h: f64, records: &[f32]) -> Mesh {
    assert_eq!(records.len(), dims.count() * VALUES_PER_POINT, "record count mismatch");
    let mut mesh = Mesh::zeroed(dims, h);
    for p in 0..dims.count() {
        let r = &records[p * VALUES_PER_POINT..(p + 1) * VALUES_PER_POINT];
        mesh.vp[p] = r[0];
        mesh.vs[p] = r[1];
        mesh.rho[p] = r[2];
        mesh.qs[p] = r[3];
        mesh.qp[p] = r[4];
    }
    mesh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshGenerator;
    use crate::model::LayeredModel;

    fn sample_mesh() -> Mesh {
        let m = LayeredModel::gradient_crust(760.0);
        MeshGenerator::new(&m, Dims3::new(6, 5, 4), 500.0).generate()
    }

    #[test]
    fn write_read_round_trip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("mesh.bin");
        let mesh = sample_mesh();
        write_mesh(&path, &mesh).unwrap();
        let back = read_mesh(&path).unwrap();
        assert_eq!(mesh, back);
    }

    #[test]
    fn header_reads_dims() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("mesh.bin");
        let mesh = sample_mesh();
        write_mesh(&path, &mesh).unwrap();
        let (dims, h) = read_header(&path).unwrap();
        assert_eq!(dims, mesh.dims);
        assert_eq!(h, mesh.h);
    }

    #[test]
    fn plane_read_matches_full() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("mesh.bin");
        let mesh = sample_mesh();
        write_mesh(&path, &mesh).unwrap();
        let k = 2;
        let plane = read_plane(&path, k).unwrap();
        assert_eq!(plane.len(), 6 * 5 * VALUES_PER_POINT);
        for j in 0..5 {
            for i in 0..6 {
                let rec = &plane[(i + 6 * j) * VALUES_PER_POINT..][..VALUES_PER_POINT];
                let s = mesh.sample(i, j, k);
                assert_eq!(rec, [s.vp, s.vs, s.rho, s.qs, s.qp]);
            }
        }
    }

    #[test]
    fn subvolume_matches_full() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("mesh.bin");
        let mesh = sample_mesh();
        write_mesh(&path, &mesh).unwrap();
        let recs = read_subvolume(&path, 1, 2, 1, 3, 2, 2).unwrap();
        let sub = mesh_from_records(Dims3::new(3, 2, 2), mesh.h, &recs);
        for k in 0..2 {
            for j in 0..2 {
                for i in 0..3 {
                    assert_eq!(sub.sample(i, j, k), mesh.sample(i + 1, j + 2, k + 1));
                }
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("junk.bin");
        std::fs::write(&path, b"NOTAMESHxxxxxxxxxxxxxxxxxxxxxxxxxxxx").unwrap();
        assert!(read_mesh(&path).is_err());
        assert!(read_header(&path).is_err());
    }

    #[test]
    fn out_of_range_plane_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("mesh.bin");
        write_mesh(&path, &sample_mesh()).unwrap();
        assert!(read_plane(&path, 99).is_err());
        assert!(read_subvolume(&path, 0, 0, 0, 7, 1, 1).is_err());
    }
}
