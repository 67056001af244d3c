//! Application-level checkpoint/restart (paper §III.F).
//!
//! "All simulation states consisting of all the internal state variables on
//! each processor are periodically saved into reliable storage where each
//! processor is responsible for writing and updating its own checkpoint
//! data." Each rank writes a self-describing file of named f32 fields with
//! an embedded MD5 so restarts detect corruption.

use crate::md5::Md5;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"AWPCKPT1";

/// f32 values serialised per write (16 KiB).
const CHUNK_VALUES: usize = 4096;

/// One rank's checkpoint payload: the time step plus named state fields.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    pub step: u64,
    pub fields: Vec<(String, Vec<f32>)>,
}

impl CheckpointData {
    pub fn field(&self, name: &str) -> Option<&[f32]> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_slice())
    }

    /// Exact on-disk size of this payload in the [`write_checkpoint`]
    /// format: magic + step + field count, per-field name/length headers
    /// and f32 data, and the trailing MD5. Telemetry charges this to
    /// [`awp_telemetry::Counter::CheckpointBytes`] without re-statting the
    /// file.
    pub fn byte_len(&self) -> u64 {
        let header = 8 + 8 + 8; // magic + step + field count
        let fields: u64 = self
            .fields
            .iter()
            .map(|(name, values)| 8 + name.len() as u64 + 8 + 4 * values.len() as u64)
            .sum();
        header + fields + 16 // MD5 digest
    }
}

/// File name of rank `r`'s checkpoint at a given epoch.
pub fn checkpoint_file_name(rank: usize) -> String {
    format!("ckpt.{rank:06}.bin")
}

/// Write a checkpoint file (atomic: write to a temp name, then rename, so a
/// crash mid-write never destroys the previous checkpoint).
pub fn write_checkpoint(path: &Path, data: &CheckpointData) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut w = BufWriter::new(File::create(&tmp)?);
        let mut hasher = Md5::new();
        w.write_all(MAGIC)?;
        w.write_all(&data.step.to_le_bytes())?;
        hasher.update(&data.step.to_le_bytes());
        w.write_all(&(data.fields.len() as u64).to_le_bytes())?;
        for (name, values) in &data.fields {
            let name_bytes = name.as_bytes();
            w.write_all(&(name_bytes.len() as u64).to_le_bytes())?;
            w.write_all(name_bytes)?;
            hasher.update(name_bytes);
            w.write_all(&(values.len() as u64).to_le_bytes())?;
            // The same little-endian chunk goes to the file and the digest.
            let mut chunk = [0u8; 4 * CHUNK_VALUES];
            for vals in values.chunks(CHUNK_VALUES) {
                let bytes = &mut chunk[..4 * vals.len()];
                for (b, v) in bytes.chunks_exact_mut(4).zip(vals) {
                    b.copy_from_slice(&v.to_le_bytes());
                }
                w.write_all(bytes)?;
                hasher.update(bytes);
            }
        }
        w.write_all(&hasher.finalize())?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Read and verify a checkpoint file; fails on magic/checksum mismatch.
pub fn read_checkpoint(path: &Path) -> io::Result<CheckpointData> {
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad checkpoint magic"));
    }
    let mut b8 = [0u8; 8];
    r.read_exact(&mut b8)?;
    let step = u64::from_le_bytes(b8);
    let mut hasher = Md5::new();
    hasher.update(&b8);
    r.read_exact(&mut b8)?;
    let n_fields = u64::from_le_bytes(b8) as usize;
    if n_fields > 1 << 20 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible field count"));
    }
    let mut fields = Vec::with_capacity(n_fields);
    for _ in 0..n_fields {
        r.read_exact(&mut b8)?;
        let name_len = u64::from_le_bytes(b8) as usize;
        if name_len > 4096 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "implausible name length"));
        }
        let mut name_bytes = vec![0u8; name_len];
        r.read_exact(&mut name_bytes)?;
        hasher.update(&name_bytes);
        let name = String::from_utf8(name_bytes)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "field name not UTF-8"))?;
        r.read_exact(&mut b8)?;
        let len64 = u64::from_le_bytes(b8);
        // Cap the allocation at what the file could possibly hold: a
        // corrupted length field must fail cleanly, not request len*4
        // bytes of memory (or overflow the multiplication).
        match len64.checked_mul(4) {
            Some(bytes64) if bytes64 <= file_len => {}
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "field length exceeds file size",
                ));
            }
        }
        let len = len64 as usize;
        let mut bytes = vec![0u8; len * 4];
        r.read_exact(&mut bytes)?;
        hasher.update(&bytes);
        let values: Vec<f32> =
            bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
        fields.push((name, values));
    }
    let mut want = [0u8; 16];
    r.read_exact(&mut want)?;
    let got = hasher.finalize();
    if got != want {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "checkpoint checksum mismatch"));
    }
    Ok(CheckpointData { step, fields })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            step: 12345,
            fields: vec![
                ("vx".into(), (0..100).map(|i| i as f32 * 0.5).collect()),
                ("vy".into(), vec![-1.0; 50]),
                ("memvar".into(), vec![]),
            ],
        }
    }

    #[test]
    fn round_trip_bit_exact() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join(checkpoint_file_name(3));
        let data = sample();
        write_checkpoint(&path, &data).unwrap();
        let back = read_checkpoint(&path).unwrap();
        assert_eq!(back, data);
        assert_eq!(back.field("vx").unwrap().len(), 100);
        assert!(back.field("nope").is_none());
    }

    #[test]
    fn overwrite_replaces_previous() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c.bin");
        write_checkpoint(&path, &sample()).unwrap();
        let mut newer = sample();
        newer.step = 99999;
        write_checkpoint(&path, &newer).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap().step, 99999);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c.bin");
        write_checkpoint(&path, &sample()).unwrap();
        // Flip one byte in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_file_is_detected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c.bin");
        write_checkpoint(&path, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert!(read_checkpoint(&path).is_err());
    }

    #[test]
    fn wrong_magic_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c.bin");
        std::fs::write(&path, b"JUNKJUNKmorejunkmorejunk").unwrap();
        assert!(read_checkpoint(&path).is_err());
    }

    #[test]
    fn absurd_field_length_rejected_without_allocation() {
        // Corrupt the first field's length to u64::MAX/8: the reader must
        // reject it against the file size instead of attempting a huge
        // allocation. Field-length offset: 8 magic + 8 step + 8 n_fields +
        // 8 name_len + 2 name ("vx").
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("c.bin");
        write_checkpoint(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let off = 8 + 8 + 8 + 8 + 2;
        bytes[off..off + 8].copy_from_slice(&(u64::MAX / 8).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds file size"), "{err}");
    }

    #[test]
    fn per_rank_names_are_distinct() {
        assert_ne!(checkpoint_file_name(0), checkpoint_file_name(1));
        assert_eq!(checkpoint_file_name(42), "ckpt.000042.bin");
    }
}
