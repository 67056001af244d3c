//! Content-addressed results store.
//!
//! Layout (pinned in `DESIGN.md`):
//!
//! ```text
//! store/
//!   <scenario-hash>/            one directory per canonical scenario
//!     manifest.json             versioned index: per-artifact MD5s
//!     pgv.bin                   surface PGV map (dims header + f64 LE)
//!     seismograms.bin           station traces (length-prefixed f64 LE)
//! ```
//!
//! Publication is atomic: artifacts are written into a process-private
//! temp directory first and `rename(2)`d into place, so a reader never
//! observes a partially written result and two workers racing on the same
//! hash converge (first rename wins, the loser discards). Every artifact
//! is MD5-fingerprinted in the manifest; [`ResultsStore::verify`]
//! recomputes the digests, which is what makes "cold-store replay
//! reproduces every artifact bit-exact" a checkable property rather than
//! a hope.

use awp_analysis::pgv::PgvMap;
use awp_pario::Md5;
use awp_solver::stations::Seismogram;
use serde_json::Value;
use std::io;
use std::path::{Path, PathBuf};

/// A station trace as stored: name + sample interval + velocity triplets.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrace {
    pub station: String,
    pub dt: f64,
    pub vx: Vec<f64>,
    pub vy: Vec<f64>,
    pub vz: Vec<f64>,
}

impl StoredTrace {
    /// Peak horizontal velocity (RSS of the horizontal components).
    pub fn pgvh(&self) -> f64 {
        self.vx
            .iter()
            .zip(&self.vy)
            .map(|(x, y)| (x * x + y * y).sqrt())
            .fold(0.0, f64::max)
    }
}

/// One stored result, loaded back from disk.
#[derive(Debug, Clone)]
pub struct StoredResult {
    pub hash: String,
    pub family: String,
    pub mw: f64,
    pub pgv: PgvMap,
    pub traces: Vec<StoredTrace>,
}

impl StoredResult {
    /// What a site query or hazard sweep reads from this result.
    pub(crate) fn site_index(&self) -> SiteIndex {
        SiteIndex {
            mw: self.mw,
            pgv_max: self.pgv.max(),
            pgvh: self.traces.iter().map(|t| (t.station.clone(), t.pgvh())).collect(),
        }
    }
}

/// A result reduced to its per-site answers: magnitude, PGV-map maximum
/// and each station's peak horizontal velocity, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SiteIndex {
    pub(crate) mw: f64,
    pub(crate) pgv_max: f64,
    pub(crate) pgvh: Vec<(String, f64)>,
}

impl SiteIndex {
    /// `pgvh` at the first station named `site`.
    pub(crate) fn pgvh_at(&self, site: &str) -> Option<f64> {
        self.pgvh.iter().find(|(s, _)| s == site).map(|&(_, v)| v)
    }
}

/// A scenario hash as [`ScenarioSpec::hash`](crate::spec::ScenarioSpec::hash)
/// writes it: 32 lowercase hex digits.
fn is_hash(name: &str) -> bool {
    name.len() == 32 && name.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// The store root. Cheap to clone-by-path; all methods are `&self` and
/// safe under concurrent workers (atomicity comes from rename).
pub struct ResultsStore {
    root: PathBuf,
}

impl ResultsStore {
    pub fn open(root: impl Into<PathBuf>) -> io::Result<ResultsStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(ResultsStore { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn dir(&self, hash: &str) -> PathBuf {
        self.root.join(hash)
    }

    /// Is a result for this scenario already published?
    pub fn contains(&self, hash: &str) -> bool {
        self.dir(hash).join("manifest.json").is_file()
    }

    /// All published scenario hashes, sorted: the hash names of one
    /// directory read, kept where the directory holds a manifest.
    pub fn list(&self) -> io::Result<Vec<String>> {
        let mut hashes = self.hash_names()?;
        hashes.retain(|hash| self.contains(hash));
        Ok(hashes)
    }

    /// The hash-named entries of the store root, sorted, from one directory
    /// read and no `stat`: published results, and any directory that holds
    /// no manifest. Only hash names count: a `<hash>.tmp-<pid>/` being
    /// filled by [`put`](Self::put) holds a manifest before its rename
    /// publishes it.
    pub(crate) fn hash_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for e in std::fs::read_dir(&self.root)? {
            let name = e?.file_name();
            if let Some(name) = name.to_str().filter(|n| is_hash(n)) {
                names.push(name.to_string());
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Publish a result under its scenario hash. Atomic: builds
    /// `<hash>.tmp-<pid>/` then renames. Racing publishers converge on
    /// whoever renames first.
    pub fn put(
        &self,
        hash: &str,
        family: &str,
        mw: f64,
        pgv: &PgvMap,
        seismograms: &[Seismogram],
    ) -> io::Result<()> {
        if !is_hash(hash) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("'{hash}' is not a scenario hash"),
            ));
        }
        if self.contains(hash) {
            return Ok(());
        }
        let tmp = self.root.join(format!("{hash}.tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp)?;

        let pgv_bytes = encode_pgv(pgv);
        std::fs::write(tmp.join("pgv.bin"), &pgv_bytes)?;
        let seis_bytes = encode_seismograms(seismograms);
        std::fs::write(tmp.join("seismograms.bin"), &seis_bytes)?;

        let artifacts = serde_json::Value::Array(vec![
            artifact_entry("pgv.bin", &pgv_bytes),
            artifact_entry("seismograms.bin", &seis_bytes),
        ]);
        let stations: Vec<String> =
            seismograms.iter().map(|s| s.station.name.clone()).collect();
        let manifest = serde_json::json!({
            "v": 1,
            "kind": "awp-result",
            "hash": hash,
            "family": family,
            "mw": mw,
            "stations": stations,
            "artifacts": artifacts
        });
        std::fs::write(tmp.join("manifest.json"), manifest.to_string())?;

        match std::fs::rename(&tmp, self.dir(hash)) {
            Ok(()) => Ok(()),
            Err(_) if self.contains(hash) => {
                // Lost the publish race; the other copy is content-equal
                // by construction (same hash → same inputs).
                let _ = std::fs::remove_dir_all(&tmp);
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// Read a result's manifest (schema-checked).
    pub fn manifest(&self, hash: &str) -> io::Result<Value> {
        let text = std::fs::read_to_string(self.dir(hash).join("manifest.json"))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| io::Error::other(e.to_string()))?;
        if v["kind"].as_str() != Some("awp-result") || v["v"].as_f64() != Some(1.0) {
            return Err(io::Error::other(format!("{hash}: not an awp-result v1 manifest")));
        }
        Ok(v)
    }

    /// Load a stored result back.
    pub fn load(&self, hash: &str) -> io::Result<StoredResult> {
        let m = self.manifest(hash)?;
        let dir = self.dir(hash);
        let pgv = decode_pgv(&std::fs::read(dir.join("pgv.bin"))?)
            .map_err(io::Error::other)?;
        let traces = decode_seismograms(&std::fs::read(dir.join("seismograms.bin"))?)
            .map_err(io::Error::other)?;
        Ok(StoredResult {
            hash: hash.to_string(),
            family: m["family"].as_str().unwrap_or("").to_string(),
            mw: m["mw"].as_f64().unwrap_or(f64::NAN),
            pgv,
            traces,
        })
    }

    /// Recompute every artifact's MD5 against the manifest. Errors name
    /// the first mismatching artifact.
    pub fn verify(&self, hash: &str) -> io::Result<()> {
        let m = self.manifest(hash)?;
        let dir = self.dir(hash);
        let artifacts = m["artifacts"]
            .as_array()
            .ok_or_else(|| io::Error::other("manifest: artifacts missing"))?;
        if artifacts.is_empty() {
            return Err(io::Error::other("manifest: zero artifacts"));
        }
        for a in artifacts {
            let name = a["name"]
                .as_str()
                .ok_or_else(|| io::Error::other("manifest: artifact without name"))?;
            let want = a["md5"]
                .as_str()
                .ok_or_else(|| io::Error::other("manifest: artifact without md5"))?;
            let got = Md5::digest_hex(&std::fs::read(dir.join(name))?);
            if got != want {
                return Err(io::Error::other(format!(
                    "{hash}/{name}: MD5 {got} != manifest {want}"
                )));
            }
        }
        Ok(())
    }
}

fn artifact_entry(name: &str, bytes: &[u8]) -> Value {
    serde_json::json!({
        "name": name,
        "bytes": bytes.len(),
        "md5": Md5::digest_hex(bytes)
    })
}

fn push_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn push_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.at + n > self.buf.len() {
            return Err("artifact truncated".into());
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let raw = self.take(8 * n)?;
        Ok(raw.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().unwrap())).collect())
    }
}

fn encode_pgv(pgv: &PgvMap) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + 8 * pgv.data.len());
    push_u64(&mut out, pgv.nx as u64);
    push_u64(&mut out, pgv.ny as u64);
    push_f64(&mut out, pgv.h);
    for &x in &pgv.data {
        push_f64(&mut out, x);
    }
    out
}

fn decode_pgv(bytes: &[u8]) -> Result<PgvMap, String> {
    let mut c = Cursor { buf: bytes, at: 0 };
    let nx = c.u64()? as usize;
    let ny = c.u64()? as usize;
    let h = c.f64()?;
    let data = c.f64s(nx * ny)?;
    let mut pgv = PgvMap::zeros(nx, ny, h);
    pgv.data = data;
    Ok(pgv)
}

fn encode_seismograms(seismograms: &[Seismogram]) -> Vec<u8> {
    let mut out = Vec::new();
    push_u64(&mut out, seismograms.len() as u64);
    for s in seismograms {
        let name = s.station.name.as_bytes();
        push_u64(&mut out, name.len() as u64);
        out.extend_from_slice(name);
        push_f64(&mut out, s.dt);
        push_u64(&mut out, s.vx.len() as u64);
        for comp in [&s.vx, &s.vy, &s.vz] {
            for &x in comp.iter() {
                push_f64(&mut out, x);
            }
        }
    }
    out
}

fn decode_seismograms(bytes: &[u8]) -> Result<Vec<StoredTrace>, String> {
    let mut c = Cursor { buf: bytes, at: 0 };
    let count = c.u64()? as usize;
    let mut traces = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = c.u64()? as usize;
        let station = String::from_utf8(c.take(name_len)?.to_vec())
            .map_err(|e| format!("station name not UTF-8: {e}"))?;
        let dt = c.f64()?;
        let n = c.u64()? as usize;
        let vx = c.f64s(n)?;
        let vy = c.f64s(n)?;
        let vz = c.f64s(n)?;
        traces.push(StoredTrace { station, dt, vx, vy, vz });
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::dims::Idx3;
    use awp_solver::stations::Station;

    fn tmp_store(tag: &str) -> (PathBuf, ResultsStore) {
        let d = std::env::temp_dir().join(format!("awp-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        let s = ResultsStore::open(&d).unwrap();
        (d, s)
    }

    fn sample() -> (PgvMap, Vec<Seismogram>) {
        let mut pgv = PgvMap::zeros(4, 3, 100.0);
        for (i, x) in pgv.data.iter_mut().enumerate() {
            *x = i as f64 * 0.25;
        }
        let seis = Seismogram {
            station: Station::new("Downtown", Idx3::new(1, 1, 0)),
            dt: 0.05,
            vx: vec![0.0, 0.3, -0.1],
            vy: vec![0.1, -0.4, 0.2],
            vz: vec![0.0, 0.0, 0.05],
        };
        (pgv, vec![seis])
    }

    const DEADBEEF: &str = "deadbeefdeadbeefdeadbeefdeadbeef";

    #[test]
    fn put_load_round_trip_is_exact() {
        let (dir, store) = tmp_store("roundtrip");
        let (pgv, seis) = sample();
        store.put(DEADBEEF, "shakeout-k", 7.5, &pgv, &seis).unwrap();
        assert!(store.contains(DEADBEEF));
        assert_eq!(store.list().unwrap(), vec![DEADBEEF.to_string()]);
        let r = store.load(DEADBEEF).unwrap();
        assert_eq!(r.pgv.data, pgv.data);
        assert_eq!(r.pgv.nx, 4);
        assert_eq!(r.mw, 7.5);
        assert_eq!(r.traces.len(), 1);
        assert_eq!(r.traces[0].station, "Downtown");
        assert_eq!(r.traces[0].vx, seis[0].vx);
        assert_eq!(r.traces[0].vz, seis[0].vz);
        store.verify(DEADBEEF).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_catches_corruption() {
        let (dir, store) = tmp_store("corrupt");
        let (pgv, seis) = sample();
        let hash = "cafebabecafebabecafebabecafebabe";
        store.put(hash, "w2w", 8.0, &pgv, &seis).unwrap();
        let victim = dir.join(hash).join("pgv.bin");
        let mut bytes = std::fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        let err = store.verify(hash).unwrap_err().to_string();
        assert!(err.contains("pgv.bin"), "error names the artifact: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_put_is_idempotent() {
        let (dir, store) = tmp_store("idem");
        let (pgv, seis) = sample();
        let hash = "feedf00dfeedf00dfeedf00dfeedf00d";
        store.put(hash, "w2w", 8.0, &pgv, &seis).unwrap();
        let before = std::fs::read(dir.join(hash).join("manifest.json")).unwrap();
        store.put(hash, "w2w", 8.0, &pgv, &seis).unwrap();
        let after = std::fs::read(dir.join(hash).join("manifest.json")).unwrap();
        assert_eq!(before, after);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A publication still in its temp directory already holds a manifest;
    /// `list` must not report it, nor anything else that is not a hash.
    #[test]
    fn list_skips_publications_in_flight() {
        let (dir, store) = tmp_store("inflight");
        let (pgv, seis) = sample();
        store.put(DEADBEEF, "w2w", 8.0, &pgv, &seis).unwrap();
        for name in [
            format!("{DEADBEEF}.tmp-4242"),
            "0123456789abcdef0123456789abcdef.tmp-1".to_string(),
            "DEADBEEFDEADBEEFDEADBEEFDEADBEEF".to_string(),
            "deadbeef".to_string(),
        ] {
            std::fs::create_dir_all(dir.join(&name)).unwrap();
            std::fs::copy(
                dir.join(DEADBEEF).join("manifest.json"),
                dir.join(&name).join("manifest.json"),
            )
            .unwrap();
        }
        assert_eq!(store.list().unwrap(), vec![DEADBEEF.to_string()]);
        let err = store.put("deadbeef", "w2w", 8.0, &pgv, &seis).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
