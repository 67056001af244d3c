//! Multi-epoch checkpoint rotation with validated fallback (paper §III.F).
//!
//! The single-file scheme in [`crate::checkpoint`] keeps exactly one
//! checkpoint per rank; if that file is corrupted (torn write, bad disk,
//! bit rot) the whole run is unrecoverable. At petascale the paper's runs
//! checkpoint every few thousand steps across hundreds of thousands of
//! cores — production resilience needs depth, not just recency. This
//! module rotates epochs: rank `r`'s state at step `s` lands in
//! `ckpt.<r>.<s>.bin`, the last `keep_last` epochs are retained, and
//! recovery walks epochs newest-first until the embedded MD5 validates.
//!
//! A cluster-wide restart additionally needs a *consistent* line: every
//! rank must resume from the **same** epoch, so [`consistent_epoch`]
//! intersects the valid epoch sets of all ranks and picks the newest
//! common survivor.

use crate::checkpoint::{read_checkpoint, write_checkpoint, CheckpointData};
use awp_telemetry::{Counter, Phase, Recorder};
use awp_vcluster::RetryPolicy;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File name of rank `rank`'s checkpoint at `epoch`.
pub fn epoch_file_name(rank: usize, epoch: u64) -> String {
    format!("ckpt.{rank:06}.{epoch:010}.bin")
}

/// Parse `(rank, epoch)` back out of an epoch checkpoint file name.
fn parse_epoch_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("ckpt.")?.strip_suffix(".bin")?;
    let (rank_s, epoch_s) = rest.split_once('.')?;
    if rank_s.len() != 6 || epoch_s.len() != 10 {
        return None;
    }
    Some((rank_s.parse().ok()?, epoch_s.parse().ok()?))
}

/// Retry an I/O operation on transient errors under a [`RetryPolicy`]
/// (bounded exponential backoff with deterministic jitter). `Interrupted`, `WouldBlock` and `TimedOut` are treated as
/// transient (contended parallel filesystems surface all three); anything
/// else — including `InvalidData` from a checksum mismatch — fails
/// immediately. `key` decorrelates jitter across callers (pass the rank
/// id so a whole cluster retrying the same burst doesn't stampede the
/// filesystem in lock-step).
pub fn retry_io_with<T>(
    policy: &RetryPolicy,
    key: u64,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut tries = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                tries += 1;
                let transient = matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                );
                if !transient || tries >= policy.max_attempts {
                    return Err(e);
                }
                std::thread::sleep(policy.backoff(tries, key));
            }
        }
    }
}

/// [`retry_io_with`] under an ad-hoc policy of `attempts` tries starting
/// at `base_backoff` (doubling, capped at 64× the base). Kept as the
/// convenience entry point for callers without a cluster-wide policy.
pub fn retry_io<T>(
    attempts: u32,
    base_backoff: Duration,
    op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let policy = RetryPolicy::new(attempts)
        .with_backoff(base_backoff, base_backoff.saturating_mul(64));
    retry_io_with(&policy, 0, op)
}

/// Per-rank rotating checkpoint store.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    rank: usize,
    keep_last: usize,
}

impl CheckpointStore {
    /// `keep_last` is the retention depth (≥ 1).
    pub fn new(dir: impl Into<PathBuf>, rank: usize, keep_last: usize) -> Self {
        assert!(keep_last >= 1, "must retain at least one epoch");
        Self { dir: dir.into(), rank, keep_last }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, epoch: u64) -> PathBuf {
        self.dir.join(epoch_file_name(self.rank, epoch))
    }

    /// Store-level I/O retry policy: 3 attempts, 10 ms base backoff.
    /// Jitter is keyed by rank in the call sites so concurrent ranks
    /// retrying a shared-filesystem hiccup spread out instead of
    /// hammering it in phase.
    fn io_policy() -> RetryPolicy {
        RetryPolicy::new(3).with_backoff(Duration::from_millis(10), Duration::from_millis(640))
    }

    /// Write `data` as a new epoch (named after `data.step`), retrying
    /// transient failures, then prune epochs beyond the retention depth.
    /// Returns the epoch id.
    pub fn save(&self, data: &CheckpointData) -> io::Result<u64> {
        self.save_traced(data, &mut Recorder::disabled())
    }

    /// [`save`](Self::save) with telemetry: the whole write (including
    /// retries and pruning) becomes a [`Phase::Checkpoint`] span, the
    /// payload size is charged to [`Counter::CheckpointBytes`], and each
    /// retried attempt to [`Counter::IoRetries`].
    pub fn save_traced(&self, data: &CheckpointData, tel: &mut Recorder) -> io::Result<u64> {
        let t0 = tel.start();
        let epoch = data.step;
        let path = self.path_for(epoch);
        let mut attempts: u64 = 0;
        let res = retry_io_with(&Self::io_policy(), self.rank as u64, || {
            attempts += 1;
            write_checkpoint(&path, data)
        });
        if attempts > 1 {
            tel.count(Counter::IoRetries, attempts - 1);
        }
        res?;
        self.prune()?;
        tel.count(Counter::CheckpointBytes, data.byte_len());
        tel.finish(t0, Phase::Checkpoint);
        Ok(epoch)
    }

    /// All on-disk epochs for this rank, ascending. Unreadable directory
    /// entries are skipped; a missing directory is an empty set.
    pub fn epochs(&self) -> io::Result<Vec<u64>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(it) => it,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut epochs = Vec::new();
        for entry in entries.flatten() {
            if let Some(name) = entry.file_name().to_str() {
                if let Some((rank, epoch)) = parse_epoch_name(name) {
                    if rank == self.rank {
                        epochs.push(epoch);
                    }
                }
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }

    /// Load one specific epoch (MD5-verified).
    pub fn load(&self, epoch: u64) -> io::Result<CheckpointData> {
        retry_io_with(&Self::io_policy(), self.rank as u64, || {
            read_checkpoint(&self.path_for(epoch))
        })
    }

    /// Newest epoch whose checksum validates, walking backwards over
    /// corrupted ones. `Ok(None)` means no valid checkpoint exists.
    pub fn latest_valid(&self) -> io::Result<Option<(u64, CheckpointData)>> {
        for &epoch in self.epochs()?.iter().rev() {
            if let Ok(data) = self.load(epoch) {
                return Ok(Some((epoch, data)));
            }
        }
        Ok(None)
    }

    /// Delete epochs beyond the retention depth (oldest first).
    fn prune(&self) -> io::Result<()> {
        let epochs = self.epochs()?;
        if epochs.len() > self.keep_last {
            for &old in &epochs[..epochs.len() - self.keep_last] {
                // Best-effort: a failed unlink costs disk, not correctness.
                let _ = std::fs::remove_file(self.path_for(old));
            }
        }
        Ok(())
    }
}

/// Newest epoch at which **every** rank in `0..ranks` holds a valid
/// (MD5-verified) checkpoint — the globally consistent restart line.
/// `Ok(None)` means no common valid epoch exists.
pub fn consistent_epoch(dir: &Path, ranks: usize) -> io::Result<Option<u64>> {
    assert!(ranks > 0);
    // Candidate epochs: those present for rank 0; intersect with the rest.
    let stores: Vec<_> = (0..ranks).map(|r| CheckpointStore::new(dir, r, usize::MAX)).collect();
    let mut candidates = stores[0].epochs()?;
    for store in &stores[1..] {
        let have = store.epochs()?;
        candidates.retain(|e| have.binary_search(e).is_ok());
    }
    'epoch: for &epoch in candidates.iter().rev() {
        for store in &stores {
            if store.load(epoch).is_err() {
                continue 'epoch;
            }
        }
        return Ok(Some(epoch));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(step: u64) -> CheckpointData {
        CheckpointData {
            step,
            fields: vec![("vx".into(), (0..64).map(|i| (i as f32) + step as f32).collect())],
        }
    }

    #[test]
    fn epoch_names_round_trip() {
        let name = epoch_file_name(42, 9000);
        assert_eq!(name, "ckpt.000042.0000009000.bin");
        assert_eq!(parse_epoch_name(&name), Some((42, 9000)));
        assert_eq!(parse_epoch_name("ckpt.000042.bin"), None, "legacy single-file name");
        assert_eq!(parse_epoch_name("surface.bin"), None);
    }

    #[test]
    fn rotation_keeps_last_k() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::new(dir.path(), 0, 3);
        for step in [10, 20, 30, 40, 50] {
            store.save(&data(step)).unwrap();
        }
        assert_eq!(store.epochs().unwrap(), vec![30, 40, 50]);
    }

    #[test]
    fn latest_valid_skips_corrupted_epoch() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::new(dir.path(), 0, 4);
        for step in [10, 20, 30] {
            store.save(&data(step)).unwrap();
        }
        // Corrupt the newest epoch.
        let newest = dir.path().join(epoch_file_name(0, 30));
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&newest, &bytes).unwrap();
        let (epoch, d) = store.latest_valid().unwrap().expect("older epochs remain valid");
        assert_eq!(epoch, 20);
        assert_eq!(d.step, 20);
    }

    #[test]
    fn no_valid_checkpoint_is_clean_none() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::new(dir.path(), 0, 2);
        assert!(store.latest_valid().unwrap().is_none(), "empty dir");
        store.save(&data(10)).unwrap();
        let path = dir.path().join(epoch_file_name(0, 10));
        std::fs::write(&path, b"garbage").unwrap();
        assert!(store.latest_valid().unwrap().is_none(), "all epochs corrupt");
    }

    #[test]
    fn ranks_are_isolated() {
        let dir = tempfile::tempdir().unwrap();
        let s0 = CheckpointStore::new(dir.path(), 0, 2);
        let s1 = CheckpointStore::new(dir.path(), 1, 2);
        s0.save(&data(10)).unwrap();
        s1.save(&data(20)).unwrap();
        assert_eq!(s0.epochs().unwrap(), vec![10]);
        assert_eq!(s1.epochs().unwrap(), vec![20]);
    }

    #[test]
    fn consistent_epoch_is_newest_common_valid() {
        let dir = tempfile::tempdir().unwrap();
        let s0 = CheckpointStore::new(dir.path(), 0, 8);
        let s1 = CheckpointStore::new(dir.path(), 1, 8);
        for step in [10, 20, 30] {
            s0.save(&data(step)).unwrap();
        }
        // Rank 1 crashed before writing epoch 30.
        for step in [10, 20] {
            s1.save(&data(step)).unwrap();
        }
        assert_eq!(consistent_epoch(dir.path(), 2).unwrap(), Some(20));
        // Now corrupt rank 0's epoch 20: the line falls back to 10.
        let p = dir.path().join(epoch_file_name(0, 20));
        let mut bytes = std::fs::read(&p).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&p, &bytes).unwrap();
        assert_eq!(consistent_epoch(dir.path(), 2).unwrap(), Some(10));
    }

    #[test]
    fn consistent_epoch_none_when_disjoint() {
        let dir = tempfile::tempdir().unwrap();
        CheckpointStore::new(dir.path(), 0, 8).save(&data(10)).unwrap();
        CheckpointStore::new(dir.path(), 1, 8).save(&data(20)).unwrap();
        assert_eq!(consistent_epoch(dir.path(), 2).unwrap(), None);
    }

    #[test]
    fn save_traced_records_span_and_exact_bytes() {
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::new(dir.path(), 0, 2);
        let reg = awp_telemetry::Registry::new(1);
        let mut tel = reg.recorder(0);
        let d = data(10);
        store.save_traced(&d, &mut tel).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.phase_count(Phase::Checkpoint), 1);
        assert!(snap.phase_ns(Phase::Checkpoint) > 0);
        let on_disk = std::fs::metadata(dir.path().join(epoch_file_name(0, 10))).unwrap().len();
        assert_eq!(
            snap.counter(Counter::CheckpointBytes),
            on_disk,
            "byte_len must be the exact serialized size"
        );
        assert_eq!(snap.counter(Counter::IoRetries), 0);
    }

    #[test]
    fn retry_io_recovers_from_transient_errors() {
        let mut failures = 2;
        let out = retry_io(5, Duration::from_millis(1), || {
            if failures > 0 {
                failures -= 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!(out, 7);
    }

    #[test]
    fn retry_io_gives_up_after_attempts() {
        let mut calls = 0;
        let err = retry_io(3, Duration::from_millis(1), || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::Interrupted, "transient"))
        })
        .unwrap_err();
        assert_eq!(calls, 3);
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn retry_io_with_respects_policy_attempts_and_transience() {
        // Bounded attempts come from the policy, not a hard-coded count.
        let policy = RetryPolicy::new(4).with_backoff(Duration::from_millis(1), Duration::from_millis(4));
        let mut calls = 0;
        let err = retry_io_with(&policy, 7, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"))
        })
        .unwrap_err();
        assert_eq!(calls, 4);
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        // Permanent errors still fail fast regardless of the budget.
        let mut calls = 0;
        let err = retry_io_with(&policy, 7, || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn save_traced_counts_exact_io_retries_under_transient_faults() {
        // IoRetries must equal the number of *extra* attempts the retry
        // engine actually made, with the shared-policy plumbing in place.
        let dir = tempfile::tempdir().unwrap();
        let store = CheckpointStore::new(dir.path(), 0, 2);
        let reg = awp_telemetry::Registry::new(1);
        let mut tel = reg.recorder(0);
        let d = data(10);
        // Force two transient failures through the same code path the
        // store uses: the public surface only faults via the fs, so
        // exercise the counter arithmetic by the retry_io_with contract
        // (tries - 1 extra attempts).
        let mut failures = 2;
        let mut attempts: u64 = 0;
        retry_io_with(&CheckpointStore::io_policy(), 0, || {
            attempts += 1;
            if failures > 0 {
                failures -= 1;
                return Err(io::Error::new(io::ErrorKind::TimedOut, "transient"));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(attempts, 3);
        // A clean save records zero retries.
        store.save_traced(&d, &mut tel).unwrap();
        assert_eq!(tel.snapshot().counter(Counter::IoRetries), 0);
    }

    #[test]
    fn retry_io_fails_fast_on_permanent_errors() {
        let mut calls = 0;
        let err = retry_io(5, Duration::from_millis(1), || -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::InvalidData, "checksum mismatch"))
        })
        .unwrap_err();
        assert_eq!(calls, 1, "InvalidData is not transient");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
