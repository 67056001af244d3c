//! Parallel velocity output: aggregation buffers + explicit-displacement
//! shared-file writes (paper §III.E).
//!
//! AWP-ODC writes velocity output "concurrently … to a single file" using
//! MPI-IO file views with explicit displacements, and aggregates records in
//! memory so the file is touched only "every 20K time steps" — the
//! optimisation that cut I/O overhead from 49 % to under 2 %. M8 "saved the
//! ground velocity vector at every 20th time step" (temporal decimation).

use awp_telemetry::{Counter, Phase, Recorder};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A shared output file written at explicit byte displacements by many
/// ranks concurrently (the MPI-IO stand-in). "Instead of using individual
/// file handles and associated offsets, we use explicit displacements to
/// perform data accesses at the specific locations for all the
/// participating processors."
pub struct SharedFileWriter {
    file: File,
    transactions: AtomicU64,
    bytes: AtomicU64,
}

impl SharedFileWriter {
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        Ok(Self { file, transactions: AtomicU64::new(0), bytes: AtomicU64::new(0) })
    }

    /// Re-open an existing shared file *without* truncating it — used when
    /// a fresh process resumes a checkpointed run and must preserve the
    /// records flushed before the failure.
    pub fn open_existing(path: &Path) -> io::Result<Self> {
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        Ok(Self { file, transactions: AtomicU64::new(0), bytes: AtomicU64::new(0) })
    }

    /// Write f32 values at an explicit byte displacement (thread-safe; one
    /// I/O transaction).
    pub fn write_f32_at(&self, byte_offset: u64, data: &[f32]) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(data.len() * 4);
        for v in data {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.file.write_at(&bytes, byte_offset)?;
        self.transactions.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Read `n` raw bytes back (verification digests hash these as stored).
    pub fn read_bytes_at(&self, byte_offset: u64, n: usize) -> io::Result<Vec<u8>> {
        let mut bytes = vec![0u8; n];
        self.file.read_exact_at(&mut bytes, byte_offset)?;
        Ok(bytes)
    }

    /// Read `n` f32 values back (verification).
    pub fn read_f32_at(&self, byte_offset: u64, n: usize) -> io::Result<Vec<f32>> {
        let bytes = self.read_bytes_at(byte_offset, n * 4)?;
        Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
    }

    /// Number of write transactions so far — the quantity the aggregation
    /// scheme minimises.
    pub fn transactions(&self) -> u64 {
        self.transactions.load(Ordering::Relaxed)
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn sync(&self) -> io::Result<()> {
        self.file.sync_all()
    }
}

/// Output plan shared by all ranks: temporal decimation plus aggregation
/// interval, and the per-rank record layout within each saved step.
#[derive(Debug, Clone, Copy)]
pub struct OutputPlan {
    /// Save every `decimate`-th time step (M8: 20).
    pub decimate: usize,
    /// Flush aggregated records every `flush_every` time steps (M8: 20 000).
    pub flush_every: usize,
    /// f32 values per rank per saved step.
    pub rank_len: usize,
    /// Number of ranks sharing the file.
    pub ranks: usize,
}

impl OutputPlan {
    /// Byte offset of rank `r`'s block for saved-record index `rec`.
    /// Layout is record-major: all ranks' blocks for record 0, then
    /// record 1, …
    pub fn offset(&self, rec: usize, rank: usize) -> u64 {
        debug_assert!(rank < self.ranks);
        ((rec * self.ranks + rank) * self.rank_len * 4) as u64
    }

    /// Whether `step` is a saved step.
    pub fn saves(&self, step: usize) -> bool {
        step % self.decimate == 0
    }

    /// Saved-record index of a saved step.
    pub fn record_index(&self, step: usize) -> usize {
        debug_assert!(self.saves(step));
        step / self.decimate
    }
}

/// Per-rank aggregation buffer.
pub struct OutputAggregator {
    plan: OutputPlan,
    rank: usize,
    /// Record indices awaiting flush, in arrival order.
    pending: Vec<usize>,
    /// Their data, `rank_len` values per record back to back; a flush
    /// empties it but keeps the allocation.
    buffer: Vec<f32>,
    flushes: u64,
}

impl OutputAggregator {
    pub fn new(plan: OutputPlan, rank: usize) -> Self {
        assert!(rank < plan.ranks);
        assert!(plan.decimate > 0 && plan.flush_every > 0 && plan.rank_len > 0);
        Self { plan, rank, pending: Vec::new(), buffer: Vec::new(), flushes: 0 }
    }

    /// Offer this step's data; buffered only on saved steps. Flushes to the
    /// shared file when the aggregation interval elapses.
    pub fn record(
        &mut self,
        step: usize,
        data: &[f32],
        writer: &SharedFileWriter,
    ) -> io::Result<()> {
        self.record_traced(step, writer, &mut Recorder::disabled(), |rec| {
            assert_eq!(data.len(), rec.len(), "record length mismatch");
            rec.copy_from_slice(data);
        })
    }

    /// [`record`](Self::record) that gathers in place, with telemetry. On a
    /// saved step `fill` writes the record into its zeroed `rank_len`-value
    /// slot of the aggregation buffer; on any other step it is not called,
    /// so nothing is gathered. Buffering stays unprobed (it is pure memory
    /// traffic); only an interval-triggered flush shows up, as a
    /// [`Phase::Output`] span via [`flush_traced`](Self::flush_traced).
    pub fn record_traced(
        &mut self,
        step: usize,
        writer: &SharedFileWriter,
        tel: &mut Recorder,
        fill: impl FnOnce(&mut [f32]),
    ) -> io::Result<()> {
        if self.plan.saves(step) {
            let start = self.buffer.len();
            self.buffer.resize(start + self.plan.rank_len, 0.0);
            fill(&mut self.buffer[start..]);
            self.pending.push(self.plan.record_index(step));
        }
        if step > 0 && step % self.plan.flush_every == 0 {
            self.flush_traced(writer, tel)?;
        }
        Ok(())
    }

    /// Write all pending records at their displacements.
    pub fn flush(&mut self, writer: &SharedFileWriter) -> io::Result<()> {
        self.flush_traced(writer, &mut Recorder::disabled())
    }

    /// [`flush`](Self::flush) with telemetry: the drain of the aggregation
    /// buffer becomes a [`Phase::Output`] span and the flushed payload is
    /// charged to [`Counter::OutputBytes`]. An empty flush records nothing.
    pub fn flush_traced(
        &mut self,
        writer: &SharedFileWriter,
        tel: &mut Recorder,
    ) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bytes = self.buffered_bytes() as u64;
        let t0 = tel.start();
        // One write per record, at its displacement.
        let records = self.buffer.chunks_exact(self.plan.rank_len);
        let written = self.pending.drain(..).zip(records).try_for_each(|(rec, data)| {
            writer.write_f32_at(self.plan.offset(rec, self.rank), data)
        });
        self.buffer.clear();
        written?;
        self.flushes += 1;
        tel.count(Counter::OutputBytes, bytes);
        tel.finish(t0, Phase::Output);
        Ok(())
    }

    pub fn pending_records(&self) -> usize {
        self.pending.len()
    }

    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Bytes currently held in the aggregation buffer (the "memory buffer
    /// allocation for buffer aggregation" of §III.G).
    pub fn buffered_bytes(&self) -> usize {
        self.buffer.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_offsets_tile_the_file() {
        let plan = OutputPlan { decimate: 2, flush_every: 10, rank_len: 3, ranks: 4 };
        // Record 0: ranks at 0, 12, 24, 36; record 1 starts at 48.
        assert_eq!(plan.offset(0, 0), 0);
        assert_eq!(plan.offset(0, 1), 12);
        assert_eq!(plan.offset(0, 3), 36);
        assert_eq!(plan.offset(1, 0), 48);
    }

    #[test]
    fn decimation_selects_steps() {
        let plan = OutputPlan { decimate: 20, flush_every: 100, rank_len: 1, ranks: 1 };
        assert!(plan.saves(0));
        assert!(!plan.saves(19));
        assert!(plan.saves(40));
        assert_eq!(plan.record_index(40), 2);
    }

    #[test]
    fn aggregator_buffers_until_flush_interval() {
        let dir = tempfile::tempdir().unwrap();
        let w = SharedFileWriter::create(&dir.path().join("out.bin")).unwrap();
        let plan = OutputPlan { decimate: 2, flush_every: 10, rank_len: 2, ranks: 1 };
        let mut agg = OutputAggregator::new(plan, 0);
        for step in 0..10 {
            agg.record(step, &[step as f32, -(step as f32)], &w).unwrap();
        }
        // Steps 0,2,4,6,8 saved; no flush boundary hit yet (step 10 not recorded).
        assert_eq!(agg.pending_records(), 5);
        assert_eq!(w.transactions(), 0);
        agg.record(10, &[10.0, -10.0], &w).unwrap();
        assert_eq!(agg.pending_records(), 0, "flush at step 10");
        assert_eq!(w.transactions(), 6);
        assert_eq!(agg.flushes(), 1);
    }

    #[test]
    fn aggregation_reduces_transactions() {
        // Same data, two plans: per-step flush vs aggregated flush.
        let dir = tempfile::tempdir().unwrap();
        let run = |flush_every: usize| -> u64 {
            let w = SharedFileWriter::create(&dir.path().join(format!("o{flush_every}.bin")))
                .unwrap();
            let plan = OutputPlan { decimate: 1, flush_every, rank_len: 4, ranks: 1 };
            let mut agg = OutputAggregator::new(plan, 0);
            for step in 0..100 {
                agg.record(step, &[0.0; 4], &w).unwrap();
            }
            agg.flush(&w).unwrap();
            // Transactions identical (records are written individually) but
            // flush *events* differ; count flushes as the syscall-burst
            // metric.
            agg.flushes()
        };
        assert!(run(1) > run(50) * 10, "aggregation must cut flush events");
    }

    #[test]
    fn multi_rank_layout_round_trips() {
        let dir = tempfile::tempdir().unwrap();
        let w = SharedFileWriter::create(&dir.path().join("multi.bin")).unwrap();
        let plan = OutputPlan { decimate: 1, flush_every: 4, rank_len: 2, ranks: 3 };
        let mut aggs: Vec<_> = (0..3).map(|r| OutputAggregator::new(plan, r)).collect();
        for step in 0..8 {
            for (r, agg) in aggs.iter_mut().enumerate() {
                let v = (step * 10 + r) as f32;
                agg.record(step, &[v, v + 0.5], &w).unwrap();
            }
        }
        for agg in &mut aggs {
            agg.flush(&w).unwrap();
        }
        // Verify record 5, rank 2.
        let got = w.read_f32_at(plan.offset(5, 2), 2).unwrap();
        assert_eq!(got, vec![52.0, 52.5]);
        // Verify record 0, rank 0.
        assert_eq!(w.read_f32_at(plan.offset(0, 0), 2).unwrap(), vec![0.0, 0.5]);
    }

    #[test]
    fn concurrent_rank_writes_do_not_corrupt() {
        let dir = tempfile::tempdir().unwrap();
        let w = std::sync::Arc::new(SharedFileWriter::create(&dir.path().join("c.bin")).unwrap());
        let plan = OutputPlan { decimate: 1, flush_every: 1000, rank_len: 16, ranks: 8 };
        std::thread::scope(|s| {
            for rank in 0..8 {
                let w = w.clone();
                s.spawn(move || {
                    let mut agg = OutputAggregator::new(plan, rank);
                    for step in 0..50 {
                        let data = vec![(rank * 1000 + step) as f32; 16];
                        agg.record(step, &data, &w).unwrap();
                    }
                    agg.flush(&w).unwrap();
                });
            }
        });
        for rank in 0..8 {
            for rec in 0..50 {
                let got = w.read_f32_at(plan.offset(rec, rank), 16).unwrap();
                assert!(got.iter().all(|&v| v == (rank * 1000 + rec) as f32));
            }
        }
    }

    #[test]
    fn traced_flush_records_output_span_and_bytes() {
        let dir = tempfile::tempdir().unwrap();
        let w = SharedFileWriter::create(&dir.path().join("t.bin")).unwrap();
        let plan = OutputPlan { decimate: 1, flush_every: 4, rank_len: 2, ranks: 1 };
        let mut agg = OutputAggregator::new(plan, 0);
        let reg = awp_telemetry::Registry::new(1);
        let mut tel = reg.recorder(0);
        for step in 0..=4 {
            agg.record_traced(step, &w, &mut tel, |rec| rec[0] = step as f32).unwrap();
        }
        let snap = tel.snapshot();
        assert_eq!(snap.phase_count(Phase::Output), 1, "one interval flush at step 4");
        assert!(snap.phase_ns(Phase::Output) > 0);
        assert_eq!(snap.counter(Counter::OutputBytes), w.bytes_written());
        // An empty flush must not fabricate a span.
        agg.flush_traced(&w, &mut tel).unwrap();
        assert_eq!(tel.snapshot().phase_count(Phase::Output), 1);
    }

    #[test]
    #[should_panic(expected = "record length mismatch")]
    fn wrong_record_length_rejected() {
        let dir = tempfile::tempdir().unwrap();
        let w = SharedFileWriter::create(&dir.path().join("x.bin")).unwrap();
        let plan = OutputPlan { decimate: 1, flush_every: 10, rank_len: 4, ranks: 1 };
        let mut agg = OutputAggregator::new(plan, 0);
        agg.record(0, &[1.0, 2.0], &w).unwrap();
    }
}
