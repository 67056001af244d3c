//! Supervised rank lifecycle: in-flight recovery instead of whole-run
//! restart.
//!
//! [`Cluster::try_run`] treats any rank fault as fatal for the pass: the
//! cluster is poisoned, every rank unwinds, and the caller restarts the
//! whole run from the last checkpoint epoch. At petascale that cost model
//! is exactly what Young/Daly says becomes unaffordable as rank counts
//! grow (`perfmodel::resilience` prices it). A [`Supervisor`] keeps the
//! cluster *alive* through a rank failure instead:
//!
//! 1. **Detect** — a crashed (panicked) worker parks itself at the
//!    rollback gate with its [`FaultReport`]; a stalled worker is caught
//!    by the pulse-aware liveness scan (heartbeats *or* telemetry probes
//!    count as signs of life, so a slow-but-instrumented rank is spared).
//! 2. **Quarantine** — the dead rank's mailbox is drained into a bounded
//!    [`DeadLetterBuffer`] with per-message TTL, closing rendezvous ack
//!    channels so no peer blocks on the corpse.
//! 3. **Rollback** — the shared `rollback` flag plus mailbox interrupts
//!    recall every surviving rank at its next cancellation point; they
//!    unwind with a *recoverable* payload and park at the gate.
//! 4. **Respawn** — once all ranks are parked, communication state is
//!    reset, the fault plan advances a generation, and every worker
//!    re-invokes its body from the last validated checkpoint epoch. One
//!    failure costs one epoch of rework, not a full-run restart.
//!
//! The cycle is governed by a [`RetryPolicy`] (bounded attempts,
//! exponential backoff with deterministic seeded jitter) plus a fixed
//! 30 s rollback-barrier timeout, and degrades gracefully: attempts exhausted — or no
//! validated epoch to roll back to — aborts the supervised run with
//! structured reports so the caller can fall back to the classic
//! whole-run epoch restart, and finally to a hard error. Every
//! transition is recorded as a [`RecoveryEvent`] and mirrored into
//! telemetry (`Phase::Recovery` spans, `Counter::Recoveries` /
//! `Counter::DeadLetters`).
//!
//! Limitation (shared with the plain watchdog path): a worker that never
//! reaches a cancellation point — no `tick`, no communication, no
//! telemetry probe — cannot be recalled; the rollback barrier times out
//! and the run degrades.

use crate::cluster::{classify_panic, install_fault_hook, Cluster, LivenessTracker, RankCtx};
use crate::fault::{mix, unit, FaultKind, FaultReport, RollbackUnwind};
use crate::message::Tag;
use awp_telemetry::{CausalKind, Counter, Phase, NO_PEER};
use parking_lot::{Condvar, Mutex, MutexGuard};
use serde::Serialize;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bounded-retry policy shared by the supervisor's recovery cycle and the
/// pario checkpoint IO retry loop: exponential backoff from
/// `base_backoff` doubling per attempt, capped at `max_backoff`, with
/// deterministic seeded jitter (no RNG stream — the jitter is a pure
/// function of `(jitter_seed, attempt, key)`, so retries stay
/// reproducible under any thread interleaving).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Recovery (or IO) attempts before degrading. Attempt numbers are
    /// 1-based: `max_attempts = 3` allows three recovery cycles.
    pub max_attempts: u32,
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Relative jitter half-width: the backoff is scaled by a factor in
    /// `[1 - jitter_frac, 1 + jitter_frac]`.
    pub jitter_frac: f64,
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(2),
            jitter_frac: 0.25,
            jitter_seed: 0x5EED_BACC,
        }
    }
}

impl RetryPolicy {
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts, ..Default::default() }
    }

    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max;
        self
    }

    pub fn with_jitter(mut self, frac: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "jitter fraction must be in [0, 1]");
        self.jitter_frac = frac;
        self.jitter_seed = seed;
        self
    }

    /// Backoff before retry `attempt` (1-based) on stream `key` (distinct
    /// keys — e.g. rank or file ids — decorrelate their jitter).
    pub fn backoff(&self, attempt: u32, key: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(32);
        let raw = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.max_backoff);
        let h = mix(self.jitter_seed, attempt as u64, key, 0, 0);
        let factor = 1.0 + self.jitter_frac * (2.0 * unit(h) - 1.0);
        Duration::from_secs_f64((raw.as_secs_f64() * factor).max(0.0))
    }
}

/// One message rescued from a quarantined mailbox. Payload bytes are not
/// kept — after a rollback the message is stale by construction (its
/// sender will regenerate it from the checkpoint epoch) — only the
/// envelope survives for forensics.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    pub src: usize,
    /// The quarantined (faulted) rank the message was addressed to.
    pub dst: usize,
    pub tag: Tag,
    pub bytes: usize,
    /// TTL deadline; swept lazily on push or explicitly via `sweep`.
    expires: Instant,
}

/// Aggregate dead-letter accounting for a supervised run.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct DeadLetterStats {
    /// Messages drained from quarantined mailboxes, ever.
    pub total: u64,
    /// Still buffered (neither expired nor evicted).
    pub retained: usize,
    /// Evicted oldest-first because the buffer hit its capacity bound.
    pub dropped: u64,
    /// Aged out by the per-message TTL.
    pub expired: u64,
}

/// Bounded buffer of messages drained from quarantined mailboxes, with a
/// per-message TTL. Entries are pushed in arrival order, so expiry is a
/// prefix sweep; capacity overflow evicts oldest-first.
#[derive(Debug)]
pub struct DeadLetterBuffer {
    cap: usize,
    ttl: Duration,
    entries: VecDeque<DeadLetter>,
    total: u64,
    dropped: u64,
    expired: u64,
}

impl DeadLetterBuffer {
    pub fn new(cap: usize, ttl: Duration) -> Self {
        DeadLetterBuffer { cap, ttl, entries: VecDeque::new(), total: 0, dropped: 0, expired: 0 }
    }

    /// Record one drained message.
    pub fn push(&mut self, src: usize, dst: usize, tag: Tag, bytes: usize) {
        self.sweep(Instant::now());
        self.total += 1;
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.entries.len() == self.cap {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(DeadLetter {
            src,
            dst,
            tag,
            bytes,
            expires: Instant::now() + self.ttl,
        });
    }

    /// Expire aged-out entries (prefix of the time-ordered queue).
    pub fn sweep(&mut self, now: Instant) {
        while self.entries.front().is_some_and(|e| e.expires <= now) {
            self.entries.pop_front();
            self.expired += 1;
        }
    }

    pub fn entries(&self) -> impl Iterator<Item = &DeadLetter> {
        self.entries.iter()
    }

    pub fn stats(&self) -> DeadLetterStats {
        DeadLetterStats {
            total: self.total,
            retained: self.entries.len(),
            dropped: self.dropped,
            expired: self.expired,
        }
    }
}

/// One transition of the supervisor state machine, in occurrence order.
#[derive(Debug, Clone, Serialize)]
pub enum RecoveryEvent {
    /// A worker fault (panic/crash report) or liveness verdict arrived.
    FaultDetected { attempt: u32, report: FaultReport },
    /// The faulted rank's mailbox was drained into the dead-letter buffer.
    Quarantined { rank: usize, drained: u64 },
    /// Every rank reached the rollback gate for this cycle.
    RollbackBarrier { attempt: u32, epoch: u64, parked_ms: u64 },
    /// A new generation was released from `epoch` after `backoff_ms`.
    Respawned { attempt: u32, epoch: u64, backoff_ms: u64 },
    /// In-flight recovery gave up; the caller should fall back to a
    /// whole-run restart (and ultimately a structured abort).
    Degraded { reason: String },
}

/// Outcome of a supervised run.
#[derive(Debug)]
pub struct SupervisedRun<T> {
    /// Per-rank results, rank order — same contract as
    /// [`Cluster::try_run`].
    pub results: Vec<Result<T, FaultReport>>,
    /// Completed in-flight recovery cycles (rollback + respawn).
    pub recoveries: u32,
    /// Faults that were absorbed by in-flight recovery (the run still
    /// completed). Faults that caused degradation surface in `results`.
    pub recovered_faults: Vec<FaultReport>,
    /// True when recovery was abandoned (attempts exhausted, no epoch to
    /// roll back to, or rollback barrier timeout): the caller should fall
    /// back to its whole-run restart path.
    pub degraded: bool,
    pub events: Vec<RecoveryEvent>,
    pub dead_letters: DeadLetterStats,
}

#[derive(Clone, Copy, PartialEq)]
enum WorkerStatus {
    Running,
    /// Parked at the rollback gate (faulted or recalled).
    Parked,
    /// Body returned; result banked, parked pending release or finish.
    Done,
}

/// Shared rollback-gate state (one mutex + condvar for workers and the
/// monitor).
struct Gate {
    /// Bumped on each release; workers with `my_gen < released_gen` re-run.
    released_gen: u64,
    /// Epoch the released generation must reload from.
    epoch: Option<u64>,
    finished: bool,
    aborted: bool,
    status: Vec<WorkerStatus>,
    /// Faults reported by parking workers since the monitor last drained.
    fresh_faults: Vec<FaultReport>,
    /// Per-rank count of messages drained from that rank's quarantined
    /// mailbox, consumed by the worker on release (telemetry attribution).
    dead_letters_for: Vec<u64>,
}

/// Supervised rank lifecycle over an existing [`Cluster`]. Borrow the
/// cluster, attach a [`RetryPolicy`], and [`run`](Supervisor::run) a body
/// — the supervisor owns the worker join handles and the liveness scan
/// for the duration of the call.
pub struct Supervisor<'c> {
    cluster: &'c Cluster,
    policy: RetryPolicy,
}

/// How long the supervisor waits for every surviving rank to reach the
/// rollback gate before declaring the cluster unrecoverable.
const ROLLBACK_TIMEOUT: Duration = Duration::from_secs(30);

/// Dead-letter buffer bounds: capacity in messages and per-message TTL.
const DEAD_LETTER_CAP: usize = 1024;
const DEAD_LETTER_TTL: Duration = Duration::from_secs(60);

impl<'c> Supervisor<'c> {
    pub fn new(cluster: &'c Cluster, policy: RetryPolicy) -> Self {
        Supervisor { cluster, policy }
    }

    /// Run `body` on every rank under supervision. `epoch_source` is
    /// consulted at each rollback to find the newest validated checkpoint
    /// epoch (e.g. `pario::epochs::consistent_epoch`); returning `None`
    /// means there is nothing safe to roll back to and the run degrades.
    /// Respawned bodies read the epoch via [`RankCtx::recovery_epoch`].
    pub fn run<T, F, E>(&self, body: F, epoch_source: E) -> SupervisedRun<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
        E: Fn() -> Option<u64> + Sync,
    {
        install_fault_hook();
        self.cluster.reset_run_state();
        let shared = &self.cluster.shared;
        let size = self.cluster.size;
        let mode = self.cluster.mode;
        let gate = Mutex::new(Gate {
            released_gen: 0,
            epoch: None,
            finished: false,
            aborted: false,
            status: vec![WorkerStatus::Running; size],
            fresh_faults: Vec::new(),
            dead_letters_for: vec![0; size],
        });
        let gate_cv = Condvar::new();

        let mut recoveries = 0u32;
        let mut recovered_faults: Vec<FaultReport> = Vec::new();
        let mut events: Vec<RecoveryEvent> = Vec::new();
        let mut dead = DeadLetterBuffer::new(DEAD_LETTER_CAP, DEAD_LETTER_TTL);
        let mut degraded = false;

        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let shared = Arc::clone(shared);
                    let body = &body;
                    let gate = &gate;
                    let gate_cv = &gate_cv;
                    scope.spawn(move || {
                        worker_loop(rank, size, mode, shared, body, gate, gate_cv)
                    })
                })
                .collect();

            self.monitor_loop(
                &gate,
                &gate_cv,
                &epoch_source,
                &mut recoveries,
                &mut recovered_faults,
                &mut events,
                &mut dead,
                &mut degraded,
            );

            handles
                .into_iter()
                .map(|h| h.join().expect("supervised worker boundary must not panic"))
                .collect::<Vec<_>>()
        });

        dead.sweep(Instant::now());
        SupervisedRun {
            results,
            recoveries,
            recovered_faults,
            degraded,
            events,
            dead_letters: dead.stats(),
        }
    }

    /// The supervisor state machine, run on the calling thread while the
    /// workers execute. Exits with the gate marked `finished` (all ranks
    /// done) or `aborted` (degraded).
    #[allow(clippy::too_many_arguments)]
    fn monitor_loop<E>(
        &self,
        gate: &Mutex<Gate>,
        gate_cv: &Condvar,
        epoch_source: &E,
        recoveries: &mut u32,
        recovered_faults: &mut Vec<FaultReport>,
        events: &mut Vec<RecoveryEvent>,
        dead: &mut DeadLetterBuffer,
        degraded: &mut bool,
    ) where
        E: Fn() -> Option<u64> + Sync,
    {
        let shared = &self.cluster.shared;
        let size = self.cluster.size;
        let watchdog = self.cluster.watchdog;
        let poll = watchdog.map(|w| w.poll).unwrap_or(Duration::from_millis(50));
        let timeout_ms = watchdog.map(|w| w.timeout.as_millis() as u64);
        let mut liveness = LivenessTracker::new(shared);
        let mut attempts = 0u32;

        let mut g = gate.lock();
        loop {
            // Run complete: every rank parked Done with nothing pending.
            if g.fresh_faults.is_empty()
                && g.status.iter().all(|s| *s == WorkerStatus::Done)
            {
                g.finished = true;
                gate_cv.notify_all();
                return;
            }

            // Gather this cycle's triggers: worker-reported faults first,
            // then (only if none) pulse-aware liveness verdicts.
            let mut faults = std::mem::take(&mut g.fresh_faults);
            if faults.is_empty() {
                if let Some(timeout_ms) = timeout_ms {
                    let now = shared.start.elapsed().as_millis() as u64;
                    for rank in 0..size {
                        if g.status[rank] != WorkerStatus::Running
                            || shared.done[rank].load(Ordering::SeqCst)
                        {
                            continue;
                        }
                        let last = liveness.last_alive(shared, rank, now);
                        if now.saturating_sub(last) > timeout_ms
                            && !shared.hung[rank].swap(true, Ordering::SeqCst)
                        {
                            faults.push(FaultReport {
                                rank,
                                step: shared.last_step(rank),
                                kind: FaultKind::Hang,
                                detail: "no heartbeat or telemetry pulse within watchdog timeout"
                                    .into(),
                            });
                        }
                    }
                }
            }
            if faults.is_empty() {
                gate_cv.wait_for(&mut g, poll);
                continue;
            }

            // === Recovery cycle ===
            attempts += 1;
            for report in &faults {
                events.push(RecoveryEvent::FaultDetected { attempt: attempts, report: report.clone() });
            }
            if attempts > self.policy.max_attempts {
                self.degrade(
                    &mut g,
                    gate_cv,
                    events,
                    degraded,
                    format!("retry budget exhausted ({} attempts)", self.policy.max_attempts),
                );
                return;
            }

            // Resolve the rollback epoch without blocking parked workers
            // on the gate (epoch validation reads checkpoint files).
            drop(g);
            let epoch = epoch_source();
            g = gate.lock();
            let Some(epoch) = epoch else {
                self.degrade(
                    &mut g,
                    gate_cv,
                    events,
                    degraded,
                    "no validated checkpoint epoch to roll back to".into(),
                );
                return;
            };

            // Recall the survivors: the rollback flag must be visible
            // before mailbox interrupts (and before quarantine closes ack
            // channels), so an unblocked rank classifies its wakeup as a
            // recall — not as a vanished peer or teardown.
            shared.rollback.store(true, Ordering::SeqCst);
            for mb in &shared.mailboxes {
                mb.interrupt();
            }

            // Quarantine: drain each faulted rank's in-flight messages to
            // the dead-letter buffer, dumping the rank's flight recorder
            // first (the drained envelopes are the crash's last traffic).
            for report in &faults {
                dump_flight(shared, report.rank, &format!("{:?}: {}", report.kind, report.detail));
                let msgs = shared.mailboxes[report.rank].drain();
                let drained = msgs.len() as u64;
                for m in msgs {
                    dead.push(m.src, report.rank, m.tag, 4 * m.payload.len());
                }
                g.dead_letters_for[report.rank] += drained;
                events.push(RecoveryEvent::Quarantined { rank: report.rank, drained });
            }

            // Rollback barrier: wait for every rank to park. Faults that
            // arrive while parking (e.g. a rendezvous partner observing
            // the quarantine) fold into this cycle without a new attempt.
            let park_t0 = Instant::now();
            let deadline = park_t0 + ROLLBACK_TIMEOUT;
            loop {
                faults.append(&mut g.fresh_faults);
                if g.status.iter().all(|s| *s != WorkerStatus::Running) {
                    break;
                }
                if gate_cv.wait_until(&mut g, deadline).timed_out() {
                    self.degrade(
                        &mut g,
                        gate_cv,
                        events,
                        degraded,
                        format!(
                            "rollback barrier timed out after {ROLLBACK_TIMEOUT:?} (wedged rank?)"
                        ),
                    );
                    return;
                }
            }
            let parked_ms = park_t0.elapsed().as_millis() as u64;
            events.push(RecoveryEvent::RollbackBarrier { attempt: attempts, epoch, parked_ms });
            recovered_faults.append(&mut faults);

            // Reset communication state and reshuffle message faults for
            // the new generation (a deterministic drop must not re-kill
            // every retry identically).
            shared.reset_for_generation();
            liveness.reset(shared);
            if let Some(plan) = &shared.fault_plan {
                plan.next_generation();
            }

            // Deterministic-jitter backoff, lock released so workers stay
            // parked (not blocked) while we wait.
            let backoff = self.policy.backoff(attempts, epoch);
            drop(g);
            std::thread::sleep(backoff);
            g = gate.lock();

            // Respawn: release every worker into the next generation.
            *recoveries += 1;
            dead.sweep(Instant::now());
            g.epoch = Some(epoch);
            g.released_gen += 1;
            for s in &mut g.status {
                *s = WorkerStatus::Running;
            }
            events.push(RecoveryEvent::Respawned {
                attempt: attempts,
                epoch,
                backoff_ms: backoff.as_millis() as u64,
            });
            gate_cv.notify_all();
        }
    }

    /// Graceful-degradation exit: mark the gate aborted, poison the
    /// cluster so in-body ranks unwind, and wake parked workers so they
    /// return their terminal results.
    fn degrade(
        &self,
        g: &mut MutexGuard<'_, Gate>,
        gate_cv: &Condvar,
        events: &mut Vec<RecoveryEvent>,
        degraded: &mut bool,
        reason: String,
    ) {
        // Degradation loses the run: preserve every rank's last envelopes
        // for the post-mortem before anything unwinds.
        for rank in 0..self.cluster.shared.mailboxes.len() {
            dump_flight(&self.cluster.shared, rank, &format!("degraded: {reason}"));
        }
        events.push(RecoveryEvent::Degraded { reason });
        *degraded = true;
        g.aborted = true;
        // Clear the rollback flag so unwinding ranks take the abort path,
        // then poison (poison wakes everything blocked in comm/barriers).
        self.cluster.shared.rollback.store(false, Ordering::SeqCst);
        self.cluster.shared.poison();
        gate_cv.notify_all();
    }
}

/// Dump `rank`'s flight recorder to `flight_dir/flightrec-<rank>.json`.
/// No-op when the recorder is not armed ([`Cluster::with_flight_recorder`]);
/// IO failures are swallowed — a post-mortem aid must never turn a recovery
/// into a crash.
fn dump_flight(shared: &crate::cluster::Shared, rank: usize, reason: &str) {
    let (Some(dir), Some(fr)) = (shared.flight_dir.as_ref(), shared.flight.get(rank)) else {
        return;
    };
    let json = fr.lock().unwrap_or_else(|e| e.into_inner()).to_json(reason);
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(format!("flightrec-{rank}.json")), json);
}

/// One rank's supervised lifecycle: run the body behind a panic boundary,
/// park at the rollback gate on any exit, and either re-run (release),
/// return the banked result (finish), or return the terminal fault
/// (abort/degrade).
fn worker_loop<T, F>(
    rank: usize,
    size: usize,
    mode: crate::cluster::CommMode,
    shared: Arc<crate::cluster::Shared>,
    body: &F,
    gate: &Mutex<Gate>,
    gate_cv: &Condvar,
) -> Result<T, FaultReport>
where
    T: Send,
    F: Fn(&mut RankCtx) -> T + Sync,
{
    shared.beat(rank);
    // Pulse always wired under supervision: the liveness scan must see
    // telemetry probes even when no registry is attached.
    let mut ctx = RankCtx::new(Arc::clone(&shared), rank, size, mode, true);
    let mut my_gen = 0u64;
    let mut last_ok: Option<T> = None;
    let mut last_fault: Option<FaultReport> = None;
    // Definitely assigned by the catch_unwind match before any read.
    let mut done_this_gen;

    loop {
        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
        let park_t0 = Instant::now();
        let mut g = gate.lock();
        match result {
            Ok(v) => {
                last_ok = Some(v);
                last_fault = None;
                done_this_gen = true;
                g.status[rank] = WorkerStatus::Done;
                shared.done[rank].store(true, Ordering::SeqCst);
            }
            Err(payload) => {
                done_this_gen = false;
                if payload.is::<RollbackUnwind>() {
                    // Recalled survivor: park clean.
                    g.status[rank] = WorkerStatus::Parked;
                } else {
                    let report = classify_panic(rank, payload, &shared);
                    last_fault = Some(report.clone());
                    g.status[rank] = WorkerStatus::Parked;
                    g.fresh_faults.push(report);
                }
            }
        }
        gate_cv.notify_all();

        while !(g.finished || g.aborted || g.released_gen > my_gen) {
            gate_cv.wait(&mut g);
        }
        if g.finished || g.aborted {
            let finished = g.finished;
            drop(g);
            if let Some(reg) = &shared.telemetry {
                reg.submit(ctx.telem.snapshot());
            }
            return if finished {
                last_ok.ok_or_else(|| FaultReport {
                    rank,
                    step: shared.last_step(rank),
                    kind: FaultKind::Aborted,
                    detail: "run finished without a banked result".into(),
                })
            } else if let Some(report) = last_fault {
                Err(report)
            } else if done_this_gen {
                Ok(last_ok.expect("done workers bank a result"))
            } else {
                Err(FaultReport {
                    rank,
                    step: shared.last_step(rank),
                    kind: FaultKind::Aborted,
                    detail: "supervised run degraded to whole-run restart".into(),
                })
            };
        }

        // Released: rejoin the next generation from the rollback epoch.
        my_gen = g.released_gen;
        let epoch = g.epoch;
        let drained = std::mem::take(&mut g.dead_letters_for[rank]);
        drop(g);
        ctx.reset_for_generation(epoch);
        ctx.telem.count(Counter::Recoveries, 1);
        if drained > 0 {
            ctx.telem.count(Counter::DeadLetters, drained);
        }
        ctx.telem.span_at(Phase::Recovery, park_t0, park_t0.elapsed());
        // Causal rollback mark: the analyzer anchors a new generation here
        // (tag = rollback epoch, bytes = dead letters swallowed).
        ctx.telem.causal_mark(CausalKind::Rollback, NO_PEER, epoch.unwrap_or(0), drained);
        last_fault = None;
        shared.beat(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, CommMode};
    use crate::fault::{FaultPlan, WatchdogConfig};
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let p = RetryPolicy::new(8)
            .with_backoff(Duration::from_millis(10), Duration::from_millis(500))
            .with_jitter(0.25, 42);
        for attempt in 1..=8 {
            assert_eq!(p.backoff(attempt, 7), p.backoff(attempt, 7), "same inputs, same backoff");
        }
        // Envelope: base·2^(n-1) scaled by at most ±25%, capped at max.
        for attempt in 1..=8u32 {
            let nominal = (10u64 << (attempt - 1)).min(500) as f64 / 1000.0;
            let b = p.backoff(attempt, 0).as_secs_f64();
            assert!(b >= nominal * 0.74 && b <= nominal * 1.26, "attempt {attempt}: {b}");
        }
        // Distinct keys decorrelate jitter somewhere in the schedule.
        assert!(
            (1..=8).any(|a| p.backoff(a, 1) != p.backoff(a, 2)),
            "independent keys must draw independent jitter"
        );
    }

    #[test]
    fn dead_letter_buffer_enforces_cap_and_ttl() {
        let mut dl = DeadLetterBuffer::new(4, Duration::from_secs(60));
        for i in 0..10 {
            dl.push(0, 1, i, 100);
        }
        let s = dl.stats();
        assert_eq!(s.total, 10);
        assert_eq!(s.retained, 4, "capacity bound holds");
        assert_eq!(s.dropped, 6, "oldest evicted");
        // Newest entries survive.
        let tags: Vec<u64> = dl.entries().map(|e| e.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);

        let mut dl = DeadLetterBuffer::new(8, Duration::from_millis(1));
        dl.push(0, 1, 1, 10);
        dl.push(2, 1, 2, 10);
        std::thread::sleep(Duration::from_millis(5));
        dl.sweep(Instant::now());
        let s = dl.stats();
        assert_eq!(s.expired, 2);
        assert_eq!(s.retained, 0);
    }

    #[test]
    fn supervised_crash_recovers_in_flight() {
        let plan = Arc::new(FaultPlan::new(11).with_crash(1, 5));
        let c = Cluster::new(3, CommMode::Asynchronous).with_fault_plan(plan);
        let passes = AtomicUsize::new(0);
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let run = sup.run(
            |ctx| {
                if ctx.rank() == 0 {
                    passes.fetch_add(1, Ordering::SeqCst);
                }
                for step in 0..20u64 {
                    ctx.tick(step);
                    ctx.barrier();
                }
                ctx.rank() * 10
            },
            || Some(0),
        );
        assert!(!run.degraded, "events: {:?}", run.events);
        assert_eq!(run.recoveries, 1);
        for (r, res) in run.results.iter().enumerate() {
            assert_eq!(*res.as_ref().expect("all ranks recover"), r * 10);
        }
        let crash = run
            .recovered_faults
            .iter()
            .find(|f| f.kind == FaultKind::Crash)
            .expect("the crash was absorbed, not fatal");
        assert_eq!(crash.rank, 1);
        assert_eq!(crash.step, Some(5));
        assert_eq!(passes.load(Ordering::SeqCst), 2, "rank 0 re-ran exactly once");
        // Events follow the state machine: detect → barrier → respawn.
        assert!(matches!(run.events[0], RecoveryEvent::FaultDetected { .. }));
        assert!(run.events.iter().any(|e| matches!(e, RecoveryEvent::RollbackBarrier { .. })));
        assert!(run.events.iter().any(|e| matches!(e, RecoveryEvent::Respawned { epoch: 0, .. })));
    }

    #[test]
    fn attempts_exhausted_degrades_with_structured_reports() {
        let c = Cluster::new(2, CommMode::Asynchronous);
        let sup = Supervisor::new(
            &c,
            RetryPolicy::new(2).with_backoff(Duration::from_millis(1), Duration::from_millis(2)),
        );
        let run = sup.run(
            |ctx| {
                if ctx.rank() == 1 {
                    panic!("deterministic bug");
                }
                for step in 0..200u64 {
                    ctx.tick(step);
                    ctx.barrier();
                }
            },
            || Some(0),
        );
        assert!(run.degraded, "a persistent fault must exhaust the retry budget");
        assert_eq!(run.recoveries, 2, "both budgeted attempts were spent");
        let err = run.results[1].as_ref().expect_err("rank 1 fault must surface");
        assert_eq!(err.kind, FaultKind::Panic);
        assert!(err.detail.contains("deterministic bug"));
        assert!(run.results[0].is_err(), "peer is recalled, then aborted on degrade");
        assert!(
            run.events.iter().any(|e| matches!(e, RecoveryEvent::Degraded { .. })),
            "{:?}",
            run.events
        );
    }

    #[test]
    fn missing_epoch_degrades_immediately() {
        let plan = Arc::new(FaultPlan::new(13).with_crash(0, 2));
        let c = Cluster::new(2, CommMode::Asynchronous).with_fault_plan(plan);
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let run = sup.run(
            |ctx| {
                for step in 0..20u64 {
                    ctx.tick(step);
                    ctx.barrier();
                }
            },
            || None,
        );
        assert!(run.degraded);
        assert_eq!(run.recoveries, 0);
        assert!(run.results[0].is_err());
    }

    #[test]
    fn stalled_rank_is_recovered_via_liveness_scan() {
        // The stall (1 hour) parks no fault report — only the pulse-aware
        // liveness scan can catch it. The rollback recall then pulls the
        // stalled rank out of its injected sleep (the stall is one-shot,
        // so the re-run completes).
        let plan = Arc::new(FaultPlan::new(17).with_stall(0, 3, 3600.0));
        let c = Cluster::new(2, CommMode::Asynchronous)
            .with_fault_plan(plan)
            .with_watchdog(WatchdogConfig {
                timeout: Duration::from_millis(400),
                poll: Duration::from_millis(25),
            });
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let run = sup.run(
            |ctx| {
                for step in 0..10u64 {
                    ctx.tick(step);
                    ctx.barrier();
                }
                7u32
            },
            || Some(0),
        );
        assert!(!run.degraded, "events: {:?}", run.events);
        assert_eq!(run.recoveries, 1);
        let hang = run
            .recovered_faults
            .iter()
            .find(|f| f.kind == FaultKind::Hang)
            .expect("the stall must be detected as a hang");
        assert_eq!(hang.rank, 0);
        for res in &run.results {
            assert_eq!(*res.as_ref().expect("both ranks recover"), 7);
        }
    }

    #[test]
    fn slow_but_instrumented_rank_is_not_killed() {
        // Satellite fix: a rank inside a long compute window that still
        // emits telemetry probes must not be flagged by the liveness scan
        // even though it never beats the heartbeat — while a rank that
        // goes equally silent without probes is recovered.
        let wd = WatchdogConfig {
            timeout: Duration::from_millis(300),
            poll: Duration::from_millis(25),
        };

        let c = Cluster::new(2, CommMode::Asynchronous).with_watchdog(wd);
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let run = sup.run(
            |ctx| {
                if ctx.rank() == 0 {
                    // ~1s of "compute", probing every 50ms, never ticking.
                    for _ in 0..20 {
                        std::thread::sleep(Duration::from_millis(50));
                        ctx.telem.count(Counter::OutputBytes, 1);
                    }
                }
                true
            },
            || Some(0),
        );
        assert!(!run.degraded, "events: {:?}", run.events);
        assert_eq!(run.recoveries, 0, "probing rank must be spared: {:?}", run.events);
        assert!(run.results.iter().all(|r| r.is_ok()));

        // Control: the same silence without probes is still caught.
        let c = Cluster::new(2, CommMode::Asynchronous).with_watchdog(wd);
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let first_pass = AtomicBool::new(true);
        let run = sup.run(
            |ctx| {
                if ctx.rank() == 0 && first_pass.swap(false, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1000));
                }
                ctx.tick(0);
                true
            },
            || Some(0),
        );
        assert!(!run.degraded, "events: {:?}", run.events);
        assert_eq!(run.recoveries, 1, "silent rank must be recovered: {:?}", run.events);
        assert!(run.recovered_faults.iter().any(|f| f.kind == FaultKind::Hang));
    }

    #[test]
    fn quarantine_drains_in_flight_messages_to_dead_letters() {
        // Rank 1 crashes with unconsumed messages in its mailbox; they
        // must land in the dead-letter buffer, and the recovered run must
        // still complete (senders regenerate their traffic on re-run).
        let plan = Arc::new(FaultPlan::new(23).with_crash(1, 1));
        let c = Cluster::new(2, CommMode::Asynchronous).with_fault_plan(plan);
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let run = sup.run(
            |ctx| {
                if ctx.rank() == 0 {
                    // Eager sends queue up in rank 1's mailbox before it
                    // ever receives (it crashes at step 1).
                    for t in 0..5u64 {
                        ctx.send(1, 100 + t, vec![t as f32]);
                    }
                    0.0
                } else {
                    ctx.tick(0);
                    std::thread::sleep(Duration::from_millis(50));
                    ctx.tick(1); // crashes here, mailbox non-empty
                    (0..5u64).map(|t| ctx.recv(0, 100 + t)[0]).sum::<f32>()
                }
            },
            || Some(0),
        );
        assert!(!run.degraded, "events: {:?}", run.events);
        assert_eq!(run.recoveries, 1);
        assert!(run.dead_letters.total >= 5, "in-flight messages drained: {:?}", run.dead_letters);
        assert_eq!(*run.results[1].as_ref().unwrap(), (0..5).sum::<u64>() as f32);
        assert!(run
            .events
            .iter()
            .any(|e| matches!(e, RecoveryEvent::Quarantined { rank: 1, drained } if *drained >= 5)));
    }

    #[test]
    fn recovery_counters_reach_telemetry() {
        use awp_telemetry::Registry;
        let reg = Registry::with_capacity(2, 64);
        let plan = Arc::new(FaultPlan::new(29).with_crash(1, 3));
        let c = Cluster::new(2, CommMode::Asynchronous)
            .with_fault_plan(plan)
            .with_telemetry(Arc::clone(&reg));
        let sup = Supervisor::new(&c, RetryPolicy::default());
        let run = sup.run(
            |ctx| {
                for step in 0..10u64 {
                    ctx.tick(step);
                    ctx.barrier();
                }
            },
            || Some(0),
        );
        assert!(!run.degraded);
        let rep = reg.report();
        assert_eq!(
            rep.counter(Counter::Recoveries),
            2,
            "both ranks rejoined one recovery cycle"
        );
        assert!(rep.phase(Phase::Recovery).count >= 2, "recovery spans recorded");
    }
}
