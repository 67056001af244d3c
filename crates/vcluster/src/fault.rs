//! Deterministic, seed-driven fault injection (paper §III.F context).
//!
//! At petascale, MTBF makes component failure routine: the M8 run survived
//! 24 hours on 223,074 cores only because checkpoint/restart machinery was
//! in place. This module lets the virtual cluster *rehearse* those
//! failures: a [`FaultPlan`] injects rank crashes, rank stalls and
//! message-level faults (drop/delay/duplicate) at schedule points that are
//! a pure function of the seed — the same `--chaos-seed` always produces
//! the byte-identical fault schedule, regardless of thread interleaving.
//!
//! Design notes:
//! * Step faults (crash/stall) are one-shot: they fire on the first pass
//!   that reaches the step and are suppressed afterwards, so a restarted
//!   run can make progress past the original failure point.
//! * Message faults are decided by hashing `(seed, generation, src, dst,
//!   tag)` — no shared RNG stream exists, so scheduling nondeterminism
//!   cannot reorder the fault schedule. The `generation` counter is bumped
//!   by the restart logic so a retried pass is not re-broken identically.

use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// The kinds of fault the plan can inject or the harness can detect.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FaultKind {
    /// Fail-stop: the rank dies at a step (injected).
    Crash,
    /// The rank stops making progress for a while (injected).
    Stall { secs: f64 },
    /// A point-to-point message was silently dropped (injected).
    MsgDrop,
    /// A point-to-point message was delayed (injected).
    MsgDelay { micros: u64 },
    /// A point-to-point message was delivered twice (injected).
    MsgDuplicate,
    /// Watchdog verdict: no heartbeat within the timeout (detected).
    Hang,
    /// The rank body panicked — a genuine bug, not an injection (detected).
    Panic,
    /// The rank was torn down because a peer faulted first (detected).
    Aborted,
    /// A rendezvous partner vanished mid-handshake (detected).
    PeerVanished,
}

/// Structured outcome for one failed rank — the harness-level replacement
/// for `expect("rank panicked")`.
#[derive(Debug, Clone, Serialize)]
pub struct FaultReport {
    pub rank: usize,
    /// Solver step at which the fault fired, when known.
    pub step: Option<u64>,
    pub kind: FaultKind,
    pub detail: String,
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(s) => write!(f, "rank {} {:?} at step {}: {}", self.rank, self.kind, s, self.detail),
            None => write!(f, "rank {} {:?}: {}", self.rank, self.kind, self.detail),
        }
    }
}

impl std::error::Error for FaultReport {}

/// Panic payload used to unwind a rank out of an injected fault; the
/// cluster catches it at the rank boundary and converts it to the report.
pub(crate) struct FaultUnwind(pub FaultReport);

/// Panic payload used to unwind a rank blocked on a poisoned (torn-down)
/// cluster.
pub(crate) struct AbortUnwind;

/// One scheduled step fault.
#[derive(Debug)]
struct StepFault {
    rank: usize,
    step: u64,
    kind: FaultKind,
    fired: AtomicBool,
}

/// SplitMix64 — the plan's only entropy source.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless mixer for per-message decisions (also reused by
/// [`RetryPolicy`]'s deterministic backoff jitter).
fn mix(seed: u64, generation: u64, src: u64, dst: u64, tag: u64) -> u64 {
    let mut s = seed ^ 0xA076_1D64_78BD_642F;
    for v in [generation, src, dst, tag] {
        s ^= v.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        s = s.rotate_left(23).wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    }
    let mut st = s;
    splitmix64(&mut st)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Message-level fault decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MsgFault {
    Drop,
    Delay { micros: u64 },
    Duplicate,
}

/// A deterministic, seeded fault schedule.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    step_faults: Vec<StepFault>,
    drop_prob: f64,
    delay_prob: f64,
    dup_prob: f64,
    max_delay_micros: u64,
    /// Bumped once per restart pass so retries see a fresh message-fault
    /// schedule (otherwise a deterministic drop would re-kill every retry).
    generation: AtomicU64,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        Self { seed, ..Default::default() }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Schedule a fail-stop crash of `rank` at `step` (one-shot).
    pub fn with_crash(mut self, rank: usize, step: u64) -> Self {
        self.step_faults.push(StepFault { rank, step, kind: FaultKind::Crash, fired: AtomicBool::new(false) });
        self
    }

    /// Schedule a stall of `rank` at `step` for `secs` (one-shot).
    pub fn with_stall(mut self, rank: usize, step: u64, secs: f64) -> Self {
        self.step_faults.push(StepFault {
            rank,
            step,
            kind: FaultKind::Stall { secs },
            fired: AtomicBool::new(false),
        });
        self
    }

    /// Enable probabilistic message faults (per-message, identity-hashed).
    pub fn with_msg_faults(mut self, drop: f64, delay: f64, dup: f64, max_delay_micros: u64) -> Self {
        assert!(drop + delay + dup <= 1.0, "fault probabilities exceed 1");
        self.drop_prob = drop;
        self.delay_prob = delay;
        self.dup_prob = dup;
        self.max_delay_micros = max_delay_micros;
        self
    }

    /// Generate a random schedule for a cluster of `ranks` × `steps`:
    /// one crash, one stall, and mild message perturbation, all derived
    /// from the seed.
    pub fn random(seed: u64, ranks: usize, steps: u64) -> Self {
        let mut s = seed;
        let crash_rank = (splitmix64(&mut s) as usize) % ranks;
        let crash_step = 1 + splitmix64(&mut s) % steps.max(1);
        let stall_rank = (splitmix64(&mut s) as usize) % ranks;
        let stall_step = 1 + splitmix64(&mut s) % steps.max(1);
        FaultPlan::new(seed)
            .with_crash(crash_rank, crash_step)
            .with_stall(stall_rank, stall_step, 0.05)
            .with_msg_faults(0.0, 0.02, 0.01, 500)
    }

    /// Advance the restart generation (call once per restart pass).
    pub fn next_generation(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Step-fault lookup for `rank` at `step`; one-shot (at most one
    /// caller ever sees a given entry).
    pub fn step_fault(&self, rank: usize, step: u64) -> Option<FaultKind> {
        for f in &self.step_faults {
            if f.rank == rank
                && f.step == step
                && f.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return Some(f.kind.clone());
            }
        }
        None
    }

    /// Message-fault decision for one `(src, dst, tag)` identity. Pure in
    /// `(seed, generation, identity)` — no internal stream — so the fault
    /// schedule is immune to thread interleaving.
    pub fn msg_fault(&self, src: usize, dst: usize, tag: u64) -> Option<MsgFault> {
        if self.drop_prob + self.delay_prob + self.dup_prob == 0.0 {
            return None;
        }
        let h = mix(self.seed, self.generation(), src as u64, dst as u64, tag);
        let u = unit(h);
        if u < self.drop_prob {
            Some(MsgFault::Drop)
        } else if u < self.drop_prob + self.delay_prob {
            let micros = 1 + h.rotate_left(17) % self.max_delay_micros.max(1);
            Some(MsgFault::Delay { micros })
        } else if u < self.drop_prob + self.delay_prob + self.dup_prob {
            Some(MsgFault::Duplicate)
        } else {
            None
        }
    }

    /// Canonical rendering of the full schedule: step faults plus the
    /// probabilistic parameters. Two plans with the same seed and builder
    /// calls render byte-identically — the determinism regression anchor.
    pub fn schedule_digest(&self) -> String {
        let mut out = format!(
            "seed={} gen={} drop={} delay={} dup={} maxdelay={}",
            self.seed,
            self.generation(),
            self.drop_prob,
            self.delay_prob,
            self.dup_prob,
            self.max_delay_micros
        );
        let mut faults: Vec<String> = self
            .step_faults
            .iter()
            .map(|f| format!("\n  rank {} step {} {:?}", f.rank, f.step, f.kind))
            .collect();
        faults.sort();
        for f in faults {
            out.push_str(&f);
        }
        out
    }

    /// True when the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        !self.step_faults.is_empty()
            || self.drop_prob + self.delay_prob + self.dup_prob > 0.0
    }
}

/// Watchdog configuration: how long a rank may go without a heartbeat
/// before the cluster is declared hung and torn down.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    pub timeout: std::time::Duration,
    pub poll: std::time::Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            timeout: std::time::Duration::from_secs(30),
            poll: std::time::Duration::from_millis(50),
        }
    }
}

impl WatchdogConfig {
    pub fn with_timeout(timeout: std::time::Duration) -> Self {
        Self { timeout, ..Default::default() }
    }
}

/// Bounded-retry policy for the pario checkpoint IO retry loop
/// (`awp_pario::epochs::retry_io`): exponential backoff from
/// `base_backoff` doubling per attempt, capped at `max_backoff`, with
/// deterministic seeded jitter (no RNG stream — the jitter is a pure
/// function of `(jitter_seed, attempt, key)`, so retries stay
/// reproducible under any thread interleaving).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts before giving up. Attempt numbers are 1-based.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::random(42, 8, 1000);
        let b = FaultPlan::random(42, 8, 1000);
        assert_eq!(a.schedule_digest(), b.schedule_digest());
    }

    #[test]
    fn different_seed_different_schedule() {
        let a = FaultPlan::random(42, 8, 1000);
        let b = FaultPlan::random(43, 8, 1000);
        assert_ne!(a.schedule_digest(), b.schedule_digest());
    }

    #[test]
    fn msg_faults_are_identity_pure() {
        let plan = FaultPlan::new(7).with_msg_faults(0.2, 0.2, 0.2, 100);
        for src in 0..4 {
            for dst in 0..4 {
                for tag in 0..50 {
                    assert_eq!(plan.msg_fault(src, dst, tag), plan.msg_fault(src, dst, tag));
                }
            }
        }
    }

    #[test]
    fn msg_fault_rates_roughly_match() {
        let plan = FaultPlan::new(99).with_msg_faults(0.25, 0.0, 0.0, 0);
        let n = 10_000;
        let drops = (0..n).filter(|&t| plan.msg_fault(0, 1, t) == Some(MsgFault::Drop)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "drop rate {rate} far from 0.25");
    }

    #[test]
    fn generation_changes_msg_schedule() {
        let plan = FaultPlan::new(7).with_msg_faults(0.3, 0.0, 0.0, 0);
        let before: Vec<_> = (0..200).map(|t| plan.msg_fault(0, 1, t)).collect();
        plan.next_generation();
        let after: Vec<_> = (0..200).map(|t| plan.msg_fault(0, 1, t)).collect();
        assert_ne!(before, after, "restart generation must reshuffle message faults");
    }

    #[test]
    fn step_faults_are_one_shot() {
        let plan = FaultPlan::new(1).with_crash(2, 10);
        assert_eq!(plan.step_fault(2, 10), Some(FaultKind::Crash));
        assert_eq!(plan.step_fault(2, 10), None, "second query must not re-fire");
        assert_eq!(plan.step_fault(1, 10), None);
        assert_eq!(plan.step_fault(2, 11), None);
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = FaultPlan::new(5);
        assert!(!plan.is_active());
        assert_eq!(plan.msg_fault(0, 1, 42), None);
        assert_eq!(plan.step_fault(0, 0), None);
    }

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
}
