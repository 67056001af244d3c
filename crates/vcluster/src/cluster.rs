//! Rank runtime: spawn N ranks as threads and give each a communicator.
//!
//! Resilience layer: ranks run behind a panic boundary so one rank's
//! failure (injected crash, genuine bug, or watchdog-detected hang) tears
//! the cluster down in a controlled way — [`Cluster::try_run`] returns a
//! per-rank `Result` with a structured [`FaultReport`] instead of
//! propagating a bare panic, and a heartbeat watchdog converts silent
//! hangs into reportable faults.

use crate::fault::{
    AbortUnwind, FaultKind, FaultPlan, FaultReport, FaultUnwind, MsgFault, WatchdogConfig,
};
use crate::ledger::{Category, TimeLedger};
use crate::mailbox::Mailbox;
use crate::message::{Message, Tag};
use crate::schedule::SchedulePlan;
use awp_telemetry::flightrec::FLIGHT_SPANS;
use awp_telemetry::{
    flight_dump, Counter, HistKind, LiveStats, Phase, Recorder, Registry, Snapshot,
};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Communication engine selection (paper §IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommMode {
    /// Rendezvous sends: the sender blocks until the receiver matches the
    /// message. Mirrors the original cascaded `mpi_send/mpi_recv` model
    /// whose "latency is accumulated along the path".
    Synchronous,
    /// Eager buffered sends with out-of-order completion — the redesigned
    /// model that "effectively removes the interdependency among nodes".
    Asynchronous,
}

/// Cluster-wide message statistics.
#[derive(Debug, Default)]
pub struct ClusterStats {
    pub messages: AtomicU64,
    pub bytes: AtomicU64,
    pub barriers: AtomicU64,
}

impl ClusterStats {
    pub fn messages_sent(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    pub fn bytes_sent(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn barriers_passed(&self) -> u64 {
        self.barriers.load(Ordering::Relaxed)
    }
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    poisoned: bool,
}

/// Re-usable counting barrier that, unlike `std::sync::Barrier`, can be
/// poisoned (waking every waiter so it can unwind during teardown).
pub(crate) struct SyncBarrier {
    n: usize,
    state: parking_lot::Mutex<BarrierState>,
    cv: parking_lot::Condvar,
}

impl SyncBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: parking_lot::Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: parking_lot::Condvar::new(),
        }
    }

    /// Wait for all ranks, beating the caller's heartbeat periodically via
    /// `on_tick` (a rank parked at a barrier is waiting, not hung). Unwinds
    /// with `AbortUnwind` if the barrier is poisoned.
    fn wait(&self, on_tick: &dyn Fn()) {
        let mut s = self.state.lock();
        if !s.poisoned {
            s.arrived += 1;
            if s.arrived == self.n {
                s.arrived = 0;
                s.generation = s.generation.wrapping_add(1);
                self.cv.notify_all();
                return;
            }
            let gen = s.generation;
            while !s.poisoned {
                self.cv.wait_for(&mut s, Duration::from_millis(50));
                on_tick();
                if s.generation != gen {
                    return;
                }
            }
        }
        drop(s);
        panic::panic_any(AbortUnwind);
    }

    fn poison(&self) {
        let mut s = self.state.lock();
        s.poisoned = true;
        self.cv.notify_all();
    }

    /// Clear poison and stale arrivals: ranks that unwound out of a
    /// barrier wait leave their `arrived` contribution behind, so the count
    /// must restart from zero before the next pass.
    fn unpoison(&self) {
        let mut s = self.state.lock();
        s.poisoned = false;
        s.arrived = 0;
    }
}

/// Heartbeat sentinel meaning "no step reported yet".
pub(crate) const NO_STEP: u64 = u64::MAX;

/// Wait-for sentinel meaning "not blocked in a receive".
const NOT_BLOCKED: usize = usize::MAX;

pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) barrier: SyncBarrier,
    pub(crate) stats: ClusterStats,
    /// Epoch for heartbeat timestamps.
    pub(crate) start: Instant,
    /// Millis-since-start of each rank's last sign of life.
    pub(crate) heartbeats: Vec<AtomicU64>,
    /// Last solver step each rank reported via [`RankCtx::tick`].
    pub(crate) steps: Vec<AtomicU64>,
    /// Ranks whose body returned (or unwound) — exempt from the watchdog.
    pub(crate) done: Vec<AtomicBool>,
    /// Watchdog verdicts, recorded before poisoning for fault attribution.
    pub(crate) hung: Vec<AtomicBool>,
    /// The peer each rank is blocked receiving from ([`NOT_BLOCKED`]
    /// otherwise), kept only while a watchdog is armed: it lets the scan
    /// tell a wedged rank from the ranks waiting on it.
    pub(crate) blocked_on: Vec<AtomicUsize>,
    /// Set once on teardown; blocks all further blocking communication.
    pub(crate) aborted: AtomicBool,
    /// Per-rank telemetry-probe pulse cells: bumped by every recorder
    /// probe so the liveness scan can tell a slow-but-instrumented rank
    /// from a wedged one. Wired into each rank's recorder only when a
    /// watchdog is attached.
    pub(crate) pulses: Vec<Arc<AtomicU64>>,
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    /// Opt-in telemetry hub. When attached, each rank gets an enabled
    /// recorder at spawn and its snapshot is submitted at rank completion.
    /// Arming the flight recorder attaches a private one if none is.
    pub(crate) telemetry: Option<Arc<Registry>>,
    /// Opt-in seeded schedule perturbation (test harness): reorders
    /// eligible message delivery and `wait_each` polling deterministically.
    pub(crate) schedule: Option<Arc<SchedulePlan>>,
    /// Opt-in live streaming-stats cells (stats endpoint). Wired into each
    /// rank's recorder when attached.
    pub(crate) live: Option<Arc<LiveStats>>,
    /// Directory a faulted rank dumps its flight record to
    /// ([`Cluster::with_flight_recorder`]).
    pub(crate) flight_dir: Option<PathBuf>,
}

impl Shared {
    pub(crate) fn beat(&self, rank: usize) {
        self.heartbeats[rank].store(self.start.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    pub(crate) fn last_step(&self, rank: usize) -> Option<u64> {
        match self.steps[rank].load(Ordering::Relaxed) {
            NO_STEP => None,
            s => Some(s),
        }
    }

    /// Tear the cluster down: wake and unwind every blocked rank.
    pub(crate) fn poison(&self) {
        if !self.aborted.swap(true, Ordering::SeqCst) {
            for mb in &self.mailboxes {
                mb.poison();
            }
            self.barrier.poison();
        }
    }

    pub(crate) fn check_abort(&self) {
        if self.aborted.load(Ordering::SeqCst) {
            panic::panic_any(AbortUnwind);
        }
    }
}

/// Write a faulted rank's flight dump to `dir/flightrec-<rank>.json`. IO
/// failures are swallowed: a post-mortem aid must never turn a fault
/// report into a crash.
fn dump_flight(dir: &Path, snap: &Snapshot, report: &FaultReport) {
    let json = flight_dump(snap, &format!("{:?}: {}", report.kind, report.detail));
    let _ = std::fs::create_dir_all(dir);
    let _ = std::fs::write(dir.join(format!("flightrec-{}.json", snap.rank)), json);
}

/// Pulse-aware liveness bookkeeping for the watchdog loop: a rank counts
/// as alive at the later of its last explicit heartbeat and the last time
/// its telemetry-probe pulse advanced. This is the fix for the "long
/// interior window" false positive — a rank deep in compute that still
/// emits phase spans is slow, not hung, while a genuinely wedged rank
/// emits neither beats nor probes and is still caught.
struct LivenessTracker {
    prev_pulse: Vec<u64>,
    pulse_ms: Vec<u64>,
}

impl LivenessTracker {
    fn new(shared: &Shared) -> Self {
        let now = shared.start.elapsed().as_millis() as u64;
        LivenessTracker {
            prev_pulse: shared.pulses.iter().map(|p| p.load(Ordering::Relaxed)).collect(),
            pulse_ms: vec![now; shared.pulses.len()],
        }
    }

    /// Millis-since-start of `rank`'s most recent sign of life.
    fn last_alive(&mut self, shared: &Shared, rank: usize, now: u64) -> u64 {
        let cur = shared.pulses[rank].load(Ordering::Relaxed);
        if cur != self.prev_pulse[rank] {
            self.prev_pulse[rank] = cur;
            self.pulse_ms[rank] = now;
        }
        shared.heartbeats[rank].load(Ordering::Relaxed).max(self.pulse_ms[rank])
    }
}

/// A virtual cluster of `n` ranks.
///
/// ```
/// use awp_vcluster::{Cluster, CommMode};
/// let cluster = Cluster::new(3, CommMode::Asynchronous);
/// let sums = cluster.run(|ctx| {
///     let next = (ctx.rank() + 1) % ctx.size();
///     let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
///     ctx.send(next, 7, vec![ctx.rank() as f32]);
///     ctx.recv(prev, 7)[0]
/// });
/// assert_eq!(sums, vec![2.0, 0.0, 1.0]);
/// ```
pub struct Cluster {
    pub(crate) shared: Arc<Shared>,
    pub(crate) size: usize,
    pub(crate) mode: CommMode,
    pub(crate) watchdog: Option<WatchdogConfig>,
}

/// Silence the panic-hook output for cluster-internal unwind payloads
/// (injected faults and teardown aborts); genuine rank panics keep the
/// default report.
fn install_fault_hook() {
    static INIT: std::sync::Once = std::sync::Once::new();
    INIT.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<AbortUnwind>() || p.is::<FaultUnwind>() {
                return;
            }
            prev(info);
        }));
    });
}

/// Convert a caught rank-thread panic payload into a structured report.
fn classify_panic(
    rank: usize,
    payload: Box<dyn std::any::Any + Send>,
    shared: &Shared,
) -> FaultReport {
    let step = shared.last_step(rank);
    if let Some(fu) = payload.downcast_ref::<FaultUnwind>() {
        return fu.0.clone();
    }
    if payload.is::<AbortUnwind>() {
        if shared.hung[rank].load(Ordering::SeqCst) {
            return FaultReport {
                rank,
                step,
                kind: FaultKind::Hang,
                detail: "no heartbeat within watchdog timeout".into(),
            };
        }
        return FaultReport {
            rank,
            step,
            kind: FaultKind::Aborted,
            detail: "torn down after a peer fault".into(),
        };
    }
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    FaultReport { rank, step, kind: FaultKind::Panic, detail: msg }
}

/// Whether silent `rank` is blocked receiving along a wait-for chain of
/// silent ranks that ends at a silent rank that is *not* blocked: that
/// rank is the wedged one and `rank` only its victim. A chain that cycles,
/// or reaches a live or finished rank, is a deadlock of its own.
fn waits_on_wedged_rank(shared: &Shared, silent: &[bool], rank: usize) -> bool {
    let mut r = rank;
    for _ in 0..silent.len() {
        match shared.blocked_on[r].load(Ordering::Relaxed) {
            NOT_BLOCKED => return r != rank,
            peer if silent.get(peer) == Some(&true) => r = peer,
            _ => return false,
        }
    }
    false
}

/// Scan rank liveness every `cfg.poll` until `shutdown` is set. A silent
/// rank is flagged as hung unless it waits on a wedged rank, which is
/// flagged instead; the poison then tears the waiting rank down as
/// `Aborted`. The wait is a park, so [`Cluster::try_run`] wakes it the
/// moment the ranks are joined instead of paying up to one more `poll`.
fn watchdog_loop(shared: &Shared, cfg: WatchdogConfig, shutdown: &AtomicBool) {
    let timeout_ms = cfg.timeout.as_millis() as u64;
    let mut liveness = LivenessTracker::new(shared);
    let mut silent = vec![false; shared.heartbeats.len()];
    loop {
        std::thread::park_timeout(cfg.poll);
        if shutdown.load(Ordering::SeqCst) || shared.aborted.load(Ordering::SeqCst) {
            return;
        }
        let now = shared.start.elapsed().as_millis() as u64;
        for (rank, s) in silent.iter_mut().enumerate() {
            *s = !shared.done[rank].load(Ordering::SeqCst)
                && now.saturating_sub(liveness.last_alive(shared, rank, now)) > timeout_ms;
        }
        let mut any_hung = false;
        for rank in (0..silent.len()).filter(|&r| silent[r]) {
            if !waits_on_wedged_rank(shared, &silent, rank) {
                shared.hung[rank].store(true, Ordering::SeqCst);
                any_hung = true;
            }
        }
        if any_hung {
            shared.poison();
            return;
        }
    }
}

impl Cluster {
    pub fn new(size: usize, mode: CommMode) -> Self {
        assert!(size > 0, "cluster needs at least one rank");
        let shared = Arc::new(Shared {
            mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            barrier: SyncBarrier::new(size),
            stats: ClusterStats::default(),
            start: Instant::now(),
            heartbeats: (0..size).map(|_| AtomicU64::new(0)).collect(),
            steps: (0..size).map(|_| AtomicU64::new(NO_STEP)).collect(),
            done: (0..size).map(|_| AtomicBool::new(false)).collect(),
            hung: (0..size).map(|_| AtomicBool::new(false)).collect(),
            blocked_on: (0..size).map(|_| AtomicUsize::new(NOT_BLOCKED)).collect(),
            aborted: AtomicBool::new(false),
            pulses: (0..size).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            fault_plan: None,
            telemetry: None,
            schedule: None,
            live: None,
            flight_dir: None,
        });
        Self { shared, size, mode, watchdog: None }
    }

    /// Attach a deterministic fault-injection plan (builder style; call
    /// before the first `run`/`try_run`).
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        Arc::get_mut(&mut self.shared)
            .expect("attach the fault plan before running the cluster")
            .fault_plan = Some(plan);
        self
    }

    /// Attach a telemetry registry (builder style; call before the first
    /// `run`/`try_run`). Every rank then records phase spans, comm
    /// counters, and latency histograms into a per-rank [`Recorder`] and
    /// submits its snapshot when its body completes — even on a panic, so
    /// fault forensics keep the partial timeline.
    pub fn with_telemetry(mut self, registry: Arc<Registry>) -> Self {
        assert_eq!(
            registry.ranks(),
            self.size,
            "telemetry registry sized for {} ranks, cluster has {}",
            registry.ranks(),
            self.size
        );
        Arc::get_mut(&mut self.shared)
            .expect("attach telemetry before running the cluster")
            .telemetry = Some(registry);
        self
    }

    /// Attach a deterministic schedule-perturbation plan (builder style;
    /// call before the first `run`/`try_run`). Every mailbox then applies
    /// seeded delivery reordering and hold-backs, and every
    /// [`RankCtx::wait_each`] polls its request set in a seeded order — see
    /// [`SchedulePlan`]. Production runs (no plan) keep the plain FIFO path.
    pub fn with_schedule(mut self, plan: Arc<SchedulePlan>) -> Self {
        let shared = Arc::get_mut(&mut self.shared)
            .expect("attach the schedule plan before running the cluster");
        for (rank, mb) in shared.mailboxes.iter().enumerate() {
            mb.set_policy(Arc::clone(&plan), rank);
        }
        shared.schedule = Some(plan);
        self
    }

    /// Attach live streaming-stats cells (builder style; call before the
    /// first `run`/`try_run`). Every rank's recorder then publishes its step
    /// and phase times into its [`LiveStats`] cell with relaxed atomic
    /// stores — a stats endpoint samples them concurrently.
    pub fn with_live_stats(mut self, live: Arc<LiveStats>) -> Self {
        assert_eq!(
            live.ranks(),
            self.size,
            "live stats sized for {} ranks, cluster has {}",
            live.ranks(),
            self.size
        );
        Arc::get_mut(&mut self.shared)
            .expect("attach live stats before running the cluster")
            .live = Some(live);
        self
    }

    /// Arm the crash flight recorder (builder style; call before the first
    /// `run`/`try_run`). Each rank's own telemetry rings are the record:
    /// without an attached registry every rank gets an enabled recorder
    /// with a [`FLIGHT_SPANS`]-span ring. A rank that crashes, panics or
    /// hangs writes the newest envelopes and spans of its rings to
    /// `dir/flightrec-<rank>.json` ([`flight_dump`]) for post-mortem triage
    /// (a rank torn down after a peer's fault does not).
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        let size = self.size;
        let shared = Arc::get_mut(&mut self.shared)
            .expect("arm the flight recorder before running the cluster");
        shared.telemetry.get_or_insert_with(|| Registry::with_capacity(size, FLIGHT_SPANS));
        shared.flight_dir = Some(dir.into());
        self
    }

    /// Enable the heartbeat watchdog: ranks that go silent longer than the
    /// configured timeout are declared hung and the cluster is torn down
    /// with structured [`FaultReport`]s instead of hanging forever.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(cfg);
        self
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn stats(&self) -> &ClusterStats {
        &self.shared.stats
    }

    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.shared.fault_plan.as_ref()
    }

    /// Run `body(rank_ctx)` on every rank concurrently and collect the
    /// per-rank results in rank order. Panics in any rank propagate (with
    /// a `rank panicked` message, as before the resilience layer).
    pub fn run<T, F>(&self, body: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        self.try_run(body)
            .into_iter()
            .map(|r| match r {
                Ok(v) => v,
                Err(report) => panic!("rank panicked: {report}"),
            })
            .collect()
    }

    /// Fault-isolating run: every rank executes behind a panic boundary and
    /// yields `Ok(T)` or a structured [`FaultReport`]. The first failing
    /// rank poisons the cluster, so peers blocked in communication unwind
    /// with [`FaultKind::Aborted`] instead of deadlocking; ranks that
    /// already finished keep their `Ok` results. With a watchdog attached,
    /// silent hangs become [`FaultKind::Hang`] reports. With the flight
    /// recorder armed, every rank whose report is not
    /// [`FaultKind::Aborted`] dumps its ring.
    pub fn try_run<T, F>(&self, body: F) -> Vec<Result<T, FaultReport>>
    where
        T: Send,
        F: Fn(&mut RankCtx) -> T + Sync,
    {
        install_fault_hook();
        self.reset_run_state();
        let shared = &self.shared;
        let mode = self.mode;
        let size = self.size;
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..size)
                .map(|rank| {
                    let shared = Arc::clone(shared);
                    let body = &body;
                    let watched = self.watchdog.is_some();
                    scope.spawn(move || {
                        shared.beat(rank);
                        // The ctx lives outside the panic boundary so its
                        // telemetry survives a mid-run fault: the partial
                        // timeline is submitted, and dumped, either way.
                        let mut ctx = RankCtx::new(Arc::clone(&shared), rank, size, mode, watched);
                        let result = panic::catch_unwind(AssertUnwindSafe(|| body(&mut ctx)));
                        shared.done[rank].store(true, Ordering::SeqCst);
                        let result = result.map_err(|payload| {
                            let report = classify_panic(rank, payload, &shared);
                            shared.poison();
                            report
                        });
                        if let Some(reg) = &shared.telemetry {
                            let snap = ctx.telem.snapshot();
                            match (&result, &shared.flight_dir) {
                                (Err(report), Some(dir)) if report.kind != FaultKind::Aborted => {
                                    dump_flight(dir, &snap, report)
                                }
                                _ => {}
                            }
                            reg.submit(snap);
                        }
                        result
                    })
                })
                .collect();
            let wd = self.watchdog.map(|cfg| {
                let shared = Arc::clone(shared);
                let shutdown = &shutdown;
                scope.spawn(move || watchdog_loop(&shared, cfg, shutdown))
            });
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("rank boundary must not panic"))
                .collect();
            shutdown.store(true, Ordering::SeqCst);
            if let Some(h) = wd {
                h.thread().unpark();
                let _ = h.join();
            }
            results
        })
    }

    /// Clear teardown state so a cluster object can host another pass
    /// (e.g. a restart after a fault).
    fn reset_run_state(&self) {
        let shared = &self.shared;
        shared.aborted.store(false, Ordering::SeqCst);
        shared.barrier.unpoison();
        for mb in &shared.mailboxes {
            mb.unpoison();
        }
        for rank in 0..self.size {
            shared.done[rank].store(false, Ordering::SeqCst);
            shared.hung[rank].store(false, Ordering::SeqCst);
            shared.blocked_on[rank].store(NOT_BLOCKED, Ordering::Relaxed);
            shared.steps[rank].store(NO_STEP, Ordering::Relaxed);
            shared.beat(rank);
        }
    }
}

/// Per-rank communicator handle (lives on the rank's thread).
pub struct RankCtx {
    rank: usize,
    size: usize,
    mode: CommMode,
    shared: Arc<Shared>,
    /// Number of [`wait_each`](Self::wait_each) completions this rank has
    /// issued under a schedule plan — the deterministic (program-order)
    /// index the plan keys its polling-order permutation on.
    waitall_calls: u64,
    /// `wait_each`'s outstanding-request indices in polling order, kept
    /// between calls so a completion allocates nothing once warm.
    poll: Vec<usize>,
    /// A watchdog is scanning: blocking receives publish the peer they
    /// wait on ([`Shared::blocked_on`]).
    watched: bool,
    /// Wall-time ledger; solvers charge their phases into it directly.
    /// Communication calls charge themselves.
    pub ledger: TimeLedger,
    /// Telemetry recorder — enabled when the cluster was built
    /// [`with_telemetry`](Cluster::with_telemetry), otherwise a disabled
    /// recorder whose probes are not-taken branches (zero allocation).
    /// Communication calls feed it implicitly; solvers add phase spans.
    pub telem: Recorder,
}

impl RankCtx {
    /// Build the communicator handle for one rank. `watched` (a watchdog
    /// is scanning) attaches the rank's liveness pulse cell to its recorder
    /// and publishes blocking receives' peers — the plain path keeps
    /// telemetry probes at a single not-taken branch.
    fn new(shared: Arc<Shared>, rank: usize, size: usize, mode: CommMode, watched: bool) -> Self {
        let mut telem = shared
            .telemetry
            .as_ref()
            .map(|reg| reg.recorder(rank))
            .unwrap_or_else(Recorder::disabled);
        if watched {
            telem.set_pulse(Arc::clone(&shared.pulses[rank]));
        }
        if let Some(live) = &shared.live {
            telem.set_live(Arc::clone(live.rank(rank)));
        }
        RankCtx {
            rank,
            size,
            mode,
            shared,
            waitall_calls: 0,
            poll: Vec::new(),
            watched,
            ledger: TimeLedger::new(),
            telem,
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn mode(&self) -> CommMode {
        self.mode
    }

    /// Per-step progress report: beats the heartbeat, fires any injected
    /// step fault scheduled for this rank/step, and aborts promptly when
    /// the cluster is being torn down. Solver loops call this once per
    /// timestep.
    pub fn tick(&mut self, step: u64) {
        self.shared.beat(self.rank);
        self.shared.steps[self.rank].store(step, Ordering::Relaxed);
        self.telem.set_step(step);
        self.shared.check_abort();
        let Some(plan) = self.shared.fault_plan.clone() else { return };
        let fault = plan.step_fault(self.rank, step);
        if fault.is_some() {
            self.telem.count(Counter::FaultEvents, 1);
        }
        match fault {
            Some(FaultKind::Crash) => {
                panic::panic_any(FaultUnwind(FaultReport {
                    rank: self.rank,
                    step: Some(step),
                    kind: FaultKind::Crash,
                    detail: "injected fail-stop crash".into(),
                }));
            }
            Some(FaultKind::Stall { secs }) => {
                // Stall without beating: the watchdog sees exactly what a
                // wedged rank looks like. Abort checks keep teardown fast.
                let deadline = Instant::now() + Duration::from_secs_f64(secs);
                while Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(10));
                    self.shared.check_abort();
                }
            }
            _ => {}
        }
    }

    /// Block on a rendezvous ack, surviving teardown: a poisoned cluster
    /// unwinds, a dropped ack channel becomes a `PeerVanished` fault.
    fn await_ack(&self, ack_rx: &crossbeam::channel::Receiver<()>, dst: usize) {
        use crossbeam::channel::RecvTimeoutError;
        loop {
            match ack_rx.recv_timeout(Duration::from_millis(50)) {
                Ok(()) => return,
                Err(RecvTimeoutError::Timeout) => {
                    self.shared.check_abort();
                    self.shared.beat(self.rank);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.shared.check_abort();
                    panic::panic_any(FaultUnwind(FaultReport {
                        rank: self.rank,
                        step: self.shared.last_step(self.rank),
                        kind: FaultKind::PeerVanished,
                        detail: format!("rendezvous ack channel to rank {dst} closed"),
                    }));
                }
            }
        }
    }

    /// Mode-dispatching send: rendezvous in synchronous mode, eager in
    /// asynchronous mode. Time is charged to `Comm`. With a fault plan
    /// attached, the message may be deterministically dropped, delayed or
    /// duplicated.
    pub fn send(&mut self, dst: usize, tag: Tag, payload: Vec<f32>) {
        let bytes = 4 * payload.len() as u64;
        self.shared.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.telem.count(Counter::MsgsSent, 1);
        self.telem.count(Counter::BytesSent, bytes);
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        assert_ne!(dst, self.rank, "self-sends are not supported");
        // Lamport stamp: one tick per send call; a fault-injected duplicate
        // carries the same stamp as its original (it is the same message on
        // the wire twice, not two causal events).
        let clock = self.telem.clock_send();
        self.telem.causal_send(dst as u32, tag, bytes, clock);
        let t0 = std::time::Instant::now();
        self.shared.beat(self.rank);
        let fault = self
            .shared
            .fault_plan
            .as_ref()
            .and_then(|p| p.msg_fault(self.rank, dst, tag));
        if fault.is_some() {
            self.telem.count(Counter::FaultEvents, 1);
        }
        let mut duplicate = false;
        match fault {
            Some(MsgFault::Drop) => {
                // The network ate the message. An eager sender never
                // notices; a rendezvous sender blocks on an ack that can
                // only come from the watchdog tearing the run down.
                if self.mode == CommMode::Synchronous {
                    let (_ack_tx, ack_rx) = crossbeam::channel::bounded::<()>(1);
                    self.await_ack(&ack_rx, dst);
                }
                let el = t0.elapsed();
                self.ledger.add(Category::Comm, el);
                self.telem.observe(HistKind::Send, el);
                return;
            }
            Some(MsgFault::Delay { micros }) => {
                std::thread::sleep(Duration::from_micros(micros));
            }
            Some(MsgFault::Duplicate) => duplicate = true,
            None => {}
        }
        match self.mode {
            CommMode::Asynchronous => {
                if duplicate {
                    self.shared.mailboxes[dst].deliver(Message {
                        src: self.rank,
                        tag,
                        payload: payload.clone(),
                        clock,
                        ack: None,
                    });
                }
                self.shared.mailboxes[dst].deliver(Message {
                    src: self.rank,
                    tag,
                    payload,
                    clock,
                    ack: None,
                });
            }
            CommMode::Synchronous => {
                let (ack_tx, ack_rx) = crossbeam::channel::bounded(1);
                let dup_payload = duplicate.then(|| payload.clone());
                self.shared.mailboxes[dst].deliver(Message {
                    src: self.rank,
                    tag,
                    payload,
                    clock,
                    ack: Some(ack_tx),
                });
                if let Some(p) = dup_payload {
                    // The spurious copy is delivered after (and without)
                    // the acked one, so FIFO matching always completes the
                    // rendezvous on the real copy.
                    self.shared.mailboxes[dst].deliver(Message {
                        src: self.rank,
                        tag,
                        payload: p,
                        clock,
                        ack: None,
                    });
                }
                // Rendezvous: block until the receiver matches.
                self.await_ack(&ack_rx, dst);
            }
        }
        let el = t0.elapsed();
        self.ledger.add(Category::Comm, el);
        self.telem.observe(HistKind::Send, el);
    }

    /// Matched take from this rank's mailbox with the per-message
    /// bookkeeping every receive shares: the Lamport merge and causal recv
    /// event, the `MsgsRecv`/`BytesRecv` counters and, when blocking, the
    /// blocked time charged to `Comm` and the recv latency histogram. A
    /// blocking take does not beat while it waits; under a watchdog it
    /// publishes the peer it waits on instead.
    fn take(&mut self, src: usize, tag: Tag, block: bool) -> Option<Vec<f32>> {
        let watched = block && self.watched;
        if block {
            self.shared.beat(self.rank);
        }
        if watched {
            self.shared.blocked_on[self.rank].store(src, Ordering::Relaxed);
        }
        let t0 = block.then(Instant::now);
        let (data, peer_clock) = self.shared.mailboxes[self.rank].take(src, tag, block)?;
        if watched {
            self.shared.blocked_on[self.rank].store(NOT_BLOCKED, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            let el = t0.elapsed();
            self.ledger.add(Category::Comm, el);
            self.telem.observe(HistKind::Recv, el);
        }
        let bytes = 4 * data.len() as u64;
        let clock = self.telem.clock_recv(peer_clock);
        self.telem.causal_recv(src as u32, tag, bytes, peer_clock, clock);
        self.telem.count(Counter::MsgsRecv, 1);
        self.telem.count(Counter::BytesRecv, bytes);
        Some(data)
    }

    /// Blocking matched receive.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Vec<f32> {
        self.take(src, tag, true).expect("a blocking take returns a message")
    }

    /// Complete every posted receive in any arrival order (MPI_Waitall),
    /// handing each payload to `on_arrival` with its request as it lands.
    /// `key` names a request's `(src, tag)` envelope. Each pass polls the
    /// outstanding requests in request order — under a schedule plan, in
    /// the plan's seeded [`waitall_perm`](SchedulePlan::waitall_perm)
    /// order — and takes whatever has arrived; a pass that finds nothing
    /// blocks on the first outstanding request. Only blocked time is
    /// charged to `Comm`. Returns the time spent inside `on_arrival`,
    /// measured only while the recorder is armed (zero otherwise).
    pub fn wait_each<R>(
        &mut self,
        reqs: &[R],
        key: impl Fn(&R) -> (usize, Tag),
        mut on_arrival: impl FnMut(&R, Vec<f32>),
    ) -> Duration {
        self.shared.beat(self.rank);
        let mut order = std::mem::take(&mut self.poll);
        order.clear();
        match &self.shared.schedule {
            Some(plan) => {
                order.extend(plan.waitall_perm(self.rank, self.waitall_calls, reqs.len()));
                self.waitall_calls += 1;
            }
            None => order.extend(0..reqs.len()),
        }
        let mut in_callback = Duration::ZERO;
        let mut block = false;
        while !order.is_empty() {
            let mut hit = false;
            let mut idx = 0;
            while idx < order.len() {
                let req = &reqs[order[idx]];
                let (src, tag) = key(req);
                let Some(data) = self.take(src, tag, block) else {
                    idx += 1;
                    continue;
                };
                order.remove(idx);
                hit = true;
                let t = self.telem.start();
                on_arrival(req, data);
                if let Some(t) = t {
                    in_callback += t.elapsed();
                }
                if block {
                    break;
                }
            }
            // Nothing was ready: block on the first outstanding request.
            block = !hit;
        }
        self.poll = order;
        in_callback
    }

    /// Global barrier; time charged to `Sync` (the paper's T_sync is
    /// "mostly composed of a single MPI_Barrier call per iteration").
    pub fn barrier(&mut self) {
        let t0 = std::time::Instant::now();
        let shared = Arc::clone(&self.shared);
        let rank = self.rank;
        self.shared.barrier.wait(&|| shared.beat(rank));
        let el = t0.elapsed();
        self.ledger.add(Category::Sync, el);
        self.telem.span_at(Phase::Barrier, t0, el);
        self.telem.observe(HistKind::Barrier, el);
        if self.rank == 0 {
            self.shared.stats.barriers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_see_their_ids() {
        let c = Cluster::new(4, CommMode::Asynchronous);
        let ids = c.run(|ctx| ctx.rank());
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ring_pass_async() {
        let n = 6;
        let c = Cluster::new(n, CommMode::Asynchronous);
        let sums = c.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, 1, vec![ctx.rank() as f32]);
            let got = ctx.recv(prev, 1);
            got[0]
        });
        for (r, v) in sums.iter().enumerate() {
            let prev = (r + n - 1) % n;
            assert_eq!(*v, prev as f32);
        }
    }

    #[test]
    fn ring_pass_sync_rendezvous() {
        // Rendezvous sends in a ring must still complete because every rank
        // posts its receive eventually; but ordering matters: post sends to
        // even/odd phases to avoid deadlock, as real sync-mode codes do.
        let n = 4;
        let c = Cluster::new(n, CommMode::Synchronous);
        let out = c.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            if ctx.rank() % 2 == 0 {
                ctx.send(next, 9, vec![ctx.rank() as f32]);
                ctx.recv(prev, 9)[0]
            } else {
                let v = ctx.recv(prev, 9)[0];
                ctx.send(next, 9, vec![ctx.rank() as f32]);
                v
            }
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn waitall_completes_out_of_order() {
        let c = Cluster::new(3, CommMode::Asynchronous);
        let got = c.run(|ctx| {
            if ctx.rank() == 0 {
                // Post receives from both peers before any arrives.
                let mut got = (0.0, 0.0);
                ctx.wait_each(
                    &[(1, 100), (2, 200)],
                    |&r| r,
                    |&(src, _), p| {
                        if src == 1 {
                            got.0 = p[0];
                        } else {
                            got.1 = p[0];
                        }
                    },
                );
                got
            } else if ctx.rank() == 1 {
                std::thread::sleep(Duration::from_millis(30));
                ctx.send(0, 100, vec![1.0f32]);
                (0.0, 0.0)
            } else {
                ctx.send(0, 200, vec![2.0f32]);
                (0.0, 0.0)
            }
        });
        assert_eq!(got[0], (1.0, 2.0));
    }

    #[test]
    fn wait_each_polls_in_request_order_or_the_plan_permutation() {
        // Every message is queued before the completion starts, so one
        // polling pass takes them all: the arrival order is the polling
        // order — request order without a plan, the plan's seeded
        // permutation with one (bounds 0, 0: no hold-back, FIFO queue).
        let n = 12u64;
        let plan = SchedulePlan::with_bounds(0x0DE5, 0, 0);
        let expected = plan.waitall_perm(0, 0, n as usize);
        assert_ne!(expected, (0..n as usize).collect::<Vec<_>>(), "pick a seed that permutes");
        for plan in [None, Some(plan)] {
            let mut c = Cluster::new(2, CommMode::Asynchronous);
            if let Some(p) = &plan {
                c = c.with_schedule(Arc::clone(p));
            }
            let orders = c.run(|ctx| {
                let mut order = Vec::new();
                if ctx.rank() == 1 {
                    for tag in 0..n {
                        ctx.send(0, tag, vec![tag as f32]);
                    }
                    ctx.barrier();
                } else {
                    ctx.barrier();
                    let reqs: Vec<_> = (0..n).map(|tag| (1, tag)).collect();
                    ctx.wait_each(
                        &reqs,
                        |&r| r,
                        |&(_, tag), p| {
                            assert_eq!(p, vec![tag as f32]);
                            order.push(tag as usize);
                        },
                    );
                }
                order
            });
            match plan {
                None => assert_eq!(orders[0], (0..n as usize).collect::<Vec<_>>()),
                Some(_) => assert_eq!(orders[0], expected),
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::AtomicUsize;
        let c = Cluster::new(5, CommMode::Asynchronous);
        let counter = AtomicUsize::new(0);
        c.run(|ctx| {
            counter.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 5);
        });
        assert_eq!(c.stats().barriers_passed(), 1);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let c = Cluster::new(2, CommMode::Asynchronous);
        c.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![0.0f32; 10]);
            } else {
                ctx.recv(0, 1);
            }
        });
        assert_eq!(c.stats().messages_sent(), 1);
        assert_eq!(c.stats().bytes_sent(), 40);
    }

    #[test]
    fn ledger_records_comm_time() {
        let c = Cluster::new(2, CommMode::Asynchronous);
        let ledgers = c.run(|ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                ctx.send(1, 5, vec![1.0f32]);
            } else {
                ctx.recv(0, 5);
            }
            ctx.ledger.clone()
        });
        // Rank 1 blocked ~20ms in recv.
        assert!(ledgers[1].seconds(Category::Comm) >= 0.015);
    }

    #[test]
    // The assertion fires on the rank thread; the harness surfaces it as a
    // "rank panicked" join failure.
    #[should_panic(expected = "rank panicked")]
    fn self_send_rejected() {
        let c = Cluster::new(1, CommMode::Asynchronous);
        c.run(|ctx| ctx.send(0, 0, vec![1.0f32]));
    }

    #[test]
    fn try_run_reports_injected_crash() {
        let plan = Arc::new(FaultPlan::new(1).with_crash(1, 5));
        let c = Cluster::new(3, CommMode::Asynchronous).with_fault_plan(plan);
        let out = c.try_run(|ctx| {
            for step in 0..20u64 {
                ctx.tick(step);
                ctx.barrier();
            }
            ctx.rank()
        });
        let err = out[1].as_ref().expect_err("rank 1 must crash");
        assert_eq!(err.rank, 1);
        assert_eq!(err.step, Some(5));
        assert_eq!(err.kind, FaultKind::Crash);
        // Peers were torn down (blocked at the barrier), not deadlocked.
        for r in [0, 2] {
            let err = out[r].as_ref().expect_err("peers must abort");
            assert_eq!(err.kind, FaultKind::Aborted);
        }
    }

    #[test]
    fn try_run_keeps_finished_ranks_ok() {
        // Rank 1 crashes after rank 0 already returned: rank 0 keeps Ok.
        let plan = Arc::new(FaultPlan::new(2).with_crash(1, 0));
        let c = Cluster::new(2, CommMode::Asynchronous).with_fault_plan(plan);
        let out = c.try_run(|ctx| {
            if ctx.rank() == 1 {
                std::thread::sleep(Duration::from_millis(30));
                ctx.tick(0);
            }
            ctx.rank() * 10
        });
        assert_eq!(out[0].as_ref().unwrap(), &0);
        assert!(out[1].is_err());
    }

    #[test]
    fn try_run_reports_genuine_panic() {
        let c = Cluster::new(2, CommMode::Asynchronous);
        let out = c.try_run(|ctx| {
            if ctx.rank() == 1 {
                panic!("numerical instability at cell 42");
            }
            ctx.recv(1, 1);
        });
        let err = out[1].as_ref().expect_err("rank 1 panicked");
        assert_eq!(err.kind, FaultKind::Panic);
        assert!(err.detail.contains("numerical instability"));
    }

    #[test]
    fn watchdog_flags_stalled_rank_as_hang() {
        let plan = Arc::new(FaultPlan::new(3).with_stall(2, 3, 30.0));
        let c = Cluster::new(3, CommMode::Asynchronous)
            .with_fault_plan(plan)
            .with_watchdog(WatchdogConfig {
                timeout: Duration::from_millis(300),
                poll: Duration::from_millis(25),
            });
        let out = c.try_run(|ctx| {
            for step in 0..10u64 {
                ctx.tick(step);
                ctx.barrier();
            }
        });
        let err = out[2].as_ref().expect_err("stalled rank must be flagged");
        assert_eq!(err.kind, FaultKind::Hang, "got {err}");
        for r in [0, 1] {
            let err = out[r].as_ref().expect_err("peers must abort");
            assert!(
                matches!(err.kind, FaultKind::Aborted | FaultKind::Hang),
                "rank {r}: {err}"
            );
        }
    }

    #[test]
    fn watchdog_names_the_wedged_rank_not_the_rank_waiting_on_it() {
        // Rank 0 stalls at step 2; rank 1 blocks on rank 0's message and
        // goes silent too. The wait-for chain names rank 0; rank 1 is torn
        // down by the poison.
        let plan = Arc::new(FaultPlan::new(9).with_stall(0, 2, 30.0));
        let c = Cluster::new(2, CommMode::Asynchronous).with_fault_plan(plan).with_watchdog(
            WatchdogConfig { timeout: Duration::from_millis(300), poll: Duration::from_millis(25) },
        );
        let out = c.try_run(|ctx| {
            let peer = 1 - ctx.rank();
            for step in 0..10u64 {
                ctx.tick(step);
                ctx.send(peer, step, vec![step as f32]);
                ctx.recv(peer, step);
            }
        });
        assert_eq!(out[0].as_ref().unwrap_err().kind, FaultKind::Hang);
        assert_eq!(out[1].as_ref().unwrap_err().kind, FaultKind::Aborted);
    }

    #[test]
    fn watchdog_spares_slow_rank_that_emits_telemetry_probes() {
        // Satellite fix: a rank buried in a long compute window that
        // still emits telemetry probes must not be killed by the
        // watchdog, even though it never beats the heartbeat — the
        // probe pulse counts as a sign of life.
        let c = Cluster::new(2, CommMode::Asynchronous).with_watchdog(WatchdogConfig {
            timeout: Duration::from_millis(300),
            poll: Duration::from_millis(25),
        });
        let out = c.try_run(|ctx| {
            if ctx.rank() == 0 {
                // ~900ms of "compute", probing every 50ms, never ticking.
                for _ in 0..18 {
                    std::thread::sleep(Duration::from_millis(50));
                    ctx.telem.count(Counter::OutputBytes, 1);
                }
            }
            ctx.rank()
        });
        assert_eq!(*out[0].as_ref().expect("instrumented slow rank must survive"), 0);
        assert_eq!(*out[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn watchdog_catches_dropped_message_hang() {
        // Drop every message: the receiver blocks forever; the watchdog
        // converts the silent hang into a structured teardown.
        let plan = Arc::new(FaultPlan::new(4).with_msg_faults(1.0, 0.0, 0.0, 0));
        let c = Cluster::new(2, CommMode::Asynchronous)
            .with_fault_plan(plan)
            .with_watchdog(WatchdogConfig {
                timeout: Duration::from_millis(250),
                poll: Duration::from_millis(25),
            });
        let out = c.try_run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1.0f32]);
            } else {
                ctx.recv(0, 7);
            }
        });
        assert!(out[1].is_err(), "receiver of a dropped message must not succeed");
        let err = out[1].as_ref().unwrap_err();
        assert!(matches!(err.kind, FaultKind::Hang | FaultKind::Aborted), "{err}");
    }

    #[test]
    fn watchdog_wakes_when_the_ranks_finish() {
        // The watchdog waits `poll` between scans; a pass whose ranks are
        // done must not wait out the rest of that poll before returning.
        let c = Cluster::new(2, CommMode::Asynchronous).with_watchdog(WatchdogConfig {
            timeout: Duration::from_secs(10),
            poll: Duration::from_secs(2),
        });
        let t0 = Instant::now();
        let out = c.try_run(|ctx| ctx.rank());
        let took = t0.elapsed();
        assert!(out.iter().all(|r| r.is_ok()));
        assert!(took < Duration::from_secs(1), "try_run took {took:?} for an empty body");
    }

    #[test]
    fn faulted_rank_dumps_its_flight_recorder() {
        // The crashed rank leaves its ring behind; the peer torn down by
        // its fault (Aborted) does not.
        let dir = std::env::temp_dir().join(format!("awp-vcluster-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = Arc::new(FaultPlan::new(8).with_crash(1, 3));
        let c = Cluster::new(2, CommMode::Asynchronous)
            .with_fault_plan(plan)
            .with_flight_recorder(&dir);
        let out = c.try_run(|ctx| {
            let peer = 1 - ctx.rank();
            for step in 0..6u64 {
                ctx.tick(step);
                ctx.send(peer, step, vec![step as f32]);
                ctx.recv(peer, step);
            }
        });
        assert_eq!(out[1].as_ref().unwrap_err().kind, FaultKind::Crash);
        assert_eq!(out[0].as_ref().unwrap_err().kind, FaultKind::Aborted);
        let dump = std::fs::read_to_string(dir.join("flightrec-1.json")).expect("rank 1 dumped");
        assert!(dump.contains("Crash: injected fail-stop crash"), "{dump}");
        assert!(!dir.join("flightrec-0.json").exists(), "an aborted peer does not dump");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rendezvous_sender_survives_peer_crash() {
        // Rank 1 crashes before matching rank 0's rendezvous send. The
        // teardown must surface a structured fault on rank 0 — previously
        // this path was `expect("receiver vanished during rendezvous")`.
        let plan = Arc::new(FaultPlan::new(5).with_crash(1, 0));
        let c = Cluster::new(2, CommMode::Synchronous).with_fault_plan(plan);
        let out = c.try_run(|ctx| {
            if ctx.rank() == 0 {
                std::thread::sleep(Duration::from_millis(20));
                ctx.send(1, 3, vec![1.0f32]);
            } else {
                ctx.tick(0); // crashes here
            }
        });
        let err = out[0].as_ref().expect_err("sender must observe the vanished peer");
        assert!(
            matches!(err.kind, FaultKind::PeerVanished | FaultKind::Aborted),
            "got {err}"
        );
        assert!(out[1].is_err());
    }

    #[test]
    fn message_dup_and_delay_keep_results_correct() {
        // Duplication and delay must be invisible to a tag-matched exchange.
        let plan = Arc::new(FaultPlan::new(6).with_msg_faults(0.0, 0.3, 0.3, 200));
        let c = Cluster::new(4, CommMode::Asynchronous).with_fault_plan(plan);
        let sums = c.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for step in 0..20u64 {
                ctx.send(next, 100 + step, vec![ctx.rank() as f32 + step as f32]);
            }
            (0..20u64).map(|s| ctx.recv(prev, 100 + s)[0]).sum::<f32>()
        });
        for (r, v) in sums.iter().enumerate() {
            let prev = (r + 3) % 4;
            let expect: f32 = (0..20).map(|s| prev as f32 + s as f32).sum();
            assert_eq!(*v, expect, "rank {r}");
        }
    }

    #[test]
    fn schedule_plan_preserves_tag_matched_results() {
        // A ring exchange with per-step tags under an aggressive schedule
        // plan must produce exactly the unperturbed results: matching is
        // fully (src, tag)-keyed, so reordering eligible delivery and
        // wait-all polling cannot change what each rank receives.
        for seed in [1u64, 0xDEAD_BEEF, 42] {
            let c = Cluster::new(4, CommMode::Asynchronous)
                .with_schedule(SchedulePlan::with_bounds(seed, 3, 4));
            let sums = c.run(|ctx| {
                let next = (ctx.rank() + 1) % ctx.size();
                let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                for step in 0..20u64 {
                    ctx.send(next, 100 + step, vec![ctx.rank() as f32 + step as f32]);
                }
                let reqs: Vec<_> = (0..20u64).map(|s| (prev, 100 + s)).collect();
                let mut sum = 0.0;
                ctx.wait_each(&reqs, |&r| r, |_, p| sum += p[0]);
                sum
            });
            for (r, v) in sums.iter().enumerate() {
                let prev = (r + 3) % 4;
                let expect: f32 = (0..20).map(|s| prev as f32 + s as f32).sum();
                assert_eq!(*v, expect, "rank {r} seed {seed}");
            }
        }
    }

    #[test]
    fn schedule_plan_works_with_rendezvous_sends() {
        // Deferred matching must still fire the rendezvous ack — a held
        // back message delays the sender by a few probe naps, never
        // deadlocks it.
        let c = Cluster::new(2, CommMode::Synchronous)
            .with_schedule(SchedulePlan::with_bounds(0xA5, 3, 2));
        let out = c.run(|ctx| {
            if ctx.rank() == 0 {
                for step in 0..8u64 {
                    ctx.send(1, step, vec![step as f32]);
                }
                0.0
            } else {
                (0..8u64).map(|s| ctx.recv(0, s)[0]).sum::<f32>()
            }
        });
        assert_eq!(out[1], (0..8).sum::<u64>() as f32);
    }

    #[test]
    fn cluster_is_reusable_after_fault() {
        // A poisoned cluster must support a fresh pass (restart semantics).
        let plan = Arc::new(FaultPlan::new(7).with_crash(0, 2));
        let c = Cluster::new(2, CommMode::Asynchronous).with_fault_plan(plan);
        let first = c.try_run(|ctx| {
            for step in 0..5u64 {
                ctx.tick(step);
                ctx.barrier();
            }
            ctx.rank()
        });
        assert!(first[0].is_err());
        // Second pass: the crash is one-shot, so the same body succeeds.
        let second = c.try_run(|ctx| {
            for step in 0..5u64 {
                ctx.tick(step);
                ctx.barrier();
            }
            ctx.rank()
        });
        assert_eq!(second[0].as_ref().unwrap(), &0);
        assert_eq!(second[1].as_ref().unwrap(), &1);
    }

    #[test]
    fn telemetry_aggregates_across_eight_ranks() {
        use awp_telemetry::{Counter, HistKind, Phase, Registry};
        let n = 8;
        let reg = Registry::with_capacity(n, 256);
        let c = Cluster::new(n, CommMode::Asynchronous).with_telemetry(Arc::clone(&reg));
        c.run(|ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for step in 0..4u64 {
                ctx.tick(step);
                ctx.telem.time(Phase::VelocityInterior, || {
                    std::hint::black_box((0..500).map(|i| i as f64).sum::<f64>())
                });
                ctx.send(next, 42, vec![step as f32; 8]);
                let _ = ctx.recv(prev, 42);
                ctx.barrier();
            }
        });
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), n, "every rank submitted a snapshot");
        for (r, s) in snaps.iter().enumerate() {
            assert_eq!(s.rank, r);
            assert_eq!(s.counter(Counter::MsgsSent), 4);
            assert_eq!(s.counter(Counter::BytesSent), 4 * 8 * 4);
            assert_eq!(s.counter(Counter::MsgsRecv), 4);
            assert_eq!(s.phase_count(Phase::VelocityInterior), 4);
            assert_eq!(s.phase_count(Phase::Barrier), 4);
            assert_eq!(s.hist(HistKind::Send).count(), 4);
            assert_eq!(s.hist(HistKind::Recv).count(), 4);
            assert_eq!(s.hist(HistKind::Barrier).count(), 4);
            assert!(s.spans.iter().any(|sp| sp.step == 3), "spans carry step tags");
        }
        let rep = reg.report();
        assert_eq!(rep.ranks, n);
        assert_eq!(rep.counter(Counter::MsgsSent), 4 * n as u64);
        assert_eq!(rep.counter(Counter::BytesSent), (4 * 8 * 4 * n) as u64);
        assert_eq!(rep.phase(Phase::VelocityInterior).count, 4 * n as u64);
        assert!(rep.load_imbalance >= 1.0, "imbalance is max/mean >= 1");
        assert!(rep.phase(Phase::VelocityInterior).max_s >= rep.phase(Phase::VelocityInterior).min_s);
        assert_eq!(rep.hist(HistKind::Barrier).count(), 4 * n as u64);
        // Trace export carries one virtual pid per rank.
        let trace = reg.chrome_trace();
        for r in 0..n {
            assert!(trace.contains(&format!("\"args\":{{\"name\":\"rank {r}\"}}")));
        }
    }

    #[test]
    fn telemetry_snapshot_survives_rank_crash() {
        use awp_telemetry::{Phase, Registry};
        let reg = Registry::with_capacity(2, 64);
        let plan = FaultPlan::new(7).with_crash(0, 2);
        let c = Cluster::new(2, CommMode::Asynchronous)
            .with_telemetry(Arc::clone(&reg))
            .with_fault_plan(Arc::new(plan));
        let results = c.try_run(|ctx| {
            for step in 0..5u64 {
                ctx.tick(step);
                ctx.telem.time(Phase::StressInterior, || std::hint::black_box(1 + 1));
            }
        });
        assert!(results[0].is_err());
        let snaps = reg.snapshots();
        assert_eq!(snaps.len(), 2, "crashed rank still submitted its partial timeline");
        let crashed = snaps.iter().find(|s| s.rank == 0).unwrap();
        assert_eq!(crashed.phase_count(Phase::StressInterior), 2, "steps 0..2 ran before the crash");
        assert_eq!(crashed.counter(awp_telemetry::Counter::FaultEvents), 1);
    }

    #[test]
    fn telemetry_disabled_by_default() {
        let c = Cluster::new(2, CommMode::Asynchronous);
        let enabled = c.run(|ctx| {
            ctx.send((ctx.rank() + 1) % 2, 5, vec![1.0f32]);
            let _ = ctx.recv((ctx.rank() + 1) % 2, 5);
            ctx.telem.is_enabled()
        });
        assert_eq!(enabled, vec![false, false]);
    }
}
