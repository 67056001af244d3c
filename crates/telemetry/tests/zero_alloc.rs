//! Disabled-mode flatness: with telemetry off, every probe must be a branch
//! with zero heap traffic. Same ledger idea as the halo-arena allocation
//! test, but enforced globally with a counting allocator so nothing on the
//! probe path can hide an allocation.
//!
//! libtest runs these tests on parallel threads of one process, so the
//! count is per thread: each test sees only what its own thread allocated.

use awp_telemetry::{Counter, HistKind, LiveStats, Phase, Recorder, Registry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::time::Duration;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor outlives thread teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap acquisitions made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn disabled_probes_never_allocate() {
    let mut r = Recorder::disabled();
    let before = allocs();
    for step in 0..10_000u64 {
        r.set_step(step);
        let t0 = r.start();
        r.finish(t0, Phase::VelocityInterior);
        r.count(Counter::BytesSent, 4096);
        r.observe(HistKind::Send, Duration::from_nanos(250));
        let _ = r.time(Phase::Wait, || step + 1);
    }
    assert_eq!(allocs() - before, 0, "disabled-mode probes must not allocate");
}

#[test]
fn disarmed_causal_tracing_never_allocates() {
    // Lamport stamping and the causal probes ride the message hot path on
    // every send/recv; with tracing disarmed (no registry, no flight
    // recorder) they must be pure integer math — no ring pushes, no clock
    // reads, no heap.
    use awp_telemetry::CausalKind;
    let mut sender = Recorder::disabled();
    let mut receiver = Recorder::disabled();
    let before = allocs();
    for i in 0..10_000u64 {
        let c = sender.clock_send();
        sender.causal_send(1, i, 4096, c);
        let m = receiver.clock_recv(c);
        receiver.causal_recv(0, i, 4096, c, m);
        receiver.causal_mark(CausalKind::ClusterTick, 0, 0, 1);
    }
    assert_eq!(allocs() - before, 0, "disarmed causal probes must not allocate");
    assert!(sender.clock() > 0 && receiver.clock() > sender.clock());
    let s = receiver.snapshot();
    assert!(s.causal.is_empty());
    assert_eq!(s.dropped_causal, 0);
}

#[test]
fn enabled_causal_tracing_stays_in_the_ring() {
    let reg = Registry::with_capacity(2, 64);
    let mut sender = reg.recorder(0);
    let mut receiver = reg.recorder(1);
    // Warm both rings past the wrap point, then assert flatness.
    for i in 0..200u64 {
        let c = sender.clock_send();
        sender.causal_send(1, i, 64, c);
        let m = receiver.clock_recv(c);
        receiver.causal_recv(0, i, 64, c, m);
    }
    let before = allocs();
    for i in 0..10_000u64 {
        let c = sender.clock_send();
        sender.causal_send(1, i, 64, c);
        let m = receiver.clock_recv(c);
        receiver.causal_recv(0, i, 64, c, m);
    }
    assert_eq!(allocs() - before, 0, "wrapped causal ring must overwrite in place");
    let s = receiver.snapshot();
    assert_eq!(s.causal.len(), 128, "ring holds 2x span capacity");
    assert!(s.dropped_causal > 0);
}

#[test]
fn disabled_recorder_construction_is_allocation_free() {
    let before = allocs();
    let r = Recorder::disabled();
    assert!(!r.is_enabled());
    assert_eq!(allocs() - before, 0, "Recorder::disabled() must not allocate");
}

#[test]
fn enabled_steady_state_stays_in_the_ring() {
    // Registration preallocates; after that, recording must be flat even
    // once the ring wraps (records are overwritten in place).
    let reg = Registry::with_capacity(1, 256);
    let mut r = reg.recorder(0);
    let before = allocs();
    for step in 0..10_000u64 {
        r.set_step(step);
        let t0 = r.start();
        r.finish(t0, Phase::Send);
        r.count(Counter::MsgsSent, 1);
        r.observe(HistKind::Send, Duration::from_nanos(100));
    }
    assert_eq!(allocs() - before, 0, "steady-state recording must not allocate");
    let s = r.snapshot();
    assert_eq!(s.phase_count(Phase::Send), 10_000);
    assert_eq!(s.spans.len(), 256);
}

#[test]
fn live_stats_publishing_is_allocation_free() {
    // The streaming-stats cells are plain atomics: wiring them must keep
    // both the disabled fast path and enabled steady-state recording flat.
    let live = LiveStats::new(2);

    let mut off = Recorder::disabled();
    off.set_live(std::sync::Arc::clone(live.rank(0)));
    let before = allocs();
    for step in 0..10_000u64 {
        off.set_step(step);
        let t0 = off.start();
        off.finish(t0, Phase::StressInterior);
        off.count(Counter::Recoveries, 1);
    }
    assert_eq!(allocs() - before, 0, "disabled probes with live cells must not allocate");

    let reg = Registry::with_capacity(1, 64);
    let mut on = reg.recorder(0);
    on.set_live(std::sync::Arc::clone(live.rank(1)));
    let before = allocs();
    for step in 0..10_000u64 {
        on.set_step(step);
        let t0 = on.start();
        on.finish(t0, Phase::VelocityInterior);
        on.observe(HistKind::Recv, Duration::from_nanos(100));
    }
    assert_eq!(allocs() - before, 0, "live publishing must stay in the atomic cells");
    assert_eq!(live.rank(1).step.load(Ordering::Relaxed), 9_999);
    assert!(live.rank(1).compute_ns.load(Ordering::Relaxed) > 0);
}
