//! What the M-PML step costs its telemetry: one nested `Boundary` span per
//! window phase however many k-planes the phase interleaves
//! (`Pass::corrected`), and no heap traffic in steady state, armed or not.
//!
//! Allocations are counted per thread by this test binary's global
//! allocator, so tests running beside each other do not disturb the count.

use super::*;
use crate::simd::detect;
use awp_cvm::mesh::MeshGenerator;
use awp_cvm::model::LayeredModel;
use awp_grid::dims::{Dims3, Idx3};
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use awp_telemetry::Registry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: forwards every call to `System` unchanged.
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

/// LOH.1 under a 4-cell M-PML with attenuation, no free surface (its
/// imaging spans are `Boundary` spans too) and no stations (their
/// seismograms grow).
fn mpml_solver(walk: Loops) -> Solver {
    let (d, dt) = (Dims3::new(24, 22, 16), 0.0105);
    let mesh = MeshGenerator::new(&LayeredModel::loh1(), d, 150.0).generate();
    let tensor = MomentTensor::strike_slip(0.3);
    let source =
        KinematicSource::point(Idx3::new(3, 11, 6), tensor, 5.0e16, Stf::Brune { tau: 0.1 }, dt);
    let mut cfg = SolverConfig::small(d, 150.0, dt, 0);
    cfg.abc = AbcKind::Mpml { width: 4, pmax: 0.3 };
    cfg.attenuation = true;
    cfg.free_surface = false;
    let sub = Decomp3::new(d, [1, 1, 1]).subdomain(0);
    let mut solver = Solver::new(cfg, sub, &mesh, &source, &[]);
    solver.kernels.loops = walk;
    solver
}

/// `step_serial` with `tel` in place of its disarmed recorder.
fn profiled_step(solver: &mut Solver, ledger: &mut TimeLedger, tel: &mut Recorder) {
    let _ftz = FlushGuard::enter();
    solver.step(Comm::Serial { ledger, tel });
}

#[test]
fn a_profiled_mpml_step_records_one_boundary_span_per_window_phase() {
    let steps = 6;
    for walk in [Loops::Lanes(detect()), Loops::Reference] {
        let mut solver = mpml_solver(walk);
        let reg = Registry::with_capacity(1, 1024);
        let mut tel = reg.recorder(0);
        let mut ledger = TimeLedger::new();
        for _ in 0..steps {
            profiled_step(&mut solver, &mut ledger, &mut tel);
        }
        let snap = tel.snapshot();
        let window = |s: &awp_telemetry::SpanRec| {
            matches!(s.phase, TelPhase::VelocityInterior | TelPhase::StressInterior)
        };
        let phases = snap.phase_count(TelPhase::VelocityInterior)
            + snap.phase_count(TelPhase::StressInterior);
        assert_eq!(phases, 2 * steps, "{walk:?}");
        assert_eq!(snap.phase_count(TelPhase::Boundary), phases, "{walk:?}");
        let (boundary, windows) = (
            snap.phase_ns(TelPhase::Boundary),
            snap.phase_ns(TelPhase::VelocityInterior) + snap.phase_ns(TelPhase::StressInterior),
        );
        assert!(boundary > 0 && boundary <= windows, "{walk:?}: {boundary} of {windows} ns");
        for b in snap.spans.iter().filter(|s| s.phase == TelPhase::Boundary) {
            let end = b.start_ns + b.dur_ns;
            assert!(
                snap.spans
                    .iter()
                    .any(|w| window(w) && w.start_ns <= b.start_ns && end <= w.start_ns + w.dur_ns),
                "{walk:?}: Boundary span {b:?} outside every window phase"
            );
        }
    }
}

#[test]
fn a_steady_state_mpml_step_allocates_nothing() {
    let reg = Registry::with_capacity(1, 64);
    for mut tel in [Recorder::disabled(), reg.recorder(0)] {
        let armed = tel.is_enabled();
        let mut solver = mpml_solver(Loops::Lanes(detect()));
        let mut ledger = TimeLedger::new();
        // Past the span ring's wrap when armed.
        for _ in 0..20 {
            profiled_step(&mut solver, &mut ledger, &mut tel);
        }
        let before = allocs();
        for _ in 0..10 {
            profiled_step(&mut solver, &mut ledger, &mut tel);
        }
        assert_eq!(allocs() - before, 0, "telemetry armed: {armed}");
        if armed {
            assert!(tel.snapshot().dropped_spans > 0, "the ring must have wrapped");
        }
    }
}
