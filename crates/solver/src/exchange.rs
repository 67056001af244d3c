//! Ghost-cell halo exchange over the virtual cluster (paper §III.A, §IV.A,
//! §IV.C).
//!
//! Every rank shares its freshly updated wavefield layers with its six
//! neighbours. Two plans are available:
//!
//! * **full** — every component, every axis, two layers each way (the
//!   original blanket exchange);
//! * **reduced** — the §IV.A optimisation: each component travels only
//!   along the axes where the neighbouring stencils actually read it, with
//!   the minimal asymmetric widths. For σxx this cuts the message volume by
//!   75 % ("we only need to update xx in the x direction … by sending two
//!   plane faces of xx information to [one] neighbor and one plane to the
//!   [other]").
//!
//! Widths are *receiver-centric*: `(recv_lo, recv_hi)` layers land in this
//! rank's low/high halo; the matching sends are derived symmetrically.
//!
//! The data path is zero-copy: outgoing slabs are extracted into buffers
//! pooled in a [`HaloArena`] and *moved* into the mailbox (`Payload::F32`
//! carries the allocation); the receiver injects straight from the arrived
//! vector and pools it for its own next send. Steady-state stepping
//! performs no per-message heap allocation — the arena's debug ledger
//! asserts this.

use crate::arena::HaloArena;
use crate::state::WaveState;
use awp_grid::decomp::Subdomain;
use awp_grid::face::{extract_face_k, face_len_k, inject_halo_k, Axis, Face};
use awp_grid::stagger::Component;
use awp_telemetry::Phase as TelPhase;
use awp_vcluster::cluster::{CommMode, RankCtx};
use awp_vcluster::message::{make_tag, Tag};
use std::time::Duration;

/// One component-axis exchange rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldPlan {
    pub comp: Component,
    pub axis: Axis,
    /// Layers received into the low-side halo.
    pub recv_lo: usize,
    /// Layers received into the high-side halo.
    pub recv_hi: usize,
}

/// Exchange phase id (tag component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Velocity = 1,
    Stress = 2,
}

/// Blanket plan: both halves of the two-cell padding in every direction.
pub fn full_plan(comps: &[Component]) -> Vec<FieldPlan> {
    let mut out = Vec::with_capacity(comps.len() * 3);
    for &comp in comps {
        for axis in Axis::ALL {
            out.push(FieldPlan { comp, axis, recv_lo: 2, recv_hi: 2 });
        }
    }
    out
}

/// Reduced velocity plan — derived from the stress-update stencils.
pub fn reduced_velocity_plan() -> Vec<FieldPlan> {
    use Component::*;
    vec![
        FieldPlan { comp: Vx, axis: Axis::X, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Vx, axis: Axis::Y, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Vx, axis: Axis::Z, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Vy, axis: Axis::X, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Vy, axis: Axis::Y, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Vy, axis: Axis::Z, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Vz, axis: Axis::X, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Vz, axis: Axis::Y, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Vz, axis: Axis::Z, recv_lo: 2, recv_hi: 1 },
    ]
}

/// Reduced stress plan — the normal components travel along a single axis.
pub fn reduced_stress_plan() -> Vec<FieldPlan> {
    use Component::*;
    vec![
        FieldPlan { comp: Sxx, axis: Axis::X, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Syy, axis: Axis::Y, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Szz, axis: Axis::Z, recv_lo: 1, recv_hi: 2 },
        FieldPlan { comp: Sxy, axis: Axis::X, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Sxy, axis: Axis::Y, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Sxz, axis: Axis::X, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Sxz, axis: Axis::Z, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Syz, axis: Axis::Y, recv_lo: 2, recv_hi: 1 },
        FieldPlan { comp: Syz, axis: Axis::Z, recv_lo: 2, recv_hi: 1 },
    ]
}

/// f32 volume of one plan for a subdomain (both directions) — used by the
/// communication-reduction bench.
pub fn plan_volume(plan: &[FieldPlan], dims: awp_grid::dims::Dims3) -> usize {
    plan.iter()
        .map(|p| {
            let tangential = match p.axis {
                Axis::X => dims.ny * dims.nz,
                Axis::Y => dims.nx * dims.nz,
                Axis::Z => dims.nx * dims.ny,
            };
            (p.recv_lo + p.recv_hi) * tangential
        })
        .sum()
}

fn faces_of(axis: Axis) -> (Face, Face) {
    match axis {
        Axis::X => (Face::XLo, Face::XHi),
        Axis::Y => (Face::YLo, Face::YHi),
        Axis::Z => (Face::ZLo, Face::ZHi),
    }
}

/// One outstanding receive of a started exchange: where the message comes
/// from and where its slab goes. A cluster phase keeps them in one list
/// borrowed from the [`HaloArena`] (`take_reqs`): every
/// [`start_exchange_k`] of the phase appends to it and [`finish_exchange`]
/// drains and returns it, so completion needs no scratch vector
/// (MPI_Waitall used to force a second request array here).
#[derive(Debug, Clone, Copy)]
pub struct PendingRecv {
    src: usize,
    tag: Tag,
    comp: Component,
    face: Face,
    width: usize,
    /// k-plane window `[k0, k1)` the slab covers (the full extent for the
    /// global-dt path; a dt-cluster's slice under local time stepping).
    k0: usize,
    k1: usize,
    done: bool,
}

/// Low bits of the tag's step field that carry the slab index.
const SLAB_BITS: u32 = 2;
const _: () = assert!(crate::shell::MAX_SLABS <= 1 << SLAB_BITS && crate::lts::MAX_CLUSTERS <= 16);

/// The step field of a halo message's tag: base tick, dt-cluster and slab
/// of the overlap pipeline, so every cluster-phase slab exchanges in its
/// own tag space.
pub fn tag_step(tick: u64, cluster: usize, slab: usize) -> u64 {
    debug_assert!(cluster < crate::lts::MAX_CLUSTERS && slab < crate::shell::MAX_SLABS);
    (((tick << 4) | cluster as u64) << SLAB_BITS) | slab as u64
}

/// Post receives and eager sends for a plan (asynchronous engine only),
/// restricted to the k-planes `[kr.0, kr.1)`: only that slice of each X/Y
/// face travels. A Z face ships whole, once per phase — its low face with
/// the slice that starts at k = 0, its high face with the one that ends at
/// nz, under slab index 0 (the two sides of a z link reach it in different
/// slabs). Outgoing slabs are staged in arena buffers and moved into the
/// mailbox; the receives join `reqs`. The stepper calls this once per
/// slab of a firing dt-cluster with a [`tag_step`] `step`.
#[allow(clippy::too_many_arguments)]
pub fn start_exchange_k(
    state: &WaveState,
    sub: &Subdomain,
    ctx: &mut RankCtx,
    plan: &[FieldPlan],
    phase: Phase,
    step: u64,
    arena: &mut HaloArena,
    kr: (usize, usize),
    reqs: &mut Vec<PendingRecv>,
) {
    // Guarded at solver construction (`SolverConfig::validate`): a bad
    // engine/overlap combination is a ConfigError before any rank thread
    // spawns, so this cannot fire on a validated configuration.
    debug_assert_eq!(
        ctx.mode(),
        CommMode::Asynchronous,
        "overlapped exchange needs the async engine"
    );
    let t_send = ctx.telem.start();
    let nz = state.dims.nz;
    for p in plan {
        let (f_lo, f_hi) = faces_of(p.axis);
        let z = p.axis == Axis::Z;
        let step = if z { step & !((1 << SLAB_BITS) - 1) } else { step };
        // The neighbour across `f`, if that face travels with this slice.
        let link = |f: Face| {
            let here = !z || if f.is_low() { kr.0 == 0 } else { kr.1 == nz };
            sub.neighbor(f).filter(|_| here)
        };
        // Post receives first.
        for (f, width) in [(f_lo, p.recv_lo), (f_hi, p.recv_hi)] {
            if let Some(src) = link(f).filter(|_| width > 0) {
                let tag = make_tag(phase as u8, p.comp.id() as u8, f.id() as u8, step);
                reqs.push(PendingRecv {
                    src,
                    tag,
                    comp: p.comp,
                    face: f,
                    width,
                    k0: kr.0,
                    k1: kr.1,
                    done: false,
                });
            }
        }
        // Our low-side layers land in the low neighbour's *high* halo, so
        // the width is the receiver's recv_hi and the tag carries its f_hi
        // face id (the irecv it posted); symmetrically for the high side.
        for (f, width) in [(f_lo, p.recv_hi), (f_hi, p.recv_lo)] {
            if let Some(nb) = link(f).filter(|_| width > 0) {
                let field = state.field(p.comp);
                let mut buf = arena.take_buf(face_len_k(field, f, width, kr.0, kr.1));
                extract_face_k(field, f, width, kr.0, kr.1, &mut buf);
                let tag = make_tag(phase as u8, p.comp.id() as u8, f.opposite().id() as u8, step);
                ctx.send(nb, tag, buf);
            }
        }
    }
    ctx.telem.finish(t_send, TelPhase::Send);
}

/// Complete a started exchange: drain every posted receive (MPI_Waitall)
/// and inject the halos. Ready messages are absorbed in arrival order via
/// `try_recv`; when nothing is ready the first outstanding request blocks.
/// Received slabs are pooled in the arena after injection — the completion
/// loop allocates nothing.
pub fn finish_exchange(
    state: &mut WaveState,
    ctx: &mut RankCtx,
    mut reqs: Vec<PendingRecv>,
    arena: &mut HaloArena,
) {
    let t_all = ctx.telem.start();
    let mut inject_ns = 0u64;
    let mut remaining = reqs.len();
    while remaining > 0 {
        let mut progressed = false;
        for r in reqs.iter_mut() {
            if r.done {
                continue;
            }
            if let Some(payload) = ctx.try_recv(r.src, r.tag) {
                let data = payload.into_f32();
                let t = ctx.telem.start();
                inject_halo_k(state.field_mut(r.comp), r.face, r.width, r.k0, r.k1, &data);
                if let Some(t) = t {
                    inject_ns += t.elapsed().as_nanos() as u64;
                }
                arena.put_buf(data);
                r.done = true;
                remaining -= 1;
                progressed = true;
            }
        }
        if !progressed {
            // Nothing arrived: donate the wait to a lagging peer — execute
            // one stolen tile from the work-stealing scheduler (if one is
            // attached) before falling back to a blocking receive. Stolen
            // tiles write disjoint cells of the *victim's* grid, so they
            // cannot perturb this rank's halos.
            if ctx.try_steal() {
                continue;
            }
            if let Some(r) = reqs.iter_mut().find(|r| !r.done) {
                let data = ctx.recv(r.src, r.tag).into_f32();
                let t = ctx.telem.start();
                inject_halo_k(state.field_mut(r.comp), r.face, r.width, r.k0, r.k1, &data);
                if let Some(t) = t {
                    inject_ns += t.elapsed().as_nanos() as u64;
                }
                arena.put_buf(data);
                r.done = true;
                remaining -= 1;
            }
        }
    }
    arena.put_reqs(reqs);
    // Split the completion interval into its two meanings: time blocked on
    // neighbours (wait, the overlap-sensitive term the slab pipeline
    // exists to shrink) and time spent copying arrived slabs into ghosts
    // (inject, presented as one span following the wait).
    if let Some(t0) = t_all {
        let inject = Duration::from_nanos(inject_ns);
        let wait = t0.elapsed().saturating_sub(inject);
        ctx.telem.span_at(TelPhase::Wait, t0, wait);
        ctx.telem.span_at(TelPhase::Inject, t0 + wait, inject);
    }
}

/// Full exchange of a plan, dispatching on the engine:
///
/// * asynchronous — `start_exchange_k` + `finish_exchange`;
/// * synchronous — the legacy ordered rendezvous: per axis, even-coordinate
///   ranks send first (the cascading pattern whose accumulated latency the
///   paper eliminates).
pub fn exchange(
    state: &mut WaveState,
    sub: &Subdomain,
    ctx: &mut RankCtx,
    plan: &[FieldPlan],
    phase: Phase,
    step: u64,
    arena: &mut HaloArena,
) {
    let kr = (0, state.dims.nz);
    exchange_k(state, sub, ctx, plan, phase, step, arena, kr);
}

/// [`exchange`] restricted to the k-planes `[kr.0, kr.1)` (see
/// [`start_exchange_k`]); dispatches on the engine like [`exchange`].
#[allow(clippy::too_many_arguments)]
pub fn exchange_k(
    state: &mut WaveState,
    sub: &Subdomain,
    ctx: &mut RankCtx,
    plan: &[FieldPlan],
    phase: Phase,
    step: u64,
    arena: &mut HaloArena,
    kr: (usize, usize),
) {
    match ctx.mode() {
        CommMode::Asynchronous => {
            let mut reqs = arena.take_reqs();
            start_exchange_k(state, sub, ctx, plan, phase, step, arena, kr, &mut reqs);
            finish_exchange(state, ctx, reqs, arena);
        }
        CommMode::Synchronous => {
            // The rendezvous path interleaves sends and receives; the whole
            // ordered exchange is one blocking wait from the solver's view.
            let t0 = ctx.telem.start();
            exchange_sync(state, sub, ctx, plan, phase, step, arena, kr);
            ctx.telem.finish(t0, TelPhase::Wait);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exchange_sync(
    state: &mut WaveState,
    sub: &Subdomain,
    ctx: &mut RankCtx,
    plan: &[FieldPlan],
    phase: Phase,
    step: u64,
    arena: &mut HaloArena,
    kr: (usize, usize),
) {
    for p in plan {
        let (f_lo, f_hi) = faces_of(p.axis);
        let even = sub.coords[p.axis.index()] % 2 == 0;
        // Two half-phases per direction keep rendezvous sends deadlock-free.
        // Direction 1: data flows low → high (fills low halos).
        let send_hi = |state: &WaveState, ctx: &mut RankCtx, arena: &mut HaloArena| {
            if let Some(nb) = sub.neighbor(f_hi) {
                if p.recv_lo > 0 {
                    let field = state.field(p.comp);
                    let mut buf = arena.take_buf(face_len_k(field, f_hi, p.recv_lo, kr.0, kr.1));
                    extract_face_k(field, f_hi, p.recv_lo, kr.0, kr.1, &mut buf);
                    let tag = make_tag(phase as u8, p.comp.id() as u8, f_lo.id() as u8, step);
                    ctx.send(nb, tag, buf);
                }
            }
        };
        let recv_lo = |state: &mut WaveState, ctx: &mut RankCtx, arena: &mut HaloArena| {
            if let Some(nb) = sub.neighbor(f_lo) {
                if p.recv_lo > 0 {
                    let tag = make_tag(phase as u8, p.comp.id() as u8, f_lo.id() as u8, step);
                    let data = ctx.recv(nb, tag).into_f32();
                    inject_halo_k(state.field_mut(p.comp), f_lo, p.recv_lo, kr.0, kr.1, &data);
                    arena.put_buf(data);
                }
            }
        };
        if even {
            send_hi(state, ctx, arena);
            recv_lo(state, ctx, arena);
        } else {
            recv_lo(state, ctx, arena);
            send_hi(state, ctx, arena);
        }
        // Direction 2: high → low (fills high halos).
        let send_lo = |state: &WaveState, ctx: &mut RankCtx, arena: &mut HaloArena| {
            if let Some(nb) = sub.neighbor(f_lo) {
                if p.recv_hi > 0 {
                    let field = state.field(p.comp);
                    let mut buf = arena.take_buf(face_len_k(field, f_lo, p.recv_hi, kr.0, kr.1));
                    extract_face_k(field, f_lo, p.recv_hi, kr.0, kr.1, &mut buf);
                    let tag = make_tag(phase as u8, p.comp.id() as u8, f_hi.id() as u8, step);
                    ctx.send(nb, tag, buf);
                }
            }
        };
        let recv_hi = |state: &mut WaveState, ctx: &mut RankCtx, arena: &mut HaloArena| {
            if let Some(nb) = sub.neighbor(f_hi) {
                if p.recv_hi > 0 {
                    let tag = make_tag(phase as u8, p.comp.id() as u8, f_hi.id() as u8, step);
                    let data = ctx.recv(nb, tag).into_f32();
                    inject_halo_k(state.field_mut(p.comp), f_hi, p.recv_hi, kr.0, kr.1, &data);
                    arena.put_buf(data);
                }
            }
        };
        if even {
            send_lo(state, ctx, arena);
            recv_hi(state, ctx, arena);
        } else {
            recv_hi(state, ctx, arena);
            send_lo(state, ctx, arena);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awp_grid::decomp::Decomp3;
    use awp_grid::dims::Dims3;
    use awp_vcluster::Cluster;

    #[test]
    fn reduced_plans_cover_all_components() {
        let v = reduced_velocity_plan();
        let s = reduced_stress_plan();
        for c in Component::VELOCITIES {
            assert!(v.iter().any(|p| p.comp == c));
        }
        for c in Component::STRESSES {
            assert!(s.iter().any(|p| p.comp == c));
        }
        // Widths never exceed the halo.
        for p in v.iter().chain(&s) {
            assert!(p.recv_lo <= 2 && p.recv_hi <= 2);
            assert!(p.recv_lo + p.recv_hi == 3, "reduced widths are 1+2 or 2+1");
        }
    }

    #[test]
    fn reduced_volume_is_well_below_full() {
        let d = Dims3::new(32, 32, 32);
        let vol_full = plan_volume(&full_plan(&Component::ALL), d);
        let vol_red = plan_volume(&reduced_velocity_plan(), d)
            + plan_volume(&reduced_stress_plan(), d);
        // Full: 9 comps × 3 axes × 4 layers = 108 plane-units; reduced:
        // 18 entries × 3 layers = 54 → exactly half the volume overall.
        assert!(
            2 * vol_red <= vol_full,
            "reduced {vol_red} vs full {vol_full}"
        );
        // σxx specifically: 3 planes vs 12 → 75 % reduction, the paper's
        // headline number.
        let full_xx = plan_volume(
            &full_plan(&[Component::Sxx]),
            d,
        );
        let red_xx: usize = plan_volume(
            &reduced_stress_plan()
                .into_iter()
                .filter(|p| p.comp == Component::Sxx)
                .collect::<Vec<_>>(),
            d,
        );
        assert_eq!(red_xx * 4, full_xx, "xx message volume reduced by exactly 75%");
    }

    /// Exchange across a 2-rank split reproduces the neighbour's interior
    /// layers, for both engines and both plans.
    #[test]
    fn exchange_fills_halos_correctly() {
        let global = Dims3::new(8, 4, 4);
        let decomp = Decomp3::new(global, [2, 1, 1]);
        for mode in [CommMode::Asynchronous, CommMode::Synchronous] {
            for reduced in [false, true] {
                let cluster = Cluster::new(2, mode);
                let checks: Vec<bool> = cluster.run(|ctx| {
                    let sub = decomp.subdomain(ctx.rank());
                    let mut st = WaveState::new(sub.dims, false);
                    let mut arena = HaloArena::new();
                    // Value encodes (global i, rank-independent).
                    for c in Component::ALL {
                        let f = st.field_mut(c);
                        for k in 0..4 {
                            for j in 0..4 {
                                for i in 0..4 {
                                    let gi = sub.origin.i + i;
                                    f.set(
                                        i as isize,
                                        j as isize,
                                        k as isize,
                                        (gi * 100 + c.id()) as f32,
                                    );
                                }
                            }
                        }
                    }
                    let plan = if reduced {
                        let mut p = reduced_velocity_plan();
                        p.extend(reduced_stress_plan());
                        p
                    } else {
                        full_plan(&Component::ALL)
                    };
                    exchange(&mut st, &sub, ctx, &plan, Phase::Velocity, 0, &mut arena);
                    // Verify: rank 0's high halo along x holds global i = 4
                    // (width ≥ 1 in every plan for the receiving side).
                    let mut ok = true;
                    for p in &plan {
                        if p.axis != Axis::X {
                            continue;
                        }
                        let f = st.field(p.comp);
                        if ctx.rank() == 0 && p.recv_hi >= 1 {
                            ok &= f.get(4, 1, 1) == (400 + p.comp.id()) as f32;
                        }
                        if ctx.rank() == 1 && p.recv_lo >= 1 {
                            ok &= f.get(-1, 1, 1) == (300 + p.comp.id()) as f32;
                        }
                    }
                    ok
                });
                assert!(checks.iter().all(|&c| c), "mode {mode:?} reduced {reduced}");
            }
        }
    }

    /// Overlap-style start/finish across 4 ranks in a row.
    #[test]
    fn start_finish_exchange_works_split() {
        let global = Dims3::new(8, 8, 4);
        let decomp = Decomp3::new(global, [2, 2, 1]);
        let cluster = Cluster::new(4, CommMode::Asynchronous);
        let maxdiff: Vec<f32> = cluster.run(|ctx| {
            let sub = decomp.subdomain(ctx.rank());
            let mut st = WaveState::new(sub.dims, false);
            let mut arena = HaloArena::new();
            st.vx.map_interior(|idx, _| {
                let g = sub.local_to_global(idx);
                (g.i + 10 * g.j) as f32
            });
            let plan: Vec<FieldPlan> = reduced_velocity_plan()
                .into_iter()
                .filter(|p| p.comp == Component::Vx)
                .collect();
            // Two slabs, as the pipeline posts them, drained by one finish.
            let mut reqs = arena.take_reqs();
            for (s, kr) in [(0, 2), (2, st.dims.nz)].into_iter().enumerate() {
                let step = tag_step(7, 0, s);
                start_exchange_k(
                    &st, &sub, ctx, &plan, Phase::Velocity, step, &mut arena, kr, &mut reqs,
                );
            }
            finish_exchange(&mut st, ctx, reqs, &mut arena);
            // Check one halo value against the global function.
            let mut err: f32 = 0.0;
            if sub.neighbor(Face::XHi).is_some() {
                let g = sub.local_to_global(awp_grid::dims::Idx3::new(sub.dims.nx - 1, 0, 0));
                let want = (g.i + 1 + 10 * g.j) as f32;
                err = err.max((st.vx.get(sub.dims.nx as isize, 0, 0) - want).abs());
            }
            if sub.neighbor(Face::YHi).is_some() {
                let g = sub.local_to_global(awp_grid::dims::Idx3::new(0, sub.dims.ny - 1, 0));
                let want = (g.i + 10 * (g.j + 1)) as f32;
                err = err.max((st.vx.get(0, sub.dims.ny as isize, 0) - want).abs());
            }
            err
        });
        assert!(maxdiff.iter().all(|&e| e == 0.0), "{maxdiff:?}");
    }

    /// The tentpole's zero-allocation guarantee: after a warmup step has
    /// sized every pooled buffer, further steady-state exchanges must not
    /// touch the heap (the arena ledger stays flat).
    #[test]
    fn steady_state_exchange_is_allocation_free() {
        let global = Dims3::new(8, 8, 8);
        let decomp = Decomp3::new(global, [2, 2, 2]);
        let cluster = Cluster::new(8, CommMode::Asynchronous);
        let flats: Vec<bool> = cluster.run(|ctx| {
            let sub = decomp.subdomain(ctx.rank());
            let mut st = WaveState::new(sub.dims, false);
            let mut arena = HaloArena::new();
            let mut plan = reduced_velocity_plan();
            plan.extend(reduced_stress_plan());
            // Warmup: pools fill and buffers grow to the largest slab.
            for step in 0..3 {
                exchange(&mut st, &sub, ctx, &plan, Phase::Velocity, step, &mut arena);
            }
            ctx.barrier();
            let warm = arena.allocations();
            for step in 3..13 {
                exchange(&mut st, &sub, ctx, &plan, Phase::Velocity, step, &mut arena);
            }
            ctx.barrier();
            arena.allocations() == warm
        });
        assert!(flats.iter().all(|&f| f), "{flats:?}");
    }
}
