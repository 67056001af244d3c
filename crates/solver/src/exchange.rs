//! Ghost-cell halo exchange over the virtual cluster (paper §III.A, §IV.A).
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
//!   plane faces of xx information to \[one\] neighbor and one plane to the
//!   \[other\]").
//!
//! Widths are *receiver-centric*: `(recv_lo, recv_hi)` layers land in this
//! rank's low/high halo; the matching sends are derived symmetrically.
//!
//! The data path is zero-copy: outgoing slabs are extracted into buffers
//! pooled in a [`HaloArena`] and *moved* into the mailbox (the message's
//! `Vec<f32>` carries the allocation); the receiver injects straight from
//! the arrived vector and pools it for its own next send. Steady-state
//! stepping performs no per-message heap allocation — the arena's debug
//! ledger asserts this.

use crate::arena::HaloArena;
use crate::state::WaveState;
use awp_grid::decomp::Subdomain;
use awp_grid::face::{extract_face_k, face_len_k, inject_halo_k, Axis, Face};
use awp_grid::stagger::Component;
use awp_telemetry::Phase as TelPhase;
use awp_vcluster::cluster::{CommMode, RankCtx};
use awp_vcluster::message::{make_tag, Tag};

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
/// from and where its slab goes. An exchange keeps them in one list
/// borrowed from the [`HaloArena`] (`take_reqs`): `start_exchange_k`
/// fills it and `finish_exchange` completes and returns it.
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
}

/// Low bits of the tag's step field that carry the dt-cluster index.
const CLUSTER_BITS: u32 = 4;
const _: () = assert!(crate::lts::MAX_CLUSTERS <= 1 << CLUSTER_BITS);

/// The step field of a halo message's tag: base tick and dt-cluster, so
/// every cluster phase exchanges in its own tag space. Injective for ticks
/// below 2⁴⁰, which fills `make_tag`'s 44-bit step field.
pub fn tag_step(tick: u64, cluster: usize) -> u64 {
    debug_assert!(cluster < crate::lts::MAX_CLUSTERS && tick >> (44 - CLUSTER_BITS) == 0);
    (tick << CLUSTER_BITS) | cluster as u64
}

/// Post receives and eager sends for a plan (asynchronous engine only),
/// restricted to the k-planes `[kr.0, kr.1)`: only that slice of each X/Y
/// face travels, and a Z face ships whole. (A z link only exists when the
/// window spans the rank: LTS, the one source of partial windows, runs on
/// z-unpartitioned decompositions.) Outgoing slabs are staged in arena
/// buffers and moved into the mailbox; the receives join `reqs`.
#[allow(clippy::too_many_arguments)]
fn start_exchange_k(
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
    let t_send = ctx.telem.start();
    for p in plan {
        let (f_lo, f_hi) = faces_of(p.axis);
        // Post receives first.
        for (f, width) in [(f_lo, p.recv_lo), (f_hi, p.recv_hi)] {
            if let Some(src) = sub.neighbor(f).filter(|_| width > 0) {
                let tag = make_tag(phase as u8, p.comp.id() as u8, f.id() as u8, step);
                reqs.push(PendingRecv {
                    src,
                    tag,
                    comp: p.comp,
                    face: f,
                    width,
                    k0: kr.0,
                    k1: kr.1,
                });
            }
        }
        // Our low-side layers land in the low neighbour's *high* halo, so
        // the width is the receiver's recv_hi and the tag carries its f_hi
        // face id (the receive it posted); symmetrically for the high side.
        for (f, width) in [(f_lo, p.recv_hi), (f_hi, p.recv_lo)] {
            if let Some(nb) = sub.neighbor(f).filter(|_| width > 0) {
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

/// Complete a started exchange through the rank's one Waitall
/// ([`RankCtx::wait_each`]): each slab is injected into its halo as it
/// arrives and its buffer pooled in the arena, so the completion loop
/// allocates nothing.
fn finish_exchange(
    state: &mut WaveState,
    ctx: &mut RankCtx,
    reqs: Vec<PendingRecv>,
    arena: &mut HaloArena,
) {
    let t_all = ctx.telem.start();
    let inject = ctx.wait_each(
        &reqs,
        |r| (r.src, r.tag),
        |r, data| {
            inject_halo_k(state.field_mut(r.comp), r.face, r.width, r.k0, r.k1, &data);
            arena.put_buf(data);
        },
    );
    arena.put_reqs(reqs);
    // Split the completion interval into its two meanings: time blocked on
    // neighbours (wait) and time spent copying arrived slabs into ghosts
    // (inject, presented as one span following the wait).
    if let Some(t0) = t_all {
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
/// `start_exchange_k`); dispatches on the engine like [`exchange`]. The
/// stepper calls this once per firing dt-cluster phase, with a
/// [`tag_step`] `step`.
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
                    let data = ctx.recv(nb, tag);
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
                    let data = ctx.recv(nb, tag);
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

    /// Start/finish across 4 ranks in a row, two k-windows drained by one
    /// completion.
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
            // Two clusters' k-ranges, each in its own tag space.
            let mut reqs = arena.take_reqs();
            for (c, kr) in [(0, 2), (2, st.dims.nz)].into_iter().enumerate() {
                let step = tag_step(7, c);
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

    /// The halo completion is the Waitall the schedule fuzzer permutes:
    /// with every slab delivered before completion starts (a barrier
    /// between start and finish), the causal recv events come in the
    /// plan's `waitall_perm` order, and in request order without a plan.
    #[test]
    fn halo_completion_polls_in_the_plan_order() {
        use awp_telemetry::{CausalKind, Registry};
        use awp_vcluster::SchedulePlan;
        let global = Dims3::new(8, 4, 4);
        let decomp = Decomp3::new(global, [2, 1, 1]);
        let seed = 0x5EED;
        for fuzzed in [false, true] {
            let plan = SchedulePlan::with_bounds(seed, 0, 0);
            let mut cluster = Cluster::new(2, CommMode::Asynchronous)
                .with_telemetry(Registry::with_capacity(2, 256));
            if fuzzed {
                cluster = cluster.with_schedule(std::sync::Arc::clone(&plan));
            }
            let checks: Vec<(Vec<Tag>, Vec<Tag>)> = cluster.run(|ctx| {
                let sub = decomp.subdomain(ctx.rank());
                let mut st = WaveState::new(sub.dims, false);
                let mut arena = HaloArena::new();
                let mut reqs = arena.take_reqs();
                let fields = full_plan(&Component::ALL);
                let kr = (0, st.dims.nz);
                let (phase, step) = (Phase::Velocity, 0);
                start_exchange_k(&st, &sub, ctx, &fields, phase, step, &mut arena, kr, &mut reqs);
                let mut want: Vec<Tag> = reqs.iter().map(|r| r.tag).collect();
                if fuzzed {
                    let perm = plan.waitall_perm(ctx.rank(), 0, want.len());
                    let identity: Vec<usize> = (0..want.len()).collect();
                    assert_ne!(perm, identity, "pick a seed that permutes");
                    want = perm.iter().map(|&i| want[i]).collect();
                }
                ctx.barrier();
                finish_exchange(&mut st, ctx, reqs, &mut arena);
                let snap = ctx.telem.snapshot();
                let recvs = snap.causal.iter().filter(|e| e.kind == CausalKind::Recv);
                let got = recvs.map(|e| e.tag).collect();
                (got, want)
            });
            for (rank, (got, want)) in checks.iter().enumerate() {
                assert_eq!(want.len(), 9, "one x-face request per component");
                assert_eq!(got, want, "rank {rank} fuzzed {fuzzed}");
            }
        }
    }

    /// Every (tick, cluster) pair the runtime can step gets its own step
    /// field, and the field survives `make_tag` whole: no two cluster
    /// phases of any run share a tag space.
    #[test]
    fn tag_steps_are_injective_within_the_step_field() {
        use crate::lts::MAX_CLUSTERS;
        use std::collections::HashSet;
        let top = (1u64 << (44 - CLUSTER_BITS)) - 1;
        let ticks = [0, 1, 2, 3, 15, 16, 17, 255, 256, 1 << 20, 1 << 32, top - 1, top];
        let mut seen = HashSet::new();
        for tick in ticks {
            for cluster in 0..MAX_CLUSTERS {
                let step = tag_step(tick, cluster);
                assert!(seen.insert(step), "tick {tick} cluster {cluster} collides");
                assert!(step >> 44 == 0, "tick {tick} overflows the 44-bit step field");
                let tag = make_tag(Phase::Stress as u8, Component::Syz.id() as u8, 15, step);
                assert_eq!(tag >> 20, step, "make_tag drops bits of tick {tick}");
            }
        }
        // Neighbouring ticks interleave no cluster: the map is a bijection
        // onto [0, 2⁴⁴) with the cluster in the low bits.
        for (tick, cluster) in [(0, MAX_CLUSTERS - 1), (top - 1, MAX_CLUSTERS - 1)] {
            assert_eq!(tag_step(tick, cluster) + 1, tag_step(tick + 1, 0));
        }
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
