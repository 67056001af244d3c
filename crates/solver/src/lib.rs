//! AWM — the anelastic wave propagation solver of AWP-ODC (paper §II).
//!
//! Solves the 3-D velocity–stress elastodynamic system (Eq. 1) with the
//! explicit staggered-grid finite-difference scheme: fourth-order in space
//! (Eq. 3, c1 = 9/8, c2 = −1/24), second-order leapfrog in time (Eq. 2).
//! Components:
//!
//! * [`medium`] — per-rank material arrays with the reciprocal-storage
//!   optimisation of §IV.B and effective-media averaging;
//! * [`state`] — the nine wavefield arrays plus anelastic memory variables;
//! * [`kernels`]/[`simd`] — the hot velocity/stress update loops (scalar
//!   and runtime-dispatched explicit-SIMD), the scalar ones in *optimised*
//!   (precomputed reciprocals, cache blocking) and *legacy* (inline
//!   divisions, unblocked) variants so the paper's §IV.B gains can be
//!   measured;
//! * [`arena`] — the pooled staging buffers making the halo exchange
//!   allocation-free in steady state;
//! * [`attenuation`] — coarse-grained memory-variable constant-Q
//!   (Day 1998; Day & Bradley 2001), eight relaxation times on a 2×2×2
//!   pattern;
//! * [`boundary`] — FS2-style free surface (stress imaging) and Cerjan
//!   sponge layers;
//! * [`pml`] — multi-axial PML absorbing boundaries (Marcinkovich & Olsen
//!   2003; Meza-Fajardo & Papageorgiou 2008);
//! * [`exchange`] — ghost-cell halo exchange over the virtual cluster with
//!   full or reduced (§IV.A) communication plans, once per dt-cluster
//!   phase;
//! * [`sourceinj`] — kinematic moment-rate source insertion;
//! * [`stations`] — seismogram recording and surface-velocity capture;
//! * [`lts`] — the plan of dt-clusters the stepper walks: one cluster for
//!   global time stepping, a rate-2ᵏ ladder under local time stepping;
//! * [`solver`] — the one stepper, with Eq. (7) phase timing, and the
//!   [`SolvePlan`] every run's ranks step by;
//! * [`reference`](mod@reference) — an independent 2nd-order solver used
//!   as the Fig. 3 cross-verification partner;
//! * [`flops`] — per-point floating-point operation accounting feeding the
//!   Eq. (8) performance model.

pub mod arena;
pub mod attenuation;
pub mod boundary;
pub mod config;
pub mod exchange;
pub mod flops;
pub mod kernels;
pub mod lts;
pub mod medium;
pub mod pml;
pub mod reference;
pub mod shell;
pub mod simd;
pub mod solver;
pub mod sourceinj;
pub mod state;
pub mod stations;

pub use arena::HaloArena;
pub use awp_telemetry as telemetry;
pub use config::{AbcKind, CodeVersion, ConfigError, LtsOpts, SolverConfig, SolverOpts};
pub use lts::LtsPlan;
pub use medium::{global_vp_max, Medium};
pub use shell::Win;
pub use simd::SimdBackend;
pub use solver::{run_parallel, RankResult, RankStepper, SolvePlan, Solver};
pub use state::WaveState;
pub use stations::{Station, StationRecorder};
