//! Quantitative verification subsystem.
//!
//! Three independent evidence streams:
//!
//! 1. **Analytic accuracy** ([`accuracy`]): solver seismograms for point
//!    sources in a homogeneous full space compared against the closed-form
//!    Aki & Richards (2002, eq. 4.29) solution ([`analytic`]), scored with
//!    time-shift-tolerant L2 and Hilbert-envelope misfits ([`misfit`]).
//! 2. **Convergence order** ([`convergence`]): the same smooth scenario at
//!    h, h/2, h/4 (dt scaled with h, constant CFL fraction); the observed
//!    order is fitted from the error-vs-h series.
//! 3. **Schedule fuzzing** ([`fuzz`]): the deterministic
//!    `awp_vcluster::SchedulePlan` permutes message delivery and wait-all
//!    polling per seed; every seed's 8-rank run is compared bit for
//!    bit against the unfuzzed one.
//!
//! The crate measures; row VRF of `awp repro` (`awp_bench::repro`) runs
//! the three streams and judges them against its pre-registered checks.

pub mod accuracy;
pub mod analytic;
pub mod convergence;
pub mod fuzz;
pub mod misfit;
