//! Analytic performance model of AWP-ODC (paper §V, Tables 1–2).
//!
//! The paper's production machines are petascale systems we cannot run
//! on; this crate reproduces their *performance model* instead:
//!
//! * [`machines`] — Table 1's systems with latency α, inverse bandwidth β
//!   and per-flop time τ (Jaguar's values are the paper's §V.A numbers,
//!   the others are documented estimates from their interconnects);
//! * [`speedup`](mod@speedup) — the Minkoff-style speedup formula of Eq. (8) and the
//!   parallel-efficiency / sustained-flop-rate calculators;
//! * [`evolution`] — Table 2's code-version ladder with the paper's
//!   per-optimisation gains, used to model Fig. 13's time-to-solution
//!   steps and Fig. 12's execution-time breakdown;
//! * [`resilience`] — Young/Daly optimal checkpoint-interval model
//!   driving the fault-tolerance layer's epoch cadence;
//! * [`scaling`] — strong/weak scaling projections (Fig. 14);
//! * [`memory`] — the §VII.B per-core memory budget (581 MB/core for M8,
//!   reproduced line by line).

pub mod evolution;
pub mod machines;
pub mod memory;
pub mod resilience;
pub mod scaling;
pub mod speedup;

pub use machines::{Machine, MachineProfile};
pub use resilience::{daly_interval, young_interval, ResilienceInput};
pub use speedup::{efficiency, speedup, CommCost, ModelInput, PAPER_C};
