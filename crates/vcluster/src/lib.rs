//! Virtual cluster: the message-passing substrate of the AWP-ODC
//! reproduction.
//!
//! The paper's solver communicates through MPI over petascale interconnects
//! (SeaStar2+ 3-D torus, InfiniBand fat tree, BG torus). Rust MPI bindings
//! are immature and no such machine is attached, so this crate provides an
//! in-process stand-in with the same *semantics*:
//!
//! * each rank runs on its own OS thread ([`Cluster::run`]);
//! * point-to-point messages carry `(source, tag)` envelopes and are matched
//!   out of order, exactly the property the paper's asynchronous
//!   communication model relies on ("unique tagging to avoid
//!   source/destination ambiguity … allows out-of-order arrival", §IV.A);
//! * the *synchronous* engine performs rendezvous sends (the sender blocks
//!   until the receiver matches), reproducing the cascading-latency chains
//!   of the original `mpi_send/mpi_recv` code path;
//! * the *asynchronous* engine buffers sends eagerly and lets receivers
//!   complete in any order: [`RankCtx::wait_each`] is the one Waitall,
//!   polling posted `(source, tag)` receives and handing each `f32`
//!   payload to the caller as it lands;
//! * [`Barrier`](RankCtx::barrier) and wall-clock [time
//!   ledgers](ledger::TimeLedger) record the T_comp/T_comm/T_sync/T_out
//!   decomposition of the paper's Eq. (7);
//! * [`probe`] measures round-trip latency distributions (paper Fig. 11)
//!   and message/byte counters verify the reduced-communication
//!   optimisation (§IV.A).

pub mod cluster;
pub mod fault;
pub mod ledger;
pub mod mailbox;
pub mod message;
pub mod probe;
pub mod schedule;

pub use cluster::{Cluster, CommMode, RankCtx};
pub use awp_telemetry as telemetry;
pub use fault::{FaultKind, FaultPlan, FaultReport, RetryPolicy, WatchdogConfig};
pub use schedule::SchedulePlan;
pub use ledger::{Category, TimeLedger};
pub use message::Tag;
