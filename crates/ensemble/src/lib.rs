//! awp-ensemble — hazard estimation over *catalogs* of scenarios.
//!
//! The paper's end product is not one wave-propagation run but ground-motion
//! estimates over many rupture realisations served to downstream consumers
//! (the CyberShake/ShakeOut framing of §VI). This crate is that layer:
//!
//! - [`spec`] — a canonical, hashable [`ScenarioSpec`]: the *identity* of a
//!   simulation. Same physics → same canonical bytes → same MD5, across
//!   construction paths and process restarts.
//! - [`catalog`] — seeded event-sequence generation (kes-style): MaxEnt
//!   nucleation over along-fault moment deficit, truncated Gutenberg–Richter
//!   magnitudes, moment-balance event rates, Omori aftershock trains.
//! - [`queue`] — a persistent priority job queue with cancellation; one JSON
//!   file per job, atomically rewritten on every transition, so a dead
//!   process's queue reloads with `Running` jobs demoted back to `Pending`.
//! - [`store`] — a content-addressed results store: `store/<hash>/` holds a
//!   manifest plus PGV-map and seismogram artifacts, each MD5-fingerprinted;
//!   repeated queries for the same scenario are cache hits.
//! - [`engine`] — the worker pool tying it together: shared-mesh reuse (one
//!   CVM build per `(family, nx, cvm-seed)` amortised across events via
//!   `Arc<Mesh>`), every miss solved in memory on that mesh under one
//!   [`awp_odc::workflow::WorkflowSession`]'s decomposition, schedule and
//!   telemetry, and cache-hit/miss accounting.
//! - [`serve`] — `awp serve`: a long-running TCP/UDS endpoint speaking
//!   newline-delimited versioned JSON (protocol `awp-serve` v1, the same
//!   hello-first discipline as the `awp-stats` endpoint) answering
//!   seismogram/hazard queries and running whole catalogs.

pub mod catalog;
pub mod engine;
pub mod queue;
pub mod serve;
pub mod spec;
pub mod store;

pub use catalog::{generate_catalog, CatalogConfig, CatalogEvent, EventKind};
pub use engine::{EnsembleEngine, RunOutcome};
pub use queue::{CancelToken, Job, JobOutcome, JobQueue, JobState};
pub use serve::{ServeClient, ServeServer, SERVE_PROTO_NAME, SERVE_PROTO_VERSION};
pub use spec::ScenarioSpec;
pub use store::ResultsStore;
