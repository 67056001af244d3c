//! AWP-ODC — Anelastic Wave Propagation (Olsen, Day & Cui), Rust
//! reproduction of the SC'10 paper *"Scalable Earthquake Simulation on
//! Petascale Supercomputers"*.
//!
//! This crate is the integration layer (the paper's Fig. 4): it wires the
//! mesh generator (CVM2MESH), mesh partitioner (PetaMeshP), source
//! generator/partitioner (dSrcG/PetaSrcP), the dynamic rupture solver
//! (DFR) and the wave propagation solver (AWM) into runnable earthquake
//! scenarios, and provides the end-to-end workflow (E2EaW) that carries a
//! simulation from velocity-model query to checksummed archived outputs.
//!
//! # Quick start
//!
//! ```
//! use awp_odc::scenario::Scenario;
//!
//! // A miniature ShakeOut-style kinematic scenario (coarse + short so the
//! // doc test stays fast).
//! let scenario = Scenario::shakeout_k(32, 0.4).with_duration(15.0);
//! let run = scenario.prepare();
//! let report = run.run_serial();
//! assert!(report.pgv.max() > 0.0, "the scenario must shake");
//! ```

pub mod analyze;
pub mod scenario;
pub mod stats;
pub mod wire;
pub mod workflow;

pub use scenario::{RuptureDirection, Scenario, ScenarioReport, ScenarioRun, SourceSpec};
pub use stats::{StatsAddr, StatsServer};
pub use workflow::{WorkflowReport, WorkflowSession};

// Re-export the component crates under their paper names.
pub use awp_analysis as analysis;
pub use awp_cvm as cvm;
pub use awp_grid as grid;
pub use awp_pario as pario;
pub use awp_perfmodel as perfmodel;
pub use awp_rupture as rupture;
pub use awp_signal as signal;
pub use awp_solver as solver;
pub use awp_source as source;
pub use awp_telemetry as telemetry;
pub use awp_vcluster as vcluster;
