//! `awp-telemetry` — low-overhead, opt-in per-rank instrumentation.
//!
//! Design (see DESIGN.md "Observability"):
//! - **Opt-in**: a run owns an `Arc<Registry>`; each vcluster rank gets an
//!   enabled [`Recorder`] at spawn. Arming only the crash flight recorder
//!   gives each rank an enabled recorder with a small ring
//!   ([`flightrec::FLIGHT_SPANS`] spans), which a faulted rank dumps through
//!   [`flight_dump`]. Otherwise every probe site holds a
//!   [`Recorder::disabled`] and compiles to a not-taken branch with zero
//!   allocation and zero clock reads (enforced by `tests/zero_alloc.rs`).
//! - **Hot path is enum + array math**: spans are tagged with [`Phase`]
//!   (never strings), recorded into a preallocated ring buffer; counters and
//!   log2-bucket histograms are fixed arrays.
//! - **Exact totals, bounded memory**: per-phase totals and counters are
//!   always exact; only the span *timeline* is bounded by the ring (evictions
//!   surface as `dropped_spans`).
//! - **Aggregation**: at run completion each rank's [`Snapshot`] is submitted
//!   to the [`Registry`], which produces a [`TelemetryReport`]
//!   (min/mean/max/p95 per phase, load-imbalance ratio, hidden-comm
//!   fraction) and a Chrome trace-event JSON (one virtual pid per rank).
//!
//! The crate is std-only on purpose: it sits under every other crate in the
//! workspace and must build offline with no registry dependencies.

pub mod causal;
pub mod flightrec;
pub mod hist;
pub mod live;
pub mod phase;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod trace;

pub use causal::{
    clocks_monotonic, CausalEdge, CausalEvent, CausalGraph, CausalKind, CriticalPath, GraphSpan,
    Hop, NO_PEER,
};
pub use flightrec::flight_dump;
pub use hist::{Log2Hist, HIST_BUCKETS};
pub use live::{LiveRank, LiveStats, STATS_PROTO_NAME, STATS_PROTO_VERSION};
pub use phase::{Counter, HistKind, Phase};
pub use recorder::{LtsClusterStat, PhaseTotal, Recorder, Snapshot, SpanRec, NO_CLUSTER};
pub use registry::{Registry, DEFAULT_SPAN_CAPACITY};
pub use report::{LtsClusterAgg, PhaseAgg, TelemetryReport};
pub use trace::chrome_trace;
