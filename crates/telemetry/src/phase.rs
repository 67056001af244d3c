//! Phase and counter identifiers.
//!
//! Hot-path probes tag spans with these fixed enums — never strings — so a
//! probe is an array index plus two u64 adds. Names are resolved only at
//! export time (report table / Chrome trace).

/// A timed phase of the per-rank timestep / IO loop.
///
/// The variants mirror the paper's §V breakdown: the velocity and stress
/// compute passes, the three legs of the halo exchange
/// (post sends / wait for receives / inject into ghosts), boundary-condition
/// work (M-PML, free surface, sponge), source injection, synchronization, and
/// the two pario phases (checkpoint epochs, station/volume output).
///
/// Every velocity/stress window — a rank's grid, or a dt-cluster's k-range
/// of it — is recorded under the `*Interior` variant. The `*Shell`
/// variants date from the deleted shell-first overlap split; nothing
/// records them now and they read 0 (kept for readers that name them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Phase {
    VelocityShell,
    VelocityInterior,
    StressShell,
    StressInterior,
    Send,
    Wait,
    Inject,
    /// Boundary-condition work done as passes of its own: free-surface
    /// imaging, M-PML corrections, and what the stress walk leaves of the
    /// sponge (the deferred rows, the velocity planes it did not retire).
    /// The sponge work folded into the walk is inside the `*Interior`
    /// span of its window.
    Boundary,
    Source,
    Barrier,
    Checkpoint,
    Output,
}

impl Phase {
    /// Number of phases; sizes the fixed per-recorder totals array.
    pub const COUNT: usize = 12;

    /// All phases in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::VelocityShell,
        Phase::VelocityInterior,
        Phase::StressShell,
        Phase::StressInterior,
        Phase::Send,
        Phase::Wait,
        Phase::Inject,
        Phase::Boundary,
        Phase::Source,
        Phase::Barrier,
        Phase::Checkpoint,
        Phase::Output,
    ];

    /// Phases whose per-rank totals define compute time for the
    /// load-imbalance ratio (max/mean across ranks, the paper's §V metric).
    /// Boundary/Source are excluded: their spans nest inside the window
    /// passes and would double-count.
    pub const COMPUTE: [Phase; 4] = [
        Phase::VelocityShell,
        Phase::VelocityInterior,
        Phase::StressShell,
        Phase::StressInterior,
    ];

    /// Communication phases used for the hidden-comm fraction.
    pub const COMM: [Phase; 3] = [Phase::Send, Phase::Wait, Phase::Inject];

    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in the report table and trace events.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::VelocityShell => "velocity_shell",
            Phase::VelocityInterior => "velocity_interior",
            Phase::StressShell => "stress_shell",
            Phase::StressInterior => "stress_interior",
            Phase::Send => "send",
            Phase::Wait => "wait",
            Phase::Inject => "inject",
            Phase::Boundary => "boundary",
            Phase::Source => "source",
            Phase::Barrier => "barrier",
            Phase::Checkpoint => "checkpoint",
            Phase::Output => "output",
        }
    }
}

/// A monotonic per-rank event/volume counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Counter {
    MsgsSent,
    BytesSent,
    MsgsRecv,
    BytesRecv,
    /// Halo-arena buffer allocations (steady state should stay flat).
    ArenaAllocs,
    CheckpointBytes,
    OutputBytes,
    /// Injected faults observed by this rank (crash/stall/msg faults fired).
    FaultEvents,
    /// IO retry attempts beyond the first try (checkpoint write retries).
    IoRetries,
    /// Nothing counts it since the in-flight recovery rung was deleted; it
    /// reads 0 (kept for the allocation tests that probe with it).
    Recoveries,
    /// Simulation-health sentinel probes executed (`--health-every N`).
    HealthProbes,
}

impl Counter {
    pub const COUNT: usize = 11;

    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MsgsSent,
        Counter::BytesSent,
        Counter::MsgsRecv,
        Counter::BytesRecv,
        Counter::ArenaAllocs,
        Counter::CheckpointBytes,
        Counter::OutputBytes,
        Counter::FaultEvents,
        Counter::IoRetries,
        Counter::Recoveries,
        Counter::HealthProbes,
    ];

    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    pub const fn name(self) -> &'static str {
        match self {
            Counter::MsgsSent => "msgs_sent",
            Counter::BytesSent => "bytes_sent",
            Counter::MsgsRecv => "msgs_recv",
            Counter::BytesRecv => "bytes_recv",
            Counter::ArenaAllocs => "arena_allocs",
            Counter::CheckpointBytes => "checkpoint_bytes",
            Counter::OutputBytes => "output_bytes",
            Counter::FaultEvents => "fault_events",
            Counter::IoRetries => "io_retries",
            Counter::Recoveries => "recoveries",
            Counter::HealthProbes => "health_probes",
        }
    }
}

/// Which latency histogram a comm-primitive observation lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum HistKind {
    Send,
    Recv,
    Barrier,
}

impl HistKind {
    pub const COUNT: usize = 3;

    pub const ALL: [HistKind; HistKind::COUNT] =
        [HistKind::Send, HistKind::Recv, HistKind::Barrier];

    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    pub const fn name(self) -> &'static str {
        match self {
            HistKind::Send => "send",
            HistKind::Recv => "recv",
            HistKind::Barrier => "barrier",
        }
    }
}
