//! Quantitative verification subsystem.
//!
//! Three independent evidence streams, one report:
//!
//! 1. **Analytic accuracy** ([`accuracy`]): solver seismograms for point
//!    sources in a homogeneous full space compared against the closed-form
//!    Aki & Richards (2002, eq. 4.29) solution ([`analytic`]), scored with
//!    time-shift-tolerant L2 and Hilbert-envelope misfits ([`misfit`]) and
//!    judged against hard thresholds.
//! 2. **Convergence order** ([`convergence`]): the same smooth scenario at
//!    h, h/2, h/4 (dt scaled with h, constant CFL fraction); the observed
//!    order is fitted from the error-vs-h series and asserted against the
//!    scheme's design order.
//! 3. **Schedule fuzzing** ([`fuzz`]): the deterministic
//!    `awp_vcluster::SchedulePlan` permutes message delivery and wait-all
//!    polling per seed; an 8-rank overlap run must stay bit-exact across
//!    every seed.
//!
//! [`report::VerifyReport`] aggregates the three into `results/verify.json`
//! (schema-checked on write); the `awp verify` subcommand drives it.

pub mod accuracy;
pub mod analytic;
pub mod convergence;
pub mod fuzz;
pub mod misfit;
pub mod report;

pub use report::VerifyReport;

/// Top-level knobs for one `awp verify` invocation.
#[derive(Debug, Clone)]
pub struct VerifySpec {
    /// Smoke mode: smaller grids, fewer fuzz seeds — the CI budget.
    pub smoke: bool,
    /// Override the fuzz seed count (`None` → mode default).
    pub seeds: Option<u64>,
    /// Override the first fuzz seed (`None` → mode default). With
    /// `seeds: Some(1)` this replays exactly one reported schedule.
    pub base_seed: Option<u64>,
    /// Arm clustered local time stepping in the accuracy and convergence
    /// streams. The analytic scenarios use homogeneous media, so the plan
    /// collapses to one cluster and the run asserts LTS's delegation
    /// contract under the same misfit thresholds and convergence band as
    /// the fused path.
    pub lts: bool,
}

/// Run all three verification streams and aggregate the report.
pub fn run(spec: &VerifySpec) -> VerifyReport {
    let mut acc_spec =
        if spec.smoke { accuracy::AccuracySpec::smoke() } else { accuracy::AccuracySpec::full() };
    acc_spec.lts = spec.lts;
    let mut conv_spec = if spec.smoke {
        convergence::ConvergenceSpec::smoke()
    } else {
        convergence::ConvergenceSpec::full()
    };
    conv_spec.lts = spec.lts;
    let mut fuzz_spec = if spec.smoke { fuzz::FuzzSpec::smoke() } else { fuzz::FuzzSpec::full() };
    if let Some(n) = spec.seeds {
        fuzz_spec.seeds = n;
    }
    if let Some(s) = spec.base_seed {
        fuzz_spec.base_seed = s;
    }
    let accuracy = accuracy::run_accuracy(&acc_spec);
    let convergence = convergence::run_convergence(&conv_spec);
    let fuzz = fuzz::run_fuzz(&fuzz_spec);
    VerifyReport::new(if spec.smoke { "smoke" } else { "full" }, accuracy, convergence, fuzz)
}
