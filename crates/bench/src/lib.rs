//! The paper's evaluation as code: [`repro::ROWS`] holds one row per table,
//! figure and prose number (see DESIGN.md's experiment index), each with the
//! paper's claim, a run that prints the paper-style rows, and pre-registered
//! checks. `awp repro [ID...]` runs them and a full run writes each row's
//! record to `results/<record>.json`. Rows OVL and LTS are the kernel,
//! exchange, telemetry and local-time-stepping performance gate; row VRF is the §VI
//! verification against analytic solutions.

mod kernels;
mod perf;
pub mod repro;
mod science;

/// Print a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Format seconds in engineering units.
pub fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Quick harness-side smoke tests.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(2.5), "2.50 s");
        assert_eq!(fmt_time(0.0025), "2.50 ms");
        assert_eq!(fmt_time(2.5e-6), "2.50 µs");
    }
}
