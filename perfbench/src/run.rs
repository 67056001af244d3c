//! One process, one workload: the rep loop shared by all six workloads.
//!
//! `--trace 0` measures what a user sees (set-up, rep wall, CPU) with the
//! tracer disarmed. `--trace 1` is a separate run that brackets
//! every call into a layer with a span, runs the layer probes and derives
//! the per-layer numbers; it also alternates armed and disarmed reps so
//! the tracing overhead is a measured number.

use crate::host;
use crate::metrics::{Ledger, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, ratio};
use crate::trace::{layer_self_s, Tracer};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Every workload must complete at least this many timed reps.
const MIN_REPS: usize = 5;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
}

/// Attempted/failed accounting: every operation the harness asks of the
/// program and every correctness check counts once.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one check; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Count one operation and unwrap its result; `None` on failure.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// SplitMix64 — the harness's only randomness; every generated input is a
/// function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A scratch directory under the build's target directory (next to the
/// executable), so the benchmark writes only inside its checkout. Removed
/// on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join("perfbench-scratch").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One of the six workloads.
pub trait Workload: Sized {
    /// Build every input from `args.seed`, construct the program under test and
    /// run one discarded warm-up rep.
    fn setup(args: &RunArgs, tr: &mut Tracer, checks: &mut Checks) -> Self;

    /// One rep. Returns the wall seconds of the timed region; correctness
    /// checks run after it, outside the timing.
    fn rep(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64;

    /// Traced run only: probe the layers this workload exercises and
    /// derive their per-layer metrics from the spans recorded so far.
    fn layers(&mut self, tr: &mut Tracer, checks: &mut Checks, out: &mut Ledger);

    /// Stop whatever `setup` started (server threads, scratch state).
    fn teardown(self) {}
}

/// What one run prints.
pub struct RunOutput {
    /// Context line: fingerprint, sample counts and quartiles.
    pub detail: Value,
    /// The contract line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Value,
}

fn result_line(checks: &Checks, values: Vec<(&'static crate::metrics::MetricDef, f64)>) -> Value {
    let mut metrics = std::collections::BTreeMap::new();
    for (def, v) in values {
        metrics.insert(def.name.to_string(), json!({"value": v, "unit": def.unit}));
    }
    json!({
        "correct": checks.failed == 0,
        "attempted": checks.attempted.max(1),
        "failed": checks.failed,
        "metrics": Value::Object(metrics)
    })
}

fn sample_summary(samples: &[f64]) -> Value {
    let (q1, q3) = quartiles(samples);
    json!({
        "n": samples.len(),
        "median": median(samples),
        "q1": q1,
        "q3": q3,
        "values": Value::from(samples)
    })
}

pub fn run<W: Workload>(args: &RunArgs) -> RunOutput {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

fn run_untraced<W: Workload>(args: &RunArgs) -> RunOutput {
    let mut tr = Tracer::new(false);
    let mut checks = Checks::default();
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = w.take() {
            W::teardown(prev);
        }
        let t0 = Instant::now();
        w = Some(W::setup(args, &mut tr, &mut checks));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("SETUP_REPS >= 1");

    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let phase = Instant::now();
    while walls.len() < MIN_REPS || phase.elapsed().as_secs_f64() < args.seconds {
        let c0 = host::process_cpu_s();
        walls.push(w.rep(&mut tr, &mut checks));
        // CPU of the rep including its checks; the checks are a small,
        // fixed share and the same on both sides of any comparison.
        cpus.push(host::process_cpu_s() - c0);
    }
    let measured_s = phase.elapsed().as_secs_f64();
    w.teardown();

    let mut ledger = Ledger::default();
    ledger.set("setup_s", median(&setups));
    ledger.set("wall_s", median(&walls));
    ledger.set("cpu_s", median(&cpus));
    let detail = json!({
        "workload": args.workload.as_str(),
        "trace": false,
        "fingerprint": host::fingerprint(args.seed, args.seconds),
        "measured_s": measured_s,
        "setup_s": sample_summary(&setups),
        "wall_s": sample_summary(&walls),
        "cpu_s": sample_summary(&cpus),
        "peak_rss_mb": host::peak_rss_mb()
    });
    RunOutput { detail, result: result_line(&checks, ledger.complete(&END_TO_END)) }
}

fn run_traced<W: Workload>(args: &RunArgs) -> RunOutput {
    let mut tr = Tracer::new(true);
    let mut checks = Checks::default();
    let mut ledger = Ledger::default();
    let start = Instant::now();

    let (armed, disarmed) = tr.span("harness", "traced-run", |tr| {
        let mut w = tr.span("harness", "setup", |tr| W::setup(args, tr, &mut checks));
        // Alternate disarmed and armed reps: their ratio is the tracing
        // overhead. Set-up and reps get 40% of `--seconds` (two reps of
        // each kind at least); the rest belongs to the layer probes.
        let (mut armed, mut disarmed) = (Vec::new(), Vec::new());
        let mut quiet = Tracer::new(false);
        while armed.len() < 2 || start.elapsed().as_secs_f64() < 0.4 * args.seconds {
            // A disarmed rep shows in the trace as one opaque block.
            let (mut cursor, t0) = (tr.now_ns(), Instant::now());
            disarmed.push(w.rep(&mut quiet, &mut checks));
            tr.derived("harness", "disarmed-rep", &mut cursor, t0.elapsed().as_secs_f64());
            tr.next_rep();
            armed.push(tr.span("harness", "rep", |tr| w.rep(tr, &mut checks)));
        }
        // High-water mark of set-up and reps, before the layer probes
        // allocate their own buffers.
        ledger.set("harness.peak_rss_mb", host::peak_rss_mb());
        tr.span("harness", "layers", |tr| w.layers(tr, &mut checks, &mut ledger));
        tr.span("harness", "teardown", |_| w.teardown());
        (armed, disarmed)
    });

    // Self time of the harness's own structural spans is what no layer
    // span covers: the unaccounted share of the traced wall (the disarmed
    // reps are untraced by design and are left out of that wall).
    let spans = tr.spans();
    let root_s = spans[0].dur_ns() as f64 * 1e-9 - tr.total_s("disarmed-rep");
    let own = crate::trace::self_times_ns(spans);
    let structural = ["traced-run", "setup", "rep", "layers", "teardown"];
    let unaccounted_s: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.layer == "harness" && structural.contains(&s.name))
        .map(|(_, ns)| *ns as f64 * 1e-9)
        .sum();
    ledger.set("harness.unaccounted_frac", ratio(unaccounted_s, root_s));
    ledger.set("harness.trace_overhead_frac", ratio(median(&armed), median(&disarmed)) - 1.0);
    ledger.set("harness.reps", (armed.len() + disarmed.len()) as f64);
    ledger.set("harness.spans", spans.len() as f64);
    ledger.set("harness.checks", checks.attempted as f64);

    let trace_file = args.trace_out.as_ref().and_then(|dir| {
        let path = dir.join(format!("{}.trace.json", args.workload));
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, tr.chrome_trace()))
            .map_err(|e| eprintln!("perfbench: cannot write {}: {e}", path.display()))
            .ok()
            .map(|_| path.display().to_string())
    });
    let by_layer: std::collections::BTreeMap<String, Value> = layer_self_s(spans)
        .into_iter()
        .map(|(layer, s)| (layer.to_string(), Value::from(s)))
        .collect();
    let detail = json!({
        "workload": args.workload.as_str(),
        "trace": true,
        "fingerprint": host::fingerprint(args.seed, args.seconds),
        "traced_wall_s": root_s,
        "layer_self_s": Value::Object(by_layer),
        "armed_rep_s": sample_summary(&armed),
        "disarmed_rep_s": sample_summary(&disarmed),
        "trace_file": trace_file.map_or(Value::Null, Value::from)
    });
    RunOutput { detail, result: result_line(&checks, ledger.complete(&PER_LAYER)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
        for _ in 0..1000 {
            let u = a.uniform(2.0, 3.0);
            assert!((2.0..3.0).contains(&u));
            assert!(a.below(5) < 5);
        }
        let mut v: Vec<u32> = (0..50).collect();
        a.shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(true, String::new);
        assert_eq!(c.op::<u8, String>("x", Err("boom".into())), None);
        assert_eq!(c.op::<u8, String>("y", Ok(3)), Some(3));
        assert_eq!((c.attempted, c.failed), (3, 1));
    }
}
