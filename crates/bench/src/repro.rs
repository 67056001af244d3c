//! The paper's evaluation as one table of claims (`awp repro`).
//!
//! Each [`Row`] is one table, figure or prose number of the paper's
//! evaluation, under its EXPERIMENTS.md id. `run` prints the paper-style
//! rows and returns the measured values; each [`Check`] is a predicate
//! written from the paper's own words before the row was first run, with
//! the outcome it gave when the row was recorded. A check whose outcome
//! differs from its recorded one fails the run.
//!
//! A row's verdict is ✓ when every check holds, ✗ when none does and ~
//! otherwise; its expected verdict follows from the recorded outcomes. A
//! figure the paper quotes without a tolerance is read within 10 % of its
//! value unless the check states another bound. Wall-clock comparisons
//! take medians of [`REPS`] alternating repetitions.
//!
//! Work that several rows read is built once per [`Ctx`], after kes's
//! simulate-once pattern: the mini-M8 source and its 200 s propagation
//! serve F19, F21 and F23 from one preparation and one solve.

use crate::fmt_time;
use crate::kernels::*;
use crate::perf::*;
use crate::science::*;
use awp_analysis::record::{default_results_dir, ExperimentRecord};
use awp_cvm::mesh::{Mesh, MeshGenerator};
use awp_cvm::model::LayeredModel;
use awp_grid::decomp::Decomp3;
use awp_grid::dims::{Dims3, Idx3};
use awp_odc::scenario::{Scenario, ScenarioReport, ScenarioRun};
use awp_solver::config::{SolverConfig, SolverOpts};
use awp_solver::solver::{partition_mesh_direct, run_parallel, RankResult};
use awp_solver::stations::Station;
use awp_source::kinematic::KinematicSource;
use awp_source::moment::MomentTensor;
use awp_source::stf::Stf;
use serde_json::{json, Value};
use std::cell::OnceCell;
use std::time::Instant;

/// Every row, in EXPERIMENTS.md order.
pub const ROWS: &[&Row] = &[
    &T1, &T2, &T3, &F11, &F12, &F13, &F14, &S5A, &S5B, &E79, &OVL, &LTS, &S7B, &S7C, &F3, &VRF,
    &F15, &F16, &F17, &F18, &F19, &F20, &F21, &F22, &F23, &F3DT,
];

/// Repetitions behind every wall-clock comparison.
pub const REPS: usize = 3;

/// One claim of the paper's evaluation and the run that checks it.
pub struct Row {
    /// The EXPERIMENTS.md id (`T1`, `F23`, `S5A`, …).
    pub id: &'static str,
    /// File stem of the row's record under `results/`.
    pub record: &'static str,
    /// The paper's claim, quoted with its section or figure.
    pub claim: &'static str,
    pub run: fn(&Ctx) -> Value,
    pub checks: &'static [Check],
}

impl Row {
    /// The verdict the recorded check outcomes give.
    pub fn expect(&self) -> Verdict {
        Verdict::of(self.checks.iter().map(|c| c.expect)).expect("every row has a check")
    }
}

/// One predicate over a row's measured values.
pub struct Check {
    pub what: &'static str,
    /// Reads the registry, an analytic model, plan arithmetic, an
    /// allocation ledger or a bit-exactness contract — values that are the
    /// same at every size — so a smoke run can judge it.
    pub model: bool,
    /// The outcome recorded for this check: whether it held.
    pub expect: bool,
    pub holds: fn(&Value) -> bool,
}

impl Check {
    pub const fn model(what: &'static str, holds: fn(&Value) -> bool) -> Self {
        Self { what, model: true, expect: true, holds }
    }

    /// A check on a solver run or a wall clock, judged at full size only.
    pub const fn run(what: &'static str, holds: fn(&Value) -> bool) -> Self {
        Self { what, model: false, expect: true, holds }
    }

    /// Recorded as failing: the paper's claim does not hold here.
    pub const fn fails(self) -> Self {
        Self { expect: false, ..self }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Holds,
    Partial,
    Fails,
}

impl Verdict {
    pub fn symbol(self) -> &'static str {
        match self {
            Verdict::Holds => "✓",
            Verdict::Partial => "~",
            Verdict::Fails => "✗",
        }
    }

    fn of(results: impl IntoIterator<Item = bool>) -> Option<Self> {
        let (held, n) = results.into_iter().fold((0, 0), |(h, n), r| (h + r as usize, n + 1));
        match held {
            _ if n == 0 => None,
            h if h == n => Some(Verdict::Holds),
            0 => Some(Verdict::Fails),
            _ => Some(Verdict::Partial),
        }
    }
}

/// Full size is what the paper's comparisons are judged at; smoke runs
/// every row on coarse grids to show it runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Smoke,
    Full,
}

/// One `awp repro` run: its size and the fixtures its rows share.
pub struct Ctx {
    pub size: Size,
    m8: OnceCell<ScenarioRun>,
    m8_report: OnceCell<ScenarioReport>,
    lts: OnceCell<Value>,
}

impl Ctx {
    pub fn new(size: Size) -> Self {
        Self { size, m8: OnceCell::new(), m8_report: OnceCell::new(), lts: OnceCell::new() }
    }

    /// `smoke` on a smoke run, `full` otherwise.
    pub fn pick<T>(&self, smoke: T, full: T) -> T {
        match self.size {
            Size::Smoke => smoke,
            Size::Full => full,
        }
    }

    /// The mini-M8 mesh and two-step source (dynamic rupture, then 200 s of
    /// propagation), prepared once.
    pub fn m8(&self) -> &ScenarioRun {
        self.m8.get_or_init(|| {
            let sc = Scenario::m8(self.pick(48, 160), 2010).with_duration(self.pick(30.0, 200.0));
            println!("preparing the mini-M8 for F19/F21/F23: DFR at h = {:.1} km", sc.h() / 1e3);
            sc.prepare()
        })
    }

    /// The mini-M8 propagation on `[2, 2, 1]` ranks, run once.
    pub fn m8_report(&self) -> &ScenarioReport {
        self.m8_report.get_or_init(|| {
            let run = self.m8();
            let (dims, steps) = (run.cfg.dims, run.cfg.steps);
            println!("mini-M8 propagation for F21/F23: {dims:?}, {steps} steps, attenuation on");
            run.run_parallel([2, 2, 1])
        })
    }

    /// Global-dt against LTS stepping on the basin-over-rock medium, timed
    /// once for OVL and LTS.
    pub fn lts(&self) -> &Value {
        self.lts.get_or_init(|| time_lts(self))
    }
}

/// The layered-crust box the timed rows run: one strike-slip point source
/// at mid-plan, one surface station.
pub struct CrustBox {
    pub cfg: SolverConfig,
    pub mesh: Mesh,
    pub source: KinematicSource,
    pub stations: [Station; 1],
}

impl CrustBox {
    pub fn new(dims: Dims3, steps: usize) -> Self {
        let h = 200.0;
        let mesh = MeshGenerator::new(&LayeredModel::gradient_crust(900.0), dims, h).generate();
        let dt = mesh.stats().dt_max() * 0.9;
        let source = KinematicSource::point(
            Idx3::new(dims.nx / 2, dims.ny / 2, 2 * dims.nz / 5),
            MomentTensor::strike_slip(0.0),
            1e18,
            Stf::Triangle { rise_time: 1.0 },
            dt,
        );
        let stations = [Station::new("s", Idx3::new(dims.nx / 8, dims.ny / 8, 0))];
        Self { cfg: SolverConfig::small(dims, h, dt, steps), mesh, source, stations }
    }

    /// Run on `parts` ranks with `opts`: the wall seconds of the solve
    /// (partitioning excluded) and the rank results.
    pub fn run(&self, parts: [usize; 3], opts: SolverOpts) -> (f64, Vec<RankResult>) {
        let meshes = partition_mesh_direct(&self.mesh, &Decomp3::new(self.cfg.dims, parts));
        let cfg = SolverConfig { opts, ..self.cfg.clone() };
        let t0 = Instant::now();
        let results = run_parallel(&cfg, parts, &meshes, &self.source, &self.stations);
        (t0.elapsed().as_secs_f64(), results)
    }
}

/// A console table that is also the record: each printed row becomes an
/// object keyed by its columns.
pub struct Table {
    cols: Vec<(String, usize, usize)>,
    rows: Vec<Value>,
}

impl Table {
    /// `spec` lists the columns as `key[:width][.decimals]`; a column is
    /// at least as wide as its key.
    pub fn new(spec: &str) -> Self {
        let col = |c: &str| {
            let (c, d) = c.split_once('.').unwrap_or((c, "0"));
            let (key, w) = c.split_once(':').unwrap_or((c, "0"));
            let w = key.len().max(w.parse().expect("column width"));
            (key.to_string(), w, d.parse().expect("column decimals"))
        };
        let cols: Vec<_> = spec.split_whitespace().map(col).collect();
        let head: Vec<String> = cols.iter().map(|(k, w, _)| format!("{k:>w$}")).collect();
        println!("{}", head.join(" "));
        Self { cols, rows: Vec::new() }
    }

    /// Print `cells`, a JSON array with one value per column, and keep it.
    pub fn row(&mut self, cells: Value) {
        let cells = cells.as_array().cloned().unwrap_or_default();
        let line: Vec<String> = (self.cols.iter().zip(&cells))
            .map(|((_, w, d), c)| match c {
                Value::Number(x) => format!("{x:>w$.d$}"),
                Value::String(s) => format!("{s:>w$}"),
                other => format!("{:>w$}", other.to_string()),
            })
            .collect();
        println!("{}", line.join(" "));
        self.rows.push(Value::Object(self.cols.iter().map(|c| c.0.clone()).zip(cells).collect()));
    }

    pub fn rows(self) -> Value {
        Value::Array(self.rows)
    }
}

/// The median sample of each of `n` variants by `key`, over [`REPS`]
/// repetitions in which the variants alternate, so host drift hits each
/// alike.
pub fn alternate<T>(
    n: usize,
    mut measure: impl FnMut(usize) -> T,
    key: impl Fn(&T) -> f64,
) -> Vec<T> {
    let mut samples: Vec<Vec<T>> = (0..n).map(|_| Vec::with_capacity(REPS)).collect();
    for _ in 0..REPS {
        for (i, s) in samples.iter_mut().enumerate() {
            s.push(measure(i));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(|a, b| key(a).total_cmp(&key(b)));
            s.swap_remove(s.len() / 2)
        })
        .collect()
}

/// `v[key]` as a number; NaN (which fails every comparison) when absent.
pub fn num(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(f64::NAN)
}

/// `v[key]` as a list of numbers.
pub fn nums(v: &Value, key: &str) -> Vec<f64> {
    v[key]
        .as_array()
        .map_or_else(Vec::new, |a| a.iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect())
}

/// `v[list][*][key]` as numbers.
pub fn col(v: &Value, list: &str, key: &str) -> Vec<f64> {
    v[list].as_array().map_or_else(Vec::new, |a| a.iter().map(|r| num(r, key)).collect())
}

/// `x` within `rel` of `paper`, relatively.
pub fn near(x: f64, paper: f64, rel: f64) -> bool {
    (x - paper).abs() <= rel * paper.abs()
}

/// What one row gave.
pub struct Outcome {
    pub row: &'static Row,
    pub values: Value,
    /// One result per check; `None` for a run check on a smoke run.
    pub results: Vec<Option<bool>>,
    pub wall_s: f64,
    /// Whether a full run failed to write the record or the artifact.
    pub write_failed: bool,
}

impl Outcome {
    /// The verdict over the checks this run could judge.
    pub fn verdict(&self) -> Option<Verdict> {
        Verdict::of(self.results.iter().flatten().copied())
    }

    /// The checks this run judged with an outcome other than the recorded one.
    pub fn differing(&self) -> impl Iterator<Item = &'static Check> + '_ {
        let checks = self.row.checks.iter().zip(&self.results);
        checks.filter(|(c, r)| r.is_some_and(|r| r != c.expect)).map(|(c, _)| c)
    }

    /// Whether every check this run judged gave its recorded outcome.
    pub fn agrees(&self) -> bool {
        self.differing().next().is_none()
    }

    fn record(&self) -> ExperimentRecord {
        let checks = self.row.checks.iter().zip(&self.results);
        let checks: Vec<Value> = checks
            .map(|(c, r)| {
                json!({ "check": c.what, "holds": r.unwrap_or(false), "expected": c.expect })
            })
            .collect();
        let data = json!({
            "claim": self.row.claim,
            "checks": checks,
            "verdict": self.verdict().map_or("-", Verdict::symbol),
            "expected": self.row.expect().symbol(),
            "values": self.values.clone(),
        });
        ExperimentRecord::new(self.row.record, format!("awp repro {}", self.row.id), data)
    }

    /// Write the record under `results/`.
    fn write(&self) -> std::io::Result<()> {
        println!("[record] {}", self.record().write(&default_results_dir())?.display());
        Ok(())
    }

    /// `T1  ✓  expected ✓  12.3 ms`, flagged when a check's outcome differs.
    fn summary(&self) -> String {
        let (id, got) = (self.row.id, self.verdict().map_or("-", Verdict::symbol));
        let flag = if self.agrees() { "" } else { "  ← DIFFERS" };
        format!(
            "{id:<5} {got} expected {} {:>9}{flag}",
            self.row.expect().symbol(),
            fmt_time(self.wall_s)
        )
    }
}

/// The rows whose ids are `ids` (every row when empty), or the first id
/// that names none.
pub fn select(ids: &[String]) -> Result<Vec<&'static Row>, String> {
    if ids.is_empty() {
        return Ok(ROWS.to_vec());
    }
    ids.iter()
        .map(|id| {
            ROWS.iter()
                .find(|r| r.id.eq_ignore_ascii_case(id))
                .copied()
                .ok_or_else(|| format!("unknown repro row '{id}'"))
        })
        .collect()
}

/// Run `rows` at `size`, printing each row, its checks and its verdict,
/// then a summary. A full run writes each row's record under `results/`; a
/// smoke run writes nothing.
pub fn reproduce(rows: &[&'static Row], size: Size) -> Vec<Outcome> {
    let ctx = Ctx::new(size);
    let mut outcomes = Vec::new();
    for &row in rows {
        println!("\n##### {} #####\n{}", row.id, row.claim);
        let t0 = Instant::now();
        let values = (row.run)(&ctx);
        let wall_s = t0.elapsed().as_secs_f64();
        let results: Vec<Option<bool>> = row
            .checks
            .iter()
            .map(|c| (size == Size::Full || c.model).then(|| (c.holds)(&values)))
            .collect();
        println!();
        let mark = |r: bool| if r { "✓" } else { "✗" };
        for (c, r) in row.checks.iter().zip(&results) {
            let flag = match r {
                Some(r) if *r != c.expect => format!("  ← expected {}", mark(c.expect)),
                _ => String::new(),
            };
            println!("  [{}] {}{flag}", r.map_or("-", mark), c.what);
        }
        let mut o = Outcome { row, values, results, wall_s, write_failed: false };
        println!("{}", o.summary());
        if size == Size::Full {
            if let Err(e) = o.write() {
                eprintln!("[record] failed to write: {e}");
                o.write_failed = true;
            }
        }
        outcomes.push(o);
    }
    println!("\n##### summary #####");
    for o in &outcomes {
        println!("{}", o.summary());
    }
    let total: f64 = outcomes.iter().map(|o| o.wall_s).sum();
    let differ = outcomes.iter().filter(|o| !o.agrees()).count();
    let n = outcomes.len();
    println!("{n} rows in {total:.1} s; {differ} differ from their recorded check outcomes");
    outcomes
}
