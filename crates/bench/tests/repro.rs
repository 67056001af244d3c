//! Every `awp repro` row at smoke size on coarse grids: each row runs and
//! gives finite values, and the checks a smoke run can judge — registry,
//! analytic model, plan volumes, allocation ledgers and bit-exactness
//! contracts — give their recorded outcomes. Solver and wall-clock checks
//! are judged at full size by `awp repro`.

use awp_bench::repro::{reproduce, select, Size, ROWS};
use serde_json::Value;

fn all_finite(v: &Value) -> bool {
    match v {
        Value::Array(a) => a.iter().all(all_finite),
        Value::Object(o) => o.values().all(all_finite),
        _ => v.as_f64().is_none_or(f64::is_finite),
    }
}

#[test]
fn every_row_runs_at_smoke_size() {
    for o in reproduce(ROWS, Size::Smoke) {
        assert!(all_finite(&o.values), "{}: non-finite value in {:?}", o.row.id, o.values);
        let differing: Vec<_> = o.differing().map(|c| c.what).collect();
        assert!(
            differing.is_empty(),
            "{}: outcome differs from the record: {differing:?}",
            o.row.id
        );
    }
}

#[test]
fn ids_are_unique_and_selectable() {
    for (i, a) in ROWS.iter().enumerate() {
        assert!(!a.checks.is_empty(), "{} has no check", a.id);
        assert!(ROWS[i + 1..].iter().all(|b| b.id != a.id && b.record != a.record), "{}", a.id);
    }
    assert_eq!(select(&["f23".into(), "T1".into()]).unwrap()[1].id, "T1");
    assert!(matches!(select(&["F99".into()]), Err(e) if e.contains("F99")));
    assert_eq!(select(&[]).unwrap().len(), ROWS.len());
}

#[test]
fn every_judged_check_is_held_to_its_recorded_outcome() {
    use awp_bench::repro::{Outcome, Verdict};
    let f13 = select(&["F13".into()]).unwrap()[0];
    assert_eq!(f13.expect(), Verdict::Partial);
    let outcome = |results: Vec<Option<bool>>| Outcome {
        row: f13,
        values: Value::Null,
        results,
        wall_s: 0.0,
        write_failed: false,
    };
    let recorded: Vec<Option<bool>> = f13.checks.iter().map(|c| Some(c.expect)).collect();
    assert!(outcome(recorded.clone()).agrees());
    // Still ~, but a model check that failed when recorded now holds.
    let mut flipped = recorded;
    flipped[0] = Some(true);
    let o = outcome(flipped);
    assert_eq!(o.verdict(), Some(Verdict::Partial));
    assert_eq!(o.differing().map(|c| c.what).collect::<Vec<_>>(), [f13.checks[0].what]);
    // An unjudged check (a run check on a smoke run) cannot differ.
    assert!(outcome(f13.checks.iter().map(|c| c.model.then_some(c.expect)).collect()).agrees());
}
