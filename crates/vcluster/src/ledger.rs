//! Wall-clock time ledgers implementing the paper's Eq. (7) decomposition:
//! `T_tot = T_comp + T_comm + T_sync + γ T_output + φ T_reinit`.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Execution-time category (paper §V.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Pure computational time.
    Comp,
    /// Point-to-point communication, including time blocked in
    /// `RankCtx::wait_each` (the paper folds `MPI_Waitall` into T_comm).
    Comm,
    /// Barrier / global synchronisation.
    Sync,
    /// Output generation.
    Output,
    /// Source re-initialisation (temporal repartitioning).
    Reinit,
}

impl Category {
    pub const ALL: [Category; 5] =
        [Category::Comp, Category::Comm, Category::Sync, Category::Output, Category::Reinit];

    pub const fn index(self) -> usize {
        match self {
            Category::Comp => 0,
            Category::Comm => 1,
            Category::Sync => 2,
            Category::Output => 3,
            Category::Reinit => 4,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Category::Comp => "comp",
            Category::Comm => "comm",
            Category::Sync => "sync",
            Category::Output => "output",
            Category::Reinit => "reinit",
        }
    }
}

/// Accumulated wall time per category for one rank.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeLedger {
    nanos: [u128; 5],
}

impl TimeLedger {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, cat: Category, d: Duration) {
        self.nanos[cat.index()] += d.as_nanos();
    }

    /// Time a closure, charging its duration to `cat`.
    pub fn time<T>(&mut self, cat: Category, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(cat, t0.elapsed());
        out
    }

    pub fn seconds(&self, cat: Category) -> f64 {
        self.nanos[cat.index()] as f64 * 1e-9
    }

    /// Total across categories (T_tot of Eq. 7).
    pub fn total_seconds(&self) -> f64 {
        self.nanos.iter().map(|&n| n as f64 * 1e-9).sum()
    }

    /// Merge another ledger into this one (summing).
    pub fn merge(&mut self, other: &TimeLedger) {
        for i in 0..5 {
            self.nanos[i] += other.nanos[i];
        }
    }

    /// Element-wise maximum — the critical-path combination used when
    /// reducing per-rank ledgers to a job-level breakdown.
    pub fn max_with(&mut self, other: &TimeLedger) {
        for i in 0..5 {
            self.nanos[i] = self.nanos[i].max(other.nanos[i]);
        }
    }

    /// Fractions per category of the total (zero total → zeros).
    pub fn fractions(&self) -> [f64; 5] {
        let tot = self.total_seconds();
        if tot == 0.0 {
            return [0.0; 5];
        }
        let mut out = [0.0; 5];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.nanos[i] as f64 * 1e-9 / tot;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_charges_category() {
        let mut l = TimeLedger::new();
        let v = l.time(Category::Comp, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(l.seconds(Category::Comp) >= 0.004);
        assert_eq!(l.seconds(Category::Comm), 0.0);
    }

    #[test]
    fn merge_sums() {
        let mut a = TimeLedger::new();
        a.add(Category::Comm, Duration::from_secs(1));
        let mut b = TimeLedger::new();
        b.add(Category::Comm, Duration::from_secs(2));
        b.add(Category::Sync, Duration::from_secs(3));
        a.merge(&b);
        assert_eq!(a.seconds(Category::Comm), 3.0);
        assert_eq!(a.seconds(Category::Sync), 3.0);
        assert_eq!(a.total_seconds(), 6.0);
    }

    #[test]
    fn max_with_takes_critical_path() {
        let mut a = TimeLedger::new();
        a.add(Category::Comp, Duration::from_secs(5));
        a.add(Category::Comm, Duration::from_secs(1));
        let mut b = TimeLedger::new();
        b.add(Category::Comp, Duration::from_secs(2));
        b.add(Category::Comm, Duration::from_secs(4));
        a.max_with(&b);
        assert_eq!(a.seconds(Category::Comp), 5.0);
        assert_eq!(a.seconds(Category::Comm), 4.0);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut l = TimeLedger::new();
        l.add(Category::Comp, Duration::from_secs(3));
        l.add(Category::Output, Duration::from_secs(1));
        let f = l.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[Category::Comp.index()] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_fractions_are_zero() {
        assert_eq!(TimeLedger::new().fractions(), [0.0; 5]);
    }

    #[test]
    fn category_indices_dense() {
        let mut seen = [false; 5];
        for c in Category::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }
}
