//! Property-based tests for the virtual-cluster substrate.

use awp_vcluster::cluster::{Cluster, CommMode};
use awp_vcluster::ledger::{Category, TimeLedger};
use awp_vcluster::message::make_tag;
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tag matching delivers every message to the right receive regardless
    /// of send order (the out-of-order-arrival property of §IV.A).
    #[test]
    fn tags_survive_arbitrary_send_order(perm_seed in any::<u64>(), n_msgs in 1usize..20) {
        let cluster = Cluster::new(2, CommMode::Asynchronous);
        let ok = cluster.run(|ctx| {
            if ctx.rank() == 0 {
                // Send n messages in a seed-determined order.
                let mut order: Vec<u64> = (0..n_msgs as u64).collect();
                let mut x = perm_seed | 1;
                for i in (1..order.len()).rev() {
                    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
                    order.swap(i, (x as usize) % (i + 1));
                }
                for t in order {
                    ctx.send(1, t, vec![t as f32]);
                }
                true
            } else {
                // Receive in ascending tag order.
                (0..n_msgs as u64).all(|t| ctx.recv(0, t) == vec![t as f32])
            }
        });
        prop_assert!(ok.iter().all(|&b| b));
    }

    /// make_tag is injective over its field ranges.
    #[test]
    fn tag_injective(a in (0u8..16, 0u8..16, 0u8..16, 0u64..1000),
                     b in (0u8..16, 0u8..16, 0u8..16, 0u64..1000)) {
        let ta = make_tag(a.0, a.1, a.2, a.3);
        let tb = make_tag(b.0, b.1, b.2, b.3);
        if a != b {
            prop_assert_ne!(ta, tb);
        } else {
            prop_assert_eq!(ta, tb);
        }
    }

    /// Ledger merge is associative-ish: merging in any order gives the
    /// same totals.
    #[test]
    fn ledger_merge_order_independent(ms in proptest::collection::vec(0u64..50, 1..6)) {
        let ledgers: Vec<TimeLedger> = ms
            .iter()
            .map(|&m| {
                let mut l = TimeLedger::new();
                l.add(Category::Comp, Duration::from_millis(m));
                l.add(Category::Comm, Duration::from_millis(m / 2));
                l
            })
            .collect();
        let mut fwd = TimeLedger::new();
        for l in &ledgers {
            fwd.merge(l);
        }
        let mut rev = TimeLedger::new();
        for l in ledgers.iter().rev() {
            rev.merge(l);
        }
        prop_assert!((fwd.total_seconds() - rev.total_seconds()).abs() < 1e-12);
        prop_assert!(
            (fwd.seconds(Category::Comm) - rev.seconds(Category::Comm)).abs() < 1e-12
        );
    }
}

/// All-to-all storm: every rank sends to every other rank with unique
/// tags; every payload arrives intact (non-proptest stress test).
#[test]
fn all_to_all_storm() {
    let n = 6;
    for mode in [CommMode::Asynchronous] {
        let cluster = Cluster::new(n, mode);
        let sums: Vec<f32> = cluster.run(|ctx| {
            let me = ctx.rank();
            for dst in 0..n {
                if dst != me {
                    let tag = make_tag(3, me as u8, dst as u8, 0);
                    ctx.send(dst, tag, vec![(me * 10 + dst) as f32; 8]);
                }
            }
            let mut sum = 0.0f32;
            for src in 0..n {
                if src != me {
                    let tag = make_tag(3, src as u8, me as u8, 0);
                    let v = ctx.recv(src, tag);
                    assert_eq!(v.len(), 8);
                    sum += v[0];
                }
            }
            sum
        });
        for (me, s) in sums.iter().enumerate() {
            let want: f32 = (0..n).filter(|&src| src != me).map(|src| (src * 10 + me) as f32).sum();
            assert_eq!(*s, want, "rank {me}");
        }
    }
}
