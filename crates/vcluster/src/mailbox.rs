//! Per-rank mailboxes with `(source, tag)` matching.

use crate::fault::AbortUnwind;
use crate::message::{Message, Tag};
use crate::schedule::SchedulePlan;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// A queued message plus its remaining schedule-fuzz hold-back: matching
/// probes skip the entry (decrementing `defer`) until it reaches zero.
struct Queued {
    msg: Message,
    defer: u32,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Queued>,
    /// Set on cluster teardown: receivers unwind instead of blocking
    /// forever, new deliveries are discarded.
    poisoned: bool,
    /// Schedule-fuzz policy (None in production: zero-cost FIFO path).
    policy: Option<Arc<SchedulePlan>>,
    /// Rank that owns this mailbox, for policy hashing.
    rank: usize,
    /// Per-(src, tag) arrival counter feeding the policy's decisions.
    occ: HashMap<(usize, Tag), u64>,
}

/// Outcome of one matching pass over the queue.
enum Probe {
    /// An eligible match was removed from the queue.
    Hit(Message),
    /// Matches exist but all are held back by the schedule policy; the
    /// pass decremented their defer counts, so retrying makes progress.
    Deferred,
    /// No message from this (src, tag) is queued.
    Miss,
}

/// Find the first eligible (defer == 0) match for `(src, tag)` and remove
/// it. Matching entries that are still held back have their defer count
/// decremented, so every probe moves deferred messages toward delivery —
/// the fuzzer can reorder but never starve a receive.
fn probe(s: &mut State, src: usize, tag: Tag) -> Probe {
    let mut deferred = false;
    let mut hit = None;
    for (i, q) in s.queue.iter_mut().enumerate() {
        if q.msg.src == src && q.msg.tag == tag {
            if q.defer == 0 {
                hit = Some(i);
                break;
            }
            q.defer -= 1;
            deferred = true;
        }
    }
    if let Some(i) = hit {
        let q = s.queue.remove(i).expect("position just found");
        return Probe::Hit(q.msg);
    }
    if deferred {
        Probe::Deferred
    } else {
        Probe::Miss
    }
}

/// How long a receiver naps before re-probing a deferred match. Short:
/// the defer budget is small (a few probes), so this only stretches a
/// receive by microseconds while still yielding the lock.
const DEFER_NAP: Duration = Duration::from_micros(200);

/// Unexpected-message queue plus wakeup for blocked receivers.
#[derive(Default)]
pub struct Mailbox {
    state: Mutex<State>,
    cv: Condvar,
}

impl Mailbox {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a schedule-perturbation policy (test harness only). Must be
    /// installed before the run starts delivering messages.
    pub(crate) fn set_policy(&self, plan: Arc<SchedulePlan>, rank: usize) {
        let mut s = self.state.lock();
        s.policy = Some(plan);
        s.rank = rank;
        s.occ.clear();
    }

    /// Deliver a message (eager/buffered path): enqueue and wake receivers.
    /// Messages delivered to a poisoned mailbox are dropped (their
    /// rendezvous ack channel closes, unblocking the sender with an error).
    /// Under a schedule policy the insertion slot and a per-message defer
    /// count are drawn deterministically from (seed, rank, src, tag,
    /// occurrence).
    pub fn deliver(&self, msg: Message) {
        let mut s = self.state.lock();
        if s.poisoned {
            return;
        }
        if let Some(plan) = s.policy.clone() {
            let key = (msg.src, msg.tag);
            let occ = {
                let n = s.occ.entry(key).or_insert(0);
                let o = *n;
                *n += 1;
                o
            };
            let defer = plan.defer_count(s.rank, msg.src, msg.tag, occ);
            let depth = plan.insert_depth(s.rank, msg.src, msg.tag, occ).min(s.queue.len());
            let at = s.queue.len() - depth;
            s.queue.insert(at, Queued { msg, defer });
        } else {
            s.queue.push_back(Queued { msg, defer: 0 });
        }
        self.cv.notify_all();
    }

    /// Matched take: remove the first eligible message from `src` with
    /// `tag`, release its rendezvous sender, and return the payload with
    /// the envelope's Lamport stamp (the receiver merges it into its
    /// logical clock). Without `block`, returns `None` when nothing is
    /// eligible yet. Blocking, it naps while a match is held back by the
    /// schedule policy, and unwinds with `AbortUnwind` when nothing is
    /// queued and the mailbox is poisoned.
    pub(crate) fn take(&self, src: usize, tag: Tag, block: bool) -> Option<(Vec<f32>, u64)> {
        let mut s = self.state.lock();
        loop {
            match probe(&mut s, src, tag) {
                Probe::Hit(msg) => {
                    drop(s);
                    if let Some(ack) = msg.ack {
                        // Receiver matched: release the rendezvous sender.
                        // The sender may have timed-out only on cluster
                        // teardown, so a closed channel is fine to ignore.
                        let _ = ack.send(());
                    }
                    return Some((msg.payload, msg.clock));
                }
                _ if !block => return None,
                Probe::Deferred => {
                    // A match is queued but held back: nap briefly and
                    // re-probe (each probe decrements the hold-back, so
                    // this terminates).
                    let _ = self.cv.wait_for(&mut s, DEFER_NAP);
                }
                Probe::Miss => {
                    if s.poisoned {
                        drop(s);
                        std::panic::panic_any(AbortUnwind);
                    }
                    self.cv.wait(&mut s);
                }
            }
        }
    }

    /// Tear the mailbox down: drop all queued messages (closing their
    /// rendezvous ack channels) and wake every blocked receiver so it can
    /// unwind.
    pub(crate) fn poison(&self) {
        let mut s = self.state.lock();
        s.poisoned = true;
        s.queue.clear();
        s.occ.clear();
        self.cv.notify_all();
    }

    /// Clear the poison flag so the mailbox can serve a fresh pass
    /// (restart after a fault). The queue was already drained by `poison`;
    /// arrival counters restart too so a schedule plan perturbs every pass
    /// identically.
    pub(crate) fn unpoison(&self) {
        let mut s = self.state.lock();
        s.poisoned = false;
        s.occ.clear();
    }

    /// Number of queued (unmatched) messages.
    pub fn pending(&self) -> usize {
        self.state.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn msg(src: usize, tag: Tag, v: Vec<f32>) -> Message {
        Message { src, tag, payload: v, clock: 0, ack: None }
    }

    fn recv(mb: &Mailbox, src: usize, tag: Tag) -> Vec<f32> {
        mb.take(src, tag, true).expect("a blocking take returns a message").0
    }

    #[test]
    fn matches_by_src_and_tag() {
        let mb = Mailbox::new();
        mb.deliver(msg(1, 10, vec![1.0]));
        mb.deliver(msg(2, 10, vec![2.0]));
        mb.deliver(msg(1, 11, vec![3.0]));
        assert_eq!(recv(&mb, 2, 10), vec![2.0]);
        assert_eq!(recv(&mb, 1, 11), vec![3.0]);
        assert_eq!(recv(&mb, 1, 10), vec![1.0]);
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn out_of_order_arrival_is_matched() {
        // The asynchronous model's key property: arrival order ≠ receive
        // order, tags keep integrity.
        let mb = Mailbox::new();
        for t in (0..10u64).rev() {
            mb.deliver(msg(0, t, vec![t as f32]));
        }
        for t in 0..10u64 {
            assert_eq!(recv(&mb, 0, t), vec![t as f32]);
        }
    }

    #[test]
    fn try_recv_returns_none_when_absent() {
        let mb = Mailbox::new();
        mb.deliver(msg(0, 1, vec![]));
        assert!(mb.take(0, 2, false).is_none());
        assert!(mb.take(1, 1, false).is_none());
        assert!(mb.take(0, 1, false).is_some());
    }

    #[test]
    fn blocking_recv_wakes_on_delivery() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || recv(&mb2, 3, 7));
        std::thread::sleep(Duration::from_millis(20));
        mb.deliver(msg(3, 7, vec![9.0]));
        assert_eq!(h.join().unwrap(), vec![9.0]);
    }

    #[test]
    fn rendezvous_ack_fires_on_match() {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let mb = Mailbox::new();
        mb.deliver(Message { src: 0, tag: 5, payload: Vec::new(), clock: 0, ack: Some(tx) });
        assert!(rx.try_recv().is_err(), "ack must not fire before match");
        let _ = mb.take(0, 5, true);
        assert!(rx.try_recv().is_ok(), "ack must fire on match");
    }

    #[test]
    fn poison_wakes_blocked_receiver() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mb2.take(0, 1, true))).is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        mb.poison();
        assert!(h.join().unwrap(), "poison must unwind a blocked receiver");
    }

    #[test]
    fn poison_closes_rendezvous_acks_and_discards() {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let mb = Mailbox::new();
        mb.deliver(Message { src: 0, tag: 5, payload: Vec::new(), clock: 0, ack: Some(tx) });
        mb.poison();
        assert_eq!(mb.pending(), 0);
        // The queued message (and its ack sender) is gone: a rendezvous
        // sender blocked on this channel now observes disconnection.
        assert!(matches!(rx.recv(), Err(crossbeam::channel::RecvError)));
        // Post-poison deliveries are discarded.
        mb.deliver(Message { src: 1, tag: 6, payload: Vec::new(), clock: 0, ack: None });
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn traced_receives_surface_the_envelope_clock() {
        let mb = Mailbox::new();
        mb.deliver(Message { src: 2, tag: 9, payload: vec![1.0], clock: 41, ack: None });
        mb.deliver(Message { src: 2, tag: 10, payload: Vec::new(), clock: 42, ack: None });
        mb.deliver(Message { src: 2, tag: 11, payload: Vec::new(), clock: 43, ack: None });
        assert_eq!(mb.take(2, 9, true), Some((vec![1.0], 41)));
        let (_, c) = mb.take(2, 10, false).expect("queued");
        assert_eq!(c, 42);
        let (_, c) = mb.take(2, 11, true).expect("queued");
        assert_eq!(c, 43);
    }

    #[test]
    fn policy_preserves_matched_delivery() {
        // Under an aggressive plan every message is still receivable, and
        // per-(src, tag) content is exactly what was sent.
        let mb = Mailbox::new();
        mb.set_policy(SchedulePlan::with_bounds(0xABCD, 3, 4), 0);
        for t in 0..12u64 {
            mb.deliver(msg(0, t, vec![t as f32]));
            mb.deliver(msg(1, t, vec![100.0 + t as f32]));
        }
        for t in 0..12u64 {
            assert_eq!(recv(&mb, 1, t), vec![100.0 + t as f32]);
            assert_eq!(recv(&mb, 0, t), vec![t as f32]);
        }
        assert_eq!(mb.pending(), 0);
    }

    #[test]
    fn policy_keeps_same_src_tag_fifo_content_wise() {
        // Two messages with the SAME (src, tag): the fuzzer may reorder
        // them in the queue, and tag matching alone cannot distinguish
        // them — the vcluster protocols never rely on same-(src,tag)
        // ordering within a step (tags embed step and face). Both must
        // still be delivered.
        let mb = Mailbox::new();
        mb.set_policy(SchedulePlan::with_bounds(99, 2, 3), 1);
        mb.deliver(msg(4, 8, vec![1.0]));
        mb.deliver(msg(4, 8, vec![2.0]));
        let mut got = vec![recv(&mb, 4, 8)[0], recv(&mb, 4, 8)[0]];
        got.sort_by(f32::total_cmp);
        assert_eq!(got, vec![1.0, 2.0]);
    }

    #[test]
    fn deferred_match_does_not_block_try_recv_forever() {
        let mb = Mailbox::new();
        mb.set_policy(SchedulePlan::with_bounds(5, 3, 0), 0);
        mb.deliver(msg(0, 1, vec![7.0]));
        // At most max_defer probes return None; then the message appears.
        let mut seen = None;
        for _ in 0..8 {
            if let Some((p, _)) = mb.take(0, 1, false) {
                seen = Some(p);
                break;
            }
        }
        assert_eq!(seen, Some(vec![7.0]));
    }

    #[test]
    fn blocking_recv_survives_defer() {
        let mb = Arc::new(Mailbox::new());
        mb.set_policy(SchedulePlan::with_bounds(13, 3, 2), 0);
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || recv(&mb2, 2, 9));
        std::thread::sleep(Duration::from_millis(10));
        mb.deliver(msg(2, 9, vec![4.5]));
        assert_eq!(h.join().unwrap(), vec![4.5]);
    }
}
