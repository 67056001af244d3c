//! Message envelopes. Every payload is a `Vec<f32>`: wavefield halos,
//! material halos, partitioned mesh planes and the probes all carry `f32`.

/// Message tag. AWP-ODC's asynchronous model gives every in-flight transfer
/// a unique tag so out-of-order arrivals stay unambiguous (paper §IV.A).
pub type Tag = u64;

/// Build a tag from small structured parts: a phase (velocity/stress/IO…),
/// a field id, a face id and a step counter. Layout (low → high bits):
/// face (4) | field (8) | phase (8) | step (44).
pub fn make_tag(phase: u8, field: u8, face: u8, step: u64) -> Tag {
    debug_assert!(face < 16);
    (face as u64) | ((field as u64) << 4) | ((phase as u64) << 12) | (step << 20)
}

/// An in-flight message.
#[derive(Debug)]
pub struct Message {
    pub src: usize,
    pub tag: Tag,
    /// Moved, never copied: the halo pipeline recycles the sender's
    /// pooled allocation on the receiving side.
    pub payload: Vec<f32>,
    /// Sender's Lamport-clock stamp (message lineage, PR 9): the receiver
    /// merges it into its own logical clock on match, which is what lets
    /// the causal analyzer join send→recv edges across ranks.
    pub clock: u64,
    /// Rendezvous acknowledgement: present for synchronous-mode sends; the
    /// receiver drops it on match, unblocking the sender.
    pub ack: Option<crossbeam::channel::Sender<()>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_distinguish_all_fields() {
        let base = make_tag(1, 2, 3, 4);
        assert_ne!(base, make_tag(2, 2, 3, 4));
        assert_ne!(base, make_tag(1, 3, 3, 4));
        assert_ne!(base, make_tag(1, 2, 4, 4));
        assert_ne!(base, make_tag(1, 2, 3, 5));
    }

    #[test]
    fn tag_steps_do_not_collide_across_faces() {
        // A full exchange epoch uses ≤ 16 faces × 256 fields; consecutive
        // steps must never alias.
        let a = make_tag(0, 255, 15, 7);
        let b = make_tag(0, 0, 0, 8);
        assert!(a < b);
    }
}
