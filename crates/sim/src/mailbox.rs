//! Per-process mailboxes: the messages a rank has not received yet, in
//! arrival order.
//!
//! A receive takes the oldest parked message its filter accepts, which is
//! a front-to-back scan of one queue. Most receives never reach it: a
//! message that arrives while its receiver is blocked on a filter that
//! accepts it goes straight to the receiver (the fast path in the kernel's
//! `deliver`), so the queue holds only messages that arrived before anyone
//! asked for them.

use std::collections::VecDeque;

use crate::message::{Filter, Message};

#[derive(Default)]
pub(crate) struct Mailbox(VecDeque<Message>);

impl Mailbox {
    /// Parks a delivered message.
    pub(crate) fn push(&mut self, msg: Message) {
        self.0.push_back(msg);
    }

    /// Removes and returns the oldest parked message `filter` accepts,
    /// adding the number of parked messages it examined to `scanned`.
    pub(crate) fn take(&mut self, filter: &Filter, scanned: &mut u64) -> Option<Message> {
        let found = self.0.iter().position(|m| filter.matches(m));
        *scanned += found.map_or(self.0.len(), |i| i + 1) as u64;
        self.0.remove(found?)
    }

    /// Parked messages in arrival order (diagnostics: deadlock snapshots).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Message> {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;
    use crate::time::SimTime;
    use crate::ProcId;
    use std::sync::Arc;

    fn msg(seq: u64, src: usize, tag: Tag) -> Message {
        Message {
            seq,
            src: ProcId(src),
            tag,
            wire_bytes: 8,
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
            payload: Arc::new(seq),
        }
    }

    #[test]
    fn tag_take_returns_oldest_of_that_tag_not_oldest_overall() {
        let mut mb = Mailbox::default();
        let mut c = 0;
        mb.push(msg(0, 0, Tag::app(5))); // older, different tag
        mb.push(msg(1, 0, Tag::app(9)));
        mb.push(msg(2, 0, Tag::app(9)));
        let got = mb.take(&Filter::tag(Tag::app(9)), &mut c).unwrap();
        assert_eq!(got.seq, 1, "oldest app(9), skipping the parked app(5)");
        assert_eq!(c, 2, "examined app(5), then the taken app(9)");
        // The skipped app(5) message is untouched and still oldest overall.
        let got = mb.take(&Filter::any(), &mut c).unwrap();
        assert_eq!(got.seq, 0);
        // A miss examines every parked message.
        assert!(mb.take(&Filter::tag(Tag::app(5)), &mut c).is_none());
        assert_eq!(c, 4);
    }

    #[test]
    fn reserved_internal_tags_do_not_collide_with_app_tags() {
        let mut mb = Mailbox::default();
        let mut c = 0;
        mb.push(msg(0, 0, Tag::internal(2)));
        mb.push(msg(1, 0, Tag::app(2)));
        assert!(mb.take(&Filter::tag(Tag::app(2)), &mut c).is_some());
        assert!(mb.take(&Filter::tag(Tag::app(2)), &mut c).is_none());
        assert!(mb.take(&Filter::tag(Tag::internal(2)), &mut c).is_some());
    }

    #[test]
    fn set_filter_takes_global_oldest_across_tags() {
        let mut mb = Mailbox::default();
        let mut c = 0;
        mb.push(msg(0, 1, Tag::app(3)));
        mb.push(msg(1, 1, Tag::app(1)));
        mb.push(msg(2, 1, Tag::app(2)));
        let f = Filter::one_of(&[Tag::app(1), Tag::app(2), Tag::app(3)]);
        let order: Vec<u64> = std::iter::from_fn(|| mb.take(&f, &mut c).map(|m| m.seq)).collect();
        assert_eq!(order, vec![0, 1, 2], "arrival order, not set order");
    }

    #[test]
    fn src_filter_skips_other_senders_within_a_tag() {
        let mut mb = Mailbox::default();
        let mut c = 0;
        mb.push(msg(0, 0, Tag::app(4)));
        mb.push(msg(1, 1, Tag::app(4)));
        let f = Filter::tag(Tag::app(4)).from(ProcId(1));
        assert_eq!(mb.take(&f, &mut c).unwrap().seq, 1);
        assert_eq!(mb.take(&Filter::any(), &mut c).unwrap().seq, 0);
    }
}
