//! Internal tag-space layout.
//!
//! The simulator reserves tags at and above [`Tag::INTERNAL_BASE`] for
//! runtime protocols. This module carves that space into non-overlapping
//! blocks so barriers, RPC replies, collectives and relays can never collide
//! with each other or with application tags.

use numagap_sim::Tag;

/// Block size: each protocol family gets 2^24 internal tag values.
pub const BLOCK: u32 = 1 << 24;

/// Dissemination-barrier tags.
pub const BARRIER_BLOCK: u32 = 0;
/// RPC reply tags (one per caller rank).
pub const RPC_BLOCK: u32 = BLOCK;
/// Collective-operation tags (managed by `coll::Coll`).
pub const COLL_BLOCK: u32 = 2 * BLOCK;
/// Cluster-relay tags used by two-level message combining.
pub const RELAY_BLOCK: u32 = 3 * BLOCK;
/// Runtime-internal application protocols (sequencers, work queues).
pub const SERVICE_BLOCK: u32 = 4 * BLOCK;

/// The RPC reply tag for a given caller rank.
///
/// Each rank has at most one outstanding RPC at a time (calls are blocking),
/// so one reply tag per rank suffices.
pub fn rpc_reply_tag(caller_rank: usize) -> Tag {
    Tag::internal(RPC_BLOCK + caller_rank as u32)
}

/// A tag in the collectives block.
pub fn coll_tag(offset: u32) -> Tag {
    assert!(
        offset < BLOCK,
        "collective tag offset {offset} out of block"
    );
    Tag::internal(COLL_BLOCK + offset)
}

/// A tag in the relay block.
pub fn relay_tag(offset: u32) -> Tag {
    assert!(offset < BLOCK, "relay tag offset {offset} out of block");
    Tag::internal(RELAY_BLOCK + offset)
}

/// A tag in the service block (sequencers, work queues, app services).
pub fn service_tag(offset: u32) -> Tag {
    assert!(offset < BLOCK, "service tag offset {offset} out of block");
    Tag::internal(SERVICE_BLOCK + offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_do_not_overlap() {
        let a = rpc_reply_tag(0).raw();
        let b = coll_tag(0).raw();
        let c = relay_tag(0).raw();
        let d = service_tag(0).raw();
        assert!(a < b && b < c && c < d);
        assert!(rpc_reply_tag(BLOCK as usize - 1).raw() < b);
    }

    #[test]
    #[should_panic(expected = "out of block")]
    fn coll_tag_bounds_checked() {
        let _ = coll_tag(BLOCK);
    }
}
