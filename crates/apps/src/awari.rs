//! Awari — parallel retrograde analysis (endgame database construction).
//!
//! A stage-structured game graph stands in for the real Awari board (whose
//! 9-stone database needs gigabytes): states live in *levels* (stones on the
//! board); every state's moves lead to the level below; level-0 states are
//! terminal with known values. Values are computed bottom-up, one stage per
//! level, by **backward induction**: a state WINs if any successor LOSEs,
//! and LOSEs if all successors WIN.
//!
//! States are hashed across processors. Per stage, every owner announces one
//! tiny *edge* message per move to the successor's owner and receives a tiny
//! *value* reply — the flood of small asynchronous messages the paper
//! describes (>4000 messages/s/cluster).
//!
//! * **Unoptimized**: the original program already combines messages per
//!   destination *processor* (the paper's baseline).
//! * **Optimized** (paper §3.2): a second combining layer batches everything
//!   bound for a remote *cluster* into one message, unpacked by a relay
//!   processor on the far side. Too much combining delays replies and starves
//!   processors at stage ends — the load-imbalance the paper observed.

use std::any::Any;
use std::collections::HashMap;

use numagap_rt::{ClusterCombiner, Combiner, Ctx};
use numagap_sim::{Filter, Message, Tag};

use crate::common::{mix64, RankOutput, Variant};

/// Awari problem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AwariConfig {
    /// Number of non-terminal levels (stages to compute).
    pub levels: usize,
    /// States per level.
    pub states_per_level: usize,
    /// Workload seed.
    pub seed: u64,
    /// Virtual nanoseconds to generate a state's moves.
    pub state_ns: f64,
    /// Virtual nanoseconds to process one edge or value item.
    pub edge_ns: f64,
    /// Combining threshold (items per batch before an automatic flush).
    pub combine: usize,
}

impl AwariConfig {
    /// Test-scale instance.
    pub fn small() -> Self {
        AwariConfig {
            levels: 4,
            states_per_level: 120,
            seed: 17,
            state_ns: 20_000.0,
            edge_ns: 2_000.0,
            combine: 8,
        }
    }

    /// Bench-scale instance (the paper's small 9-stone database regime:
    /// communication-dominated, thousands of messages per second).
    pub fn medium() -> Self {
        AwariConfig {
            levels: 8,
            states_per_level: 4000,
            seed: 17,
            state_ns: 600_000.0,
            edge_ns: 10_000.0,
            combine: 16,
        }
    }

    /// A larger database (stand-in for the paper's full 9-stone run).
    pub fn paper() -> Self {
        AwariConfig {
            levels: 9,
            states_per_level: 6000,
            seed: 17,
            state_ns: 20_000.0,
            edge_ns: 2_000.0,
            combine: 16,
        }
    }

    /// Global id of state `idx` at `level`.
    pub fn state_id(&self, level: usize, idx: usize) -> u64 {
        (level as u64) << 32 | idx as u64
    }

    /// Out-degree (number of moves) of a state; deterministic, 2..=5.
    pub fn degree(&self, id: u64) -> usize {
        2 + (mix64(self.seed ^ id ^ 0xD16) % 4) as usize
    }

    /// The `i`-th successor (at the level below) of state `id`.
    pub fn successor(&self, id: u64, i: usize) -> usize {
        (mix64(self.seed ^ id.wrapping_mul(31) ^ (i as u64) << 17) % self.states_per_level as u64)
            as usize
    }

    /// Terminal value of a level-0 state.
    pub fn terminal_value(&self, idx: usize) -> bool {
        mix64(self.seed ^ self.state_id(0, idx)) & 1 == 0
    }

    /// Which rank owns a state (hashed distribution, as in the paper).
    pub fn owner(&self, id: u64, p: usize) -> usize {
        (mix64(id ^ 0x0A11) % p as u64) as usize
    }

    /// Deterministic per-state contribution to the database checksum.
    fn contribution(&self, id: u64, value: bool) -> f64 {
        if value {
            (mix64(id ^ 0xC4EC) % 1000) as f64 / 7.0
        } else {
            -((mix64(id ^ 0xC4EC) % 100) as f64) / 3.0
        }
    }
}

/// Serial backward induction over the whole database; returns the checksum.
pub fn serial_awari(cfg: &AwariConfig) -> f64 {
    let s = cfg.states_per_level;
    let mut below: Vec<bool> = (0..s).map(|i| cfg.terminal_value(i)).collect();
    let mut checksum: f64 = below
        .iter()
        .enumerate()
        .map(|(i, &v)| cfg.contribution(cfg.state_id(0, i), v))
        .sum();
    for level in 1..=cfg.levels {
        let mut current = vec![false; s];
        for (idx, cur) in current.iter_mut().enumerate() {
            let id = cfg.state_id(level, idx);
            let win = (0..cfg.degree(id)).any(|i| !below[cfg.successor(id, i)]);
            *cur = win;
            checksum += cfg.contribution(id, win);
        }
        below = current;
    }
    checksum
}

/// A move announcement: "state `u_id` has a move to your state `v_idx`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeItem {
    /// The predecessor (the announcing owner's state).
    pub u_id: u64,
    /// The successor index at the level below.
    pub v_idx: u32,
}

/// A value reply: "your state `u_id`'s successor has value `v_value`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueItem {
    /// The predecessor whose counter this reply decrements.
    pub u_id: u64,
    /// The successor's game value.
    pub v_value: bool,
}

const EDGE_ITEM_BYTES: u64 = 12;
const VALUE_ITEM_BYTES: u64 = 9;

fn tags(stage: usize) -> [Tag; 4] {
    let base = 0x3000 + 0x10 * stage as u32;
    [
        Tag::app(base),     // EDGE data
        Tag::app(base + 1), // EDGE relay
        Tag::app(base + 2), // VALUE data
        Tag::app(base + 3), // VALUE relay
    ]
}

/// One phase's outgoing items: combined per destination rank (the
/// unoptimized variant), or per rank within the cluster and per cluster
/// beyond it, through the far cluster's relay (the optimized one).
enum Sender<T> {
    Flat(Combiner<T>),
    Clustered(ClusterCombiner<T>),
}

impl<T: Any + Send + Sync + Clone> Sender<T> {
    fn new(
        variant: Variant,
        [data_tag, relay_tag]: [Tag; 2],
        item_bytes: u64,
        combine: usize,
    ) -> Self {
        match variant {
            Variant::Unoptimized => Sender::Flat(Combiner::new(data_tag, item_bytes, combine)),
            Variant::Optimized => Sender::Clustered(ClusterCombiner::new(
                data_tag, relay_tag, item_bytes, combine,
            )),
        }
    }

    fn add(&mut self, ctx: &mut Ctx<'_>, dst: usize, item: T) {
        match self {
            Sender::Flat(c) => c.add(ctx, dst, item),
            Sender::Clustered(c) => c.add(ctx, dst, item),
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<'_>) {
        match self {
            Sender::Flat(c) => c.flush(ctx),
            Sender::Clustered(c) => c.flush(ctx),
        }
    }

    /// Forwards a cluster batch this rank relays to its final destinations.
    fn relay(&self, ctx: &mut Ctx<'_>, msg: Message) {
        match self {
            Sender::Flat(_) => unreachable!("per-rank combining sends no relay batches"),
            Sender::Clustered(c) => c.handle_relay(ctx, msg),
        }
    }
}

/// Runs Awari on one rank; the checksum is this rank's share of the database
/// checksum.
pub fn awari_rank(ctx: &mut Ctx<'_>, cfg: &AwariConfig, variant: Variant) -> RankOutput {
    let p = ctx.nprocs();
    let me = ctx.rank();
    let s = cfg.states_per_level;

    // Stage 0: terminal values, local.
    let mut below: HashMap<u32, bool> = HashMap::new();
    let mut checksum = 0.0;
    let mut owned0 = 0u64;
    for idx in 0..s {
        let id = cfg.state_id(0, idx);
        if cfg.owner(id, p) == me {
            let v = cfg.terminal_value(idx);
            below.insert(idx as u32, v);
            checksum += cfg.contribution(id, v);
            owned0 += 1;
        }
    }
    ctx.compute_ns(owned0 as f64 * cfg.state_ns);
    let mut work = owned0;

    for stage in 1..=cfg.levels {
        let [edge_tag, edge_relay, value_tag, value_relay] = tags(stage);
        let topo = ctx.topology();

        // ---- Deterministic per-stage expectations ----
        // Real retrograde analysis knows its move structure analytically (the
        // number of reverse moves into each position is computable), so the
        // termination counts need no control traffic; every rank derives them
        // from the shared generator. See DESIGN.md.
        let mut edges_expected: u64 = 0;
        let mut edge_relay_expected: u64 = 0;
        let mut value_relay_expected: u64 = 0;
        for idx in 0..s {
            let u = cfg.state_id(stage, idx);
            let ou = cfg.owner(u, p);
            let cu = topo.cluster_of_rank(ou);
            for i in 0..cfg.degree(u) {
                let v_id = cfg.state_id(stage - 1, cfg.successor(u, i));
                let ov = cfg.owner(v_id, p);
                if ov == me {
                    edges_expected += 1;
                }
                if variant == Variant::Optimized {
                    let cv = topo.cluster_of_rank(ov);
                    if cu != cv {
                        if topo.cluster_root(cv) == me {
                            edge_relay_expected += 1;
                        }
                        if topo.cluster_root(cu) == me {
                            value_relay_expected += 1;
                        }
                    }
                }
            }
        }

        // ---- Phase A: announce edges for my states at this level ----
        let mut pending: HashMap<u64, (u8, bool)> = HashMap::new();
        let mut announced: u64 = 0;
        // Kept through Phase B: relayed edge batches go out through its
        // relay handler.
        let mut edge_sender = Sender::new(
            variant,
            [edge_tag, edge_relay],
            EDGE_ITEM_BYTES,
            cfg.combine,
        );
        for idx in 0..s {
            let id = cfg.state_id(stage, idx);
            if cfg.owner(id, p) != me {
                continue;
            }
            let deg = cfg.degree(id);
            ctx.compute_ns(cfg.state_ns);
            work += 1;
            pending.insert(id, (deg as u8, false));
            for i in 0..deg {
                let v_idx = cfg.successor(id, i);
                let v_id = cfg.state_id(stage - 1, v_idx);
                let dst = cfg.owner(v_id, p);
                announced += 1;
                let item = EdgeItem {
                    u_id: id,
                    v_idx: v_idx as u32,
                };
                edge_sender.add(ctx, dst, item);
            }
        }
        edge_sender.flush(ctx);

        // ---- Phase B: serve edges (replying immediately, combined), collect
        // values, relay cluster bundles ----
        let mut value_sender = Sender::new(
            variant,
            [value_tag, value_relay],
            VALUE_ITEM_BYTES,
            cfg.combine,
        );
        let mut edges_processed: u64 = 0;
        let mut edge_relayed: u64 = 0;
        let mut value_relayed: u64 = 0;
        let mut values_received: u64 = 0;
        let mut final_flush_done = false;
        let mut level_values: HashMap<u32, bool> = HashMap::new();

        let filter = Filter::one_of(&[edge_tag, edge_relay, value_tag, value_relay]);
        loop {
            if edges_processed == edges_expected && !final_flush_done {
                // All incoming requests answered; push out the stragglers.
                value_sender.flush(ctx);
                final_flush_done = true;
            }
            if final_flush_done
                && values_received == announced
                && edge_relayed == edge_relay_expected
                && value_relayed == value_relay_expected
            {
                break;
            }

            let msg = ctx.recv(filter);
            match msg.tag {
                t if t == edge_tag => {
                    let items = msg.expect_ref::<Vec<EdgeItem>>().clone();
                    edges_processed += items.len() as u64;
                    ctx.compute_ns(items.len() as f64 * cfg.edge_ns);
                    for item in items {
                        let dst = cfg.owner(item.u_id, p);
                        let v_value = *below
                            .get(&item.v_idx)
                            .expect("successor value must be final in the previous stage");
                        value_sender.add(
                            ctx,
                            dst,
                            ValueItem {
                                u_id: item.u_id,
                                v_value,
                            },
                        );
                    }
                }
                t if t == value_tag => {
                    let items = msg.expect_ref::<Vec<ValueItem>>();
                    ctx.compute_ns(items.len() as f64 * cfg.edge_ns);
                    for item in items {
                        values_received += 1;
                        let entry = pending
                            .get_mut(&item.u_id)
                            .expect("value reply for unknown state");
                        entry.0 -= 1;
                        if !item.v_value {
                            entry.1 = true;
                        }
                        if entry.0 == 0 {
                            let win = entry.1;
                            let idx = (item.u_id & 0xFFFF_FFFF) as u32;
                            level_values.insert(idx, win);
                            checksum += cfg.contribution(item.u_id, win);
                        }
                    }
                }
                t if t == edge_relay => {
                    let n = msg.expect_ref::<Vec<(u32, EdgeItem)>>().len() as u64;
                    edge_relayed += n;
                    // Relaying is a regroup-and-resend, far cheaper than the
                    // real per-edge processing.
                    ctx.compute_ns(n as f64 * cfg.edge_ns * 0.05);
                    edge_sender.relay(ctx, msg);
                }
                t if t == value_relay => {
                    let n = msg.expect_ref::<Vec<(u32, ValueItem)>>().len() as u64;
                    value_relayed += n;
                    ctx.compute_ns(n as f64 * cfg.edge_ns * 0.05);
                    value_sender.relay(ctx, msg);
                }
                _ => unreachable!("filtered tag"),
            }
        }
        below = level_values;
    }

    RankOutput::new(checksum, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{rel_err, total_checksum};
    use numagap_net::{das_spec, uniform_spec};
    use numagap_rt::Machine;

    #[test]
    fn serial_backward_induction_properties() {
        let cfg = AwariConfig::small();
        // Recompute level 1 by hand for a few states.
        let s = cfg.states_per_level;
        let below: Vec<bool> = (0..s).map(|i| cfg.terminal_value(i)).collect();
        for idx in 0..10 {
            let id = cfg.state_id(1, idx);
            let win = (0..cfg.degree(id)).any(|i| !below[cfg.successor(id, i)]);
            // Degree is in the documented range.
            let d = cfg.degree(id);
            assert!((2..=5).contains(&d));
            // Winning iff some successor loses — tautological here, but locks
            // the generator's determinism.
            let win2 = (0..d).any(|i| !below[cfg.successor(id, i)]);
            assert_eq!(win, win2);
        }
        let c1 = serial_awari(&cfg);
        let c2 = serial_awari(&cfg);
        assert_eq!(c1, c2);
    }

    #[test]
    fn parallel_matches_serial() {
        let cfg = AwariConfig::small();
        let expected = serial_awari(&cfg);
        for p in [1usize, 2, 4, 8] {
            let cfg2 = cfg.clone();
            let report = Machine::new(uniform_spec(p))
                .run(move |ctx| awari_rank(ctx, &cfg2, Variant::Unoptimized))
                .unwrap();
            let got = total_checksum(&report.results);
            assert!(rel_err(got, expected) < 1e-12, "p={p}: {got} vs {expected}");
        }
    }

    #[test]
    fn both_variants_match_on_clusters() {
        let cfg = AwariConfig::small();
        let expected = serial_awari(&cfg);
        for variant in [Variant::Unoptimized, Variant::Optimized] {
            let cfg2 = cfg.clone();
            let report = Machine::new(das_spec(4, 2, 5.0, 1.0))
                .run(move |ctx| awari_rank(ctx, &cfg2, variant))
                .unwrap();
            let got = total_checksum(&report.results);
            assert!(rel_err(got, expected) < 1e-12, "{variant}");
        }
    }

    #[test]
    fn optimized_reduces_wan_messages() {
        let cfg = AwariConfig::small();
        let run = |variant| {
            let cfg = cfg.clone();
            Machine::new(das_spec(4, 2, 10.0, 0.3))
                .run(move |ctx| awari_rank(ctx, &cfg, variant))
                .unwrap()
        };
        let unopt = run(Variant::Unoptimized);
        let opt = run(Variant::Optimized);
        assert!(
            opt.net_stats.inter_msgs < unopt.net_stats.inter_msgs,
            "opt {} vs unopt {}",
            opt.net_stats.inter_msgs,
            unopt.net_stats.inter_msgs
        );
    }

    #[test]
    fn all_states_are_owned_exactly_once() {
        let cfg = AwariConfig::small();
        let p = 8;
        for level in 0..=cfg.levels {
            for idx in 0..cfg.states_per_level {
                let o = cfg.owner(cfg.state_id(level, idx), p);
                assert!(o < p);
            }
        }
    }

    #[test]
    fn work_is_total_state_count() {
        let cfg = AwariConfig::small();
        let expected_states = ((cfg.levels + 1) * cfg.states_per_level) as u64;
        let cfg2 = cfg.clone();
        let report = Machine::new(das_spec(2, 2, 1.0, 1.0))
            .run(move |ctx| awari_rank(ctx, &cfg2, Variant::Optimized))
            .unwrap();
        let total: u64 = report.results.iter().map(|r| r.work).sum();
        assert_eq!(total, expected_states);
    }
}
