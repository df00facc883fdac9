//! Deterministic WAN fault injection.
//!
//! The paper's premise is that the wide-area layer is slow *and flaky*
//! compared to the intra-cluster Myrinet. A [`FaultPlan`] describes exactly
//! how flaky: per-link drop/duplicate/reorder probabilities plus scheduled
//! link and gateway outages. Every random decision is derived from the plan
//! seed and a per-link message counter through the same splitmix64 finalizer
//! the latency-jitter model uses, so identical seeds replay identical fault
//! schedules in virtual time — a failing run is reproducible from its seed
//! alone.
//!
//! Faults apply only to inter-cluster (WAN) messages; the Myrinet layer is
//! modeled as reliable, matching the DAS hardware the paper measured.

use numagap_sim::SimTime;

use crate::model::mix64;

/// A scheduled outage of one ordered WAN link: messages *departing* while
/// the window is open are dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkOutage {
    /// Source cluster of the affected ordered link.
    pub src_cluster: usize,
    /// Destination cluster of the affected ordered link.
    pub dst_cluster: usize,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive) — the link restarts here.
    pub until: SimTime,
}

/// A gateway crash-restart window: any WAN message whose route crosses the
/// cluster's gateway while the window is open is dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayOutage {
    /// The cluster whose gateway is down.
    pub cluster: usize,
    /// Crash time (inclusive).
    pub from: SimTime,
    /// Restart time (exclusive).
    pub until: SimTime,
}

/// A seeded, fully deterministic fault schedule for the wide-area layer.
///
/// # Examples
///
/// ```
/// use numagap_net::FaultPlan;
///
/// let plan = FaultPlan::new(42).drop_prob(0.1).duplicate_prob(0.05);
/// assert_eq!(plan.draw(0, 1, 7), plan.draw(0, 1, 7));
/// assert_ne!(plan.draw(0, 1, 7), plan.draw(1, 0, 7));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed from which every per-link decision stream is split.
    pub seed: u64,
    /// Probability an inter-cluster message is silently dropped.
    pub drop_prob: f64,
    /// Probability a second copy of an inter-cluster message is delivered.
    pub duplicate_prob: f64,
    /// Probability an inter-cluster message is delayed past its fault-free
    /// arrival so later sends on the same pair can overtake it.
    pub reorder_prob: f64,
    /// Extra delay applied to duplicated/reordered copies, as a multiple of
    /// the inter-cluster link latency.
    pub reorder_delay_factor: f64,
    /// Scheduled transient WAN-link outages.
    pub link_outages: Vec<LinkOutage>,
    /// Scheduled gateway crash-restart windows.
    pub gateway_outages: Vec<GatewayOutage>,
    /// Raw tags at or above this value are never faulted. The reliable
    /// transport exempts its acknowledgement block this way, modeling a
    /// reliable out-of-band control plane (the DAS gateways kept TCP
    /// control connections alongside the data path).
    pub exempt_tag_min: Option<u32>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay_factor: 4.0,
            link_outages: Vec::new(),
            gateway_outages: Vec::new(),
            exempt_tag_min: None,
        }
    }

    /// Panics if any probability leaves `[0, 1]` or the probabilities sum
    /// past 1. Called by the network model when the plan is installed.
    pub fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop_prob),
            ("duplicate", self.duplicate_prob),
            ("reorder", self.reorder_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p),
                "{name} probability must be in [0, 1], got {p}"
            );
        }
        let sum = self.drop_prob + self.duplicate_prob + self.reorder_prob;
        assert!(
            sum <= 1.0,
            "fault probabilities must sum to at most 1, got {sum}"
        );
    }

    /// Sets the drop probability.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities leave `[0, 1]` or sum past 1.
    pub fn drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self.validate();
        self
    }

    /// Sets the duplicate probability.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities leave `[0, 1]` or sum past 1.
    pub fn duplicate_prob(mut self, p: f64) -> Self {
        self.duplicate_prob = p;
        self.validate();
        self
    }

    /// Sets the reorder (delay) probability.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities leave `[0, 1]` or sum past 1.
    pub fn reorder_prob(mut self, p: f64) -> Self {
        self.reorder_prob = p;
        self.validate();
        self
    }

    /// Sets the duplicate/reorder delay as a multiple of the WAN latency.
    ///
    /// # Panics
    ///
    /// Panics if the factor is not positive.
    pub fn reorder_delay_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "reorder delay factor must be positive");
        self.reorder_delay_factor = factor;
        self
    }

    /// Schedules a transient outage of the ordered link `src -> dst`.
    pub fn link_outage(mut self, src: usize, dst: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "outage window must be non-empty");
        self.link_outages.push(LinkOutage {
            src_cluster: src,
            dst_cluster: dst,
            from,
            until,
        });
        self
    }

    /// Schedules a crash-restart window for a cluster's gateway.
    pub fn gateway_outage(mut self, cluster: usize, from: SimTime, until: SimTime) -> Self {
        assert!(from < until, "outage window must be non-empty");
        self.gateway_outages.push(GatewayOutage {
            cluster,
            from,
            until,
        });
        self
    }

    /// Exempts raw tags at or above `raw` from fault injection.
    pub fn exempt_raw_tags_at_or_above(mut self, raw: u32) -> Self {
        self.exempt_tag_min = Some(raw);
        self
    }

    /// Whether any fault can ever fire under this plan.
    pub fn any_faults(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.reorder_prob > 0.0
            || !self.link_outages.is_empty()
            || !self.gateway_outages.is_empty()
    }

    /// The `n`-th unit-uniform draw of the ordered WAN link `a -> b`. Fully
    /// determined by `(seed, a, b, n)`: each link gets a split, independent
    /// decision stream, so adding traffic on one link never perturbs the
    /// fault schedule of another.
    pub fn draw(&self, a: usize, b: usize, n: u64) -> f64 {
        let link = mix64(self.seed ^ mix64(((a as u64) << 32) | (b as u64).wrapping_add(1)));
        mix64(link.wrapping_add(n)) as f64 / u64::MAX as f64
    }

    /// Whether a message departing at `at` along the cluster route `route`
    /// is killed by a scheduled outage, and why.
    pub fn outage_cause(&self, route: &[usize], at: SimTime) -> Option<&'static str> {
        for o in &self.gateway_outages {
            if route.contains(&o.cluster) && at >= o.from && at < o.until {
                return Some("gateway-outage");
            }
        }
        for hop in route.windows(2) {
            for o in &self.link_outages {
                if o.src_cluster == hop[0]
                    && o.dst_cluster == hop[1]
                    && at >= o.from
                    && at < o.until
                {
                    return Some("link-outage");
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_link_split() {
        let plan = FaultPlan::new(7).drop_prob(0.5);
        let a: Vec<f64> = (0..100).map(|n| plan.draw(0, 1, n)).collect();
        let b: Vec<f64> = (0..100).map(|n| plan.draw(0, 1, n)).collect();
        assert_eq!(a, b, "same (seed, link, n) must redraw identically");
        let other: Vec<f64> = (0..100).map(|n| plan.draw(2, 3, n)).collect();
        assert_ne!(a, other, "distinct links get independent streams");
        assert!(a.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1).draw(0, 1, 0);
        let b = FaultPlan::new(2).draw(0, 1, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn draw_is_roughly_uniform() {
        let plan = FaultPlan::new(99);
        let n = 10_000;
        let below: usize = (0..n).filter(|&i| plan.draw(0, 1, i) < 0.25).count();
        let frac = below as f64 / n as f64;
        assert!((0.2..0.3).contains(&frac), "P(u < 0.25) was {frac}");
    }

    #[test]
    fn outage_windows_hit_routes() {
        let plan = FaultPlan::new(0)
            .link_outage(0, 1, SimTime::from_nanos(100), SimTime::from_nanos(200))
            .gateway_outage(3, SimTime::from_nanos(500), SimTime::from_nanos(600));
        let at = SimTime::from_nanos;
        // Link outage: only the ordered pair, only inside the window.
        assert_eq!(plan.outage_cause(&[0, 1], at(150)), Some("link-outage"));
        assert_eq!(plan.outage_cause(&[0, 1], at(200)), None, "end exclusive");
        assert_eq!(plan.outage_cause(&[1, 0], at(150)), None, "ordered link");
        assert_eq!(plan.outage_cause(&[0, 2], at(150)), None);
        // Gateway outage: any route crossing cluster 3, including endpoints.
        assert_eq!(plan.outage_cause(&[2, 3], at(550)), Some("gateway-outage"));
        assert_eq!(
            plan.outage_cause(&[0, 3, 1], at(550)),
            Some("gateway-outage")
        );
        assert_eq!(plan.outage_cause(&[0, 1], at(550)), None);
    }

    #[test]
    fn any_faults_reflects_configuration() {
        assert!(!FaultPlan::new(0).any_faults());
        assert!(FaultPlan::new(0).drop_prob(0.01).any_faults());
        assert!(FaultPlan::new(0)
            .gateway_outage(0, SimTime::ZERO, SimTime::from_nanos(1))
            .any_faults());
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn probability_sum_is_checked() {
        let _ = FaultPlan::new(0).drop_prob(0.6).duplicate_prob(0.6);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn probability_range_is_checked() {
        let _ = FaultPlan::new(0).drop_prob(1.5);
    }
}
