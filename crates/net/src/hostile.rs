//! Hostile-network scenario plans: seeded cross-traffic and time-varying
//! WAN quality.
//!
//! The paper measured a clean, dedicated testbed; real two-layer systems
//! share their wide-area links with other tenants and see link quality
//! drift over hours. This module models both hostilities while staying
//! inside the standing determinism guarantees:
//!
//! * A [`CrossTrafficPlan`] injects background flows that occupy WAN link
//!   bandwidth through the same gap-filling [`crate::LinkState`] interval
//!   list application messages book into. Every background message's
//!   departure time and size is derived from the plan seed and a per-link
//!   message counter through the splitmix64 finalizer the latency-jitter
//!   machinery uses — identical seeds replay identical background load.
//! * A [`LinkSchedule`] scales each directed WAN link's latency up and
//!   bandwidth down as a *pure function* of virtual time and the seed:
//!   diurnal (triangle-wave) curves with per-link phase offsets, a step
//!   degradation at a fixed instant, or a slow linear drift. All sampling
//!   is integer nanosecond arithmetic — no transcendental functions, no
//!   accumulated floating-point state.
//!
//! Neither plan affects the intra-cluster Myrinet layer, and neither adds
//! randomness beyond its seed: a hostile run is exactly as reproducible as
//! a clean one.

use numagap_sim::{SimDuration, SimTime};

use crate::model::mix64;

/// Mean size of a background message in bytes.
pub(crate) const CROSS_TRAFFIC_MEAN_BYTES: u64 = 16 * 1024;

/// Seeded deterministic background traffic occupying WAN links.
///
/// Each directed cluster-pair link carries an independent stream of
/// background messages with mean rate chosen so that, on average,
/// `intensity` of the link's bandwidth is consumed. Interarrival gaps and
/// message sizes (16 KiB on average) are drawn uniformly in `[0.5, 1.5) ×`
/// their means from per-link splitmix64 streams, so the load is bursty but
/// bounded and replays bit-identically from the seed.
///
/// # Examples
///
/// ```
/// use numagap_net::CrossTrafficPlan;
///
/// let plan = CrossTrafficPlan::new(42).intensity(0.4);
/// assert_eq!(plan.draw(0, 1, 7), plan.draw(0, 1, 7));
/// assert_ne!(plan.draw(0, 1, 7), plan.draw(1, 0, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossTrafficPlan {
    /// Seed from which every per-link stream is split.
    pub seed: u64,
    /// Mean fraction of each directed WAN link's bandwidth consumed by
    /// background traffic, in `[0, 0.9]`. `0.0` injects nothing.
    pub intensity: f64,
}

impl CrossTrafficPlan {
    /// A plan with the given seed and zero intensity.
    pub fn new(seed: u64) -> Self {
        CrossTrafficPlan {
            seed,
            intensity: 0.0,
        }
    }

    /// Panics unless the intensity is in `[0, 0.9]`. Called by the network
    /// model when the plan is installed.
    pub fn validate(&self) {
        assert!(
            (0.0..=0.9).contains(&self.intensity),
            "cross-traffic intensity must be in [0, 0.9], got {}",
            self.intensity
        );
    }

    /// Sets the mean bandwidth fraction consumed per directed WAN link.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= intensity <= 0.9`.
    pub fn intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity;
        self.validate();
        self
    }

    /// Draw `n` from the decision stream of the ordered link `(a, b)`:
    /// uniform in `[0, 1]`, a pure function of `(seed, a, b, n)`.
    pub fn draw(&self, a: usize, b: usize, n: u64) -> f64 {
        let link = mix64(self.seed ^ mix64(((a as u64) << 32) | (b as u64).wrapping_add(1)));
        mix64(link.wrapping_add(n)) as f64 / u64::MAX as f64
    }
}

/// Shape of a [`LinkSchedule`]'s degradation curve over virtual time.
///
/// Each shape maps an instant to a degradation level in `[0, 1000]`
/// permille, where `0` is clean and `1000` applies the schedule's full
/// latency/bandwidth penalty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleShape {
    /// A triangle wave: quality degrades to the full penalty and recovers
    /// once per period. Each directed link gets a seed-derived phase
    /// offset so the whole WAN does not degrade in lockstep.
    Diurnal {
        /// Full period of the wave.
        period: SimDuration,
    },
    /// Clean until `at`, fully degraded from `at` on — a routing change or
    /// a provider dropping a traffic class.
    Step {
        /// The instant quality drops (inclusive).
        at: SimTime,
    },
    /// Linear decay from clean at time zero to fully degraded at
    /// `full_at`, then flat — slow congestion buildup.
    Drift {
        /// The instant full degradation is reached.
        full_at: SimTime,
    },
}

/// A piecewise time-varying WAN quality schedule.
///
/// Scales each directed WAN link's latency up (towards the peak factor)
/// and bandwidth down (towards the floor factor) as a pure function of
/// `(seed, link, virtual time)`. Factors are stored in permille and all
/// curve sampling is integer arithmetic, so a schedule adds no
/// floating-point state and replays bit-identically.
///
/// # Examples
///
/// ```
/// use numagap_net::{LinkSchedule, ScheduleShape};
/// use numagap_sim::{SimDuration, SimTime};
///
/// let s = LinkSchedule::step(7, SimTime::from_nanos(1_000_000))
///     .latency_factor(3.0)
///     .bandwidth_factor(0.5);
/// // Before the step: clean. After: 3x latency, half bandwidth.
/// assert_eq!(s.factors_permille(0, 1, SimTime::ZERO), (1000, 1000));
/// assert_eq!(s.factors_permille(0, 1, SimTime::from_nanos(2_000_000)), (3000, 500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSchedule {
    /// Seed for per-link phase offsets (diurnal shape only).
    pub seed: u64,
    /// The degradation curve.
    pub shape: ScheduleShape,
    /// Latency multiplier at full degradation, in permille (`3000` = 3x).
    pub peak_latency_permille: u64,
    /// Bandwidth multiplier at full degradation, in permille (`500` =
    /// half the clean bandwidth).
    pub floor_bandwidth_permille: u64,
}

/// Default peak latency multiplier: 2x.
const DEFAULT_PEAK_LATENCY_PERMILLE: u64 = 2000;
/// Default bandwidth floor: half the clean bandwidth.
const DEFAULT_FLOOR_BANDWIDTH_PERMILLE: u64 = 500;

impl LinkSchedule {
    fn new(seed: u64, shape: ScheduleShape) -> Self {
        let s = LinkSchedule {
            seed,
            shape,
            peak_latency_permille: DEFAULT_PEAK_LATENCY_PERMILLE,
            floor_bandwidth_permille: DEFAULT_FLOOR_BANDWIDTH_PERMILLE,
        };
        s.validate();
        s
    }

    /// A diurnal (triangle-wave) schedule with the given period; each
    /// directed link's phase is offset by a seed-derived amount.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn diurnal(seed: u64, period: SimDuration) -> Self {
        LinkSchedule::new(seed, ScheduleShape::Diurnal { period })
    }

    /// A step schedule: clean until `at`, fully degraded afterwards.
    pub fn step(seed: u64, at: SimTime) -> Self {
        LinkSchedule::new(seed, ScheduleShape::Step { at })
    }

    /// A drift schedule: linear decay reaching full degradation at
    /// `full_at`.
    ///
    /// # Panics
    ///
    /// Panics if `full_at` is time zero.
    pub fn drift(seed: u64, full_at: SimTime) -> Self {
        LinkSchedule::new(seed, ScheduleShape::Drift { full_at })
    }

    /// Panics unless the factors and the shape parameters are sane:
    /// latency factor in `[1, 100]`, bandwidth factor in `(0.01, 1]`
    /// (stored as permille), diurnal period and drift horizon positive.
    pub fn validate(&self) {
        assert!(
            (1000..=100_000).contains(&self.peak_latency_permille),
            "schedule latency factor must be in [1, 100], got {}",
            self.peak_latency_permille as f64 / 1000.0
        );
        assert!(
            (10..=1000).contains(&self.floor_bandwidth_permille),
            "schedule bandwidth factor must be in [0.01, 1], got {}",
            self.floor_bandwidth_permille as f64 / 1000.0
        );
        match self.shape {
            ScheduleShape::Diurnal { period } => {
                assert!(
                    period > SimDuration::ZERO,
                    "diurnal schedule period must be positive"
                );
            }
            ScheduleShape::Step { .. } => {}
            ScheduleShape::Drift { full_at } => {
                assert!(
                    full_at > SimTime::ZERO,
                    "drift schedule horizon must be positive"
                );
            }
        }
    }

    /// Sets the latency multiplier applied at full degradation.
    ///
    /// # Panics
    ///
    /// Panics unless `1.0 <= factor <= 100.0`.
    pub fn latency_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "schedule latency factor must be finite and non-negative, got {factor}"
        );
        self.peak_latency_permille = (factor * 1000.0).round() as u64;
        self.validate();
        self
    }

    /// Sets the bandwidth multiplier applied at full degradation.
    ///
    /// # Panics
    ///
    /// Panics unless `0.01 <= factor <= 1.0`.
    pub fn bandwidth_factor(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "schedule bandwidth factor must be finite and non-negative, got {factor}"
        );
        self.floor_bandwidth_permille = (factor * 1000.0).round() as u64;
        self.validate();
        self
    }

    /// Degradation level of the ordered link `(a, b)` at `at`, in
    /// `[0, 1000]` permille. Pure in `(seed, a, b, at)`.
    pub fn degradation_permille(&self, a: usize, b: usize, at: SimTime) -> u64 {
        match self.shape {
            ScheduleShape::Diurnal { period } => {
                let p = period.as_nanos();
                let phase =
                    mix64(self.seed ^ mix64(((a as u64) << 32) | (b as u64).wrapping_add(1))) % p;
                let pos = (at.as_nanos().wrapping_add(phase)) % p;
                // Triangle wave: 0 -> 1000 over the first half period, back
                // to 0 over the second. Integer arithmetic throughout; u128
                // guards the multiply for multi-hour periods.
                let scaled = (pos as u128 * 2000 / p as u128) as u64;
                if scaled <= 1000 {
                    scaled
                } else {
                    2000 - scaled
                }
            }
            ScheduleShape::Step { at: step_at } => {
                if at >= step_at {
                    1000
                } else {
                    0
                }
            }
            ScheduleShape::Drift { full_at } => {
                let horizon = full_at.as_nanos();
                let t = at.as_nanos().min(horizon);
                (t as u128 * 1000 / horizon as u128) as u64
            }
        }
    }

    /// `(latency, bandwidth)` multipliers in permille for the ordered link
    /// `(a, b)` at `at`. Latency is scaled up towards the peak, bandwidth
    /// down towards the floor; `(1000, 1000)` means clean.
    pub fn factors_permille(&self, a: usize, b: usize, at: SimTime) -> (u64, u64) {
        let d = self.degradation_permille(a, b, at);
        let lat = 1000 + (self.peak_latency_permille - 1000) * d / 1000;
        let bw = 1000 - (1000 - self.floor_bandwidth_permille) * d / 1000;
        (lat, bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_traffic_draws_replay_and_split_per_link() {
        let plan = CrossTrafficPlan::new(9).intensity(0.3);
        let a: Vec<f64> = (0..50).map(|n| plan.draw(0, 1, n)).collect();
        let b: Vec<f64> = (0..50).map(|n| plan.draw(0, 1, n)).collect();
        assert_eq!(a, b, "same (seed, link, n) must redraw identically");
        let other: Vec<f64> = (0..50).map(|n| plan.draw(1, 0, n)).collect();
        assert_ne!(a, other, "distinct links get independent streams");
        assert!(a.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    #[should_panic(expected = "cross-traffic intensity")]
    fn cross_traffic_intensity_bounds_are_checked() {
        let _ = CrossTrafficPlan::new(0).intensity(0.95);
    }

    #[test]
    fn diurnal_is_a_triangle_wave_with_per_link_phase() {
        let s = LinkSchedule::diurnal(3, SimDuration::from_millis(10))
            .latency_factor(3.0)
            .bandwidth_factor(0.25);
        // Over one full period every level in [0, 1000] is visited and the
        // curve returns to its start.
        let p = 10_000_000u64;
        let at = |ns: u64| SimTime::from_nanos(ns);
        let d0 = s.degradation_permille(0, 1, at(0));
        assert_eq!(d0, s.degradation_permille(0, 1, at(p)), "periodic");
        let max = (0..=100)
            .map(|i| s.degradation_permille(0, 1, at(i * p / 100)))
            .max()
            .expect("samples");
        assert!(max >= 980, "triangle wave should reach full degradation");
        // Different links are phase-shifted.
        let trace = |a: usize, b: usize| -> Vec<u64> {
            (0..20)
                .map(|i| s.degradation_permille(a, b, at(i * p / 20)))
                .collect()
        };
        assert_ne!(trace(0, 1), trace(2, 3), "per-link phase offsets");
        // Factors interpolate between clean and the configured extremes.
        for i in 0..50 {
            let (lat, bw) = s.factors_permille(0, 1, at(i * p / 50));
            assert!((1000..=3000).contains(&lat), "lat {lat}");
            assert!((250..=1000).contains(&bw), "bw {bw}");
        }
    }

    #[test]
    fn step_and_drift_shapes() {
        let step = LinkSchedule::step(0, SimTime::from_nanos(500));
        assert_eq!(step.degradation_permille(0, 1, SimTime::from_nanos(499)), 0);
        assert_eq!(
            step.degradation_permille(0, 1, SimTime::from_nanos(500)),
            1000
        );
        let drift = LinkSchedule::drift(0, SimTime::from_nanos(1000));
        assert_eq!(drift.degradation_permille(0, 1, SimTime::ZERO), 0);
        assert_eq!(
            drift.degradation_permille(0, 1, SimTime::from_nanos(500)),
            500
        );
        assert_eq!(
            drift.degradation_permille(0, 1, SimTime::from_nanos(9999)),
            1000,
            "clamped past the horizon"
        );
    }

    #[test]
    #[should_panic(expected = "latency factor")]
    fn schedule_latency_factor_bounds_are_checked() {
        let _ = LinkSchedule::step(0, SimTime::ZERO).latency_factor(0.5);
    }

    #[test]
    #[should_panic(expected = "bandwidth factor")]
    fn schedule_bandwidth_factor_bounds_are_checked() {
        let _ = LinkSchedule::step(0, SimTime::ZERO).bandwidth_factor(1.5);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn diurnal_rejects_zero_period() {
        let _ = LinkSchedule::diurnal(0, SimDuration::ZERO);
    }
}
