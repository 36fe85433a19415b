//! Point-to-point channel models (paper §6.1).
//!
//! The paper's channel automaton is a multiset of in-transit messages with
//! nondeterministic delivery: reliable but **not FIFO**. [`ChannelModel`]
//! resolves the nondeterminism with a seeded delay distribution, and extends
//! the automaton with the failure modes discussed in §9.3 — message loss and
//! duplication (shown there not to affect safety) — plus an `outage` switch
//! used by the fault-injection experiments to violate the timing assumptions
//! for a while (Theorem 9.4).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// How transmission delay is sampled.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DelayModel {
    /// Every message takes exactly this long (used by the timing-bound
    /// experiments where `df`/`dg` must be exact).
    Fixed(SimDuration),
    /// Uniformly distributed in `[lo, hi]` — since later messages can
    /// sample smaller delays, this yields genuine reordering (non-FIFO).
    Uniform {
        /// Minimum delay.
        lo: SimDuration,
        /// Maximum delay (inclusive).
        hi: SimDuration,
    },
}

impl DelayModel {
    /// The worst-case delay of the model — the `d_ij` bound of Section 9.
    pub fn upper_bound(&self) -> SimDuration {
        match self {
            DelayModel::Fixed(d) => *d,
            DelayModel::Uniform { hi, .. } => *hi,
        }
    }

    fn sample(&self, rng: &mut SmallRng) -> SimDuration {
        match self {
            DelayModel::Fixed(d) => *d,
            DelayModel::Uniform { lo, hi } => {
                let lo = lo.as_micros();
                let hi = hi.as_micros();
                SimDuration::from_micros(rng.gen_range(lo..=hi.max(lo)))
            }
        }
    }
}

/// Configuration of one directed channel.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ChannelConfig {
    /// Delay distribution.
    pub delay: DelayModel,
    /// Probability a message is silently dropped.
    pub loss_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_prob: f64,
}

impl ChannelConfig {
    /// A reliable channel with fixed delay — the default for experiments.
    pub fn fixed(delay: SimDuration) -> Self {
        ChannelConfig {
            delay: DelayModel::Fixed(delay),
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// A reliable channel with uniform delay in `[lo, hi]` (non-FIFO).
    pub fn uniform(lo: SimDuration, hi: SimDuration) -> Self {
        ChannelConfig {
            delay: DelayModel::Uniform { lo, hi },
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// Sets the loss probability.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.loss_prob = p;
        self
    }

    /// Sets the duplication probability.
    #[must_use]
    pub fn with_dup(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        self.dup_prob = p;
        self
    }
}

/// Delivery statistics of one channel.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ChannelStats {
    /// Messages handed to the channel.
    pub sent: u64,
    /// Copies delivered (≥ sent − dropped; > when duplicating).
    pub delivered: u64,
    /// Messages dropped by loss or outage.
    pub dropped: u64,
}

/// A directed channel: decides, per message, the delivery delays of each
/// copy (possibly none when lost, several when duplicated).
///
/// The channel does not hold the messages themselves; the simulation world
/// schedules delivery events with the returned delays. This keeps the model
/// reusable for any message type.
///
/// # Examples
///
/// ```
/// use esds_sim::{ChannelConfig, ChannelModel, SimDuration};
/// let mut ch = ChannelModel::new(ChannelConfig::fixed(SimDuration::from_millis(2)), 42);
/// assert_eq!(ch.transmit(), vec![SimDuration::from_millis(2)]);
/// ```
#[derive(Clone, Debug)]
pub struct ChannelModel {
    config: ChannelConfig,
    rng: SmallRng,
    outage: bool,
    stats: ChannelStats,
}

impl ChannelModel {
    /// Creates a channel with the given config and RNG seed.
    pub fn new(config: ChannelConfig, seed: u64) -> Self {
        ChannelModel {
            config,
            rng: SmallRng::seed_from_u64(seed),
            outage: false,
            stats: ChannelStats::default(),
        }
    }

    /// Current configuration.
    pub fn config(&self) -> ChannelConfig {
        self.config
    }

    /// Replaces the configuration (fault scripts change delay/loss live).
    pub fn set_config(&mut self, config: ChannelConfig) {
        self.config = config;
    }

    /// Starts an outage: every message is dropped until [`ChannelModel::heal`].
    pub fn fail(&mut self) {
        self.outage = true;
    }

    /// Ends an outage.
    pub fn heal(&mut self) {
        self.outage = false;
    }

    /// Whether the channel is currently failed.
    pub fn is_failed(&self) -> bool {
        self.outage
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Transmits one message: returns the delay of each delivered copy.
    /// Empty = lost; two entries = duplicated.
    pub fn transmit(&mut self) -> Vec<SimDuration> {
        self.stats.sent += 1;
        if self.outage || (self.config.loss_prob > 0.0 && self.rng.gen_bool(self.config.loss_prob))
        {
            self.stats.dropped += 1;
            return Vec::new();
        }
        let mut out = vec![self.config.delay.sample(&mut self.rng)];
        if self.config.dup_prob > 0.0 && self.rng.gen_bool(self.config.dup_prob) {
            out.push(self.config.delay.sample(&mut self.rng));
        }
        self.stats.delivered += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_delay_is_exact() {
        let mut ch = ChannelModel::new(ChannelConfig::fixed(SimDuration::from_micros(7)), 1);
        for _ in 0..10 {
            assert_eq!(ch.transmit(), vec![SimDuration::from_micros(7)]);
        }
        assert_eq!(ch.stats().sent, 10);
        assert_eq!(ch.stats().delivered, 10);
    }

    #[test]
    fn uniform_delay_within_bounds_and_reorders() {
        let cfg =
            ChannelConfig::uniform(SimDuration::from_micros(1), SimDuration::from_micros(100));
        let mut ch = ChannelModel::new(cfg, 3);
        let mut delays = Vec::new();
        for _ in 0..200 {
            let d = ch.transmit()[0];
            assert!(d >= SimDuration::from_micros(1) && d <= SimDuration::from_micros(100));
            delays.push(d);
        }
        // Some adjacent pair must be out of order (overwhelmingly likely).
        assert!(delays.windows(2).any(|w| w[0] > w[1]), "no reordering seen");
        assert_eq!(cfg.delay.upper_bound(), SimDuration::from_micros(100));
    }

    #[test]
    fn total_loss_drops_everything() {
        let cfg = ChannelConfig::fixed(SimDuration::ZERO).with_loss(1.0);
        let mut ch = ChannelModel::new(cfg, 5);
        for _ in 0..10 {
            assert!(ch.transmit().is_empty());
        }
        assert_eq!(ch.stats().dropped, 10);
    }

    #[test]
    fn duplication_delivers_twice() {
        let cfg = ChannelConfig::fixed(SimDuration::from_micros(1)).with_dup(1.0);
        let mut ch = ChannelModel::new(cfg, 5);
        assert_eq!(ch.transmit().len(), 2);
    }

    #[test]
    fn outage_and_heal() {
        let mut ch = ChannelModel::new(ChannelConfig::fixed(SimDuration::ZERO), 5);
        ch.fail();
        assert!(ch.is_failed());
        assert!(ch.transmit().is_empty());
        ch.heal();
        assert_eq!(ch.transmit().len(), 1);
    }

    #[test]
    fn determinism_same_seed_same_delays() {
        let cfg = ChannelConfig::uniform(SimDuration::ZERO, SimDuration::from_micros(1000))
            .with_loss(0.2)
            .with_dup(0.2);
        let mut a = ChannelModel::new(cfg, 99);
        let mut b = ChannelModel::new(cfg, 99);
        for _ in 0..100 {
            assert_eq!(a.transmit(), b.transmit());
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = ChannelConfig::fixed(SimDuration::ZERO).with_loss(1.5);
    }
}
