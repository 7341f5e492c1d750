//! Multi-fidelity model backends: the channel/MAC seam.
//!
//! The engine in [`sim`](crate::Simulator) is one *fidelity* — per-frame
//! IEEE 802.11 DCF over a sampled radio channel. Capacity planning at
//! million-node scale needs a cheaper one. This module extracts the seam
//! both fidelities share:
//!
//! * [`ChannelBackend`] — the deterministic part of the radio channel:
//!   mean received power, reception/carrier-sense ranges, propagation
//!   delay. The exact engine samples per-frame power against these
//!   thresholds; the fluid engine uses the derived ranges directly.
//! * [`MacBackend`] — frame air times and DCF contention parameters,
//!   plus *analytic* DCF results (Bianchi-style saturation fixed point,
//!   mean backoff, per-hop service time) derived from those parameters.
//!   The exact engine plays the DCF out frame by frame; the fluid engine
//!   evaluates the closed forms.
//!
//! [`ScenarioConfig`](crate::ScenarioConfig) implements both traits by
//! delegating to the same [`PhyParams`]/[`MacParams`] functions the
//! per-frame engine calls, so the exact backend is the existing engine
//! *re-homed*, not re-implemented: routing the engine's call sites through
//! the trait changes nothing bit-for-bit, and any alternative backend that
//! answers the same questions (the `cavenet-fluid` crate's flow-level
//! model) plugs into the same scenario pipeline.
//!
//! Which backend runs is selected per scenario by [`Fidelity`] — a
//! *behaviour* knob (results differ between fidelities), so it
//! participates in checkpoint/run identity.

use std::time::Duration;

use crate::mac::MacParams;
use crate::phy::{PhyParams, Propagation};
use crate::sim::ScenarioConfig;

/// Which model backend a scenario runs under.
///
/// `Exact` is the per-frame DCF engine ([`Simulator`](crate::Simulator));
/// `Fluid` is the analytic flow-level backend (the `cavenet-fluid` crate).
/// Fidelity changes results, so it is part of a run's identity — a
/// snapshot taken under one fidelity refuses to resume under the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Fidelity {
    /// Per-frame 802.11 DCF discrete-event engine (bit-exact reference).
    #[default]
    Exact,
    /// Flow-level shared-bandwidth fluid model with analytic DCF collision
    /// probability — deterministic, 100–1000x faster, approximate.
    Fluid,
}

impl Fidelity {
    /// Stable lower-case name ("exact" / "fluid"), used in manifests and
    /// bench artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Fluid => "fluid",
        }
    }
}

/// The deterministic questions a radio-channel model must answer.
///
/// Every method is a pure function of the backend's configuration — no
/// RNG, no per-frame state — which is what lets both the per-frame engine
/// (as threshold inputs) and the fluid engine (as connectivity radii)
/// consume one implementation.
pub trait ChannelBackend {
    /// Mean (deterministic part of the) received power at distance `d`
    /// metres, in watts.
    fn mean_rx_power(&self, d: f64) -> f64;

    /// Minimum power for successful reception (W).
    fn rx_threshold_w(&self) -> f64;

    /// A conservative radius beyond which a transmission can never be
    /// carrier-sensed, or `None` when the model has an unbounded random
    /// component (see [`PhyParams::carrier_sense_cutoff`]).
    fn carrier_sense_cutoff(&self) -> Option<f64>;

    /// Signal propagation delay over `d` metres.
    fn propagation_delay(&self, d: f64) -> Duration;

    /// The distance at which mean received power crosses the reception
    /// threshold — the backend's effective transmission range.
    fn rx_range(&self) -> f64;
}

/// The questions a MAC model must answer: frame air times, the DCF's
/// contention parameters, and analytic saturation results derived from
/// them.
///
/// The provided methods are the closed-form DCF theory shared by the
/// fluid backend and the fidelity reports; they are written only in terms
/// of the required methods, so every implementation gets a consistent
/// analytic model for free.
pub trait MacBackend {
    /// Air time of a data frame whose *total* on-air size is `bytes`.
    fn data_airtime(&self, bytes: u32) -> Duration;
    /// Air time of a control frame (ACK) of `bytes` size.
    fn control_airtime(&self, bytes: u32) -> Duration;
    /// Contention slot time.
    fn slot(&self) -> Duration;
    /// Short inter-frame space.
    fn sifs(&self) -> Duration;
    /// DCF inter-frame space.
    fn difs(&self) -> Duration;
    /// Minimum contention window.
    fn cw_min(&self) -> u32;
    /// Maximum contention window.
    fn cw_max(&self) -> u32;
    /// Maximum transmission attempts for a unicast frame.
    fn retry_limit(&self) -> u32;
    /// Network + MAC header overhead added to a data payload (bytes).
    fn data_overhead_bytes(&self) -> u32;
    /// ACK frame size (bytes).
    fn ack_size_bytes(&self) -> u32;

    /// Bianchi's saturation fixed point for `contenders` stations: returns
    /// `(tau, p)` where `tau` is the per-slot transmit probability and `p`
    /// the conditional collision probability. Solved by damped iteration
    /// of
    ///
    /// ```text
    /// tau = 2(1-2p) / ((1-2p)(W+1) + p·W·(1-(2p)^m))
    /// p   = 1 - (1-tau)^(n-1)
    /// ```
    ///
    /// with `W = cw_min + 1` slots in stage zero and `m` doubling stages
    /// up to `cw_max`. Deterministic: a pure function of `(params, n)`.
    fn saturation_fixed_point(&self, contenders: usize) -> (f64, f64) {
        if contenders <= 1 {
            // A lone station never collides; it transmits after a mean
            // backoff of W/2 slots.
            let w = (self.cw_min() + 1) as f64;
            return (2.0 / (w + 1.0), 0.0);
        }
        let n = contenders as f64;
        let w = (self.cw_min() + 1) as f64;
        let m = ((self.cw_max() + 1) as f64 / w).log2().max(0.0).round();
        let mut p = 0.1f64;
        let mut tau = 0.0;
        for _ in 0..64 {
            // Nudge off the removable singularity at p = 1/2.
            if (p - 0.5).abs() < 1e-9 {
                p += 1e-8;
            }
            let two_p = 2.0 * p;
            let denom = (1.0 - two_p) * (w + 1.0) + p * w * (1.0 - two_p.powf(m));
            tau = (2.0 * (1.0 - two_p) / denom).clamp(1e-9, 1.0);
            let p_next = 1.0 - (1.0 - tau).powf(n - 1.0);
            // Damping keeps the iteration contractive for large n.
            p = 0.5 * p + 0.5 * p_next;
        }
        (tau, p.clamp(0.0, 1.0))
    }

    /// Mean backoff wait before one transmission attempt, given the
    /// conditional collision probability `p`: the expected contention
    /// window over the retry ladder, in slots, times the slot time.
    fn mean_backoff(&self, p: f64) -> Duration {
        let w0 = (self.cw_min() + 1) as f64;
        let wmax = (self.cw_max() + 1) as f64;
        let p = p.clamp(0.0, 0.999_999);
        // Expected slots = sum over stages of p^k · W_k/2, normalized.
        let mut slots = 0.0;
        let mut weight = 0.0;
        let mut wk = w0;
        let mut pk = 1.0;
        for _ in 0..=self.retry_limit() {
            slots += pk * (wk - 1.0) / 2.0;
            weight += pk;
            pk *= p;
            wk = (wk * 2.0).min(wmax);
        }
        Duration::from_secs_f64(self.slot().as_secs_f64() * slots / weight.max(1e-12))
    }

    /// Expected time to serve one unicast data frame of `payload` bytes
    /// over one hop under conditional collision probability `p`: DIFS +
    /// mean backoff + (attempts) × (data + SIFS + ACK), with the expected
    /// attempt count `1/(1-p)` truncated at the retry limit.
    fn unicast_service_time(&self, payload: u32, p: f64) -> Duration {
        let on_air = self.data_airtime(payload + self.data_overhead_bytes());
        let exchange = on_air + self.sifs() + self.control_airtime(self.ack_size_bytes());
        let p = p.clamp(0.0, 0.999_999);
        let attempts = (1.0 / (1.0 - p)).min((self.retry_limit() + 1) as f64);
        self.difs()
            + self.mean_backoff(p)
            + Duration::from_secs_f64(exchange.as_secs_f64() * attempts)
    }

    /// Probability that a unicast frame is delivered within the retry
    /// budget under conditional collision probability `p`.
    fn unicast_delivery_probability(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        1.0 - p.powi(self.retry_limit() as i32 + 1)
    }
}

/// The exact engine's configuration *is* the exact backend: both traits
/// delegate to the very [`PhyParams`]/[`MacParams`] functions the
/// per-frame engine calls, so routing engine call sites through the trait
/// is bit-identical by construction.
impl ChannelBackend for ScenarioConfig {
    fn mean_rx_power(&self, d: f64) -> f64 {
        self.phy.mean_rx_power(self.propagation, d)
    }

    fn rx_threshold_w(&self) -> f64 {
        self.phy.rx_threshold_w
    }

    fn carrier_sense_cutoff(&self) -> Option<f64> {
        self.phy.carrier_sense_cutoff(self.propagation)
    }

    fn propagation_delay(&self, d: f64) -> Duration {
        self.phy.propagation_delay(d)
    }

    fn rx_range(&self) -> f64 {
        self.phy.effective_range(self.propagation)
    }
}

impl MacBackend for ScenarioConfig {
    fn data_airtime(&self, bytes: u32) -> Duration {
        self.phy.data_frame_duration(bytes)
    }

    fn control_airtime(&self, bytes: u32) -> Duration {
        self.phy.control_frame_duration(bytes)
    }

    fn slot(&self) -> Duration {
        self.mac.slot
    }

    fn sifs(&self) -> Duration {
        self.mac.sifs
    }

    fn difs(&self) -> Duration {
        self.mac.difs
    }

    fn cw_min(&self) -> u32 {
        self.mac.cw_min
    }

    fn cw_max(&self) -> u32 {
        self.mac.cw_max
    }

    fn retry_limit(&self) -> u32 {
        self.mac.retry_limit
    }

    fn data_overhead_bytes(&self) -> u32 {
        self.mac.ip_overhead_bytes + self.mac.mac_overhead_bytes
    }

    fn ack_size_bytes(&self) -> u32 {
        self.mac.ack_size_bytes
    }
}

/// Standalone exact backend over explicit parameters, for callers that do
/// not hold a full [`ScenarioConfig`] (reports, unit analysis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactBackend {
    /// Physical-layer parameters.
    pub phy: PhyParams,
    /// MAC-layer parameters.
    pub mac: MacParams,
    /// Propagation model.
    pub propagation: Propagation,
}

impl ExactBackend {
    /// The ns-2 WaveLAN / Table-1 default parameterization.
    pub fn ns2_default() -> Self {
        ExactBackend {
            phy: PhyParams::ns2_default(),
            mac: MacParams::default(),
            propagation: Propagation::TwoRayGround,
        }
    }
}

impl From<&ScenarioConfig> for ExactBackend {
    fn from(c: &ScenarioConfig) -> Self {
        ExactBackend {
            phy: c.phy,
            mac: c.mac,
            propagation: c.propagation,
        }
    }
}

impl ChannelBackend for ExactBackend {
    fn mean_rx_power(&self, d: f64) -> f64 {
        self.phy.mean_rx_power(self.propagation, d)
    }

    fn rx_threshold_w(&self) -> f64 {
        self.phy.rx_threshold_w
    }

    fn carrier_sense_cutoff(&self) -> Option<f64> {
        self.phy.carrier_sense_cutoff(self.propagation)
    }

    fn propagation_delay(&self, d: f64) -> Duration {
        self.phy.propagation_delay(d)
    }

    fn rx_range(&self) -> f64 {
        self.phy.effective_range(self.propagation)
    }
}

impl MacBackend for ExactBackend {
    fn data_airtime(&self, bytes: u32) -> Duration {
        self.phy.data_frame_duration(bytes)
    }

    fn control_airtime(&self, bytes: u32) -> Duration {
        self.phy.control_frame_duration(bytes)
    }

    fn slot(&self) -> Duration {
        self.mac.slot
    }

    fn sifs(&self) -> Duration {
        self.mac.sifs
    }

    fn difs(&self) -> Duration {
        self.mac.difs
    }

    fn cw_min(&self) -> u32 {
        self.mac.cw_min
    }

    fn cw_max(&self) -> u32 {
        self.mac.cw_max
    }

    fn retry_limit(&self) -> u32 {
        self.mac.retry_limit
    }

    fn data_overhead_bytes(&self) -> u32 {
        self.mac.ip_overhead_bytes + self.mac.mac_overhead_bytes
    }

    fn ack_size_bytes(&self) -> u32 {
        self.mac.ack_size_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_backend_matches_raw_params() {
        let b = ExactBackend::ns2_default();
        let phy = PhyParams::ns2_default();
        assert_eq!(
            b.mean_rx_power(100.0),
            phy.mean_rx_power(Propagation::TwoRayGround, 100.0)
        );
        assert_eq!(b.data_airtime(570), phy.data_frame_duration(570));
        assert_eq!(b.propagation_delay(250.0), phy.propagation_delay(250.0));
        assert_eq!(
            b.carrier_sense_cutoff(),
            phy.carrier_sense_cutoff(Propagation::TwoRayGround)
        );
        assert!((b.rx_range() - 250.0).abs() < 2.0);
    }

    #[test]
    fn scenario_config_is_the_exact_backend() {
        let c = ScenarioConfig::default();
        let b = ExactBackend::from(&c);
        assert_eq!(
            ChannelBackend::mean_rx_power(&c, 321.0),
            b.mean_rx_power(321.0)
        );
        assert_eq!(MacBackend::data_airtime(&c, 570), b.data_airtime(570));
        assert_eq!(MacBackend::cw_min(&c), b.cw_min());
    }

    #[test]
    fn bianchi_fixed_point_behaves() {
        let b = ExactBackend::ns2_default();
        // A lone station never collides.
        let (tau1, p1) = b.saturation_fixed_point(1);
        assert_eq!(p1, 0.0);
        assert!(tau1 > 0.0 && tau1 < 1.0);
        // Collision probability grows monotonically with contention.
        let mut last_p = 0.0;
        for n in [2usize, 5, 10, 50, 200] {
            let (tau, p) = b.saturation_fixed_point(n);
            assert!(tau > 0.0 && tau < 1.0, "tau out of range at n={n}");
            assert!(p > last_p, "p must grow with contenders (n={n})");
            assert!(p < 1.0);
            // Fixed point is self-consistent.
            let residual = (1.0 - (1.0 - tau).powf(n as f64 - 1.0) - p).abs();
            assert!(residual < 1e-6, "n={n}: residual {residual}");
            last_p = p;
        }
    }

    #[test]
    fn service_time_grows_with_collision_probability() {
        let b = ExactBackend::ns2_default();
        let calm = b.unicast_service_time(512, 0.0);
        let busy = b.unicast_service_time(512, 0.5);
        assert!(busy > calm);
        // Sanity: a 512-byte frame at 2 Mb/s with overhead is ≈2.5 ms on
        // air; the calm service time must sit in the low milliseconds.
        assert!(calm.as_secs_f64() > 2e-3 && calm.as_secs_f64() < 10e-3);
    }

    #[test]
    fn delivery_probability_uses_retry_budget() {
        let b = ExactBackend::ns2_default();
        assert_eq!(b.unicast_delivery_probability(0.0), 1.0);
        let d = b.unicast_delivery_probability(0.5);
        // 1 - 0.5^8 with the default 7-retry limit.
        assert!((d - (1.0 - 0.5f64.powi(8))).abs() < 1e-12);
    }

    #[test]
    fn fidelity_names_are_stable() {
        assert_eq!(Fidelity::Exact.name(), "exact");
        assert_eq!(Fidelity::Fluid.name(), "fluid");
        assert_eq!(Fidelity::default(), Fidelity::Exact);
    }
}
