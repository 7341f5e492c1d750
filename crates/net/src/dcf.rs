//! Closed-form IEEE 802.11 DCF results over a [`ScenarioConfig`].
//!
//! The exact engine plays the DCF out frame by frame; the fluid backend
//! (`cavenet-fluid`) evaluates these formulas instead. Each is a pure
//! function of the scenario's [`MacParams`](crate::MacParams) and
//! [`PhyParams`](crate::PhyParams) — the very parameters the per-frame
//! engine runs — so both fidelities answer from one parameterization.

use std::time::Duration;

use crate::sim::ScenarioConfig;

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
/// up to `cw_max`. Deterministic: a pure function of `(cfg, n)`.
pub fn saturation_fixed_point(cfg: &ScenarioConfig, contenders: usize) -> (f64, f64) {
    if contenders <= 1 {
        // A lone station never collides; it transmits after a mean
        // backoff of W/2 slots.
        let w = (cfg.mac.cw_min + 1) as f64;
        return (2.0 / (w + 1.0), 0.0);
    }
    let n = contenders as f64;
    let w = (cfg.mac.cw_min + 1) as f64;
    let m = ((cfg.mac.cw_max + 1) as f64 / w).log2().max(0.0).round();
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
pub fn mean_backoff(cfg: &ScenarioConfig, p: f64) -> Duration {
    let w0 = (cfg.mac.cw_min + 1) as f64;
    let wmax = (cfg.mac.cw_max + 1) as f64;
    let p = p.clamp(0.0, 0.999_999);
    // Expected slots = sum over stages of p^k · W_k/2, normalized.
    let mut slots = 0.0;
    let mut weight = 0.0;
    let mut wk = w0;
    let mut pk = 1.0;
    for _ in 0..=cfg.mac.retry_limit {
        slots += pk * (wk - 1.0) / 2.0;
        weight += pk;
        pk *= p;
        wk = (wk * 2.0).min(wmax);
    }
    Duration::from_secs_f64(cfg.mac.slot.as_secs_f64() * slots / weight.max(1e-12))
}

/// Expected time to serve one unicast data frame of `payload` bytes
/// over one hop under conditional collision probability `p`: DIFS +
/// mean backoff + (attempts) × (data + SIFS + ACK), with the expected
/// attempt count `1/(1-p)` truncated at the retry limit.
pub fn unicast_service_time(cfg: &ScenarioConfig, payload: u32, p: f64) -> Duration {
    let on_air = cfg
        .phy
        .data_frame_duration(payload + cfg.mac.data_overhead_bytes());
    let exchange = on_air + cfg.mac.sifs + cfg.phy.control_frame_duration(cfg.mac.ack_size_bytes);
    let p = p.clamp(0.0, 0.999_999);
    let attempts = (1.0 / (1.0 - p)).min((cfg.mac.retry_limit + 1) as f64);
    cfg.mac.difs + mean_backoff(cfg, p) + Duration::from_secs_f64(exchange.as_secs_f64() * attempts)
}

/// Probability that a unicast frame is delivered within the retry
/// budget under conditional collision probability `p`.
pub fn unicast_delivery_probability(cfg: &ScenarioConfig, p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    1.0 - p.powi(cfg.mac.retry_limit as i32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bianchi_fixed_point_behaves() {
        let c = ScenarioConfig::default();
        // A lone station never collides.
        let (tau1, p1) = saturation_fixed_point(&c, 1);
        assert_eq!(p1, 0.0);
        assert!(tau1 > 0.0 && tau1 < 1.0);
        // Collision probability grows monotonically with contention.
        let mut last_p = 0.0;
        for n in [2usize, 5, 10, 50, 200] {
            let (tau, p) = saturation_fixed_point(&c, n);
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
        let c = ScenarioConfig::default();
        let calm = unicast_service_time(&c, 512, 0.0);
        let busy = unicast_service_time(&c, 512, 0.5);
        assert!(busy > calm);
        // Sanity: a 512-byte frame at 2 Mb/s with overhead is ≈2.5 ms on
        // air; the calm service time must sit in the low milliseconds.
        assert!(calm.as_secs_f64() > 2e-3 && calm.as_secs_f64() < 10e-3);
    }

    #[test]
    fn delivery_probability_uses_retry_budget() {
        let c = ScenarioConfig::default();
        assert_eq!(unicast_delivery_probability(&c, 0.0), 1.0);
        let d = unicast_delivery_probability(&c, 0.5);
        // 1 - 0.5^8 with the default 7-retry limit.
        assert!((d - (1.0 - 0.5f64.powi(8))).abs() < 1e-12);
    }
}
