//! The per-layer metric table the traced run reports, and how engine
//! counters fill it.

use std::collections::BTreeMap;

use cavenet_core::ExperimentResult;
use cavenet_net::DropCounts;
use cavenet_telemetry::drop_reason_name;

use crate::measure::percentile;
use crate::observer::{EngineCounts, KINDS};

/// Every per-layer metric, with its unit, in report order. A workload
/// that leaves a layer idle reports 0 for it. Metrics in `count` units
/// are exact work counters: they repeat exactly for a seed.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("net.rx_start.count", "count"),
    ("net.rx_start.self_s", "s"),
    ("net.rx_end.count", "count"),
    ("net.rx_end.self_s", "s"),
    ("net.tx_end.count", "count"),
    ("net.tx_end.self_s", "s"),
    ("net.mac_timer.count", "count"),
    ("net.mac_timer.self_s", "s"),
    ("net.routing_timer.count", "count"),
    ("net.routing_timer.self_s", "s"),
    ("net.app_timer.count", "count"),
    ("net.app_timer.self_s", "s"),
    ("net.events", "count"),
    ("net.events_scheduled", "count"),
    ("net.transmissions", "count"),
    ("net.decoded", "count"),
    ("net.collisions", "count"),
    ("net.below_threshold", "count"),
    ("net.events_per_s", "1/s"),
    ("net.slice_p50_ms", "ms"),
    ("net.slice_p90_ms", "ms"),
    ("net.decode_ratio", "ratio"),
    ("net.mac.retries", "count"),
    ("net.mac.queue_drops", "count"),
    ("net.mac.queue_hwm_max", "count"),
    ("net.alloc_per_event", "allocs/event"),
    ("traffic.sent", "count"),
    ("traffic.delivered", "count"),
    ("routing.control_packets", "count"),
    ("routing.control_bytes", "count"),
    ("routing.drops.queue_overflow", "count"),
    ("routing.drops.retry_limit", "count"),
    ("routing.drops.no_route", "count"),
    ("routing.drops.ttl_expired", "count"),
    ("routing.drops.queue_timeout", "count"),
    ("routing.drops.discovery_failed", "count"),
    ("routing.drops.node_down", "count"),
    ("routing.discoveries", "count"),
    ("routing.discovery_success_ratio", "ratio"),
    ("core.build_trace_s", "s"),
    ("core.build_sim_s", "s"),
    ("core.build_fluid_s", "s"),
    ("core.collect_s", "s"),
    ("ca.vehicle_steps", "count"),
    ("ca.vehicle_steps_per_s", "1/s"),
    ("fluid.steps", "count"),
    ("fluid.step_p50_ms", "ms"),
    ("fluid.step_p90_ms", "ms"),
    ("checkpoint.snapshots", "count"),
    ("checkpoint.bytes", "count"),
    ("checkpoint.probe_bytes", "count"),
    ("checkpoint.save_ms", "ms"),
    ("checkpoint.restore_ms", "ms"),
    ("server.attempts", "count"),
    ("server.retries", "count"),
    ("server.supervision_overhead", "ratio"),
    ("telemetry.trace_overhead", "ratio"),
];

/// One traced run's per-layer values, every metric of [`LAYER_METRICS`]
/// present (0 until set).
#[derive(Debug, Clone, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }
}

impl Layers {
    /// Set `name`, which must be in [`LAYER_METRICS`].
    ///
    /// # Panics
    ///
    /// On a name outside the table (a bug in the benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown layer metric {name}")) = value;
    }

    /// The value of `name` (0 when unknown).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Metrics in [`LAYER_METRICS`] order with their units.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        LAYER_METRICS.iter().map(|&(n, u)| (n, u, self.get(n)))
    }

    /// Merge repeated traced runs of one seed: exact counters must agree
    /// and are kept; every other metric becomes the median. Returns the
    /// names of counters that disagreed.
    pub fn merge(runs: &[Layers]) -> (Layers, Vec<&'static str>) {
        let mut out = Layers::default();
        let mut unstable = Vec::new();
        for &(name, unit) in LAYER_METRICS {
            let values: Vec<f64> = runs.iter().map(|l| l.get(name)).collect();
            if unit == "count" {
                if values.windows(2).any(|w| w[0] != w[1]) {
                    unstable.push(name);
                }
                out.set(name, values.first().copied().unwrap_or(0.0));
            } else {
                out.set(name, percentile(&values, 50.0));
            }
        }
        (out, unstable)
    }
}

/// Network-wide MAC health summed over the nodes of one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacTotals {
    /// Retransmissions.
    pub retries: u64,
    /// Frames refused by a full interface queue.
    pub queue_drops: u64,
    /// Highest interface-queue occupancy any node reached.
    pub queue_hwm_max: u64,
}

impl MacTotals {
    /// Fold another run's totals in.
    pub fn add(&mut self, o: MacTotals) {
        self.retries += o.retries;
        self.queue_drops += o.queue_drops;
        self.queue_hwm_max = self.queue_hwm_max.max(o.queue_hwm_max);
    }
}

/// What the exact engine did across the simulations of one traced run.
#[derive(Debug, Clone, Default)]
pub struct ExactWork {
    /// Observer counters, summed.
    pub counts: EngineCounts,
    /// Durations of every `run_until` slice, in seconds.
    pub slices_s: Vec<f64>,
    /// Allocation calls made inside `run_until`.
    pub allocations: u64,
    /// MAC health.
    pub mac: MacTotals,
    /// Collected results, one per simulation.
    pub results: Vec<ExperimentResult>,
}

impl ExactWork {
    /// Fold another simulation's work in.
    pub fn add(&mut self, o: ExactWork) {
        self.counts.add(&o.counts);
        self.slices_s.extend(o.slices_s);
        self.allocations += o.allocations;
        self.mac.add(o.mac);
        self.results.extend(o.results);
    }

    /// Fill the `net.*`, `traffic.*` and `routing.*` metrics.
    pub fn fill(&self, layers: &mut Layers) {
        let c = &self.counts;
        for (k, name) in KINDS.iter().enumerate() {
            layers.set(&format!("net.{name}.count"), c.dispatched[k] as f64);
            layers.set(&format!("net.{name}.self_s"), c.self_time[k].as_secs_f64());
        }
        let sum = |f: &dyn Fn(&ExperimentResult) -> u64| -> f64 {
            self.results.iter().map(f).sum::<u64>() as f64
        };
        let events = sum(&|r| r.global.events_processed);
        let run_s: f64 = self.slices_s.iter().sum();
        layers.set("net.events", events);
        layers.set("net.events_scheduled", c.scheduled as f64);
        layers.set("net.transmissions", sum(&|r| r.global.transmissions));
        let decoded = sum(&|r| r.global.decoded);
        layers.set("net.decoded", decoded);
        layers.set("net.collisions", sum(&|r| r.global.collisions));
        layers.set("net.below_threshold", c.below_threshold as f64);
        layers.set("net.events_per_s", ratio(events, run_s));
        layers.set("net.slice_p50_ms", percentile(&self.slices_s, 50.0) * 1e3);
        layers.set("net.slice_p90_ms", percentile(&self.slices_s, 90.0) * 1e3);
        layers.set("net.decode_ratio", ratio(decoded, c.dispatched[0] as f64));
        layers.set("net.mac.retries", self.mac.retries as f64);
        layers.set("net.mac.queue_drops", self.mac.queue_drops as f64);
        layers.set("net.mac.queue_hwm_max", self.mac.queue_hwm_max as f64);
        layers.set(
            "net.alloc_per_event",
            ratio(self.allocations as f64, events),
        );
        layers.set("traffic.sent", sum(&|r| r.total_sent()));
        layers.set("traffic.delivered", sum(&|r| r.total_received()));
        layers.set("routing.control_packets", sum(&|r| r.control_packets));
        layers.set("routing.control_bytes", sum(&|r| r.control_bytes));
        for reason in DropCounts::ALL {
            let name = format!("routing.drops.{}", drop_reason_name(reason));
            layers.set(&name, sum(&|r| r.drops.get(reason)));
        }
        layers.set("routing.discoveries", c.discoveries as f64);
        layers.set(
            "routing.discovery_success_ratio",
            ratio(c.discovery_successes as f64, c.discoveries as f64),
        );
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::valid_name;

    fn unit_of(name: &str) -> Option<&'static str> {
        LAYER_METRICS
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
    }

    #[test]
    fn every_layer_metric_is_well_named_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in LAYER_METRICS {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(unit_of("net.events"), Some("count"));
    }

    #[test]
    fn every_drop_reason_has_a_metric() {
        for reason in DropCounts::ALL {
            let name = format!("routing.drops.{}", drop_reason_name(reason));
            assert_eq!(unit_of(&name), Some("count"), "{name}");
        }
    }

    #[test]
    fn merge_keeps_counters_and_takes_medians_of_times() {
        let mut a = Layers::default();
        a.set("net.events", 10.0);
        a.set("core.build_sim_s", 1.0);
        let mut b = a.clone();
        b.set("core.build_sim_s", 3.0);
        let mut c = a.clone();
        c.set("core.build_sim_s", 2.0);
        let (m, unstable) = Layers::merge(&[a.clone(), b, c]);
        assert!(unstable.is_empty());
        assert_eq!(m.get("net.events"), 10.0);
        assert_eq!(m.get("core.build_sim_s"), 2.0);
        let mut d = a.clone();
        d.set("net.events", 11.0);
        assert_eq!(Layers::merge(&[a, d]).1, vec!["net.events"]);
    }

    /// The table here and the `per_layer` list in `BENCHMARK.json` must
    /// name the same metrics with the same units.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = cavenet_telemetry::json::parse(&text).expect("valid JSON");
        let Some(cavenet_telemetry::Json::Arr(per_layer)) = json.get("per_layer") else {
            panic!("per_layer must be an array");
        };
        let listed: Vec<(&str, &str)> = per_layer
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|v| v.as_str()).expect("name"),
                    m.get("unit").and_then(|v| v.as_str()).expect("unit"),
                )
            })
            .collect();
        assert_eq!(listed, LAYER_METRICS);
    }
}
