//! The traced run's instruments: a [`SimObserver`] that attributes engine
//! time and work to event kinds, and spans recorded around the calls the
//! benchmark makes into each layer.

use std::time::{Duration, Instant};

use cavenet_net::{EventKind, FrameDropReason, NodeId, RouteEventKind, SimObserver, SimTime};

/// The event kinds the per-layer metrics name, in [`EventKind`]
/// discriminant order (faults are not part of any workload).
pub const KINDS: [&str; 6] = [
    "rx_start",
    "rx_end",
    "tx_end",
    "mac_timer",
    "routing_timer",
    "app_timer",
];

/// Work and time counters one traced simulation accumulates; summed
/// across trials with [`add`](Self::add).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineCounts {
    /// Events dispatched per kind (index = [`EventKind`] discriminant).
    pub dispatched: [u64; 7],
    /// Wall time charged per kind: the interval from an event's dispatch
    /// to the next dispatch (or the end of the slice).
    pub self_time: [Duration; 7],
    /// Events pushed onto the future event list.
    pub scheduled: u64,
    /// Receptions sensed but never locked onto.
    pub below_threshold: u64,
    /// Route discoveries started (first RREQ).
    pub discoveries: u64,
    /// Route discoveries that installed a route.
    pub discovery_successes: u64,
}

impl EngineCounts {
    /// Fold another simulation's counters into these.
    pub fn add(&mut self, o: &EngineCounts) {
        for k in 0..7 {
            self.dispatched[k] += o.dispatched[k];
            self.self_time[k] += o.self_time[k];
        }
        self.scheduled += o.scheduled;
        self.below_threshold += o.below_threshold;
        self.discoveries += o.discoveries;
        self.discovery_successes += o.discovery_successes;
    }

    /// Total events dispatched.
    pub fn events(&self) -> u64 {
        self.dispatched.iter().sum()
    }
}

/// Benchmark-owned observer. Like `PhaseProfiler::tick`, each dispatch
/// closes the interval the previous dispatch opened and charges it to the
/// previous event's kind; [`close`](Self::close) ends the last interval
/// when a `run_until` slice returns, so the gap between slices is charged
/// to no kind.
#[derive(Debug, Default)]
pub struct LayerObserver {
    open: Option<(Instant, usize)>,
    /// The counters gathered so far.
    pub counts: EngineCounts,
}

impl LayerObserver {
    /// Charge the open interval, if any, and leave none open.
    pub fn close(&mut self) {
        if let Some((opened, kind)) = self.open.take() {
            self.counts.self_time[kind] += opened.elapsed();
        }
    }
}

impl SimObserver for LayerObserver {
    fn on_event_scheduled(&mut self, _at: SimTime, _seq: u64, _node: usize, _kind: EventKind) {
        self.counts.scheduled += 1;
    }

    fn on_event_dispatched(&mut self, _now: SimTime, _seq: u64, _node: usize, kind: EventKind) {
        let now = Instant::now();
        if let Some((opened, prev)) = self.open {
            self.counts.self_time[prev] += now - opened;
        }
        let k = kind as usize;
        self.counts.dispatched[k] += 1;
        self.open = Some((now, k));
    }

    fn on_frame_drop(&mut self, _now: SimTime, _node: usize, reason: FrameDropReason) {
        if reason == FrameDropReason::BelowThreshold {
            self.counts.below_threshold += 1;
        }
    }

    fn on_route_event(&mut self, _now: SimTime, _node: NodeId, _dst: NodeId, kind: RouteEventKind) {
        match kind {
            RouteEventKind::DiscoveryStart => self.counts.discoveries += 1,
            RouteEventKind::DiscoverySuccess => self.counts.discovery_successes += 1,
            _ => {}
        }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What was called, e.g. `core.build_sim` or `net.run_until`.
    pub name: &'static str,
    /// The trial (or run) the call belongs to; spans of one trial share it.
    pub trial: u32,
    /// Start and end, in seconds since the traced run began.
    pub start_s: f64,
    /// See `start_s`.
    pub end_s: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder for one thread; spans are merged and written
/// out when the run ends.
#[derive(Debug, Clone)]
pub struct Spans {
    epoch: Instant,
    trial: u32,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder timing against `epoch`, tagging spans with `trial`.
    pub fn new(epoch: Instant, trial: u32) -> Spans {
        Spans {
            epoch,
            trial,
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f();
        self.spans.push(Span {
            name,
            trial: self.trial,
            start_s: start,
            end_s: self.epoch.elapsed().as_secs_f64(),
        });
        out
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_core::{Experiment, Protocol, Scenario};

    /// The per-kind self times must account for the timed `run_until`
    /// slices: they miss only the moments before each slice's first
    /// dispatch.
    #[test]
    fn self_times_sum_to_the_timed_slices() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.sim_time = Duration::from_secs(20);
        s.traffic.cbr.start = Duration::from_secs(1);
        let exp = Experiment::new(s);
        let (mut sim, _rec) = exp.build_sim(LayerObserver::default()).unwrap();
        let mut timed = Duration::ZERO;
        for slice in 1..=20 {
            let t = Instant::now();
            sim.run_until(SimTime::from_secs_f64(f64::from(slice)));
            sim.observer_mut().close();
            timed += t.elapsed();
        }
        let counts = sim.into_observer().counts;
        assert!(counts.events() > 1_000);
        assert!(counts.scheduled >= counts.events());
        let charged: Duration = counts.self_time.iter().sum();
        assert!(charged <= timed, "{charged:?} > {timed:?}");
        let missing = (timed - charged).as_secs_f64();
        assert!(
            missing <= 0.05 * timed.as_secs_f64() + 0.002,
            "charged {charged:?} of {timed:?}"
        );
    }

    #[test]
    fn spans_time_their_closure() {
        let mut spans = Spans::new(Instant::now(), 3);
        let v = spans.time("a", || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        spans.time("b", || ());
        assert_eq!(v, 7);
        assert_eq!(spans.spans.len(), 2);
        assert!(spans.total("a") >= 0.002);
        assert_eq!(spans.durations("a").len(), 1);
        assert!(spans
            .spans
            .iter()
            .all(|s| s.trial == 3 && s.end_s >= s.start_s));
    }
}
