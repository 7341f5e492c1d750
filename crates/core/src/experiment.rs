//! Running a scenario end-to-end and collecting the paper's metrics.

use std::rc::Rc;
use std::time::Duration;

use cavenet_fluid::{FluidConfig, FluidEngine, FluidFlow, RouteDiscipline};
use cavenet_net::{
    DropCounts, Fidelity, FlowId, GlobalStats, NodeId, NoopObserver, ScenarioConfig, SimObserver,
    SimTime, Simulator,
};
use cavenet_traffic::{CbrSink, CbrSource, FlowMetrics, SharedRecorder, TrafficRecorder};

use crate::{Protocol, Scenario, ScenarioError, TraceMobility};

/// The fluid backend's abstraction of each routing protocol: forwarding
/// discipline, periodic control load per node (packets/s) and control
/// payload size. Reactive protocols contribute their HELLO beacons;
/// proactive ones add their periodic topology/table traffic; flooding has
/// no control plane at all.
fn fluid_routing_model(p: Protocol) -> (RouteDiscipline, f64, u32) {
    match p {
        Protocol::Flooding => (RouteDiscipline::Flood, 0.0, 0),
        // 1 Hz HELLO (Table 1).
        Protocol::Aodv | Protocol::Dymo => (RouteDiscipline::Unicast, 1.0, 48),
        // 1 Hz HELLO + TC every 2 s, MPR-forwarded.
        Protocol::Olsr | Protocol::OlsrEtx => (RouteDiscipline::Unicast, 1.5, 60),
        // Periodic full-table updates.
        Protocol::Dsdv => (RouteDiscipline::Unicast, 1.0, 64),
    }
}

/// Per-sender outcome of an experiment.
#[derive(Debug, Clone)]
pub struct SenderReport {
    /// Sender node id.
    pub sender: u32,
    /// Flow-level metrics (PDR, delay, goodput).
    pub metrics: FlowMetrics,
    /// Time-binned goodput in bits/second (bin = 1 s) over the whole run —
    /// one Z-slice of the paper's Figs. 8–10.
    pub goodput_series: Vec<f64>,
}

/// The complete outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Which protocol ran.
    pub protocol: Protocol,
    /// Simulated duration.
    pub duration: Duration,
    /// One report per configured sender, in sender order.
    pub senders: Vec<SenderReport>,
    /// Total routing control packets sent network-wide.
    pub control_packets: u64,
    /// Total routing control bytes sent network-wide.
    pub control_bytes: u64,
    /// Total data packets forwarded by intermediate nodes.
    pub data_forwarded: u64,
    /// Engine/channel counters.
    pub global: GlobalStats,
    /// Network-wide data-packet drops, broken down by terminal reason.
    pub drops: DropCounts,
}

impl ExperimentResult {
    /// PDR of one sender's flow.
    pub fn pdr_of_sender(&self, sender: u32) -> Option<f64> {
        self.senders
            .iter()
            .find(|s| s.sender == sender)
            .and_then(|s| s.metrics.pdr())
    }

    /// Mean PDR across all senders that sent anything.
    pub fn mean_pdr(&self) -> f64 {
        let pdrs: Vec<f64> = self
            .senders
            .iter()
            .filter_map(|s| s.metrics.pdr())
            .collect();
        if pdrs.is_empty() {
            0.0
        } else {
            pdrs.iter().sum::<f64>() / pdrs.len() as f64
        }
    }

    /// Mean end-to-end delay across all delivered packets, if any.
    pub fn mean_delay(&self) -> Option<Duration> {
        let mut total = Duration::ZERO;
        let mut n = 0u32;
        for s in &self.senders {
            if let Some(d) = s.metrics.mean_delay {
                total += d * s.metrics.received as u32;
                n += s.metrics.received as u32;
            }
        }
        if n == 0 {
            None
        } else {
            Some(total / n)
        }
    }

    /// Worst route-acquisition delay across all flows: the maximum
    /// end-to-end delay of any delivered packet, dominated by packets
    /// buffered during route (re)discovery.
    pub fn max_delay(&self) -> Option<Duration> {
        self.senders
            .iter()
            .filter_map(|s| s.metrics.max_delay)
            .max()
    }

    /// Peak of any sender's binned goodput (the spike height in Fig. 8).
    pub fn peak_goodput_bps(&self) -> f64 {
        self.senders
            .iter()
            .flat_map(|s| s.goodput_series.iter().copied())
            .fold(0.0, f64::max)
    }

    /// Sum of unique packets received across all senders.
    pub fn total_received(&self) -> u64 {
        self.senders.iter().map(|s| s.metrics.received).sum()
    }

    /// Sum of packets sent across all senders.
    pub fn total_sent(&self) -> u64 {
        self.senders.iter().map(|s| s.metrics.sent).sum()
    }

    /// Routing overhead: control packets per delivered data packet
    /// (paper §V names routing overhead as future-work metric).
    pub fn overhead_per_delivery(&self) -> f64 {
        let recv = self.total_received();
        if recv == 0 {
            self.control_packets as f64
        } else {
            self.control_packets as f64 / recv as f64
        }
    }
}

/// One scenario run in flight, under either fidelity.
///
/// [`Experiment::start`] builds one and [`Experiment::resume`] restores one
/// from a snapshot. Every driver — [`Experiment::run`], the checkpoint
/// loop, the campaign supervisor — holds a `Run` and advances it in
/// virtual time; only these methods tell the two backends apart.
#[derive(Debug)]
pub enum Run<O: SimObserver> {
    /// The per-frame DCF engine.
    Exact {
        /// The simulator, carrying the caller's observer.
        sim: Box<Simulator<O>>,
        /// The CBR traffic ledger the experiment's metrics come from.
        recorder: SharedRecorder,
    },
    /// The flow-level fluid engine. It has no event stream, so the
    /// observer passed to [`Experiment::start`] is not attached.
    Fluid(Box<FluidEngine>),
}

impl<O: SimObserver> Run<O> {
    /// Virtual time reached, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self {
            Run::Exact { sim, .. } => sim.now().as_nanos(),
            Run::Fluid(engine) => engine.now_ns(),
        }
    }

    /// Virtual time at which `exp`'s run ends, in nanoseconds.
    pub fn end_ns(&self, exp: &Experiment) -> u64 {
        let sim_time = exp.scenario.sim_time;
        match self {
            Run::Exact { .. } => SimTime::from_secs_f64(sim_time.as_secs_f64()).as_nanos(),
            Run::Fluid(_) => sim_time.as_nanos() as u64,
        }
    }

    /// Advance to virtual time `target_ns`. The exact engine stops there;
    /// the fluid engine moves in whole model steps (never past the end),
    /// so it may stop later.
    pub fn advance_until_ns(&mut self, target_ns: u64) {
        match self {
            Run::Exact { sim, .. } => sim.run_until(SimTime::from_nanos(target_ns)),
            Run::Fluid(engine) => engine.run_until_ns(target_ns),
        }
    }

    /// Work done so far: events dispatched by the exact engine, model
    /// steps by the fluid one.
    pub fn steps(&self) -> u64 {
        match self {
            Run::Exact { sim, .. } => sim.global_stats().events_processed,
            Run::Fluid(engine) => engine.steps_done(),
        }
    }

    /// The experiment's metrics at the run's current point (its final
    /// result once the run has reached [`end_ns`](Self::end_ns)).
    pub fn collect(&self, exp: &Experiment) -> ExperimentResult {
        match self {
            Run::Exact { sim, recorder } => exp.collect(sim, recorder),
            Run::Fluid(engine) => exp.collect_fluid(engine),
        }
    }
}

/// Runs a [`Scenario`] through the full BA → CPS pipeline.
#[derive(Debug, Clone)]
pub struct Experiment {
    scenario: Scenario,
}

impl Experiment {
    /// Prepare an experiment.
    pub fn new(scenario: Scenario) -> Self {
        Experiment { scenario }
    }

    /// The scenario to be run.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Generate mobility, run the scenario under its configured
    /// [`Fidelity`] and collect metrics: the exact per-frame engine for
    /// [`Fidelity::Exact`], the flow-level fluid backend for
    /// [`Fidelity::Fluid`].
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the scenario is inconsistent or its
    /// mobility model cannot be built.
    pub fn run(&self) -> Result<ExperimentResult, ScenarioError> {
        let mut run = self.start(NoopObserver)?;
        run.advance_until_ns(run.end_ns(self));
        Ok(run.collect(self))
    }

    /// Generate mobility and build the scenario's engine under its
    /// configured [`Fidelity`], ready to advance from time zero: the
    /// simulator from [`build_sim`](Self::build_sim) carrying `observer`,
    /// or the engine from [`build_fluid`](Self::build_fluid).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the scenario is inconsistent or its
    /// mobility model cannot be built.
    pub fn start<O: SimObserver>(&self, observer: O) -> Result<Run<O>, ScenarioError> {
        match self.scenario.fidelity {
            Fidelity::Fluid => self
                .build_fluid()
                .map(|engine| Run::Fluid(Box::new(engine))),
            _ => self.build_sim(observer).map(|(sim, recorder)| Run::Exact {
                sim: Box::new(sim),
                recorder,
            }),
        }
    }

    /// The PHY/MAC configuration both backends run for this scenario.
    fn net_config(&self) -> ScenarioConfig {
        let mut config = ScenarioConfig {
            propagation: self.scenario.propagation,
            ..ScenarioConfig::default()
        };
        if self.scenario.rts_cts {
            config.mac.rts_threshold = Some(0);
        }
        config
    }

    /// Like [`run`](Self::run) for an exact scenario, but attaches a
    /// [`SimObserver`] to the engine and also returns the finished
    /// simulator, giving callers access to the observer
    /// ([`Simulator::into_observer`]), per-node statistics and
    /// routing-protocol state after the run. This is the entry point the
    /// conformance testkit uses for invariant checking and golden digests.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the scenario is inconsistent, its
    /// mobility model cannot be built, or it selects [`Fidelity::Fluid`].
    pub fn run_with_observer<O: SimObserver>(
        &self,
        observer: O,
    ) -> Result<(ExperimentResult, Simulator<O>), ScenarioError> {
        let (mut sim, recorder) = self.build_sim(observer)?;
        sim.run_until(SimTime::from_secs_f64(self.scenario.sim_time.as_secs_f64()));
        let result = self.collect(&sim, &recorder);
        Ok((result, sim))
    }

    /// Build the scenario's simulator (mobility trace, routing, CBR apps,
    /// shared traffic recorder) without running it: the exact arm of
    /// [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::WrongFidelity`] unless the scenario selects
    /// [`Fidelity::Exact`]; otherwise [`ScenarioError`] when the scenario
    /// is inconsistent or its mobility model cannot be built.
    pub fn build_sim<O: SimObserver>(
        &self,
        observer: O,
    ) -> Result<(Simulator<O>, SharedRecorder), ScenarioError> {
        let s = &self.scenario;
        if s.fidelity != Fidelity::Exact {
            return Err(ScenarioError::WrongFidelity {
                expected: Fidelity::Exact,
            });
        }
        s.validate()?;
        let trace = s.build_trace()?;
        let mobility = match s.mobility_quantum {
            Some(q) => TraceMobility::quantized(trace, q),
            None => TraceMobility::new(trace),
        };

        let recorder = TrafficRecorder::new_shared();
        let protocol = s.protocol;
        let mut builder = Simulator::builder(self.net_config())
            .observer(observer)
            .nodes(s.nodes)
            .seed(s.seed)
            .mobility(Box::new(mobility))
            .neighbor_grid(s.neighbor_grid)
            .fault_plan(s.fault_plan.clone())
            .routing_with(move |_| protocol.instantiate());
        for &sender in &s.traffic.senders {
            builder = builder.app(
                sender as usize,
                Box::new(CbrSource::new(
                    NodeId(s.traffic.receiver),
                    s.traffic.cbr,
                    Rc::clone(&recorder),
                )),
            );
        }
        builder = builder.app(
            s.traffic.receiver as usize,
            Box::new(CbrSink::new(Rc::clone(&recorder))),
        );
        let sim = builder.try_build().map_err(ScenarioError::Fault)?;
        Ok((sim, recorder))
    }

    /// Assemble the experiment's metrics from a finished (or mid-flight)
    /// simulator and its traffic recorder: the exact arm of
    /// [`Run::collect`].
    pub fn collect<O: SimObserver>(
        &self,
        sim: &Simulator<O>,
        recorder: &SharedRecorder,
    ) -> ExperimentResult {
        let s = &self.scenario;
        let rec = recorder.borrow();
        let senders = s
            .traffic
            .senders
            .iter()
            .map(|&sender| {
                let flow = FlowId::new(
                    NodeId(sender),
                    NodeId(s.traffic.receiver),
                    s.traffic.cbr.port,
                );
                SenderReport {
                    sender,
                    metrics: rec.metrics(flow),
                    goodput_series: rec.goodput_series(flow, Duration::from_secs(1), s.sim_time),
                }
            })
            .collect();

        let mut control_packets = 0;
        let mut control_bytes = 0;
        let mut data_forwarded = 0;
        for i in 0..s.nodes {
            let ns = sim.node_stats(i);
            control_packets += ns.control_sent;
            control_bytes += ns.control_bytes_sent;
            data_forwarded += ns.data_forwarded;
        }

        ExperimentResult {
            protocol: s.protocol,
            duration: s.sim_time,
            senders,
            control_packets,
            control_bytes,
            data_forwarded,
            global: sim.global_stats(),
            drops: sim.drop_counts(),
        }
    }

    /// Build the scenario's fluid engine (mobility trace, flow table,
    /// PHY/MAC configuration) without running it: the fluid arm of
    /// [`start`](Self::start).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::WrongFidelity`] unless the scenario selects
    /// [`Fidelity::Fluid`]; otherwise any scenario validation or fluid
    /// construction error.
    pub fn build_fluid(&self) -> Result<FluidEngine, ScenarioError> {
        let s = &self.scenario;
        if s.fidelity != Fidelity::Fluid {
            return Err(ScenarioError::WrongFidelity {
                expected: Fidelity::Fluid,
            });
        }
        s.validate()?;
        let trace = s.build_trace()?;
        let (discipline, control_pps_per_node, control_payload_bytes) =
            fluid_routing_model(s.protocol);
        let flows = s
            .traffic
            .senders
            .iter()
            .map(|&sender| FluidFlow {
                src: sender,
                dst: s.traffic.receiver,
                cbr: s.traffic.cbr,
            })
            .collect();
        let cfg = FluidConfig {
            nodes: s.nodes as u32,
            sim_time: s.sim_time,
            step: Duration::from_secs(1),
            // The very parameterization the exact engine would run.
            net: self.net_config(),
            discipline,
            control_pps_per_node,
            control_payload_bytes,
            flows,
        };
        FluidEngine::new(cfg, trace).map_err(ScenarioError::Fluid)
    }

    /// Assemble experiment metrics from a (finished or mid-flight) fluid
    /// engine: the fluid arm of [`Run::collect`]. Flow
    /// metrics are exact in shape; engine-level counters (`global`,
    /// control totals) are the model's analytic estimates, and `drops`
    /// stays empty (the fluid model has no per-packet drop ledger).
    pub fn collect_fluid(&self, engine: &FluidEngine) -> ExperimentResult {
        let s = &self.scenario;
        let report = engine.report();
        let senders = s
            .traffic
            .senders
            .iter()
            .zip(&report.flows)
            .map(|(&sender, f)| {
                debug_assert_eq!(f.src, sender);
                SenderReport {
                    sender,
                    metrics: FlowMetrics {
                        flow: FlowId::new(NodeId(f.src), NodeId(f.dst), f.port),
                        sent: f.sent,
                        received: f.received,
                        duplicates: 0,
                        bytes_sent: f.bytes_sent,
                        bytes_received: f.bytes_received,
                        mean_delay: f.mean_delay,
                        max_delay: f.max_delay,
                        first_sent: f
                            .first_sent
                            .map(|d| SimTime::from_nanos(d.as_nanos() as u64)),
                        last_received: f
                            .last_received
                            .map(|d| SimTime::from_nanos(d.as_nanos() as u64)),
                    },
                    goodput_series: f.goodput_bps.clone(),
                }
            })
            .collect();
        let (_, control_pps, control_payload) = fluid_routing_model(s.protocol);
        let control_packets =
            (s.nodes as f64 * control_pps * s.sim_time.as_secs_f64()).round() as u64;
        let total_sent: u64 = report.flows.iter().map(|f| f.sent).sum();
        ExperimentResult {
            protocol: s.protocol,
            duration: s.sim_time,
            senders,
            control_packets,
            control_bytes: control_packets * u64::from(control_payload),
            data_forwarded: report
                .est_transmissions
                .saturating_sub(control_packets + total_sent),
            global: GlobalStats {
                transmissions: report.est_transmissions,
                decoded: report.est_decoded,
                collisions: 0,
                rx_while_tx: 0,
                events_processed: report.steps,
            },
            drops: DropCounts::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MobilitySource;

    fn quick_scenario(protocol: Protocol, seed: u64) -> Scenario {
        let mut s = Scenario::paper_table1(protocol);
        // Shorter run for unit tests: traffic 5–25 s, 30 s total.
        s.sim_time = Duration::from_secs(30);
        s.traffic.cbr.start = Duration::from_secs(5);
        s.traffic.cbr.stop = Duration::from_secs(25);
        s.traffic.senders = vec![1, 2, 3];
        s.seed = seed;
        s
    }

    #[test]
    fn aodv_experiment_delivers_traffic() {
        let r = Experiment::new(quick_scenario(Protocol::Aodv, 1))
            .run()
            .unwrap();
        assert_eq!(r.senders.len(), 3);
        assert!(
            r.total_sent() >= 290,
            "3 senders × ~100 packets, got {}",
            r.total_sent()
        );
        assert!(
            r.total_received() > 100,
            "AODV should deliver a good share, got {}/{}",
            r.total_received(),
            r.total_sent()
        );
        assert!(r.control_packets > 0);
    }

    #[test]
    fn dymo_experiment_delivers_traffic() {
        let r = Experiment::new(quick_scenario(Protocol::Dymo, 1))
            .run()
            .unwrap();
        assert!(
            r.total_received() > 100,
            "DYMO should deliver, got {}/{}",
            r.total_received(),
            r.total_sent()
        );
    }

    #[test]
    fn olsr_experiment_runs() {
        let r = Experiment::new(quick_scenario(Protocol::Olsr, 1))
            .run()
            .unwrap();
        // OLSR delivers less on this dynamic ring (the paper's point), but
        // the run must complete and produce some deliveries.
        assert!(r.total_sent() > 0);
        assert!(r.control_packets > 0);
    }

    #[test]
    fn results_are_deterministic() {
        let a = Experiment::new(quick_scenario(Protocol::Aodv, 7))
            .run()
            .unwrap();
        let b = Experiment::new(quick_scenario(Protocol::Aodv, 7))
            .run()
            .unwrap();
        assert_eq!(a.total_received(), b.total_received());
        assert_eq!(a.control_packets, b.control_packets);
        assert_eq!(a.global, b.global);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Experiment::new(quick_scenario(Protocol::Aodv, 1))
            .run()
            .unwrap();
        let b = Experiment::new(quick_scenario(Protocol::Aodv, 2))
            .run()
            .unwrap();
        // Mobility and backoff differ; byte-identical outcomes would signal
        // a seeding bug.
        assert!(
            a.global.transmissions != b.global.transmissions
                || a.total_received() != b.total_received()
        );
    }

    #[test]
    fn goodput_series_respects_traffic_window() {
        let r = Experiment::new(quick_scenario(Protocol::Aodv, 3))
            .run()
            .unwrap();
        for s in &r.senders {
            assert_eq!(s.goodput_series.len(), 30);
            // Nothing before the 5 s start.
            assert_eq!(s.goodput_series[0], 0.0);
            assert_eq!(s.goodput_series[3], 0.0);
        }
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let mut s = quick_scenario(Protocol::Aodv, 1);
        s.traffic.senders = vec![40];
        assert!(Experiment::new(s).run().is_err());
    }

    #[test]
    fn neighbor_grid_matches_brute_force_end_to_end() {
        // The full BA → CPS pipeline (CA mobility, AODV, CBR traffic) must
        // produce byte-identical results with the grid on and off.
        let mut with_grid = quick_scenario(Protocol::Aodv, 11);
        with_grid.neighbor_grid = true;
        let mut brute = with_grid.clone();
        brute.neighbor_grid = false;
        let a = Experiment::new(with_grid).run().unwrap();
        let b = Experiment::new(brute).run().unwrap();
        assert_eq!(a.global, b.global, "engine counters diverged");
        assert_eq!(a.total_received(), b.total_received());
        assert_eq!(a.control_packets, b.control_packets);
        assert_eq!(a.mean_delay(), b.mean_delay());
        assert!(a.total_received() > 0, "scenario must carry traffic");
    }

    #[test]
    fn quantized_mobility_runs_and_delivers() {
        // Quantizing positions to the 1 s CA step changes *when* positions
        // refresh (so results may differ from the continuous path) but must
        // stay a healthy, deterministic simulation.
        let mut s = quick_scenario(Protocol::Aodv, 1);
        s.mobility_quantum = Some(Duration::from_secs(1));
        let a = Experiment::new(s.clone()).run().unwrap();
        let b = Experiment::new(s).run().unwrap();
        assert!(a.total_received() > 100, "got {}", a.total_received());
        assert_eq!(a.global, b.global, "quantized run must stay deterministic");
    }

    #[test]
    fn fluid_fidelity_runs_and_delivers() {
        let mut s = quick_scenario(Protocol::Aodv, 1);
        s.fidelity = Fidelity::Fluid;
        let r = Experiment::new(s).run().unwrap();
        assert_eq!(r.senders.len(), 3);
        assert_eq!(r.total_sent(), 300, "3 senders x 100 exact emissions");
        assert!(r.total_received() > 0, "connected ring must deliver");
        assert!(r.control_packets > 0);
        assert!(r.global.transmissions > 0);
        // The goodput series has the exact recorder's shape.
        assert_eq!(r.senders[0].goodput_series.len(), 30);
    }

    #[test]
    fn fluid_runs_are_deterministic_and_seed_sensitive() {
        let fluid = |seed| {
            let mut s = quick_scenario(Protocol::Aodv, seed);
            s.fidelity = Fidelity::Fluid;
            let exp = Experiment::new(s);
            let mut run = exp.start(NoopObserver).unwrap();
            run.advance_until_ns(run.end_ns(&exp));
            let Run::Fluid(engine) = run else {
                panic!("a fluid scenario must start a fluid run");
            };
            (exp.collect_fluid(&engine), engine)
        };
        let (ra, ea) = fluid(7);
        let (rb, eb) = fluid(7);
        assert_eq!(ea.digest(), eb.digest(), "same seed, same digest");
        assert_eq!(ra.total_received(), rb.total_received());
        // A different seed shifts the CA jam pattern, which the fluid
        // model sees through the trace.
        let (_, ec) = fluid(8);
        assert_ne!(ea.digest(), ec.digest(), "seed must reach the fluid model");
    }

    #[test]
    fn fluid_flooding_scenario_runs() {
        let mut s = quick_scenario(Protocol::Flooding, 1);
        s.fidelity = Fidelity::Fluid;
        let r = Experiment::new(s).run().unwrap();
        assert!(r.mean_pdr() > 0.0);
        assert_eq!(r.control_packets, 0, "flooding has no control plane");
    }

    #[test]
    fn entry_points_enforce_fidelity() {
        let mut s = quick_scenario(Protocol::Aodv, 1);
        s.fidelity = Fidelity::Fluid;
        assert!(matches!(
            Experiment::new(s.clone()).build_sim(NoopObserver).err(),
            Some(ScenarioError::WrongFidelity {
                expected: Fidelity::Exact
            })
        ));
        s.fidelity = Fidelity::Exact;
        assert!(matches!(
            Experiment::new(s).build_fluid().err(),
            Some(ScenarioError::WrongFidelity {
                expected: Fidelity::Fluid
            })
        ));
    }

    #[test]
    fn parked_ring_gives_stable_delivery() {
        let mut s = quick_scenario(Protocol::Aodv, 1);
        s.mobility = MobilitySource::ParkedRing;
        let r = Experiment::new(s).run().unwrap();
        let pdr = r.mean_pdr();
        assert!(pdr > 0.6, "static ring should deliver well, got {pdr}");
    }
}
