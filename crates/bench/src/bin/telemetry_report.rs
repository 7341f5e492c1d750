//! Telemetry report: the Fig. 11 scenario instrumented end-to-end, emitted
//! as `BENCH_telemetry.json`.
//!
//! For each of the paper's three protocols (AODV, OLSR, DYMO) this runs
//! the Table 1 / Fig. 11 setup three times — bare (NoopObserver, the
//! zero-cost baseline), metrics-only ([`TelemetryObserver`] with tracing
//! off: the always-on cost), and fully traced (the default bounded JSONL
//! trace: the opt-in cost) — and reports:
//!
//! * the **observation overhead**: metrics-only wall-clock over noop
//!   wall-clock, which DESIGN.md §11 bounds at 3× (with an absolute slack
//!   for sub-second smoke baselines where fixed costs dominate);
//! * the **per-phase wall-clock breakdown** (mobility generation, PHY,
//!   MAC, routing, application, faults) from the phase profiler;
//! * the **metric snapshot**: engine counters, per-reason drop counts,
//!   delivery-latency and frame-size histograms;
//! * **per-protocol routing telemetry** (discovery counts, table sizes,
//!   MPR set) aggregated over all nodes, plus control-message overhead;
//! * **MAC health**: the worst per-node queue high-water mark and the
//!   network-wide backoff-slot histogram;
//! * **trace accounting**: emitted/filtered/sampled/truncated line counts
//!   of the bounded JSONL trace.
//!
//! Usage: `telemetry_report [--quick] [--check]`. `--quick` shrinks the
//! run for CI smoke; `--check` re-parses the written artifact, validates
//! the manifest schema and asserts the overhead bound.

use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_net::MacStats;
use cavenet_telemetry::{
    drop_reason_name, fnv64, Json, Phase, RunManifest, TelemetryObserver, TraceConfig,
};

/// Documented ceiling on metrics-only telemetry wall-clock relative to the
/// noop baseline (DESIGN.md §11).
const OVERHEAD_CEILING: f64 = 3.0;

/// Absolute slack on the wall-clock difference: when the baseline is a few
/// milliseconds (quick CI smoke), fixed costs dominate and the ratio is
/// noise — a quarter second of absolute overhead is still "free" there.
const OVERHEAD_SLACK_S: f64 = 0.25;

fn fig11_scenario(protocol: Protocol, quick: bool) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    if quick {
        s.sim_time = Duration::from_secs(30);
        s.traffic.cbr.start = Duration::from_secs(5);
        s.traffic.cbr.stop = Duration::from_secs(25);
        s.traffic.senders = vec![1, 2, 3];
    }
    s
}

struct ProtocolRun {
    protocol: Protocol,
    noop_wall_s: f64,
    metrics_wall_s: f64,
    traced_wall_s: f64,
    section: Json,
}

impl ProtocolRun {
    /// Metrics-only overhead ratio — what the 3× guarantee is about.
    fn overhead(&self) -> f64 {
        self.metrics_wall_s / self.noop_wall_s.max(1e-9)
    }

    fn within_ceiling(&self) -> bool {
        self.overhead() <= OVERHEAD_CEILING
            || self.metrics_wall_s - self.noop_wall_s <= OVERHEAD_SLACK_S
    }
}

fn run_protocol(protocol: Protocol, quick: bool) -> ProtocolRun {
    let scenario = fig11_scenario(protocol, quick);

    // Baseline: the exact run with the noop observer (zero-cost hooks).
    let t0 = Instant::now();
    let baseline = Experiment::new(scenario.clone()).run().expect("runs");
    let noop_wall_s = t0.elapsed().as_secs_f64();

    // Metrics-only: counters, gauges, histograms and the phase profiler,
    // no trace lines. This is the always-on cost the overhead bound covers.
    let t0 = Instant::now();
    let _ = Experiment::new(scenario.clone())
        .run_with_observer(TelemetryObserver::with_config(TraceConfig::off()))
        .expect("runs");
    let metrics_wall_s = t0.elapsed().as_secs_f64();

    // Fully instrumented run (default bounded trace). Mobility-trace
    // generation happens inside the experiment before the engine starts,
    // so it is timed separately and attributed to the Mobility phase.
    let t0 = Instant::now();
    let _ = scenario.build_trace().expect("trace builds");
    let mobility_wall = t0.elapsed();

    let t0 = Instant::now();
    let (result, sim) = Experiment::new(scenario)
        .run_with_observer(TelemetryObserver::new())
        .expect("runs");
    let traced_wall_s = t0.elapsed().as_secs_f64();

    // Aggregate routing telemetry and MAC health over all nodes while the
    // simulator is still alive.
    let mut routing = cavenet_net::RoutingTelemetry::default();
    let mut queue_hwm = 0u64;
    let mut backoff_hist = [0u64; MacStats::BACKOFF_BUCKETS];
    for i in 0..sim.node_count() {
        if let Some(r) = sim.routing(i) {
            let t = r.telemetry();
            routing.route_table_size += t.route_table_size;
            routing.neighbours += t.neighbours;
            routing.discoveries_started += t.discoveries_started;
            routing.discovery_retries += t.discovery_retries;
            routing.discoveries_succeeded += t.discoveries_succeeded;
            routing.discoveries_failed += t.discoveries_failed;
            routing.mpr_set_size += t.mpr_set_size;
        }
        let mac = sim.mac_stats(i);
        queue_hwm = queue_hwm.max(mac.queue_hwm);
        for (total, &n) in backoff_hist.iter_mut().zip(&mac.backoff_hist) {
            *total += n;
        }
    }
    let drops = sim.drop_counts();
    let mut obs = sim.into_observer();
    obs.profiler_mut()
        .add_external(Phase::Mobility, mobility_wall);
    obs.finish();

    println!(
        "{protocol}: noop {noop_wall_s:.2} s, metrics {metrics_wall_s:.2} s ({:.2}×), \
         traced {traced_wall_s:.2} s; discoveries {}/{} ok, control {} pkts, drops {}, \
         queue hwm {}, trace {} lines (+{} filtered)",
        metrics_wall_s / noop_wall_s.max(1e-9),
        routing.discoveries_succeeded,
        routing.discoveries_started,
        result.control_packets,
        drops.total(),
        queue_hwm,
        obs.tracer().emitted(),
        obs.tracer().filtered(),
    );

    let section = obj(vec![
        ("protocol", Json::str(protocol.to_string())),
        ("noop_wall_s", num(noop_wall_s)),
        ("metrics_wall_s", num(metrics_wall_s)),
        ("traced_wall_s", num(traced_wall_s)),
        (
            "overhead_ratio",
            num(metrics_wall_s / noop_wall_s.max(1e-9)),
        ),
        ("mean_pdr", num(baseline.mean_pdr())),
        (
            "control_overhead",
            obj(vec![
                ("packets", Json::num_u64(result.control_packets)),
                ("bytes", Json::num_u64(result.control_bytes)),
                ("per_delivery", num(result.overhead_per_delivery())),
            ]),
        ),
        (
            "routing",
            obj(vec![
                (
                    "route_table_entries",
                    Json::num_u64(routing.route_table_size),
                ),
                ("neighbours", Json::num_u64(routing.neighbours)),
                (
                    "discoveries_started",
                    Json::num_u64(routing.discoveries_started),
                ),
                (
                    "discovery_retries",
                    Json::num_u64(routing.discovery_retries),
                ),
                (
                    "discoveries_succeeded",
                    Json::num_u64(routing.discoveries_succeeded),
                ),
                (
                    "discoveries_failed",
                    Json::num_u64(routing.discoveries_failed),
                ),
                ("mpr_set_size", Json::num_u64(routing.mpr_set_size)),
            ]),
        ),
        (
            "drops",
            Json::Obj(
                drops
                    .iter()
                    .map(|(reason, n)| (drop_reason_name(reason).to_string(), Json::num_u64(n)))
                    .collect(),
            ),
        ),
        (
            "mac",
            obj(vec![
                ("queue_hwm", Json::num_u64(queue_hwm)),
                (
                    "backoff_hist",
                    Json::Arr(backoff_hist.iter().map(|&n| Json::num_u64(n)).collect()),
                ),
            ]),
        ),
        ("phases", obs.profiler().to_json()),
        ("metrics", obs.registry().snapshot()),
        (
            "trace",
            obj(vec![
                ("emitted", Json::num_u64(obs.tracer().emitted())),
                ("filtered", Json::num_u64(obs.tracer().filtered())),
                ("sampled_out", Json::num_u64(obs.tracer().sampled_out())),
                ("truncated", Json::num_u64(obs.tracer().truncated())),
            ]),
        ),
    ]);

    ProtocolRun {
        protocol,
        noop_wall_s,
        metrics_wall_s,
        traced_wall_s,
        section,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let protocols = [Protocol::Aodv, Protocol::Olsr, Protocol::Dymo];

    println!("# telemetry_report — instrumented Fig. 11 runs, overhead vs noop\n");

    let runs: Vec<ProtocolRun> = protocols.iter().map(|&p| run_protocol(p, quick)).collect();

    let sample = fig11_scenario(Protocol::Aodv, quick);
    let mut manifest = RunManifest::new("telemetry_report");
    manifest.scenario_hash = fnv64(format!("{sample:?}").as_bytes());
    manifest.fault_plan_hash = fnv64(sample.fault_plan.render().as_bytes());
    manifest.seed = sample.seed;
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    for run in &runs {
        manifest.add_timing(format!("{}_noop", run.protocol), run.noop_wall_s);
        manifest.add_timing(format!("{}_metrics", run.protocol), run.metrics_wall_s);
        manifest.add_timing(format!("{}_traced", run.protocol), run.traced_wall_s);
    }

    let report_path = report::artifact_path("BENCH_telemetry.json");
    report::write_report(
        &report_path,
        &manifest,
        vec![
            (
                "scenario".into(),
                obj(vec![
                    ("nodes", Json::num_u64(sample.nodes as u64)),
                    ("sim_secs", Json::num_u64(sample.sim_time.as_secs())),
                    (
                        "senders",
                        Json::num_u64(sample.traffic.senders.len() as u64),
                    ),
                    ("quick", Json::Bool(quick)),
                ]),
            ),
            ("overhead_ceiling".into(), num(OVERHEAD_CEILING)),
            (
                "protocols".into(),
                Json::Arr(runs.iter().map(|r| r.section.clone()).collect()),
            ),
        ],
    );

    if check {
        let text = std::fs::read_to_string(&report_path).expect("read back the artifact");
        let json = cavenet_telemetry::json::parse(&text).expect("artifact is valid JSON");
        RunManifest::validate(json.get("manifest").expect("manifest present"))
            .expect("manifest validates");
        for run in &runs {
            assert!(
                run.within_ceiling(),
                "{}: metrics-only overhead {:.2}× (noop {:.3} s → {:.3} s) exceeds the \
                 documented {OVERHEAD_CEILING}× ceiling (+{OVERHEAD_SLACK_S} s slack)",
                run.protocol,
                run.overhead(),
                run.noop_wall_s,
                run.metrics_wall_s,
            );
        }
        println!("\ncheck ok: manifest schema valid, overhead within {OVERHEAD_CEILING}×");
    }
}
