//! Live campaign observability: a supervised campaign tailed mid-flight,
//! emitted as `benchmarks/BENCH_obs.json`.
//!
//! The run exercises the whole streaming plane end-to-end:
//!
//! * a batch of Table 1 trials runs under a [`CampaignServer`] with a
//!   [`SnapshotBus`] configured, while a tailer thread drains in-flight
//!   registry snapshots into a [`CampaignAggregator`] and collects the
//!   schema-versioned JSONL campaign feed;
//! * the main thread polls [`CampaignServer::status`] while trials run,
//!   recording peak queue depth and concurrency from the supervisor's
//!   live metrics;
//! * every completed trial's golden digest is checked against an
//!   unobserved straight run — streaming must be **digest-invisible**;
//! * the collected feed is parsed back line by line and re-aggregated;
//!   the reconstruction must equal the live aggregate bit-for-bit;
//! * the merged campaign registry is rendered as a Prometheus-style
//!   plain-text exposition;
//! * a paired measurement (digest-only vs digest + armed
//!   [`StreamProbe`]) bounds the streaming overhead by the same ceiling
//!   discipline as `telemetry_report` (DESIGN.md §16).
//!
//! Usage: `campaign_status [--quick] [--check]` (`--quick` shrinks the
//! campaign for a CI smoke; `--check` re-parses the artifact, validates
//! the manifest and asserts digests, feed round-trip and the overhead
//! ceiling).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_server::{CampaignServer, ServerConfig, TrialOutcome};
use cavenet_telemetry::{
    render_prometheus, CampaignAggregator, Counter, Gauge, Json, SnapshotBus, SnapshotEnvelope,
    StreamProbe,
};
use cavenet_testkit::{digest_scenario, GoldenDigest, Tee};

const BASE_TRIAL_SEED: u64 = 9200;
const CAMPAIGN_SEED: u64 = 0x0B5_E12;

/// Streaming overhead ceiling relative to the digest-only baseline — the
/// same bound DESIGN.md §11 places on metrics-only telemetry, since the
/// armed probe is a [`TelemetryObserver`](cavenet_telemetry::TelemetryObserver)
/// plus one strided publish.
const OVERHEAD_CEILING: f64 = 3.0;

/// Absolute slack for sub-second smoke baselines where fixed costs
/// dominate the ratio.
const OVERHEAD_SLACK_S: f64 = 0.25;

fn campaign_scenario(seed: u64, quick: bool) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Aodv);
    let horizon = if quick { 12 } else { 24 };
    s.sim_time = Duration::from_secs(horizon);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(horizon - 2);
    s.traffic.senders = if quick { vec![1, 2] } else { vec![1, 2, 3] };
    s.seed = seed;
    s
}

/// What the tailer thread accumulated while the campaign ran.
struct TailerResult {
    feed: Vec<String>,
    aggregator: CampaignAggregator,
    drains: u64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let trials: u64 = if quick { 3 } else { 5 };
    let seeds: Vec<u64> = (0..trials).map(|i| BASE_TRIAL_SEED + i).collect();
    let snapshot_stride: u64 = if quick { 512 } else { 2048 };

    println!("# campaign_status — live-tailed campaign over {trials} Table 1 trials\n");

    // Digest oracles: unobserved straight runs of every trial.
    let t0 = Instant::now();
    let straight: Vec<_> = seeds
        .iter()
        .map(|&seed| digest_scenario(&campaign_scenario(seed, quick)))
        .collect();
    let straight_wall = t0.elapsed();
    println!(
        "straight runs     : {} trials, {:.2} s wall",
        straight.len(),
        straight_wall.as_secs_f64()
    );

    // Paired overhead measurement on one trial: digest-only baseline vs
    // digest + armed StreamProbe publishing on the bus. The digests must
    // be bit-identical; the wall-clock ratio is the streaming overhead.
    let probe_scenario = campaign_scenario(seeds[0], quick);
    let t0 = Instant::now();
    let (_, sim) = Experiment::new(probe_scenario.clone())
        .run_with_observer(GoldenDigest::new())
        .expect("baseline runs");
    let digest_wall_s = t0.elapsed().as_secs_f64();
    let baseline = sim.into_observer();

    let probe_bus = SnapshotBus::new(4096);
    let t0 = Instant::now();
    let (_, sim) = Experiment::new(probe_scenario)
        .run_with_observer(Tee(
            GoldenDigest::new(),
            StreamProbe::armed(probe_bus.publisher("probe"), snapshot_stride),
        ))
        .expect("streamed run");
    let streamed_wall_s = t0.elapsed().as_secs_f64();
    let Tee(streamed, mut probe) = sim.into_observer();
    let probe_registry = probe.finish_and_publish().expect("probe armed");
    let probe_snapshots = probe_bus.drain().len() as u64 + probe_bus.shed();

    let overhead_ratio = streamed_wall_s / digest_wall_s.max(1e-9);
    let within_ceiling =
        overhead_ratio <= OVERHEAD_CEILING || streamed_wall_s - digest_wall_s <= OVERHEAD_SLACK_S;
    let probe_invisible = (baseline.value(), baseline.events())
        == (streamed.value(), streamed.events())
        && probe_registry.counter(Counter::EventsDispatched) == baseline.events();
    println!(
        "stream overhead   : digest-only {digest_wall_s:.2} s, streamed {streamed_wall_s:.2} s \
         ({overhead_ratio:.2}×), {probe_snapshots} snapshots, digests {}",
        if probe_invisible {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    // The live-tailed campaign: trials stream onto the bus, the tailer
    // drains into the aggregator and the JSONL feed, the main thread
    // polls the supervisor's status.
    let root = std::env::temp_dir().join(format!("cavenet_campaign_status_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let bus = SnapshotBus::new(4096);
    let mut config = ServerConfig::new(&root);
    config.seed = CAMPAIGN_SEED;
    config.bus = Some(bus.clone());
    config.snapshot_stride = snapshot_stride;
    config.poll = Duration::from_millis(5);

    let stop = Arc::new(AtomicBool::new(false));
    let tailer = {
        let bus = bus.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut result = TailerResult {
                feed: Vec::new(),
                aggregator: CampaignAggregator::new(),
                drains: 0,
            };
            loop {
                let batch = bus.drain();
                let done = stop.load(Ordering::Relaxed) && batch.is_empty() && bus.is_empty();
                result.drains += 1;
                for envelope in batch {
                    result.feed.push(envelope.render_line());
                    result.aggregator.ingest(envelope);
                }
                if done {
                    return result;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let t1 = Instant::now();
    let server = CampaignServer::start(config).expect("server starts");
    for &seed in &seeds {
        server
            .submit(campaign_scenario(seed, quick))
            .expect("campaign fits the admission budget");
    }

    // Poll the live read side until the queue and workers drain.
    let mut peak_running = 0usize;
    let mut peak_queue_depth = 0u64;
    let mut status_polls = 0u64;
    let poll_deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let status = server.status();
        status_polls += 1;
        peak_running = peak_running.max(status.running.len());
        peak_queue_depth = peak_queue_depth.max(status.metrics.gauge(Gauge::QueueDepth));
        let idle = status.queued == 0 && status.delayed == 0 && status.running.is_empty();
        if idle || Instant::now() > poll_deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let campaign = server.finish().expect("ledger writes");
    let campaign_wall = t1.elapsed();
    stop.store(true, Ordering::Relaxed);
    let tailed = tailer.join().expect("tailer thread");
    println!(
        "live campaign     : {:.2} s wall, {} completed, {} feed lines over {} drains, \
         peak {} running / queue depth {}",
        campaign_wall.as_secs_f64(),
        campaign.completed(),
        tailed.feed.len(),
        tailed.drains,
        peak_running,
        peak_queue_depth
    );

    // Audit 1 — digest invisibility: every streamed trial's digest equals
    // its unobserved oracle.
    let mut digest_matches = 0u64;
    let mut mismatches = Vec::new();
    for trial in &campaign.trials {
        let oracle = &straight[(trial.key.seed - BASE_TRIAL_SEED) as usize];
        match &trial.outcome {
            TrialOutcome::Completed { digest, events, .. }
                if (*digest, *events) == (oracle.digest, oracle.events) =>
            {
                digest_matches += 1;
            }
            _ => mismatches.push(trial.key.seed),
        }
    }

    // Audit 2 — the aggregate: one source per trial plus the supervisor,
    // and the merged engine counters equal the sum over the oracles.
    let merged = tailed.aggregator.merged();
    let total_events: u64 = straight.iter().map(|d| d.events).sum();
    let aggregate_consistent = tailed.aggregator.sources() == trials as usize + 1
        && tailed.aggregator.latest("supervisor").is_some()
        && merged.counter(Counter::EventsDispatched) == total_events
        && merged.counter(Counter::TrialsSubmitted) == trials
        && merged.counter(Counter::TrialsCompleted) == trials;

    // Audit 3 — feed round-trip: parsing the JSONL feed back and
    // re-aggregating must reconstruct the live aggregate exactly.
    let mut replayed = CampaignAggregator::new();
    let mut parse_errors = 0u64;
    for line in &tailed.feed {
        match SnapshotEnvelope::parse_line(line) {
            Ok(envelope) => {
                replayed.ingest(envelope);
            }
            Err(_) => parse_errors += 1,
        }
    }
    let feed_round_trips = parse_errors == 0 && replayed.merged() == merged;

    let exposition = render_prometheus(&merged, &[("campaign", "status")]);
    let healthy = mismatches.is_empty()
        && digest_matches == trials
        && probe_invisible
        && aggregate_consistent
        && feed_round_trips
        && within_ceiling
        && exposition.contains("cavenet_events_dispatched_total");
    println!(
        "audit             : {digest_matches}/{trials} digests bit-identical, aggregate {}, \
         feed round-trip {}, exposition {} lines",
        if aggregate_consistent { "ok" } else { "BAD" },
        if feed_round_trips { "ok" } else { "BAD" },
        exposition.lines().count()
    );

    let feed_bytes: usize = tailed.feed.iter().map(String::len).sum();
    let payload = obj(vec![
        ("quick", Json::Bool(quick)),
        ("trials", Json::num_u64(trials)),
        ("completed", Json::num_u64(campaign.completed() as u64)),
        ("digest_matches", Json::num_u64(digest_matches)),
        (
            "stream",
            obj(vec![
                ("snapshot_stride", Json::num_u64(snapshot_stride)),
                ("feed_lines", Json::num_u64(tailed.feed.len() as u64)),
                ("feed_bytes", Json::num_u64(feed_bytes as u64)),
                ("drains", Json::num_u64(tailed.drains)),
                ("shed", Json::num_u64(bus.shed())),
                (
                    "stale_dropped",
                    Json::num_u64(tailed.aggregator.stale_dropped()),
                ),
                ("sources", Json::num_u64(tailed.aggregator.sources() as u64)),
                ("round_trips", Json::Bool(feed_round_trips)),
            ]),
        ),
        (
            "status_polls",
            obj(vec![
                ("polls", Json::num_u64(status_polls)),
                ("peak_running", Json::num_u64(peak_running as u64)),
                ("peak_queue_depth", Json::num_u64(peak_queue_depth)),
            ]),
        ),
        (
            "overhead",
            obj(vec![
                ("digest_wall_s", num(digest_wall_s)),
                ("streamed_wall_s", num(streamed_wall_s)),
                ("ratio", num(overhead_ratio)),
                ("ceiling", num(OVERHEAD_CEILING)),
                ("within_ceiling", Json::Bool(within_ceiling)),
                ("snapshots", Json::num_u64(probe_snapshots)),
                ("digest_invisible", Json::Bool(probe_invisible)),
            ]),
        ),
        (
            "prometheus",
            obj(vec![
                ("lines", Json::num_u64(exposition.lines().count() as u64)),
                ("bytes", Json::num_u64(exposition.len() as u64)),
            ]),
        ),
        ("campaign_wall_s", num(campaign_wall.as_secs_f64())),
        ("aggregate", merged.snapshot()),
        ("healthy", Json::Bool(healthy)),
    ]);

    let mut manifest = campaign
        .trials
        .first()
        .expect("campaign ran trials")
        .manifest("campaign_status");
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    manifest.add_timing("straight_runs", straight_wall.as_secs_f64());
    manifest.add_timing("digest_only", digest_wall_s);
    manifest.add_timing("streamed", streamed_wall_s);
    manifest.add_timing("live_campaign", campaign_wall.as_secs_f64());

    let report_path = report::artifact_path("benchmarks/BENCH_obs.json");
    report::write_report(
        &report_path,
        &manifest,
        vec![("observability".into(), payload)],
    );
    let _ = std::fs::remove_dir_all(&root);

    if check {
        let text = std::fs::read_to_string(&report_path).expect("read back the artifact");
        let json = cavenet_telemetry::json::parse(&text).expect("artifact is valid JSON");
        cavenet_telemetry::RunManifest::validate(json.get("manifest").expect("manifest present"))
            .expect("manifest validates");
        assert!(
            within_ceiling,
            "streaming overhead {overhead_ratio:.2}× (digest-only {digest_wall_s:.3} s → \
             {streamed_wall_s:.3} s) exceeds the {OVERHEAD_CEILING}× ceiling \
             (+{OVERHEAD_SLACK_S} s slack)"
        );
        assert!(
            healthy,
            "observability plane unhealthy: digest mismatches {mismatches:?}, \
             aggregate_consistent={aggregate_consistent}, feed_round_trips={feed_round_trips}"
        );
        println!(
            "\ncheck             : ok (streaming digest-invisible, feed reconstructs, \
             overhead within {OVERHEAD_CEILING}×)"
        );
    }
}
