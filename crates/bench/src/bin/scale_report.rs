//! Scale report: measures how the engine scales with node count and
//! intra-trial spatial shards, and emits `benchmarks/BENCH_scale.json`.
//!
//! The workload is a saturated jam ring: vehicles at a fixed 2 m headway
//! creeping at 3 m/s, one CBR source whose packet is TTL-flooded by every
//! station. The trace-backed mobility has a finite speed bound, so the
//! engine runs in the stale-grid regime where every transmission resamples
//! its carrier-sense disk exactly — at this density ~550 stations per
//! transmission — which is precisely the per-candidate kernel the shard
//! workers parallelize. Headway is held constant across the sweep, so
//! per-transmission work is constant and events/sec numbers compare
//! like-for-like between rows.
//!
//! Three sections:
//!
//! 1. **Sweep** — node counts (quick: 1 k/10 k; full: up to 100 k) ×
//!    shard counts {1, 2, 4, 8}: events/sec, peak RSS, bytes/node, and
//!    speedup vs the serial engine. Wall-clock speedup is bounded by the
//!    machine's cores (recorded in the section); on a single-core host the
//!    sharded rows measure the synchronization overhead instead.
//! 2. **Digest cross-check** — the 4-shard run must reproduce the serial
//!    event-stream digest bitwise at every swept node count.
//! 3. **`--check` gate** — with `--check`, exits non-zero when any digest
//!    diverges, or when events/sec at the 4-shard/10 k-node point regressed
//!    more than 20 % against the committed `benchmarks/BENCH_scale.json`.
//!
//! Usage: `scale_report [--quick] [--check]`

use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::{Experiment, MobilitySource, Protocol, Scenario};
use cavenet_mobility::{LaneGeometry, MobilityTrace, NodeTrajectory, TraceSample};
use cavenet_stats::Ensemble;
use cavenet_telemetry::{fnv64, json, Json, RunManifest};
use cavenet_testkit::digest_scenario;

/// Jam headway between consecutive vehicles, metres. Constant across the
/// sweep so every transmission's carrier-sense disk holds the same station
/// count regardless of fleet size.
const HEADWAY_M: f64 = 2.0;
/// Jam creep speed, m/s — the trace's finite speed bound, which keeps the
/// engine in the stale-grid (lazy resample) regime the shards accelerate.
const CREEP_MPS: f64 = 3.0;
/// Simulated seconds. The flooded packet needs only ~20 relay generations
/// to circle the ring, all well inside this window.
const SIM_SECS: u64 = 4;
/// Shard counts measured against the serial engine.
const SHARDS: [usize; 3] = [2, 4, 8];
/// The `--check` gate point: 4 shards at 10 k nodes.
const GATE_NODES: usize = 10_000;
const GATE_SHARDS: usize = 4;

const REPORT_PATH: &str = "benchmarks/BENCH_scale.json";

/// Peak resident set size of this process in KiB (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// A saturated jam ring: `nodes` vehicles at [`HEADWAY_M`] spacing creeping
/// at [`CREEP_MPS`], sampled once per simulated second.
fn jam_trace(nodes: usize) -> MobilityTrace {
    let circuit = nodes as f64 * HEADWAY_M;
    let geometry = LaneGeometry::ring_circle(circuit);
    let trajectories = (0..nodes)
        .map(|i| {
            let samples = (0..=SIM_SECS)
                .map(|t| {
                    let s = (i as f64 * HEADWAY_M + CREEP_MPS * t as f64) % circuit;
                    TraceSample {
                        time: t as f64,
                        position: geometry.embed(s),
                        speed: CREEP_MPS,
                        teleport: false,
                    }
                })
                .collect();
            NodeTrajectory::new(samples).expect("monotone jam samples")
        })
        .collect();
    MobilityTrace::from_trajectories(trajectories)
}

/// The sweep scenario: one CBR source, its packet flooded by every station.
fn jam_scenario(nodes: usize, shards: usize) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes = nodes;
    s.circuit_m = nodes as f64 * HEADWAY_M;
    s.mobility = MobilitySource::Trace(jam_trace(nodes));
    s.sim_time = Duration::from_secs(SIM_SECS);
    s.traffic.senders = vec![1];
    s.traffic.receiver = 0;
    s.traffic.cbr.start = Duration::from_secs(1);
    s.traffic.cbr.stop = Duration::from_secs(3);
    s.traffic.cbr.rate_pps = 0.6; // exactly one flooded packet
    s.shards = shards;
    s.seed = 1;
    s
}

/// One timed run of the sweep workload.
struct ScaleRun {
    events: u64,
    wall_s: f64,
    peak_rss_kb: u64,
}

impl ScaleRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    fn to_json(&self, nodes: usize) -> Json {
        obj(vec![
            ("events", Json::num_u64(self.events)),
            ("wall_s", num(self.wall_s)),
            ("events_per_sec", num(self.events_per_sec())),
            ("peak_rss_kb", Json::num_u64(self.peak_rss_kb)),
            (
                "bytes_per_node",
                num(self.peak_rss_kb as f64 * 1024.0 / nodes as f64),
            ),
        ])
    }
}

fn measure(nodes: usize, shards: usize) -> ScaleRun {
    let s = jam_scenario(nodes, shards);
    let t0 = Instant::now();
    let r = Experiment::new(s).run().expect("scale scenario runs");
    ScaleRun {
        events: r.global.events_processed,
        wall_s: t0.elapsed().as_secs_f64(),
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Serial vs 4-shard event-stream digests at one node count.
struct DigestCheck {
    nodes: usize,
    serial: u64,
    sharded: u64,
    events: (u64, u64),
}

impl DigestCheck {
    fn matches(&self) -> bool {
        self.serial == self.sharded && self.events.0 == self.events.1
    }
}

fn cross_check(nodes: usize) -> DigestCheck {
    let a = digest_scenario(&jam_scenario(nodes, 1));
    let b = digest_scenario(&jam_scenario(nodes, GATE_SHARDS));
    assert!(a.result.total_sent() > 0, "vacuous scale workload");
    DigestCheck {
        nodes,
        serial: a.digest,
        sharded: b.digest,
        events: (a.events, b.events),
    }
}

/// `--check`: compare the gate point against the committed report. Returns
/// failures (empty = pass).
fn check_against_committed(file: &std::path::Path, gate: &ScaleRun) -> Vec<String> {
    let path = file.display();
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read committed baseline {path}: {e}")],
    };
    let parsed = match json::parse(&text) {
        Ok(j) => j,
        Err(e) => return vec![format!("cannot parse {path}: {e}")],
    };
    let base = parsed
        .get("sweep")
        .and_then(|s| s.get(&format!("nodes_{GATE_NODES}")))
        .and_then(|n| n.get(&format!("shards_{GATE_SHARDS}")))
        .and_then(|g| g.get("events_per_sec"))
        .and_then(Json::as_f64);
    match base {
        Some(eps) if eps > 0.0 => {
            let ratio = gate.events_per_sec() / eps;
            if ratio < 0.8 {
                vec![format!(
                    "gate point ({GATE_NODES} nodes, {GATE_SHARDS} shards): events/sec \
                     regressed to {:.0} ({:.0}% of baseline {:.0})",
                    gate.events_per_sec(),
                    ratio * 100.0,
                    eps
                )]
            } else {
                Vec::new()
            }
        }
        _ => vec![format!(
            "{path} lacks sweep.nodes_{GATE_NODES}.shards_{GATE_SHARDS}.events_per_sec"
        )],
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let node_counts: &[usize] = if quick {
        &[1_000, GATE_NODES]
    } else {
        &[1_000, GATE_NODES, 30_000, 100_000]
    };
    let cores = std::thread::available_parallelism().map_or(1, |w| w.get());

    println!("# scale_report — jam-ring sweep, {cores} core(s)\n");

    // 1. Sweep: ascending node order so the process-wide RSS high-water
    //    mark of a row is dominated by that row's own footprint.
    let mut sweep_members: Vec<(String, Json)> = Vec::new();
    let mut gate_run: Option<ScaleRun> = None;
    for &nodes in node_counts {
        let serial = measure(nodes, 1);
        println!(
            "nodes {nodes:>7}: serial    {:>9} events in {:>6.2} s = {:>9.0} events/s, \
             {:>6.0} bytes/node",
            serial.events,
            serial.wall_s,
            serial.events_per_sec(),
            serial.peak_rss_kb as f64 * 1024.0 / nodes as f64,
        );
        let mut row: Vec<(String, Json)> = vec![
            ("nodes".into(), Json::num_u64(nodes as u64)),
            ("serial".into(), serial.to_json(nodes)),
        ];
        for shards in SHARDS {
            let run = measure(nodes, shards);
            let speedup = run.events_per_sec() / serial.events_per_sec().max(1e-9);
            println!(
                "               {shards} shards  {:>9} events in {:>6.2} s = {:>9.0} events/s, \
                 speedup {speedup:>5.2}×",
                run.events,
                run.wall_s,
                run.events_per_sec(),
            );
            let mut cell = run.to_json(nodes);
            if let Json::Obj(members) = &mut cell {
                members.push(("speedup_vs_serial".into(), num(speedup)));
            }
            if nodes == GATE_NODES && shards == GATE_SHARDS {
                gate_run = Some(run);
            }
            row.push((format!("shards_{shards}"), cell));
        }
        sweep_members.push((format!("nodes_{nodes}"), Json::Obj(row)));
    }

    // `--check` verdict against the committed report, before overwriting it.
    let regression_failures = match (&gate_run, check) {
        (Some(gate), true) => Some(check_against_committed(
            &report::artifact_path(REPORT_PATH),
            gate,
        )),
        (None, true) => Some(vec![format!(
            "sweep did not visit the gate point ({GATE_NODES} nodes, {GATE_SHARDS} shards)"
        )]),
        _ => None,
    };

    // 2. Digest cross-check at every swept node count.
    println!();
    let mut digest_members: Vec<(String, Json)> = Vec::new();
    let mut digest_failures: Vec<String> = Vec::new();
    for &nodes in node_counts {
        let d = cross_check(nodes);
        println!(
            "digest nodes {nodes:>7}: serial 0x{:016x}, {GATE_SHARDS} shards 0x{:016x} — {}",
            d.serial,
            d.sharded,
            if d.matches() { "match" } else { "MISMATCH" }
        );
        if !d.matches() {
            digest_failures.push(format!(
                "{} nodes: sharded digest 0x{:016x} != serial 0x{:016x}",
                d.nodes, d.sharded, d.serial
            ));
        }
        digest_members.push((
            format!("nodes_{nodes}"),
            obj(vec![
                ("serial_digest", Json::Str(format!("{:016x}", d.serial))),
                ("sharded_digest", Json::Str(format!("{:016x}", d.sharded))),
                ("shards", Json::num_u64(GATE_SHARDS as u64)),
                ("events", Json::num_u64(d.events.0)),
                ("matches", Json::Bool(d.matches())),
            ]),
        ));
    }

    let reference = jam_scenario(GATE_NODES, 1);
    let mut manifest = RunManifest::new("scale_report");
    manifest.scenario_hash = fnv64(format!("{:?}", reference.protocol).as_bytes());
    manifest.fault_plan_hash = fnv64(reference.fault_plan.render().as_bytes());
    manifest.seed = reference.seed;
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));

    report::write_report(
        &report::artifact_path(REPORT_PATH),
        &manifest,
        vec![
            (
                "workload".into(),
                obj(vec![
                    ("headway_m", num(HEADWAY_M)),
                    ("creep_mps", num(CREEP_MPS)),
                    ("sim_secs", Json::num_u64(SIM_SECS)),
                    ("protocol", Json::Str("Flooding".into())),
                    ("cores", Json::num_u64(cores as u64)),
                    ("quick", Json::Bool(quick)),
                ]),
            ),
            ("sweep".into(), Json::Obj(sweep_members)),
            ("digest_check".into(), Json::Obj(digest_members)),
        ],
    );

    if check {
        let mut failures = digest_failures;
        failures.extend(regression_failures.into_iter().flatten());
        if failures.is_empty() {
            println!(
                "\n--check: digests match and the gate point is within 20% of the \
                 committed baseline"
            );
        } else {
            eprintln!("\n--check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }

    // Keep the ensemble composition visible in the artifact's stdout: the
    // two parallelism layers stay bit-identical when combined (the real
    // assertion lives in tests/sharding.rs; this is a smoke print).
    let pdr = |shards: usize| {
        move |seed: u64| {
            let mut s = jam_scenario(1_000, shards);
            s.seed = seed;
            Experiment::new(s).run().expect("trial runs").mean_pdr()
        }
    };
    let serial = Ensemble::new(2, 7).workers(1).run_scalar(pdr(1)).unwrap();
    let composed = Ensemble::new(2, 7)
        .workers_for_shards(2)
        .run_scalar_par(pdr(2))
        .unwrap();
    println!(
        "\nensemble × sharded trials bit-identical: {}",
        serial == composed
    );
}
