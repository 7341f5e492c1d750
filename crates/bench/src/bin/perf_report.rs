//! Performance report: measures the hot paths this repo optimizes and emits
//! `benchmarks/BENCH_perf.json` so the bench trajectory is machine-trackable.
//!
//! Four measurements:
//!
//! 1. **Flat-memory engine** — events/sec, allocations-per-event (via a
//!    counting global allocator) and peak RSS on five fixed paper
//!    workloads: the Table-1 scenario, the Fig-11 eight-sender load, and
//!    flooding rings at 4×/16×/32× the paper's node count where broadcast
//!    delivery dominates. These workloads are identical in `--quick` and
//!    full mode so `--check` always compares like-for-like.
//! 2. **Broadcast kernel** — events/sec of the engine on a scaled ring,
//!    brute-force receiver scan vs the spatial neighbor grid.
//! 3. **CA stepper** — NaS lane steps/sec (the BA block's unit of work).
//! 4. **Ensemble engine** — wall-clock of a Monte-Carlo ensemble, serial vs
//!    parallel, with a bit-identity check on the outputs.
//!
//! Usage: `perf_report [--quick] [--check]`
//!
//! * `--quick` shrinks the scaled-ring/CA/ensemble measurements for smoke
//!   runs (the flat-memory section is always the fixed workloads).
//! * `--check` compares the flat-memory section against the committed
//!   `benchmarks/BENCH_perf.json` and exits non-zero if events/sec regressed
//!   by more than 20 % or allocations-per-event grew by more than 20 % on
//!   any workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_ca::{Boundary, Lane, NasParams};
use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_stats::Ensemble;
use cavenet_telemetry::{fnv64, json, Json, RunManifest};

/// Counts every heap allocation made by the process, so the report can
/// state allocations-per-event — a machine-independent density metric that
/// complements wall-clock events/sec.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the only addition is a relaxed
// counter increment on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

/// One timed simulation run: engine events processed and wall-clock seconds.
struct EngineRun {
    events: u64,
    wall_s: f64,
}

impl EngineRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("events", Json::num_u64(self.events)),
            ("wall_s", num(self.wall_s)),
            ("events_per_sec", num(self.events_per_sec())),
        ])
    }
}

fn time_scenario(s: &Scenario) -> EngineRun {
    let t0 = Instant::now();
    let r = Experiment::new(s.clone()).run().expect("scenario runs");
    EngineRun {
        events: r.global.events_processed,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// One memory-instrumented run of the flat-memory section.
struct MemRun {
    name: &'static str,
    events: u64,
    wall_s: f64,
    allocations: u64,
    peak_rss_kb: u64,
}

impl MemRun {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocations as f64 / self.events.max(1) as f64
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("events", Json::num_u64(self.events)),
            ("wall_s", num(self.wall_s)),
            ("events_per_sec", num(self.events_per_sec())),
            ("allocations", Json::num_u64(self.allocations)),
            ("allocs_per_event", num(self.allocs_per_event())),
            ("peak_rss_kb", Json::num_u64(self.peak_rss_kb)),
        ])
    }
}

fn measure_scenario(name: &'static str, s: &Scenario) -> MemRun {
    let sim = Experiment::new(s.clone());
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let r = sim.run().expect("scenario runs");
    let wall_s = t0.elapsed().as_secs_f64();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - a0;
    MemRun {
        name,
        events: r.global.events_processed,
        wall_s,
        allocations,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// The Table-1 scenario trimmed to 40 s with three senders — same shape as
/// the conformance suite's golden scenario.
fn table1_40s(protocol: Protocol) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    s.sim_time = Duration::from_secs(40);
    s.traffic.cbr.start = Duration::from_secs(5);
    s.traffic.cbr.stop = Duration::from_secs(25);
    s.traffic.senders = vec![1, 2, 3];
    s.seed = 1;
    s
}

/// The fixed workloads of the flat-memory section.
fn flat_memory_workloads() -> Vec<(&'static str, Scenario)> {
    // Fig. 11: the full eight-sender load on the paper ring.
    let mut fig11 = table1_40s(Protocol::Aodv);
    fig11.traffic.senders = (1..=8).collect();
    // Broadcast-dominated flooding rings at 4× and 16× the paper's node
    // count: every data packet is rebroadcast by every station, so
    // per-receiver delivery work (and, pre-refactor, the O(nodes) position
    // resample at every distinct transmission timestamp) is the whole run.
    vec![
        ("table1_aodv", table1_40s(Protocol::Aodv)),
        ("fig11_aodv_8senders", fig11),
        ("flood_ring_120", scaled_ring(4, 6)),
        ("flood_ring_480", scaled_ring(16, 6)),
        ("flood_ring_960", scaled_ring(32, 6)),
    ]
}

/// Pre-refactor baseline of the flat-memory section, measured on the same
/// machine immediately before the flat-memory engine landed (allocation
/// counts are machine-independent; events/sec is machine-dependent and only
/// meaningful relative to the "after" numbers measured alongside).
mod pre_refactor {
    /// `(workload, events, events_per_sec, allocs_per_event, peak_rss_kb)`
    pub const BASELINE: &[(&str, u64, f64, f64, u64)] = &[
        ("table1_aodv", 56648, 4_698_300.0, 0.6442, 3384),
        ("fig11_aodv_8senders", 163053, 3_858_763.0, 0.6188, 3508),
        ("flood_ring_120", 276699, 2_266_721.0, 1.7260, 3748),
        ("flood_ring_480", 311785, 944_500.0, 5.8210, 4140),
        ("flood_ring_960", 290633, 463_761.0, 11.5580, 4644),
    ];
}

/// `--check`: compare `runs` against the committed baseline report. Returns
/// the failures (empty = pass).
fn check_against_committed(file: &std::path::Path, runs: &[MemRun]) -> Vec<String> {
    let path = file.display();
    let text = match std::fs::read_to_string(file) {
        Ok(t) => t,
        Err(e) => return vec![format!("cannot read committed baseline {path}: {e}")],
    };
    let parsed = match json::parse(&text) {
        Ok(j) => j,
        Err(e) => return vec![format!("cannot parse {path}: {e}")],
    };
    let Some(section) = parsed.get("flat_memory") else {
        return vec![format!("{path} has no flat_memory section")];
    };
    let mut failures = Vec::new();
    for run in runs {
        let Some(base) = section.get(run.name) else {
            failures.push(format!("baseline lacks workload {}", run.name));
            continue;
        };
        let base_eps = base.get("events_per_sec").and_then(Json::as_f64);
        let base_ape = base.get("allocs_per_event").and_then(Json::as_f64);
        match base_eps {
            Some(eps) if eps > 0.0 => {
                let ratio = run.events_per_sec() / eps;
                if ratio < 0.8 {
                    failures.push(format!(
                        "{}: events/sec regressed to {:.0} ({:.0}% of baseline {:.0})",
                        run.name,
                        run.events_per_sec(),
                        ratio * 100.0,
                        eps
                    ));
                }
            }
            _ => failures.push(format!("baseline {} lacks events_per_sec", run.name)),
        }
        match base_ape {
            Some(ape) if ape > 0.0 => {
                let ratio = run.allocs_per_event() / ape;
                if ratio > 1.2 {
                    failures.push(format!(
                        "{}: allocs/event grew to {:.3} ({:.0}% of baseline {:.3})",
                        run.name,
                        run.allocs_per_event(),
                        ratio * 100.0,
                        ape
                    ));
                }
            }
            _ => failures.push(format!("baseline {} lacks allocs_per_event", run.name)),
        }
    }
    failures
}

/// The paper's ring scaled by `factor` at constant vehicle density, with
/// TTL-flooded CBR traffic: every node rebroadcasts every data packet, so
/// the per-transmission receiver scan dominates the run.
fn scaled_ring(factor: usize, sim_secs: u64) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes = 30 * factor;
    s.circuit_m = 3000.0 * factor as f64;
    s.sim_time = Duration::from_secs(sim_secs);
    s.traffic.cbr.start = Duration::from_secs(2);
    s.traffic.cbr.stop = Duration::from_secs(sim_secs.saturating_sub(2));
    s.traffic.cbr.rate_pps = 20.0;
    s.traffic.senders = (1u32..=8).map(|k| (k * s.nodes as u32) / 9).collect();
    s.traffic.receiver = 0;
    s
}

const REPORT_PATH: &str = "benchmarks/BENCH_perf.json";

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let (factor, sim_secs, ca_steps, trials) = if quick {
        (4, 6u64, 20_000u64, 6usize)
    } else {
        (8, 10u64, 200_000u64, 20usize)
    };

    println!("# perf_report — flat-memory engine, broadcast kernel, CA stepper, ensemble\n");

    // 0. Flat-memory section: fixed workloads, instrumented for allocation
    //    density and peak RSS. Run first so earlier sections' allocations
    //    cannot blur the per-workload counts (the counter is process-wide).
    let mut flat_runs = Vec::new();
    println!("flat-memory engine (fixed workloads):");
    // One unmeasured warm-up run so the first measured workload does not pay
    // the process cold-start (page faults, lazy relocations) alone.
    let _ = time_scenario(&table1_40s(Protocol::Aodv));
    for (name, scenario) in flat_memory_workloads() {
        let run = measure_scenario(name, &scenario);
        println!(
            "  {:<22} {:>9} events in {:>6.2} s = {:>9.0} events/s, \
             {:.3} allocs/event, peak RSS {} KiB",
            run.name,
            run.events,
            run.wall_s,
            run.events_per_sec(),
            run.allocs_per_event(),
            run.peak_rss_kb
        );
        flat_runs.push(run);
    }

    // `--check` verdict is computed against the committed report before we
    // overwrite it below.
    let check_failures = if check {
        Some(check_against_committed(
            &report::artifact_path(REPORT_PATH),
            &flat_runs,
        ))
    } else {
        None
    };

    // 1a. Table-1 scenario, default configuration (grid on, exact mobility).
    let table1 = Scenario::paper_table1(Protocol::Aodv);
    let t1 = time_scenario(&table1);
    println!(
        "\ntable1 (AODV, 30 nodes, 100 s): {} events in {:.2} s wall = {:.0} events/s",
        t1.events,
        t1.wall_s,
        t1.events_per_sec()
    );

    // 1b. Scaled ring: brute-force scan + exact mobility vs neighbor grid +
    //     1 s step-quantized mobility (the CA advances in 1 s steps, so the
    //     quantum matches the information content of the trace).
    let mut brute = scaled_ring(factor, sim_secs);
    brute.neighbor_grid = false;
    let mut gridded = brute.clone();
    gridded.neighbor_grid = true;
    gridded.mobility_quantum = Some(Duration::from_secs(1));
    let nodes = brute.nodes;
    println!("\nscaled ring ({nodes} nodes, {sim_secs} s, flooding):");
    let rb = time_scenario(&brute);
    println!(
        "  brute-force scan: {} events in {:.2} s wall = {:.0} events/s",
        rb.events,
        rb.wall_s,
        rb.events_per_sec()
    );
    let rg = time_scenario(&gridded);
    println!(
        "  neighbor grid:    {} events in {:.2} s wall = {:.0} events/s",
        rg.events,
        rg.wall_s,
        rg.events_per_sec()
    );
    let kernel_speedup = rg.events_per_sec() / rb.events_per_sec().max(1e-9);
    println!("  events/sec speedup: {kernel_speedup:.2}×");

    // 2. CA stepper throughput.
    let params = NasParams::builder()
        .length(400)
        .density(0.3)
        .slowdown_probability(0.3)
        .build()
        .expect("valid CA params");
    let mut lane = Lane::with_random_placement(params, Boundary::Closed, 1).expect("lane");
    let t0 = Instant::now();
    for _ in 0..ca_steps {
        lane.step();
    }
    let ca_wall = t0.elapsed().as_secs_f64();
    let ca_rate = ca_steps as f64 / ca_wall.max(1e-9);
    println!("\nCA stepper (L = 400, ρ = 0.3, p = 0.3): {ca_rate:.0} steps/s");

    // 3. Ensemble engine: serial vs parallel wall-clock, bit-identity check.
    let trial = |seed: u64| {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.sim_time = Duration::from_secs(15);
        s.traffic.cbr.start = Duration::from_secs(2);
        s.traffic.cbr.stop = Duration::from_secs(13);
        s.traffic.senders = vec![1, 2];
        s.seed = seed;
        Experiment::new(s).run().expect("trial runs").mean_pdr()
    };
    let ensemble = Ensemble::new(trials, 42);
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    let t0 = Instant::now();
    let serial = ensemble
        .workers(1)
        .run_scalar_par(trial)
        .expect("trials >= 1");
    let serial_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = ensemble.run_scalar_par(trial).expect("trials >= 1");
    let parallel_wall = t0.elapsed().as_secs_f64();
    let bit_identical = serial.mean().to_bits() == parallel.mean().to_bits()
        && serial.variance().to_bits() == parallel.variance().to_bits();
    let ensemble_speedup = serial_wall / parallel_wall.max(1e-9);
    println!(
        "\nensemble ({trials} trials, {workers} workers): serial {serial_wall:.2} s, \
         parallel {parallel_wall:.2} s = {ensemble_speedup:.2}× (bit-identical: {bit_identical})"
    );

    let mut manifest = RunManifest::new("perf_report");
    manifest.scenario_hash = fnv64(format!("{table1:?}").as_bytes());
    manifest.fault_plan_hash = fnv64(table1.fault_plan.render().as_bytes());
    manifest.seed = table1.seed;
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    for run in &flat_runs {
        manifest.add_timing(run.name, run.wall_s);
    }
    manifest.add_timing("table1", t1.wall_s);
    manifest.add_timing("scaled_ring_brute", rb.wall_s);
    manifest.add_timing("scaled_ring_grid", rg.wall_s);
    manifest.add_timing("ca", ca_wall);
    manifest.add_timing("ensemble_serial", serial_wall);
    manifest.add_timing("ensemble_parallel", parallel_wall);

    // Flat-memory section: per-workload numbers plus, when a pre-refactor
    // baseline is recorded, the before/after delta.
    let mut flat_members: Vec<(&str, Json)> =
        flat_runs.iter().map(|r| (r.name, r.to_json())).collect();
    let mut delta_members: Vec<(&str, Json)> = Vec::new();
    for &(name, events, eps, ape, rss) in pre_refactor::BASELINE {
        if let Some(run) = flat_runs.iter().find(|r| r.name == name) {
            delta_members.push((
                name,
                obj(vec![
                    ("before_events", Json::num_u64(events)),
                    ("before_events_per_sec", num(eps)),
                    ("before_allocs_per_event", num(ape)),
                    ("before_peak_rss_kb", Json::num_u64(rss)),
                    (
                        "events_per_sec_speedup",
                        num(run.events_per_sec() / eps.max(1e-9)),
                    ),
                    (
                        "allocs_per_event_ratio",
                        num(run.allocs_per_event() / ape.max(1e-12)),
                    ),
                ]),
            ));
        }
    }
    if !delta_members.is_empty() {
        flat_members.push(("before_after", obj(delta_members)));
    }

    report::write_report(
        &report::artifact_path(REPORT_PATH),
        &manifest,
        vec![
            ("flat_memory".into(), obj(flat_members)),
            (
                "table1".into(),
                obj(vec![
                    ("nodes", Json::num_u64(30)),
                    ("sim_secs", Json::num_u64(100)),
                    ("events", Json::num_u64(t1.events)),
                    ("wall_s", num(t1.wall_s)),
                    ("events_per_sec", num(t1.events_per_sec())),
                ]),
            ),
            (
                "scaled_ring".into(),
                obj(vec![
                    ("nodes", Json::num_u64(nodes as u64)),
                    ("sim_secs", Json::num_u64(sim_secs)),
                    ("brute_force", rb.to_json()),
                    ("neighbor_grid", rg.to_json()),
                    ("events_per_sec_speedup", num(kernel_speedup)),
                ]),
            ),
            (
                "ca".into(),
                obj(vec![
                    ("cells", Json::num_u64(400)),
                    ("steps", Json::num_u64(ca_steps)),
                    ("steps_per_sec", num(ca_rate)),
                ]),
            ),
            (
                "ensemble".into(),
                obj(vec![
                    ("trials", Json::num_u64(trials as u64)),
                    ("workers", Json::num_u64(workers as u64)),
                    ("serial_wall_s", num(serial_wall)),
                    ("parallel_wall_s", num(parallel_wall)),
                    ("speedup", num(ensemble_speedup)),
                    ("bit_identical", Json::Bool(bit_identical)),
                ]),
            ),
        ],
    );

    if let Some(failures) = check_failures {
        if failures.is_empty() {
            println!("\n--check: flat-memory section within 20% of committed baseline");
        } else {
            eprintln!("\n--check FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
