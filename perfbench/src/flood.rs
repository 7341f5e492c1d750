//! `flood_scale`: the Table-1 ring scaled 40× under flooding — the
//! engine, channel and MAC at scale, with routing doing almost nothing.

use std::time::{Duration, Instant};

use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_net::NoopObserver;

use crate::exact::{result_digest, result_ok, run_sliced, time_ca, BenchObserver};
use crate::layers::{ratio, ExactWork, Layers};
use crate::measure::{median, process_cpu_s};
use crate::observer::{LayerObserver, Spans};
use crate::{derive_seed, fold_digests, Rep, Traced};

/// Scale factor over Table 1 (30 nodes on a 3 km ring).
const SCALE: usize = 40;
/// Simulated seconds.
const SIM_S: u64 = 10;
/// Length of one `run_until` slice.
const SLICE: Duration = Duration::from_millis(100);
/// Rings per repetition, each from its own derived seed. The jams a seed's
/// CA draws decide how many vehicles hear each broadcast, so one ring's
/// work varies by ±10 % between seeds; summing rings evens that out.
const RINGS: u64 = 2;
/// Set-ups per repetition that only time `build_sim`, so that `setup_s`
/// is a median of several.
const EXTRA_SETUPS: usize = 4;

/// Ring `ring` of the workload: 1,200 nodes on 120 km (the paper's
/// density), one CBR sender per four nodes at Table 1's per-sender rate,
/// sending from 1 s to the end.
pub fn scenario(seed: u64, ring: u64) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Flooding);
    s.nodes *= SCALE;
    s.circuit_m *= SCALE as f64;
    s.sim_time = Duration::from_secs(SIM_S);
    s.traffic.senders = (1..s.nodes as u32).step_by(4).collect();
    s.traffic.cbr.start = Duration::from_secs(1);
    s.traffic.cbr.stop = s.sim_time;
    s.seed = derive_seed(seed, ring);
    s
}

fn rings(seed: u64) -> Vec<Experiment> {
    (0..RINGS)
        .map(|ring| Experiment::new(scenario(seed, ring)))
        .collect()
}

/// One repetition: each ring built, run in 100 slices, collected and
/// checked. Returns the rep, the spans and the engine work.
fn run<O: BenchObserver + Default>(
    rings: &[Experiment],
    epoch: Instant,
) -> (Rep, Spans, ExactWork) {
    let cpu = process_cpu_s();
    let t0 = Instant::now();
    let mut spans = Spans::new(epoch, 0);
    let mut work = ExactWork::default();
    let mut digests = Vec::new();
    let mut failed = 0;
    for exp in rings {
        let Ok(run) = run_sliced(exp, O::default(), SLICE, &mut spans) else {
            failed += 1;
            continue;
        };
        let result = &run.work.results[0];
        failed += u64::from(!result_ok(result));
        digests.push(result_digest(result));
        let mut ring = run.work;
        ring.counts = run.sim.into_observer().into_counts();
        work.add(ring);
    }
    let rep = Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        setup_s: spans.total("core.build_sim"),
        cpu_s: process_cpu_s() - cpu,
        digest: fold_digests(&digests),
        attempted: rings.len() as u64,
        failed,
    };
    (rep, spans, work)
}

/// An untraced repetition.
pub fn untraced(seed: u64) -> Rep {
    let rings = rings(seed);
    let mut rep = run::<NoopObserver>(&rings, Instant::now()).0;
    let mut samples = vec![rep.setup_s];
    for _ in 0..EXTRA_SETUPS {
        let t = Instant::now();
        let built: Vec<_> = rings.iter().map(|e| e.build_sim(NoopObserver)).collect();
        samples.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    rep.setup_s = median(&samples);
    rep
}

/// An untraced and a traced repetition, and the per-layer metrics of the
/// traced one.
pub fn traced(seed: u64, epoch: Instant) -> Traced {
    let rings = rings(seed);
    let plain = untraced(seed);
    let mut spans = Spans::new(epoch, 0);
    let mut vehicle_steps = 0;
    let mut ca_s = 0.0;
    for exp in &rings {
        if spans
            .time("core.build_trace", || exp.scenario().build_trace())
            .is_err()
        {
            return Traced::failed(plain);
        }
        let (steps, secs) = time_ca(exp.scenario(), &mut spans);
        vehicle_steps += steps;
        ca_s += secs;
    }
    let (rep, run_spans, work) = run::<LayerObserver>(&rings, epoch);
    spans.spans.extend(run_spans.spans);
    let events: u64 = work.results.iter().map(|r| r.global.events_processed).sum();
    let events_agree = work.results.len() == rings.len() && work.counts.events() == events;
    let mut layers = Layers::default();
    work.fill(&mut layers);
    layers.set("core.build_trace_s", spans.total("core.build_trace"));
    layers.set("core.build_sim_s", spans.total("core.build_sim"));
    layers.set("core.collect_s", spans.total("core.collect"));
    layers.set("ca.vehicle_steps", vehicle_steps as f64);
    layers.set("ca.vehicle_steps_per_s", ratio(vehicle_steps as f64, ca_s));
    layers.set("telemetry.trace_overhead", ratio(rep.wall_s, plain.wall_s));
    Traced::new(plain, rep, layers, spans, events_agree)
}
