//! `fluid_scale`: a 20,000-node ring under the flow-level fluid backend —
//! the `fluid` step and large-N BA trace generation; `net` and `routing`
//! stay idle.

use std::time::{Duration, Instant};

use cavenet_core::{Experiment, ExperimentResult, Fidelity, Protocol, Scenario};

use crate::exact::time_ca;
use crate::layers::{ratio, Layers};
use crate::measure::{median, percentile, process_cpu_s};
use crate::observer::Spans;
use crate::{derive_seed, Rep, Traced};

/// Vehicles on the ring.
const NODES: usize = 20_000;
/// Ring length: Table 1's density (30 vehicles per 3 km).
const CIRCUIT_M: f64 = 2_000_000.0;

/// Table 1 (AODV, paper traffic, 100 s) at 20,000 nodes on 2,000 km,
/// under [`Fidelity::Fluid`].
pub fn scenario(seed: u64) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Aodv);
    s.nodes = NODES;
    s.circuit_m = CIRCUIT_M;
    s.fidelity = Fidelity::Fluid;
    s.seed = derive_seed(seed, 0);
    s
}

/// Output checks: every flow sent, none received more than it sent,
/// every PDR lies in [0, 1], and the engine took one step per simulated
/// second.
fn result_ok(r: &ExperimentResult, steps: u64, sim_time: Duration) -> bool {
    steps == sim_time.as_secs()
        && r.senders.iter().all(|s| {
            s.metrics.sent > 0
                && s.metrics.received <= s.metrics.sent
                && s.metrics.pdr().is_some_and(|p| (0.0..=1.0).contains(&p))
        })
}

/// One run: build, step to the end one `step_once` at a time, collect,
/// check. The digest is the engine's own running digest.
fn run(exp: &Experiment, spans: &mut Spans) -> Rep {
    let cpu = process_cpu_s();
    let t0 = Instant::now();
    let Ok(mut engine) = spans.time("core.build_fluid", || exp.build_fluid()) else {
        return Rep::failed();
    };
    while !engine.finished() {
        spans.time("fluid.step_once", || engine.step_once());
    }
    let result = spans.time("core.collect", || exp.collect_fluid(&engine));
    let ok = result_ok(&result, engine.steps_done(), exp.scenario().sim_time);
    Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        setup_s: spans.total("core.build_fluid"),
        cpu_s: process_cpu_s() - cpu,
        digest: engine.digest(),
        attempted: 1,
        failed: u64::from(!ok),
    }
}

/// Engine builds per repetition that only time set-up, so that `setup_s`
/// is a median of several builds.
const EXTRA_BUILDS: usize = 1;

/// An untraced repetition.
pub fn untraced(seed: u64) -> Rep {
    let exp = Experiment::new(scenario(seed));
    let mut rep = run(&exp, &mut Spans::new(Instant::now(), 0));
    let mut samples = vec![rep.setup_s];
    for _ in 0..EXTRA_BUILDS {
        let t = Instant::now();
        let built = exp.build_fluid();
        samples.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    rep.setup_s = median(&samples);
    rep
}

/// An untraced and a traced repetition, and the per-layer metrics of the
/// traced one. The fluid engine has no observer, so the traced run differs
/// only by the spans it reads.
pub fn traced(seed: u64, epoch: Instant) -> Traced {
    let exp = Experiment::new(scenario(seed));
    let plain = untraced(seed);
    let mut spans = Spans::new(epoch, 0);
    let mut layers = Layers::default();
    if spans
        .time("core.build_trace", || exp.scenario().build_trace())
        .is_err()
    {
        return Traced::failed(plain);
    }
    let (vehicle_steps, ca_s) = time_ca(exp.scenario(), &mut spans);
    let rep = run(&exp, &mut spans);
    let steps = spans.durations("fluid.step_once");
    layers.set("core.build_trace_s", spans.total("core.build_trace"));
    layers.set("core.build_fluid_s", spans.total("core.build_fluid"));
    layers.set("core.collect_s", spans.total("core.collect"));
    layers.set("ca.vehicle_steps", vehicle_steps as f64);
    layers.set("ca.vehicle_steps_per_s", ratio(vehicle_steps as f64, ca_s));
    layers.set("fluid.steps", steps.len() as f64);
    layers.set("fluid.step_p50_ms", percentile(&steps, 50.0) * 1e3);
    layers.set("fluid.step_p90_ms", percentile(&steps, 90.0) * 1e3);
    layers.set("telemetry.trace_overhead", ratio(rep.wall_s, plain.wall_s));
    Traced::new(plain, rep, layers, spans, true)
}
