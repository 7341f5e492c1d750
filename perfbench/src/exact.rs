//! Driving the exact per-frame engine in timed slices, and the checks and
//! digests its results get.

use std::time::Duration;

use cavenet_ca::{Boundary, Lane, NasParams, CELL_LENGTH_M};
use cavenet_core::{Experiment, ExperimentResult, MobilitySource, Scenario, ScenarioError};
use cavenet_net::{DropCounts, NoopObserver, SimObserver, SimTime, Simulator};
use cavenet_rng::fnv::Fnv64;
use cavenet_testkit::{GoldenDigest, Tee};

use crate::layers::{ExactWork, MacTotals};
use crate::measure::thread_allocations;
use crate::observer::{EngineCounts, LayerObserver, Spans};

/// The observers a benchmark run can attach: each may need a hook when a
/// `run_until` slice returns, and may hold engine counters.
pub trait BenchObserver: SimObserver + Sized {
    /// Called after every slice.
    fn slice_end(&mut self) {}

    /// The engine counters gathered (none by default).
    fn into_counts(self) -> EngineCounts {
        EngineCounts::default()
    }
}

impl BenchObserver for NoopObserver {}
impl BenchObserver for GoldenDigest {}
impl BenchObserver for LayerObserver {
    fn slice_end(&mut self) {
        self.close();
    }

    fn into_counts(self) -> EngineCounts {
        self.counts
    }
}
impl<A: BenchObserver, B: BenchObserver> BenchObserver for Tee<A, B> {
    fn slice_end(&mut self) {
        self.0.slice_end();
        self.1.slice_end();
    }

    fn into_counts(self) -> EngineCounts {
        let mut counts = self.0.into_counts();
        counts.add(&self.1.into_counts());
        counts
    }
}

/// A finished sliced run: the simulator (for its observer and final
/// statistics) and the work it did. `work.counts` is left for the caller
/// to fill from the observer once it is done with the simulator.
pub struct Sliced<O: SimObserver> {
    /// The simulator at the scenario's end.
    pub sim: Simulator<O>,
    /// Slices, allocations, MAC totals and the collected result.
    pub work: ExactWork,
}

/// Build `exp`'s simulator around `observer` and run it to the end in
/// `slice`-long `run_until` calls, recording spans around the build, every
/// slice and the collection.
///
/// # Errors
///
/// Any [`ScenarioError`] from building the simulator.
pub fn run_sliced<O: BenchObserver>(
    exp: &Experiment,
    observer: O,
    slice: Duration,
    spans: &mut Spans,
) -> Result<Sliced<O>, ScenarioError> {
    let (mut sim, recorder) = spans.time("core.build_sim", || exp.build_sim(observer))?;
    let end = exp.scenario().sim_time;
    let mut work = ExactWork::default();
    let mut at = Duration::ZERO;
    while at < end {
        at = (at + slice).min(end);
        let target = SimTime::from_nanos(at.as_nanos() as u64);
        let allocations = thread_allocations();
        spans.time("net.run_until", || {
            sim.run_until(target);
            sim.observer_mut().slice_end();
        });
        work.allocations += thread_allocations() - allocations;
        work.slices_s
            .push(spans.spans.last().map_or(0.0, |s| s.secs()));
    }
    let result = spans.time("core.collect", || exp.collect(&sim, &recorder));
    for i in 0..sim.node_count() {
        let m = sim.mac_stats(i);
        work.mac.add(MacTotals {
            retries: m.retries,
            queue_drops: m.queue_drops,
            queue_hwm_max: m.queue_hwm,
        });
    }
    work.results.push(result);
    Ok(Sliced { sim, work })
}

/// Finish a golden event-stream digest exactly as the campaign
/// supervisor and `cavenet_testkit::digest_scenario` do: fold in the final
/// global and per-node statistics. Returns the digest value and the
/// second observer.
pub fn finish_golden<L: SimObserver>(sim: Simulator<Tee<GoldenDigest, L>>) -> (u64, L) {
    let global = sim.global_stats();
    let per_node: Vec<_> = (0..sim.node_count())
        .map(|i| (sim.node_stats(i), sim.mac_stats(i)))
        .collect();
    let Tee(mut digest, other) = sim.into_observer();
    digest.absorb_stats(&global);
    for (i, (ns, ms)) in per_node.iter().enumerate() {
        digest.absorb_node(i, ns, ms);
    }
    (digest.value(), other)
}

/// Output checks on one result: traffic flowed, no flow received more
/// than it sent, every PDR lies in [0, 1], and the engine did work.
pub fn result_ok(r: &ExperimentResult) -> bool {
    r.total_sent() > 0
        && r.global.events_processed > 0
        && r.senders.iter().all(|s| {
            s.metrics.received <= s.metrics.sent
                && s.metrics.pdr().is_none_or(|p| (0.0..=1.0).contains(&p))
        })
}

/// Digest of every field of a result, so two runs of one seed can be
/// compared exactly.
pub fn result_digest(r: &ExperimentResult) -> u64 {
    let mut h = Fnv64::new();
    let mut put = |v: u64| h.write(&v.to_le_bytes());
    let g = &r.global;
    for v in [
        g.transmissions,
        g.decoded,
        g.collisions,
        g.rx_while_tx,
        g.events_processed,
        r.control_packets,
        r.control_bytes,
        r.data_forwarded,
    ] {
        put(v);
    }
    for reason in DropCounts::ALL {
        put(r.drops.get(reason));
    }
    let nanos = |d: Option<Duration>| d.map_or(u64::MAX, |d| d.as_nanos() as u64);
    for s in &r.senders {
        let m = &s.metrics;
        for v in [
            u64::from(s.sender),
            m.sent,
            m.received,
            m.duplicates,
            m.bytes_sent,
            m.bytes_received,
            nanos(m.mean_delay),
            nanos(m.max_delay),
        ] {
            put(v);
        }
        for g in &s.goodput_series {
            put(g.to_bits());
        }
    }
    h.finish()
}

/// Time the CA half of `s.build_trace()` on its own: the same lane, seed
/// and number of steps (warm-up plus one per trace sample), with no trace
/// sampling. Returns the vehicle updates made and their seconds; (0, 0)
/// for mobility that is not a single-lane NaS ring.
pub fn time_ca(s: &Scenario, spans: &mut Spans) -> (u64, f64) {
    let MobilitySource::NasCa {
        slowdown_probability,
        vmax,
    } = s.mobility
    else {
        return (0, 0.0);
    };
    let cells = (s.circuit_m / CELL_LENGTH_M).round() as usize;
    let steps = 200 + s.sim_time.as_secs() + 1;
    spans.time("ca.step", || {
        let params = NasParams::builder()
            .length(cells)
            .vehicle_count(s.nodes)
            .vmax(vmax)
            .slowdown_probability(slowdown_probability)
            .build()
            .expect("scenario CA parameters already validated by build_trace");
        let mut lane = Lane::with_random_placement(params, Boundary::Closed, s.seed)
            .expect("scenario CA parameters already validated by build_trace");
        for _ in 0..steps {
            lane.step();
        }
        std::hint::black_box(&lane);
    });
    let secs = spans.spans.last().map_or(0.0, |span| span.secs());
    (steps * s.nodes as u64, secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_core::Protocol;
    use std::time::Instant;

    fn short(p: Protocol) -> Experiment {
        let mut s = Scenario::paper_table1(p);
        s.sim_time = Duration::from_secs(15);
        s.traffic.cbr.start = Duration::from_secs(2);
        Experiment::new(s)
    }

    #[test]
    fn sliced_runs_match_a_straight_digest_run() {
        let exp = short(Protocol::Aodv);
        let want = cavenet_testkit::digest_scenario(exp.scenario());
        let mut spans = Spans::new(Instant::now(), 0);
        let observer = Tee(GoldenDigest::new(), LayerObserver::default());
        let run = run_sliced(&exp, observer, Duration::from_secs(4), &mut spans).unwrap();
        assert_eq!(run.work.slices_s.len(), 4);
        let result = run.work.results[0].clone();
        let (digest, layers) = finish_golden(run.sim);
        assert_eq!(digest, want.digest);
        assert_eq!(layers.counts.events(), want.events);
        assert!(result_ok(&result));
        assert_eq!(result_digest(&result), result_digest(&want.result));
        assert_eq!(spans.durations("core.build_sim").len(), 1);
        assert_eq!(spans.durations("net.run_until").len(), 4);
    }

    #[test]
    fn result_digest_sees_every_delivery() {
        let exp = short(Protocol::Dymo);
        let mut spans = Spans::new(Instant::now(), 0);
        let run = run_sliced(&exp, NoopObserver, Duration::from_secs(15), &mut spans).unwrap();
        let mut r = run.work.results[0].clone();
        let before = result_digest(&r);
        r.senders[0].metrics.received += 1;
        assert_ne!(result_digest(&r), before);
        r.senders[0].metrics.received = r.senders[0].metrics.sent + 1;
        assert!(!result_ok(&r));
    }

    #[test]
    fn ca_timing_counts_every_vehicle_update() {
        let s = Scenario::paper_table1(Protocol::Aodv);
        let mut spans = Spans::new(Instant::now(), 0);
        let (steps, secs) = time_ca(&s, &mut spans);
        assert_eq!(steps, 30 * (200 + 101));
        assert!(secs > 0.0);
    }
}
