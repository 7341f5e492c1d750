//! Mobility traces: sampled node trajectories with interpolation.

use cavenet_ca::{Lane, MultiLaneRoad};

use crate::{LaneGeometry, MobilityError, Point2};

/// One sample of a node's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulation time in seconds.
    pub time: f64,
    /// Position in the absolute plane (metres).
    pub position: Point2,
    /// Scalar speed in metres per second.
    pub speed: f64,
    /// `true` if the node *jumped* here discontinuously (e.g. the
    /// first-version CAVENET recycling teleport). Interpolators must not
    /// interpolate across a teleport.
    pub teleport: bool,
}

/// The sampled trajectory of a single node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeTrajectory {
    samples: Vec<TraceSample>,
}

impl NodeTrajectory {
    /// Build from samples; they must be in strictly increasing time order.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnorderedSamples`] (with node 0 as a
    /// placeholder — the caller knows the real id) when out of order, and
    /// [`MobilityError::InvalidParameter`] for non-finite sample times or
    /// positions (`NaN` comparisons would defeat the ordering check and
    /// poison interpolation downstream).
    pub fn new(samples: Vec<TraceSample>) -> Result<Self, MobilityError> {
        if samples
            .iter()
            .any(|s| !s.time.is_finite() || !s.position.x.is_finite() || !s.position.y.is_finite())
        {
            return Err(MobilityError::InvalidParameter {
                name: "sample time/position must be finite",
            });
        }
        if samples.windows(2).any(|w| w[0].time >= w[1].time) {
            return Err(MobilityError::UnorderedSamples { node: 0 });
        }
        Ok(NodeTrajectory { samples })
    }

    /// The raw samples.
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trajectory has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn push(&mut self, s: TraceSample) {
        debug_assert!(self.samples.last().is_none_or(|last| last.time < s.time));
        self.samples.push(s);
    }

    /// Position at time `t` with linear interpolation between samples.
    ///
    /// Before the first sample the first position is returned; after the
    /// last sample, the last. Across a teleport the node holds its previous
    /// position until the instant of the jump.
    ///
    /// Returns `None` for an empty trajectory.
    pub fn position_at(&self, t: f64) -> Option<Point2> {
        let samples = &self.samples;
        if samples.is_empty() {
            return None;
        }
        if t <= samples[0].time {
            return Some(samples[0].position);
        }
        if t >= samples[samples.len() - 1].time {
            return Some(samples[samples.len() - 1].position);
        }
        let i = self.segment_at(t);
        let a = &samples[i];
        let b = &samples[i + 1];
        if b.teleport {
            return Some(a.position);
        }
        let w = (t - a.time) / (b.time - a.time);
        Some(Point2::new(
            a.position.x + w * (b.position.x - a.position.x),
            a.position.y + w * (b.position.y - a.position.y),
        ))
    }

    /// Index of the last sample with time `<= t` (in `f64::total_cmp`
    /// order), for `t` strictly inside the trajectory's time span.
    ///
    /// Traces are usually sampled at a fixed period, so the index is first
    /// guessed from `t`'s fraction of the span and accepted only if that
    /// sample and the next bracket `t` — exactly the index the binary
    /// search would return; any other trajectory falls back to the search.
    fn segment_at(&self, t: f64) -> usize {
        let samples = &self.samples;
        let n = samples.len();
        let (t0, t1) = (samples[0].time, samples[n - 1].time);
        let guess = (((t - t0) / (t1 - t0) * (n - 1) as f64) as usize).min(n - 2);
        if samples[guess].time.total_cmp(&t).is_le()
            && t.total_cmp(&samples[guess + 1].time).is_lt()
        {
            return guess;
        }
        match samples.binary_search_by(|s| s.time.total_cmp(&t)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Time-averaged speed over the whole trajectory (mean of samples).
    pub fn mean_speed(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.speed).sum::<f64>() / self.samples.len() as f64
    }

    /// Upper bound on the node's displacement rate in metres per second:
    /// over any interval `[t, t+Δ]` the interpolated position moves at most
    /// `max_speed · Δ`. Derived from the piecewise-linear segments (the node
    /// is stationary before the first and after the last sample).
    ///
    /// Returns `None` when the trajectory contains a teleport: the jump is
    /// instantaneous, so no finite rate bounds it.
    pub fn max_speed(&self) -> Option<f64> {
        let mut vmax = 0.0f64;
        for w in self.samples.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            if b.teleport {
                return None;
            }
            let d = ((b.position.x - a.position.x).powi(2) + (b.position.y - a.position.y).powi(2))
                .sqrt();
            vmax = vmax.max(d / (b.time - a.time));
        }
        Some(vmax)
    }
}

/// A full mobility trace: one trajectory per node, identified by a dense
/// node id `0..node_count`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MobilityTrace {
    nodes: Vec<NodeTrajectory>,
}

impl MobilityTrace {
    /// Build from per-node trajectories.
    pub fn from_trajectories(nodes: Vec<NodeTrajectory>) -> Self {
        MobilityTrace { nodes }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The trajectory of node `id`.
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnknownNode`] for an out-of-range id.
    pub fn node(&self, id: usize) -> Result<&NodeTrajectory, MobilityError> {
        self.nodes
            .get(id)
            .ok_or(MobilityError::UnknownNode { node: id })
    }

    /// Iterate over `(node_id, trajectory)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NodeTrajectory)> {
        self.nodes.iter().enumerate()
    }

    /// Position of node `id` at time `t` (interpolated).
    ///
    /// # Errors
    ///
    /// Returns [`MobilityError::UnknownNode`] for an out-of-range id or a
    /// node with no samples.
    pub fn position_at(&self, id: usize, t: f64) -> Result<Point2, MobilityError> {
        self.node(id)?
            .position_at(t)
            .ok_or(MobilityError::UnknownNode { node: id })
    }

    /// Largest sample time across all nodes (0 if the trace is empty).
    pub fn duration(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| n.samples().last())
            .map(|s| s.time)
            .fold(0.0, f64::max)
    }

    /// Upper bound on any node's displacement rate in metres per second
    /// (see [`NodeTrajectory::max_speed`]); `None` if any trajectory
    /// teleports. An empty trace is vacuously stationary (`Some(0.0)`).
    pub fn max_speed(&self) -> Option<f64> {
        self.nodes
            .iter()
            .try_fold(0.0f64, |acc, n| n.max_speed().map(|v| acc.max(v)))
    }

    /// All node positions at time `t` (nodes with no samples are skipped).
    pub fn positions_at(&self, t: f64) -> Vec<(usize, Point2)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.position_at(t).map(|p| (i, p)))
            .collect()
    }
}

/// Generates [`MobilityTrace`]s by running a CA lane (or multi-lane road)
/// and embedding positions through a [`LaneGeometry`].
///
/// The number of trace nodes equals the number of vehicles; node ids are the
/// stable [`cavenet_ca::VehicleId`]s.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    geometry: LaneGeometry,
    steps: usize,
    sample_every: usize,
    rebase_time: bool,
}

impl TraceGenerator {
    /// New generator embedding through `geometry`, running 100 steps and
    /// sampling every step by default.
    pub fn new(geometry: LaneGeometry) -> Self {
        TraceGenerator {
            geometry,
            steps: 100,
            sample_every: 1,
            rebase_time: true,
        }
    }

    /// Whether trace timestamps are re-based so the first sample is at
    /// `t = 0` even if the lane was warmed up beforehand (default `true`).
    /// Set to `false` to keep the lane's absolute step count as the time
    /// axis.
    pub fn rebase_time(mut self, rebase: bool) -> Self {
        self.rebase_time = rebase;
        self
    }

    /// Number of CA steps to run.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Record a sample every `n` steps (n ≥ 1).
    pub fn sample_every(mut self, n: usize) -> Self {
        self.sample_every = n.max(1);
        self
    }

    /// The geometry used for embedding.
    pub fn geometry(&self) -> &LaneGeometry {
        &self.geometry
    }

    /// Run `lane` for the configured number of steps, recording a trace.
    ///
    /// The lane is consumed so that the trace unambiguously corresponds to
    /// the lane's state sequence from its current time.
    pub fn generate(&self, mut lane: Lane) -> MobilityTrace {
        let cell_m = lane.params().cell_length_m();
        let dt = lane.params().dt_s();
        let t0 = if self.rebase_time { lane.time() } else { 0 };
        // Upper bound on node ids: closed/recycling lanes keep their ids;
        // open lanes mint fresh ones while stepping.
        let mut nodes: Vec<NodeTrajectory> = Vec::new();
        let record = |lane: &Lane, nodes: &mut Vec<NodeTrajectory>| {
            let t = (lane.time() - t0) as f64 * dt;
            for v in lane.vehicles() {
                let id = v.id().0 as usize;
                if id >= nodes.len() {
                    nodes.resize(id + 1, NodeTrajectory::default());
                }
                let s_m = v.position() as f64 * cell_m;
                let teleport = v.wrapped_last_step() && !self.geometry.is_closed();
                nodes[id].push(TraceSample {
                    time: t,
                    position: self.geometry.embed(s_m),
                    speed: lane.params().velocity_to_mps(v.velocity()),
                    teleport,
                });
            }
        };
        record(&lane, &mut nodes);
        for step in 1..=self.steps {
            lane.step();
            if step % self.sample_every == 0 {
                record(&lane, &mut nodes);
            }
        }
        MobilityTrace { nodes }
    }

    /// Run a multi-lane road, embedding lane `k` through `geometries[k]`
    /// (falling back to the generator's own geometry when the slice is too
    /// short). Lane changes appear as small lateral jumps, flagged as
    /// teleports only if the target geometry is open.
    pub fn generate_multilane(
        &self,
        mut road: MultiLaneRoad,
        geometries: &[LaneGeometry],
    ) -> MobilityTrace {
        let cell_m = road.params().nas.cell_length_m();
        let dt = road.params().nas.dt_s();
        let t0 = if self.rebase_time { road.time() } else { 0 };
        let geo = |k: usize| geometries.get(k).copied().unwrap_or(self.geometry);
        let mut nodes: Vec<NodeTrajectory> = Vec::new();
        let record = |road: &MultiLaneRoad, nodes: &mut Vec<NodeTrajectory>| {
            let t = (road.time() - t0) as f64 * dt;
            for (lane, pos, vel, id) in road.snapshot() {
                let idx = id.0 as usize;
                if idx >= nodes.len() {
                    nodes.resize(idx + 1, NodeTrajectory::default());
                }
                nodes[idx].push(TraceSample {
                    time: t,
                    position: geo(lane).embed(pos as f64 * cell_m),
                    speed: vel as f64 * cell_m / dt,
                    teleport: false,
                });
            }
        };
        record(&road, &mut nodes);
        for step in 1..=self.steps {
            road.step();
            if step % self.sample_every == 0 {
                record(&road, &mut nodes);
            }
        }
        MobilityTrace { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cavenet_ca::{Boundary, NasParams};
    use proptest::prelude::*;

    /// `position_at` as it was before the direct index: a binary search for
    /// the segment on every call. The reference the direct index must
    /// reproduce bit for bit.
    fn position_by_search(samples: &[TraceSample], t: f64) -> Option<Point2> {
        if samples.is_empty() {
            return None;
        }
        if t <= samples[0].time {
            return Some(samples[0].position);
        }
        if t >= samples[samples.len() - 1].time {
            return Some(samples[samples.len() - 1].position);
        }
        let i = match samples.binary_search_by(|s| s.time.total_cmp(&t)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let a = &samples[i];
        let b = &samples[i + 1];
        if b.teleport {
            return Some(a.position);
        }
        let w = (t - a.time) / (b.time - a.time);
        Some(Point2::new(
            a.position.x + w * (b.position.x - a.position.x),
            a.position.y + w * (b.position.y - a.position.y),
        ))
    }

    /// Sample times for one case: `mode` 0 uniform, 1 jittered around the
    /// uniform grid, 2 uniform with some gaps shrunk to one ulp (times that
    /// nearly repeat), 3 irregular gaps.
    fn sample_times(mode: u8, n: usize, t0: f64, dt: f64, noise: &[f64]) -> Vec<f64> {
        let mut times = Vec::with_capacity(n);
        let mut t = t0;
        for k in 0..n {
            let r = noise[k % noise.len()];
            let time = match mode {
                0 => t0 + k as f64 * dt,
                1 => t0 + (k as f64 + 0.9 * r - 0.45) * dt,
                2 if k > 0 && r < 0.3 => times.last().map_or(t0, |&p: &f64| p.next_up()),
                2 => t0 + k as f64 * dt,
                _ => {
                    t += dt * (0.01 + 3.0 * r);
                    t
                }
            };
            times.push(time);
        }
        times
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn direct_index_matches_the_binary_search(
            mode in 0u8..4,
            n in 1usize..120,
            t0 in prop_oneof![Just(0.0f64), Just(-5.0), -1000.0f64..1000.0],
            dt in prop_oneof![Just(1.0f64), Just(0.1), 0.001f64..10.0],
            noise in prop::collection::vec(0.0f64..1.0, 1..50),
            queries in prop::collection::vec(-0.2f64..1.2, 1..40),
        ) {
            let times = sample_times(mode, n, t0, dt, &noise);
            let samples: Vec<TraceSample> = times
                .iter()
                .enumerate()
                .map(|(k, &time)| {
                    let r = noise[(k * 7 + 3) % noise.len()];
                    TraceSample {
                        time,
                        position: Point2::new(1e4 * r - 5e3, time * 13.0 - r),
                        speed: r,
                        teleport: r < 0.15,
                    }
                })
                .collect();
            prop_assume!(times.windows(2).all(|w| w[0] < w[1]));
            let tr = NodeTrajectory::new(samples).expect("strictly increasing times");
            let (first, last) = (times[0], times[n - 1]);
            let mut ts: Vec<f64> = queries
                .iter()
                .map(|&q| first + q * (last - first))
                .collect();
            // Exactly at every sample, and the same instant queried twice.
            ts.extend(&times);
            ts.extend(&times[..n.min(3)]);
            // Both zeros: with `t0 = -5` a sample sits at `+0.0`, where
            // `-0.0` orders below it in the search's total order.
            ts.extend([first - 1.0, last + 1.0, f64::MIN, f64::MAX, 0.0, -0.0]);
            for t in ts {
                let got = tr.position_at(t).expect("non-empty");
                let want = position_by_search(tr.samples(), t).expect("non-empty");
                prop_assert_eq!(
                    (got.x.to_bits(), got.y.to_bits()),
                    (want.x.to_bits(), want.y.to_bits()),
                    "t = {}", t
                );
            }
        }
    }

    fn sample(t: f64, x: f64, y: f64) -> TraceSample {
        TraceSample {
            time: t,
            position: Point2::new(x, y),
            speed: 0.0,
            teleport: false,
        }
    }

    #[test]
    fn trajectory_rejects_unordered() {
        let r = NodeTrajectory::new(vec![sample(1.0, 0.0, 0.0), sample(1.0, 1.0, 0.0)]);
        assert!(matches!(r, Err(MobilityError::UnorderedSamples { .. })));
    }

    #[test]
    fn trajectory_rejects_non_finite_samples() {
        // A NaN time would defeat the ordering check (NaN comparisons are
        // always false) and then poison interpolation.
        for bad in [
            vec![sample(f64::NAN, 0.0, 0.0), sample(1.0, 1.0, 0.0)],
            vec![sample(0.0, f64::INFINITY, 0.0)],
            vec![sample(0.0, 0.0, f64::NAN)],
        ] {
            let r = NodeTrajectory::new(bad);
            assert!(matches!(r, Err(MobilityError::InvalidParameter { .. })));
        }
    }

    #[test]
    fn interpolation_midpoint() {
        let tr = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(2.0, 10.0, 4.0)]).unwrap();
        let p = tr.position_at(1.0).unwrap();
        assert!((p.x - 5.0).abs() < 1e-12);
        assert!((p.y - 2.0).abs() < 1e-12);
    }

    #[test]
    fn clamping_before_and_after() {
        let tr = NodeTrajectory::new(vec![sample(1.0, 1.0, 1.0), sample(2.0, 2.0, 2.0)]).unwrap();
        assert_eq!(tr.position_at(0.0).unwrap(), Point2::new(1.0, 1.0));
        assert_eq!(tr.position_at(5.0).unwrap(), Point2::new(2.0, 2.0));
    }

    #[test]
    fn teleport_is_not_interpolated() {
        let mut jump = sample(2.0, 100.0, 0.0);
        jump.teleport = true;
        let tr = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), jump]).unwrap();
        // Just before the jump the node is still at the old position.
        let p = tr.position_at(1.999).unwrap();
        assert!((p.x - 0.0).abs() < 1e-9);
        // At/after the jump it is at the new one.
        assert_eq!(tr.position_at(2.0).unwrap(), Point2::new(100.0, 0.0));
    }

    #[test]
    fn max_speed_bounds_segment_rates() {
        let tr = NodeTrajectory::new(vec![
            sample(0.0, 0.0, 0.0),
            sample(1.0, 3.0, 4.0),  // 5 m in 1 s
            sample(3.0, 3.0, 24.0), // 20 m in 2 s
        ])
        .unwrap();
        assert!((tr.max_speed().unwrap() - 10.0).abs() < 1e-12);
        // Single-sample and empty trajectories are stationary.
        assert_eq!(
            NodeTrajectory::new(vec![sample(0.0, 1.0, 1.0)])
                .unwrap()
                .max_speed(),
            Some(0.0)
        );
        assert_eq!(NodeTrajectory::default().max_speed(), Some(0.0));
    }

    #[test]
    fn max_speed_is_unbounded_across_teleports() {
        let mut jump = sample(2.0, 100.0, 0.0);
        jump.teleport = true;
        let tr = NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), jump]).unwrap();
        assert_eq!(tr.max_speed(), None);
        let trace = MobilityTrace::from_trajectories(vec![
            NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 1.0, 0.0)]).unwrap(),
            tr,
        ]);
        assert_eq!(trace.max_speed(), None);
    }

    #[test]
    fn trace_max_speed_is_max_over_nodes() {
        let trace = MobilityTrace::from_trajectories(vec![
            NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 2.0, 0.0)]).unwrap(),
            NodeTrajectory::new(vec![sample(0.0, 0.0, 0.0), sample(1.0, 0.0, 7.0)]).unwrap(),
        ]);
        assert!((trace.max_speed().unwrap() - 7.0).abs() < 1e-12);
        assert_eq!(MobilityTrace::default().max_speed(), Some(0.0));
    }

    #[test]
    fn empty_trajectory_has_no_position() {
        let tr = NodeTrajectory::default();
        assert!(tr.position_at(0.0).is_none());
        assert!(tr.is_empty());
        assert_eq!(tr.mean_speed(), 0.0);
    }

    #[test]
    fn trace_generation_from_closed_lane() {
        let params = NasParams::builder()
            .length(400)
            .density(0.075)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let geometry = LaneGeometry::ring_circle(params.length_m());
        let trace = TraceGenerator::new(geometry).steps(50).generate(lane);
        assert_eq!(trace.node_count(), 30);
        assert!((trace.duration() - 50.0).abs() < 1e-9);
        for (_, tr) in trace.iter() {
            assert_eq!(tr.len(), 51);
            // No teleports on a closed geometry.
            assert!(tr.samples().iter().all(|s| !s.teleport));
        }
    }

    #[test]
    fn recycling_lane_on_straight_geometry_has_teleports() {
        let params = NasParams::builder()
            .length(60)
            .density(0.1)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Recycling, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::straight_x())
            .steps(200)
            .generate(lane);
        let teleports: usize = trace
            .iter()
            .map(|(_, tr)| tr.samples().iter().filter(|s| s.teleport).count())
            .sum();
        assert!(teleports > 0, "recycling on a straight line must teleport");
    }

    #[test]
    fn sample_every_thins_output() {
        let params = NasParams::builder()
            .length(100)
            .density(0.1)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(750.0))
            .steps(100)
            .sample_every(10)
            .generate(lane);
        assert_eq!(trace.node(0).unwrap().len(), 11);
    }

    #[test]
    fn positions_stay_on_ring() {
        let params = NasParams::builder()
            .length(400)
            .density(0.075)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 3).unwrap();
        let circumference = params.length_m();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(circumference))
            .steps(30)
            .generate(lane);
        let r = circumference / std::f64::consts::TAU;
        let c = Point2::new(r, r);
        for (_, tr) in trace.iter() {
            for s in tr.samples() {
                assert!((s.position.distance(&c) - r).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn unknown_node_errors() {
        let trace = MobilityTrace::default();
        assert!(matches!(
            trace.position_at(0, 0.0),
            Err(MobilityError::UnknownNode { node: 0 })
        ));
    }

    #[test]
    fn multilane_trace_covers_all_vehicles() {
        use cavenet_ca::{MultiLaneParams, MultiLaneRoad};
        let nas = NasParams::builder()
            .length(100)
            .vehicle_count(10)
            .build()
            .unwrap();
        let road = MultiLaneRoad::new(MultiLaneParams::new(nas, 2, 0.5).unwrap(), 4).unwrap();
        let g0 = LaneGeometry::ring_circle(750.0);
        let g1 = LaneGeometry::ring_circle(760.0);
        let trace = TraceGenerator::new(g0)
            .steps(20)
            .generate_multilane(road, &[g0, g1]);
        assert_eq!(trace.node_count(), 20);
        for (_, tr) in trace.iter() {
            assert_eq!(tr.len(), 21);
        }
    }

    #[test]
    fn positions_at_returns_all_nodes() {
        let params = NasParams::builder()
            .length(100)
            .density(0.05)
            .build()
            .unwrap();
        let lane = Lane::with_uniform_placement(params, Boundary::Closed, 1).unwrap();
        let trace = TraceGenerator::new(LaneGeometry::ring_circle(750.0))
            .steps(10)
            .generate(lane);
        let snap = trace.positions_at(5.0);
        assert_eq!(snap.len(), 5);
    }
}
