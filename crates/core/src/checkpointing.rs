//! Periodic checkpoints and resumable runs over the full pipeline.
//!
//! The `cavenet-checkpoint` crate captures a bare simulator; this module
//! lifts that to a whole [`Experiment`]: the snapshot additionally carries
//! the shared CBR traffic ledger (the metrics source) and a fingerprint of
//! the mobility configuration, and its metadata is derived from the
//! [`Scenario`] so a snapshot refuses to restore into a different one.
//!
//! Every level drives one [`Run`], so exact and fluid scenarios share
//! each code path below. Three levels of service:
//!
//! * [`Run::snapshot`] / [`Experiment::resume`] — capture or restore a
//!   single point in a run ([`Experiment::snapshot_now`] and
//!   [`Experiment::resume_from_snapshot`] are their exact-engine arms).
//! * [`Experiment::run_with_checkpoints`] /
//!   [`Experiment::resume_with_checkpoints`] — drive a run to completion
//!   writing a snapshot file every `every` of *virtual* time, and pick a
//!   run back up from the newest readable checkpoint in a directory
//!   (silently falling back past corrupt or foreign files).
//! * [`Campaign::run_resumable`] — a multi-seed sweep where every trial
//!   checkpoints into its own subdirectory, so an interrupted sweep
//!   restarts from the last completed (trial, checkpoint) pair instead of
//!   from zero.
//!
//! ```no_run
//! use std::path::Path;
//! use std::time::Duration;
//! use cavenet_core::net::NoopObserver;
//! use cavenet_core::{Campaign, CheckpointPlan, Experiment, Protocol, Scenario};
//!
//! let plan = CheckpointPlan { every: Duration::from_secs(60), dir: "ckpts/aodv".into() };
//!
//! // Single run: save a snapshot every 60 simulated seconds.
//! let exp = Experiment::new(Scenario::paper_table1(Protocol::Aodv));
//! let (result, _run) = exp.run_with_checkpoints(NoopObserver, &plan)?;
//!
//! // After an interruption: resumes from the newest readable checkpoint,
//! // skipping corrupt or truncated files, or runs cold if none parse.
//! let (resumed, _run, lineage) = exp.resume_with_checkpoints(NoopObserver, &plan)?;
//! assert!(lineage.is_cold() || lineage.resume_step > 0);
//! assert_eq!(resumed.total_received(), result.total_received());
//!
//! // Multi-seed sweep: each trial checkpoints into ckpts/dymo/trial_NNNN/;
//! // re-running the same call resumes every trial from its last completed
//! // checkpoint (completed trials replay in O(restore) work).
//! let sweep = Campaign { base: Scenario::paper_table1(Protocol::Dymo), trials: 32, master_seed: 7 };
//! let outcomes = sweep.run_resumable(Path::new("ckpts/dymo"), Duration::from_secs(60))?;
//! assert_eq!(outcomes.len(), 32);
//! # Ok::<(), cavenet_core::CheckpointError>(())
//! ```
//!
//! Resumption is **bit-identical**: a run driven `0 → T` and a run driven
//! `0 → k`, snapshotted, restored in a fresh process and driven `k → T`
//! produce byte-equal event streams (proven by golden digests in the
//! conformance suite). The [`Lineage`] of a resumed run — the container
//! hash of the snapshot it woke from and the engine step it resumed at —
//! is what telemetry stamps into a `RunManifest`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use cavenet_checkpoint::{
    capture_simulator, restore_simulator, section, store, Snapshot, SnapshotError, SnapshotMeta,
};
use cavenet_fluid::FluidEngine;
use cavenet_net::{NoopObserver, SimObserver, Simulator, WireWriter};
use cavenet_rng::fnv::fnv64;
use cavenet_stats::Ensemble;
use cavenet_traffic::SharedRecorder;

use crate::{Experiment, ExperimentResult, Run, Scenario, ScenarioError};

/// Why a checkpointed run could not start, save or resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// The scenario itself is invalid.
    Scenario(ScenarioError),
    /// A snapshot failed to encode, decode or apply.
    Snapshot(SnapshotError),
    /// A checkpoint file or directory could not be read or written.
    Io(std::io::Error),
    /// The checkpoint plan's interval is zero — it would snapshot forever
    /// without advancing virtual time.
    ZeroInterval,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Scenario(e) => write!(f, "scenario error: {e}"),
            CheckpointError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::ZeroInterval => {
                write!(f, "checkpoint interval must be non-zero")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Scenario(e) => Some(e),
            CheckpointError::Snapshot(e) => Some(e),
            CheckpointError::Io(e) => Some(e),
            CheckpointError::ZeroInterval => None,
        }
    }
}

impl From<ScenarioError> for CheckpointError {
    fn from(e: ScenarioError) -> Self {
        CheckpointError::Scenario(e)
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        CheckpointError::Snapshot(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Where a resumed run came from. Stamped into run manifests
/// (`parent_snapshot_hash` / `resume_step`); all-zero for a cold run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lineage {
    /// Container hash of the snapshot the run resumed from (0 = cold).
    pub parent_snapshot_hash: u64,
    /// Engine step (events dispatched) at which the resume started.
    pub resume_step: u64,
}

impl Lineage {
    /// `true` when the run started from scratch rather than a snapshot.
    pub fn is_cold(&self) -> bool {
        self.parent_snapshot_hash == 0
    }
}

/// Where and how often to write checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPlan {
    /// Virtual-time interval between snapshots (also the resume
    /// granularity). Must be non-zero.
    pub every: Duration,
    /// Directory for `ckpt_<time_ns>.bin` files (created on demand).
    pub dir: PathBuf,
}

/// The snapshot identity of a scenario: scenario hash (over its
/// `Debug` rendering, the same idiom run manifests use), fault-plan hash
/// (over [`FaultPlan::render`](cavenet_net::FaultPlan::render), 0 when
/// unfaulted), seed and node count.
///
/// The hash covers every field of the scenario. In particular the exact
/// and fluid fidelities of one scenario have distinct identities, and a
/// snapshot taken under one refuses to resume under the other.
pub fn scenario_identity(s: &Scenario) -> SnapshotMeta {
    let fault_plan_hash = if s.fault_plan.is_empty() {
        0
    } else {
        fnv64(s.fault_plan.render().as_bytes())
    };
    SnapshotMeta {
        scenario_hash: fnv64(format!("{s:?}").as_bytes()),
        fault_plan_hash,
        seed: s.seed,
        nodes: s.nodes as u64,
        time_ns: 0,
        step: 0,
    }
}

/// Fingerprint of everything that shapes the (regenerated, never
/// serialized) mobility trace.
fn mobility_fingerprint(s: &Scenario) -> u64 {
    fnv64(
        format!(
            "{:?}|{:?}|{}|{}|{}",
            s.mobility, s.mobility_quantum, s.circuit_m, s.nodes, s.seed
        )
        .as_bytes(),
    )
}

impl Experiment {
    /// Snapshot a mid-flight exact run: the simulator's six sections plus
    /// the traffic ledger and the mobility fingerprint. This is the exact
    /// arm of [`Run::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when any section fails to serialize.
    pub fn snapshot_now<O: SimObserver>(
        &self,
        sim: &Simulator<O>,
        recorder: &SharedRecorder,
    ) -> Result<Snapshot, SnapshotError> {
        let mut snap = capture_simulator(sim, scenario_identity(self.scenario()))?;
        let mut w = WireWriter::new();
        recorder.borrow().capture(&mut w);
        snap.insert(section::TRAFFIC, w.into_bytes())?;
        insert_mobility(&mut snap, self.scenario())?;
        Ok(snap)
    }

    /// Refuse `snap` unless it was taken over this scenario's mobility.
    fn check_mobility(&self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let mut r = snap.reader(section::MOBILITY)?;
        let found = r
            .get_u64()
            .and_then(|v| r.finish().map(|()| v))
            .map_err(SnapshotError::wire(section::MOBILITY))?;
        let expected = mobility_fingerprint(self.scenario());
        if found != expected {
            return Err(SnapshotError::MetaMismatch {
                what: "mobility_fingerprint",
                found,
                expected,
            });
        }
        Ok(())
    }

    /// Apply `snap`'s engine sections and traffic ledger to a freshly
    /// built simulator/recorder pair.
    fn restore_exact<O: SimObserver>(
        &self,
        sim: &mut Simulator<O>,
        recorder: &SharedRecorder,
        snap: &Snapshot,
    ) -> Result<SnapshotMeta, SnapshotError> {
        let meta = restore_simulator(sim, snap, &scenario_identity(self.scenario()))?;
        let mut r = snap.reader(section::TRAFFIC)?;
        recorder
            .borrow_mut()
            .restore(&mut r)
            .and_then(|()| r.finish())
            .map_err(SnapshotError::wire(section::TRAFFIC))?;
        Ok(meta)
    }

    /// Apply `snap`'s META check and FLUID section to a freshly built
    /// fluid engine.
    fn restore_fluid(
        &self,
        engine: &mut FluidEngine,
        snap: &Snapshot,
    ) -> Result<SnapshotMeta, SnapshotError> {
        let meta = snap.meta()?;
        meta.check_same_run(&scenario_identity(self.scenario()))?;
        let mut r = snap.reader(section::FLUID)?;
        engine
            .restore(&mut r)
            .and_then(|()| r.finish())
            .map_err(SnapshotError::wire(section::FLUID))?;
        Ok(meta)
    }

    /// Build a fresh simulator for this exact scenario and restore `snap`
    /// into it, returning the simulator ready to continue from the
    /// snapshot's capture point, its traffic recorder, and the snapshot
    /// metadata. This is the exact arm of [`resume`](Self::resume).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Scenario`] when the scenario cannot build (or is
    /// not an exact scenario); [`CheckpointError::Snapshot`] when the
    /// snapshot is malformed or belongs to a different run.
    pub fn resume_from_snapshot<O: SimObserver>(
        &self,
        observer: O,
        snap: &Snapshot,
    ) -> Result<(Simulator<O>, SharedRecorder, SnapshotMeta), CheckpointError> {
        let (mut sim, recorder) = self.build_sim(observer)?;
        self.check_mobility(snap)?;
        let meta = self.restore_exact(&mut sim, &recorder, snap)?;
        Ok((sim, recorder, meta))
    }

    /// Build a fresh [`Run`] for this scenario and restore `snap` into it,
    /// returning the run ready to continue from the snapshot's capture
    /// point and the snapshot metadata. A snapshot taken under the other
    /// fidelity is refused: its META hash differs (fidelity is part of the
    /// identity) and it lacks this backend's sections.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Scenario`] when the scenario cannot build;
    /// [`CheckpointError::Snapshot`] when the snapshot is malformed or
    /// belongs to a different run.
    pub fn resume<O: SimObserver>(
        &self,
        observer: O,
        snap: &Snapshot,
    ) -> Result<(Run<O>, SnapshotMeta), CheckpointError> {
        let mut run = self.start(observer)?;
        self.check_mobility(snap)?;
        let meta = match &mut run {
            Run::Exact { sim, recorder } => self.restore_exact(sim, recorder, snap)?,
            Run::Fluid(engine) => self.restore_fluid(engine, snap)?,
        };
        Ok((run, meta))
    }

    /// Resume from the newest readable checkpoint in `dir` — falling back,
    /// snapshot by snapshot, past corrupt, truncated or foreign files — or
    /// start cold when none applies. Returns the run and the [`Lineage`]
    /// actually used ([`Lineage::is_cold`] tells whether any checkpoint
    /// was usable).
    ///
    /// The observer must be `Clone` because a restore that fails mid-way
    /// may have half-applied state: every attempt (and the cold start)
    /// begins from a pristine run built around a fresh clone of
    /// `observer`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when `dir` cannot be listed;
    /// [`CheckpointError::Scenario`] when the scenario cannot build. A
    /// corrupt checkpoint *file* is not an error — it is skipped.
    pub fn resume_latest<O: SimObserver + Clone>(
        &self,
        observer: O,
        dir: &Path,
    ) -> Result<(Run<O>, Lineage), CheckpointError> {
        for path in store::list_newest_first(dir)? {
            let Ok(bytes) = fs::read(&path) else { continue };
            let Ok(snap) = Snapshot::from_bytes(&bytes) else {
                continue;
            };
            if let Ok((run, meta)) = self.resume(observer.clone(), &snap) {
                let lineage = Lineage {
                    parent_snapshot_hash: snap.container_hash(),
                    resume_step: meta.step,
                };
                return Ok((run, lineage));
            }
        }
        Ok((self.start(observer)?, Lineage::default()))
    }

    /// Drive `run` from its current clock to the scenario end, writing a
    /// snapshot file after every `plan.every` of virtual time and at the
    /// end. Fluid time moves in whole model steps, so when `every` is not
    /// a multiple of the step a fluid snapshot lands on the first step
    /// boundary past each target.
    fn checkpoint_loop<O: SimObserver>(
        &self,
        run: &mut Run<O>,
        plan: &CheckpointPlan,
    ) -> Result<(), CheckpointError> {
        let every = plan.every.as_nanos().min(u128::from(u64::MAX)) as u64;
        if every == 0 {
            return Err(CheckpointError::ZeroInterval);
        }
        let end = run.end_ns(self);
        let mut now = run.now_ns();
        while now < end {
            let target = now.saturating_add(every - now % every).min(end);
            run.advance_until_ns(target);
            now = run.now_ns();
            let snap = run.snapshot(self)?;
            store::write_snapshot(&plan.dir, now, &snap)?;
        }
        Ok(())
    }

    /// Run the scenario to completion, checkpointing periodically into
    /// `plan.dir` (created if needed). The final state is also
    /// checkpointed, so a completed run resumes in O(restore) work.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure,
    /// or [`CheckpointError::ZeroInterval`] when `plan.every` is zero.
    pub fn run_with_checkpoints<O: SimObserver>(
        &self,
        observer: O,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, Run<O>), CheckpointError> {
        fs::create_dir_all(&plan.dir)?;
        let mut run = self.start(observer)?;
        self.checkpoint_loop(&mut run, plan)?;
        Ok((run.collect(self), run))
    }

    /// Resume the scenario from the newest readable checkpoint in
    /// `plan.dir` (see [`resume_latest`](Self::resume_latest)), or start
    /// cold when none works, then continue to completion, still
    /// checkpointing periodically.
    ///
    /// Returns the experiment result, the finished run and the
    /// [`Lineage`] actually used.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on scenario, snapshot or filesystem failure
    /// (a corrupt checkpoint *file* is not an error — it is skipped), or
    /// [`CheckpointError::ZeroInterval`] when `plan.every` is zero.
    pub fn resume_with_checkpoints<O: SimObserver + Clone>(
        &self,
        observer: O,
        plan: &CheckpointPlan,
    ) -> Result<(ExperimentResult, Run<O>, Lineage), CheckpointError> {
        fs::create_dir_all(&plan.dir)?;
        let (mut run, lineage) = self.resume_latest(observer, &plan.dir)?;
        self.checkpoint_loop(&mut run, plan)?;
        Ok((run.collect(self), run, lineage))
    }
}

/// Record the fingerprint of `s`'s mobility configuration in `snap`.
fn insert_mobility(snap: &mut Snapshot, s: &Scenario) -> Result<(), SnapshotError> {
    let mut w = WireWriter::new();
    w.put_u64(mobility_fingerprint(s));
    snap.insert(section::MOBILITY, w.into_bytes())
}

impl<O: SimObserver> Run<O> {
    /// Snapshot the run at its current point: for the exact engine see
    /// [`Experiment::snapshot_now`]; for the fluid engine, META (scenario
    /// identity, which includes the fidelity), the engine's FLUID section
    /// and the mobility fingerprint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when a section fails to serialize.
    pub fn snapshot(&self, exp: &Experiment) -> Result<Snapshot, SnapshotError> {
        let engine = match self {
            Run::Exact { sim, recorder } => return exp.snapshot_now(sim, recorder),
            Run::Fluid(engine) => engine,
        };
        let mut identity = scenario_identity(exp.scenario());
        identity.time_ns = engine.now_ns();
        identity.step = engine.steps_done();
        let mut snap = Snapshot::new();
        let mut w = WireWriter::new();
        identity.encode(&mut w);
        snap.insert(section::META, w.into_bytes())?;
        let mut w = WireWriter::new();
        engine.capture(&mut w);
        snap.insert(section::FLUID, w.into_bytes())?;
        insert_mobility(&mut snap, exp.scenario())?;
        Ok(snap)
    }
}

/// A resumable multi-seed sweep: `trials` repetitions of `base` with
/// seeds derived from `master_seed` exactly like
/// [`Ensemble`](cavenet_stats::Ensemble) derives them.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The scenario every trial runs (its `seed` field is overridden).
    pub base: Scenario,
    /// Number of seeded repetitions.
    pub trials: usize,
    /// Master seed the per-trial seeds derive from.
    pub master_seed: u64,
}

impl Campaign {
    /// The scenario of trial `i` (0-based): `base` with the derived seed.
    pub fn trial_scenario(&self, i: usize) -> Scenario {
        let mut s = self.base.clone();
        s.seed = Ensemble::new(self.trials.max(1), self.master_seed).trial_seed(i);
        s
    }

    /// Run (or resume) every trial, checkpointing each into
    /// `dir/trial_<i>/` every `every` of virtual time. Trials that
    /// already completed in a previous invocation resume from their final
    /// checkpoint and finish in O(restore) work, so an interrupted sweep
    /// restarts from the last completed (trial, checkpoint) pair.
    ///
    /// Returns one `(result, lineage)` per trial, in trial order.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] from the first failing trial.
    pub fn run_resumable(
        &self,
        dir: &Path,
        every: Duration,
    ) -> Result<Vec<(ExperimentResult, Lineage)>, CheckpointError> {
        (0..self.trials.max(1))
            .map(|i| {
                let plan = CheckpointPlan {
                    every,
                    dir: dir.join(format!("trial_{i:04}")),
                };
                Experiment::new(self.trial_scenario(i))
                    .resume_with_checkpoints(NoopObserver, &plan)
                    .map(|(result, _run, lineage)| (result, lineage))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Protocol;
    use cavenet_net::{Fidelity, GlobalStats};

    const FIDELITIES: [Fidelity; 2] = [Fidelity::Exact, Fidelity::Fluid];

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cavenet_ckpt_{}_{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_scenario(seed: u64) -> Scenario {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.sim_time = Duration::from_secs(12);
        s.traffic.cbr.start = Duration::from_secs(2);
        s.traffic.cbr.stop = Duration::from_secs(10);
        s.traffic.senders = vec![1, 2];
        s.seed = seed;
        s
    }

    fn tiny_experiment(seed: u64, fidelity: Fidelity) -> Experiment {
        let mut s = tiny_scenario(seed);
        s.fidelity = fidelity;
        Experiment::new(s)
    }

    /// The uninterrupted run of `exp`: [`Experiment::run`]'s result plus
    /// the finished run.
    fn straight(exp: &Experiment) -> (ExperimentResult, Run<NoopObserver>) {
        let mut run = exp.start(NoopObserver).unwrap();
        run.advance_until_ns(run.end_ns(exp));
        (run.collect(exp), run)
    }

    /// What two runs of one scenario must agree on: the engine counters,
    /// the deliveries and, under the fluid backend, the engine's step
    /// digest.
    fn outcome(
        result: &ExperimentResult,
        run: &Run<NoopObserver>,
    ) -> (GlobalStats, u64, Option<u64>) {
        let digest = match run {
            Run::Exact { .. } => None,
            Run::Fluid(engine) => Some(engine.digest()),
        };
        (result.global, result.total_received(), digest)
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        for fidelity in FIDELITIES {
            let dir = scratch_dir(&format!("plain_{}", fidelity.name()));
            let exp = tiny_experiment(3, fidelity);
            let (plain, plain_run) = straight(&exp);
            let plan = CheckpointPlan {
                every: Duration::from_secs(4),
                dir: dir.clone(),
            };
            let (ckpt, run) = exp.run_with_checkpoints(NoopObserver, &plan).unwrap();
            assert_eq!(
                outcome(&ckpt, &run),
                outcome(&plain, &plain_run),
                "{fidelity:?}"
            );
            // Snapshots at 4 s, 8 s, 12 s.
            assert_eq!(store::list_newest_first(&dir).unwrap().len(), 3);

            // And a resume from those checkpoints reproduces the same run.
            let (resumed, run, lineage) = exp.resume_with_checkpoints(NoopObserver, &plan).unwrap();
            assert!(!lineage.is_cold(), "{fidelity:?}");
            assert_eq!(
                outcome(&resumed, &run),
                outcome(&plain, &plain_run),
                "{fidelity:?}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_falls_back_past_corrupt_checkpoints() {
        for fidelity in FIDELITIES {
            let dir = scratch_dir(&format!("corrupt_{}", fidelity.name()));
            let exp = tiny_experiment(5, fidelity);
            let (plain, plain_run) = straight(&exp);
            let plan = CheckpointPlan {
                every: Duration::from_secs(4),
                dir: dir.clone(),
            };
            exp.run_with_checkpoints(NoopObserver, &plan).unwrap();
            // Vandalize the two newest checkpoints differently: one
            // truncated, one bit-flipped.
            let files = store::list_newest_first(&dir).unwrap();
            let newest = fs::read(&files[0]).unwrap();
            fs::write(&files[0], &newest[..newest.len() / 2]).unwrap();
            let mut second = fs::read(&files[1]).unwrap();
            let mid = second.len() / 2;
            second[mid] ^= 0xFF;
            fs::write(&files[1], &second).unwrap();

            let (result, run, lineage) = exp.resume_with_checkpoints(NoopObserver, &plan).unwrap();
            assert!(
                !lineage.is_cold(),
                "{fidelity:?}: oldest checkpoint must still restore"
            );
            assert_eq!(
                outcome(&result, &run),
                outcome(&plain, &plain_run),
                "{fidelity:?}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn resume_with_empty_dir_runs_cold() {
        let dir = scratch_dir("cold");
        let exp = Experiment::new(tiny_scenario(7));
        let plain = exp.run().unwrap();
        let plan = CheckpointPlan {
            every: Duration::from_secs(6),
            dir: dir.clone(),
        };
        let (result, _run, lineage) = exp.resume_with_checkpoints(NoopObserver, &plan).unwrap();
        assert!(lineage.is_cold());
        assert_eq!(result.global, plain.global);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_snapshot_is_rejected_not_applied() {
        let exp_a = Experiment::new(tiny_scenario(1));
        let exp_b = Experiment::new(tiny_scenario(2));
        let (sim, rec) = exp_a.build_sim(NoopObserver).unwrap();
        let snap = exp_a.snapshot_now(&sim, &rec).unwrap();
        let err = exp_b.resume_from_snapshot(NoopObserver, &snap).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn fluid_snapshot_refuses_the_exact_fidelity_and_vice_versa() {
        let fluid_exp = tiny_experiment(9, Fidelity::Fluid);
        let exact_exp = tiny_experiment(9, Fidelity::Exact);
        let snapshot_of =
            |exp: &Experiment| exp.start(NoopObserver).unwrap().snapshot(exp).unwrap();
        let fluid_snap = snapshot_of(&fluid_exp);
        let exact_snap = snapshot_of(&exact_exp);

        // The same scenario under the exact fidelity must reject the fluid
        // snapshot, and a fluid engine must not restore the exact one.
        for (exp, snap) in [(&exact_exp, &fluid_snap), (&fluid_exp, &exact_snap)] {
            let err = exp.resume(NoopObserver, snap).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Snapshot(SnapshotError::MetaMismatch { .. })
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn campaign_resumes_from_completed_trials() {
        for fidelity in FIDELITIES {
            let dir = scratch_dir(&format!("campaign_{}", fidelity.name()));
            let mut base = tiny_scenario(0);
            base.fidelity = fidelity;
            base.sim_time = Duration::from_secs(8);
            base.traffic.cbr.stop = Duration::from_secs(6);
            let campaign = Campaign {
                base,
                trials: 3,
                master_seed: 42,
            };
            let first = campaign
                .run_resumable(&dir, Duration::from_secs(4))
                .unwrap();
            assert_eq!(first.len(), 3);
            assert!(first.iter().all(|(_, l)| l.is_cold()));
            // Seeds must differ across trials.
            assert_ne!(
                campaign.trial_scenario(0).seed,
                campaign.trial_scenario(1).seed
            );

            let second = campaign
                .run_resumable(&dir, Duration::from_secs(4))
                .unwrap();
            for ((a, _), (b, lineage)) in first.iter().zip(&second) {
                assert!(!lineage.is_cold(), "{fidelity:?}: second pass must resume");
                assert_eq!(a.global, b.global, "{fidelity:?}");
                assert_eq!(a.total_received(), b.total_received(), "{fidelity:?}");
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
