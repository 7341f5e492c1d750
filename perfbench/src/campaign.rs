//! `paper_campaign`: the paper's own study as users run it — Table-1
//! trials for AODV, OLSR and DYMO over several seeds, submitted to a
//! supervised `CampaignServer` that checkpoints every trial.

use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cavenet_checkpoint::{store, Snapshot};
use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_net::{NoopObserver, SimTime};
use cavenet_server::{CampaignServer, ServerConfig, TrialOutcome};
use cavenet_stats::par_map;
use cavenet_testkit::{GoldenDigest, Tee};

use crate::exact::{finish_golden, result_ok, run_sliced, time_ca, BenchObserver};
use crate::layers::{ratio, ExactWork, Layers};
use crate::measure::{median, process_cpu_s};
use crate::observer::{LayerObserver, Span, Spans};
use crate::{derive_seed, fold_digests, Rep, Traced};

/// Seeds per protocol: 3 × 6 = 18 trials.
const SEEDS: u64 = 6;
/// Threads for the straight replay, matching the server's default pool.
const WORKERS: usize = 2;
/// The replay runs each trial in slices as long as the server's default
/// checkpoint interval, so both see the same `run_until` calls.
const SLICE: Duration = Duration::from_secs(4);
/// The checkpoint probe stops its trial here (half of Table 1's 100 s).
const PROBE_AT: Duration = Duration::from_secs(50);

/// Trials in submission order: for each derived seed, AODV, OLSR, DYMO.
pub fn trials(seed: u64) -> Vec<Scenario> {
    (0..SEEDS)
        .flat_map(|k| {
            Protocol::PAPER_SET.map(|p| {
                let mut s = Scenario::paper_table1(p);
                s.seed = derive_seed(seed, k);
                s
            })
        })
        .collect()
}

/// What a supervised campaign left behind besides its timing.
#[derive(Debug, Default)]
struct CampaignStats {
    digests: Vec<u64>,
    snapshots: u64,
    snapshot_bytes: u64,
    attempts: u64,
}

/// Snapshot files under `dir` and their total size.
fn snapshot_usage(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            let (f, b) = snapshot_usage(&path);
            files += f;
            bytes += b;
        } else if store::capture_time(&path).is_some() {
            files += 1;
            bytes += entry.metadata().map_or(0, |m| m.len());
        }
    }
    (files, bytes)
}

/// One supervised campaign under `ServerConfig::new` defaults, rooted in
/// a fresh `root` that is deleted afterwards. Every trial must complete
/// without replay from an earlier ledger.
fn campaign(trials: &[Scenario], root: &Path) -> (Rep, CampaignStats) {
    let _ = std::fs::remove_dir_all(root);
    let cpu = process_cpu_s();
    let t0 = Instant::now();
    let config = ServerConfig::new(root);
    let server = CampaignServer::start(config);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rep = Rep {
        setup_s,
        attempted: trials.len() as u64,
        failed: trials.len() as u64,
        ..Rep::default()
    };
    let Ok(server) = server else {
        return (rep, CampaignStats::default());
    };
    let submitted: Vec<_> = trials.iter().map(|s| server.submit(s.clone())).collect();
    let report = server.finish();
    let mut stats = CampaignStats::default();
    if let Ok(report) = report {
        let mut digests = Vec::new();
        for id in submitted.iter().flatten() {
            let trial = report.trials.iter().find(|t| t.id == *id);
            if let Some(t) = trial {
                stats.attempts += t.attempt_count();
            }
            match trial.map(|t| &t.outcome) {
                Some(TrialOutcome::Completed {
                    digest,
                    events,
                    replayed: false,
                    ..
                }) if *events > 0 => digests.push(*digest),
                _ => digests.push(0),
            }
        }
        let completed = digests.iter().filter(|&&d| d != 0).count() as u64;
        let clean = report.replayed() == 0 && report.trials.len() == trials.len();
        rep.failed = if clean {
            trials.len() as u64 - completed
        } else {
            trials.len() as u64
        };
        rep.digest = fold_digests(&digests);
        stats.digests = digests;
    }
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = process_cpu_s() - cpu;
    (stats.snapshots, stats.snapshot_bytes) = snapshot_usage(root);
    let _ = std::fs::remove_dir_all(root);
    (rep, stats)
}

/// Empty campaigns per repetition that only time `CampaignServer::start`,
/// so that `setup_s` is a median of several starts.
const EXTRA_STARTS: usize = 24;

/// An untraced repetition: one supervised campaign.
pub fn untraced(seed: u64, root: &Path) -> Rep {
    let (mut rep, _) = campaign(&trials(seed), root);
    let mut samples = vec![rep.setup_s];
    for _ in 0..EXTRA_STARTS {
        let (empty, _) = campaign(&[], root);
        samples.push(empty.setup_s);
    }
    rep.setup_s = median(&samples);
    rep
}

/// One trial of the straight replay.
struct Straight {
    digest: Option<u64>,
    work: ExactWork,
    spans: Vec<Span>,
}

/// The same trials run straight through `par_map` on [`WORKERS`]
/// threads, with a golden digest and `L` observing each. Returns the
/// wall time and the per-trial outcomes in submission order.
fn straight<L: BenchObserver + Default>(
    trials: &[Scenario],
    epoch: Instant,
) -> (f64, Vec<Straight>) {
    let t0 = Instant::now();
    let workers = NonZeroUsize::new(WORKERS);
    let runs = par_map(trials, workers, |i, s| {
        let mut spans = Spans::new(epoch, i as u32);
        let exp = Experiment::new(s.clone());
        let observer = Tee(GoldenDigest::new(), L::default());
        let Ok(run) = run_sliced(&exp, observer, SLICE, &mut spans) else {
            return Straight {
                digest: None,
                work: ExactWork::default(),
                spans: spans.spans,
            };
        };
        let mut work = run.work;
        let ok = result_ok(&work.results[0]);
        let (digest, other) = finish_golden(run.sim);
        work.counts = other.into_counts();
        Straight {
            digest: ok.then_some(digest),
            work,
            spans: spans.spans,
        }
    });
    (t0.elapsed().as_secs_f64(), runs)
}

/// Save and restore a Table-1 OLSR trial stopped at [`PROBE_AT`]: returns
/// the snapshot's bytes, save and restore milliseconds, and the digest of
/// the resumed run finished to the end.
fn checkpoint_probe(s: &Scenario, spans: &mut Spans) -> Option<(u64, f64, f64, u64)> {
    let exp = Experiment::new(s.clone());
    let observer = Tee(GoldenDigest::new(), NoopObserver);
    let (mut sim, recorder) = exp.build_sim(observer).ok()?;
    sim.run_until(SimTime::from_nanos(PROBE_AT.as_nanos() as u64));
    let bytes = spans.time("checkpoint.save", || {
        exp.snapshot_now(&sim, &recorder)
            .ok()
            .map(|snap| snap.to_bytes())
    })?;
    let save_s = spans.spans.last().map_or(0.0, Span::secs);
    let resumed = spans.time("checkpoint.restore", || {
        let snap = Snapshot::from_bytes(&bytes).ok()?;
        exp.resume_from_snapshot(Tee(GoldenDigest::new(), NoopObserver), &snap)
            .ok()
    });
    let restore_s = spans.spans.last().map_or(0.0, Span::secs);
    let (mut sim, _recorder, _meta) = resumed?;
    sim.run_until(SimTime::from_nanos(s.sim_time.as_nanos() as u64));
    let (digest, _) = finish_golden(sim);
    Some((bytes.len() as u64, save_s * 1e3, restore_s * 1e3, digest))
}

/// A supervised campaign, the same trials straight without and with the
/// layer observer, and the checkpoint probe; the per-layer metrics come
/// from the traced straight replay and the probe.
pub fn traced(seed: u64, epoch: Instant, root: &Path) -> Traced {
    let trials = trials(seed);
    let (plain, stats) = campaign(&trials, root);
    let (bare_s, bare) = straight::<NoopObserver>(&trials, epoch);
    let cpu = process_cpu_s();
    let (traced_s, runs) = straight::<LayerObserver>(&trials, epoch);
    let traced_cpu = process_cpu_s() - cpu;

    let mut spans = Spans::new(epoch, u32::MAX);
    let mut work = ExactWork::default();
    let mut digests = Vec::new();
    let mut consistent = stats.digests.len() == trials.len();
    for (i, (run, bare)) in runs.into_iter().zip(&bare).enumerate() {
        let digest = run.digest.unwrap_or(0);
        consistent &= bare.digest == run.digest
            && stats.digests.get(i) == Some(&digest)
            && run.work.counts.events()
                == run
                    .work
                    .results
                    .first()
                    .map_or(0, |r| r.global.events_processed);
        digests.push(digest);
        spans.spans.extend(run.spans);
        work.add(run.work);
    }
    let failed = digests.iter().filter(|&&d| d == 0).count() as u64;
    let rep = Rep {
        wall_s: traced_s,
        setup_s: spans.total("core.build_sim"),
        cpu_s: traced_cpu,
        digest: fold_digests(&digests),
        attempted: trials.len() as u64,
        failed,
    };

    let mut layers = Layers::default();
    work.fill(&mut layers);
    let mut vehicle_steps = 0;
    let mut ca_s = 0.0;
    for s in &trials {
        consistent &= spans.time("core.build_trace", || s.build_trace()).is_ok();
        let (steps, secs) = time_ca(s, &mut spans);
        vehicle_steps += steps;
        ca_s += secs;
    }
    layers.set("core.build_trace_s", spans.total("core.build_trace"));
    layers.set("core.build_sim_s", spans.total("core.build_sim"));
    layers.set("core.collect_s", spans.total("core.collect"));
    layers.set("ca.vehicle_steps", vehicle_steps as f64);
    layers.set("ca.vehicle_steps_per_s", ratio(vehicle_steps as f64, ca_s));

    let olsr = trials
        .iter()
        .position(|s| s.protocol == Protocol::Olsr)
        .expect("every seed runs OLSR");
    match checkpoint_probe(&trials[olsr], &mut spans) {
        Some((bytes, save_ms, restore_ms, digest)) => {
            consistent &= stats.digests.get(olsr) == Some(&digest);
            layers.set("checkpoint.save_ms", save_ms);
            layers.set("checkpoint.restore_ms", restore_ms);
            layers.set("checkpoint.probe_bytes", bytes as f64);
        }
        None => consistent = false,
    }
    layers.set("checkpoint.snapshots", stats.snapshots as f64);
    layers.set("checkpoint.bytes", stats.snapshot_bytes as f64);
    layers.set("server.attempts", stats.attempts as f64);
    layers.set(
        "server.retries",
        stats.attempts.saturating_sub(trials.len() as u64) as f64,
    );
    layers.set("server.supervision_overhead", ratio(plain.wall_s, bare_s));
    layers.set("telemetry.trace_overhead", ratio(traced_s, bare_s));
    Traced::new(plain, rep, layers, spans, consistent)
}

/// A fresh checkpoint root for repetition `n` of this process.
pub fn root(out: &Path, n: usize) -> PathBuf {
    out.join(format!("ckpt-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()))
    }

    #[test]
    fn trials_cycle_the_paper_protocols_per_seed() {
        let t = trials(5);
        assert_eq!(t.len(), 18);
        for (i, s) in t.iter().enumerate() {
            assert_eq!(s.protocol, Protocol::PAPER_SET[i % 3]);
            assert_eq!(s.seed, t[i - i % 3].seed);
        }
        assert_ne!(t[0].seed, t[3].seed);
        assert_eq!(t[0].seed, trials(5)[0].seed);
    }

    #[test]
    fn a_supervised_trial_matches_its_straight_digest() {
        let mut s = Scenario::paper_table1(Protocol::Aodv);
        s.sim_time = Duration::from_secs(10);
        s.traffic.cbr.start = Duration::from_secs(1);
        let root = scratch_root("one");
        let (rep, stats) = campaign(std::slice::from_ref(&s), &root);
        assert_eq!((rep.attempted, rep.failed), (1, 0));
        assert_eq!(stats.attempts, 1);
        // A snapshot every 4 s of virtual time, plus the final one.
        assert_eq!(stats.snapshots, 3);
        assert!(stats.snapshot_bytes > 0);
        let want = cavenet_testkit::digest_scenario(&s).digest;
        assert_eq!(stats.digests, vec![want]);
        assert_eq!(rep.digest, fold_digests(&[want]));
        assert!(!root.exists(), "the checkpoint root is deleted");

        let (straight_s, runs) = straight::<NoopObserver>(&[s], Instant::now());
        assert!(straight_s > 0.0);
        assert_eq!(runs[0].digest, Some(want));
    }

    #[test]
    fn an_empty_campaign_only_starts_the_server() {
        let root = scratch_root("empty");
        let (rep, stats) = campaign(&[], &root);
        assert!(rep.setup_s > 0.0);
        assert_eq!((rep.attempted, rep.failed), (0, 0));
        assert!(stats.digests.is_empty());
        assert!(!root.exists());
    }
}
