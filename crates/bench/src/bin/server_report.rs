//! Supervised-campaign economics: fault-tolerant execution of a chaos
//! campaign (injected panics, wall-clock stalls, one poison trial) under
//! the `cavenet-server` supervisor, emitted as `benchmarks/BENCH_server.json`.
//!
//! The run submits a batch of Table 1 trials to a [`CampaignServer`] whose
//! [`ChaosPlan`] sabotages three of them: a transient panic (recovers on
//! retry from checkpoint), a wall-clock stall (watchdog cancels, retry
//! recovers) and a poison trial that panics on every attempt until it is
//! quarantined. Every surviving trial's golden digest is checked against
//! an unsupervised straight run of the same scenario — supervision must
//! be bit-invisible. The report records recovery counts, attempt totals,
//! warm (checkpoint) resumes, the wall-clock overhead of supervision
//! against the straight-run baseline, and the supervisor's live
//! [`ServerMetrics`](cavenet_server::ServerMetrics) counters — which the
//! health gate cross-checks against the ledger-derived view (retries,
//! stalls, quarantines and backoff waits must agree).
//!
//! Usage: `server_report [--quick] [--check]` (`--quick` shrinks the
//! scenario for a CI smoke; `--check` exits non-zero unless the campaign
//! recovered everything but the poison trial with bit-identical digests).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::net::SimTime;
use cavenet_core::{Protocol, Scenario};
use cavenet_server::{
    BackoffPolicy, CampaignServer, ChaosEntry, ChaosKind, ChaosPlan, ServerConfig, TrialOutcome,
};
use cavenet_telemetry::{Counter, HistogramId, Json};
use cavenet_testkit::digest_scenario;

const CAMPAIGN_SEED: u64 = 0xCA7_5E12;
const BASE_TRIAL_SEED: u64 = 9100;

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

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let trials: u64 = if quick { 5 } else { 8 };
    let seeds: Vec<u64> = (0..trials).map(|i| BASE_TRIAL_SEED + i).collect();
    let panic_seed = seeds[0];
    let stall_seed = seeds[1];
    let poison_seed = seeds[2];
    let inject_at = SimTime::from_secs(if quick { 6 } else { 14 });

    println!("# server_report — supervised chaos campaign over {trials} Table 1 trials\n");

    // Unsupervised straight runs: the digest oracle and wall baseline.
    let t0 = Instant::now();
    let mut straight = BTreeMap::new();
    for &seed in &seeds {
        if seed == poison_seed {
            continue; // poison never completes; no oracle needed
        }
        straight.insert(seed, digest_scenario(&campaign_scenario(seed, quick)));
    }
    let straight_wall = t0.elapsed();
    println!(
        "straight runs     : {} trials, {:.2} s wall",
        straight.len(),
        straight_wall.as_secs_f64()
    );

    // The supervised campaign, with sabotage.
    let root = std::env::temp_dir().join(format!("cavenet_server_report_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut config = ServerConfig::new(&root);
    config.seed = CAMPAIGN_SEED;
    config.checkpoint_every = Duration::from_secs(4);
    config.stall_timeout = Duration::from_millis(200);
    config.poll = Duration::from_millis(5);
    config.backoff = BackoffPolicy {
        base: Duration::from_millis(2),
        cap: Duration::from_millis(20),
        jitter: 0.5,
    };
    config.chaos = ChaosPlan {
        entries: vec![
            ChaosEntry {
                seed: panic_seed,
                at: inject_at,
                kind: ChaosKind::Panic,
                attempts: 1,
            },
            ChaosEntry {
                seed: stall_seed,
                at: inject_at,
                kind: ChaosKind::Stall {
                    max_wall: Duration::from_secs(30),
                },
                attempts: 1,
            },
            ChaosEntry {
                seed: poison_seed,
                at: SimTime::from_secs(3),
                kind: ChaosKind::Panic,
                attempts: u64::MAX,
            },
        ],
    };

    let t1 = Instant::now();
    let server = CampaignServer::start(config).expect("server starts");
    for &seed in &seeds {
        server
            .submit(campaign_scenario(seed, quick))
            .expect("campaign fits the admission budget");
    }
    let campaign = server.finish().expect("ledger writes");
    let supervised_wall = t1.elapsed();
    println!(
        "supervised run    : {:.2} s wall, {} completed / {} quarantined",
        supervised_wall.as_secs_f64(),
        campaign.completed(),
        campaign.quarantined()
    );

    // Audit: only the poison trial quarantines; every survivor matches
    // its unsupervised digest bit-for-bit.
    let mut digest_matches = 0u64;
    let mut warm_resumes = 0u64;
    let mut total_attempts = 0u64;
    let mut retried = 0u64;
    let mut mismatches = Vec::new();
    for trial in &campaign.trials {
        total_attempts += trial.attempt_count();
        if trial.attempt_count() > 1 {
            retried += 1;
        }
        match &trial.outcome {
            TrialOutcome::Completed {
                digest,
                events,
                lineage,
                ..
            } => {
                if !lineage.is_cold() {
                    warm_resumes += 1;
                }
                let oracle = &straight[&trial.key.seed];
                if (*digest, *events) == (oracle.digest, oracle.events) {
                    digest_matches += 1;
                } else {
                    mismatches.push(trial.key.seed);
                }
            }
            TrialOutcome::Quarantined => {
                if trial.key.seed != poison_seed {
                    mismatches.push(trial.key.seed);
                }
            }
            other => {
                println!("unexpected outcome for seed {}: {other:?}", trial.key.seed);
                mismatches.push(trial.key.seed);
            }
        }
    }
    // The supervisor's own counters must agree with the ledger-derived
    // view: every submission, completion, quarantine and retry it counted
    // live is re-derivable from the trial reports after the fact.
    let m = &campaign.metrics;
    let stalls = m.counter(Counter::WatchdogStalls);
    let lost = m.counter(Counter::TrialsLost);
    let metrics_consistent = m.counter(Counter::TrialsSubmitted) == trials
        && m.counter(Counter::TrialsCompleted) == campaign.completed() as u64
        && m.counter(Counter::TrialsQuarantined) == campaign.quarantined() as u64
        && m.counter(Counter::TrialRetries) == total_attempts - trials
        && m.counter(Counter::AdmissionSheds) == 0
        && m.histogram(HistogramId::BackoffDelayNs).count() == m.counter(Counter::TrialRetries)
        && stalls + lost >= 1;

    let healthy = mismatches.is_empty()
        && campaign.quarantined() == 1
        && digest_matches == trials - 1
        && warm_resumes >= 1
        && metrics_consistent;
    println!(
        "audit             : {digest_matches}/{} digests bit-identical, {retried} retried, \
         {warm_resumes} warm resumes, {} quarantined",
        trials - 1,
        campaign.quarantined()
    );
    println!(
        "supervision       : {} retries, {stalls} stalls, {lost} lost, {} quarantined, \
         counters {}",
        m.counter(Counter::TrialRetries),
        m.counter(Counter::TrialsQuarantined),
        if metrics_consistent {
            "match ledger"
        } else {
            "DISAGREE with ledger"
        }
    );

    let per_trial = Json::Arr(
        campaign
            .trials
            .iter()
            .map(|t| {
                obj(vec![
                    ("seed", Json::num_u64(t.key.seed)),
                    ("attempts", Json::num_u64(t.attempt_count())),
                    (
                        "outcome",
                        Json::str(match t.outcome {
                            TrialOutcome::Completed { .. } => "completed",
                            TrialOutcome::Quarantined => "quarantined",
                            TrialOutcome::Interrupted => "interrupted",
                            TrialOutcome::Pending => "pending",
                        }),
                    ),
                ])
            })
            .collect(),
    );
    let payload = obj(vec![
        ("quick", Json::Bool(quick)),
        ("trials", Json::num_u64(trials)),
        ("completed", Json::num_u64(campaign.completed() as u64)),
        ("quarantined", Json::num_u64(campaign.quarantined() as u64)),
        ("retried", Json::num_u64(retried)),
        ("warm_resumes", Json::num_u64(warm_resumes)),
        ("total_attempts", Json::num_u64(total_attempts)),
        ("digest_matches", Json::num_u64(digest_matches)),
        ("straight_wall_s", num(straight_wall.as_secs_f64())),
        ("supervised_wall_s", num(supervised_wall.as_secs_f64())),
        (
            "supervision_overhead",
            num(supervised_wall.as_secs_f64() / straight_wall.as_secs_f64().max(1e-9)),
        ),
        ("per_trial", per_trial),
        (
            "supervision",
            obj(vec![
                (
                    "trials_submitted",
                    Json::num_u64(m.counter(Counter::TrialsSubmitted)),
                ),
                (
                    "trials_completed",
                    Json::num_u64(m.counter(Counter::TrialsCompleted)),
                ),
                (
                    "trial_retries",
                    Json::num_u64(m.counter(Counter::TrialRetries)),
                ),
                ("watchdog_stalls", Json::num_u64(stalls)),
                ("trials_lost", Json::num_u64(lost)),
                (
                    "trials_quarantined",
                    Json::num_u64(m.counter(Counter::TrialsQuarantined)),
                ),
                (
                    "admission_sheds",
                    Json::num_u64(m.counter(Counter::AdmissionSheds)),
                ),
                (
                    "backoff_waits",
                    Json::num_u64(m.histogram(HistogramId::BackoffDelayNs).count()),
                ),
                ("metrics_consistent", Json::Bool(metrics_consistent)),
            ]),
        ),
        ("healthy", Json::Bool(healthy)),
    ]);

    let mut manifest = campaign
        .trials
        .iter()
        .find(|t| t.key.seed == panic_seed)
        .expect("sabotaged trial reported")
        .manifest("server_report");
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    manifest.add_timing("straight_runs", straight_wall.as_secs_f64());
    manifest.add_timing("supervised_campaign", supervised_wall.as_secs_f64());

    report::write_report(
        &report::artifact_path("benchmarks/BENCH_server.json"),
        &manifest,
        vec![("server".into(), payload)],
    );
    let _ = std::fs::remove_dir_all(&root);

    if check {
        assert!(
            healthy,
            "chaos campaign unhealthy: mismatched or misquarantined seeds {mismatches:?}"
        );
        println!("\ncheck             : ok (recovered everything but the poison trial)");
    }
}
