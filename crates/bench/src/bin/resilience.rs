//! Resilience report: the Fig. 11 scenario under fault injection, per
//! protocol, emitted as `BENCH_resilience.json`.
//!
//! For each of the paper's three protocols (AODV, OLSR, DYMO) this runs
//! the Table 1 / Fig. 11 setup three times — unfaulted baseline, the
//! standard node-churn plan (three relay vehicles crash and recover
//! mid-run) and the standard burst-loss plan (network-wide 50 % frame loss
//! over a fifth of the run) — and reports PDR/goodput degradation plus the
//! time the routing layer needs to re-establish delivery after the first
//! crash. The churn run is re-executed under the conformance
//! [`InvariantChecker`] to prove the packet-conservation ledger stays
//! balanced when nodes crash holding frames.
//!
//! Usage: `resilience [--quick]` (`--quick` shrinks the run for CI smoke).

use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::{Experiment, Protocol, Resilience, ResilienceSummary, Scenario};
use cavenet_telemetry::{drop_reason_name, fnv64, Json, RunManifest};
use cavenet_testkit::InvariantChecker;

fn summary_json(s: &ResilienceSummary) -> Json {
    obj(vec![
        ("pdr", num(s.mean_pdr)),
        ("goodput_bps", num(s.goodput_bps)),
        ("delivered", Json::num_u64(s.delivered)),
        ("sent", Json::num_u64(s.sent)),
        ("control_packets", Json::num_u64(s.control_packets)),
        (
            "drops",
            Json::Obj(
                s.drops
                    .iter()
                    .map(|(reason, n)| (drop_reason_name(reason).to_string(), Json::num_u64(n)))
                    .collect(),
            ),
        ),
    ])
}

fn fig11_scenario(protocol: Protocol, quick: bool) -> Scenario {
    let mut s = Scenario::paper_table1(protocol);
    if quick {
        s.sim_time = Duration::from_secs(30);
        s.traffic.cbr.start = Duration::from_secs(5);
        s.traffic.cbr.stop = Duration::from_secs(25);
        s.traffic.senders = vec![1, 2, 3];
    }
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let protocols = [Protocol::Aodv, Protocol::Olsr, Protocol::Dymo];

    println!("# resilience — Fig. 11 scenario under node churn and burst loss\n");

    let t_start = Instant::now();
    let mut entries = Vec::new();
    for &protocol in &protocols {
        let resilience = Resilience::new(fig11_scenario(protocol, quick));
        let outcome = resilience.run().expect("scenario runs");

        // Rerun the churn scenario under the invariant checker: the packet
        // ledger must stay balanced even though crashed nodes held frames.
        let churn_scenario = resilience.churn_scenario();
        let (churn_result, sim) = Experiment::new(churn_scenario)
            .run_with_observer(InvariantChecker::new())
            .expect("churn scenario runs");
        let checker = sim.into_observer();
        checker.assert_clean();
        let ledger = checker.ledger();
        assert!(
            ledger.balanced(),
            "{protocol}: churn ledger unbalanced: {ledger:?}"
        );
        let (crashes, recoveries) = checker.faults();
        assert!(
            churn_result.mean_pdr() > 0.0,
            "{protocol}: churn must not silence the network"
        );

        println!(
            "{protocol}: baseline PDR {:.3}, churn {:.3} (-{:.1} %), burst {:.3} (-{:.1} %), \
             reroute {}, ledger {}/{}/{} (originated/delivered/dropped), \
             faults {crashes}+{recoveries}",
            outcome.baseline.mean_pdr,
            outcome.churn.mean_pdr,
            100.0 * outcome.churn_degradation(),
            outcome.burst.mean_pdr,
            100.0 * outcome.burst_degradation(),
            outcome
                .time_to_reroute
                .map_or("never".to_string(), |d| format!("{:.0} s", d.as_secs_f64())),
            ledger.originated,
            ledger.delivered,
            ledger.dropped,
        );

        entries.push(obj(vec![
            ("protocol", Json::str(protocol.to_string())),
            ("baseline", summary_json(&outcome.baseline)),
            ("churn", summary_json(&outcome.churn)),
            ("burst", summary_json(&outcome.burst)),
            ("churn_pdr_degradation", num(outcome.churn_degradation())),
            ("burst_pdr_degradation", num(outcome.burst_degradation())),
            (
                "time_to_reroute_s",
                outcome
                    .time_to_reroute
                    .map_or(Json::Null, |d| num(d.as_secs_f64())),
            ),
            ("churn_ledger_balanced", Json::Bool(true)),
            ("churn_crashes", Json::num_u64(crashes)),
            ("churn_recoveries", Json::num_u64(recoveries)),
        ]));
    }

    let sample = fig11_scenario(Protocol::Aodv, quick);
    let mut manifest = RunManifest::new("resilience");
    manifest.scenario_hash = fnv64(format!("{sample:?}").as_bytes());
    manifest.fault_plan_hash = fnv64(sample.fault_plan.render().as_bytes());
    manifest.seed = sample.seed;
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    manifest.add_timing("total", t_start.elapsed().as_secs_f64());

    report::write_report(
        &report::artifact_path("BENCH_resilience.json"),
        &manifest,
        vec![
            (
                "scenario".into(),
                obj(vec![
                    ("nodes", Json::num_u64(sample.nodes as u64)),
                    ("sim_secs", Json::num_u64(sample.sim_time.as_secs())),
                    (
                        "senders",
                        Json::num_u64(sample.traffic.senders.len() as u64),
                    ),
                    ("quick", Json::Bool(quick)),
                ]),
            ),
            ("protocols".into(), Json::Arr(entries)),
        ],
    );
}
