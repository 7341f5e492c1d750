//! Checkpoint economics: snapshot size, save/restore latency and
//! resume-vs-straight wall-clock for the Table 1 scenario, emitted as
//! `benchmarks/BENCH_checkpoint.json`.
//!
//! The run drives the paper's AODV setup to its midpoint, snapshots it,
//! throws everything except the serialized bytes away (the simulated
//! "kill"), restores into a fresh simulator and drives it to the end.
//! The report records the per-section byte breakdown of the snapshot,
//! save and restore latency, and the wall-clock of the resumed tail
//! against an uninterrupted run — the time an interrupted sweep gets
//! back. The golden digests of both runs are compared and must be equal;
//! the manifest carries the resumed run's checkpoint lineage
//! (`parent_snapshot_hash`, `resume_step`).
//!
//! Usage: `checkpoint_report [--quick]` (`--quick` shrinks the scenario
//! to a CI smoke: save, kill, resume, assert digest equality).

use std::time::{Duration, Instant};

use cavenet_bench::report::{self, num, obj};
use cavenet_core::checkpoint::{section_name, Snapshot};
use cavenet_core::net::SimTime;
use cavenet_core::{Experiment, Protocol, Scenario};
use cavenet_telemetry::{fnv64, Json, RunManifest};
use cavenet_testkit::{digest_scenario, GoldenDigest};

fn table1_scenario(quick: bool) -> Scenario {
    let mut s = Scenario::paper_table1(Protocol::Aodv);
    if quick {
        s.sim_time = Duration::from_secs(20);
        s.traffic.cbr.start = Duration::from_secs(2);
        s.traffic.cbr.stop = Duration::from_secs(18);
        s.traffic.senders = vec![1, 2, 3];
    }
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let s = table1_scenario(quick);
    let exp = Experiment::new(s.clone());
    let midpoint = s.sim_time / 2;

    println!("# checkpoint_report — snapshot economics of the Table 1 scenario\n");

    // Uninterrupted reference run (digest + wall-clock baseline).
    let t0 = Instant::now();
    let straight = digest_scenario(&s);
    let straight_wall = t0.elapsed();
    println!(
        "straight run      : {:.2} s wall, digest 0x{:016x}, {} events",
        straight_wall.as_secs_f64(),
        straight.digest,
        straight.events
    );

    // Run to the midpoint and snapshot.
    let (mut sim, recorder) = exp.build_sim(GoldenDigest::new()).expect("scenario builds");
    sim.run_until(SimTime::from_secs_f64(midpoint.as_secs_f64()));
    let t_save = Instant::now();
    let snap = exp.snapshot_now(&sim, &recorder).expect("snapshot");
    let bytes = snap.to_bytes();
    let save = t_save.elapsed();
    let parent_hash = fnv64(&bytes);
    let sections: Vec<(u32, usize)> = snap.section_sizes();
    drop((sim, recorder, snap)); // the "kill": only `bytes` survives
    println!(
        "snapshot at {:>3} s : {} bytes, saved in {:.3} ms",
        midpoint.as_secs(),
        bytes.len(),
        save.as_secs_f64() * 1e3
    );

    // Restore into a fresh simulator and resume to the end.
    let t_restore = Instant::now();
    let reopened = Snapshot::from_bytes(&bytes).expect("snapshot parses");
    let (mut sim, _recorder, meta) = exp
        .resume_from_snapshot(GoldenDigest::new(), &reopened)
        .expect("snapshot restores");
    let restore = t_restore.elapsed();
    let t_tail = Instant::now();
    sim.run_until(SimTime::from_secs_f64(s.sim_time.as_secs_f64()));
    let resume_wall = t_tail.elapsed();

    let global = sim.global_stats();
    let per_node: Vec<_> = (0..s.nodes)
        .map(|i| (sim.node_stats(i), sim.mac_stats(i)))
        .collect();
    let mut digest = sim.into_observer();
    digest.absorb_stats(&global);
    for (i, (ns, ms)) in per_node.iter().enumerate() {
        digest.absorb_node(i, ns, ms);
    }
    println!(
        "resumed tail      : {:.2} s wall (restore {:.3} ms), digest 0x{:016x}",
        resume_wall.as_secs_f64(),
        restore.as_secs_f64() * 1e3,
        digest.value()
    );
    assert_eq!(
        (digest.value(), digest.events()),
        (straight.digest, straight.events),
        "resumed run is not bit-identical to the straight run"
    );
    println!("digest match      : ok (resume is bit-identical)\n");

    let mut manifest = RunManifest::new("checkpoint_report");
    manifest.scenario_hash = fnv64(format!("{s:?}").as_bytes());
    manifest.seed = s.seed;
    manifest.crate_versions = cavenet_telemetry::base_crate_versions();
    manifest
        .crate_versions
        .push(("cavenet-bench".into(), env!("CARGO_PKG_VERSION").into()));
    manifest.add_timing("straight_run", straight_wall.as_secs_f64());
    manifest.add_timing("resumed_tail", resume_wall.as_secs_f64());
    manifest.set_lineage(parent_hash, meta.step);

    let section_sizes = Json::Obj(
        sections
            .iter()
            .map(|(id, len)| (section_name(*id).to_string(), Json::num_u64(*len as u64)))
            .collect(),
    );
    let payload = obj(vec![
        ("quick", Json::Bool(quick)),
        ("snapshot_bytes", Json::num_u64(bytes.len() as u64)),
        ("section_bytes", section_sizes),
        ("save_ms", num(save.as_secs_f64() * 1e3)),
        ("restore_ms", num(restore.as_secs_f64() * 1e3)),
        ("straight_wall_s", num(straight_wall.as_secs_f64())),
        ("resume_tail_wall_s", num(resume_wall.as_secs_f64())),
        ("resume_step", Json::num_u64(meta.step)),
        ("resume_time_ns", Json::num_u64(meta.time_ns)),
        ("events_total", Json::num_u64(straight.events)),
        ("digest_match", Json::Bool(true)),
    ]);
    report::write_report(
        &report::artifact_path("benchmarks/BENCH_checkpoint.json"),
        &manifest,
        vec![("checkpoint".into(), payload)],
    );
}
