//! Same-host benchmark of the CAVENET-RS BA→CPS pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_campaign|flood_scale|fluid_scale> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. The workload repeats while one more
//! repetition still fits in `--seconds` (always at least once). With
//! `--trace 0` the last line of stdout is a JSON object with the end-to-end
//! metrics (medians over the repetitions); with `--trace 1` it holds the
//! per-layer metrics of the traced run, and the spans are written under
//! `.perfbench_out/`. See `perfbench/README.md` for the workloads and
//! metrics.

mod campaign;
mod exact;
mod flood;
mod fluid;
mod layers;
mod measure;
mod observer;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cavenet_telemetry::Json;

use layers::Layers;
use measure::{median, peak_rss_mb, CountingAlloc, Host};
use observer::{Span, Spans};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["paper_campaign", "flood_scale", "fluid_scale"];

/// Where runs keep checkpoints and traces, relative to the checkout root.
const OUT_DIR: &str = ".perfbench_out";

/// Timing and checks of one untraced repetition of a workload.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rep {
    /// Seconds from the first construction call to the checked result.
    pub wall_s: f64,
    /// Seconds spent building (or, for the campaign, starting the server).
    pub setup_s: f64,
    /// User plus system CPU seconds of the process over the repetition.
    pub cpu_s: f64,
    /// Digest of the outputs; equal seeds must give equal digests.
    pub digest: u64,
    /// Operations attempted (campaign trials, flood rings, fluid runs).
    pub attempted: u64,
    /// Operations whose output checks failed.
    pub failed: u64,
}

impl Rep {
    /// A repetition whose single operation failed before producing output.
    pub fn failed() -> Rep {
        Rep {
            attempted: 1,
            failed: 1,
            ..Rep::default()
        }
    }
}

/// One traced repetition: an untraced run for reference, the traced run,
/// its per-layer metrics and spans, and whether the two agreed.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The untraced reference run.
    pub plain: Rep,
    /// The traced run.
    pub traced: Rep,
    /// Per-layer metrics of the traced run.
    pub layers: Layers,
    /// Spans recorded around layer calls.
    pub spans: Vec<Span>,
    /// Workload-specific cross-checks (counters agree, replays match).
    pub consistent: bool,
}

impl Traced {
    /// Assemble a traced repetition.
    pub fn new(plain: Rep, traced: Rep, layers: Layers, spans: Spans, consistent: bool) -> Traced {
        Traced {
            plain,
            traced,
            layers,
            spans: spans.spans,
            consistent,
        }
    }

    /// A traced repetition whose traced half failed.
    pub fn failed(plain: Rep) -> Traced {
        Traced {
            plain,
            traced: Rep::failed(),
            layers: Layers::default(),
            spans: Vec::new(),
            consistent: false,
        }
    }

    /// Both halves passed their checks and produced the same outputs.
    fn ok(&self) -> bool {
        self.consistent
            && self.plain.failed == 0
            && self.traced.failed == 0
            && self.plain.digest == self.traced.digest
    }
}

/// The `k`-th scenario seed derived from the workload seed (SplitMix64).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(k + 1))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds digests, in order, into one.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut h = cavenet_rng::fnv::Fnv64::new();
    for d in digests {
        h.write(&d.to_le_bytes());
    }
    h.finish()
}

/// Parsed command line.
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Whether a run that started at `start` and has made `done` repetitions
/// should make another: always a first one, then only while one more
/// repetition of the average length still ends within `seconds`.
fn another_rep(start: Instant, seconds: u64, done: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done == 0 || elapsed + elapsed / done as f64 <= seconds as f64
}

/// One untraced repetition of `workload`; `n` numbers it within the run.
fn untraced(workload: &str, seed: u64, out: &Path, n: usize) -> Rep {
    match workload {
        "paper_campaign" => campaign::untraced(seed, &campaign::root(out, n)),
        "flood_scale" => flood::untraced(seed),
        _ => fluid::untraced(seed),
    }
}

/// One traced repetition of `workload`.
fn traced(workload: &str, seed: u64, epoch: Instant, out: &Path, n: usize) -> Traced {
    match workload {
        "paper_campaign" => campaign::traced(seed, epoch, &campaign::root(out, n)),
        "flood_scale" => flood::traced(seed, epoch),
        _ => fluid::traced(seed, epoch),
    }
}

/// `{"value": v, "unit": u}`.
fn metric(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::str(unit)),
    ])
}

/// What a run reports on the last line of stdout.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Json)>,
}

impl Outcome {
    /// The result line.
    ///
    /// # Panics
    ///
    /// On a metric name outside `[A-Za-z0-9_.-]` (a bug in the benchmark).
    fn render(self) -> String {
        for (name, _) in &self.metrics {
            assert!(measure::valid_name(name), "invalid metric name {name}");
        }
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::num_u64(self.attempted)),
            ("failed".into(), Json::num_u64(self.failed)),
            ("metrics".into(), Json::Obj(self.metrics)),
        ])
        .render()
    }
}

fn host_json(host: &Host, args: &Args) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::str(args.workload)),
        ("seed".into(), Json::num_u64(args.seed)),
        ("nproc".into(), Json::num_u64(host.nproc as u64)),
        ("cpu_model".into(), Json::str(&host.cpu_model)),
        ("rustc".into(), Json::str(&host.rustc)),
        ("git_rev".into(), Json::str(&host.git_rev)),
        (
            "source_digest".into(),
            Json::str(format!("{:016x}", host.source_digest)),
        ),
    ])
}

fn run_untraced(args: &Args, out: &Path) -> Outcome {
    let start = Instant::now();
    let mut reps = Vec::new();
    while another_rep(start, args.seconds, reps.len()) {
        let rep = untraced(args.workload, args.seed, out, reps.len());
        println!(
            "rep {}: wall_s={:.4} setup_s={:.6} cpu_s={:.2} output_digest={:016x} failed={}/{}",
            reps.len(),
            rep.wall_s,
            rep.setup_s,
            rep.cpu_s,
            rep.digest,
            rep.failed,
            rep.attempted
        );
        reps.push(rep);
    }
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let digest_repeats = reps.windows(2).all(|w| w[0].digest == w[1].digest);
    let of = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    println!(
        "output_digest={:016x} repeats={digest_repeats} failed_frac={} reps={} wall_s_iqr_share={}",
        reps[0].digest,
        failed as f64 / attempted as f64,
        reps.len(),
        measure::iqr_share(&walls).map_or_else(|| "n/a".into(), |s| format!("{s:.4}")),
    );
    let metrics = vec![
        ("wall_s".into(), metric(of(|r| r.wall_s), "s")),
        ("setup_s".into(), metric(of(|r| r.setup_s), "s")),
        ("cpu_s".into(), metric(of(|r| r.cpu_s), "s")),
        ("peak_rss_mb".into(), metric(peak_rss_mb(), "MB")),
    ];
    Outcome {
        correct: failed == 0 && digest_repeats,
        attempted,
        failed,
        metrics,
    }
}

fn span_json(s: &Span) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(s.name)),
        ("trial".into(), Json::num_u64(u64::from(s.trial))),
        ("start_s".into(), Json::Num(s.start_s)),
        ("end_s".into(), Json::Num(s.end_s)),
    ])
}

fn run_traced(args: &Args, out: &Path, host: &Host) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut runs = Vec::new();
    while another_rep(epoch, args.seconds, runs.len()) {
        let t = traced(args.workload, args.seed, epoch, out, runs.len());
        println!(
            "traced rep {}: plain wall_s={:.4} traced wall_s={:.4} output_digest={:016x}/{:016x} ok={}",
            runs.len(),
            t.plain.wall_s,
            t.traced.wall_s,
            t.plain.digest,
            t.traced.digest,
            t.ok()
        );
        runs.push(t);
    }
    let attempted: u64 = runs
        .iter()
        .map(|t| t.plain.attempted + t.traced.attempted)
        .sum();
    let failed: u64 = runs.iter().map(|t| t.plain.failed + t.traced.failed).sum();
    let digest_repeats = runs
        .windows(2)
        .all(|w| w[0].plain.digest == w[1].plain.digest);
    let (layers, unstable) =
        Layers::merge(&runs.iter().map(|t| t.layers.clone()).collect::<Vec<_>>());
    if !unstable.is_empty() {
        println!("counters that differ between traced runs: {unstable:?}");
    }
    let correct = digest_repeats && unstable.is_empty() && runs.iter().all(Traced::ok);

    let metrics: Vec<(String, Json)> = layers
        .iter()
        .map(|(name, unit, value)| (name.to_string(), metric(value, unit)))
        .collect();
    let record = Json::Obj(vec![
        ("host".into(), host_json(host, args)),
        ("correct".into(), Json::Bool(correct)),
        (
            "output_digest".into(),
            Json::str(format!("{:016x}", runs[0].plain.digest)),
        ),
        ("metrics".into(), Json::Obj(metrics.clone())),
        (
            "spans".into(),
            Json::Arr(runs.iter().flat_map(|t| &t.spans).map(span_json).collect()),
        ),
    ]);
    let path = out.join(format!(
        "trace-{}-seed{}-{}.json",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::write(&path, record.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".");
    if !root.join("crates/core").is_dir() {
        eprintln!("perfbench: run from the repository root (crates/core not found)");
        return ExitCode::from(2);
    }
    let out = root.join(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let host = Host::probe(&root);
    println!("host: {}", host_json(&host, &args).render());
    let outcome = if args.trace {
        match run_traced(&args, &out, &host) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        run_untraced(&args, &out)
    };
    println!("{}", outcome.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..6).map(|k| derive_seed(7, k)).collect();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert_eq!(a, (0..6).map(|k| derive_seed(7, k)).collect::<Vec<_>>());
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s".into(), metric(1.25, "s"))],
        }
        .render();
        let json = cavenet_telemetry::json::parse(&line).unwrap();
        let Json::Obj(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let wall = json.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn workload_names_use_the_allowed_characters() {
        assert!(WORKLOADS.iter().all(|w| measure::valid_name(w)));
    }
}
