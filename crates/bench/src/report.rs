//! Shared benchmark report writer: one schema, one place.
//!
//! Every `BENCH_*.json` artifact has the same envelope — a schema version,
//! a [`RunManifest`] saying exactly what produced the numbers, then the
//! tool-specific sections:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "manifest": { "manifest_version": 1, "tool": "...", ... },
//!   "<section>": { ... }
//! }
//! ```
//!
//! Bench binaries build their sections as [`Json`] values and call
//! [`write_report`]; the envelope, rendering, file write and console echo
//! happen here so the bins cannot drift apart.

use std::path::{Path, PathBuf};

use cavenet_telemetry::{Json, RunManifest};

/// Version of the report envelope (not of any tool's payload).
pub const REPORT_SCHEMA_VERSION: u64 = 1;

/// A finite `f64` as a JSON number, or `null` when it is not finite —
/// keeps NaN/∞ out of the artifacts without each bin rolling its own
/// formatting.
pub fn num(x: f64) -> Json {
    if x.is_finite() {
        Json::Num(x)
    } else {
        Json::Null
    }
}

/// A JSON object from `(&str, Json)` pairs — saves every call site the
/// `String` conversions. Order is preserved.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Assemble the envelope around `sections` without touching the
/// filesystem. Sections appear after the manifest, in the given order.
pub fn assemble(manifest: &RunManifest, sections: Vec<(String, Json)>) -> Json {
    let mut members = vec![
        (
            "schema_version".to_string(),
            Json::num_u64(REPORT_SCHEMA_VERSION),
        ),
        ("manifest".to_string(), manifest.to_json()),
    ];
    members.extend(sections);
    Json::Obj(members)
}

/// `relative` (such as `benchmarks/BENCH_perf.json`) resolved against the
/// workspace root, so a bench binary reads its committed baseline and
/// writes its artifact in the same place whatever directory it runs from.
pub fn artifact_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
        .join(relative)
}

/// Write the report to `path` (pretty-printed, creating its directory) and
/// echo it to stdout.
///
/// # Panics
///
/// Panics when the file cannot be written — a bench artifact that silently
/// fails to land is worse than a crashed bench run.
pub fn write_report(path: &Path, manifest: &RunManifest, sections: Vec<(String, Json)>) {
    let rendered = assemble(manifest, sections).render_pretty();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("\nwrote {}:\n{rendered}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_has_version_and_manifest_first() {
        let m = RunManifest::new("unit");
        let json = assemble(&m, vec![("data".into(), Json::num_u64(7))]);
        let Json::Obj(members) = &json else {
            panic!("envelope must be an object")
        };
        assert_eq!(members[0].0, "schema_version");
        assert_eq!(members[1].0, "manifest");
        assert_eq!(members[2].0, "data");
        let reparsed = cavenet_telemetry::json::parse(&json.render_pretty()).unwrap();
        RunManifest::validate(reparsed.get("manifest").unwrap()).unwrap();
    }

    #[test]
    fn envelope_with_checkpoint_lineage_validates() {
        let mut m = RunManifest::new("unit");
        m.set_lineage(0xdead_beef_cafe_f00d, 4096);
        let json = assemble(&m, vec![]);
        let reparsed = cavenet_telemetry::json::parse(&json.render_pretty()).unwrap();
        let manifest = reparsed.get("manifest").unwrap();
        RunManifest::validate(manifest).unwrap();
        assert_eq!(
            manifest.get("parent_snapshot_hash").and_then(Json::as_str),
            Some("deadbeefcafef00d")
        );
        assert_eq!(
            manifest.get("resume_step").and_then(Json::as_u64),
            Some(4096)
        );
    }

    #[test]
    fn artifact_paths_resolve_to_the_committed_benchmarks_dir() {
        let path = artifact_path("benchmarks/BENCH_perf.json");
        assert!(path.is_absolute());
        assert!(path.exists(), "{} missing", path.display());
    }

    #[test]
    fn num_maps_non_finite_to_null() {
        assert_eq!(num(1.5), Json::Num(1.5));
        assert_eq!(num(f64::NAN), Json::Null);
        assert_eq!(num(f64::INFINITY), Json::Null);
    }
}
