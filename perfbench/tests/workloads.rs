//! A tiny-size pass of every workload, untraced and traced, through the
//! real command: each run must pass its correctness gate and print
//! exactly the metrics `BENCHMARK.json` names.

use dbp_obs::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
        .to_path_buf()
}

/// Builds `dbp` once, the way `run.py` does.
fn dbp() -> &'static Path {
    static DBP: OnceLock<PathBuf> = OnceLock::new();
    DBP.get_or_init(|| {
        let target = std::env::var("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| root().join(".bench_build"));
        let target = if target.is_absolute() {
            target
        } else {
            root().join(target)
        };
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--bin",
                "dbp",
                "--manifest-path",
            ])
            .arg(root().join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building dbp failed");
        target.join("release").join("dbp")
    })
}

/// The metric names and units `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_tiny(workload: &str, trace: u8) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{workload}-{trace}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--size",
            "tiny",
        ])
        .args(["--trace", &trace.to_string(), "--dbp"])
        .arg(dbp())
        .current_dir(&dir)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stderr}\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    let doc = parse(last).expect("the result line is JSON");
    assert!(
        matches!(doc.get("correct"), Some(Json::Bool(true))),
        "{last}"
    );
    assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0), "{last}");
    assert!(doc.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("no metrics object: {last}");
    };
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    let want = listed(if trace == 1 {
        "per_layer"
    } else {
        "end_to_end"
    });
    assert_eq!(got, want, "{workload} trace {trace}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_cbd_tiny() {
    run_tiny("stream-cbd", 0);
    run_tiny("stream-cbd", 1);
}

#[test]
fn stream_deep_bf_tiny() {
    run_tiny("stream-deep-bf", 0);
    run_tiny("stream-deep-bf", 1);
}

#[test]
fn vector_booked_bf_tiny() {
    run_tiny("vector-booked-bf", 0);
    run_tiny("vector-booked-bf", 1);
}

#[test]
fn serve_durable_tiny() {
    run_tiny("serve-durable", 0);
    run_tiny("serve-durable", 1);
}

#[test]
fn benchmark_json_names_the_workloads_the_command_runs() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let names: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect();
    assert_eq!(names, perfbench::WORKLOADS);
    let e2e: Vec<&str> = perfbench::END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        listed("end_to_end")
            .iter()
            .map(|(n, _)| n.as_str())
            .collect::<Vec<_>>(),
        e2e
    );
}
