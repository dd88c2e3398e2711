//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--dbp <path>] [--size full|tiny]`
//!
//! Runs one benchmark workload from the root of a checkout and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The line before it
//! holds the run facts. Exits 1 when a correctness check failed and 2
//! on a usage error or a refused input.

use perfbench::common::{RunOpts, Scale};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--dbp <path>] [--size full|tiny]";

fn parse() -> Result<(String, RunOpts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut dbp, mut scale) = (None, Scale::Full);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--dbp" => dbp = Some(PathBuf::from(value()?)),
            "--size" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--size must be full or tiny, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let work_dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    Ok((
        workload.ok_or("--workload is required")?,
        RunOpts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            traced: traced.ok_or("--trace is required")?,
            scale,
            work_dir,
            dbp,
        },
    ))
}

/// `perfbench --pins <seconds>`: prints a fresh `pins.json` (for an
/// intended generator change; serve job counts follow `<seconds>`).
fn print_pins(seconds: &str) -> ExitCode {
    let Ok(seconds) = seconds.parse::<f64>() else {
        eprintln!("perfbench: --pins needs the run length in seconds");
        return ExitCode::from(2);
    };
    let seed = 1;
    let pin = |p: perfbench::Pin| format!("{{\"items\": {}, \"fnv64\": \"{}\"}}", p.items, p.fnv64);
    let rows: Vec<String> = perfbench::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    \"{w}\": {{\"full\": {}, \"canary\": {}}}",
                pin(perfbench::stream_pin(w, seed, Scale::Full, seconds)),
                pin(perfbench::stream_pin(w, seed, Scale::Tiny, seconds))
            )
        })
        .collect();
    println!(
        "{{\n  \"reference_seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}",
        rows.join(",\n")
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("--pins") {
        return print_pins(argv.get(2).map_or("", String::as_str));
    }
    let (workload, opts) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match perfbench::run_workload(&workload, &opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: refusing to run: {e}");
            return ExitCode::from(2);
        }
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let facts = [
        ("workload", workload.clone()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.traced).to_string()),
        ("size", format!("{:?}", opts.scale).to_lowercase()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |p| p.get())
                .to_string(),
        ),
        ("git_rev", env("PERFBENCH_GIT_REV")),
        ("source_digest", env("PERFBENCH_SOURCE_DIGEST")),
        ("rustc", env("PERFBENCH_RUSTC")),
    ];
    let mut all: Vec<(String, String)> = facts
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    all.append(&mut out.facts);
    out.facts = all;

    eprintln!(
        "perfbench {workload} (seed {}, trace {}):",
        opts.seed,
        u8::from(opts.traced)
    );
    for line in &out.notes {
        eprintln!("{line}");
    }
    for m in &out.metrics {
        eprintln!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  failed_frac {:.6} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted.max(1)
    );
    for f in &out.failures {
        eprintln!("  FAILED: {f}");
    }
    println!("facts: {}", out.facts_json());
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
