//! The repository benchmark. See `perfbench/README.md` for the
//! workloads, the metrics and the layer map; `run.py` builds and runs
//! it.

pub mod common;
pub mod engine;
pub mod serve;

use common::{Outcome, RunOpts, Scale};
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "stream-cbd",
    "stream-deep-bf",
    "vector-booked-bf",
    "serve-durable",
];

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("items_per_s", "items/s"),
    ("usage_ratio", "ratio"),
    ("state_mb", "MB"),
    ("sat_req_per_s", "req/s"),
    ("recovery_s", "s"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not run reads 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("stream.sweep_ns", "ns"),
    ("stream.commit_ns", "ns"),
    ("packer.decide_ns", "ns"),
    ("packer.probes", "count"),
    ("packer.open_frac", "ratio"),
    ("stream.finish_ms", "ms"),
    ("stream.open_bins_peak", "count"),
    ("stream.live_kb_peak", "KB"),
    ("stream.dedupe_backlog_peak", "count"),
    ("client.lateness_us_p99", "us"),
    ("protocol.parse_ns", "ns"),
    ("protocol.render_ns", "ns"),
    ("service.handle_us_p50", "us"),
    ("service.handle_us_p99", "us"),
    ("state.checkpoint_ms", "ms"),
    ("state.checkpoint_kb", "KB"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_req", "bytes"),
    ("server.place_us_p50", "us"),
    ("server.place_us_p99", "us"),
    ("server.wait_us_p50", "us"),
    ("server.cpu_us_per_req", "us"),
    ("recovery.ms", "ms"),
    ("recovery.replayed_frames", "count"),
    ("trace.residual_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Pinned inputs: item count and fingerprint of each workload's stream
/// at the reference seed, at full size and at the tiny canary size.
const PINS: &str = include_str!("../pins.json");

/// One pinned stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pin {
    pub items: usize,
    pub fnv64: String,
}

/// The pins of `workload`: `(reference seed, full, canary)`.
pub fn pins(workload: &str) -> Result<(u64, Pin, Pin), String> {
    use dbp_obs::json::{parse, Json};
    let doc = parse(PINS)?;
    let seed = doc
        .get("reference_seed")
        .and_then(Json::as_u64)
        .ok_or("pins.json: no reference_seed")?;
    let w = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .ok_or_else(|| format!("pins.json: no pin for {workload}"))?;
    let pin = |key: &str| -> Result<Pin, String> {
        let p = w
            .get(key)
            .ok_or_else(|| format!("pins.json: {workload}.{key} missing"))?;
        Ok(Pin {
            items: p.get("items").and_then(Json::as_u64).ok_or("pin items")? as usize,
            fnv64: p
                .get("fnv64")
                .and_then(Json::as_str)
                .ok_or("pin fnv64")?
                .to_string(),
        })
    };
    Ok((seed, pin("full")?, pin("canary")?))
}

/// The stream `workload` generates for `seed` at `scale` (serve: at the
/// job count `seconds` gives).
pub fn stream_pin(workload: &str, seed: u64, scale: Scale, seconds: f64) -> Pin {
    if engine::spec(workload).is_some() {
        let s = engine::generate(workload, seed, scale);
        Pin {
            items: s.count(),
            fnv64: s.fingerprint(),
        }
    } else {
        let (a, b, c) = serve::phase_jobs(seconds, scale);
        let jobs = serve::generate(seed, a + b + c);
        Pin {
            items: jobs.len(),
            fnv64: serve::fingerprint(&jobs),
        }
    }
}

/// Refuses a generator whose output drifted: the tiny canary at the
/// reference seed must match its pin on every run.
pub fn check_canary(workload: &str) -> Result<(), String> {
    let (seed, _, canary) = pins(workload)?;
    let got = stream_pin(workload, seed, Scale::Tiny, 0.0);
    if got != canary {
        return Err(format!(
            "{workload}: the generator no longer produces the pinned stream \
             (canary at seed {seed}: {} items {}, pinned {} items {})",
            got.items, got.fnv64, canary.items, canary.fnv64
        ));
    }
    Ok(())
}

/// At the reference seed, the stream must match its pin too. Serve job
/// counts follow `--seconds`, so a serve pin holds at its own count.
pub fn check_full(workload: &str, seed: u64, scale: Scale, got: &Pin) -> Result<(), String> {
    let (ref_seed, full, canary) = pins(workload)?;
    let pinned = match scale {
        Scale::Full => full,
        Scale::Tiny => canary,
    };
    let comparable = engine::spec(workload).is_some() || got.items == pinned.items;
    if seed == ref_seed && comparable && got != &pinned {
        return Err(format!(
            "{workload}: stream at the reference seed is {} items {}, pinned {} items {}",
            got.items, got.fnv64, pinned.items, pinned.fnv64
        ));
    }
    Ok(())
}

/// Runs one workload and returns its outcome. Input drift is an error:
/// the stream is refused before anything is timed.
pub fn run_workload(workload: &str, opts: &RunOpts) -> Result<Outcome, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    check_canary(workload)?;
    let mut out = Outcome::default();
    if let Some(spec) = engine::spec(workload) {
        let mut setups = Vec::new();
        let mut prints = Vec::new();
        let mut input = None;
        for _ in 0..5 {
            let t = Instant::now();
            let s = engine::generate(workload, opts.seed, opts.scale);
            engine::build_session(&s, spec.algo);
            setups.push(common::secs(t));
            prints.push(s.fingerprint());
            input = Some(s);
        }
        let input = input.expect("five generations");
        out.check(prints.windows(2).all(|w| w[0] == w[1]), || {
            "the stream differs between generations of one seed".into()
        });
        let got = Pin {
            items: input.count(),
            fnv64: prints[0].clone(),
        };
        check_full(workload, opts.seed, opts.scale, &got)?;
        out.fact("stream_fnv64", &got.fnv64);
        if !opts.traced {
            out.metric("setup_s", common::median(&setups), "s");
        }
        engine::run(&spec, &input, opts, &mut out);
    } else {
        serve::run(opts, &mut out);
    }
    complete(&mut out, opts.traced);
    Ok(out)
}

/// Puts the metrics in contract order. A traced run reports every
/// per-layer metric, 0 for a layer the workload does not run; an
/// untraced run must have produced every end-to-end metric.
fn complete(out: &mut Outcome, traced: bool) {
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        match out.metrics.iter().find(|m| m.name == name) {
            Some(m) => ordered.push(m.clone()),
            None if traced => ordered.push(common::Metric {
                name,
                value: 0.0,
                unit,
            }),
            None => {
                out.failures.push(format!("metric {name} was not measured"));
            }
        }
    }
    out.metrics = ordered;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pinned_generator_still_matches() {
        for w in WORKLOADS {
            check_canary(w).unwrap();
        }
    }

    #[test]
    fn a_drifted_stream_is_refused_at_the_reference_seed() {
        let (seed, _, canary) = pins("stream-cbd").unwrap();
        let drifted = Pin {
            items: canary.items,
            fnv64: "0000000000000000".into(),
        };
        assert!(check_full("stream-cbd", seed, Scale::Tiny, &drifted).is_err());
        assert!(check_full("stream-cbd", seed + 1, Scale::Tiny, &drifted).is_ok());
        assert!(check_full("stream-cbd", seed, Scale::Tiny, &canary).is_ok());
    }
}
