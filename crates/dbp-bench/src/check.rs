//! The perf-regression gate: compare a fresh benchmark run against a
//! checked-in `BENCH_*.json` baseline, cell by cell.
//!
//! `dbp bench --check BENCH_shard.json --tolerance 20` re-runs every
//! `(algo, shards)` cell the baseline recorded — with the same workload
//! recipe, derived from the baseline's `mode` — and flags any cell whose
//! fresh throughput fell more than the tolerance below the recorded
//! `items_per_sec`. Three baseline schemas are understood:
//!
//! | schema | cell key | fresh run |
//! |---|---|---|
//! | `dbp-bench/engine-v1` | `algo` | plain [`StreamingSession`] |
//! | `dbp-bench/shard-v1` | `algo/k{K}` | [`ShardedSession`] with the recorded worker count |
//! | `dbp-bench/telemetry-v1` | `algo/{off,sampled}` | session without / with a [`TelemetryRecorder`] |
//! | `dbp-bench/vector-v1` | `algo` | [`VecStreamingSession`] over the correlated vector workload |
//!
//! Wall-clock throughput is inherently noisy and machine-dependent, so
//! the gate records both hosts' parallelism, compares *ratios* rather
//! than absolute times, and defaults to a generous tolerance; a baseline
//! produced on different hardware is still useful for catching
//! order-of-magnitude regressions, and `host_parallelism` in the report
//! says when to distrust a tight margin. Baselines recorded with
//! `degraded_parallelism: true` (multi-worker cells timed on a host with
//! fewer cores than workers) are not trustworthy for their multi-worker
//! cells at all — those cells are skipped with a warning instead of
//! gated, while their single-worker cells still gate normally.
//! `--inject <pct>` synthetically
//! slows the fresh measurements to prove the gate trips (the CI smoke
//! job runs the gate twice: once expecting exit 0, once with an injected
//! regression expecting exit 5).

use crate::registry::{
    online_packer, online_packer_linear, vector_packer, vector_packer_linear, AlgoParams,
};
use dbp_core::stream::StreamingSession;
use dbp_core::{ClairvoyanceMode, Instance, VecInstance, VecStreamingSession};
use dbp_obs::json::{self, Json};
use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
use dbp_telemetry::TelemetryRecorder;
use dbp_workloads::random::{DurationDist, PoissonWorkload};
use dbp_workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
use dbp_workloads::Workload;
use std::fmt::Write as _;
use std::time::Instant;

/// Every benchmark binary streams this seed.
const SEED: u64 = 1;

/// One baseline measurement to reproduce.
#[derive(Clone, Debug)]
pub struct BaselineCell {
    /// Algorithm name from the roster.
    pub algo: String,
    /// Shard count (1 for unsharded schemas).
    pub shards: usize,
    /// Worker threads the baseline used (1 for unsharded schemas).
    pub workers: usize,
    /// Telemetry variant for `telemetry-v1` cells (`"off"`/`"sampled"`).
    pub telemetry: Option<String>,
    /// Workload variant the cell streamed (`None`/`"default"` for the
    /// schema's standard recipe, `"deep"` for the 1000+-open-bin
    /// deep-fleet cells the engine benchmark records).
    pub workload: Option<String>,
    /// Scan machinery the cell used (`None`/`"indexed"` for the fit
    /// index, `"linear"` for the open-bin-walk foil cells).
    pub scan: Option<String>,
    /// Recorded throughput.
    pub items_per_sec: f64,
}

impl BaselineCell {
    /// The display key the gate reports the cell under.
    pub fn label(&self) -> String {
        let base = match (&self.telemetry, self.shards) {
            (Some(t), _) => format!("{}/{t}", self.algo),
            (None, 1) => self.algo.clone(),
            (None, k) => format!("{}/k{k}", self.algo),
        };
        let base = match self.workload.as_deref() {
            Some(w) if w != "default" => format!("{base}@{w}"),
            _ => base,
        };
        match self.scan.as_deref() {
            Some(s) if s != "indexed" => format!("{base}/{s}"),
            _ => base,
        }
    }

    /// The workload recipe key this cell must be re-measured under.
    fn workload_key(&self) -> &str {
        self.workload.as_deref().unwrap_or("default")
    }

    /// Whether the cell must be re-measured with the linear-scan foil.
    fn linear_scan(&self) -> bool {
        self.scan.as_deref() == Some("linear")
    }
}

/// A parsed `BENCH_*.json` baseline.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Schema tag, e.g. `dbp-bench/shard-v1`.
    pub schema: String,
    /// `"full"` (~1M items) or `"short"` (~100k, the CI smoke size).
    pub mode: String,
    /// `host_parallelism` / `parallel_workers` the baseline recorded.
    pub host_parallelism: usize,
    /// Whether the recording host had fewer cores than the widest cell's
    /// worker count (the bench binaries tag such runs): multi-worker
    /// timings in the file are time-sliced, not parallel, and must not
    /// be used as regression baselines.
    pub degraded_parallelism: bool,
    /// The measurements, in file order.
    pub cells: Vec<BaselineCell>,
}

impl Baseline {
    /// Whether a cell's recorded timing is untrustworthy (see
    /// [`Baseline::degraded_parallelism`]): in a degraded file, every
    /// multi-worker cell was time-sliced on too few cores.
    pub fn cell_degraded(&self, cell: &BaselineCell) -> bool {
        self.degraded_parallelism && cell.workers > 1
    }
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    v.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// Parses a benchmark baseline, accepting any of the three schemas.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let root = json::parse(text)?;
    let schema = field(&root, "schema")?
        .as_str()
        .ok_or("schema is not a string")?
        .to_string();
    if !matches!(
        schema.as_str(),
        "dbp-bench/engine-v1"
            | "dbp-bench/shard-v1"
            | "dbp-bench/telemetry-v1"
            | "dbp-bench/vector-v1"
    ) {
        return Err(format!("unsupported baseline schema {schema:?}"));
    }
    let mode = field(&root, "mode")?
        .as_str()
        .ok_or("mode is not a string")?
        .to_string();
    let host_parallelism = root
        .get("host_parallelism")
        .or_else(|| root.get("parallel_workers"))
        .and_then(Json::as_u64)
        .unwrap_or(1) as usize;
    let degraded_parallelism = matches!(root.get("degraded_parallelism"), Some(Json::Bool(true)));
    let mut cells = Vec::new();
    for cell in field(&root, "results")?
        .as_array()
        .ok_or("results is not an array")?
    {
        cells.push(BaselineCell {
            algo: field(cell, "algo")?
                .as_str()
                .ok_or("algo is not a string")?
                .to_string(),
            shards: cell.get("shards").and_then(Json::as_u64).unwrap_or(1) as usize,
            workers: cell.get("workers").and_then(Json::as_u64).unwrap_or(1) as usize,
            telemetry: cell
                .get("telemetry")
                .and_then(Json::as_str)
                .map(str::to_string),
            workload: cell
                .get("workload")
                .and_then(Json::as_str)
                .map(str::to_string),
            scan: cell.get("scan").and_then(Json::as_str).map(str::to_string),
            items_per_sec: field(cell, "items_per_sec")?
                .as_f64()
                .ok_or("items_per_sec is not a number")?,
        });
    }
    if cells.is_empty() {
        return Err("baseline has no result cells".into());
    }
    Ok(Baseline {
        schema,
        mode,
        host_parallelism,
        degraded_parallelism,
        cells,
    })
}

/// The benchmark horizon for a baseline mode (the same constants the
/// bench binaries bake in).
fn horizon_for(mode: &str) -> Result<i64, String> {
    match mode {
        "full" => Ok(260_000),
        "short" => Ok(26_000),
        other => Err(format!("unknown baseline mode {other:?}")),
    }
}

/// Regenerates the instance a baseline cell streamed: every schema uses
/// Poisson(rate = 4) at seed 1; the shard benchmark's default recipe
/// deepens the fleet with long exponential durations, and `"deep"` cells
/// (the engine benchmark's 1000+-open-bin rows) use the even longer
/// mean-1000 exponential durations their bench binary bakes in.
pub fn baseline_instance(schema: &str, mode: &str, workload: &str) -> Result<Instance, String> {
    let horizon = horizon_for(mode)?;
    let base = PoissonWorkload::new(4.0, horizon);
    let workload = match (schema, workload) {
        ("dbp-bench/shard-v1", "default") => base.with_durations(DurationDist::Exponential {
            mean: 500.0,
            min: 1,
            max: 5_000,
        }),
        (_, "default") => base,
        (_, "deep") => base.with_durations(DurationDist::Exponential {
            mean: 1000.0,
            min: 1,
            max: 10_000,
        }),
        (_, other) => return Err(format!("unknown cell workload {other:?}")),
    };
    // Disambiguated: the blanket `VectorWorkload` impl gives every
    // scalar workload a second `generate_seeded`.
    Ok(Workload::generate_seeded(&workload, SEED))
}

/// Item count for a `vector-v1` baseline mode. Unlike the Poisson
/// schemas (which target an expected count through a horizon), the
/// correlated vector workload draws an exact item count.
fn vector_items_for(mode: &str) -> Result<usize, String> {
    match mode {
        "full" => Ok(1_050_000),
        "short" => Ok(105_000),
        other => Err(format!("unknown baseline mode {other:?}")),
    }
}

/// Regenerates the vector instance a `vector-v1` baseline cell
/// streamed: 3-axis correlated demands (`ρ = 0.6`) at seed 1. The
/// `"deep"` variant stretches arrivals to one per tick and holds items
/// with mean-1000 exponential durations, sustaining a fleet of hundreds
/// of open bins — the cell that catches vector scan-depth cliffs.
pub fn vector_baseline_instance(mode: &str, workload: &str) -> Result<VecInstance, String> {
    let n = vector_items_for(mode)?;
    let means = [0.3, 0.2, 0.45];
    let base = CorrelatedVectorWorkload::new(n, &means, 0.5, 0.6)
        .map_err(|e| format!("vector baseline workload: {e}"))?;
    let w = match workload {
        "default" => base,
        "deep" => base
            .with_durations(DurationDist::Exponential {
                mean: 1000.0,
                min: 1,
                max: 10_000,
            })
            .with_arrival_span(n as i64),
        other => return Err(format!("unknown cell workload {other:?}")),
    };
    Ok(VectorWorkload::generate_seeded(&w, SEED))
}

/// One gate comparison.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Cell key (see [`BaselineCell::label`]).
    pub label: String,
    /// Recorded throughput.
    pub baseline_ips: f64,
    /// Fresh throughput (after any injected slowdown).
    pub fresh_ips: f64,
    /// `(fresh - baseline) / baseline`, in percent; negative is slower.
    pub delta_pct: f64,
    /// Whether the cell fell below the tolerance.
    pub regressed: bool,
    /// Whether the cell was skipped (degraded baseline): not
    /// re-measured, never regressed, `fresh_ips`/`delta_pct` are zero.
    pub skipped: bool,
}

/// The gate's verdict over every baseline cell.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Baseline schema the gate compared against.
    pub schema: String,
    /// Baseline mode (`full`/`short`).
    pub mode: String,
    /// Allowed throughput drop, in percent.
    pub tolerance_pct: f64,
    /// Synthetic slowdown applied to fresh runs (0 = none).
    pub injected_pct: f64,
    /// Parallelism recorded in the baseline file.
    pub baseline_host_parallelism: usize,
    /// Parallelism of the machine running the gate — when it differs
    /// from the baseline's, treat tight margins as noise.
    pub host_parallelism: usize,
    /// Per-cell comparisons, in baseline order.
    pub rows: Vec<CheckRow>,
}

impl CheckReport {
    /// True when no cell regressed.
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }

    /// The regressed cells.
    pub fn regressions(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.regressed).collect()
    }

    /// The cells skipped because the baseline recorded them under
    /// degraded parallelism.
    pub fn skipped(&self) -> Vec<&CheckRow> {
        self.rows.iter().filter(|r| r.skipped).collect()
    }

    /// Serializes the comparison (the CI artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"dbp-bench/check-v1\",\n");
        let _ = writeln!(out, "  \"baseline_schema\": \"{}\",", self.schema);
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"tolerance_pct\": {:.2},", self.tolerance_pct);
        let _ = writeln!(out, "  \"injected_pct\": {:.2},", self.injected_pct);
        let _ = writeln!(
            out,
            "  \"baseline_host_parallelism\": {},",
            self.baseline_host_parallelism
        );
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        let _ = writeln!(out, "  \"ok\": {},", self.ok());
        let _ = writeln!(out, "  \"skipped_cells\": {},", self.skipped().len());
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{ \"cell\": \"{}\", \"baseline_ips\": {:.0}, \"fresh_ips\": {:.0}, \
                 \"delta_pct\": {:.2}, \"regressed\": {}, \"skipped\": {} }}{}",
                json::escape(&r.label),
                r.baseline_ips,
                r.fresh_ips,
                r.delta_pct,
                r.regressed,
                r.skipped,
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Times one fresh run of a baseline cell and returns its items/sec,
/// best-of-3: the minimum elapsed time of three back-to-back runs.
/// Scheduler and frequency noise only ever adds time, and on shared
/// single-CPU runners individual cells swing by ±10–20% — enough to
/// trip the gate spuriously from a single sample.
fn run_cell(schema: &str, inst: &Instance, cell: &BaselineCell) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(run_cell_once(schema, inst, cell)?);
    }
    Ok(inst.len() as f64 / best.max(f64::MIN_POSITIVE))
}

/// One timed run of a baseline cell; returns elapsed seconds.
fn run_cell_once(schema: &str, inst: &Instance, cell: &BaselineCell) -> Result<f64, String> {
    let params = AlgoParams::from_instance(inst);
    let err = |e: dbp_core::DbpError| format!("{}: {e}", cell.label());
    // Foil cells are re-measured with the same linear-scan packer
    // variant they recorded, so their (deliberately slow) baselines are
    // compared like-for-like.
    let make = |name: &str| {
        if cell.linear_scan() {
            online_packer_linear(name, params)
        } else {
            online_packer(name, params)
        }
    };
    let elapsed_s = match (schema, cell.telemetry.as_deref()) {
        ("dbp-bench/shard-v1", _) => {
            let cfg = ShardConfig {
                threads: Some(cell.workers.max(1)),
                ..ShardConfig::new(cell.shards.max(1), ShardRouter::hash())
            };
            let packers = (0..cell.shards.max(1)).map(|_| make(&cell.algo)).collect();
            let mut fleet =
                ShardedSession::new(ClairvoyanceMode::Clairvoyant, packers, cfg).map_err(err)?;
            let started = Instant::now();
            for item in inst.items() {
                fleet.arrive(item).map_err(err)?;
            }
            fleet.finish().map_err(err)?;
            started.elapsed().as_secs_f64()
        }
        (_, Some("sampled")) => {
            let mut packer = make(&cell.algo);
            let mut session = StreamingSession::with_observer(
                ClairvoyanceMode::Clairvoyant,
                packer.as_mut(),
                TelemetryRecorder::new(),
            );
            let started = Instant::now();
            for item in inst.items() {
                session.arrive(item).map_err(err)?;
            }
            session.finish().map_err(err)?;
            started.elapsed().as_secs_f64()
        }
        _ => {
            // Engine cells and telemetry-off cells: a bare session.
            let mut packer = make(&cell.algo);
            let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, packer.as_mut());
            let started = Instant::now();
            for item in inst.items() {
                session.arrive(item).map_err(err)?;
            }
            session.finish().map_err(err)?;
            started.elapsed().as_secs_f64()
        }
    };
    Ok(elapsed_s)
}

/// Times one fresh run of a `vector-v1` baseline cell, best-of-3 like
/// [`run_cell`].
fn run_vec_cell(inst: &VecInstance, cell: &BaselineCell) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        best = best.min(run_vec_cell_once(inst, cell)?);
    }
    Ok(inst.len() as f64 / best.max(f64::MIN_POSITIVE))
}

fn run_vec_cell_once(inst: &VecInstance, cell: &BaselineCell) -> Result<f64, String> {
    let params = AlgoParams::from_vec_instance(inst);
    let err = |e: dbp_core::DbpError| format!("{}: {e}", cell.label());
    let mut packer = if cell.linear_scan() {
        vector_packer_linear(&cell.algo, params)
    } else {
        vector_packer(&cell.algo, params)
    };
    let mut session =
        VecStreamingSession::new(dbp_core::VecClairvoyance::Clairvoyant, packer.as_mut());
    let started = Instant::now();
    for item in inst.items() {
        session.arrive(item).map_err(err)?;
    }
    session.finish().map_err(err)?;
    Ok(started.elapsed().as_secs_f64())
}

/// Runs the gate: every baseline cell re-measured serially (one cell at
/// a time, for minimum timing noise) and compared at `tolerance_pct`.
/// `inject_pct > 0` synthetically slows every fresh measurement by that
/// percentage — the self-proof that the gate can trip.
pub fn run_check(
    baseline: &Baseline,
    tolerance_pct: f64,
    inject_pct: f64,
) -> Result<CheckReport, String> {
    check_pcts(tolerance_pct, inject_pct)?;
    let fresh = measure_cells(baseline)?;
    judge(baseline, &fresh, tolerance_pct, inject_pct)
}

fn check_pcts(tolerance_pct: f64, inject_pct: f64) -> Result<(), String> {
    if !(0.0..100.0).contains(&tolerance_pct) {
        return Err(format!("tolerance {tolerance_pct}% out of range [0, 100)"));
    }
    if !(0.0..100.0).contains(&inject_pct) {
        return Err(format!("inject {inject_pct}% out of range [0, 100)"));
    }
    Ok(())
}

/// Re-measures every baseline cell's throughput, in file order; `None`
/// for cells a degraded baseline cannot gate (see
/// [`Baseline::cell_degraded`]), which are not run at all.
pub fn measure_cells(baseline: &Baseline) -> Result<Vec<Option<f64>>, String> {
    // Cells may stream different workload recipes (`default` vs `deep`);
    // build each instance once and share it across its cells.
    let is_vector = baseline.schema == "dbp-bench/vector-v1";
    let mut instances: std::collections::HashMap<&str, Instance> = std::collections::HashMap::new();
    let mut vec_instances: std::collections::HashMap<&str, VecInstance> =
        std::collections::HashMap::new();
    let mut fresh = Vec::with_capacity(baseline.cells.len());
    for cell in &baseline.cells {
        if cell.items_per_sec <= 0.0 {
            return Err(format!(
                "{}: non-positive baseline throughput",
                cell.label()
            ));
        }
        if baseline.cell_degraded(cell) {
            fresh.push(None);
            continue;
        }
        let key = cell.workload_key();
        let ips = if is_vector {
            if !vec_instances.contains_key(key) {
                let inst = vector_baseline_instance(&baseline.mode, key)?;
                vec_instances.insert(key, inst);
            }
            run_vec_cell(&vec_instances[key], cell)?
        } else {
            if !instances.contains_key(key) {
                let inst = baseline_instance(&baseline.schema, &baseline.mode, key)?;
                instances.insert(key, inst);
            }
            run_cell(&baseline.schema, &instances[key], cell)?
        };
        fresh.push(Some(ips));
    }
    Ok(fresh)
}

/// The gate's verdict on fresh throughputs (one per baseline cell, as
/// [`measure_cells`] returns them): each is slowed by `inject_pct` and
/// flagged if it falls more than `tolerance_pct` below its baseline.
/// Pure arithmetic, so the verdict for given numbers never varies.
pub fn judge(
    baseline: &Baseline,
    fresh: &[Option<f64>],
    tolerance_pct: f64,
    inject_pct: f64,
) -> Result<CheckReport, String> {
    check_pcts(tolerance_pct, inject_pct)?;
    if fresh.len() != baseline.cells.len() {
        return Err(format!(
            "{} fresh measurements for {} baseline cells",
            fresh.len(),
            baseline.cells.len()
        ));
    }
    let rows = baseline
        .cells
        .iter()
        .zip(fresh)
        .map(|(cell, fresh)| match fresh {
            // A multi-worker timing from a degraded recording is not a
            // baseline at all; skip it (the caller warns) rather than
            // gate against time-sliced numbers.
            None => CheckRow {
                label: cell.label(),
                baseline_ips: cell.items_per_sec,
                fresh_ips: 0.0,
                delta_pct: 0.0,
                regressed: false,
                skipped: true,
            },
            Some(fresh) => {
                let fresh_ips = fresh * (1.0 - inject_pct / 100.0);
                let delta_pct = (fresh_ips - cell.items_per_sec) / cell.items_per_sec * 100.0;
                CheckRow {
                    label: cell.label(),
                    baseline_ips: cell.items_per_sec,
                    fresh_ips,
                    delta_pct,
                    regressed: delta_pct < -tolerance_pct,
                    skipped: false,
                }
            }
        })
        .collect();
    Ok(CheckReport {
        schema: baseline.schema.clone(),
        mode: baseline.mode.clone(),
        tolerance_pct,
        injected_pct: inject_pct,
        baseline_host_parallelism: baseline.host_parallelism,
        host_parallelism: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_SHARD: &str = r#"{
      "schema": "dbp-bench/shard-v1",
      "mode": "short",
      "workload": { "generator": "poisson(rate=4,horizon=26000)", "seed": 1, "items": 104000 },
      "host_parallelism": 4,
      "results": [
        { "algo": "first-fit", "shards": 2, "workers": 2, "items_per_sec": 500000 },
        { "algo": "best-fit", "shards": 1, "workers": 1, "items_per_sec": 200000 }
      ]
    }"#;

    #[test]
    fn baseline_parses_all_schemas() {
        let b = parse_baseline(TINY_SHARD).unwrap();
        assert_eq!(b.schema, "dbp-bench/shard-v1");
        assert_eq!(b.mode, "short");
        assert_eq!(b.host_parallelism, 4);
        assert_eq!(b.cells.len(), 2);
        assert_eq!(b.cells[0].label(), "first-fit/k2");
        assert_eq!(b.cells[1].label(), "best-fit");
        assert_eq!(b.cells[0].workers, 2);

        let engine = r#"{ "schema": "dbp-bench/engine-v1", "mode": "full",
          "parallel_workers": 8,
          "results": [ { "algo": "cbdt", "items_per_sec": 1000 } ] }"#;
        let b = parse_baseline(engine).unwrap();
        assert_eq!(b.host_parallelism, 8);
        assert_eq!(b.cells[0].label(), "cbdt");

        let telem = r#"{ "schema": "dbp-bench/telemetry-v1", "mode": "short",
          "host_parallelism": 1,
          "results": [ { "algo": "first-fit", "telemetry": "sampled", "items_per_sec": 1000 } ] }"#;
        let b = parse_baseline(telem).unwrap();
        assert_eq!(b.cells[0].label(), "first-fit/sampled");

        // Per-cell workload variants: "default" stays unsuffixed, "deep"
        // shows up in the label and selects the deep-fleet recipe.
        let deep = r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
          "parallel_workers": 1,
          "results": [
            { "algo": "best-fit", "workload": "default", "scan": "indexed", "items_per_sec": 1000 },
            { "algo": "best-fit", "workload": "deep", "items_per_sec": 1000 },
            { "algo": "best-fit", "workload": "deep", "scan": "linear", "items_per_sec": 1000 }
          ] }"#;
        let b = parse_baseline(deep).unwrap();
        assert_eq!(b.cells[0].label(), "best-fit");
        assert_eq!(b.cells[1].label(), "best-fit@deep");
        assert_eq!(b.cells[2].label(), "best-fit@deep/linear");
        assert!(b.cells[2].linear_scan());
        assert!(!b.cells[1].linear_scan());
    }

    #[test]
    fn unknown_cell_workload_is_rejected() {
        assert!(
            baseline_instance("dbp-bench/engine-v1", "short", "shallow").is_err(),
            "unknown workload recipes must not silently fall back"
        );
        assert!(vector_baseline_instance("short", "shallow").is_err());
    }

    /// The vector schema parses, labels like the engine schema, and the
    /// gate re-measures its cells through the vector session (proven the
    /// same way as the scalar gate: an impossible baseline regresses, a
    /// trivial one passes).
    #[test]
    fn vector_baseline_parses_and_gates() {
        let parsed = parse_baseline(
            r#"{ "schema": "dbp-bench/vector-v1", "mode": "short",
              "parallel_workers": 1,
              "results": [
                { "algo": "dot-product", "workload": "default", "scan": "indexed", "items_per_sec": 1000 },
                { "algo": "first-fit", "workload": "deep", "scan": "linear", "items_per_sec": 1000 }
              ] }"#,
        )
        .unwrap();
        assert_eq!(parsed.schema, "dbp-bench/vector-v1");
        assert_eq!(parsed.cells[0].label(), "dot-product");
        assert_eq!(parsed.cells[1].label(), "first-fit@deep/linear");

        // Tiny synthetic instance keeps the gate-trip proof fast: drive
        // run_vec_cell directly rather than through the short recipe.
        let means = [0.3, 0.2];
        let inst = CorrelatedVectorWorkload::new(500, &means, 0.5, 0.0)
            .unwrap()
            .generate_seeded(3);
        let cell = BaselineCell {
            algo: "first-fit".into(),
            shards: 1,
            workers: 1,
            telemetry: None,
            workload: None,
            scan: None,
            items_per_sec: 0.0,
        };
        let ips = run_vec_cell(&inst, &cell).unwrap();
        assert!(ips > 0.0);
        let linear = BaselineCell {
            scan: Some("linear".into()),
            ..cell
        };
        assert!(run_vec_cell(&inst, &linear).unwrap() > 0.0);
    }

    #[test]
    fn bad_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err(), "missing schema");
        assert!(
            parse_baseline(r#"{ "schema": "dbp-bench/other-v9", "mode": "full", "results": [] }"#)
                .is_err(),
            "unknown schema"
        );
        assert!(
            parse_baseline(r#"{ "schema": "dbp-bench/engine-v1", "mode": "full", "results": [] }"#)
                .is_err(),
            "no cells"
        );
    }

    /// A baseline claiming throughput no real machine reaches: the gate
    /// must flag every cell. And against a claim of ~zero throughput the
    /// same fresh run must pass. Uses a synthetic baseline pinned to the
    /// short-mode recipe so the test stays under a second.
    #[test]
    fn gate_trips_on_slowdown_and_passes_on_speedup() {
        let fast = r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
          "parallel_workers": 1,
          "results": [ { "algo": "first-fit", "items_per_sec": 1e15 } ] }"#;
        let report = run_check(&parse_baseline(fast).unwrap(), 20.0, 0.0).unwrap();
        assert!(!report.ok(), "impossible baseline must regress");
        assert_eq!(report.regressions().len(), 1);

        let slow = r#"{ "schema": "dbp-bench/engine-v1", "mode": "short",
          "parallel_workers": 1,
          "results": [ { "algo": "first-fit", "items_per_sec": 0.001 } ] }"#;
        let report = run_check(&parse_baseline(slow).unwrap(), 20.0, 0.0).unwrap();
        assert!(report.ok(), "any real machine beats 0.001 items/s");
        let json = report.to_json();
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"cell\": \"first-fit\""));
    }

    #[test]
    fn injection_trips_a_self_comparison() {
        // Measure once, then judge that very measurement against itself
        // as the baseline: the comparison is exactly 0% without injection
        // and exactly -50% with a 50% injected slowdown, so the verdict
        // cannot depend on how fast the machine happens to be between
        // two timed runs.
        let cell = BaselineCell {
            algo: "first-fit".into(),
            shards: 1,
            workers: 1,
            telemetry: None,
            workload: None,
            scan: None,
            items_per_sec: 1.0,
        };
        let mut baseline = Baseline {
            schema: "dbp-bench/engine-v1".into(),
            mode: "short".into(),
            host_parallelism: 1,
            degraded_parallelism: false,
            cells: vec![cell],
        };
        let fresh = measure_cells(&baseline).unwrap();
        let measured = fresh[0].expect("single-worker cell is measured");
        assert!(measured > 0.0);
        baseline.cells[0].items_per_sec = measured;
        let report = judge(&baseline, &fresh, 20.0, 50.0).unwrap();
        assert!(
            !report.ok(),
            "a 50% injected slowdown must trip 20% tolerance"
        );
        assert_eq!(report.injected_pct, 50.0);
        assert_eq!(report.rows[0].delta_pct, -50.0);
        let clean = judge(&baseline, &fresh, 20.0, 0.0).unwrap();
        assert!(clean.ok(), "a self-comparison passes without injection");
        assert!(judge(&baseline, &[], 20.0, 0.0).is_err());
    }

    /// Regression: the gate used to treat `degraded_parallelism`-tagged
    /// baselines (multi-worker cells recorded on a 1-core host) as
    /// trustworthy and gated against their time-sliced numbers. Skip
    /// path: in a degraded file, a multi-worker cell claiming impossible
    /// throughput must be skipped, not regressed — while its
    /// single-worker cells still gate. Non-skip path: the identical
    /// multi-worker cell in an untagged file must still trip the gate.
    #[test]
    fn degraded_baseline_cells_are_skipped_but_untagged_ones_gate() {
        let degraded = r#"{ "schema": "dbp-bench/shard-v1", "mode": "short",
          "host_parallelism": 1, "degraded_parallelism": true,
          "results": [
            { "algo": "first-fit", "shards": 2, "workers": 2, "items_per_sec": 1e15 },
            { "algo": "first-fit", "shards": 1, "workers": 1, "items_per_sec": 0.001 }
          ] }"#;
        let b = parse_baseline(degraded).unwrap();
        assert!(b.degraded_parallelism);
        let report = run_check(&b, 20.0, 0.0).unwrap();
        assert!(
            report.ok(),
            "an impossible degraded multi-worker cell must be skipped, not gated"
        );
        assert_eq!(report.skipped().len(), 1);
        assert_eq!(report.skipped()[0].label, "first-fit/k2");
        assert!(
            !report.rows[1].skipped,
            "single-worker cells in a degraded file still gate"
        );
        let json = report.to_json();
        assert!(json.contains("\"skipped_cells\": 1"));
        assert!(json.contains("\"skipped\": true"));

        // Same multi-worker cell, file not tagged: gates and trips.
        let untagged = r#"{ "schema": "dbp-bench/shard-v1", "mode": "short",
          "host_parallelism": 1,
          "results": [
            { "algo": "first-fit", "shards": 2, "workers": 2, "items_per_sec": 1e15 }
          ] }"#;
        let b = parse_baseline(untagged).unwrap();
        assert!(!b.degraded_parallelism);
        let report = run_check(&b, 20.0, 0.0).unwrap();
        assert!(!report.ok(), "untagged impossible cell must regress");
        assert!(report.skipped().is_empty());
    }

    #[test]
    fn tolerance_bounds_are_enforced() {
        let b = parse_baseline(TINY_SHARD).unwrap();
        assert!(run_check(&b, 100.0, 0.0).is_err());
        assert!(run_check(&b, -1.0, 0.0).is_err());
        assert!(run_check(&b, 20.0, 100.0).is_err());
    }
}
