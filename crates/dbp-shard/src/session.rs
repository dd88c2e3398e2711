//! The sharded session: K independent [`StreamingSession`]s behind one
//! arrival stream, with persistent worker threads and a deterministic
//! merge at the end.
//!
//! # Execution model
//!
//! Arrivals are routed to shards by the configured [`ShardRouter`] and
//! buffered per worker. The buffer flushes only at a *timestamp
//! boundary* (when the arrival clock advances past the buffered cohort),
//! so every batch a worker receives contains whole timestamps — all
//! events of one instant travel together, the batched analogue of the
//! `run_grid` barrier. Each worker owns a fixed set of shards (shard `i`
//! belongs to worker `i mod T`, the same static interleaving `run_grid`
//! uses for slot distribution), applies its batches in stream order, and
//! accumulates results locally; nothing is shared between workers, and
//! the coordinator merges per-shard results in shard-index order after
//! joining. That is the whole determinism argument: each shard's event
//! sequence is a pure function of `(instance, router, K)`, so per-shard
//! results cannot depend on the worker count or the scheduler, and the
//! merge visits shards in a fixed order.

use crate::report::{FleetTelemetry, ShardReport, ShardSlice};
use crate::router::ShardRouter;
use dbp_core::observe::{EventLog, OpKind, PackEvent, PackObserver};
use dbp_core::online::ClairvoyanceMode;
use dbp_core::stream::StreamingSession;
use dbp_core::{DbpError, IdDedupe, Item, OnlinePacker, Time};
use dbp_obs::{Counters, CountersSnapshot, MetricsAggregator};
use dbp_telemetry::{
    reparent_by_seq, stitch, RunMetrics, SpanCollector, SpanRecord, TelemetryRecorder, WorkMetrics,
    NO_SEQ,
};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`ShardedSession`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of independent shards (K ≥ 1).
    pub shards: usize,
    /// The arrival→shard routing policy.
    pub router: ShardRouter,
    /// Worker threads (`None` = min(K, available parallelism); a value
    /// is clamped to at most K; `Some(0)` is rejected).
    pub threads: Option<usize>,
    /// Flush granularity in buffered items. Batches always end on a
    /// timestamp boundary, so this is a floor, not an exact size.
    pub batch: usize,
    /// Fold per-shard [`MetricsAggregator`] timelines (merged at finish).
    pub collect_metrics: bool,
    /// Keep every [`PackEvent`] per shard (for shard-tagged traces).
    /// Memory-heavy on long streams; off by default.
    pub collect_events: bool,
    /// Attach a [`TelemetryRecorder`] per shard and record coordinator /
    /// worker spans, assembled into a
    /// [`crate::report::FleetTelemetry`] at finish. Adds a sampled-timing
    /// overhead (<5%, measured in `BENCH_telemetry.json`); off by
    /// default.
    pub collect_telemetry: bool,
}

impl ShardConfig {
    /// A config with `shards` shards and the given router; metrics on,
    /// event capture off, default batching.
    pub fn new(shards: usize, router: ShardRouter) -> ShardConfig {
        ShardConfig {
            shards,
            router,
            threads: None,
            batch: 8192,
            collect_metrics: true,
            collect_events: false,
            collect_telemetry: false,
        }
    }

    /// Checks every parameter is inside its documented domain.
    pub fn validate(&self) -> Result<(), DbpError> {
        if self.shards == 0 {
            return Err(DbpError::InvalidParameter {
                what: "shard count must be >= 1".into(),
            });
        }
        if self.batch == 0 {
            return Err(DbpError::InvalidParameter {
                what: "batch size must be >= 1".into(),
            });
        }
        if self.threads == Some(0) {
            return Err(DbpError::InvalidParameter {
                what: "worker thread count must be >= 1".into(),
            });
        }
        self.router.validate()
    }

    /// The worker count this config resolves to.
    fn resolve_workers(&self) -> usize {
        self.threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .clamp(1, self.shards)
    }
}

/// The per-shard observer bundle: counters always, metrics and event
/// capture by configuration.
struct ShardObs {
    counters: Counters,
    metrics: Option<MetricsAggregator>,
    events: Option<EventLog>,
    telemetry: Option<TelemetryRecorder>,
}

impl ShardObs {
    fn new(collect_metrics: bool, collect_events: bool, collect_telemetry: bool) -> ShardObs {
        ShardObs {
            counters: Counters::new(),
            metrics: collect_metrics.then(MetricsAggregator::new),
            events: collect_events.then(EventLog::new),
            telemetry: collect_telemetry.then(TelemetryRecorder::new),
        }
    }
}

impl PackObserver for ShardObs {
    const ENABLED: bool = true;

    fn on_event(&mut self, event: &PackEvent) {
        self.counters.on_event(event);
        if let Some(m) = &mut self.metrics {
            m.on_event(event);
        }
        if let Some(l) = &mut self.events {
            l.on_event(event);
        }
        if let Some(t) = &mut self.telemetry {
            t.on_event(event);
        }
    }

    fn wants_timing(&mut self) -> bool {
        // With telemetry attached, the recorder's 1-in-N sampler decides
        // (its histograms are the timing consumer); without it, keep the
        // historical always-timed behavior that feeds the counters.
        match &mut self.telemetry {
            Some(t) => t.wants_timing(),
            None => true,
        }
    }

    fn on_op(&mut self, op: OpKind, ns: u64) {
        if let Some(t) = &mut self.telemetry {
            t.on_op(op, ns);
        }
    }
}

/// A batch of routed arrivals for one worker (tagged with the flush
/// sequence number its spans stitch against), or the end-of-stream mark.
enum Msg {
    Batch(u64, Vec<(usize, Item)>),
    Finish,
}

/// Per-worker profiling a worker hands back alongside its slices when
/// telemetry is on: its batch spans (recorded against the coordinator's
/// epoch) and its batch-flush histograms.
struct WorkerProf {
    spans: Vec<SpanRecord>,
    run: RunMetrics,
}

/// What one worker hands back: the slices of its owned shards plus its
/// profiling data, or the failing shard and its error (`usize::MAX`
/// marks a panic).
type WorkerResult = Result<(Vec<ShardSlice>, Option<WorkerProf>), (usize, DbpError)>;

struct Worker {
    tx: Option<SyncSender<Msg>>,
    handle: Option<JoinHandle<WorkerResult>>,
    /// Slices recovered by [`join_worker`], collected after all joins.
    stash: Vec<ShardSlice>,
    /// Worker profiling recovered by [`join_worker`].
    prof: Option<WorkerProf>,
}

/// K independent streaming fleets behind a single arrival stream.
///
/// The API mirrors [`StreamingSession`]: feed non-decreasing arrivals
/// with globally unique ids via [`ShardedSession::arrive`], then call
/// [`ShardedSession::finish`] for the merged [`ShardReport`]. A
/// single-shard session is semantically identical to a plain
/// [`StreamingSession`] (proven bit-for-bit in the test suite).
///
/// ```
/// use dbp_algos::online::AnyFit;
/// use dbp_core::online::ClairvoyanceMode;
/// use dbp_core::{Instance, OnlinePacker};
/// use dbp_shard::{ShardConfig, ShardRouter, ShardedSession};
///
/// let inst = Instance::from_triples(&[(0.5, 0, 10), (0.4, 1, 8), (0.3, 2, 12)]);
/// let packers: Vec<Box<dyn OnlinePacker + Send>> = (0..2)
///     .map(|_| Box::new(AnyFit::first_fit()) as Box<dyn OnlinePacker + Send>)
///     .collect();
/// let cfg = ShardConfig::new(2, ShardRouter::hash());
/// let mut fleet = ShardedSession::new(ClairvoyanceMode::Clairvoyant, packers, cfg).unwrap();
/// for item in inst.items() {
///     fleet.arrive(item).unwrap();
/// }
/// let report = fleet.finish().unwrap();
/// assert_eq!(report.items, 3);
/// assert_eq!(report.usage, report.slices.iter().map(|s| s.usage()).sum::<u128>());
/// ```
pub struct ShardedSession {
    cfg: ShardConfig,
    workers: Vec<Worker>,
    /// Buffered routed arrivals, one buffer per worker.
    pending: Vec<Vec<(usize, Item)>>,
    pending_items: usize,
    /// The arrival clock (max arrival fed so far).
    last_arrival: Option<Time>,
    /// Global id dedupe, the same [`IdDedupe`] as [`StreamingSession`].
    seen: IdDedupe,
    items_routed: u64,
    per_shard_routed: Vec<u64>,
    /// Set when a worker died mid-stream: the shard-annotated cause.
    /// Every later `arrive`/`flush` — and `finish` — reports it instead
    /// of touching the torn-down worker again.
    failure: Option<DbpError>,
    /// Coordinator span collector when `collect_telemetry` is on; its
    /// epoch is shared with every worker.
    spans: Option<SpanCollector>,
    /// Id of the root `stream` span inside `spans`.
    root_span: u64,
    /// Sequence number of the next flush (tags batches and flush spans).
    next_seq: u64,
}

impl ShardedSession {
    /// Spawns the worker threads and hands each its shards' packers
    /// (shard `i` is owned by worker `i mod T`). `packers.len()` must
    /// equal `cfg.shards`; every packer is `reset()` by its session.
    pub fn new(
        mode: ClairvoyanceMode,
        packers: Vec<Box<dyn OnlinePacker + Send>>,
        cfg: ShardConfig,
    ) -> Result<ShardedSession, DbpError> {
        cfg.validate()?;
        if packers.len() != cfg.shards {
            return Err(DbpError::InvalidParameter {
                what: format!(
                    "{} packers supplied for {} shards",
                    packers.len(),
                    cfg.shards
                ),
            });
        }
        let workers_n = cfg.resolve_workers();
        let mut per_worker: Vec<Vec<(usize, Box<dyn OnlinePacker + Send>)>> =
            (0..workers_n).map(|_| Vec::new()).collect();
        for (shard, packer) in packers.into_iter().enumerate() {
            per_worker[shard % workers_n].push((shard, packer));
        }
        let (mut spans, mut root_span) = (None, 0);
        if cfg.collect_telemetry {
            let mut c = SpanCollector::new();
            root_span = c.begin("stream", 0, None, NO_SEQ);
            spans = Some(c);
        }
        let epoch = spans.as_ref().map(|c| c.epoch());
        let workers = per_worker
            .into_iter()
            .enumerate()
            .map(|(widx, owned)| {
                // Two batches of backpressure per worker: the coordinator
                // can route ahead while a worker drains, but an unbounded
                // queue can never form.
                let (tx, rx) = sync_channel::<Msg>(2);
                let mode = mode.clone();
                let collect_metrics = cfg.collect_metrics;
                let collect_events = cfg.collect_events;
                let handle = std::thread::spawn(move || {
                    worker_main(
                        mode,
                        owned,
                        rx,
                        collect_metrics,
                        collect_events,
                        epoch,
                        widx,
                    )
                });
                Worker {
                    tx: Some(tx),
                    handle: Some(handle),
                    stash: Vec::new(),
                    prof: None,
                }
            })
            .collect();
        Ok(ShardedSession {
            pending: vec![Vec::new(); workers_n],
            pending_items: 0,
            last_arrival: None,
            seen: IdDedupe::new(),
            items_routed: 0,
            per_shard_routed: vec![0; cfg.shards],
            failure: None,
            spans,
            root_span,
            next_seq: 0,
            cfg,
            workers,
        })
    }

    /// Routes one arrival to its shard. Arrival times must be
    /// non-decreasing and item ids globally unique — the same contract
    /// as [`StreamingSession::arrive`], enforced here at the coordinator
    /// so violations surface identically for every `(K, threads)`
    /// combination. Returns the shard the item was routed to.
    ///
    /// Packer errors inside a shard are asynchronous: they tear down
    /// that worker, and the next `arrive` — or
    /// [`ShardedSession::finish`] — reports the underlying error. After
    /// the first such failure the stream is dead: every subsequent
    /// `arrive` returns the same shard-annotated error.
    pub fn arrive(&mut self, item: &Item) -> Result<usize, DbpError> {
        if let Some(e) = &self.failure {
            return Err(e.clone());
        }
        let now = item.arrival();
        if let Some(last) = self.last_arrival {
            if now < last {
                return Err(DbpError::BadDecision {
                    what: format!("arrivals must be non-decreasing: {now} after {last}"),
                });
            }
        }
        if !self.seen.insert(item.id().0) {
            return Err(DbpError::DuplicateItemId { id: item.id().0 });
        }
        // Timestamp boundary: everything buffered is strictly older than
        // `now`, so the cohort is complete and may be flushed.
        if self.pending_items >= self.cfg.batch && self.last_arrival.is_some_and(|t| now > t) {
            self.flush()?;
        }
        self.last_arrival = Some(now);
        let shard = self.cfg.router.route(item, self.cfg.shards);
        debug_assert!(shard < self.cfg.shards);
        self.pending[shard % self.workers.len()].push((shard, *item));
        self.pending_items += 1;
        self.items_routed += 1;
        self.per_shard_routed[shard] += 1;
        Ok(shard)
    }

    /// The arrival clock (max arrival fed so far).
    pub fn now(&self) -> Option<Time> {
        self.last_arrival
    }

    /// Items routed so far, total and per shard.
    pub fn routed(&self) -> (u64, &[u64]) {
        (self.items_routed, &self.per_shard_routed)
    }

    /// Fans the buffered cohorts out to their workers. Each flush gets a
    /// fresh sequence number shared by every batch it sends, so worker
    /// batch spans can be stitched under the coordinator's flush span.
    fn flush(&mut self) -> Result<(), DbpError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let root = self.root_span;
        let flush_span = self
            .spans
            .as_mut()
            .map(|c| c.begin("flush", 0, Some(root), seq));
        let result = self.flush_inner(seq);
        if let (Some(c), Some(id)) = (self.spans.as_mut(), flush_span) {
            c.end(id);
        }
        result
    }

    fn flush_inner(&mut self, seq: u64) -> Result<(), DbpError> {
        for w in 0..self.workers.len() {
            if self.pending[w].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.pending[w]);
            self.pending_items -= batch.len();
            let Some(tx) = self.workers[w].tx.as_ref() else {
                // This worker was already joined by an earlier failed
                // flush. Re-surface the recorded failure instead of
                // panicking at the missing sender.
                let e = self.failure.clone().unwrap_or_else(|| DbpError::Internal {
                    what: "shard worker unavailable with no recorded failure".into(),
                });
                return Err(e);
            };
            if tx.send(Msg::Batch(seq, batch)).is_err() {
                // The worker exited early — its packer rejected an item
                // or a session invariant tripped. Join it for the real
                // error.
                let e = match join_worker(&mut self.workers[w]) {
                    Some((usize::MAX, e)) => e,
                    Some((shard, e)) => annotate(shard, e),
                    None => DbpError::Internal {
                        what: "shard worker exited without reporting an error".into(),
                    },
                };
                self.failure = Some(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    /// Flushes the stream, joins every worker, and merges per-shard
    /// results into a [`ShardReport`] — in shard-index order, so the
    /// merged report is bit-identical for every worker count and
    /// schedule.
    pub fn finish(mut self) -> Result<ShardReport, DbpError> {
        let flush_result = if self.failure.is_some() {
            Ok(())
        } else {
            self.flush()
        };
        for w in &self.workers {
            if let Some(tx) = &w.tx {
                // A dead worker's channel just errors; its join result
                // carries the diagnosis.
                let _ = tx.send(Msg::Finish);
            }
        }
        let mut first_error: Option<(usize, DbpError)> = None;
        for w in &mut self.workers {
            if let Some((shard, e)) = join_worker(w) {
                if shard == usize::MAX {
                    // A panic, not a shard error: surface immediately.
                    return Err(e);
                }
                if first_error.as_ref().is_none_or(|(s, _)| shard < *s) {
                    first_error = Some((shard, e));
                }
            }
        }
        if let Some((shard, e)) = first_error {
            return Err(annotate(shard, e));
        }
        if let Some(e) = self.failure.take() {
            // The failing worker was already joined mid-stream, so the
            // loop above saw nothing; report the recorded cause rather
            // than a confusing missing-slices count.
            return Err(e);
        }
        flush_result?;
        let mut slices: Vec<ShardSlice> = Vec::with_capacity(self.cfg.shards);
        let mut profs: Vec<WorkerProf> = Vec::new();
        for w in &mut self.workers {
            slices.append(&mut w.stash);
            profs.extend(w.prof.take());
        }
        slices.sort_by_key(|s| s.shard);
        if slices.len() != self.cfg.shards {
            return Err(DbpError::Internal {
                what: format!(
                    "expected {} shard results, got {}",
                    self.cfg.shards,
                    slices.len()
                ),
            });
        }
        let merge_started = self.spans.as_ref().map(|c| (c.now_ns(), Instant::now()));
        let mut report =
            ShardReport::merge(&self.cfg, self.workers.len(), self.items_routed, slices);
        if let (Some(mut coord), Some((start_ns, started))) = (self.spans.take(), merge_started) {
            let merge_ns = started.elapsed().as_nanos() as u64;
            coord.record("merge", 0, Some(self.root_span), NO_SEQ, start_ns, merge_ns);
            coord.end(self.root_span);
            report.telemetry = Some(assemble_fleet_telemetry(
                coord,
                profs,
                &report.slices,
                merge_ns,
            ));
        }
        Ok(report)
    }
}

impl Drop for ShardedSession {
    fn drop(&mut self) {
        // Abandoned without finish(): close the channels and reap the
        // threads so a dropped session cannot leak workers.
        for w in &mut self.workers {
            w.tx = None;
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Prefixes a worker error with its shard for diagnosis.
fn annotate(shard: usize, e: DbpError) -> DbpError {
    DbpError::BadDecision {
        what: format!("shard {shard}: {e}"),
    }
}

/// Joins a worker (idempotent), returning its error if it failed.
/// Successful slices land in the worker's `stash`; a panicking worker
/// reports as `(usize::MAX, Internal)`.
fn join_worker(w: &mut Worker) -> Option<(usize, DbpError)> {
    w.tx = None;
    let handle = w.handle.take()?;
    match handle.join() {
        Ok(Ok((slices, prof))) => {
            w.stash = slices;
            w.prof = prof;
            None
        }
        Ok(Err((shard, e))) => Some((shard, e)),
        Err(payload) => {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "<non-string panic payload>".to_string()
            };
            Some((
                usize::MAX,
                DbpError::Internal {
                    what: format!("shard worker panicked: {msg}"),
                },
            ))
        }
    }
}

/// One worker thread: owns its shards' packers and sessions for the
/// whole stream, applies batches in arrival order, finishes every
/// session at end-of-stream.
fn worker_main(
    mode: ClairvoyanceMode,
    mut packers: Vec<(usize, Box<dyn OnlinePacker + Send>)>,
    rx: Receiver<Msg>,
    collect_metrics: bool,
    collect_events: bool,
    epoch: Option<Instant>,
    worker_idx: usize,
) -> WorkerResult {
    // slot_of[shard] = index into `sessions` (usize::MAX for foreign
    // shards — a routing bug lands on the bounds check, not silence).
    let max_shard = packers.iter().map(|(s, _)| *s).max().unwrap_or(0);
    let mut slot_of = vec![usize::MAX; max_shard + 1];
    for (slot, (shard, _)) in packers.iter().enumerate() {
        slot_of[*shard] = slot;
    }
    let collect_telemetry = epoch.is_some();
    // Worker-level profiling: batch spans on this worker's own track
    // (recorded against the coordinator's epoch so all spans share one
    // timeline) plus batch-flush histograms. Batch spans carry the flush
    // sequence and are reparented under the coordinator's flush span
    // when the fleet report is assembled.
    let mut spans = epoch.map(SpanCollector::with_epoch);
    let mut batch_rec = collect_telemetry.then(TelemetryRecorder::new);
    let track = worker_idx as u32 + 1;
    let mut sessions: Vec<(usize, StreamingSession<'_, ShardObs>, usize, u64)> = packers
        .iter_mut()
        .map(|(shard, p)| {
            let obs = ShardObs::new(collect_metrics, collect_events, collect_telemetry);
            (
                *shard,
                StreamingSession::with_observer(mode.clone(), p.as_mut(), obs),
                0usize,
                0u64,
            )
        })
        .collect();
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(seq, batch) => {
                let started = spans.as_ref().map(|c| (c.now_ns(), Instant::now()));
                let count = batch.len() as u64;
                for (shard, item) in batch {
                    let entry = &mut sessions[slot_of[shard]];
                    if let Err(e) = entry.1.arrive(&item) {
                        return Err((shard, e));
                    }
                    entry.2 = entry.2.max(entry.1.open_bins());
                    entry.3 += 1;
                }
                if let (Some(c), Some((start_ns, started))) = (spans.as_mut(), started) {
                    let ns = started.elapsed().as_nanos() as u64;
                    c.record("batch", track, None, seq, start_ns, ns);
                    if let Some(r) = batch_rec.as_mut() {
                        r.record_batch(count, ns);
                    }
                }
            }
            Msg::Finish => break,
        }
    }
    let mut slices = Vec::with_capacity(sessions.len());
    for (shard, session, peak, items) in sessions {
        let (run, obs) = session.finish_with_observer().map_err(|e| (shard, e))?;
        slices.push(ShardSlice {
            shard,
            items,
            peak_open_bins: peak,
            counters: obs.counters.snapshot(),
            metrics: obs.metrics.map(|m| m.report()),
            events: obs.events.map(|l| l.events),
            telemetry: obs.telemetry.map(|t| t.into_snapshot()),
            run,
        });
    }
    let prof = spans.map(|c| WorkerProf {
        spans: c.into_spans(),
        run: batch_rec.map(|r| r.into_snapshot().run).unwrap_or_default(),
    });
    Ok((slices, prof))
}

/// Stitches coordinator and worker spans into one tree and folds the
/// telemetry histograms: work metrics merge deterministically in
/// shard-index order, run metrics combine for display only.
fn assemble_fleet_telemetry(
    coord: SpanCollector,
    profs: Vec<WorkerProf>,
    slices: &[ShardSlice],
    merge_ns: u64,
) -> FleetTelemetry {
    let work_parts: Vec<&WorkMetrics> = slices
        .iter()
        .filter_map(|s| s.telemetry.as_ref().map(|t| &t.work))
        .collect();
    let work = WorkMetrics::merged(&work_parts);
    let mut coord_run = RunMetrics::default();
    coord_run.merge_ns.record(merge_ns);
    let mut run_parts: Vec<&RunMetrics> = slices
        .iter()
        .filter_map(|s| s.telemetry.as_ref().map(|t| &t.run))
        .collect();
    run_parts.extend(profs.iter().map(|p| &p.run));
    run_parts.push(&coord_run);
    let run_combined = RunMetrics::combined(&run_parts);
    let mut parts = vec![coord.into_spans()];
    parts.extend(profs.into_iter().map(|p| p.spans));
    let mut spans = stitch(parts);
    reparent_by_seq(&mut spans, "batch", "flush");
    FleetTelemetry {
        work,
        run_combined,
        spans,
    }
}

/// The merged counters of a slice set, for callers that keep slices
/// around without a full report.
pub fn merged_counters(slices: &[ShardSlice]) -> CountersSnapshot {
    let parts: Vec<CountersSnapshot> = slices.iter().map(|s| s.counters).collect();
    CountersSnapshot::merged(&parts)
}
