//! The engine workloads: a `StreamingSession` or `VecStreamingSession`
//! driven from outside, one arrival at a time, through the public calls
//! an integrator uses (`advance_to`, `arrive`, `finish`).
//!
//! Untraced repetitions give the end-to-end numbers. A traced
//! repetition reads clocks around `advance_to` and `arrive` for one
//! arrival in [`SAMPLE`], and a [`Probe`] wrapped around the boxed
//! packer times `place` on the same arrivals, so each sampled arrival
//! splits into sweep, packer decision and the session's own commit
//! work.

use crate::common::{
    composite, median, percentile, proc_status_bytes, secs, Fnv, LayerSplit, Outcome, RunOpts,
    Scale, MIB,
};
use dbp_bench::registry::{online_packer, vector_packer, AlgoParams};
use dbp_core::accounting::lower_bounds;
use dbp_core::online::ItemView;
use dbp_core::vecstream::{VecClairvoyance, VecItemView, VecOnlinePacker, VecStreamingSession};
use dbp_core::{
    BinId, ClairvoyanceMode, DbpError, Decision, Instance, Item, OnlinePacker, OnlineRun, OpenBins,
    StreamingSession, Time, VecInstance, VecItem, VecOpenBins,
};
use dbp_workloads::random::{DurationDist, PoissonWorkload};
use dbp_workloads::vector::{CorrelatedVectorWorkload, VectorWorkload};
use dbp_workloads::Workload;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// One traced arrival in this many, as dbp-telemetry samples.
pub const SAMPLE: u64 = 16;

/// Slices of the arrive loop timed separately in each repetition, and
/// the fewest repetitions a run makes.
const SEGMENTS: usize = 20;
const MIN_REPS: usize = 4;

/// A latency pass: a fresh session takes `WARM_UP` arrivals untimed (so
/// a deep fleet has filled), then `BLOCKS` blocks of `BLOCK` arrivals
/// timed one call at a time (a p99 with 100 samples beyond it). A run
/// makes at least `MIN_PASSES` passes.
const WARM_UP: usize = 50_000;
const BLOCKS: usize = 8;
const BLOCK: usize = 10_000;
const MIN_PASSES: usize = 5;

/// A named engine workload.
#[derive(Clone, Copy, Debug)]
pub struct EngineSpec {
    pub name: &'static str,
    /// Roster name of the online packer.
    pub algo: &'static str,
}

pub const SPECS: [EngineSpec; 3] = [
    EngineSpec {
        name: "stream-cbd",
        algo: "cbd",
    },
    EngineSpec {
        name: "stream-deep-bf",
        algo: "best-fit",
    },
    EngineSpec {
        name: "vector-booked-bf",
        algo: "best-fit",
    },
];

pub fn spec(name: &str) -> Option<EngineSpec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// The generated input of one engine workload.
pub enum Stream {
    Scalar(Instance),
    Vector(VecInstance),
}

impl Stream {
    /// Number of items.
    pub fn count(&self) -> usize {
        match self {
            Stream::Scalar(i) => i.len(),
            Stream::Vector(v) => v.len(),
        }
    }

    /// Fingerprint of the stream in the order the session receives it.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv::default();
        match self {
            Stream::Scalar(inst) => {
                for it in inst.items() {
                    h.word(u64::from(it.id().0));
                    h.word(it.size().raw());
                    h.word(it.arrival() as u64);
                    h.word(it.departure() as u64);
                }
            }
            Stream::Vector(inst) => {
                for it in inst.items() {
                    h.word(u64::from(it.id().0));
                    for a in it.size().axes() {
                        h.word(a.raw());
                    }
                    h.word(it.arrival() as u64);
                    h.word(it.departure() as u64);
                }
            }
        }
        h.hex()
    }
}

/// Generates a workload's input from `seed`.
pub fn generate(name: &str, seed: u64, scale: Scale) -> Stream {
    let deep = DurationDist::Exponential {
        mean: 1000.0,
        min: 1,
        max: 10_000,
    };
    // Poisson arrivals at 4 per tick; the full horizon gives ~1.04M items.
    let horizon = match scale {
        Scale::Full => 260_000,
        Scale::Tiny => 2_600,
    };
    match name {
        // Exponential durations of mean 50 (the generator default): ~90
        // open bins, ids in arrival order.
        "stream-cbd" => Stream::Scalar(Workload::generate_seeded(
            &PoissonWorkload::new(4.0, horizon),
            seed,
        )),
        // The same arrivals held by mean-1000 durations: ~1,200 open bins.
        "stream-deep-bf" => Stream::Scalar(Workload::generate_seeded(
            &PoissonWorkload::new(4.0, horizon).with_durations(deep),
            seed,
        )),
        // The deep corr-vec recipe: three correlated axes, one arrival
        // per tick, ids assigned in booking order (before the arrival
        // sort), so ids reach the session out of order.
        "vector-booked-bf" => {
            let n = match scale {
                Scale::Full => 1_050_000,
                Scale::Tiny => 10_500,
            };
            let w = CorrelatedVectorWorkload::new(n, &[0.3, 0.2, 0.45], 0.5, 0.6)
                .expect("the corr-vec recipe is valid")
                .with_durations(deep)
                .with_arrival_span(n as i64);
            Stream::Vector(w.generate_seeded(seed))
        }
        other => panic!("unknown engine workload {other:?}"),
    }
}

/// Builds the packer and session an untraced repetition starts from
/// (the set-up cost beyond generation).
pub fn build_session(input: &Stream, algo: &str) {
    fn build<F: Flavor>(input: &F, algo: &str) {
        let mut p = input.packer(algo);
        std::hint::black_box(F::session(&mut p).open_bins());
    }
    match input {
        Stream::Scalar(i) => build(i, algo),
        Stream::Vector(v) => build(v, algo),
    }
}

/// What a workload item exposes to the benchmark loop.
pub trait Arrival {
    fn at(&self) -> Time;
    fn departs(&self) -> Time;
    fn raw_id(&self) -> u32;
}

impl Arrival for Item {
    fn at(&self) -> Time {
        self.arrival()
    }
    fn departs(&self) -> Time {
        self.departure()
    }
    fn raw_id(&self) -> u32 {
        self.id().0
    }
}

impl Arrival for VecItem {
    fn at(&self) -> Time {
        self.arrival()
    }
    fn departs(&self) -> Time {
        self.departure()
    }
    fn raw_id(&self) -> u32 {
        self.id().0
    }
}

/// The session calls the benchmark loop makes, over the scalar and vector
/// sessions alike.
pub trait Session {
    type Item: Arrival;
    fn advance_to(&mut self, t: Time) -> Result<(), DbpError>;
    fn arrive(&mut self, item: &Self::Item) -> Result<BinId, DbpError>;
    fn open_bins(&self) -> usize;
    fn live_bytes(&self) -> usize;
    /// `None` where the session has no such accessor (vector).
    fn dedupe_backlog(&self) -> Option<usize>;
    fn finish(self) -> Result<OnlineRun, DbpError>;
}

impl Session for StreamingSession<'_> {
    type Item = Item;
    fn advance_to(&mut self, t: Time) -> Result<(), DbpError> {
        StreamingSession::advance_to(self, t)
    }
    fn arrive(&mut self, item: &Item) -> Result<BinId, DbpError> {
        StreamingSession::arrive(self, item)
    }
    fn open_bins(&self) -> usize {
        StreamingSession::open_bins(self)
    }
    fn live_bytes(&self) -> usize {
        self.approx_live_bytes()
    }
    fn dedupe_backlog(&self) -> Option<usize> {
        Some(StreamingSession::dedupe_backlog(self))
    }
    fn finish(self) -> Result<OnlineRun, DbpError> {
        StreamingSession::finish(self)
    }
}

impl Session for VecStreamingSession<'_> {
    type Item = VecItem;
    fn advance_to(&mut self, t: Time) -> Result<(), DbpError> {
        VecStreamingSession::advance_to(self, t)
    }
    fn arrive(&mut self, item: &VecItem) -> Result<BinId, DbpError> {
        VecStreamingSession::arrive(self, item)
    }
    fn open_bins(&self) -> usize {
        VecStreamingSession::open_bins(self)
    }
    fn live_bytes(&self) -> usize {
        self.approx_live_bytes()
    }
    fn dedupe_backlog(&self) -> Option<usize> {
        None
    }
    fn finish(self) -> Result<OnlineRun, DbpError> {
        VecStreamingSession::finish(self)
    }
}

/// The timing wrapper around a boxed packer. It times `place` on one
/// call in [`SAMPLE`] (the same calls the benchmark loop samples, since every
/// `arrive` makes exactly one `place` call), counts opened bins and
/// index probes on every call, and can inject one wrong decision so the
/// correctness gate can be shown to trip.
pub struct Probe<P> {
    inner: P,
    calls: u64,
    opened: u64,
    probes: u64,
    /// `(item id, ns)` per sampled `place` call.
    decide: Vec<(u32, u64)>,
    /// Turn the first reuse decision at or after this call into a new
    /// bin.
    fault_from: Option<u64>,
}

impl<P> Probe<P> {
    pub fn new(inner: P, fault_from: Option<u64>) -> Self {
        Probe {
            inner,
            calls: 0,
            opened: 0,
            probes: 0,
            decide: Vec::new(),
            fault_from,
        }
    }

    fn place_with(
        &mut self,
        id: u32,
        tag_of: impl Fn(BinId) -> u64,
        place: impl FnOnce(&mut P) -> Decision,
    ) -> Decision {
        let mut d = if self.calls.is_multiple_of(SAMPLE) {
            let t = Instant::now();
            let d = place(&mut self.inner);
            self.decide.push((id, t.elapsed().as_nanos() as u64));
            d
        } else {
            place(&mut self.inner)
        };
        if let (Some(from), Decision::Existing(b)) = (self.fault_from, d) {
            if self.calls >= from {
                d = Decision::New { tag: tag_of(b) };
                self.fault_from = None;
            }
        }
        self.calls += 1;
        if matches!(d, Decision::New { .. }) {
            self.opened += 1;
        }
        d
    }
}

impl OnlinePacker for Probe<Box<dyn OnlinePacker + Send>> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn place(&mut self, item: &ItemView, open_bins: &OpenBins) -> Decision {
        let d = self.place_with(
            item.id.0,
            |b| open_bins.get(b).map_or(0, |bin| bin.tag()),
            |p| p.place(item, open_bins),
        );
        self.probes += self.inner.last_scanned().unwrap_or(0) as u64;
        d
    }
    fn last_scanned(&self) -> Option<usize> {
        self.inner.last_scanned()
    }
}

impl VecOnlinePacker for Probe<Box<dyn VecOnlinePacker + Send>> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn reset(&mut self) {
        self.inner.reset()
    }
    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision {
        let d = self.place_with(
            item.id.0,
            |b| open_bins.get(b).map_or(0, |bin| bin.tag()),
            |p| p.place(item, open_bins),
        );
        self.probes += self.inner.last_scanned().unwrap_or(0) as u64;
        d
    }
    fn last_scanned(&self) -> Option<usize> {
        self.inner.last_scanned()
    }
}

/// A stream type the benchmark loop can run: its items, packer factory, session
/// constructors and correctness oracles.
pub trait Flavor {
    type Item: Arrival;
    type Boxed;
    type Sess<'p>: Session<Item = Self::Item>
    where
        Self: 'p;
    fn items(&self) -> &[Self::Item];
    fn packer(&self, algo: &str) -> Self::Boxed;
    fn session(p: &mut Self::Boxed) -> Self::Sess<'_>;
    fn probed(p: &mut Probe<Self::Boxed>) -> Self::Sess<'_>;
    /// Full validation of a finished run against the input: coverage
    /// and capacity (per axis for vectors).
    fn validate(&self, run: &OnlineRun) -> Result<(), String>;
    /// `(arrival, departure)` indexed by item id.
    fn spans(&self) -> Vec<(Time, Time)> {
        let mut spans = Vec::new();
        for it in self.items() {
            let id = it.raw_id() as usize;
            if spans.len() <= id {
                spans.resize(id + 1, (0, 0));
            }
            spans[id] = (it.at(), it.departs());
        }
        spans
    }
    /// The Proposition 3 bound (max-axis for vectors).
    fn lower_bound(&self) -> u128;
}

impl Flavor for Instance {
    type Item = Item;
    type Boxed = Box<dyn OnlinePacker + Send>;
    type Sess<'p> = StreamingSession<'p>;
    fn items(&self) -> &[Item] {
        Instance::items(self)
    }
    fn packer(&self, algo: &str) -> Self::Boxed {
        online_packer(algo, AlgoParams::from_instance(self))
    }
    fn session(p: &mut Self::Boxed) -> StreamingSession<'_> {
        StreamingSession::new(ClairvoyanceMode::Clairvoyant, p.as_mut())
    }
    fn probed(p: &mut Probe<Self::Boxed>) -> StreamingSession<'_> {
        StreamingSession::new(ClairvoyanceMode::Clairvoyant, p)
    }
    fn validate(&self, run: &OnlineRun) -> Result<(), String> {
        run.packing.validate(self).map_err(|e| e.to_string())
    }
    fn lower_bound(&self) -> u128 {
        lower_bounds(self).lb3
    }
}

impl Flavor for VecInstance {
    type Item = VecItem;
    type Boxed = Box<dyn VecOnlinePacker + Send>;
    type Sess<'p> = VecStreamingSession<'p>;
    fn items(&self) -> &[VecItem] {
        VecInstance::items(self)
    }
    fn packer(&self, algo: &str) -> Self::Boxed {
        vector_packer(algo, AlgoParams::from_vec_instance(self))
    }
    fn session(p: &mut Self::Boxed) -> VecStreamingSession<'_> {
        VecStreamingSession::new(VecClairvoyance::Clairvoyant, p.as_mut())
    }
    fn probed(p: &mut Probe<Self::Boxed>) -> VecStreamingSession<'_> {
        VecStreamingSession::new(VecClairvoyance::Clairvoyant, p)
    }
    fn validate(&self, run: &OnlineRun) -> Result<(), String> {
        self.validate_packing(&run.packing)
            .map_err(|e| e.to_string())
    }
    fn lower_bound(&self) -> u128 {
        self.vector_lower_bound()
    }
}

/// Usage recomputed from the packing alone: each online bin is busy
/// from its first member's arrival to its last member's departure.
pub fn usage_from_packing(run: &OnlineRun, spans: &[(Time, Time)]) -> Option<u128> {
    let mut total = 0u128;
    for (_, members) in run.packing.iter_bins() {
        let mut open = Time::MAX;
        let mut close = Time::MIN;
        for id in members {
            let &(a, d) = spans.get(id.0 as usize)?;
            open = open.min(a);
            close = close.max(d);
        }
        if !members.is_empty() {
            total += (close - open) as u128;
        }
    }
    Some(total)
}

/// Wall-clock marks of one untraced repetition.
struct Untimed {
    run: OnlineRun,
    /// Seconds spent on each of the [`SEGMENTS`] equal slices of the
    /// arrive loop, then on `finish()`.
    seg_s: Vec<f64>,
    /// Peak resident-set growth over the repetition (bytes), when
    /// sampled.
    rss_growth: Option<u64>,
}

impl Untimed {
    fn total_s(&self) -> f64 {
        self.seg_s.iter().sum()
    }
}

fn untraced<F: Flavor>(
    input: &F,
    algo: &str,
    sample_rss: bool,
    fails: &mut u64,
) -> Result<Untimed, DbpError> {
    let items = input.items();
    let mut packer = input.packer(algo);
    let base_rss = if sample_rss {
        release_free_memory();
        rss()
    } else {
        0
    };
    let mut peak_rss = base_rss;
    let mut seg_s = Vec::with_capacity(SEGMENTS + 1);
    let mut mark = Instant::now();
    let mut s = F::session(&mut packer);
    for (j, slice) in segments(items).enumerate() {
        for (k, it) in slice.iter().enumerate() {
            if let Err(e) = s
                .advance_to(it.at())
                .and_then(|()| s.arrive(it).map(|_| ()))
            {
                *fails += 1;
                return Err(e);
            }
            if sample_rss && (j * slice.len() + k) % 16_384 == 0 {
                peak_rss = peak_rss.max(rss());
            }
        }
        seg_s.push(secs(mark));
        mark = Instant::now();
    }
    let run = s.finish()?;
    seg_s.push(secs(mark));
    if sample_rss {
        peak_rss = peak_rss.max(rss());
    }
    Ok(Untimed {
        run,
        seg_s,
        rss_growth: sample_rss.then(|| peak_rss.saturating_sub(base_rss)),
    })
}

/// The arrive loop cut into [`SEGMENTS`] slices (the last takes the
/// remainder).
fn segments<T>(items: &[T]) -> impl Iterator<Item = &[T]> {
    let len = items.len().div_ceil(SEGMENTS).max(1);
    items.chunks(len)
}

/// Hands freed heap pages back to the kernel, so that pages the next
/// phase reuses count as resident-set growth instead of hiding in the
/// allocator's free lists.
fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // returns free pages of the process heap to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

fn rss() -> u64 {
    proc_status_bytes("self", "VmRSS").unwrap_or(0)
}

/// One sampled arrival of a traced repetition.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub sweep_ns: u64,
    pub arrive_ns: u64,
    pub decide_ns: u64,
}

/// Everything one traced repetition measured.
pub struct Traced {
    pub run: OnlineRun,
    pub total_s: f64,
    pub finish_s: f64,
    pub spans: Vec<Span>,
    pub decisions: u64,
    pub opened: u64,
    pub probes: u64,
    pub open_bins_peak: usize,
    pub live_bytes_peak: usize,
    pub dedupe_backlog_peak: Option<usize>,
}

/// One traced repetition; `fault_from` injects a wrong decision through
/// the probe.
pub fn traced<F: Flavor>(
    input: &F,
    algo: &str,
    fault_from: Option<u64>,
) -> Result<Traced, DbpError> {
    let items = input.items();
    let mut probe = Probe::new(input.packer(algo), fault_from);
    let mut marks: Vec<(u32, u64, u64)> = Vec::with_capacity(items.len() / SAMPLE as usize + 1);
    let (mut open_peak, mut live_peak, mut backlog_peak) = (0usize, 0usize, None::<usize>);
    let started = Instant::now();
    let mut s = F::probed(&mut probe);
    for (k, it) in items.iter().enumerate() {
        if (k as u64).is_multiple_of(SAMPLE) {
            let t0 = Instant::now();
            s.advance_to(it.at())?;
            let t1 = Instant::now();
            s.arrive(it)?;
            let t2 = Instant::now();
            marks.push((
                it.raw_id(),
                t1.duration_since(t0).as_nanos() as u64,
                t2.duration_since(t1).as_nanos() as u64,
            ));
            open_peak = open_peak.max(s.open_bins());
            if let Some(b) = s.dedupe_backlog() {
                backlog_peak = Some(backlog_peak.unwrap_or(0).max(b));
            }
            if k % 1024 == 0 {
                live_peak = live_peak.max(s.live_bytes());
            }
        } else {
            s.advance_to(it.at())?;
            s.arrive(it)?;
        }
    }
    let finish_at = Instant::now();
    let run = s.finish()?;
    let finish_s = secs(finish_at);
    let total_s = secs(started);
    if probe.decide.len() != marks.len() {
        return Err(DbpError::Internal {
            what: format!(
                "probe sampled {} place calls, the loop sampled {} arrivals",
                probe.decide.len(),
                marks.len()
            ),
        });
    }
    let mut spans = Vec::with_capacity(marks.len());
    for (&(id, sweep_ns, arrive_ns), &(pid, decide_ns)) in marks.iter().zip(&probe.decide) {
        if id != pid {
            return Err(DbpError::Internal {
                what: format!("span mismatch: the loop sampled item {id}, probe item {pid}"),
            });
        }
        spans.push(Span {
            id,
            sweep_ns,
            arrive_ns,
            decide_ns,
        });
    }
    Ok(Traced {
        run,
        total_s,
        finish_s,
        spans,
        decisions: probe.calls,
        opened: probe.opened,
        probes: probe.probes,
        open_bins_peak: open_peak,
        live_bytes_peak: live_peak,
        dedupe_backlog_peak: backlog_peak,
    })
}

/// One latency pass on a fresh session: `WARM_UP` arrivals untimed,
/// then [`BLOCKS`] blocks timed one `advance_to`+`arrive` call at a time,
/// back to back. Timing each call rather than from a due time keeps a
/// host stall to the one call it lands on. Returns the arrivals fed and
/// each block's `(p50, p99)` in microseconds.
fn latency_pass<F: Flavor>(input: &F, algo: &str) -> Result<(usize, Vec<(f64, f64)>), DbpError> {
    let items = input.items();
    let warm = WARM_UP.min(items.len() / 8);
    let len = BLOCK.min((items.len() - warm) / BLOCKS);
    let mut packer = input.packer(algo);
    let mut s = F::session(&mut packer);
    for it in &items[..warm] {
        s.advance_to(it.at())?;
        s.arrive(it)?;
    }
    let mut blocks = Vec::with_capacity(BLOCKS);
    let mut lat = Vec::with_capacity(len);
    for block in items[warm..].chunks(len).take(BLOCKS) {
        lat.clear();
        for it in block {
            let t = Instant::now();
            s.advance_to(it.at())?;
            s.arrive(it)?;
            lat.push(t.elapsed().as_nanos() as u64);
        }
        lat.sort_unstable();
        let us = |q| percentile(&lat, q) as f64 / 1e3;
        blocks.push((us(0.5), us(0.99)));
    }
    Ok((warm + BLOCKS * len, blocks))
}

/// The cost of one `Instant::now()` read, removed from the spans that
/// enclose extra reads.
fn clock_cost_ns() -> f64 {
    let n = 200_000;
    let t = Instant::now();
    let mut sink = t;
    for _ in 0..n {
        sink = std::hint::black_box(Instant::now());
    }
    sink.duration_since(t).as_nanos() as f64 / n as f64
}

/// The per-layer numbers of traced repetitions, per item.
pub struct LayerMeans {
    pub sweep_ns: f64,
    pub commit_ns: f64,
    pub decide_ns: f64,
    pub finish_ms: f64,
}

/// Means over every sampled span, with the clock reads a span encloses
/// beyond its own pair removed: the decide and sweep spans each hold
/// one read's cost, and the arrive span also holds the probe's pair.
pub fn layer_means(reps: &[Traced], clock_ns: f64) -> LayerMeans {
    let n: usize = reps.iter().map(|r| r.spans.len()).sum();
    let n = n.max(1) as f64;
    let sum = |f: fn(&Span) -> u64| -> f64 {
        reps.iter()
            .flat_map(|r| r.spans.iter())
            .map(|s| f(s) as f64)
            .sum::<f64>()
            / n
    };
    let sweep = sum(|s| s.sweep_ns) - clock_ns;
    let decide = sum(|s| s.decide_ns) - clock_ns;
    let arrive = sum(|s| s.arrive_ns) - clock_ns;
    LayerMeans {
        sweep_ns: sweep,
        commit_ns: arrive - decide - 2.0 * clock_ns,
        decide_ns: decide,
        finish_ms: reps.iter().map(|r| r.finish_s).sum::<f64>() * 1e3 / reps.len().max(1) as f64,
    }
}

/// Splits the traced wall time of `reps` (milliseconds per repetition)
/// into the engine layers.
pub fn layer_split(reps: &[Traced], m: &LayerMeans, items: usize) -> LayerSplit {
    let reps_n = reps.len().max(1) as f64;
    let per_item_ms = |ns: f64| ns * items as f64 / 1e6;
    LayerSplit {
        unit: "ms per repetition",
        total: reps.iter().map(|r| r.total_s).sum::<f64>() * 1e3 / reps_n,
        layers: vec![
            ("stream.sweep", per_item_ms(m.sweep_ns)),
            ("stream.commit", per_item_ms(m.commit_ns)),
            ("packer.decide", per_item_ms(m.decide_ns)),
            ("stream.finish", m.finish_ms),
        ],
    }
}

/// Checks one finished run against the reference run of the same input.
fn same_run(what: &str, run: &OnlineRun, reference: &OnlineRun, out: &mut Outcome) {
    out.check(run.packing == reference.packing, || {
        format!("{what}: some item landed in a different bin than in the reference run")
    });
    out.check(run.usage == reference.usage, || {
        format!(
            "{what}: usage {} differs from the reference {}",
            run.usage, reference.usage
        )
    });
}

/// Runs one engine workload on a generated input.
pub fn run(spec: &EngineSpec, input: &Stream, opts: &RunOpts, out: &mut Outcome) {
    match input {
        Stream::Scalar(inst) => run_flavor(spec, inst, opts, out),
        Stream::Vector(inst) => run_flavor(spec, inst, opts, out),
    }
}

fn run_flavor<F: Flavor>(spec: &EngineSpec, input: &F, opts: &RunOpts, out: &mut Outcome) {
    let items = input.items();
    let n = items.len();
    let mut arrive_fails = 0u64;

    // Reference repetition: memory, full validation, usage oracle.
    let reference = match untraced(input, spec.algo, true, &mut arrive_fails) {
        Ok(r) => r,
        Err(e) => {
            out.attempted += n as u64;
            out.failed += arrive_fails.max(1);
            out.failures.push(format!("reference run failed: {e}"));
            return;
        }
    };
    out.attempted += n as u64;
    let validated = input.validate(&reference.run);
    out.check(validated.is_ok(), || {
        format!("packing invalid: {}", validated.unwrap_err())
    });
    let recomputed = usage_from_packing(&reference.run, &input.spans());
    out.check(recomputed == Some(reference.run.usage), || {
        format!(
            "usage recomputed from the packing is {recomputed:?}, the session reported {}",
            reference.run.usage
        )
    });
    let records_total: u128 = reference.run.bins.iter().map(|b| b.usage()).sum();
    out.check(records_total == reference.run.usage, || {
        "bin records do not sum to the reported usage".into()
    });
    let lb3 = input.lower_bound();
    out.check(lb3 > 0 && reference.run.usage >= lb3, || {
        format!("usage {} below the Prop 3 bound {lb3}", reference.run.usage)
    });
    let usage_ratio = reference.run.usage as f64 / lb3.max(1) as f64;
    out.fact("items", n);
    out.fact("bins_opened", reference.run.bins_opened());

    if opts.traced {
        trace_mode(spec, input, &reference.run, opts, out);
        return;
    }

    // Timed untraced repetitions, each followed by a latency pass. Every
    // repetition does the same work slice by slice, and so does every
    // pass block by block; other tenants of a shared host only ever slow
    // a slice or a block down, so a run reports the least time each took
    // (see README.md, "Why best-of").
    let budget = Duration::from_secs_f64(0.75 * opts.seconds);
    let started = Instant::now();
    let (mut reps, mut passes) = (Vec::new(), Vec::new());
    while reps.len() < MIN_REPS || started.elapsed() < budget || passes.len() < MIN_PASSES {
        if reps.len() < MIN_REPS || started.elapsed() < budget {
            out.attempted += n as u64;
            match untraced(input, spec.algo, false, &mut arrive_fails) {
                Ok(r) => {
                    same_run("untraced repetition", &r.run, &reference.run, out);
                    reps.push(r.seg_s);
                }
                Err(e) => {
                    out.failures.push(format!("repetition failed: {e}"));
                    break;
                }
            }
        }
        match latency_pass(input, spec.algo) {
            Ok((fed, blocks)) => {
                out.attempted += fed as u64;
                passes.push(blocks);
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("latency pass failed: {e}"));
                break;
            }
        }
    }
    out.failed += arrive_fails;
    let best_reps = composite(&reps);
    let loop_s: f64 = best_reps[..best_reps.len().saturating_sub(1)].iter().sum();
    let finish_s = best_reps.last().copied().unwrap_or(0.0);
    let p50 = composite(
        &passes
            .iter()
            .map(|p| p.iter().map(|b| b.0).collect())
            .collect::<Vec<_>>(),
    );
    let p99 = composite(
        &passes
            .iter()
            .map(|p| p.iter().map(|b| b.1).collect())
            .collect::<Vec<_>>(),
    );
    out.fact("repetitions", reps.len());
    out.fact("latency_passes", passes.len());
    out.notes.push(format!(
        "  repetitions (items/s): {}; best slices combined: {:.0}",
        reps.iter()
            .map(|r| format!("{:.0}", n as f64 / r.iter().sum::<f64>()))
            .collect::<Vec<_>>()
            .join(" "),
        n as f64 / (loop_s + finish_s)
    ));
    out.notes.push(format!(
        "  latency blocks (best of {} passes), p50/p99 us: {}",
        passes.len(),
        p50.iter()
            .zip(&p99)
            .map(|(a, b)| format!("{a:.3}/{b:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.metric("items_per_s", n as f64 / (loop_s + finish_s), "items/s");
    out.metric("usage_ratio", usage_ratio, "ratio");
    out.metric(
        "state_mb",
        reference.rss_growth.unwrap_or(0) as f64 / MIB,
        "MB",
    );
    out.fact("p50_us_high", format!("{:.3}", median(&p50)));
    out.fact("p99_us_high", format!("{:.3}", median(&p99)));
    out.metric("sat_req_per_s", n as f64 / loop_s, "req/s");
    out.metric(
        "recovery_s",
        best_reps[..SEGMENTS / 2].iter().sum::<f64>(),
        "s",
    );
    out.metric(
        "server_rss_mb",
        proc_status_bytes("self", "VmHWM").unwrap_or(0) as f64 / MIB,
        "MB",
    );
}

fn trace_mode<F: Flavor>(
    spec: &EngineSpec,
    input: &F,
    reference: &OnlineRun,
    opts: &RunOpts,
    out: &mut Outcome,
) {
    let n = input.items().len();
    let clock_ns = clock_cost_ns();
    let mut fails = 0u64;
    let (mut plain, mut reps) = (Vec::new(), Vec::new());
    let started = Instant::now();
    // Alternate untraced and traced repetitions so drift hits both.
    while reps.len() < 2 || secs(started) < opts.seconds {
        out.attempted += 2 * n as u64;
        match untraced(input, spec.algo, false, &mut fails) {
            Ok(r) => plain.push(n as f64 / r.total_s()),
            Err(e) => {
                out.failures
                    .push(format!("untraced repetition failed: {e}"));
                break;
            }
        }
        match traced(input, spec.algo, None) {
            Ok(t) => {
                same_run("traced repetition", &t.run, reference, out);
                reps.push(t);
            }
            Err(e) => {
                out.failed += 1;
                out.failures.push(format!("traced repetition failed: {e}"));
                break;
            }
        }
    }
    out.failed += fails;
    if reps.is_empty() {
        return;
    }
    write_spans(opts, spec.name, &reps[0].spans);
    let m = layer_means(&reps, clock_ns);
    let split = layer_split(&reps, &m, n);
    out.notes.extend(split.table());
    out.fact("traced_repetitions", reps.len());
    out.fact("clock_read_ns", format!("{clock_ns:.1}"));
    let traced_ips = median(
        &reps
            .iter()
            .map(|r| n as f64 / r.total_s)
            .collect::<Vec<_>>(),
    );
    let decisions: u64 = reps.iter().map(|r| r.decisions).sum();
    let last = reps.last().expect("non-empty");
    out.metric("stream.sweep_ns", m.sweep_ns, "ns");
    out.metric("stream.commit_ns", m.commit_ns, "ns");
    out.metric("packer.decide_ns", m.decide_ns, "ns");
    out.metric(
        "packer.probes",
        reps.iter().map(|r| r.probes).sum::<u64>() as f64 / decisions.max(1) as f64,
        "count",
    );
    out.metric(
        "packer.open_frac",
        reps.iter().map(|r| r.opened).sum::<u64>() as f64 / decisions.max(1) as f64,
        "ratio",
    );
    out.metric("stream.finish_ms", m.finish_ms, "ms");
    out.metric("stream.open_bins_peak", last.open_bins_peak as f64, "count");
    out.metric(
        "stream.live_kb_peak",
        last.live_bytes_peak as f64 / 1024.0,
        "KB",
    );
    out.metric(
        "stream.dedupe_backlog_peak",
        last.dedupe_backlog_peak.unwrap_or(0) as f64,
        "count",
    );
    out.metric("trace.residual_frac", split.residual_frac(), "ratio");
    out.metric(
        "trace.overhead_frac",
        1.0 - traced_ips / median(&plain).max(f64::MIN_POSITIVE),
        "ratio",
    );
}

/// Writes the sampled spans of one traced repetition, keyed by item id.
fn write_spans(opts: &RunOpts, name: &str, spans: &[Span]) {
    let path = opts.work_dir.join(format!("spans-{name}.csv"));
    let write = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(f, "item,sweep_ns,arrive_ns,decide_ns")?;
        for s in spans {
            writeln!(f, "{},{},{},{}", s.id, s.sweep_ns, s.arrive_ns, s.decide_ns)?;
        }
        f.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> Stream {
        generate(name, 1, Scale::Tiny)
    }

    #[test]
    fn layer_self_times_and_residual_sum_to_the_traced_total() {
        let Stream::Scalar(inst) = tiny("stream-cbd") else {
            panic!("scalar workload");
        };
        let reps: Vec<Traced> = (0..2)
            .map(|_| traced(&inst, "cbd", None).expect("traced run"))
            .collect();
        let n = inst.len();
        assert!(reps
            .iter()
            .all(|r| r.spans.len() == n.div_ceil(SAMPLE as usize)));
        let split = layer_split(&reps, &layer_means(&reps, clock_cost_ns()), n);
        let summed: f64 = split.layers.iter().map(|(_, v)| v).sum::<f64>() + split.residual();
        assert!(
            (summed - split.total).abs() <= 1e-9 * split.total,
            "{summed} vs {}",
            split.total
        );
        assert!(split.total > 0.0 && split.residual_frac() < 1.0);
    }

    /// Runs the gate the traced repetitions pass through: an injected
    /// wrong decision must trip it, a faithful probe must not.
    fn gate<F: Flavor>(input: &F, algo: &str, fault_from: Option<u64>) -> Outcome {
        let mut fails = 0;
        let reference = untraced(input, algo, false, &mut fails).expect("reference run");
        let mut out = Outcome::default();
        let t = traced(input, algo, fault_from).expect("traced run");
        same_run("traced repetition", &t.run, &reference.run, &mut out);
        out
    }

    #[test]
    fn an_injected_wrong_decision_trips_the_gate() {
        let Stream::Scalar(scalar) = tiny("stream-deep-bf") else {
            panic!("scalar workload");
        };
        let Stream::Vector(vector) = tiny("vector-booked-bf") else {
            panic!("vector workload");
        };
        assert!(gate(&scalar, "best-fit", None).correct());
        assert!(gate(&vector, "best-fit", None).correct());
        let bad = gate(&scalar, "best-fit", Some(500));
        assert!(!bad.correct() && bad.failed > 0, "{:?}", bad.failures);
        let bad = gate(&vector, "best-fit", Some(500));
        assert!(!bad.correct() && bad.failed > 0, "{:?}", bad.failures);
    }

    #[test]
    fn usage_is_recomputed_from_the_packing() {
        let Stream::Scalar(inst) = tiny("stream-cbd") else {
            panic!("scalar workload");
        };
        let mut fails = 0;
        let r = untraced(&inst, "cbd", false, &mut fails).expect("run");
        assert_eq!(usage_from_packing(&r.run, &inst.spans()), Some(r.run.usage));
        assert!(inst.validate(&r.run).is_ok());
    }
}
