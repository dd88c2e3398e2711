//! Property tests for the core data structures, checked against naive
//! reference models.

use dbp_core::dedupe::WINDOW_BITS;
use dbp_core::events::load_segments;
use dbp_core::interval::{span_of, union_components, Interval};
use dbp_core::online::{ClairvoyanceMode, Decision, ItemView, OnlinePacker, OpenBins};
use dbp_core::profile::{BTreeProfile, LevelProfile, SegTreeProfile};
use dbp_core::stats::StepSeries;
use dbp_core::stream::StreamingSession;
use dbp_core::vecbins::BLOCK;
use dbp_core::{
    BinId, IdDedupe, Instance, Item, Packing, Scalarization, Size, SizeVec, VecClairvoyance,
    VecItem, VecItemView, VecOnlinePacker, VecOpenBins, VecStreamingSession,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Naive per-tick reference model of a level profile over [0, N).
const N: i64 = 64;

fn arb_ops() -> impl Strategy<Value = Vec<(Interval, Size)>> {
    proptest::collection::vec(
        (0i64..N - 1, 1i64..16, 1u64..=32).prop_map(|(a, len, s)| {
            (
                Interval::of(a, (a + len).min(N)),
                Size::from_ratio(s, 64).unwrap(),
            )
        }),
        0..20,
    )
}

fn naive_levels(ops: &[(Interval, Size)]) -> Vec<u64> {
    let mut lv = vec![0u64; N as usize];
    for (iv, s) in ops {
        for (t, lvl) in lv.iter_mut().enumerate() {
            if iv.contains(t as i64) {
                *lvl += s.raw();
            }
        }
    }
    lv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Both profile backends agree with the per-tick reference model on
    /// level queries and window maxima.
    #[test]
    fn profiles_match_reference(ops in arb_ops()) {
        let reference = naive_levels(&ops);
        let mut bt = BTreeProfile::new();
        let mut st = SegTreeProfile::from_times((0..=N).collect());
        for (iv, s) in &ops {
            bt.add(*iv, *s);
            st.add(*iv, *s);
        }
        for t in 0..N {
            let want = Size::from_raw(reference[t as usize]);
            prop_assert_eq!(bt.level_at(t), want, "btree level at {}", t);
            prop_assert_eq!(st.level_at(t), want, "segtree level at {}", t);
        }
        // A few windows.
        for (a, b) in [(0i64, N), (3, 17), (10, 11), (40, 64)] {
            let want = Size::from_raw(
                reference[a as usize..b as usize].iter().copied().max().unwrap_or(0),
            );
            let iv = Interval::of(a, b);
            prop_assert_eq!(bt.max_in(iv), want);
            prop_assert_eq!(st.max_in(iv), want);
        }
    }

    /// `span_of` equals the per-tick count of covered ticks, and
    /// `union_components` is disjoint, sorted, and covers the same set.
    #[test]
    fn span_matches_reference(ops in arb_ops()) {
        let ivs: Vec<Interval> = ops.iter().map(|(iv, _)| *iv).collect();
        let mut covered = vec![false; N as usize];
        for iv in &ivs {
            for (t, c) in covered.iter_mut().enumerate() {
                if iv.contains(t as i64) {
                    *c = true;
                }
            }
        }
        let want = covered.iter().filter(|&&c| c).count() as i64;
        prop_assert_eq!(span_of(ivs.iter().copied()), want);

        let comps = union_components(ivs.iter().copied());
        for w in comps.windows(2) {
            prop_assert!(w[0].end() < w[1].start(), "components must be separated");
        }
        let total: i64 = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, want);
    }

    /// `load_segments` partitions the span and conserves total time–space
    /// area (`Σ segment_size·len == Σ item demand`).
    #[test]
    fn load_segments_conserve_area(ops in arb_ops()) {
        let items: Vec<Item> = ops
            .iter()
            .enumerate()
            .map(|(i, (iv, s))| Item::new(i as u32, *s, iv.start(), iv.end()))
            .collect();
        let segs = load_segments(&items);
        // Disjoint and ordered.
        for w in segs.windows(2) {
            prop_assert!(w[0].interval.end() <= w[1].interval.start());
        }
        let seg_area: u128 = segs
            .iter()
            .map(|s| s.total_size.raw() as u128 * s.interval.len() as u128)
            .sum();
        let demand: u128 = items.iter().map(|r| r.demand()).sum();
        prop_assert_eq!(seg_area, demand);
        let seg_span: i64 = segs.iter().map(|s| s.interval.len()).sum();
        prop_assert_eq!(seg_span, span_of(items.iter().map(|r| r.interval())));
    }

    /// The packing validator agrees with a brute-force per-tick check.
    #[test]
    fn validator_matches_bruteforce(ops in arb_ops(), split in 1usize..4) {
        let items: Vec<Item> = ops
            .iter()
            .enumerate()
            .map(|(i, (iv, s))| Item::new(i as u32, *s, iv.start(), iv.end()))
            .collect();
        let inst = Instance::from_items(items.clone()).unwrap();
        // Round-robin items into `split` bins (may or may not be valid).
        let mut bins = vec![Vec::new(); split];
        for (i, r) in items.iter().enumerate() {
            bins[i % split].push(r.id());
        }
        let packing = Packing::from_bins(bins.clone());
        let valid = packing.validate(&inst).is_ok();

        // Brute force: per tick, per bin level.
        let mut brute_ok = true;
        for bin in &bins {
            for t in 0..N {
                let level: u64 = items
                    .iter()
                    .filter(|r| bin.contains(&r.id()) && r.active_at(t))
                    .map(|r| r.size().raw())
                    .sum();
                if level > Size::SCALE {
                    brute_ok = false;
                }
            }
        }
        prop_assert_eq!(valid, brute_ok);
    }

    /// StepSeries built from deltas matches a running per-tick sum.
    #[test]
    fn step_series_matches_reference(
        deltas in proptest::collection::vec((0i64..N, -3i64..=3), 0..24)
    ) {
        let series = StepSeries::from_deltas(deltas.clone());
        for t in -1..N + 1 {
            let want: i64 = deltas.iter().filter(|(dt, _)| *dt <= t).map(|(_, d)| d).sum();
            prop_assert_eq!(series.value_at(t), want, "at t={}", t);
        }
    }
}

/// One step of the open-fleet interleaving driven below: an arrival, a
/// clock advance (departure pruning), or a server failure. The raw
/// discriminant is mapped so roughly 3/5 of the steps are arrivals —
/// deep enough fleets to matter, with churn on top.
#[derive(Clone, Debug)]
enum FleetOp {
    Arrive { size_64ths: u64, dur: i64 },
    Advance { dt: i64 },
    Fail { pick: usize },
}

fn arb_fleet_ops() -> impl Strategy<Value = Vec<FleetOp>> {
    proptest::collection::vec(
        (0u8..5, 1u64..=64, 1i64..=12, 0usize..32).prop_map(|(kind, size_64ths, dur, pick)| {
            match kind {
                0..=2 => FleetOp::Arrive { size_64ths, dur },
                3 => FleetOp::Advance { dt: dur / 2 },
                _ => FleetOp::Fail { pick },
            }
        }),
        0..80,
    )
}

/// A deliberately adversarial packer for the index-consistency property:
/// it round-robins across three tags and four query kinds, so every fit
/// structure (per-tag gap tree, per-tag residual-ordered set) is active
/// on a fleet that is concurrently mutated by the engine's arrivals,
/// departures, and failures.
struct MixedFit {
    n: u64,
}

impl OnlinePacker for MixedFit {
    fn name(&self) -> String {
        "mixed-fit".into()
    }

    fn place(&mut self, item: &ItemView, open_bins: &OpenBins) -> Decision {
        self.n += 1;
        let tag = self.n % 3;
        let hit = match self.n % 4 {
            0 => open_bins.first_fit(tag, item.size).0,
            1 => open_bins.best_fit(tag, item.size).0,
            2 => open_bins.worst_fit(tag, item.size).0,
            _ => open_bins
                .iter_tag(tag)
                .find(|b| b.fits(item.size))
                .map(|b| b.id()),
        };
        hit.map(Decision::Existing).unwrap_or(Decision::New { tag })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Satellite invariant for the indexed fit queries: interleaving
    /// open/close/`fail_bin`/departure-prune, the `OpenBins` internals
    /// (residual-order index, gap trees, free list, intrusive tag lists
    /// — all via `validate()`) never disagree with each other, and the
    /// indexed queries never disagree with the linear scan over the
    /// intrusive lists — including after slab slots are recycled
    /// through the free list.
    #[test]
    fn open_bins_index_never_disagrees_with_the_linear_model(ops in arb_fleet_ops()) {
        let mut packer = MixedFit { n: 0 };
        let mut session =
            StreamingSession::new(ClairvoyanceMode::NonClairvoyant, &mut packer);
        let mut now = 0i64;
        let mut next_id = 0u32;
        for op in &ops {
            match op {
                FleetOp::Arrive { size_64ths, dur } => {
                    let size = Size::from_ratio(*size_64ths, 64).unwrap();
                    session.advance_to(now).unwrap();
                    session.arrive(&Item::new(next_id, size, now, now + dur)).unwrap();
                    next_id += 1;
                }
                FleetOp::Advance { dt } => {
                    now += dt;
                    session.advance_to(now).unwrap();
                }
                FleetOp::Fail { pick } => {
                    let victim = {
                        let open = session.open_set();
                        if open.is_empty() {
                            continue;
                        }
                        open.iter().nth(pick % open.len()).unwrap().id()
                    };
                    session.fail_bin(victim, now).unwrap();
                }
            }

            let open = session.open_set();
            if let Err(why) = open.validate() {
                prop_assert!(false, "index invariants broken after {:?}: {}", op, why);
            }
            // The linear reference model is the walk over the intrusive
            // tag lists — an independent code path from the fit index.
            for tag in 0..3u64 {
                for s in [1u64, 16, 33, 64] {
                    let size = Size::from_ratio(s, 64).unwrap();
                    let lin_first =
                        open.iter_tag(tag).find(|b| b.fits(size)).map(|b| b.id());
                    let lin_best = open
                        .iter_tag(tag)
                        .filter(|b| b.fits(size))
                        .max_by_key(|b| b.level())
                        .map(|b| b.id());
                    let lin_worst = open
                        .iter_tag(tag)
                        .filter(|b| b.fits(size))
                        .min_by_key(|b| b.level())
                        .map(|b| b.id());
                    prop_assert_eq!(
                        open.first_fit(tag, size).0, lin_first,
                        "first-fit tag {} size {}/64", tag, s
                    );
                    prop_assert_eq!(
                        open.best_fit(tag, size).0, lin_best,
                        "best-fit tag {} size {}/64", tag, s
                    );
                    prop_assert_eq!(
                        open.worst_fit(tag, size).0, lin_worst,
                        "worst-fit tag {} size {}/64", tag, s
                    );
                }
            }
        }
        session.finish().unwrap();
    }
}

/// The watermark + `HashSet` dedupe the sessions used before
/// [`IdDedupe`]: the reference model for its membership answers and its
/// persisted `(watermark, sorted above)` form.
#[derive(Default)]
struct HashSetDedupe {
    watermark: u32,
    above: HashSet<u32>,
}

impl HashSetDedupe {
    fn insert(&mut self, id: u32) -> bool {
        if id < self.watermark || !self.above.insert(id) {
            return false;
        }
        while self.watermark < u32::MAX && self.above.remove(&self.watermark) {
            self.watermark += 1;
        }
        true
    }

    fn contains(&self, id: u32) -> bool {
        id < self.watermark || self.above.contains(&id)
    }

    fn sorted_above(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.above.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

/// xorshift64 step for in-case shuffles.
fn next_rand(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// An id stream starting at `start` in one of the orders sessions see
/// (monotone, pairwise swapped, shuffled, booking order, far ahead of
/// the window, random with `u32::MAX`), with about one repeat per eight
/// ids mixed in.
fn id_stream(kind: u8, start: u32, n: u32, seed: u64) -> Vec<u32> {
    let mut s = seed | 1;
    let base = |i: u32| start.saturating_add(i);
    let mut ids: Vec<u32> = match kind {
        0 => (0..n).map(base).collect(),
        1 => (0..n).map(|i| base(i ^ 1)).collect(),
        2 => {
            let mut v: Vec<u32> = (0..n).map(base).collect();
            for i in (1..v.len()).rev() {
                v.swap(i, next_rand(&mut s) as usize % (i + 1));
            }
            v
        }
        3 => {
            // Ids are handed out at booking time; jobs arrive up to 300
            // bookings later, so arrival order scrambles ids locally.
            let mut v: Vec<(u64, u32)> = (0..n)
                .map(|i| (i as u64 + next_rand(&mut s) % 300, base(i)))
                .collect();
            v.sort_unstable();
            v.into_iter().map(|(_, id)| id).collect()
        }
        4 => {
            // A dense run from the watermark interleaved with ids parked
            // beyond the window that the run's advance pulls back in.
            let far = (start as u64 & !63) + WINDOW_BITS;
            let mut v = Vec::new();
            for i in 0..n {
                v.push(base(i));
                if i % 4 == 0 {
                    v.push(far.saturating_add((i / 2) as u64).min(u32::MAX as u64) as u32);
                }
            }
            v
        }
        _ => {
            let mut v: Vec<u32> = (0..n)
                .map(|_| base((next_rand(&mut s) % (2 * n as u64 + 1)) as u32))
                .collect();
            v.extend([u32::MAX, u32::MAX - 1, u32::MAX]);
            v
        }
    };
    for _ in 0..ids.len() / 8 {
        let from = next_rand(&mut s) as usize % ids.len();
        let to = next_rand(&mut s) as usize % (ids.len() + 1);
        ids.insert(to, ids[from]);
    }
    ids
}

/// One step of the vector fleet interleaving: an arrival with a 3-axis
/// demand in 64ths, or a clock advance (small, or large enough to drain
/// whole blocks of bins).
#[derive(Clone, Debug)]
enum VecFleetOp {
    Arrive { axes: [u64; 3], dur: i64 },
    Advance { dt: i64 },
}

fn arb_vec_fleet_ops() -> impl Strategy<Value = Vec<VecFleetOp>> {
    proptest::collection::vec(
        (0u8..40, 1u64..=40, 1u64..=40, 1u64..=40, 1i64..=1200).prop_map(|(kind, a, b, c, dur)| {
            match kind {
                0..=35 => VecFleetOp::Arrive {
                    axes: [a, b, c],
                    dur,
                },
                36..=38 => VecFleetOp::Advance { dt: dur % 4 + 1 },
                _ => VecFleetOp::Advance { dt: dur % 30 + 10 },
            }
        }),
        400..1000,
    )
}

/// Opens a fresh bin on four of every seven arrivals (so each tag's fleet
/// grows several blocks deep) and otherwise places with an indexed query,
/// tag 0 ranked by [`Scalarization::Sum`] and tag 1 by
/// [`Scalarization::MaxAxis`] — one scalarization per tag, so each tag's
/// level blocks are only ever maintained incrementally.
struct VecMixedFit {
    n: u64,
}

fn tag_scal(tag: u64) -> Scalarization {
    if tag == 0 {
        Scalarization::Sum
    } else {
        Scalarization::MaxAxis
    }
}

impl VecOnlinePacker for VecMixedFit {
    fn name(&self) -> String {
        "vec-mixed-fit".into()
    }

    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision {
        self.n += 1;
        let tag = self.n % 2;
        let hit = match self.n % 7 {
            0..=3 => None,
            4 => open_bins.best_fit(tag, &item.size, tag_scal(tag)).0,
            5 => open_bins.worst_fit(tag, &item.size, tag_scal(tag)).0,
            _ => open_bins.first_fit(tag, &item.size).0,
        };
        hit.map(Decision::Existing).unwrap_or(Decision::New { tag })
    }
}

fn linear_best(open: &VecOpenBins, tag: u64, size: &SizeVec, scal: Scalarization) -> Option<BinId> {
    open.iter_tag(tag)
        .filter(|b| b.fits(size))
        .max_by_key(|b| scal.key(&b.level()))
        .map(|b| b.id())
}

fn linear_worst(
    open: &VecOpenBins,
    tag: u64,
    size: &SizeVec,
    scal: Scalarization,
) -> Option<BinId> {
    open.iter_tag(tag)
        .filter(|b| b.fits(size))
        .min_by_key(|b| scal.key(&b.level()))
        .map(|b| b.id())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// [`IdDedupe`] gives the same answers as the watermark + `HashSet`
    /// model on every id order the sessions meet, persists to the same
    /// `(watermark, sorted above)` pair, and round-trips through it.
    #[test]
    fn id_dedupe_matches_the_hash_set_model(
        kind in 0u8..6,
        n in 0u32..3000,
        start_sel in 0u8..4,
        seed: u64,
    ) {
        let start = match start_sel {
            0 => 0,
            1 => 1_000_003,
            2 => u32::MAX - 2000,
            _ => (seed >> 40) as u32,
        };
        let mut d = IdDedupe::from_parts(start, &[]);
        let mut model = HashSetDedupe { watermark: start, ..HashSetDedupe::default() };
        for (k, id) in id_stream(kind, start, n, seed).into_iter().enumerate() {
            prop_assert_eq!(d.insert(id), model.insert(id), "insert {} (step {})", id, k);
            prop_assert_eq!(d.watermark(), model.watermark, "watermark after {}", id);
            for probe in [id, id.wrapping_add(1), id.wrapping_sub(64), model.watermark] {
                prop_assert_eq!(d.contains(probe), model.contains(probe), "contains {}", probe);
            }
        }
        let above = d.above();
        prop_assert_eq!(&above, &model.sorted_above());
        prop_assert_eq!(d.backlog(), above.len());
        let back = IdDedupe::from_parts(d.watermark(), &above);
        prop_assert_eq!(back.watermark(), d.watermark());
        prop_assert_eq!(back.above(), above);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The envelope-pruned level blocks behind vector Best/Worst Fit stay
    /// exact under arrivals, departures and emptied bins on fleets at
    /// least three blocks deep per tag: `validate()` (block order, inline
    /// gaps, envelopes) holds after every step, and the indexed queries
    /// agree with linear scans under both scalarizations.
    #[test]
    fn vec_open_bins_blocks_never_disagree_with_the_linear_model(ops in arb_vec_fleet_ops()) {
        let mut packer = VecMixedFit { n: 0 };
        let mut session = VecStreamingSession::new(VecClairvoyance::Clairvoyant, &mut packer);
        let probes: Vec<SizeVec> = [[1u64, 1, 1], [8, 20, 3], [30, 5, 30], [40, 40, 40]]
            .iter()
            .map(|a| {
                SizeVec::try_new(&a.map(|x| Size::from_ratio(x, 64).unwrap())).unwrap()
            })
            .collect();
        let (mut now, mut next_id, mut deepest) = (0i64, 0u32, [0usize; 2]);
        for op in &ops {
            match op {
                VecFleetOp::Arrive { axes, dur } => {
                    let size = SizeVec::try_new(&axes.map(|x| Size::from_ratio(x, 64).unwrap()))
                        .unwrap();
                    session.arrive(&VecItem::new(next_id, size, now, now + dur)).unwrap();
                    next_id += 1;
                }
                VecFleetOp::Advance { dt } => {
                    now += dt;
                    session.advance_to(now).unwrap();
                }
            }
            let open = session.open_set();
            if let Err(why) = open.validate() {
                prop_assert!(false, "index invariants broken after {:?}: {}", op, why);
            }
            for tag in 0..2u64 {
                deepest[tag as usize] = deepest[tag as usize].max(open.iter_tag(tag).count());
                let scal = tag_scal(tag);
                for size in &probes {
                    prop_assert_eq!(
                        open.best_fit(tag, size, scal).0, linear_best(open, tag, size, scal),
                        "best-fit tag {} size {:?}", tag, size
                    );
                    prop_assert_eq!(
                        open.worst_fit(tag, size, scal).0, linear_worst(open, tag, size, scal),
                        "worst-fit tag {} size {:?}", tag, size
                    );
                }
            }
        }
        // Switching scalarization rebuilds a tag's blocks from scratch.
        let open = session.open_set();
        for tag in 0..2u64 {
            let scal = tag_scal(1 - tag);
            for size in &probes {
                prop_assert_eq!(open.best_fit(tag, size, scal).0, linear_best(open, tag, size, scal));
                prop_assert_eq!(open.worst_fit(tag, size, scal).0, linear_worst(open, tag, size, scal));
            }
        }
        prop_assert!(open.validate().is_ok());
        session.finish().unwrap();
        // Every case must reach the depth the property is about.
        prop_assert!(deepest.iter().all(|&d| d >= 3 * BLOCK), "fleets only {:?} deep", deepest);
    }
}
