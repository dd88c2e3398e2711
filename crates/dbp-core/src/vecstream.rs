//! Streaming online **vector** packing: feed multi-resource arrivals one
//! at a time.
//!
//! [`VecStreamingSession`] is the vector twin of
//! [`crate::StreamingSession`]: call [`VecStreamingSession::arrive`] per
//! job (non-decreasing arrival times, unique ids), and the session
//! returns the bin the packer chose; [`VecStreamingSession::finish`]
//! flushes the remaining departures and returns the **same**
//! [`OnlineRun`] type the scalar engine produces — bins are identified,
//! recorded, and accounted identically, which is what lets the dim-1
//! differential suite assert `OnlineRun == OnlineRun` between a lifted
//! vector session and a scalar one.
//!
//! The mechanics mirror the scalar session exactly: departures due at or
//! before an arrival close first (half-open intervals), a bin is removed
//! from the open set the moment its last item departs, usage accounts
//! `closed_at - opened_at` per bin, duplicate ids are rejected through
//! the same watermark scheme, and out-of-order arrivals are refused with
//! the same error. What it deliberately does **not** carry over:
//! snapshots, fleet caps, and fault injection — the scalar session owns
//! those; the vector session is scoped to the packing semantics the
//! differential and audit layers prove.
//!
//! ## Observability
//!
//! The session is generic over a [`VecPackObserver`] receiving a
//! [`VecPackEvent`] per arrival, placement, level change, opening, and
//! closure — per-axis levels included, which `dbp-obs`'s vector trace
//! writer serializes. [`VecNoopObserver`] compiles every emission site
//! away.

use crate::dedupe::IdDedupe;
use crate::error::DbpError;
use crate::interval::Time;
use crate::item::ItemId;
use crate::online::{BinRecord, Decision, OnlineRun};
use crate::packing::{BinId, Packing};
use crate::sizevec::{SizeVec, VecInstance, VecItem};
use crate::vecbins::{VecActiveItem, VecOpenBin, VecOpenBins};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Whether departure times are visible to the packer.
///
/// The vector session supports the paper's clairvoyant setting and the
/// blind baseline; the noisy-estimator middle ground remains
/// scalar-only ([`crate::ClairvoyanceMode::Noisy`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VecClairvoyance {
    /// Departures are visible on arrival (the paper's setting).
    #[default]
    Clairvoyant,
    /// Departures are hidden; classification packers cannot run.
    NonClairvoyant,
}

/// What a vector packer sees of an arriving item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VecItemView {
    /// The item's id.
    pub id: ItemId,
    /// The item's demand vector.
    pub size: SizeVec,
    /// Arrival time.
    pub arrival: Time,
    /// Departure time, if the session is clairvoyant.
    pub departure: Option<Time>,
}

impl VecItemView {
    /// Duration in ticks, if the departure is visible.
    pub fn duration(&self) -> Option<i64> {
        self.departure.map(|d| d - self.arrival)
    }
}

/// An online vector-packing algorithm: inspects the open bins and
/// decides where each arrival goes. The vector twin of
/// [`crate::OnlinePacker`]; decisions reuse the scalar [`Decision`]
/// type.
pub trait VecOnlinePacker {
    /// Short name for reports and bench labels.
    fn name(&self) -> String;

    /// Forgets all cross-run state; called when a session starts.
    fn reset(&mut self) {}

    /// Chooses a bin for `item` given the open set.
    fn place(&mut self, item: &VecItemView, open_bins: &VecOpenBins) -> Decision;

    /// How many candidates/index nodes the last `place` probed, if the
    /// packer tracks it.
    fn last_scanned(&self) -> Option<usize> {
        None
    }
}

/// One vector packing event (see [`VecPackObserver`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VecPackEvent {
    /// An item was admitted into the session.
    ItemArrived {
        /// The item's id.
        id: ItemId,
        /// The item's demand vector.
        size: SizeVec,
        /// Arrival time.
        at: Time,
        /// The departure visible to the packer (`None` when blind).
        departure: Option<Time>,
    },
    /// A new bin was opened.
    BinOpened {
        /// The new bin.
        bin: BinId,
        /// Opening time.
        at: Time,
        /// The packer-supplied category tag.
        tag: u64,
    },
    /// The packer's decision for an arrival was committed.
    PlacementDecided {
        /// The placed item.
        id: ItemId,
        /// The chosen bin.
        bin: BinId,
        /// Whether the decision opened a new bin.
        opened: bool,
        /// Candidates/index nodes probed by the packer's `place`.
        scanned: usize,
    },
    /// A bin's level vector changed (placement or departure).
    LevelChanged {
        /// The bin whose level changed.
        bin: BinId,
        /// When.
        at: Time,
        /// The level vector after the change (zero when the bin closed).
        level: SizeVec,
        /// Open bins after the change.
        open_bins: usize,
    },
    /// A bin's last item departed and the bin closed.
    BinClosed {
        /// The closed bin.
        bin: BinId,
        /// Closing time.
        at: Time,
        /// When the bin had opened (usage = `at - opened_at`).
        opened_at: Time,
        /// How many items the bin served over its lifetime.
        items: usize,
    },
}

/// Receives [`VecPackEvent`]s from a [`VecStreamingSession`].
pub trait VecPackObserver {
    /// Guards every emission site; `false` makes observation free.
    const ENABLED: bool = true;

    /// Receives one event; called synchronously from the packing loop.
    fn on_event(&mut self, event: &VecPackEvent);
}

/// The do-nothing observer: all emission sites compile away.
#[derive(Clone, Copy, Debug, Default)]
pub struct VecNoopObserver;

impl VecPackObserver for VecNoopObserver {
    const ENABLED: bool = false;
    fn on_event(&mut self, _event: &VecPackEvent) {}
}

impl<O: VecPackObserver> VecPackObserver for &mut O {
    const ENABLED: bool = O::ENABLED;
    fn on_event(&mut self, event: &VecPackEvent) {
        (**self).on_event(event);
    }
}

/// An observer that records every event (tests, traces).
#[derive(Clone, Debug, Default)]
pub struct VecEventLog {
    /// The recorded events, in emission order.
    pub events: Vec<VecPackEvent>,
}

impl VecEventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl VecPackObserver for VecEventLog {
    fn on_event(&mut self, event: &VecPackEvent) {
        self.events.push(event.clone());
    }
}

/// An in-progress online vector packing over a stream of arrivals.
pub struct VecStreamingSession<'p, O: VecPackObserver = VecNoopObserver> {
    mode: VecClairvoyance,
    packer: &'p mut dyn VecOnlinePacker,
    obs: O,
    open: VecOpenBins,
    /// Indexed by `BinId` (bins are numbered in opening order).
    records: Vec<BinRecord>,
    /// Bin of each *live* item; entries are pruned at departure.
    placement: HashMap<ItemId, BinId>,
    departures: BinaryHeap<Reverse<(Time, ItemId)>>,
    next_bin: u32,
    last_arrival: Option<Time>,
    /// Every id seen so far.
    seen: IdDedupe,
}

impl<'p> VecStreamingSession<'p, VecNoopObserver> {
    /// Starts an unobserved session; the packer's
    /// [`VecOnlinePacker::reset`] is invoked.
    pub fn new(mode: VecClairvoyance, packer: &'p mut dyn VecOnlinePacker) -> Self {
        Self::with_observer(mode, packer, VecNoopObserver)
    }
}

impl<'p, O: VecPackObserver> VecStreamingSession<'p, O> {
    /// Starts a session reporting every packing event to `obs` (pass
    /// `&mut observer` to keep ownership).
    pub fn with_observer(
        mode: VecClairvoyance,
        packer: &'p mut dyn VecOnlinePacker,
        obs: O,
    ) -> Self {
        packer.reset();
        VecStreamingSession {
            mode,
            packer,
            obs,
            open: VecOpenBins::new(),
            records: Vec::new(),
            placement: HashMap::new(),
            departures: BinaryHeap::new(),
            next_bin: 0,
            last_arrival: None,
            seen: IdDedupe::new(),
        }
    }

    fn visible_departure(&self, item: &VecItem) -> Option<Time> {
        match self.mode {
            VecClairvoyance::Clairvoyant => Some(item.departure()),
            VecClairvoyance::NonClairvoyant => None,
        }
    }

    /// Processes all departures up to and including time `t`.
    fn close_until(&mut self, t: Time) -> Result<(), DbpError> {
        while let Some(&Reverse((dt, id))) = self.departures.peek() {
            if dt > t {
                break;
            }
            self.departures.pop();
            let bin_id = self
                .placement
                .remove(&id)
                .ok_or_else(|| DbpError::Internal {
                    what: format!("departing item {id} has no live placement"),
                })?;
            let (became_empty, level_after) =
                self.open
                    .remove_from(bin_id, id)
                    .ok_or_else(|| DbpError::Internal {
                        what: format!("departing item {id} maps to a closed bin"),
                    })??;
            if became_empty {
                let bin = self.open.remove(bin_id).expect("bin was open");
                let rec = &mut self.records[bin_id.0 as usize];
                rec.closed_at = dt;
                if O::ENABLED {
                    let (opened_at, items) = (rec.opened_at, rec.items.len());
                    self.obs.on_event(&VecPackEvent::LevelChanged {
                        bin: bin_id,
                        at: dt,
                        level: SizeVec::zero(bin.dims()),
                        open_bins: self.open.len(),
                    });
                    self.obs.on_event(&VecPackEvent::BinClosed {
                        bin: bin_id,
                        at: dt,
                        opened_at,
                        items,
                    });
                }
            } else if O::ENABLED {
                let open_bins = self.open.len();
                self.obs.on_event(&VecPackEvent::LevelChanged {
                    bin: bin_id,
                    at: dt,
                    level: level_after,
                    open_bins,
                });
            }
        }
        Ok(())
    }

    /// The number of currently open bins.
    pub fn open_bins(&self) -> usize {
        self.open.len()
    }

    /// The number of items currently resident in open bins.
    pub fn live_items(&self) -> usize {
        self.placement.len()
    }

    /// The currently open bins — the same view the packer sees.
    pub fn open_set(&self) -> &VecOpenBins {
        &self.open
    }

    /// The session clock: the latest arrival / advance time.
    pub fn now(&self) -> Option<Time> {
        self.last_arrival
    }

    /// A cheap estimate of the session's live working-state heap
    /// footprint (the bench RSS proxy; mirrors the scalar session).
    pub fn approx_live_bytes(&self) -> usize {
        use std::mem::size_of;
        self.open.approx_bytes()
            + self.placement.capacity() * (size_of::<ItemId>() + size_of::<BinId>())
            + self.departures.capacity() * size_of::<Reverse<(Time, ItemId)>>()
            + self.seen.approx_bytes()
    }

    /// All item ids below this value have been seen (watermark dedupe
    /// contract; see [`crate::StreamingSession`]).
    pub fn id_watermark(&self) -> u32 {
        self.seen.watermark()
    }

    /// Number of seen ids at or above the watermark still held for exact
    /// duplicate detection. Zero for monotone id streams.
    pub fn dedupe_backlog(&self) -> usize {
        self.seen.backlog()
    }

    /// Advances simulated time to `t` without an arrival: departures up
    /// to and including `t` are processed and empty bins close.
    pub fn advance_to(&mut self, t: Time) -> Result<(), DbpError> {
        if let Some(last) = self.last_arrival {
            if t < last {
                return Err(DbpError::BadDecision {
                    what: format!("cannot advance to {t} before last arrival {last}"),
                });
            }
        }
        self.last_arrival = Some(t);
        self.close_until(t)
    }

    /// Rejects arrivals that would move the session clock backwards.
    fn check_order(&self, now: Time) -> Result<(), DbpError> {
        if let Some(last) = self.last_arrival {
            if now < last {
                return Err(DbpError::BadDecision {
                    what: format!("arrivals must be non-decreasing: {now} after {last}"),
                });
            }
        }
        Ok(())
    }

    /// Commits an id into the dedupe state, rejecting duplicates
    /// (watermark scheme; see [`crate::StreamingSession`]).
    fn note_id(&mut self, raw_id: u32) -> Result<(), DbpError> {
        if !self.seen.insert(raw_id) {
            return Err(DbpError::DuplicateItemId { id: raw_id });
        }
        Ok(())
    }

    /// Feeds one arrival. Arrival times must be non-decreasing and item
    /// ids unique; the chosen bin id is returned.
    pub fn arrive(&mut self, item: &VecItem) -> Result<BinId, DbpError> {
        let now = item.arrival();
        self.check_order(now)?;
        self.note_id(item.id().0)?;
        self.last_arrival = Some(now);
        let visible_dep = self.visible_departure(item);
        self.close_until(now)?;
        let view = VecItemView {
            id: item.id(),
            size: item.size(),
            arrival: now,
            departure: visible_dep,
        };
        let decision = self.packer.place(&view, &self.open);
        if O::ENABLED {
            self.obs.on_event(&VecPackEvent::ItemArrived {
                id: item.id(),
                size: item.size(),
                at: now,
                departure: visible_dep,
            });
        }
        self.commit_decision(item, visible_dep, decision)
    }

    /// Applies a placement decision and commits the item into the
    /// session's live state.
    fn commit_decision(
        &mut self,
        item: &VecItem,
        visible_dep: Option<Time>,
        decision: Decision,
    ) -> Result<BinId, DbpError> {
        let now = item.arrival();
        let active = VecActiveItem {
            id: item.id(),
            size: item.size(),
            departure: visible_dep,
        };
        let bin_id = match decision {
            Decision::Existing(bid) => {
                let level = self
                    .open
                    .push_to(bid, active, item.size())
                    .ok_or_else(|| DbpError::BadDecision {
                        what: format!("bin {bid:?} is not open (item {})", item.id()),
                    })??;
                if O::ENABLED {
                    let open_bins = self.open.len();
                    let scanned = self.packer.last_scanned().unwrap_or(open_bins);
                    self.obs.on_event(&VecPackEvent::PlacementDecided {
                        id: item.id(),
                        bin: bid,
                        opened: false,
                        scanned,
                    });
                    self.obs.on_event(&VecPackEvent::LevelChanged {
                        bin: bid,
                        at: now,
                        level,
                        open_bins,
                    });
                }
                bid
            }
            Decision::New { tag } => {
                let bid = BinId(self.next_bin);
                self.next_bin += 1;
                let pool = self.open.len();
                self.open.insert(VecOpenBin::new(bid, now, tag, active));
                self.records.push(BinRecord {
                    id: bid,
                    opened_at: now,
                    closed_at: now,
                    tag,
                    items: Vec::new(),
                });
                if O::ENABLED {
                    let scanned = self.packer.last_scanned().unwrap_or(pool);
                    self.obs.on_event(&VecPackEvent::BinOpened {
                        bin: bid,
                        at: now,
                        tag,
                    });
                    self.obs.on_event(&VecPackEvent::PlacementDecided {
                        id: item.id(),
                        bin: bid,
                        opened: true,
                        scanned,
                    });
                    self.obs.on_event(&VecPackEvent::LevelChanged {
                        bin: bid,
                        at: now,
                        level: item.size(),
                        open_bins: pool + 1,
                    });
                }
                bid
            }
        };
        self.placement.insert(item.id(), bin_id);
        self.records[bin_id.0 as usize].items.push(item.id());
        self.departures.push(Reverse((item.departure(), item.id())));
        Ok(bin_id)
    }

    /// Flushes all remaining departures and returns the finished run.
    pub fn finish(self) -> Result<OnlineRun, DbpError> {
        self.finish_with_observer().map(|(run, _)| run)
    }

    /// Like [`VecStreamingSession::finish`], but also hands back the
    /// owned observer.
    pub fn finish_with_observer(mut self) -> Result<(OnlineRun, O), DbpError> {
        self.close_until(Time::MAX)?;
        debug_assert!(self.open.is_empty());
        debug_assert!(self.placement.is_empty(), "placement pruned on departure");
        let usage: u128 = self.records.iter().map(|r| r.usage()).sum();
        let mut bins = vec![Vec::new(); self.next_bin as usize];
        for r in &self.records {
            bins[r.id.0 as usize] = r.items.clone();
        }
        Ok((
            OnlineRun {
                packing: Packing::from_bins(bins),
                usage,
                bins: self.records,
            },
            self.obs,
        ))
    }
}

/// Convenience batch driver over [`VecStreamingSession`]: runs a packer
/// over a whole [`VecInstance`] in arrival order. The vector twin of
/// [`crate::OnlineEngine`].
#[derive(Clone, Copy, Debug, Default)]
pub struct VecOnlineEngine {
    mode: VecClairvoyance,
}

impl VecOnlineEngine {
    /// Creates an engine with the given clairvoyance mode.
    pub fn new(mode: VecClairvoyance) -> Self {
        VecOnlineEngine { mode }
    }

    /// A clairvoyant engine (the paper's setting).
    pub fn clairvoyant() -> Self {
        Self::new(VecClairvoyance::Clairvoyant)
    }

    /// A non-clairvoyant engine.
    pub fn non_clairvoyant() -> Self {
        Self::new(VecClairvoyance::NonClairvoyant)
    }

    /// Runs the packer over the instance's items in arrival order.
    pub fn run(
        &self,
        inst: &VecInstance,
        packer: &mut dyn VecOnlinePacker,
    ) -> Result<OnlineRun, DbpError> {
        self.run_observed(inst, packer, &mut VecNoopObserver)
    }

    /// Like [`VecOnlineEngine::run`], but reports every packing event to
    /// the given observer.
    pub fn run_observed<O: VecPackObserver>(
        &self,
        inst: &VecInstance,
        packer: &mut dyn VecOnlinePacker,
        obs: &mut O,
    ) -> Result<OnlineRun, DbpError> {
        let mut session = VecStreamingSession::with_observer(self.mode, packer, obs);
        for item in inst.items() {
            session.arrive(item)?;
        }
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;
    use crate::online::{ItemView, OnlinePacker};
    use crate::openbins::OpenBins;
    use crate::stream::StreamingSession;
    use crate::ClairvoyanceMode;

    /// Untagged vector first fit over the whole fleet (test packer).
    struct VecFirstFit;
    impl VecOnlinePacker for VecFirstFit {
        fn name(&self) -> String {
            "vec-ff".into()
        }
        fn place(&mut self, item: &VecItemView, open: &VecOpenBins) -> Decision {
            open.iter()
                .find(|b| b.fits(&item.size))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::NEW)
        }
    }

    struct ScalarFirstFit;
    impl OnlinePacker for ScalarFirstFit {
        fn name(&self) -> String {
            "ff".into()
        }
        fn place(&mut self, item: &ItemView, open: &OpenBins) -> Decision {
            open.iter()
                .find(|b| b.fits(item.size))
                .map(|b| Decision::Existing(b.id()))
                .unwrap_or(Decision::NEW)
        }
    }

    fn sv(fracs: &[f64]) -> SizeVec {
        SizeVec::from_f64s(fracs)
    }

    fn sample() -> VecInstance {
        VecInstance::from_items(vec![
            VecItem::new(0, sv(&[0.5, 0.2]), 0, 10),
            VecItem::new(1, sv(&[0.5, 0.9]), 2, 8),
            VecItem::new(2, sv(&[0.5, 0.5]), 3, 9),
            VecItem::new(3, sv(&[0.9, 0.1]), 5, 20),
            VecItem::new(4, sv(&[0.1, 0.1]), 12, 30),
        ])
        .unwrap()
    }

    #[test]
    fn axis_overflow_forces_new_bins() {
        // Item 1 fits item 0's bin on axis 0 (0.5+0.5) but not axis 1
        // (0.2+0.9): vector feasibility must open a second bin.
        let inst = sample();
        let run = VecOnlineEngine::clairvoyant()
            .run(&inst, &mut VecFirstFit)
            .unwrap();
        assert_eq!(run.packing.bin_of(ItemId(0)), run.packing.bin_of(ItemId(2)));
        assert_ne!(run.packing.bin_of(ItemId(0)), run.packing.bin_of(ItemId(1)));
        // Usage accounting mirrors the scalar engine: Σ (closed - opened).
        let expect: u128 = run.bins.iter().map(|r| r.usage()).sum();
        assert_eq!(run.usage, expect);
    }

    #[test]
    fn dim1_session_is_bit_identical_to_scalar_session() {
        let scalar = Instance::from_triples(&[
            (0.5, 0, 10),
            (0.5, 2, 8),
            (0.5, 3, 9),
            (0.9, 5, 20),
            (0.1, 12, 30),
        ]);
        let mut sp = ScalarFirstFit;
        let mut session = StreamingSession::new(ClairvoyanceMode::Clairvoyant, &mut sp);
        for r in scalar.items() {
            session.arrive(r).unwrap();
        }
        let scalar_run = session.finish().unwrap();

        let lifted = VecInstance::lift(&scalar, 1);
        let vec_run = VecOnlineEngine::clairvoyant()
            .run(&lifted, &mut VecFirstFit)
            .unwrap();
        assert_eq!(vec_run, scalar_run);
    }

    #[test]
    fn rejects_out_of_order_and_duplicate_arrivals() {
        let mut packer = VecFirstFit;
        let mut s = VecStreamingSession::new(VecClairvoyance::Clairvoyant, &mut packer);
        s.arrive(&VecItem::new(5, sv(&[0.5]), 10, 20)).unwrap();
        let err = s.arrive(&VecItem::new(1, sv(&[0.5]), 5, 20)).unwrap_err();
        assert!(matches!(err, DbpError::BadDecision { .. }));
        let err = s.arrive(&VecItem::new(5, sv(&[0.5]), 11, 20)).unwrap_err();
        assert!(matches!(err, DbpError::DuplicateItemId { id: 5 }));
    }

    #[test]
    fn booking_order_ids_drain_into_the_watermark() {
        // Ids 1..=4 arrive ahead of id 0: they wait above the watermark
        // and drain when 0 fills the gap, as in the scalar session.
        let mut packer = VecFirstFit;
        let mut s = VecStreamingSession::new(VecClairvoyance::Clairvoyant, &mut packer);
        for id in [3, 1, 4, 2] {
            s.arrive(&VecItem::new(id, sv(&[0.1, 0.1]), 0, 5)).unwrap();
        }
        assert_eq!((s.id_watermark(), s.dedupe_backlog()), (0, 4));
        s.arrive(&VecItem::new(0, sv(&[0.1, 0.1]), 0, 5)).unwrap();
        assert_eq!((s.id_watermark(), s.dedupe_backlog()), (5, 0));
        let err = s
            .arrive(&VecItem::new(2, sv(&[0.1, 0.1]), 1, 5))
            .unwrap_err();
        assert!(matches!(err, DbpError::DuplicateItemId { id: 2 }));
    }

    #[test]
    fn advance_to_drains_the_fleet() {
        let mut packer = VecFirstFit;
        let mut s = VecStreamingSession::new(VecClairvoyance::Clairvoyant, &mut packer);
        s.arrive(&VecItem::new(0, sv(&[0.5, 0.5]), 0, 5)).unwrap();
        s.arrive(&VecItem::new(1, sv(&[0.9, 0.1]), 1, 7)).unwrap();
        assert_eq!(s.open_bins(), 2);
        s.advance_to(5).unwrap();
        assert_eq!(s.open_bins(), 1);
        assert_eq!(s.live_items(), 1);
        assert!(s.advance_to(3).is_err(), "clock cannot move backwards");
        s.advance_to(7).unwrap();
        assert_eq!(s.open_bins(), 0);
        let run = s.finish().unwrap();
        assert_eq!(run.usage, 5 + 6);
    }

    #[test]
    fn observer_sees_per_axis_levels() {
        let inst = sample();
        let mut packer = VecFirstFit;
        let mut log = VecEventLog::new();
        let mut s =
            VecStreamingSession::with_observer(VecClairvoyance::Clairvoyant, &mut packer, &mut log);
        for item in inst.items() {
            s.arrive(item).unwrap();
        }
        s.finish().unwrap();
        let opened = log
            .events
            .iter()
            .filter(|e| matches!(e, VecPackEvent::BinOpened { .. }))
            .count();
        let closed = log
            .events
            .iter()
            .filter(|e| matches!(e, VecPackEvent::BinClosed { .. }))
            .count();
        assert_eq!(opened, closed);
        assert!(opened >= 2);
        // Every placement's level change carries the full vector.
        assert!(log.events.iter().any(|e| matches!(
            e,
            VecPackEvent::LevelChanged { level, .. } if level.dims() == 2
        )));
    }

    #[test]
    fn non_clairvoyant_hides_departures() {
        struct AssertBlind;
        impl VecOnlinePacker for AssertBlind {
            fn name(&self) -> String {
                "blind".into()
            }
            fn place(&mut self, item: &VecItemView, _open: &VecOpenBins) -> Decision {
                assert!(item.departure.is_none());
                Decision::NEW
            }
        }
        let inst = sample();
        VecOnlineEngine::non_clairvoyant()
            .run(&inst, &mut AssertBlind)
            .unwrap();
    }
}
