//! The indexed open-bin set for **vector** packing.
//!
//! [`VecOpenBins`] is the multi-resource twin of [`crate::OpenBins`]:
//! the same slab + free list, the same `BinId → slot` index, the same
//! two intrusive lists (global opening order and per-tag opening order),
//! and the same lazily-built, incrementally-maintained fit structures —
//! but levels, gaps, and feasibility are per-axis [`SizeVec`]s, and an
//! item fits a bin only when it fits on **every** axis.
//!
//! ## Indexed vector fit queries
//!
//! * [`VecOpenBins::first_fit`] — earliest-opened bin of a tag feasible
//!   on all axes, via a **componentwise-max** tournament tree: each
//!   internal node holds the per-axis maximum gap of its subtree. A
//!   subtree whose max gap is infeasible on *some* axis cannot contain a
//!   feasible leaf, so the query prunes it; a leaf's stored gap vector
//!   is exact, so the leftmost surviving leaf is exactly the bin a
//!   linear opening-order scan would pick. Unlike the scalar tree the
//!   node test is only *necessary* (per-axis maxima may come from
//!   different bins), so the walk is a pruned DFS rather than a single
//!   root-to-leaf path — O(log B) when one axis dominates, degrading
//!   gracefully toward the linear scan on adversarial mixes, never
//!   scanning more than the tree.
//! * [`VecOpenBins::best_fit`] / [`VecOpenBins::worst_fit`] — ranked by
//!   a caller-selected [`Scalarization`] of the level vector. A scalar
//!   key orders the bins but says nothing about per-axis feasibility, so
//!   the level-ordered sequence is cut into small sorted **blocks** of at
//!   most [`BLOCK`] entries. Each entry carries its bin's gap vector
//!   inline, and each block carries the componentwise-max gap
//!   **envelope** of its entries. A query walks the blocks from the
//!   fullest (best) or emptiest (worst) end, skips every block whose
//!   envelope fails the demand on some axis (no entry inside can fit),
//!   and checks the entries of the first surviving blocks against their
//!   inline gaps — never touching the bin payload — until one fits. The
//!   probe count is envelope checks plus entries checked. On fleets where
//!   the fuller bins are exhausted on some axis, whole blocks are
//!   rejected by one comparison each, so a query costs about
//!   `B / BLOCK + BLOCK` probes instead of a walk over every fuller bin.
//!
//! Tie-breaks replicate the linear foils bit for bit: Best Fit resolves
//! equal scalarized levels to the **latest** opened (a linear
//! `max_by_key` keeps the last maximum), Worst Fit to the **earliest**
//! (`min_by_key` keeps the first minimum); `seq` — the per-tag opening
//! sequence number — encodes that order in the set key. At `dims == 1`
//! every scalarization collapses to the scalar level and the predicates
//! coincide with the scalar queries, which the dim-1 differential suite
//! exercises end to end.

use crate::error::DbpError;
use crate::interval::Time;
use crate::item::ItemId;
use crate::packing::BinId;
use crate::sizevec::{Scalarization, SizeVec, MAX_DIMS};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;

/// Sentinel for "no slot" in the intrusive lists.
const NIL: u32 = u32::MAX;

/// A resident multi-resource item: what a vector packer can see of the
/// jobs already placed in a bin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VecActiveItem {
    /// The item's id.
    pub id: ItemId,
    /// The item's demand vector.
    pub size: SizeVec,
    /// The item's departure time, if the engine is clairvoyant.
    pub departure: Option<Time>,
}

/// One open bin holding multi-resource items; unit capacity per axis.
#[derive(Clone, Debug)]
pub struct VecOpenBin {
    id: BinId,
    opened_at: Time,
    tag: u64,
    level: SizeVec,
    items: Vec<VecActiveItem>,
}

impl VecOpenBin {
    pub(crate) fn new(id: BinId, opened_at: Time, tag: u64, first: VecActiveItem) -> VecOpenBin {
        VecOpenBin {
            id,
            opened_at,
            tag,
            level: first.size,
            items: vec![first],
        }
    }

    pub(crate) fn push_item(&mut self, active: VecActiveItem, size: SizeVec) -> crate::Result<()> {
        if !self.fits(&size) {
            return Err(DbpError::BadDecision {
                what: format!(
                    "item {} of size {size:?} does not fit bin {:?} (level {:?})",
                    active.id, self.id, self.level
                ),
            });
        }
        self.level = self.level.add(&size);
        self.items.push(active);
        Ok(())
    }

    /// Removes a departing item, returning whether the bin became empty.
    pub(crate) fn remove_item(&mut self, id: ItemId) -> crate::Result<bool> {
        let pos = self
            .items
            .iter()
            .position(|r| r.id == id)
            .ok_or_else(|| DbpError::Internal {
                what: format!("item {id} missing from its bin at departure"),
            })?;
        let removed = self.items.swap_remove(pos);
        self.level = self.level.sub(&removed.size);
        Ok(self.items.is_empty())
    }

    /// The bin id.
    pub fn id(&self) -> BinId {
        self.id
    }

    /// When the bin opened.
    pub fn opened_at(&self) -> Time {
        self.opened_at
    }

    /// The classification tag the bin was opened under.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Current level vector (sum of resident demands, per axis).
    pub fn level(&self) -> SizeVec {
        self.level
    }

    /// Residual gap vector (`1 - level` per axis).
    pub fn gap(&self) -> SizeVec {
        SizeVec::capacity(self.level.dims()).sub(&self.level)
    }

    /// Whether an item of demand `size` fits on **every** axis.
    pub fn fits(&self, size: &SizeVec) -> bool {
        self.level.fits_with(size)
    }

    /// Number of resource axes.
    pub fn dims(&self) -> usize {
        self.level.dims()
    }

    /// Resident items, in placement order modulo departures.
    pub fn items(&self) -> &[VecActiveItem] {
        &self.items
    }
}

/// Per-slot traversal links and index keys (mirrors the scalar slab).
#[derive(Clone, Copy, Debug)]
struct Links {
    prev: u32,
    next: u32,
    tag_prev: u32,
    tag_next: u32,
    /// Per-tag opening sequence number: the fit index's tie-break key.
    seq: u64,
}

/// Head/tail of one tag's opening-order list plus its sequence counter.
#[derive(Clone, Copy, Debug)]
struct TagList {
    head: u32,
    tail: u32,
    next_seq: u64,
}

/// A level-ordered key: `(scalarized level, per-tag seq, slot)`.
/// Ascending order puts the emptiest bins first; `seq` is unique within
/// a tag so the key is total.
type LevelKey = (u64, u64, u32);

/// The lazily-built fit structures of one tag.
#[derive(Clone, Debug, Default)]
struct FitIndex {
    /// Componentwise-max gap tournament tree (First Fit).
    seg: Option<VecGapTree>,
    /// Envelope-pruned level blocks under one scalarization (Best/Worst
    /// Fit); rebuilt if a query asks for a different scalarization.
    ordered: Option<LevelBlocks>,
}

/// Interior-mutable index state (queries take `&VecOpenBins`).
#[derive(Clone, Debug, Default)]
struct FitState {
    by_tag: HashMap<u64, FitIndex>,
    /// slot → leaf position in its tag's [`VecGapTree`].
    pos: Vec<u32>,
}

/// A componentwise-max gap tournament tree over one tag's opening order.
///
/// Leaf `p` holds the gap **vector** of the `p`-th-opened live bin;
/// internal nodes hold the per-axis maximum over their children — a
/// *necessary* feasibility envelope: if `max_gap_d < size_d` on any axis
/// the subtree holds no feasible bin. Dead leaves hold the zero vector,
/// which no valid demand (axis raw ≥ 1) can satisfy.
#[derive(Clone, Debug)]
struct VecGapTree {
    /// Heap layout: `node[1]` is the root, leaf `p` lives at `node[cap + p]`.
    node: Vec<[u64; MAX_DIMS]>,
    cap: usize,
    /// Leaf position → slab slot; [`NIL`] marks dead positions.
    slot_at: Vec<u32>,
    live: usize,
}

/// Componentwise `a_d ≥ b_d` on every axis (trailing dead axes are 0 on
/// both sides, so they never reject).
#[inline]
fn covers(a: &[u64; MAX_DIMS], b: &[u64; MAX_DIMS]) -> bool {
    a[0] >= b[0] && a[1] >= b[1] && a[2] >= b[2] && a[3] >= b[3]
}

/// Componentwise max.
#[inline]
fn cmax(a: [u64; MAX_DIMS], b: [u64; MAX_DIMS]) -> [u64; MAX_DIMS] {
    [
        a[0].max(b[0]),
        a[1].max(b[1]),
        a[2].max(b[2]),
        a[3].max(b[3]),
    ]
}

const ZVEC: [u64; MAX_DIMS] = [0; MAX_DIMS];

impl VecGapTree {
    fn new() -> VecGapTree {
        VecGapTree {
            node: vec![ZVEC; 2],
            cap: 1,
            slot_at: Vec::new(),
            live: 0,
        }
    }

    /// Appends a live leaf in opening order, returning its position.
    fn append(&mut self, slot: u32, gap: [u64; MAX_DIMS], moved: impl FnMut(u32, u32)) -> u32 {
        if self.slot_at.len() == self.cap {
            self.rebuild(self.cap * 2, moved);
        }
        let p = self.slot_at.len() as u32;
        self.slot_at.push(slot);
        self.live += 1;
        self.set(p, gap);
        p
    }

    /// Updates the gap vector at `pos` and repairs the max envelope upward.
    fn set(&mut self, pos: u32, gap: [u64; MAX_DIMS]) {
        let mut i = self.cap + pos as usize;
        self.node[i] = gap;
        while i > 1 {
            i /= 2;
            let m = cmax(self.node[2 * i], self.node[2 * i + 1]);
            if self.node[i] == m {
                break;
            }
            self.node[i] = m;
        }
    }

    /// Kills the leaf at `pos` (bin closed).
    fn kill(&mut self, pos: u32) {
        self.slot_at[pos as usize] = NIL;
        self.set(pos, ZVEC);
        self.live -= 1;
    }

    /// Whether dead positions outnumber live ones enough to compact.
    fn needs_compact(&self) -> bool {
        self.slot_at.len() >= 64 && self.live * 2 < self.slot_at.len()
    }

    /// Rebuilds with capacity ≥ `min_cap`, dropping dead positions while
    /// preserving relative (opening) order.
    fn rebuild(&mut self, min_cap: usize, mut moved: impl FnMut(u32, u32)) {
        let entries: Vec<(u32, [u64; MAX_DIMS])> = self
            .slot_at
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != NIL)
            .map(|(p, &s)| (s, self.node[self.cap + p]))
            .collect();
        let cap = entries.len().max(min_cap).max(1).next_power_of_two();
        self.node.clear();
        self.node.resize(2 * cap, ZVEC);
        self.cap = cap;
        self.slot_at.clear();
        self.live = entries.len();
        for (p, (slot, gap)) in entries.into_iter().enumerate() {
            self.slot_at.push(slot);
            self.node[cap + p] = gap;
            moved(slot, p as u32);
        }
        for i in (1..cap).rev() {
            self.node[i] = cmax(self.node[2 * i], self.node[2 * i + 1]);
        }
    }

    /// The leftmost (earliest-opened) live leaf whose gap covers `size`
    /// on every axis, together with the number of tree nodes probed.
    ///
    /// Pruned left-first DFS: a node is expanded only if its max
    /// envelope covers `size` (necessary condition); a passing **leaf**
    /// is exact, so the first leaf reached is the leftmost feasible bin.
    fn query(&self, size: &[u64; MAX_DIMS]) -> (Option<u32>, usize) {
        if self.live == 0 {
            return (None, 0);
        }
        let mut probes = 1usize;
        if !covers(&self.node[1], size) {
            return (None, probes);
        }
        // Stack of nodes whose envelope covers `size`; right child pushed
        // first so the left child pops first (leftmost leaf wins).
        let mut stack = vec![1usize];
        while let Some(i) = stack.pop() {
            if i >= self.cap {
                return (Some(self.slot_at[i - self.cap]), probes);
            }
            let (l, r) = (2 * i, 2 * i + 1);
            probes += 2;
            if covers(&self.node[r], size) {
                stack.push(r);
            }
            if covers(&self.node[l], size) {
                stack.push(l);
            }
        }
        (None, probes)
    }

    fn approx_bytes(&self) -> usize {
        self.node.capacity() * std::mem::size_of::<[u64; MAX_DIMS]>()
            + self.slot_at.capacity() * std::mem::size_of::<u32>()
    }
}

/// Most entries one [`LevelBlocks`] block holds; a fuller block splits
/// in half.
pub const BLOCK: usize = 32;

/// One bin in the level-ordered index, its gap vector kept inline so a
/// query never dereferences the bin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct LevelEntry {
    key: LevelKey,
    gap: [u64; MAX_DIMS],
}

/// A sorted run of `1..=BLOCK` entries plus the componentwise-max gap of
/// its entries — a *necessary* feasibility test for the whole block.
#[derive(Clone, Debug)]
struct LevelBlock {
    entries: Vec<LevelEntry>,
    env: [u64; MAX_DIMS],
}

impl LevelBlock {
    fn new(entries: Vec<LevelEntry>) -> LevelBlock {
        let mut b = LevelBlock { entries, env: ZVEC };
        b.reenvelope();
        b
    }

    fn reenvelope(&mut self) {
        self.env = self.entries.iter().fold(ZVEC, |m, e| cmax(m, e.gap));
    }

    fn first_key(&self) -> LevelKey {
        self.entries[0].key
    }

    fn last_key(&self) -> LevelKey {
        self.entries[self.entries.len() - 1].key
    }
}

/// One tag's bins in ascending [`LevelKey`] order under one
/// scalarization, cut into envelope-carrying blocks (Best/Worst Fit).
///
/// Invariants (checked by [`VecOpenBins::validate`]): every block holds
/// `1..=BLOCK` entries in strictly ascending key order, each block's
/// last key is below the next block's first, every envelope is the exact
/// componentwise max of its entries' gaps, and two adjacent blocks
/// together hold more than `BLOCK / 2` entries (so there are at most
/// `4n / BLOCK + 1` blocks).
#[derive(Clone, Debug)]
struct LevelBlocks {
    scal: Scalarization,
    blocks: Vec<LevelBlock>,
}

impl LevelBlocks {
    /// Builds from unsorted entries, half-filling each block so the
    /// first inserts do not split.
    fn build(scal: Scalarization, mut entries: Vec<LevelEntry>) -> LevelBlocks {
        entries.sort_unstable_by_key(|e| e.key);
        let blocks = entries
            .chunks(BLOCK / 2)
            .map(|c| LevelBlock::new(c.to_vec()))
            .collect();
        LevelBlocks { scal, blocks }
    }

    /// Inserts into the first block whose last key is not below the new
    /// key, or the last block.
    fn insert(&mut self, entry: LevelEntry) {
        let Some(last) = self.blocks.len().checked_sub(1) else {
            self.blocks.push(LevelBlock::new(vec![entry]));
            return;
        };
        let i = self
            .blocks
            .partition_point(|b| b.last_key() < entry.key)
            .min(last);
        self.insert_into(i, entry);
    }

    /// Inserts into block `i`, which must be a valid home for the key.
    fn insert_into(&mut self, i: usize, entry: LevelEntry) {
        let b = &mut self.blocks[i];
        let at = b.entries.partition_point(|e| e.key < entry.key);
        b.entries.insert(at, entry);
        b.env = cmax(b.env, entry.gap);
        if b.entries.len() > BLOCK {
            let tail = b.entries.split_off(b.entries.len() / 2);
            b.reenvelope();
            self.blocks.insert(i + 1, LevelBlock::new(tail));
        }
    }

    /// The `(block, entry)` position of `key`, if it is indexed.
    fn locate(&self, key: &LevelKey) -> Option<(usize, usize)> {
        let i = self.blocks.partition_point(|b| b.last_key() < *key);
        let at = self
            .blocks
            .get(i)?
            .entries
            .binary_search_by(|e| e.key.cmp(key))
            .ok()?;
        Some((i, at))
    }

    /// Repairs block `i` after an entry left it: drops it if empty,
    /// otherwise recomputes its envelope and merges it into a neighbour
    /// when the two together fit in half a block.
    fn settle(&mut self, i: usize) {
        if self.blocks[i].entries.is_empty() {
            self.blocks.remove(i);
            return;
        }
        self.blocks[i].reenvelope();
        let len = |j: usize| self.blocks[j].entries.len();
        let pair = if i + 1 < self.blocks.len() && len(i) + len(i + 1) <= BLOCK / 2 {
            Some(i)
        } else if i > 0 && len(i - 1) + len(i) <= BLOCK / 2 {
            Some(i - 1)
        } else {
            None
        };
        if let Some(j) = pair {
            let next = self.blocks.remove(j + 1);
            let b = &mut self.blocks[j];
            b.entries.extend_from_slice(&next.entries);
            b.env = cmax(b.env, next.env);
        }
    }

    fn remove(&mut self, key: &LevelKey) {
        if let Some((i, at)) = self.locate(key) {
            self.blocks[i].entries.remove(at);
            self.settle(i);
        }
    }

    /// Moves an entry to a new key and gap. When the new key still sorts
    /// inside the old block the entry slides to its new position in place
    /// and the envelope is recomputed only if the old gap held it up;
    /// otherwise remove + insert.
    fn update(&mut self, old: &LevelKey, entry: LevelEntry) {
        let Some((i, at)) = self.locate(old) else {
            return self.insert(entry);
        };
        let above_prev = i == 0 || self.blocks[i - 1].last_key() < entry.key;
        let below_next = self
            .blocks
            .get(i + 1)
            .is_none_or(|b| entry.key < b.first_key());
        if !(above_prev && below_next) {
            self.blocks[i].entries.remove(at);
            self.settle(i);
            return self.insert(entry);
        }
        let b = &mut self.blocks[i];
        let old_gap = b.entries[at].gap;
        let to = b.entries.partition_point(|e| e.key < entry.key);
        if to > at {
            b.entries.copy_within(at + 1..to, at);
            b.entries[to - 1] = entry;
        } else {
            b.entries.copy_within(to..at, to + 1);
            b.entries[to] = entry;
        }
        if (0..MAX_DIMS).any(|d| old_gap[d] == b.env[d] && entry.gap[d] < old_gap[d]) {
            b.reenvelope();
        } else {
            b.env = cmax(b.env, entry.gap);
        }
    }

    /// The highest-keyed entry whose gap covers `size` (Best Fit), and
    /// the probes spent: one per envelope checked plus one per entry.
    fn best(&self, size: &[u64; MAX_DIMS]) -> (Option<u32>, usize) {
        first_covering(self.blocks.iter().rev(), size, |b| b.entries.iter().rev())
    }

    /// The lowest-keyed entry whose gap covers `size` (Worst Fit).
    fn worst(&self, size: &[u64; MAX_DIMS]) -> (Option<u32>, usize) {
        first_covering(self.blocks.iter(), size, |b| b.entries.iter())
    }

    fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.blocks.capacity() * size_of::<LevelBlock>()
            + self
                .blocks
                .iter()
                .map(|b| b.entries.capacity() * size_of::<LevelEntry>())
                .sum::<usize>()
    }
}

/// The slot of the first entry whose gap covers `size`, walking `blocks`
/// in the given order and each surviving block's entries in the order
/// `entries` yields them; blocks whose envelope fails `size` are skipped
/// unopened. Also returns the probes spent.
fn first_covering<'a, E: Iterator<Item = &'a LevelEntry>>(
    blocks: impl Iterator<Item = &'a LevelBlock>,
    size: &[u64; MAX_DIMS],
    entries: impl Fn(&'a LevelBlock) -> E,
) -> (Option<u32>, usize) {
    let mut probes = 0;
    for b in blocks {
        probes += 1;
        if !covers(&b.env, size) {
            continue;
        }
        for e in entries(b) {
            probes += 1;
            if covers(&e.gap, size) {
                return (Some(e.key.2), probes);
            }
        }
    }
    (None, probes)
}

/// The set of currently open vector bins, ordered by opening time.
///
/// Vector packers receive `&VecOpenBins` in
/// [`crate::vecstream::VecOnlinePacker::place`]. Iteration, tag lists,
/// and O(1) lookup mirror [`crate::OpenBins`]; the indexed fit queries
/// answer the vector Any-Fit rules against the same tie-break contract
/// as a linear scan.
#[derive(Clone, Debug)]
pub struct VecOpenBins {
    /// Slab payload (cold half).
    bins: Vec<Option<VecOpenBin>>,
    /// Slab links and index keys (hot half).
    links: Vec<Links>,
    free: Vec<u32>,
    index: HashMap<BinId, u32>,
    head: u32,
    tail: u32,
    tags: HashMap<u64, TagList>,
    fit: RefCell<FitState>,
}

impl Default for VecOpenBins {
    fn default() -> Self {
        Self::new()
    }
}

impl VecOpenBins {
    /// An empty open set.
    pub fn new() -> VecOpenBins {
        VecOpenBins {
            bins: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            tags: HashMap::new(),
            fit: RefCell::new(FitState::default()),
        }
    }

    /// Number of open bins.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no bin is open.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn bin_at(&self, s: u32) -> &VecOpenBin {
        self.bins[s as usize].as_ref().expect("linked slot")
    }

    /// The bin with this id, if it is open. O(1).
    pub fn get(&self, id: BinId) -> Option<&VecOpenBin> {
        self.index.get(&id).map(|&s| self.bin_at(s))
    }

    /// Whether the bin with this id is open. O(1).
    pub fn contains(&self, id: BinId) -> bool {
        self.index.contains_key(&id)
    }

    /// The earliest-opened bin.
    pub fn first(&self) -> Option<&VecOpenBin> {
        self.iter().next()
    }

    /// The latest-opened bin.
    pub fn last(&self) -> Option<&VecOpenBin> {
        self.iter().next_back()
    }

    /// All open bins in opening order.
    pub fn iter(&self) -> VecIter<'_> {
        VecIter {
            bins: &self.bins,
            links: &self.links,
            front: self.head,
            back: self.tail,
            by_tag: false,
            done: self.head == NIL,
        }
    }

    /// The open bins carrying `tag`, in opening order.
    pub fn iter_tag(&self, tag: u64) -> VecIter<'_> {
        let (head, tail) = self
            .tags
            .get(&tag)
            .map(|t| (t.head, t.tail))
            .unwrap_or((NIL, NIL));
        VecIter {
            bins: &self.bins,
            links: &self.links,
            front: head,
            back: tail,
            by_tag: true,
            done: head == NIL,
        }
    }

    /// The slots of `tag`'s bins in opening order.
    fn tag_slots(&self, tag: u64) -> impl Iterator<Item = u32> + '_ {
        let head = self.tags.get(&tag).map(|t| t.head).unwrap_or(NIL);
        std::iter::successors((head != NIL).then_some(head), move |&s| {
            let n = self.links[s as usize].tag_next;
            (n != NIL).then_some(n)
        })
    }

    // ------------------------------------------------------------------
    // Indexed vector fit queries
    // ------------------------------------------------------------------

    /// Indexed vector First Fit within `tag`: the earliest-opened bin
    /// feasible on **all** axes, or `None`. Returns the decision and the
    /// number of tree nodes probed. `size` must be a valid demand vector.
    pub fn first_fit(&self, tag: u64, size: &SizeVec) -> (Option<BinId>, usize) {
        debug_assert!(
            size.is_valid_item_size(),
            "fit queries require a valid demand"
        );
        let mut st = self.fit.borrow_mut();
        let FitState { by_tag, pos } = &mut *st;
        let entry = by_tag.entry(tag).or_default();
        if entry.seg.is_none() {
            let mut tree = VecGapTree::new();
            for s in self.tag_slots(tag) {
                let p = tree.append(s, self.bin_at(s).gap().raw(), |sl, pp| {
                    pos[sl as usize] = pp
                });
                pos[s as usize] = p;
            }
            entry.seg = Some(tree);
        }
        let (slot, probes) = entry.seg.as_ref().expect("just built").query(&size.raw());
        (slot.map(|s| self.bin_at(s).id()), probes)
    }

    /// Indexed vector Best Fit within `tag`: among bins feasible on all
    /// axes, the one with the **highest** scalarized level, ties to the
    /// latest opened — exactly what a linear scan through
    /// `max_by_key(scalarized level)` keeps. Walks the level blocks from
    /// the fullest end, skipping blocks whose gap envelope cannot hold
    /// `size`, until an entry fits; the probe count is envelopes plus
    /// entries checked.
    pub fn best_fit(
        &self,
        tag: u64,
        size: &SizeVec,
        scal: Scalarization,
    ) -> (Option<BinId>, usize) {
        debug_assert!(
            size.is_valid_item_size(),
            "fit queries require a valid demand"
        );
        let mut st = self.fit.borrow_mut();
        let (slot, probes) = self.level_blocks(&mut st, tag, scal).best(&size.raw());
        (slot.map(|s| self.bin_at(s).id()), probes)
    }

    /// Indexed vector Worst Fit within `tag`: among bins feasible on all
    /// axes, the one with the **lowest** scalarized level, ties to the
    /// earliest opened — exactly what a linear `min_by_key` keeps. Walks
    /// the level blocks from the emptiest end until an entry fits.
    pub fn worst_fit(
        &self,
        tag: u64,
        size: &SizeVec,
        scal: Scalarization,
    ) -> (Option<BinId>, usize) {
        debug_assert!(
            size.is_valid_item_size(),
            "fit queries require a valid demand"
        );
        let mut st = self.fit.borrow_mut();
        let (slot, probes) = self.level_blocks(&mut st, tag, scal).worst(&size.raw());
        (slot.map(|s| self.bin_at(s).id()), probes)
    }

    /// The index entry of the bin in `slot` under `scal`.
    fn level_entry(&self, slot: u32, scal: Scalarization) -> LevelEntry {
        let b = self.bin_at(slot);
        LevelEntry {
            key: (scal.key(&b.level()), self.links[slot as usize].seq, slot),
            gap: b.gap().raw(),
        }
    }

    /// The level blocks of `tag` under `scal`, (re)built on first use or
    /// on a scalarization switch.
    fn level_blocks<'a>(
        &self,
        st: &'a mut FitState,
        tag: u64,
        scal: Scalarization,
    ) -> &'a LevelBlocks {
        let entry = st.by_tag.entry(tag).or_default();
        if entry.ordered.as_ref().map(|o| o.scal) != Some(scal) {
            let entries = self
                .tag_slots(tag)
                .map(|s| self.level_entry(s, scal))
                .collect();
            entry.ordered = Some(LevelBlocks::build(scal, entries));
        }
        entry.ordered.as_ref().expect("just built")
    }

    // ------------------------------------------------------------------
    // Engine-internal mutation
    // ------------------------------------------------------------------

    /// Adds an item to an open bin, enforcing per-axis capacity. Returns
    /// `None` if the bin is not open; otherwise the level vector after
    /// the push.
    pub(crate) fn push_to(
        &mut self,
        id: BinId,
        active: VecActiveItem,
        size: SizeVec,
    ) -> Option<crate::Result<SizeVec>> {
        let s = *self.index.get(&id)?;
        let bin = self.bins[s as usize].as_mut().expect("indexed slot");
        let old_level = bin.level();
        if let Err(e) = bin.push_item(active, size) {
            return Some(Err(e));
        }
        let (level, gap, tag) = (bin.level(), bin.gap().raw(), bin.tag());
        let seq = self.links[s as usize].seq;
        self.fit_level_changed(tag, s, seq, old_level, level, gap);
        Some(Ok(level))
    }

    /// Removes a departing item from an open bin. Returns `None` if the
    /// bin is not open; otherwise `(became_empty, level_after)`.
    pub(crate) fn remove_from(
        &mut self,
        id: BinId,
        item: ItemId,
    ) -> Option<crate::Result<(bool, SizeVec)>> {
        let s = *self.index.get(&id)?;
        let bin = self.bins[s as usize].as_mut().expect("indexed slot");
        let old_level = bin.level();
        let became_empty = match bin.remove_item(item) {
            Ok(e) => e,
            Err(e) => return Some(Err(e)),
        };
        let (level, gap, tag) = (bin.level(), bin.gap().raw(), bin.tag());
        let seq = self.links[s as usize].seq;
        self.fit_level_changed(tag, s, seq, old_level, level, gap);
        Some(Ok((became_empty, level)))
    }

    /// Propagates a level change into the tag's active fit structures.
    fn fit_level_changed(
        &mut self,
        tag: u64,
        slot: u32,
        seq: u64,
        old_level: SizeVec,
        new_level: SizeVec,
        new_gap: [u64; MAX_DIMS],
    ) {
        let FitState { by_tag, pos } = self.fit.get_mut();
        if by_tag.is_empty() {
            return;
        }
        let Some(entry) = by_tag.get_mut(&tag) else {
            return;
        };
        if let Some(tree) = entry.seg.as_mut() {
            tree.set(pos[slot as usize], new_gap);
        }
        if let Some(blocks) = entry.ordered.as_mut() {
            let scal = blocks.scal;
            blocks.update(
                &(scal.key(&old_level), seq, slot),
                LevelEntry {
                    key: (scal.key(&new_level), seq, slot),
                    gap: new_gap,
                },
            );
        }
    }

    /// Appends a newly opened bin (engine-internal).
    pub(crate) fn insert(&mut self, bin: VecOpenBin) {
        let id = bin.id();
        let tag = bin.tag();
        let gap = bin.gap().raw();
        let level = bin.level();
        debug_assert!(!self.index.contains_key(&id), "bin {id:?} already open");

        let s = match self.free.pop() {
            Some(s) => s,
            None => {
                self.bins.push(None);
                self.links.push(Links {
                    prev: NIL,
                    next: NIL,
                    tag_prev: NIL,
                    tag_next: NIL,
                    seq: 0,
                });
                self.fit.get_mut().pos.push(NIL);
                (self.bins.len() - 1) as u32
            }
        };

        let (tag_prev, seq) = match self.tags.get_mut(&tag) {
            Some(entry) => {
                let old_tail = entry.tail;
                entry.tail = s;
                let seq = entry.next_seq;
                entry.next_seq += 1;
                (old_tail, seq)
            }
            None => {
                self.tags.insert(
                    tag,
                    TagList {
                        head: s,
                        tail: s,
                        next_seq: 1,
                    },
                );
                (NIL, 0)
            }
        };
        if tag_prev != NIL {
            self.links[tag_prev as usize].tag_next = s;
        }

        let prev = self.tail;
        if prev != NIL {
            self.links[prev as usize].next = s;
        } else {
            self.head = s;
        }
        self.tail = s;

        self.links[s as usize] = Links {
            prev,
            next: NIL,
            tag_prev,
            tag_next: NIL,
            seq,
        };
        self.bins[s as usize] = Some(bin);
        self.index.insert(id, s);
        self.fit_on_insert(tag, s, gap, level, seq);
    }

    fn fit_on_insert(
        &mut self,
        tag: u64,
        slot: u32,
        gap: [u64; MAX_DIMS],
        level: SizeVec,
        seq: u64,
    ) {
        let FitState { by_tag, pos } = self.fit.get_mut();
        if by_tag.is_empty() {
            return;
        }
        let Some(entry) = by_tag.get_mut(&tag) else {
            return;
        };
        if let Some(tree) = entry.seg.as_mut() {
            let p = tree.append(slot, gap, |sl, pp| pos[sl as usize] = pp);
            pos[slot as usize] = p;
        }
        if let Some(blocks) = entry.ordered.as_mut() {
            blocks.insert(LevelEntry {
                key: (blocks.scal.key(&level), seq, slot),
                gap,
            });
        }
    }

    /// Removes a closed bin and returns it (engine-internal).
    pub(crate) fn remove(&mut self, id: BinId) -> Option<VecOpenBin> {
        let s = self.index.remove(&id)?;
        let bin = self.bins[s as usize].take().expect("indexed slot");
        let links = self.links[s as usize];

        // Unlink from the global opening-order list.
        if links.prev != NIL {
            self.links[links.prev as usize].next = links.next;
        } else {
            self.head = links.next;
        }
        if links.next != NIL {
            self.links[links.next as usize].prev = links.prev;
        } else {
            self.tail = links.prev;
        }

        // Unlink from the tag list, dropping the tag entry when it empties.
        let tag = bin.tag();
        if links.tag_prev != NIL {
            self.links[links.tag_prev as usize].tag_next = links.tag_next;
        }
        if links.tag_next != NIL {
            self.links[links.tag_next as usize].tag_prev = links.tag_prev;
        }
        let entry = self.tags.get_mut(&tag).expect("open tag entry");
        let mut tag_died = false;
        if entry.head == s && entry.tail == s {
            self.tags.remove(&tag);
            tag_died = true;
        } else if entry.head == s {
            entry.head = links.tag_next;
        } else if entry.tail == s {
            entry.tail = links.tag_prev;
        }

        self.free.push(s);
        self.fit_on_remove(tag, s, bin.level(), links.seq, tag_died);
        Some(bin)
    }

    fn fit_on_remove(&mut self, tag: u64, slot: u32, level: SizeVec, seq: u64, tag_died: bool) {
        let FitState { by_tag, pos } = self.fit.get_mut();
        if by_tag.is_empty() {
            return;
        }
        if tag_died {
            by_tag.remove(&tag);
            return;
        }
        let Some(entry) = by_tag.get_mut(&tag) else {
            return;
        };
        if let Some(tree) = entry.seg.as_mut() {
            tree.kill(pos[slot as usize]);
            if tree.needs_compact() {
                tree.rebuild(0, |sl, pp| pos[sl as usize] = pp);
            }
        }
        if let Some(blocks) = entry.ordered.as_mut() {
            blocks.remove(&(blocks.scal.key(&level), seq, slot));
        }
    }

    /// Bytes of heap-adjacent state held per open slot (bench RSS proxy).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let fit = self.fit.borrow();
        let fit_bytes: usize = fit.pos.capacity() * size_of::<u32>()
            + fit
                .by_tag
                .values()
                .map(|e| {
                    e.seg.as_ref().map(VecGapTree::approx_bytes).unwrap_or(0)
                        + e.ordered
                            .as_ref()
                            .map(LevelBlocks::approx_bytes)
                            .unwrap_or(0)
                })
                .sum::<usize>();
        self.bins.capacity() * size_of::<Option<VecOpenBin>>()
            + self.links.capacity() * size_of::<Links>()
            + self.free.capacity() * size_of::<u32>()
            + self.index.capacity() * (size_of::<BinId>() + size_of::<u32>())
            + self.tags.capacity() * (size_of::<u64>() + size_of::<TagList>())
            + fit_bytes
            + self
                .iter()
                .map(|b| std::mem::size_of_val(b.items()))
                .sum::<usize>()
    }

    /// Exhaustively checks every internal invariant, including exact
    /// agreement of every active fit structure with the bins it indexes.
    /// O(everything); for tests and the audit differential, never the
    /// hot path.
    #[doc(hidden)]
    pub fn validate(&self) -> std::result::Result<(), String> {
        let err = |what: String| Err(what);
        if self.bins.len() != self.links.len() {
            return err(format!(
                "SoA skew: {} bins vs {} links",
                self.bins.len(),
                self.links.len()
            ));
        }
        let live: Vec<u32> = (0..self.bins.len() as u32)
            .filter(|&s| self.bins[s as usize].is_some())
            .collect();
        if live.len() != self.index.len() {
            return err(format!(
                "{} live slots but {} index entries",
                live.len(),
                self.index.len()
            ));
        }
        for (&id, &s) in &self.index {
            match self.bins.get(s as usize).and_then(Option::as_ref) {
                Some(b) if b.id() == id => {}
                _ => return err(format!("index maps {id:?} to a bad slot {s}")),
            }
        }
        let mut free_set = std::collections::HashSet::new();
        for &f in &self.free {
            if !free_set.insert(f) {
                return err(format!("slot {f} on the free list twice"));
            }
            if self.bins.get(f as usize).map(Option::is_some) != Some(false) {
                return err(format!("free slot {f} is live or out of range"));
            }
        }
        if free_set.len() + live.len() != self.bins.len() {
            return err("free list and live slots do not partition the slab".into());
        }
        let mut order = Vec::new();
        let mut cur = self.head;
        let mut prev = NIL;
        while cur != NIL {
            if self.bins[cur as usize].is_none() {
                return err(format!("global list visits dead slot {cur}"));
            }
            if self.links[cur as usize].prev != prev {
                return err(format!("slot {cur} has a bad prev link"));
            }
            order.push(cur);
            prev = cur;
            cur = self.links[cur as usize].next;
            if order.len() > self.bins.len() {
                return err("global list cycles".into());
            }
        }
        if self.tail != prev {
            return err("tail does not end the global list".into());
        }
        if order.len() != live.len() {
            return err(format!(
                "global list visits {} of {} live bins",
                order.len(),
                live.len()
            ));
        }
        let rank: HashMap<u32, usize> = order.iter().enumerate().map(|(i, &s)| (s, i)).collect();
        let mut tagged = 0usize;
        for (&tag, list) in &self.tags {
            let mut cur = list.head;
            let mut prev = NIL;
            let mut last_rank = None;
            let mut last_seq = None;
            while cur != NIL {
                let b = self
                    .bins
                    .get(cur as usize)
                    .and_then(Option::as_ref)
                    .ok_or_else(|| format!("tag {tag} list visits dead slot {cur}"))?;
                if b.tag() != tag {
                    return err(format!("tag {tag} list holds a bin tagged {}", b.tag()));
                }
                if self.links[cur as usize].tag_prev != prev {
                    return err(format!("slot {cur} has a bad tag_prev link"));
                }
                let r = rank[&cur];
                if last_rank.is_some_and(|lr| lr >= r) {
                    return err(format!("tag {tag} list breaks opening order"));
                }
                let seq = self.links[cur as usize].seq;
                if last_seq.is_some_and(|ls| ls >= seq) {
                    return err(format!("tag {tag} sequence numbers not increasing"));
                }
                if seq >= list.next_seq {
                    return err(format!("tag {tag} holds seq {seq} >= next_seq"));
                }
                last_rank = Some(r);
                last_seq = Some(seq);
                tagged += 1;
                prev = cur;
                cur = self.links[cur as usize].tag_next;
                if tagged > live.len() {
                    return err("tag lists cycle".into());
                }
            }
            if list.tail != prev {
                return err(format!("tag {tag} tail does not end its list"));
            }
            if list.head == NIL {
                return err(format!("tag {tag} entry is empty but retained"));
            }
        }
        if tagged != live.len() {
            return err(format!(
                "tag lists cover {tagged} of {} live bins",
                live.len()
            ));
        }
        let fit = self.fit.borrow();
        for (&tag, entry) in &fit.by_tag {
            let slots: Vec<u32> = self.tag_slots(tag).collect();
            if let Some(tree) = entry.seg.as_ref() {
                if tree.live != slots.len() {
                    return err(format!(
                        "tag {tag} tree tracks {} of {} bins",
                        tree.live,
                        slots.len()
                    ));
                }
                let mut last_pos = None;
                for &s in &slots {
                    let p = fit.pos[s as usize];
                    if tree.slot_at.get(p as usize) != Some(&s) {
                        return err(format!("tag {tag} slot {s} lost its tree leaf"));
                    }
                    if tree.node[tree.cap + p as usize] != self.bin_at(s).gap().raw() {
                        return err(format!("tag {tag} slot {s} leaf gap is stale"));
                    }
                    if last_pos.is_some_and(|lp| lp >= p) {
                        return err(format!("tag {tag} tree breaks opening order"));
                    }
                    last_pos = Some(p);
                }
                for (p, &s) in tree.slot_at.iter().enumerate() {
                    if s != NIL && !slots.contains(&s) {
                        return err(format!("tag {tag} tree leaf {p} points at a foreign slot"));
                    }
                }
                for i in 1..tree.cap {
                    if tree.node[i] != cmax(tree.node[2 * i], tree.node[2 * i + 1]) {
                        return err(format!("tag {tag} tree node {i} violates max property"));
                    }
                }
            }
            if let Some(lb) = entry.ordered.as_ref() {
                let mut expect: Vec<LevelEntry> = slots
                    .iter()
                    .map(|&s| self.level_entry(s, lb.scal))
                    .collect();
                expect.sort_unstable_by_key(|e| e.key);
                let mut held = Vec::with_capacity(expect.len());
                for (i, b) in lb.blocks.iter().enumerate() {
                    if b.entries.is_empty() || b.entries.len() > BLOCK {
                        return err(format!(
                            "tag {tag} level block {i} holds {} entries",
                            b.entries.len()
                        ));
                    }
                    if b.env != b.entries.iter().fold(ZVEC, |m, e| cmax(m, e.gap)) {
                        return err(format!("tag {tag} level block {i} envelope is stale"));
                    }
                    if let Some(next) = lb.blocks.get(i + 1) {
                        if b.entries.len() + next.entries.len() <= BLOCK / 2 {
                            return err(format!("tag {tag} level blocks {i}, {} underfull", i + 1));
                        }
                    }
                    held.extend_from_slice(&b.entries);
                }
                if held.windows(2).any(|w| w[0].key >= w[1].key) {
                    return err(format!("tag {tag} level blocks break key order"));
                }
                if held != expect {
                    return err(format!("tag {tag} level blocks are stale"));
                }
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a VecOpenBins {
    type Item = &'a VecOpenBin;
    type IntoIter = VecIter<'a>;

    fn into_iter(self) -> VecIter<'a> {
        self.iter()
    }
}

/// Double-ended iterator over open vector bins in opening order.
#[derive(Clone)]
pub struct VecIter<'a> {
    bins: &'a [Option<VecOpenBin>],
    links: &'a [Links],
    front: u32,
    back: u32,
    by_tag: bool,
    done: bool,
}

impl fmt::Debug for VecIter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VecIter")
            .field("front", &self.front)
            .field("back", &self.back)
            .field("by_tag", &self.by_tag)
            .finish()
    }
}

impl<'a> VecIter<'a> {
    fn bin(&self, s: u32) -> &'a VecOpenBin {
        self.bins[s as usize].as_ref().expect("linked slot")
    }
}

impl<'a> Iterator for VecIter<'a> {
    type Item = &'a VecOpenBin;

    fn next(&mut self) -> Option<&'a VecOpenBin> {
        if self.done {
            return None;
        }
        let cur = self.front;
        if cur == self.back {
            self.done = true;
        } else {
            let links = &self.links[cur as usize];
            self.front = if self.by_tag {
                links.tag_next
            } else {
                links.next
            };
        }
        Some(self.bin(cur))
    }
}

impl<'a> DoubleEndedIterator for VecIter<'a> {
    fn next_back(&mut self) -> Option<&'a VecOpenBin> {
        if self.done {
            return None;
        }
        let cur = self.back;
        if cur == self.front {
            self.done = true;
        } else {
            let links = &self.links[cur as usize];
            self.back = if self.by_tag {
                links.tag_prev
            } else {
                links.prev
            };
        }
        Some(self.bin(cur))
    }
}

impl std::iter::FusedIterator for VecIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(fracs: &[f64]) -> SizeVec {
        SizeVec::from_f64s(fracs)
    }

    fn bin_with(id: u32, tag: u64, level: &[f64]) -> VecOpenBin {
        VecOpenBin::new(
            BinId(id),
            id as i64,
            tag,
            VecActiveItem {
                id: ItemId(id),
                size: sv(level),
                departure: None,
            },
        )
    }

    fn ids(it: impl Iterator<Item = u32>) -> Vec<u32> {
        it.collect()
    }

    fn linear_first(open: &VecOpenBins, tag: u64, size: &SizeVec) -> Option<BinId> {
        open.iter_tag(tag).find(|b| b.fits(size)).map(|b| b.id())
    }
    fn linear_best(
        open: &VecOpenBins,
        tag: u64,
        size: &SizeVec,
        scal: Scalarization,
    ) -> Option<BinId> {
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

    #[test]
    fn opening_order_and_tags_mirror_the_scalar_slab() {
        let mut open = VecOpenBins::new();
        for i in 0..6 {
            open.insert(bin_with(i, i as u64 % 2, &[0.25, 0.25]));
        }
        assert_eq!(ids(open.iter().map(|b| b.id().0)), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(ids(open.iter_tag(0).map(|b| b.id().0)), vec![0, 2, 4]);
        open.remove(BinId(0)).unwrap();
        open.remove(BinId(5)).unwrap();
        open.insert(bin_with(6, 0, &[0.25, 0.25]));
        assert_eq!(ids(open.iter().map(|b| b.id().0)), vec![1, 2, 3, 4, 6]);
        assert_eq!(ids(open.iter_tag(0).map(|b| b.id().0)), vec![2, 4, 6]);
        open.validate().unwrap();
    }

    #[test]
    fn feasibility_requires_every_axis() {
        let mut open = VecOpenBins::new();
        // Bin 0 has room on axis 0 only; bin 1 has room on both.
        open.insert(bin_with(0, 0, &[0.1, 0.9]));
        open.insert(bin_with(1, 0, &[0.5, 0.5]));
        let need = sv(&[0.3, 0.3]);
        assert_eq!(open.first_fit(0, &need).0, Some(BinId(1)));
        assert_eq!(open.first_fit(0, &need).0, linear_first(&open, 0, &need));
        // On axis 0 alone, bin 0 would win — the scalar shortcut is wrong.
        let axis0_only = sv(&[0.3, 0.05]);
        assert_eq!(open.first_fit(0, &axis0_only).0, Some(BinId(0)));
        open.validate().unwrap();
    }

    #[test]
    fn indexed_queries_match_linear_scans_with_ties() {
        let mut open = VecOpenBins::new();
        let levels: &[&[f64]] = &[
            &[0.25, 0.5],
            &[0.5, 0.25],
            &[0.25, 0.5],
            &[0.75, 0.2],
            &[0.5, 0.25],
        ];
        for (i, lvl) in levels.iter().enumerate() {
            open.insert(bin_with(i as u32, 0, lvl));
        }
        for scal in [Scalarization::Sum, Scalarization::MaxAxis] {
            for size in [
                &[0.1, 0.1][..],
                &[0.26, 0.4],
                &[0.5, 0.5],
                &[0.74, 0.1],
                &[0.9, 0.9],
            ] {
                let s = sv(size);
                assert_eq!(
                    open.first_fit(0, &s).0,
                    linear_first(&open, 0, &s),
                    "ff {size:?}"
                );
                assert_eq!(
                    open.best_fit(0, &s, scal).0,
                    linear_best(&open, 0, &s, scal),
                    "bf {size:?} {scal:?}"
                );
                assert_eq!(
                    open.worst_fit(0, &s, scal).0,
                    linear_worst(&open, 0, &s, scal),
                    "wf {size:?} {scal:?}"
                );
            }
        }
        // Sum-scalarized ties: bins 0 and 2 at sum 0.75, bins 1 and 4 too.
        // Best keeps the LATEST of the fullest feasible; worst the EARLIEST.
        let s = sv(&[0.2, 0.2]);
        assert_eq!(
            open.best_fit(0, &s, Scalarization::Sum).0,
            linear_best(&open, 0, &s, Scalarization::Sum)
        );
        assert_eq!(
            open.worst_fit(0, &s, Scalarization::Sum).0,
            Some(BinId(0)),
            "worst-fit ties resolve earliest"
        );
        open.validate().unwrap();
    }

    #[test]
    fn best_fit_skips_infeasible_fuller_bins() {
        let mut open = VecOpenBins::new();
        // Fullest by sum, but axis 1 is nearly exhausted.
        open.insert(bin_with(0, 0, &[0.2, 0.95]));
        open.insert(bin_with(1, 0, &[0.5, 0.5]));
        let s = sv(&[0.2, 0.2]);
        let (hit, probes) = open.best_fit(0, &s, Scalarization::Sum);
        assert_eq!(hit, Some(BinId(1)));
        // One envelope check for the single block, then both entries: the
        // envelope covers the demand (bin 1's gap does), so the walk
        // checks the infeasible fuller bin before the fitting one.
        assert_eq!(probes, 3, "walked past the infeasible fuller bin");
        assert_eq!(hit, linear_best(&open, 0, &s, Scalarization::Sum));
        open.validate().unwrap();
    }

    #[test]
    fn worst_fit_cannot_use_the_scalar_shortcut() {
        let mut open = VecOpenBins::new();
        // Emptiest by sum, but infeasible on axis 1; a fuller bin fits.
        open.insert(bin_with(0, 0, &[0.05, 0.95]));
        open.insert(bin_with(1, 0, &[0.6, 0.3]));
        let s = sv(&[0.2, 0.2]);
        assert_eq!(open.worst_fit(0, &s, Scalarization::Sum).0, Some(BinId(1)));
        assert_eq!(
            open.worst_fit(0, &s, Scalarization::Sum).0,
            linear_worst(&open, 0, &s, Scalarization::Sum)
        );
        open.validate().unwrap();
    }

    #[test]
    fn queries_track_mutation_slot_reuse_and_scal_switches() {
        let mut open = VecOpenBins::new();
        for i in 0..8 {
            open.insert(bin_with(i, 7, &[0.3, 0.2]));
        }
        let s = sv(&[0.5, 0.5]);
        assert_eq!(open.first_fit(7, &s).0, Some(BinId(0)));
        assert_eq!(open.best_fit(7, &s, Scalarization::Sum).0, Some(BinId(7)));
        open.push_to(
            BinId(2),
            VecActiveItem {
                id: ItemId(100),
                size: sv(&[0.4, 0.1]),
                departure: None,
            },
            sv(&[0.4, 0.1]),
        )
        .unwrap()
        .unwrap();
        assert_eq!(
            open.best_fit(7, &sv(&[0.3, 0.3]), Scalarization::Sum).0,
            Some(BinId(2))
        );
        // Switching scalarization rebuilds the set and stays consistent.
        assert_eq!(
            open.best_fit(7, &sv(&[0.3, 0.3]), Scalarization::MaxAxis).0,
            linear_best(&open, 7, &sv(&[0.3, 0.3]), Scalarization::MaxAxis)
        );
        open.validate().unwrap();
        open.remove(BinId(0)).unwrap();
        open.remove(BinId(2)).unwrap();
        open.insert(bin_with(20, 7, &[0.9, 0.05]));
        assert_eq!(
            open.first_fit(7, &sv(&[0.65, 0.1])).0,
            linear_first(&open, 7, &sv(&[0.65, 0.1]))
        );
        open.remove_from(BinId(20), ItemId(20)).unwrap().unwrap();
        assert_eq!(
            open.best_fit(7, &sv(&[0.05, 0.05]), Scalarization::MaxAxis)
                .0,
            linear_best(&open, 7, &sv(&[0.05, 0.05]), Scalarization::MaxAxis)
        );
        open.validate().unwrap();
    }

    #[test]
    fn empty_and_missing_tags_report_zero_probes() {
        let open = VecOpenBins::new();
        let s = sv(&[0.5, 0.5]);
        assert_eq!(open.first_fit(3, &s), (None, 0));
        assert_eq!(open.best_fit(3, &s, Scalarization::Sum), (None, 0));
        assert_eq!(open.worst_fit(3, &s, Scalarization::Sum), (None, 0));
        open.validate().unwrap();
    }

    #[test]
    fn tree_prunes_and_compacts_preserving_order() {
        let mut open = VecOpenBins::new();
        for i in 0..256 {
            open.insert(bin_with(i, 0, &[0.6, 0.6]));
        }
        let s = sv(&[0.3, 0.3]);
        assert_eq!(open.first_fit(0, &s).0, Some(BinId(0)));
        for i in (0..256).filter(|i| i % 3 != 1) {
            open.remove(BinId(i)).unwrap();
        }
        open.validate().unwrap();
        assert_eq!(open.first_fit(0, &s).0, linear_first(&open, 0, &s));
        assert_eq!(open.first_fit(0, &s).0, Some(BinId(1)));
        open.insert(bin_with(999, 0, &[0.6, 0.6]));
        assert_eq!(open.first_fit(0, &s).0, Some(BinId(1)));
        open.validate().unwrap();
        // An infeasible query is rejected at the root in one probe.
        let (hit, probes) = open.first_fit(0, &sv(&[0.9, 0.9]));
        assert_eq!(hit, None);
        assert_eq!(probes, 1);
    }

    #[test]
    fn probe_counts_stay_near_logarithmic_on_uniform_fleets() {
        let mut open = VecOpenBins::new();
        for i in 0..1000 {
            open.insert(bin_with(i, 0, &[0.999, 0.999]));
        }
        open.insert(bin_with(2000, 0, &[0.25, 0.25]));
        let (hit, probes) = open.first_fit(0, &sv(&[0.5, 0.5]));
        assert_eq!(hit, Some(BinId(2000)));
        // One root-to-leaf pruned path: every full subtree is rejected at
        // its envelope, so probes stay O(log B) here.
        assert!(probes <= 40, "{probes} probes for 1001 bins");
        open.validate().unwrap();
    }

    #[test]
    fn level_blocks_bound_best_and_worst_fit_probes_on_deep_fleets() {
        // 1000 bins exhausted on axis 1 (and spread over every level on
        // axis 0) plus one roomy bin at the bottom of the level order:
        // every block but the roomy bin's is rejected by its envelope.
        let mut open = VecOpenBins::new();
        for i in 0..1000u32 {
            let a0 = 0.3 + 0.6 * f64::from(i) / 1000.0;
            open.insert(bin_with(i, 0, &[a0, 0.99]));
        }
        open.insert(bin_with(5000, 0, &[0.1, 0.1]));
        let need = sv(&[0.5, 0.5]);
        for scal in [Scalarization::Sum, Scalarization::MaxAxis] {
            let (hit, probes) = open.best_fit(0, &need, scal);
            assert_eq!(hit, Some(BinId(5000)));
            assert_eq!(hit, linear_best(&open, 0, &need, scal));
            let blocks = {
                let fit = open.fit.borrow();
                let lb = fit.by_tag[&0].ordered.as_ref().expect("built");
                lb.blocks.len()
            };
            // Built half full: ceil(1001 / (BLOCK / 2)) blocks.
            assert_eq!(blocks, 1001usize.div_ceil(BLOCK / 2));
            // Every envelope once, then at most one block of entries.
            assert!(probes <= blocks + BLOCK, "{scal:?}: {probes} probes");
            let (hit, probes) = open.worst_fit(0, &need, scal);
            assert_eq!(hit, Some(BinId(5000)));
            // The roomy bin is the emptiest: first envelope, first entry.
            assert_eq!(probes, 2, "{scal:?}");
        }
        // Incremental maintenance keeps the bound: fill the roomy bin
        // past the demand and open another below the exhausted ones.
        open.push_to(
            BinId(5000),
            VecActiveItem {
                id: ItemId(9000),
                size: sv(&[0.6, 0.6]),
                departure: None,
            },
            sv(&[0.6, 0.6]),
        )
        .unwrap()
        .unwrap();
        open.insert(bin_with(5001, 0, &[0.2, 0.2]));
        let (hit, probes) = open.best_fit(0, &need, Scalarization::Sum);
        assert_eq!(hit, Some(BinId(5001)));
        assert!(probes <= 1002usize.div_ceil(BLOCK / 2) + BLOCK, "{probes}");
        open.validate().unwrap();
    }

    #[test]
    fn push_and_remove_report_missing_bins_and_overflow() {
        let mut open = VecOpenBins::new();
        open.insert(bin_with(1, 0, &[0.5, 0.5]));
        let item = VecActiveItem {
            id: ItemId(5),
            size: sv(&[0.5, 0.5]),
            departure: None,
        };
        assert!(open.push_to(BinId(9), item, sv(&[0.5, 0.5])).is_none());
        assert!(open.remove_from(BinId(9), ItemId(5)).is_none());
        let over = open.push_to(
            BinId(1),
            VecActiveItem {
                id: ItemId(6),
                size: sv(&[0.2, 0.6]),
                departure: None,
            },
            sv(&[0.2, 0.6]),
        );
        assert!(matches!(over, Some(Err(DbpError::BadDecision { .. }))));
        open.validate().unwrap();
        // Scalar embedding: a dim-1 fleet behaves like the scalar set.
        let mut one = VecOpenBins::new();
        one.insert(bin_with(0, 0, &[0.25]));
        one.insert(bin_with(1, 0, &[0.5]));
        assert_eq!(one.first_fit(0, &sv(&[0.7])).0, Some(BinId(0)));
        assert_eq!(
            one.best_fit(0, &sv(&[0.5]), Scalarization::Sum).0,
            Some(BinId(1))
        );
        one.validate().unwrap();
    }

    #[test]
    fn big_checked_size_of_items_is_nonzero() {
        let mut open = VecOpenBins::new();
        open.insert(bin_with(0, 0, &[0.5, 0.5]));
        assert!(open.approx_bytes() > 0);
    }
}
