//! Exact duplicate-id detection with memory bounded by the id *spread*,
//! not by the stream length.
//!
//! [`IdDedupe`] answers "has this `u32` id been seen?" exactly, for any
//! arrival order, while holding only:
//!
//! * a **watermark** `w` — every id `< w` has been seen;
//! * a **bitmap window** of 64-bit words starting at the word holding
//!   `w`, one bit per id, covering at most [`WINDOW_BITS`] ids above it;
//! * a small **sparse set** for seen ids beyond the window.
//!
//! A monotone id stream never touches the window: an id equal to the
//! watermark with nothing held above it costs one compare and one
//! increment. Ids that arrive ahead of the watermark (booking order,
//! pairwise swaps, shuffles) set one bit each, and the watermark sweeps
//! runs of set bits a word at a time when the gap below them fills. The
//! window therefore costs `spread / 8` bytes, where the spread is the
//! distance from the watermark to the highest seen id, capped at
//! `WINDOW_BITS / 8` = 8 MiB (the deque keeps the capacity of its peak,
//! so a backlog that drains and refills does not reallocate); only ids
//! farther ahead than that land in the sparse set, and they move into the
//! window as the watermark catches up.
//!
//! The persisted form is the pair `(watermark, sorted ids above it)` —
//! [`IdDedupe::watermark`] and [`IdDedupe::above`] — the same shape the
//! session snapshots, shard coordinators and service checkpoints have
//! always written, so the representation is internal.

use std::collections::{BTreeSet, VecDeque};

/// How many ids above the watermark's word the bitmap window spans
/// (2^26 bits, 8 MiB at most). Seen ids farther ahead live in the sparse
/// set.
pub const WINDOW_BITS: u64 = 1 << 26;

/// An exact set of seen `u32` ids: watermark + bitmap window + sparse
/// overflow (see the module docs).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdDedupe {
    /// Every id `< watermark` has been seen. Held as `u64` so that
    /// seeing `u32::MAX` can move it past the last id.
    watermark: u64,
    /// One bit per id from `base()` (the watermark rounded down to a
    /// multiple of 64) upwards. Bits below the watermark are always
    /// clear, and the deque is empty whenever no bit is set.
    bits: VecDeque<u64>,
    /// Seen ids held above the watermark: set bits plus sparse entries.
    held: usize,
    /// Seen ids at or beyond `base() + WINDOW_BITS`.
    sparse: BTreeSet<u32>,
}

impl IdDedupe {
    /// An empty set: nothing seen, watermark 0.
    pub fn new() -> IdDedupe {
        IdDedupe::default()
    }

    /// Rebuilds the set from its persisted form: every id below
    /// `watermark` plus the ids in `above` (ids below the watermark in
    /// `above` are redundant and ignored). The inverse of
    /// [`IdDedupe::watermark`] + [`IdDedupe::above`].
    pub fn from_parts(watermark: u32, above: &[u32]) -> IdDedupe {
        let mut d = IdDedupe {
            watermark: watermark as u64,
            ..IdDedupe::default()
        };
        for &id in above {
            d.insert(id);
        }
        d
    }

    /// Whether `id` has been seen.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        let id = id as u64;
        if id < self.watermark {
            return true;
        }
        match self.bit_of(id) {
            Some((word, bit)) => self.bits.get(word).is_some_and(|w| w >> bit & 1 == 1),
            None => self.sparse.contains(&(id as u32)),
        }
    }

    /// Marks `id` seen. Returns `false` (and changes nothing) if it
    /// already was.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        if id as u64 == self.watermark && self.held == 0 {
            self.watermark += 1;
            return true;
        }
        self.insert_slow(id as u64)
    }

    fn insert_slow(&mut self, id: u64) -> bool {
        if id < self.watermark {
            return false;
        }
        let Some((word, bit)) = self.bit_of(id) else {
            let fresh = self.sparse.insert(id as u32);
            self.held += usize::from(fresh);
            return fresh;
        };
        if !self.set_bit(word, bit) {
            return false;
        }
        if id == self.watermark {
            self.advance();
        }
        true
    }

    /// First id covered by `bits[0]`.
    #[inline]
    fn base(&self) -> u64 {
        self.watermark & !63
    }

    /// The window position of `id` (which must be `≥ watermark`), or
    /// `None` if it lies beyond the window.
    #[inline]
    fn bit_of(&self, id: u64) -> Option<(usize, u32)> {
        let off = id - self.base();
        (off < WINDOW_BITS).then_some(((off / 64) as usize, (off % 64) as u32))
    }

    /// Sets one window bit, growing the deque as needed; `false` if it
    /// was already set.
    fn set_bit(&mut self, word: usize, bit: u32) -> bool {
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.held += 1;
        true
    }

    /// Sweeps the watermark over the run of set bits starting at it,
    /// dropping the window words it leaves behind, and pulls sparse ids
    /// the moved window now covers into the bitmap.
    fn advance(&mut self) {
        loop {
            while let Some(front) = self.bits.front_mut() {
                let off = (self.watermark % 64) as u32;
                let run = (!(*front >> off)).trailing_zeros().min(64 - off);
                if run == 0 {
                    break;
                }
                // Clear the swept bits so bits below the watermark stay 0.
                *front &= !((u64::MAX >> (64 - run)) << off);
                self.held -= run as usize;
                self.watermark += run as u64;
                if off + run < 64 {
                    break;
                }
                self.bits.pop_front();
            }
            if self.held == self.sparse.len() {
                self.bits.clear();
            }
            if !self.refill_from_sparse() {
                return;
            }
        }
    }

    /// Moves sparse ids that now fall inside the window into the bitmap.
    /// Returns whether one of them sits at the watermark (so the caller
    /// must sweep again).
    fn refill_from_sparse(&mut self) -> bool {
        let mut at_watermark = false;
        while let Some(&first) = self.sparse.first() {
            let Some((word, bit)) = self.bit_of(first as u64) else {
                break;
            };
            self.sparse.pop_first();
            self.held -= 1;
            self.set_bit(word, bit);
            at_watermark |= first as u64 == self.watermark;
        }
        at_watermark
    }

    /// The persisted watermark: every id below it has been seen. Once
    /// `u32::MAX` itself is seen below a full prefix the watermark stays
    /// at `u32::MAX` and that id is reported by [`IdDedupe::above`].
    pub fn watermark(&self) -> u32 {
        self.watermark.min(u32::MAX as u64) as u32
    }

    /// Seen ids at or above [`IdDedupe::watermark`], ascending.
    pub fn above(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.backlog());
        if self.watermark > u32::MAX as u64 {
            out.push(u32::MAX);
        }
        for (k, &w) in self.bits.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let bit = w.trailing_zeros() as u64;
                out.push((self.base() + 64 * k as u64 + bit) as u32);
                w &= w - 1;
            }
        }
        out.extend(self.sparse.iter().copied());
        out
    }

    /// Number of seen ids at or above [`IdDedupe::watermark`]: zero for a
    /// monotone id stream.
    pub fn backlog(&self) -> usize {
        self.held + usize::from(self.watermark > u32::MAX as u64)
    }

    /// Approximate heap bytes held (window words plus sparse entries).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bits.capacity() * size_of::<u64>() + self.sparse.len() * 2 * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_ids_never_touch_the_window() {
        let mut d = IdDedupe::new();
        for id in 0..10_000 {
            assert!(d.insert(id));
            assert_eq!(d.backlog(), 0);
        }
        assert_eq!(d.watermark(), 10_000);
        assert!(d.contains(9_999) && !d.contains(10_000));
        assert!(!d.insert(5));
        assert_eq!(d.approx_bytes(), 0);
    }

    #[test]
    fn out_of_order_ids_sweep_whole_words() {
        let mut d = IdDedupe::new();
        for id in (1..200).rev() {
            assert!(d.insert(id));
        }
        assert_eq!((d.watermark(), d.backlog()), (0, 199));
        assert!(d.approx_bytes() >= 4 * 8, "four window words held");
        assert!(d.insert(0));
        assert_eq!((d.watermark(), d.backlog()), (200, 0));
        assert!(d.above().is_empty());
    }

    #[test]
    fn far_ids_park_in_the_sparse_set_and_migrate() {
        let mut d = IdDedupe::new();
        let far = WINDOW_BITS as u32 + 10;
        assert!(d.insert(far));
        assert!(d.insert(3));
        assert!(!d.insert(far));
        assert_eq!(d.above(), vec![3, far]);
        assert_eq!(d.sparse.len(), 1);
        for id in 0..far {
            if id != 3 {
                assert!(d.insert(id), "{id}");
            }
        }
        assert_eq!((d.watermark(), d.backlog()), (far + 1, 0));
        assert!(d.sparse.is_empty());
    }

    #[test]
    fn u32_max_is_reported_above_a_saturated_watermark() {
        let mut d = IdDedupe::from_parts(u32::MAX - 1, &[]);
        assert!(d.insert(u32::MAX));
        assert!(d.insert(u32::MAX - 1));
        assert!(d.contains(u32::MAX) && !d.insert(u32::MAX));
        assert_eq!((d.watermark(), d.above()), (u32::MAX, vec![u32::MAX]));
        assert_eq!(d.backlog(), 1);
        let back = IdDedupe::from_parts(d.watermark(), &d.above());
        assert_eq!((back.watermark(), back.above()), (u32::MAX, vec![u32::MAX]));
    }

    #[test]
    fn persisted_form_round_trips() {
        let mut d = IdDedupe::new();
        for id in [5u32, 1, 0, 70, 64, 200, 9, WINDOW_BITS as u32 * 3] {
            d.insert(id);
        }
        let (w, above) = (d.watermark(), d.above());
        assert_eq!(w, 2);
        assert_eq!(above, vec![5, 9, 64, 70, 200, WINDOW_BITS as u32 * 3]);
        let back = IdDedupe::from_parts(w, &above);
        assert_eq!((back.watermark(), back.above()), (w, above));
    }
}
