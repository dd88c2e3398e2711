//! # dbp-core — foundations for MinUsageTime Dynamic Bin Packing
//!
//! This crate provides the exact-arithmetic foundations shared by every other
//! crate in the workspace, implementing the model of *Ren & Tang, "Clairvoyant
//! Dynamic Bin Packing for Job Scheduling with Minimum Server Usage Time"*,
//! SPAA 2016:
//!
//! * [`Time`] / [`Interval`] — integer tick timestamps and half-open active
//!   intervals `[arrival, departure)`.
//! * [`Size`] — fixed-point item sizes with exact addition/comparison against
//!   the unit bin capacity ([`Size::CAPACITY`]).
//! * [`Item`] / [`Instance`] — items and whole problem instances, with the
//!   paper's derived quantities (`span`, time–space demand `d(R)`, duration
//!   ratio `μ`).
//! * [`Packing`] — an assignment of items to bins, with an exact sweep-line
//!   validator and usage-time accounting.
//! * [`accounting::lower_bounds`] — Propositions 1–3 of the
//!   paper: demand, span, and `∫⌈S(t)⌉dt`.
//! * [`profile`] — bin level profiles over time (BTree-backed and
//!   segment-tree-backed) used by offline packers for interval feasibility.
//! * [`online`] — the event-driven online packing engine: it feeds items to an
//!   [`online::OnlinePacker`] in arrival order, enforces capacity, closes bins
//!   when their last item departs, and accounts usage time exactly.
//!
//! ## Exactness
//!
//! All feasibility decisions and all usage-time/lower-bound accounting are
//! performed in integer arithmetic. Floating point only appears at the
//! reporting boundary (ratios). This makes the paper's invariants
//! (Propositions 1–3, Theorems 1–5) machine-checkable without tolerance
//! fudging, which the property-based test suites rely on.
//!
//! ## Quick example
//!
//! ```
//! use dbp_core::{Instance, Item, Size};
//! use dbp_core::accounting::lower_bounds;
//!
//! // Two half-size items overlapping in [5, 10): they fit in one bin.
//! let inst = Instance::from_items(vec![
//!     Item::new(0, Size::from_f64(0.5), 0, 10),
//!     Item::new(1, Size::from_f64(0.5), 5, 20),
//! ]).unwrap();
//! assert_eq!(inst.span(), 20);
//! let lb = lower_bounds(&inst);
//! assert_eq!(lb.span, 20);
//! assert!(lb.best() >= 20);
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod dedupe;
pub mod error;
pub mod events;
pub mod instance;
pub mod interval;
pub mod interval_set;
pub mod item;
pub mod observe;
pub mod online;
pub mod openbins;
pub mod packing;
pub mod profile;
pub mod size;
pub mod sizevec;
pub mod stats;
pub mod stream;
pub mod vecbins;
pub mod vecstream;

pub use dedupe::IdDedupe;
pub use error::DbpError;
pub use instance::Instance;
pub use interval::{Interval, Time};
pub use interval_set::IntervalSet;
pub use item::{Item, ItemId};
pub use observe::{EventLog, FitDecision, NoopObserver, OpKind, PackEvent, PackObserver, Tee};
pub use online::{
    ActiveItem, ClairvoyanceMode, Decision, OnlineEngine, OnlinePacker, OnlineRun, PackerState,
};
pub use openbins::OpenBins;
pub use packing::{BinId, OfflinePacker, Packing};
pub use size::Size;
pub use sizevec::{Scalarization, SizeVec, VecInstance, VecItem, MAX_DIMS};
pub use stream::{Admission, BinSnapshot, SessionSnapshot, StreamingSession, SNAPSHOT_VERSION};
pub use vecbins::{VecActiveItem, VecOpenBin, VecOpenBins};
pub use vecstream::{
    VecClairvoyance, VecEventLog, VecItemView, VecNoopObserver, VecOnlineEngine, VecOnlinePacker,
    VecPackEvent, VecPackObserver, VecStreamingSession,
};

/// Result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, DbpError>;
