//! RR-set pool and max-coverage machinery for the Stop-and-Stare library.
//!
//! Every RIS algorithm works on a growing pool `R` of Reverse Reachable
//! sets and repeatedly needs two operations:
//!
//! * **Max-Coverage** (Algorithm 2 of the paper): pick seeds covering
//!   the most RR sets. One lazy-heap greedy kernel answers every variant
//!   from a [`Selection`] spec — an [`Objective`] (covered-set count, or
//!   the root-weighted mass of targeted viral marketing), a [`Limit`]
//!   (top-`k`, or a cost budget over [`NodeCosts`]) and forced/excluded
//!   seeds — through [`CoverageView::select_with`]. A [`CoverageView`] is
//!   a selection-time, range-rebased forward CSR of the queried pool
//!   slice that turns decremental gain updates into contiguous slice
//!   sweeps with a generation-stamped covered bitset ([`GreedyScratch`],
//!   reusable across rounds via [`max_coverage_with`]). Selection starts
//!   from a fresh gain histogram or from a frozen [`GainSnapshot`] of the
//!   slice (mergeable per sealed epoch, the serving engine's cache unit).
//!   [`max_coverage`] and [`max_coverage_range`] are the solvers' plain
//!   top-`k` entry points.
//! * **Coverage queries**: `Cov_R(S)` for the stopping conditions —
//!   [`RrCollection::coverage_of`].
//!
//! [`RrCollection`] stores sets in a flat arena with a **two-tier**
//! inverted node→set-id index — a sealed flat-CSR tier rebuilt by a
//! parallel counting sort at epoch compactions, plus a small pending
//! chain tier for fresh appends (see [`RrCollection`]'s docs). It
//! supports deterministic parallel growth and accounts its exact byte
//! footprint (the quantity Figures 6–7 of the paper track).
//!
//! D-SSA splits its sample stream into halves (`R_t`, `R^c_t`); both
//! [`max_coverage_range`] and [`RrCollection::coverage_of_range`] take a
//! set-id range so the halves can live in one pool without copying.
//!
//! The repository-level pipeline walk-through (sampler → inverted
//! index → coverage view → gain snapshots → query engine) lives in
//! `docs/ARCHITECTURE.md` at the workspace root; the stopping-rule
//! math is derived in `docs/DERIVATIONS.md`.

#![warn(missing_docs)]

mod budgeted;
mod collection;
mod coverage;
pub mod directory;
mod greedy;
mod index;
pub mod narrow;
mod snapshot;
pub mod store;

pub use budgeted::NodeCosts;
pub use collection::{RrCollection, SealOutcome};
pub use coverage::{max_coverage_with, CoverageView, GreedyScratch};
pub use directory::{DirectoryWriter, EpochDirectory};
pub use greedy::{
    max_coverage, max_coverage_range, CoverageResult, Limit, Objective, Selection, SelectionResult,
    Start,
};
pub use index::SetIds;
pub use snapshot::GainSnapshot;
pub use store::{PoolStore, Recovery, SaveStats, StoreError, StoreFingerprint};
