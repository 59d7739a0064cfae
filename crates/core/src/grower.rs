//! The single-writer growth handle: grow the pool while queries keep
//! serving, without a reader-side lock anywhere.
//!
//! [`Grower::extend`] clones the currently published (fully sealed)
//! pool, appends `additional` deterministically sampled sets, seals them
//! as one new epoch, pre-freezes the epoch's
//! [`GainSnapshot`](sns_rrset::GainSnapshot) into the engine's cache,
//! and publishes the grown pool as the next generation of the engine's
//! [`EpochDirectory`](sns_rrset::EpochDirectory). Query workers that
//! pinned the old generation keep answering against it untouched; new
//! queries pin the grown pool and find the new epoch's snapshot already
//! frozen — growth never induces a query-level cache miss.
//!
//! The clone-extend-publish shape is what makes the reader side
//! lock-free: readers never observe a pool mid-mutation because the pool
//! they pinned is immutable forever. The clone costs `O(pool bytes)`,
//! the same asymptotics as the seal's counting-sort rebuild that an
//! in-place extension already paid — growth work stays proportional to
//! the pool, queries stay wait-free.
//!
//! Exclusive growth is enforced by a writer mutex on the engine
//! ([`SeedQueryEngine::grower`](crate::SeedQueryEngine::grower) hands
//! out borrows freely; concurrent `extend` calls serialize). That mutex
//! is the *only* lock growth takes, and no query path ever touches it.

use std::sync::{Arc, PoisonError};

use sns_rrset::{DirectoryWriter, RrCollection, SealOutcome};

use crate::{SamplingContext, SeedQueryEngine};

/// The engine's writer-side state, owned by the engine behind its writer
/// mutex: the directory publish handle plus the deterministic sample
/// cursor.
#[derive(Debug)]
pub(crate) struct GrowerState {
    /// Publish handle of the engine's pool directory. Its `current()`
    /// value is always the latest published, fully sealed pool.
    pub(crate) dir_writer: DirectoryWriter<RrCollection>,
    /// Next sample index of the deterministic stream — growth continues
    /// where the constructor stopped, so a grown engine's pool is
    /// bit-identical to sampling the final size in one shot.
    pub(crate) next_sample_index: u64,
}

/// What one [`Grower::extend`] call did. Carries the [`SealOutcome`] so
/// a grow loop can distinguish "nothing was pending" from "a new epoch
/// was published".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrowthOutcome {
    generation: u64,
    seal: SealOutcome,
    pool_len: u64,
}

impl GrowthOutcome {
    /// The directory generation serving after this call — a fresh one if
    /// an epoch was published, the unchanged current one otherwise.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the call sealed (and published) a new epoch, and its id
    /// range if so.
    pub fn seal(&self) -> &SealOutcome {
        &self.seal
    }

    /// Sets in the pool this call left published.
    pub fn pool_len(&self) -> u64 {
        self.pool_len
    }
}

/// A borrowed growth handle on a [`SeedQueryEngine`] — see the module
/// docs. Obtain with [`SeedQueryEngine::grower`]; needs only `&self`, so
/// one thread can grow while others answer from the same shared engine.
#[derive(Debug)]
pub struct Grower<'e> {
    engine: &'e SeedQueryEngine,
}

impl<'e> Grower<'e> {
    pub(crate) fn new(engine: &'e SeedQueryEngine) -> Self {
        Grower { engine }
    }

    /// Grows the published pool by `additional` sets (continuing the
    /// deterministic stream, so the result is bit-identical to having
    /// sampled the final size up front), seals them as **one new
    /// epoch**, pre-freezes that epoch's gain snapshot, and publishes
    /// the grown pool as the next directory generation. Queries running
    /// concurrently keep answering from whatever generation they pinned;
    /// nothing cached is invalidated (epoch boundaries are append-only).
    ///
    /// With `additional == 0` nothing is pending: no epoch is sealed, no
    /// generation is published, and the returned
    /// [`GrowthOutcome::seal`] is [`SealOutcome::AlreadySealed`].
    ///
    /// Concurrent `extend` calls serialize on the engine's writer mutex.
    /// The mutex recovers from poisoning: all writer state is mutated
    /// only after the fallible sampling/sealing work succeeded, so a
    /// panicking grower leaves the directory and cursor consistent and
    /// the next call simply retries.
    pub fn extend(&self, ctx: &SamplingContext<'_>, additional: u64) -> GrowthOutcome {
        let mut state = self.engine.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut pool: RrCollection = (**state.dir_writer.current()).clone();
        let old_len = pool.len();
        let bounds_before = pool.epoch_boundaries().len();
        let from = state.next_sample_index;
        let threads = self.engine.threads;
        pool.extend_parallel(&ctx.sampler(0), from, additional, threads);
        // `extend_*` may already have sealed the tail (the index compacts
        // once enough entries are pending), so this raw outcome can say
        // `AlreadySealed` even though the pool grew. Publishing is
        // therefore decided by growth, and the reported outcome covers
        // the full appended range.
        let _ = pool.seal_parallel(threads);
        let pool_len = pool.len() as u64;
        let (generation, seal) = if pool.len() > old_len {
            let pool = Arc::new(pool);
            // Freeze every newly sealed epoch's snapshot *before*
            // publishing: the first query against the grown pool finds
            // them cached (no query-level miss), and queries pinned to
            // older generations never see the entries' keys.
            let bounds = pool.epoch_boundaries().to_vec();
            for e in bounds_before..bounds.len() {
                let lo = if e == 0 { 0 } else { bounds[e - 1] };
                let _ = self.engine.freeze_epoch(&pool, &(lo..bounds[e]));
            }
            let generation = state.dir_writer.publish(Arc::clone(&pool));
            state.next_sample_index += additional;
            let epoch =
                sns_rrset::narrow::set_count(old_len)..sns_rrset::narrow::set_count(pool.len());
            (generation, SealOutcome::EpochSealed { epoch })
        } else {
            // Nothing pending — keep serving the current generation
            // rather than publishing an identical clone.
            (self.engine.directory.generation(), SealOutcome::AlreadySealed)
        };
        GrowthOutcome { generation, seal, pool_len }
    }
}
