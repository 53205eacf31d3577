//! Compiled query plans (`DESIGN.md` §10): [`CostTape`]s memoizing the
//! command-stream cost of one query lane.
//!
//! Commands are authoritative for *cost* and words for *data*. A lane's
//! cost delta is a pure function of the engine's [`CostContext`], the
//! design, the segment it sweeps, the store's placement and the
//! segment's residency, so the first lane issued under those records a
//! [`CostTape`] on the ordinary issuing path and every later lane
//! applies it via [`Engine::apply_replayed`]. A one-subarray LUT's query
//! is one lane, an N-segment query N lanes.
//!
//! The segment shapes are fixed by the cached §5.6 partition the store
//! was loaded from ([`crate::store`]), so the tapes hang on it: one
//! `LaneTapes` per (context, design, placement), with a slot per
//! (segment, residency). A query takes the partition's plan lock once;
//! each lane then reads or fills its own slot without a lock. Tapes die
//! with their packed-row cache entry, under its cap.
//!
//! ## Legality
//!
//! Replay (and capture) is gated on:
//!
//! - the live timing-state *signature* at replay matching the one
//!   recorded at capture ([`CostTape::replayable_from`]) — a warm window
//!   throttles ACTs by an amount that depends on the ages of its entries;
//! - command tracing being off ([`Engine::trace_enabled`]) — a replayed
//!   delta has no per-command stream to append to the trace;
//! - the store being resident, or the design reloading per query — a
//!   stale BSA/GMC store needs a *functional* reload the replay would skip.
//!
//! Any failed gate falls back to full issuance (counted in
//! [`PlanStats::fallbacks`]); a fallback never overwrites a recorded
//! tape. The issuing path stays available as the differential oracle
//! (`PlutoStore::set_use_plans(false)`, or the plans-free
//! `QueryExecutor`), mirroring `execute_scalar_reference` /
//! `query_serial_reference`.

use crate::deque::lock_recover;
use crate::design::DesignKind;
use pluto_dram::{CostContext, CostTape, Engine, SubarrayId};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Counters of the compiled-plan layer (see [`plan_stats`]).
///
/// The unit is one lane: a query looks up one tape per segment, so a
/// one-subarray LUT's query counts 1 and a 128-segment query counts 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Lanes that found a recorded tape (a hit that fails its
    /// replay check also counts a fallback).
    pub hits: u64,
    /// Lanes that recorded a new tape while issuing.
    pub misses: u64,
    /// Lanes that ran the issuing path because a legality gate failed
    /// (trace on, warm tFAW window or stale store). Stores with plans
    /// disabled (the differential oracle) issue every lane without
    /// counting it here.
    pub fallbacks: u64,
    /// Recorded tapes currently alive (they die with their packed-row
    /// cache entry, or with the last store still holding its partition).
    pub entries: usize,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static FALLBACKS: AtomicU64 = AtomicU64::new(0);
static TAPES: AtomicUsize = AtomicUsize::new(0);

/// One query's lane counts, added to the process-wide counters when
/// dropped, so a failed query's lanes count too.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    pub(crate) fallbacks: u64,
}

impl Drop for Tally {
    fn drop(&mut self) {
        HITS.fetch_add(self.hits, Ordering::Relaxed);
        MISSES.fetch_add(self.misses, Ordering::Relaxed);
        FALLBACKS.fetch_add(self.fallbacks, Ordering::Relaxed);
    }
}

/// Hit/miss/fallback counters of the plan layer (process-wide and
/// monotonic, like [`crate::store::packed_cache_stats`]).
pub fn plan_stats() -> PlanStats {
    PlanStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        fallbacks: FALLBACKS.load(Ordering::Relaxed),
        entries: TAPES.load(Ordering::Relaxed),
    }
}

/// Where a store sits: its first pLUTo subarray (segment `k` sits `2k`
/// further, master copy adjacent), the destination subarray, and whether
/// that is the source subarray (reordering the closing precharge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) first: SubarrayId,
    pub(crate) dest: SubarrayId,
    pub(crate) dest_is_source: bool,
}

/// The lane tapes of one store placement under one engine context and
/// design: one slot per (segment, residency at query entry). A slot is
/// filled once and never overwritten.
#[derive(Debug)]
pub(crate) struct LaneTapes {
    context: CostContext,
    design: DesignKind,
    placement: Placement,
    slots: Box<[OnceLock<Box<CostTape>>]>,
}

impl LaneTapes {
    /// The slot of segment `segment`'s lane entered with the segment
    /// resident (`loaded`) or stale.
    pub(crate) fn slot(&self, segment: usize, loaded: bool) -> &OnceLock<Box<CostTape>> {
        &self.slots[2 * segment + usize::from(loaded)]
    }
}

impl Drop for LaneTapes {
    fn drop(&mut self) {
        let held = self.slots.iter().filter(|t| t.get().is_some()).count();
        TAPES.fetch_sub(held, Ordering::Relaxed);
    }
}

/// Fills an empty slot with a freshly recorded tape. A slot a concurrent
/// lane filled first keeps its tape.
pub(crate) fn record(slot: &OnceLock<Box<CostTape>>, tape: CostTape) {
    if slot.set(Box::new(tape)).is_ok() {
        TAPES.fetch_add(1, Ordering::Relaxed);
    }
}

/// Tape sets a partition keeps before it drops them all and starts over.
/// A table gets one set per (context, design, placement): the paper's 3
/// designs × 2 memory kinds × 2 timing backends make 12, times the one
/// or two placements a table takes in a session's load order. 64 leaves
/// room for geometry and tFAW sweeps; past it the table is being placed
/// at churning positions, where a clear costs one re-recording per lane.
const TAPE_SETS_CAP: usize = 64;

/// The lane tapes recorded against one cached partition.
#[derive(Debug, Default)]
pub(crate) struct PlanSets(Mutex<Vec<Arc<LaneTapes>>>);

impl PlanSets {
    /// The tape set for `segments` lanes at `placement` under `engine`'s
    /// context and `design`, created empty on first use.
    pub(crate) fn lanes(
        &self,
        engine: &Engine,
        design: DesignKind,
        placement: Placement,
        segments: usize,
    ) -> Arc<LaneTapes> {
        let context = engine.cost_context();
        let mut sets = lock_recover(&self.0);
        if let Some(set) = sets
            .iter()
            .find(|s| s.design == design && s.placement == placement && s.context == *context)
        {
            return Arc::clone(set);
        }
        if sets.len() >= TAPE_SETS_CAP {
            sets.clear();
        }
        let set = Arc::new(LaneTapes {
            context: context.clone(),
            design,
            placement,
            slots: (0..2 * segments).map(|_| OnceLock::new()).collect(),
        });
        sets.push(Arc::clone(&set));
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::partition::PlutoStore;
    use pluto_dram::{BankId, DramConfig, RowId};

    #[test]
    fn lookups_survive_a_poisoned_cache_lock() {
        let mut e = Engine::new(DramConfig {
            row_bytes: 32,
            burst_bytes: 8,
            banks: 2,
            subarrays_per_bank: 8,
            rows_per_subarray: 64,
            ..DramConfig::ddr4_2400()
        });
        let lut = Lut::from_table("plan-poison-probe", 2, 4, vec![3, 1, 4, 1]).unwrap();
        let mut store = PlutoStore::load(&mut e, lut, BankId(0), SubarrayId(2)).unwrap();
        assert_eq!(store.segment_count(), 1);
        let plans = &store.partition.plans;
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = lock_recover(&plans.0);
                panic!("poisoning the partition's plan lock on purpose");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(plans.0.is_poisoned());
        // A query still records its tape, and a repeat replays it.
        let before = plan_stats();
        for _ in 0..2 {
            let (out, _) = store
                .query(
                    &mut e,
                    DesignKind::Gmc,
                    SubarrayId(0),
                    SubarrayId(1),
                    &[0, 2, 3],
                    RowId(0),
                    RowId(1),
                )
                .unwrap();
            assert_eq!(out, vec![3, 4, 1]);
        }
        // Other tests share the process-wide counters, so only
        // lower-bound them.
        assert!(plan_stats().hits > before.hits, "the repeat replays");
    }
}
