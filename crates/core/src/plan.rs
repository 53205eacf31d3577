//! Compiled query plans (`DESIGN.md` §10): a process-wide cache of
//! [`CostTape`]s memoizing the command-stream cost of one query lane.
//!
//! The word-parallel split made commands authoritative for *cost* and
//! words authoritative for *data*. A lane's command stream — and therefore
//! its cost delta — is a pure function of the effective configuration,
//! design, segment geometry, placement distances, and residency state; the
//! data path is a single gather. So the cost side can be *compiled*: the
//! first lane issued under a `PlanKey` records a [`CostTape`] while running
//! the ordinary issuing path, and every later lane under the same key
//! applies the tape via [`Engine::apply_replayed`], skipping per-command
//! simulation entirely. There is one plan shape, because there is one
//! query path ([`crate::partition::PlutoStore`]): a one-subarray LUT's
//! query is one lane, an N-segment query is N lanes.
//!
//! ## Legality
//!
//! A tape is context-independent only when nothing outside the key can
//! shift the delta. The executors therefore gate replay (and capture) on:
//!
//! - the live tFAW-window *signature* at replay matching the one recorded
//!   at capture ([`CostTape::replayable_from`]) — a warm window throttles
//!   ACTs by an amount that depends on the ages of its entries;
//! - command tracing being off ([`Engine::trace_enabled`]) — a replayed
//!   delta has no per-command stream to append to the trace;
//! - the store being resident, or the design reloading per query — a
//!   stale BSA/GMC store needs a *functional* reload the replay would skip.
//!
//! Any failed gate falls back to full issuance (counted in
//! [`PlanStats::fallbacks`]) and the issuing path stays available as the
//! differential oracle (`PlutoStore::set_use_plans(false)`, or the
//! plans-free `QueryExecutor`), mirroring `execute_scalar_reference` /
//! `query_serial_reference`.
//!
//! The cache mirrors the packed-row cache in [`crate::store`]: one
//! process-wide map under a mutex, cleared wholesale past a deterministic
//! cap. Unlike packed rows, tapes need no identity witness — the cost of a
//! sweep is independent of the element *values*, so two same-shaped LUTs
//! sharing a key is correct, not a collision.

use crate::deque::lock_recover;
use crate::design::DesignKind;
use crate::store::LutStore;
use pluto_dram::{CostTape, DramConfig, Engine};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Counters of the process-wide plan cache (see [`plan_stats`]).
///
/// The unit is one lane: a query looks up one tape per segment, so a
/// one-subarray LUT's query counts 1 and a 128-segment query counts 128.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Lanes whose cost was applied from a memoized tape.
    pub hits: u64,
    /// Lanes that recorded a new tape while issuing.
    pub misses: u64,
    /// Lanes that ran the issuing path because a legality gate failed
    /// (trace on, warm tFAW window, stale store, or plans disabled on a
    /// differential-oracle store).
    pub fallbacks: u64,
    /// Tapes currently cached.
    pub entries: usize,
}

/// Everything that can shift a lane's command-stream cost delta. Two
/// lanes with equal keys issue identical command streams from any inert
/// start state, so one recorded tape serves both.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    /// Effective DRAM geometry (row width bounds slot capacity; kind
    /// selects the default models).
    cfg: DramConfig,
    /// Timing fingerprint: the eight `Picos` parameters plus the applied
    /// tFAW scale's bits, so `with_models` engines (SALP/tFAW sweeps)
    /// never share tapes with the defaults.
    timing: [u64; 9],
    /// Energy fingerprint: the seven model parameters' `f64` bits.
    energy: [u64; 7],
    /// Timing backend the tape was recorded under — a tape is never
    /// replayed across backends (`DESIGN.md` §11), so the key must
    /// separate them even though serial single-bank streams agree.
    backend: pluto_dram::TimingBackend,
    design: DesignKind,
    /// LUT identity by *shape*, not contents — cost never reads element
    /// values. The `Lut`'s own shared name, so building a key allocates
    /// nothing for it.
    lut_name: Arc<str>,
    input_bits: u32,
    output_bits: u32,
    slot_bits: u32,
    lut_len: usize,
    /// LISA distance master ↔ pLUTo subarray (reload cost per row).
    reload_hops: u16,
    /// LISA distance pLUTo subarray ↔ destination (copy-out cost).
    out_hops: u16,
    /// Destination sharing the source subarray reorders the closing
    /// precharge, which reorders the f64 energy additions.
    dest_is_source: bool,
    /// Residency at query entry (a stale store reloads before sweeping).
    loaded: bool,
}

impl PlanKey {
    /// Builds the key for a lane about to run on `engine` against the
    /// segment `store`. `out_hops` and `dest_is_source` come from the
    /// caller's placement; a lane's cost is slot-independent by
    /// construction, so the queried slot count is not part of the key.
    pub(crate) fn new(
        engine: &Engine,
        design: DesignKind,
        store: &LutStore,
        out_hops: u16,
        dest_is_source: bool,
    ) -> PlanKey {
        let t = engine.timing();
        let e = engine.energy_model();
        let lut = store.lut();
        PlanKey {
            cfg: engine.config().clone(),
            timing: [
                t.t_rcd.as_ps(),
                t.t_rp.as_ps(),
                t.t_ras.as_ps(),
                t.t_faw.as_ps(),
                t.t_cl.as_ps(),
                t.t_ccd.as_ps(),
                t.t_burst.as_ps(),
                t.t_lisa_hop.as_ps(),
                t.t_faw_scale_applied.to_bits(),
            ],
            energy: [
                e.e_act.as_pj().to_bits(),
                e.e_pre.as_pj().to_bits(),
                e.e_rd_burst.as_pj().to_bits(),
                e.e_wr_burst.as_pj().to_bits(),
                e.e_lisa_hop.as_pj().to_bits(),
                e.e_charge_share.as_pj().to_bits(),
                e.background_watts.to_bits(),
            ],
            backend: engine.timing_backend(),
            design,
            lut_name: Arc::clone(lut.name_shared()),
            input_bits: lut.input_bits(),
            output_bits: lut.output_bits(),
            slot_bits: lut.slot_bits(),
            lut_len: lut.len(),
            reload_hops: store.master().0.abs_diff(store.subarray().0),
            out_hops,
            dest_is_source,
            loaded: store.is_loaded(),
        }
    }
}

#[derive(Debug, Default)]
struct PlanCache {
    entries: HashMap<PlanKey, Arc<CostTape>>,
    hits: u64,
    misses: u64,
    fallbacks: u64,
}

/// Entry count beyond which the cache resets (same deterministic
/// anti-churn guard as the packed-row cache; real traffic uses a handful
/// of plan shapes).
const PLAN_CACHE_CAP: usize = 512;

fn plan_cache() -> &'static Mutex<PlanCache> {
    static CACHE: OnceLock<Mutex<PlanCache>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(PlanCache::default()))
}

/// Looks up a tape, bumping the hit/miss counters.
pub(crate) fn lookup(key: &PlanKey) -> Option<Arc<CostTape>> {
    let mut cache = lock_recover(plan_cache());
    let hit = cache.entries.get(key).map(Arc::clone);
    match hit {
        Some(_) => cache.hits += 1,
        None => cache.misses += 1,
    }
    hit
}

/// Stores a freshly recorded tape.
pub(crate) fn insert(key: PlanKey, tape: CostTape) {
    let mut cache = lock_recover(plan_cache());
    if cache.entries.len() >= PLAN_CACHE_CAP {
        cache.entries.clear();
    }
    cache.entries.insert(key, Arc::new(tape));
}

/// Counts a query that ran the issuing path because a legality gate
/// failed.
pub(crate) fn note_fallback() {
    lock_recover(plan_cache()).fallbacks += 1;
}

/// Hit/miss/fallback counters of the plan cache (process-wide and
/// monotonic, like [`crate::store::packed_cache_stats`]).
pub fn plan_stats() -> PlanStats {
    let cache = lock_recover(plan_cache());
    PlanStats {
        hits: cache.hits,
        misses: cache.misses,
        fallbacks: cache.fallbacks,
        entries: cache.entries.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::partition::PlutoStore;
    use pluto_dram::{BankId, DramConfig, RowId, SubarrayId};

    #[test]
    fn lookups_survive_a_poisoned_cache_lock() {
        let poisoner = std::thread::spawn(|| {
            let _guard = lock_recover(plan_cache());
            panic!("poisoning the plan cache on purpose");
        });
        assert!(poisoner.join().is_err());
        assert!(plan_cache().is_poisoned());
        // A query still records its tape, and a repeat replays it.
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
