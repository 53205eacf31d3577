//! What one measured run hands back: request counts, latencies, the
//! simulated DRAM ledger, cache counter deltas and per-layer metrics.

use crate::stats::Windows;
use pluto_core::plan::plan_stats;
use pluto_core::session::CostReport;
use pluto_core::store::packed_cache_stats;
use std::collections::BTreeMap;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// Simulated DRAM totals over a fixed, seed-determined set of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimLedger {
    /// Requests folded in.
    pub requests: u64,
    /// Simulated time, ps.
    pub time_ps: u64,
    /// Simulated energy, pJ (summed in request order, so it repeats
    /// exactly).
    pub energy_pj: f64,
    /// Row activations.
    pub acts: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses.
    pub row_misses: u64,
    /// Row-buffer conflicts.
    pub row_conflicts: u64,
    /// Command-queue stalls.
    pub queue_stalls: u64,
}

impl SimLedger {
    /// Folds in the reports of one request.
    pub fn add(&mut self, reports: &[CostReport]) {
        self.requests += 1;
        for r in reports {
            self.time_ps += r.time.0;
            self.energy_pj += r.energy.0;
            self.acts += r.acts;
            self.row_hits += r.row_hits;
            self.row_misses += r.row_misses;
            self.row_conflicts += r.row_conflicts;
            self.queue_stalls += r.queue_stalls;
        }
    }

    fn per_req(&self, v: f64) -> f64 {
        v / self.requests.max(1) as f64
    }

    /// Simulated ps per request.
    pub fn time_per_req(&self) -> f64 {
        self.per_req(self.time_ps as f64)
    }

    /// Simulated pJ per request.
    pub fn energy_per_req(&self) -> f64 {
        self.per_req(self.energy_pj)
    }

    /// The `dram.*` per-layer metrics, per request.
    pub fn layer_metrics(&self, out: &mut Layers) {
        for (name, v) in [
            ("dram.acts_per_req", self.acts),
            ("dram.row_hits", self.row_hits),
            ("dram.row_misses", self.row_misses),
            ("dram.row_conflicts", self.row_conflicts),
            ("dram.queue_stalls", self.queue_stalls),
        ] {
            out.insert(name.to_string(), self.per_req(v as f64));
        }
    }
}

/// Snapshot of the process-wide plan and packed-row cache counters.
#[derive(Debug, Clone, Copy)]
pub struct CacheCounters {
    plan: pluto_core::PlanStats,
    packed: pluto_core::store::PackedCacheStats,
}

impl CacheCounters {
    /// The counters now.
    pub fn now() -> Self {
        CacheCounters {
            plan: plan_stats(),
            packed: packed_cache_stats(),
        }
    }

    /// Counter growth from `before` to `self`; entries are taken from
    /// `self` (occupancy, not growth).
    pub fn since(&self, before: &CacheCounters) -> CacheDelta {
        CacheDelta {
            plan_hits: self.plan.hits - before.plan.hits,
            plan_misses: self.plan.misses - before.plan.misses,
            plan_fallbacks: self.plan.fallbacks - before.plan.fallbacks,
            plan_entries: self.plan.entries,
            packed_hits: self.packed.hits - before.packed.hits,
            packed_misses: self.packed.misses - before.packed.misses,
            packed_entries: self.packed.entries,
        }
    }
}

/// Growth of the cache counters over an interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheDelta {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Queries that bypassed the plan cache.
    pub plan_fallbacks: u64,
    /// Plans cached at the end.
    pub plan_entries: usize,
    /// Packed-row cache hits.
    pub packed_hits: u64,
    /// Packed-row cache misses.
    pub packed_misses: u64,
    /// Packed-row variants cached at the end.
    pub packed_entries: usize,
}

impl CacheDelta {
    /// Plan lookups of any outcome.
    pub fn plan_events(&self) -> u64 {
        self.plan_hits + self.plan_misses + self.plan_fallbacks
    }

    /// Packed-row lookups of any outcome.
    pub fn packed_events(&self) -> u64 {
        self.packed_hits + self.packed_misses
    }

    /// The `store.*` and `plan.*` per-layer metrics.
    pub fn layer_metrics(&self, out: &mut Layers) {
        let ratio = |hits: u64, all: u64| {
            if all == 0 {
                0.0
            } else {
                hits as f64 / all as f64
            }
        };
        for (name, v) in [
            ("store.packed_hits", self.packed_hits as f64),
            ("store.packed_misses", self.packed_misses as f64),
            (
                "store.packed_hit_ratio",
                ratio(self.packed_hits, self.packed_events()),
            ),
            ("store.packed_entries", self.packed_entries as f64),
            ("plan.hits", self.plan_hits as f64),
            ("plan.misses", self.plan_misses as f64),
            ("plan.fallbacks", self.plan_fallbacks as f64),
            ("plan.hit_ratio", ratio(self.plan_hits, self.plan_events())),
            ("plan.entries", self.plan_entries as f64),
        ] {
            out.insert(name.to_string(), v);
        }
    }
}

/// The result of one measured run of a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed a check or returned an error.
    pub failed: u64,
    /// Broken invariants that are not a single request's failure:
    /// counters that do not reconcile, set-up checks, shadow mismatches.
    pub problems: Vec<String>,
    /// Host latency samples (µs), summarized window by window.
    pub windows: Windows,
    /// Requests one latency sample covers.
    pub requests_per_sample: u64,
    /// Requests completed.
    pub completed: u64,
    /// Simulated DRAM ledger.
    pub sim: SimLedger,
    /// Per-layer metrics measured by this workload (traced runs).
    pub layers: Layers,
}

impl Outcome {
    /// An empty outcome whose latency samples each cover
    /// `requests_per_sample` requests, measured in windows of `window`
    /// samples.
    pub fn new(window: usize, requests_per_sample: u64) -> Self {
        Outcome {
            windows: Windows::new(window, requests_per_sample as f64),
            requests_per_sample,
            ..Outcome::default()
        }
    }

    /// Records one completed latency sample: its latency, and when it
    /// completed (host seconds since the loop started).
    pub fn complete(&mut self, latency_us: f64, done_s: f64) {
        self.windows.push(latency_us, done_s);
        self.completed += self.requests_per_sample;
    }

    /// Records a broken invariant.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}
