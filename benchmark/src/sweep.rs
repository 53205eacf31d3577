//! `registry_sweep`: `pluto_bench::measure_sweep` over every canonical
//! workload and the six paper configurations on a 2-worker `Cluster`,
//! pass after pass. A request is one sweep job; a pass is what a caller
//! of `measure_sweep` waits for, so its wall time is the latency sample.

use crate::ledger::{CacheCounters, CacheDelta, Outcome};
use crate::serve::WORKERS;
use crate::trace::{static_name, Tracer};
use pluto_baselines::WorkloadId;
use pluto_bench::{measure_sweep, PlutoConfig};
use pluto_core::cluster::Cluster;
use pluto_core::session::{CostReport, Session};
use pluto_workloads::workload_for;
use sim_support::{SeedableRng, StdRng};
use std::time::Instant;

/// Timed passes a run makes at least, however short `--seconds`. The
/// workers' machine pools never evict and fill as work stealing hands
/// them jobs of new configurations, so the peak memory only settles
/// after about ten passes.
const MIN_PASSES: u64 = 10;

/// Jobs in one pass.
pub const JOBS: usize = WorkloadId::CANONICAL.len() * PlutoConfig::ALL.len();

/// A cluster warmed by one full pass, whose reports every later pass
/// must repeat exactly.
pub struct SweepBench {
    cluster: Cluster,
    reference: Vec<CostReport>,
    per_pass: CacheDelta,
    setup_problems: Vec<String>,
}

/// One pass; `None` if the sweep panicked (a failed or unvalidated job).
fn pass(cluster: &mut Cluster) -> Option<Vec<CostReport>> {
    let run = std::panic::AssertUnwindSafe(|| {
        measure_sweep(&WorkloadId::CANONICAL, &PlutoConfig::ALL, cluster)
    });
    let rows = std::panic::catch_unwind(run).ok()?;
    Some(rows.into_iter().flatten().map(|c| c.report).collect())
}

impl SweepBench {
    /// Builds the cluster and runs the warm-up pass.
    pub fn new() -> Self {
        let mut cluster = Cluster::new(WORKERS);
        let before = CacheCounters::now();
        let reference = pass(&mut cluster).unwrap_or_default();
        let per_pass = CacheCounters::now().since(&before);
        let mut setup_problems = Vec::new();
        if reference.len() != JOBS || reference.iter().any(|r| !r.validated) {
            setup_problems.push("warm-up sweep failed".to_string());
        }
        SweepBench {
            cluster,
            reference,
            per_pass,
            setup_problems,
        }
    }

    /// Problems found while setting up.
    pub fn setup_problems(&self) -> &[String] {
        &self.setup_problems
    }

    /// Whole passes until `seconds` have gone by, then (traced) the
    /// decomposed pass and the per-workload replay.
    pub fn measure(mut self, seconds: f64, tr: &mut Tracer) -> Outcome {
        // One latency sample, and one window, per pass.
        let mut out = Outcome::new(1, JOBS as u64);
        let steals0 = self.cluster.steals();
        let first = CacheCounters::now();
        let start = Instant::now();
        let mut passes = 0u64;
        while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let before = CacheCounters::now();
            let sent = Instant::now();
            let reports = tr.span("bench.measure_sweep", passes, || pass(&mut self.cluster));
            out.complete(
                sent.elapsed().as_secs_f64() * 1e6,
                start.elapsed().as_secs_f64(),
            );
            let lookups = CacheCounters::now().since(&before);
            out.attempted += JOBS as u64;
            match reports {
                Some(reports) => {
                    out.failed += self.mismatches(&reports);
                    if passes == 0 {
                        for r in &reports {
                            out.sim.add(std::slice::from_ref(r));
                        }
                    }
                }
                None => out.failed += JOBS as u64,
            }
            if (lookups.plan_events(), lookups.packed_events())
                != (self.per_pass.plan_events(), self.per_pass.packed_events())
            {
                out.problem(format!(
                    "pass {passes}: cache lookups plan {} packed {}, warm-up pass made plan {} packed {}",
                    lookups.plan_events(),
                    lookups.packed_events(),
                    self.per_pass.plan_events(),
                    self.per_pass.packed_events()
                ));
            }
            passes += 1;
        }
        let delta = CacheCounters::now().since(&first);

        if tr.enabled() {
            self.decomposed_pass(tr, &mut out);
            workload_replay(tr, &mut out);
            out.layers.insert(
                "cluster.steals_per_kreq".into(),
                (self.cluster.steals() - steals0) as f64 * 1000.0 / out.completed.max(1) as f64,
            );
            delta.layer_metrics(&mut out.layers);
        }
        out.sim.layer_metrics(&mut out.layers);
        out
    }

    /// Jobs of a pass whose report is unvalidated or differs from the
    /// warm-up pass.
    fn mismatches(&self, reports: &[CostReport]) -> u64 {
        if reports.len() != self.reference.len() {
            return JOBS as u64;
        }
        reports
            .iter()
            .zip(&self.reference)
            .filter(|(r, want)| !r.validated || r != want)
            .count() as u64
    }

    /// One pass submitted job by job, timing submission and the run.
    fn decomposed_pass(&mut self, tr: &mut Tracer, out: &mut Outcome) {
        for id in WorkloadId::CANONICAL {
            for cfg in PlutoConfig::ALL {
                tr.span("cluster.submit", 0, || {
                    self.cluster.submit(cfg.exec_config(), workload_for(id))
                });
            }
        }
        match tr.span("cluster.run", 0, || self.cluster.run()) {
            Ok(reports) => {
                // `measure_sweep` relabels reports with the requested id;
                // compare the costs only.
                let differs = reports.iter().zip(&self.reference).any(|(r, want)| {
                    !r.validated
                        || (r.time, r.energy, r.acts) != (want.time, want.energy, want.acts)
                });
                if differs || reports.len() != JOBS {
                    out.problem("decomposed pass differs from the warm-up pass");
                }
            }
            Err(e) => out.problem(format!("decomposed pass failed: {e}")),
        }
    }
}

/// Times each canonical workload's preparation, pLUTo run and reference
/// run on a fresh GMC/DDR4 session, as `Session::run` would sequence them.
fn workload_replay(tr: &mut Tracer, out: &mut Outcome) {
    let cfg = PlutoConfig::ALL[2];
    for id in WorkloadId::CANONICAL {
        let mut w = workload_for(id);
        let mut config = cfg.exec_config();
        config.subarrays_per_bank = config.subarrays_per_bank.max(w.min_subarrays());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut session = match tr.span("session.build", 0, || Session::with_config(config)) {
            Ok(s) => s,
            Err(e) => {
                out.problem(format!("{id:?}: {e}"));
                continue;
            }
        };
        let names = span_names(id);
        tr.span(names[0], 0, || w.prepare(&mut rng));
        let pluto = tr.span(names[1], 0, || w.run_pluto(&mut session));
        let reference = tr.span(names[2], 0, || w.run_reference());
        if pluto.as_ref().ok() != Some(&reference) {
            out.problem(format!("{id:?}: pLUTo output differs from the reference"));
        }
    }
}

/// `workloads.{prepare,run_pluto,reference}.<id>`.
fn span_names(id: WorkloadId) -> [&'static str; 3] {
    ["prepare", "run_pluto", "reference"]
        .map(|stage| static_name(format!("workloads.{stage}.{id:?}")))
}
