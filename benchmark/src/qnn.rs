//! `qnn_mlp`: per-sample inference through `QuantModel::serve_infer` on
//! a 2-worker `Server`, one sample at a time from one generator thread.

use crate::gen::SplitMix;
use crate::ledger::{CacheCounters, CacheDelta, Outcome, SimLedger};
use crate::serve::WORKERS;
use crate::shadow::library_replay;
use crate::trace::{static_name, Tracer};
use pluto_core::serve::{serial_oracle, QuerySpec, ServeConfig, Server};
use pluto_core::session::{CostReport, ExecConfig, Session};
use pluto_core::{DesignKind, PlutoError};
use pluto_qnn::gemv::{smul_lut, to_field, to_signed};
use pluto_qnn::model::{sample_batch, QuantModel};
use pluto_qnn::pluto_exec::mlp_exec_config;
use pluto_qnn::GemvPath;
use std::sync::Arc;
use std::time::Instant;

/// Distinct digit samples the requests cycle through.
const POOL: usize = 32;
/// Samples per measurement window: enough for a p90 with ten samples
/// beyond it.
const WINDOW: usize = 100;
/// Samples checked against the serial oracle; they also carry the
/// simulated ledger, which is the same for every sample.
const ORACLE_SAMPLES: usize = 2;

/// A server, model and sample pool ready for the timed loop.
pub struct QnnBench {
    server: Server,
    model: QuantModel,
    config: ExecConfig,
    /// Model input and expected logits per pool sample.
    pool: Vec<(Vec<i32>, Vec<i32>)>,
    /// Cache lookups and queries of one sample, from the warm-up.
    per_sample: CacheDelta,
    queries_per_sample: u64,
    seed: u64,
    setup_problems: Vec<String>,
}

fn infer(
    server: &mut Server,
    model: &QuantModel,
    config: &ExecConfig,
    x: &[i32],
) -> Option<Vec<i32>> {
    let run = std::panic::AssertUnwindSafe(|| model.serve_infer(server, config, x));
    std::panic::catch_unwind(run).ok().and_then(Result::ok)
}

/// Runs one query through `serial_oracle`, checks it against its table,
/// and keeps its report.
fn oracle_query(
    tr: &mut Tracer,
    s: usize,
    spec: &QuerySpec,
    reports: &mut Vec<CostReport>,
) -> Result<Vec<u64>, String> {
    let (values, report) = tr
        .span("session.oracle", s as u64, || serial_oracle(spec))
        .map_err(|e| e.to_string())?;
    let expected = tr
        .span("lut.apply_all", s as u64, || {
            spec.lut.apply_all(&spec.inputs)
        })
        .map_err(|e| e.to_string())?;
    if values != expected || !report.validated {
        return Err(format!(
            "serial oracle differs from table {}",
            spec.lut.name()
        ));
    }
    reports.push(report);
    Ok(values)
}

impl QnnBench {
    /// Builds the model, server and sample pool, and runs one warm-up
    /// sample, which covers every query class of the model.
    pub fn new(seed: u64) -> Self {
        let model = QuantModel::mnist_mlp(seed);
        let config = mlp_exec_config(DesignKind::Gmc);
        let mut server = Server::new(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        });
        let pool: Vec<(Vec<i32>, Vec<i32>)> = sample_batch(seed, POOL)
            .into_iter()
            .map(|(_, x)| {
                let y = model.forward_reference(&x);
                (x, y)
            })
            .collect();
        let mut setup_problems = Vec::new();
        let before = CacheCounters::now();
        if infer(&mut server, &model, &config, &pool[0].0).as_ref() != Some(&pool[0].1) {
            setup_problems.push("warm-up sample failed".to_string());
        }
        let per_sample = CacheCounters::now().since(&before);
        let queries_per_sample = server.stats().enqueued;
        QnnBench {
            server,
            model,
            config,
            pool,
            per_sample,
            queries_per_sample,
            seed,
            setup_problems,
        }
    }

    /// Problems found while setting up.
    pub fn setup_problems(&self) -> &[String] {
        &self.setup_problems
    }

    /// The timed loop, then the oracle check, counter reconciliation and
    /// (traced) shadow replays.
    pub fn measure(mut self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::new(WINDOW, 1);
        let stats0 = self.server.stats();
        let steals0 = self.server.steals();
        let before = CacheCounters::now();
        let start = Instant::now();
        let mut i = 0usize;
        while i < POOL || start.elapsed().as_secs_f64() < seconds {
            let (x, expected) = &self.pool[i % POOL];
            let sent = Instant::now();
            let logits = tr.span("qnn.serve_infer", i as u64, || {
                infer(&mut self.server, &self.model, &self.config, x)
            });
            out.complete(
                sent.elapsed().as_secs_f64() * 1e6,
                start.elapsed().as_secs_f64(),
            );
            out.attempted += 1;
            if logits.as_ref() != Some(expected) {
                out.failed += 1;
            }
            i += 1;
        }
        let delta = CacheCounters::now().since(&before);
        let stats = self.server.stats();

        if out.failed == 0 {
            let samples = out.completed;
            let expected = (
                self.per_sample.plan_events() * samples,
                self.per_sample.packed_events() * samples,
            );
            if expected != (delta.plan_events(), delta.packed_events()) {
                out.problem(format!(
                    "cache lookups do not reconcile: plan {}, packed {} (expected {expected:?})",
                    delta.plan_events(),
                    delta.packed_events()
                ));
            }
            if stats.enqueued - stats0.enqueued != self.queries_per_sample * samples {
                out.problem(format!(
                    "server accepted {} queries for {samples} samples of {} queries",
                    stats.enqueued - stats0.enqueued,
                    self.queries_per_sample
                ));
            }
        }

        // Oracle check of a seeded choice of pool samples; the first
        // request of each such sample is the one that counts as failed.
        let mut rng = SplitMix::new(self.seed ^ 0x0DDC_0FFE);
        let mut checked: Vec<usize> = (0..ORACLE_SAMPLES)
            .map(|_| rng.below(POOL as u64) as usize)
            .collect();
        checked.dedup();
        let mut replay_specs = Vec::new();
        for &s in &checked {
            match self.oracle_sample(tr, s, &mut out.sim) {
                Ok(specs) => replay_specs = specs,
                Err(e) => {
                    out.failed += 1;
                    out.problem(format!("sample {s}: {e}"));
                }
            }
        }

        if tr.enabled() {
            for (q, spec) in replay_specs.iter().enumerate() {
                if let Err(e) = library_replay(tr, q as u64, spec) {
                    out.problem(e);
                }
            }
            if let Err(e) = self.layer_replay(tr, checked[0]) {
                out.problem(e);
            }
            out.layers.insert(
                "serve.batch_fill".into(),
                (stats.enqueued - stats0.enqueued) as f64
                    / (stats.batches - stats0.batches).max(1) as f64,
            );
            out.layers
                .insert("serve.affinities".into(), stats.affinities as f64);
            out.layers.insert(
                "cluster.steals_per_kreq".into(),
                (self.server.steals() - steals0) as f64 * 1000.0 / out.completed.max(1) as f64,
            );
            out.layers.insert(
                "qnn.lookups_per_sample".into(),
                self.model.lut_lookups(GemvPath::Direct) as f64,
            );
            delta.layer_metrics(&mut out.layers);
        }
        out.sim.layer_metrics(&mut out.layers);
        out
    }

    /// Runs pool sample `s` through the serial oracle, lowered query by
    /// query as `serve_infer` lowers it: per layer, one product query
    /// against the signed multiply table, host accumulation of the
    /// products it returns and, for requantized layers, one
    /// requantization query. `serve_infer` returns only logits, so this
    /// copy of its lowering carries the simulated ledger; it is checked
    /// against the program by the query count the server saw per sample
    /// and by the logits the oracle's values lead to. Folds the sample
    /// into the ledger and returns its queries.
    fn oracle_sample(
        &self,
        tr: &mut Tracer,
        s: usize,
        sim: &mut SimLedger,
    ) -> Result<Vec<QuerySpec>, String> {
        let (x, expected) = &self.pool[s];
        let mut specs = Vec::new();
        let mut reports = Vec::new();
        let mut act = x.clone();
        for layer in &self.model.layers {
            let w = layer.linear.width();
            let xf: Vec<u64> = act.iter().map(|&v| to_field(v, w)).collect();
            let mut merged = Vec::with_capacity(layer.linear.mac_count() as usize);
            for o in 0..layer.linear.out_features() {
                for (wgt, &xv) in layer.linear.row(o).iter().zip(&xf) {
                    merged.push((to_field(*wgt, w) << w) | xv);
                }
            }
            let spec = QuerySpec {
                config: self.config.clone(),
                lut: Arc::new(smul_lut(w).map_err(|e| e.to_string())?),
                inputs: merged,
            };
            let products = oracle_query(tr, s, &spec, &mut reports)?;
            specs.push(spec);
            let accs: Vec<i32> = products
                .chunks(layer.linear.in_features())
                .map(|c| {
                    c.iter()
                        .map(|&p| i64::from(to_signed(p, 2 * w)))
                        .sum::<i64>() as i32
                })
                .collect();
            act = match &layer.requant {
                Some(r) => {
                    let spec = QuerySpec {
                        config: self.config.clone(),
                        lut: Arc::new(r.lut().map_err(|e| e.to_string())?),
                        inputs: accs.iter().map(|&a| r.index_of(a)).collect(),
                    };
                    let values = oracle_query(tr, s, &spec, &mut reports)?;
                    specs.push(spec);
                    values
                        .into_iter()
                        .map(|v| to_signed(v, r.out_width))
                        .collect()
                }
                None => accs,
            };
        }
        if specs.len() as u64 != self.queries_per_sample {
            return Err(format!(
                "lowered into {} queries, the server saw {} per sample",
                specs.len(),
                self.queries_per_sample
            ));
        }
        if act != *expected {
            return Err("the oracle's values lead to logits that differ from the reference".into());
        }
        sim.add(&reports);
        Ok(specs)
    }

    /// Times each layer's GEMV and requantization on a reset machine.
    fn layer_replay(&self, tr: &mut Tracer, s: usize) -> Result<(), String> {
        let err = |e: PlutoError| format!("layer replay: {e}");
        let mut session = Session::with_config(self.config.clone()).map_err(err)?;
        let m = session.machine_mut();
        let mut act = self.pool[s].0.clone();
        for layer in &self.model.layers {
            let name = layer.linear.name();
            m.reset();
            let gemv = static_name(format!("qnn.gemv.{name}"));
            let accs = tr
                .span(gemv, s as u64, || {
                    layer.linear.forward_on(m, &act, GemvPath::Direct)
                })
                .map_err(err)?;
            act = match &layer.requant {
                Some(r) => {
                    let requant = static_name(format!("qnn.requant.{name}"));
                    tr.span(requant, s as u64, || r.apply_on(m, &accs))
                        .map_err(err)?
                }
                None => accs,
            };
        }
        if act != self.pool[s].1 {
            return Err("layer replay logits differ from the reference".into());
        }
        Ok(())
    }
}
