//! `serve_small`: one generator thread in a closed loop against a
//! 2-worker `Server`.
//!
//! The generator keeps about [`OUTSTANDING`] queries in flight: whenever
//! [`BURST`] of them have been answered it enqueues a burst of `BURST` new
//! ones and flushes once. It blocks on the oldest ticket, then collects
//! every other reply that has arrived; a query's latency runs from just
//! before its enqueue to the moment its reply is collected.

use crate::gen::{Query, SmallStream, MAX_INPUTS, MIN_INPUTS, SAMPLE_EVERY};
use crate::ledger::{CacheCounters, CacheDelta, Outcome};
use crate::shadow::{library_replay, oracle_matches};
use crate::trace::Tracer;
use pluto_baselines::WorkloadId;
use pluto_core::serve::{QueryReply, QuerySpec, ServeConfig, Server, Ticket};
use pluto_core::session::{CostReport, ExecConfig};
use pluto_core::{DesignKind, Lut, PlutoError};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of the server.
pub const WORKERS: usize = 2;
/// Queries the generator keeps outstanding.
pub const OUTSTANDING: usize = 32;
/// Queries per top-up burst; one flush per burst.
pub const BURST: usize = 16;
/// The simulated ledger covers the first this many queries of the
/// stream, which every run completes whatever the host speed. The tables
/// differ in simulated cost, so the ledger's mix of them, and its cost
/// per query, varies from seed to seed; this many independent draws keep
/// that variation near 0.1 %.
pub const SIM_PREFIX: u64 = 1 << 19;
/// The sampled queries among the first this many (about 256, fixed by
/// the seed) are checked against the serial oracle.
const ORACLE_SPAN: u64 = 256 * SAMPLE_EVERY;
/// Sampled queries replayed through the library in traced runs.
const REPLAY_CAP: usize = 64;
/// Traced runs record the spans of one burst in this many, and of the
/// queries in it, so a run's spans stay a few MB.
const TRACE_EVERY_BURST: u64 = 32;
/// Queries per measurement window (about a tenth of a second).
const WINDOW: usize = 8192;

/// The single-subarray registry tables `serve_small` queries, most
/// popular first.
pub const SMALL_LUTS: [WorkloadId; 5] = [
    WorkloadId::Add4,
    WorkloadId::ImgBin,
    WorkloadId::Bc8,
    WorkloadId::Bc4,
    WorkloadId::BitwiseRow,
];

/// A server ready for the timed loop.
pub struct ServeBench {
    server: Server,
    traffic: SmallStream,
    setup_problems: Vec<String>,
}

fn base_config() -> ExecConfig {
    ExecConfig::measurement(DesignKind::Gmc)
}

fn spec_of(q: &Query) -> QuerySpec {
    QuerySpec {
        config: base_config(),
        lut: Arc::clone(&q.lut),
        inputs: q.inputs.clone(),
    }
}

/// Whether a reply carries the table's values and a validated report.
fn reply_ok(
    reply: &Result<QueryReply, PlutoError>,
    expected: &Result<Vec<u64>, PlutoError>,
) -> bool {
    match (reply, expected) {
        (Ok(r), Ok(e)) => r.report.validated && r.values == *e,
        _ => false,
    }
}

impl ServeBench {
    /// Builds the server and the five tables, then warms every (table,
    /// input length) class once.
    pub fn new(seed: u64) -> Self {
        let luts: Vec<Arc<Lut>> = SMALL_LUTS
            .iter()
            .map(|&id| Arc::new(pluto_workloads::serve_lut(id).expect("single-table workload")))
            .collect();
        let mut server = Server::new(ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        });
        let mut warm = Vec::new();
        for lut in &luts {
            for n in MIN_INPUTS..=MAX_INPUTS {
                let inputs: Vec<u64> = (0..n).map(|i| i % lut.len() as u64).collect();
                let expected = lut.apply_all(&inputs);
                let spec = QuerySpec {
                    config: base_config(),
                    lut: Arc::clone(lut),
                    inputs,
                };
                warm.push((server.enqueue(spec), expected));
            }
        }
        server.flush();
        let mut setup_problems = Vec::new();
        for (ticket, expected) in warm {
            let seq = ticket.seq();
            if !reply_ok(&ticket.wait(), &expected) {
                setup_problems.push(format!("warm-up query {seq} failed"));
            }
        }
        ServeBench {
            server,
            traffic: SmallStream::new(seed, luts),
            setup_problems,
        }
    }

    /// Problems found while setting up.
    pub fn setup_problems(&self) -> &[String] {
        &self.setup_problems
    }

    /// The timed closed loop, then the oracle check, counter
    /// reconciliation and (traced) library replay.
    pub fn measure(mut self, seconds: f64, tr: &mut Tracer) -> Outcome {
        let mut tally = Tally {
            out: Outcome::new(WINDOW, 1),
            classes: HashMap::new(),
            sampled: Vec::new(),
            prefix: BTreeMap::new(),
        };
        let mut inflight: VecDeque<(Ticket, InFlight)> = VecDeque::new();
        let mut next_seq = 0u64;

        // The warm-up's queries are not the loop's.
        let (stats0, steals0) = (self.server.stats(), self.server.steals());
        let mut untraced = Tracer::new(false);
        let before = CacheCounters::now();
        let start = Instant::now();
        loop {
            let issuing = next_seq < SIM_PREFIX || start.elapsed().as_secs_f64() < seconds;
            while issuing && inflight.len() + BURST <= OUTSTANDING {
                let tr = if traced(next_seq) {
                    &mut *tr
                } else {
                    &mut untraced
                };
                let burst = tr.begin("client.burst", next_seq);
                for _ in 0..BURST {
                    let q = self.traffic.next_query();
                    let seq = next_seq;
                    let expected = tr.span("lut.apply_all", seq, || q.lut.apply_all(&q.inputs));
                    let spec = spec_of(&q);
                    let keep = q.sampled.then(|| spec.clone());
                    let sent = Instant::now();
                    let ticket = tr.span("serve.enqueue", seq, || self.server.enqueue(spec));
                    inflight.push_back((
                        ticket,
                        InFlight {
                            seq,
                            sent,
                            expected,
                            query: q,
                            keep,
                        },
                    ));
                    next_seq += 1;
                }
                tr.span("serve.flush", next_seq, || self.server.flush());
                tr.end(burst);
            }
            let Some((ticket, p)) = inflight.pop_front() else {
                break;
            };
            // Block on the oldest query, then collect every other reply
            // that has arrived, so a query is not stamped late for
            // finishing before an older one.
            let wait_tr = if traced(p.seq) {
                &mut *tr
            } else {
                &mut untraced
            };
            let reply = wait_tr.span("serve.wait", p.seq, || ticket.wait());
            tally.finish(p, reply, start);
            let mut i = 0;
            while i < inflight.len() {
                match inflight[i].0.try_wait() {
                    Some(reply) => {
                        let (_, p) = inflight.remove(i).expect("index within the queue");
                        tally.finish(p, reply, start);
                    }
                    None => i += 1,
                }
            }
        }
        let delta = CacheCounters::now().since(&before);
        let Tally {
            mut out,
            classes,
            mut sampled,
            ..
        } = tally;
        // Collected as they arrived; replayed in request order.
        sampled.sort_by_key(|(seq, _, _)| *seq);
        // Failed queries may have stopped short of some lookups.
        let all_ok = out.failed == 0;
        let stats = self.server.stats();
        let enqueued = stats.enqueued - stats0.enqueued;
        if enqueued != out.attempted {
            out.problem(format!(
                "server accepted {enqueued} queries but answered {}",
                out.attempted
            ));
        }
        let steals = self.server.steals() - steals0;

        if out.sim.requests != SIM_PREFIX {
            out.problem(format!(
                "simulated ledger covers {} of the first {SIM_PREFIX} queries",
                out.sim.requests
            ));
        }
        for (seq, spec, reply) in &sampled {
            if !oracle_matches(tr, *seq, spec, &reply.values, &reply.report) {
                out.failed += 1;
                out.problem(format!("query {seq} differs from the serial oracle"));
            }
        }
        if all_ok {
            reconcile_lookups(&mut self.server, &classes, &delta, &mut out);
        }
        if tr.enabled() {
            for (seq, spec, _) in sampled.iter().take(REPLAY_CAP) {
                if let Err(e) = library_replay(tr, *seq, spec) {
                    out.problem(e);
                }
            }
            let layers = &mut out.layers;
            layers.insert(
                "serve.batch_fill".into(),
                enqueued as f64 / (stats.batches - stats0.batches).max(1) as f64,
            );
            layers.insert("serve.affinities".into(), stats.affinities as f64);
            layers.insert(
                "cluster.steals_per_kreq".into(),
                steals as f64 * 1000.0 / out.completed.max(1) as f64,
            );
            delta.layer_metrics(layers);
        }
        out.sim.layer_metrics(&mut out.layers);
        out
    }
}

/// What the loop keeps of its replies.
struct Tally {
    out: Outcome,
    classes: HashMap<ClassKey, Class>,
    sampled: Vec<(u64, QuerySpec, QueryReply)>,
    /// Reports within the simulated ledger's prefix that arrived ahead
    /// of an older query's: the ledger sums in request order, so that it
    /// repeats exactly.
    prefix: BTreeMap<u64, CostReport>,
}

impl Tally {
    /// Stamps and checks one reply as it is collected.
    fn finish(&mut self, p: InFlight, reply: Result<QueryReply, PlutoError>, start: Instant) {
        let now = Instant::now();
        let out = &mut self.out;
        out.complete(
            (now - p.sent).as_secs_f64() * 1e6,
            (now - start).as_secs_f64(),
        );
        out.attempted += 1;
        let ok = reply_ok(&reply, &p.expected);
        if !ok {
            out.failed += 1;
        }
        if let Ok(r) = reply {
            if p.seq < SIM_PREFIX {
                self.prefix.insert(p.seq, r.report);
                while let Some(report) = self.prefix.remove(&out.sim.requests) {
                    out.sim.add(std::slice::from_ref(&report));
                }
            }
            if ok {
                self.classes
                    .entry(ClassKey::of(&p.query))
                    .or_insert_with(|| Class::new(&p.query))
                    .count += 1;
                if let Some(spec) = p.keep.filter(|_| p.seq < ORACLE_SPAN) {
                    self.sampled.push((p.seq, spec, r));
                }
            }
        }
    }
}

/// Whether the spans of query `seq` (and of its burst) are recorded.
fn traced(seq: u64) -> bool {
    (seq / BURST as u64) % TRACE_EVERY_BURST == 0
}

/// A query in flight, beside its ticket.
struct InFlight {
    seq: u64,
    sent: Instant,
    expected: Result<Vec<u64>, PlutoError>,
    query: Query,
    keep: Option<QuerySpec>,
}

/// Queries whose plan and packed-row lookups cost the same: one table
/// shape and one input count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ClassKey {
    input_bits: u32,
    output_bits: u32,
    len: usize,
    inputs: usize,
}

impl ClassKey {
    fn of(q: &Query) -> Self {
        ClassKey {
            input_bits: q.lut.input_bits(),
            output_bits: q.lut.output_bits(),
            len: q.lut.len(),
            inputs: q.inputs.len(),
        }
    }
}

/// Answered queries of one class, and one of them to calibrate with.
struct Class {
    count: u64,
    sample: Query,
}

impl Class {
    fn new(q: &Query) -> Self {
        Class {
            count: 0,
            sample: q.clone(),
        }
    }
}

/// Checks the loop's plan and packed-row lookups against what its
/// queries should have made: each class is run once more, alone, to
/// count the lookups one query of it makes.
fn reconcile_lookups(
    server: &mut Server,
    classes: &HashMap<ClassKey, Class>,
    delta: &CacheDelta,
    out: &mut Outcome,
) {
    let (mut plan, mut packed) = (0u64, 0u64);
    for class in classes.values() {
        let before = CacheCounters::now();
        let ticket = server.enqueue(spec_of(&class.sample));
        server.flush();
        if ticket.wait().is_err() {
            out.problem("calibration query failed");
            return;
        }
        let one = CacheCounters::now().since(&before);
        plan += one.plan_events() * class.count;
        packed += one.packed_events() * class.count;
    }
    if (plan, packed) != (delta.plan_events(), delta.packed_events()) {
        out.problem(format!(
            "cache lookups do not reconcile: plan {} (expected {plan}), packed {} (expected {packed})",
            delta.plan_events(),
            delta.packed_events()
        ));
    }
}
