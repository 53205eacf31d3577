//! Integration tests of the streaming serve path (`DESIGN.md` §9):
//! served outputs and per-query `CostReport`s are bit-identical to the
//! serial `Session` oracle for any worker count and any seeded-shuffle
//! arrival order of mixed small-query / large-sweep traffic; tickets
//! stream back in arrival order; graceful drain never drops a ticket;
//! and work-stealing activates under skewed lane contention without
//! perturbing a single bit of output.

use pluto_repro::baselines::WorkloadId;
use pluto_repro::core::lut::Lut;
use pluto_repro::core::serve::{serial_oracle, QueryReply, QuerySpec, ServeConfig, Server, Ticket};
use pluto_repro::core::session::ExecConfig;
use pluto_repro::core::{DesignKind, PlutoError};
use pluto_repro::workloads::serve_lut;
use sim_support::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

fn registry_lut(id: WorkloadId) -> Arc<Lut> {
    Arc::new(serve_lut(id).unwrap_or_else(|| panic!("{id:?} serves a single LUT")))
}

/// Mixed traffic: small latency-class queries against three small
/// registry LUTs plus heavyweight sweeps against the partitioned
/// 4096-entry Gamma12 tone map, inputs drawn from a seeded RNG. The Add4
/// table is queried under GMC and under GSA, whose destructive sweeps
/// clear rows of subarrays that adopted the same cached image the GMC
/// machines hold.
fn mixed_traffic(seed: u64) -> Vec<QuerySpec> {
    let add4 = registry_lut(WorkloadId::Add4);
    let bc8 = registry_lut(WorkloadId::Bc8);
    let imgbin = registry_lut(WorkloadId::ImgBin);
    let gamma = registry_lut(WorkloadId::Gamma12);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut specs = Vec::new();
    for i in 0..32u64 {
        let (lut, modulo, len, design) = match i % 8 {
            // A sweep every 8th arrival; small queries otherwise.
            0 => (&gamma, 4096u64, 24usize, DesignKind::Gmc),
            1 | 4 => (&add4, 256, 6, DesignKind::Gmc),
            2 | 5 => (&bc8, 256, 5, DesignKind::Bsa),
            7 => (&add4, 256, 6, DesignKind::Gsa),
            _ => (&imgbin, 256, 7, DesignKind::Gmc),
        };
        specs.push(QuerySpec {
            config: ExecConfig::measurement(design),
            lut: Arc::clone(lut),
            inputs: (0..len).map(|_| rng.gen_range(0..modulo)).collect(),
        });
    }
    specs
}

/// Fisher–Yates with a seeded RNG: a deterministic arrival-order shuffle.
fn shuffled(mut specs: Vec<QuerySpec>, seed: u64) -> Vec<QuerySpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..specs.len()).rev() {
        let j = rng.gen_range(0..=i);
        specs.swap(i, j);
    }
    specs
}

fn serve_all(specs: &[QuerySpec], workers: usize, batch_slots: usize) -> Vec<QueryReply> {
    let mut server = Server::new(ServeConfig {
        workers,
        batch_slots,
    });
    let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
    server.drain();
    tickets
        .into_iter()
        .map(|t| t.wait().expect("query served"))
        .collect()
}

#[test]
fn served_results_are_bit_identical_to_the_serial_oracle_for_any_worker_count() {
    let specs = mixed_traffic(7);
    let oracle: Vec<_> = specs.iter().map(|s| serial_oracle(s).unwrap()).collect();
    for workers in [1usize, 2, 4] {
        let replies = serve_all(&specs, workers, 4);
        for (i, ((values, report), reply)) in oracle.iter().zip(&replies).enumerate() {
            assert_eq!(&reply.values, values, "workers={workers} query {i}: values");
            assert_eq!(&reply.report, report, "workers={workers} query {i}: report");
            assert!(reply.report.validated, "workers={workers} query {i}");
        }
    }
}

#[test]
fn seeded_shuffle_arrival_orders_do_not_perturb_any_query() {
    let base = mixed_traffic(11);
    // The oracle is a property of the spec alone, so however arrival
    // order, batching, worker count, and stealing interleave execution,
    // each query's reply must match its own oracle bit-for-bit.
    for (shuffle_seed, workers) in [(1u64, 1usize), (2, 2), (3, 4), (4, 4)] {
        let specs = shuffled(base.clone(), shuffle_seed);
        let replies = serve_all(&specs, workers, 3);
        for (i, (spec, reply)) in specs.iter().zip(&replies).enumerate() {
            let (values, report) = serial_oracle(spec).unwrap();
            assert_eq!(
                reply.values, values,
                "shuffle {shuffle_seed} workers {workers} query {i}"
            );
            assert_eq!(
                reply.report, report,
                "shuffle {shuffle_seed} workers {workers} query {i}"
            );
        }
    }
}

#[test]
fn tickets_stream_in_arrival_order() {
    let specs = mixed_traffic(5);
    let mut server = Server::with_workers(2);
    let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(t.seq(), i as u64, "tickets number in arrival order");
    }
    server.drain();
    // After drain every ticket resolves without blocking, and each reply
    // carries its own arrival sequence number.
    for (i, t) in tickets.into_iter().enumerate() {
        let reply = t.wait().expect("query served");
        assert_eq!(reply.seq, i as u64);
    }
}

#[test]
fn drain_resolves_every_ticket_including_unflushed_partial_batches() {
    let specs = mixed_traffic(3);
    let mut server = Server::new(ServeConfig {
        workers: 2,
        batch_slots: 1000, // nothing auto-flushes; drain must flush
    });
    let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
    assert_eq!(server.outstanding(), specs.len() as u64);
    server.drain();
    assert_eq!(server.outstanding(), 0);
    for t in tickets {
        // try_wait: proves the result is already there — no blocking.
        let reply = t.try_wait().expect("resolved by drain").expect("served");
        assert!(reply.report.validated);
    }
    // The server stays usable after a drain (it is a barrier, not a
    // shutdown).
    let t = server.enqueue(specs[0].clone());
    server.drain();
    assert!(t.wait().unwrap().report.validated);
}

#[test]
fn dropping_the_server_resolves_every_ticket_before_workers_join() {
    let specs = mixed_traffic(9);
    let tickets: Vec<Ticket> = {
        let mut server = Server::with_workers(4);
        let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
        drop(server); // implicit drain-on-drop
        tickets
    };
    for (spec, t) in specs.iter().zip(tickets) {
        let reply = t
            .try_wait()
            .expect("resolved before drop returned")
            .unwrap();
        let (values, _) = serial_oracle(spec).unwrap();
        assert_eq!(reply.values, values);
    }
}

#[test]
fn stealing_activates_under_contention_and_changes_nothing() {
    let gamma = registry_lut(WorkloadId::Gamma12);
    let sweep = |i: u64| QuerySpec {
        config: ExecConfig::measurement(DesignKind::Gmc),
        lut: Arc::clone(&gamma),
        inputs: (0..16).map(|k| (i * 131 + k * 17) % 4096).collect(),
    };
    let oracle: Vec<_> = (0..8u64)
        .map(|i| serial_oracle(&sweep(i)).unwrap())
        .collect();

    // All sweep batches share one affinity, so they all home on lane 0;
    // worker 1's lane stays empty and every batch it executes is a
    // steal. The OS scheduler decides when worker 1 wakes, so repeat
    // contended rounds (bounded) until the counter moves.
    let mut server = Server::with_workers(2);
    let mut rounds = 0;
    while server.steals() == 0 && rounds < 100 {
        let tickets: Vec<Ticket> = (0..8u64)
            .map(|i| {
                let t = server.enqueue(sweep(i));
                server.flush(); // one batch per query: 8 stealable items
                t
            })
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let reply = t.wait().expect("sweep served");
            let (values, report) = &oracle[i];
            assert_eq!(&reply.values, values, "round {rounds} query {i}");
            assert_eq!(&reply.report, report, "round {rounds} query {i}");
        }
        rounds += 1;
    }
    assert!(
        server.steals() > 0,
        "no steal observed in {rounds} contended rounds"
    );
}

/// Mixed qnn + tone-map traffic (`DESIGN.md` §12): inference-shaped
/// queries — signed-product streams against the partitioned 65 536-entry
/// `smul8` table and 12-bit requantization lookups — interleaved with
/// Gamma12 tone-map sweeps, under seeded-shuffle arrival orders. Every
/// reply must match its own serial oracle bit-for-bit.
#[test]
fn mixed_qnn_and_tonemap_traffic_survives_any_arrival_order() {
    use pluto_repro::qnn::gemv::{smul_lut, to_field};
    use pluto_repro::qnn::requant::Requant;

    let smul8 = Arc::new(smul_lut(8).unwrap());
    let requant = Arc::new(Requant::new(12, 2, 8).lut().unwrap());
    let gamma = registry_lut(WorkloadId::Gamma12);
    let mut rng = StdRng::seed_from_u64(17);
    let mut specs = Vec::new();
    for i in 0..18u64 {
        let spec = match i % 3 {
            // A product stream: packed (weight, activation) pairs.
            0 => QuerySpec {
                config: ExecConfig::measurement(DesignKind::Gmc),
                lut: Arc::clone(&smul8),
                inputs: (0..12)
                    .map(|_| {
                        let w = to_field(rng.gen_range(-128..=127), 8);
                        let x = to_field(rng.gen_range(-128..=127), 8);
                        (w << 8) | x
                    })
                    .collect(),
            },
            // A requantization stream over saturated accumulators.
            1 => QuerySpec {
                config: ExecConfig::measurement(DesignKind::Bsa),
                lut: Arc::clone(&requant),
                inputs: (0..10)
                    .map(|_| to_field(rng.gen_range(-2048..=2047), 12))
                    .collect(),
            },
            // The tone-map sweep the serve suite already exercises.
            _ => QuerySpec {
                config: ExecConfig::measurement(DesignKind::Gmc),
                lut: Arc::clone(&gamma),
                inputs: (0..16).map(|_| rng.gen_range(0..4096)).collect(),
            },
        };
        specs.push(spec);
    }
    for (shuffle_seed, workers) in [(1u64, 2usize), (2, 4)] {
        let shuffled_specs = shuffled(specs.clone(), shuffle_seed);
        let replies = serve_all(&shuffled_specs, workers, 3);
        for (i, (spec, reply)) in shuffled_specs.iter().zip(&replies).enumerate() {
            let (values, report) = serial_oracle(spec).unwrap();
            assert_eq!(
                reply.values, values,
                "shuffle {shuffle_seed} workers {workers} query {i}"
            );
            assert_eq!(
                reply.report, report,
                "shuffle {shuffle_seed} workers {workers} query {i}"
            );
        }
    }
}

/// A whole streamed inference next to tone-map traffic: the per-sample
/// serve path produces logits bit-identical to the host oracle even
/// with unrelated queries in flight.
#[test]
fn streamed_inference_matches_the_host_oracle() {
    use pluto_repro::qnn::model::{sample_batch, QuantModel};
    use pluto_repro::qnn::pluto_exec::mlp_exec_config;

    let model = QuantModel::mnist_mlp(7);
    let (digit, x) = sample_batch(3, 1).remove(0);
    let config = mlp_exec_config(DesignKind::Gmc);
    let mut server = Server::with_workers(2);
    // Unrelated traffic in flight on the same server.
    let gamma = registry_lut(WorkloadId::Gamma12);
    let noise = server.enqueue(QuerySpec {
        config: ExecConfig::measurement(DesignKind::Gmc),
        lut: Arc::clone(&gamma),
        inputs: (0..8).map(|k| (k * 509) % 4096).collect(),
    });
    let logits = model.serve_infer(&mut server, &config, &x).unwrap();
    assert_eq!(
        logits,
        model.forward_reference(&x),
        "digit {digit}: served logits"
    );
    server.drain();
    assert!(noise.wait().unwrap().report.validated);
}

#[test]
fn per_query_failures_resolve_only_their_own_ticket() {
    let add4 = registry_lut(WorkloadId::Add4);
    let spec = |inputs: Vec<u64>| QuerySpec {
        config: ExecConfig::measurement(DesignKind::Gmc),
        lut: Arc::clone(&add4),
        inputs,
    };
    let mut server = Server::with_workers(2);
    let good = server.enqueue(spec(vec![1, 2, 3]));
    let bad = server.enqueue(spec(vec![999])); // exceeds the 8-bit index
    let tail = server.enqueue(spec(vec![4, 5]));
    server.drain();
    assert!(good.wait().unwrap().report.validated);
    assert!(matches!(
        bad.wait().unwrap_err(),
        PlutoError::IndexOutOfRange { .. }
    ));
    assert!(tail.wait().unwrap().report.validated);
}

/// A served query generates nothing from `ExecConfig::seed`, so specs
/// differing only in seed share one affinity class, one batch and one
/// pooled session, and each reply still equals its own spec's oracle.
#[test]
fn seeds_share_one_affinity_and_one_batch() {
    let add4 = registry_lut(WorkloadId::Add4);
    let mut server = Server::new(ServeConfig {
        workers: 2,
        batch_slots: 32,
    });
    let specs: Vec<QuerySpec> = (0..8u64)
        .map(|seed| {
            let mut config = ExecConfig::measurement(DesignKind::Gmc);
            config.seed = 0x5eed_0000 + seed * 7919;
            QuerySpec {
                config,
                lut: Arc::clone(&add4),
                inputs: vec![seed, 2 * seed + 1, 255 - seed],
            }
        })
        .collect();
    let tickets: Vec<Ticket> = specs.iter().map(|s| server.enqueue(s.clone())).collect();
    server.flush();
    let stats = server.stats();
    assert_eq!(stats.affinities, 1, "the seed must not split affinities");
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.max_batch, specs.len());
    for (s, t) in specs.iter().zip(tickets) {
        let (values, report) = serial_oracle(s).unwrap();
        let reply = t.wait().unwrap();
        assert_eq!(reply.values, values);
        assert_eq!(reply.report, report);
        assert!(reply.report.validated);
    }
}

/// Large tables on row counts that are not powers of two: a segment
/// covers the largest power-of-two row prefix (512 of 1000 or 600
/// rows), so the serve path's subarray floor must count 512-row
/// segments, as the store does.
#[test]
fn large_luts_on_non_power_of_two_row_counts_are_served() {
    for (lut, rows) in [
        (
            Lut::from_fn("tone1000", 12, 8, |x| x >> 4).unwrap(),
            1000u16,
        ),
        (pluto_repro::core::lut::catalog::mul(8).unwrap(), 600),
    ] {
        let mut config = ExecConfig::measurement(DesignKind::Gmc);
        config.rows_per_subarray = rows;
        let n = lut.len() as u64;
        let spec = QuerySpec {
            config,
            lut: Arc::new(lut),
            inputs: vec![0, n - 1, n / 3, n / 2 + 5],
        };
        let (values, report) = serial_oracle(&spec).unwrap();
        assert!(report.validated, "{rows} rows");
        let mut server = Server::with_workers(1);
        let ticket = server.enqueue(spec.clone());
        server.flush();
        let reply = ticket.wait().unwrap();
        assert_eq!(reply.values, values, "{rows} rows");
        assert_eq!(reply.report, report, "{rows} rows");
    }
}
