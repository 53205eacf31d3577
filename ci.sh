#!/usr/bin/env bash
# The full offline CI gate. Run locally before pushing; the GitHub
# workflow (.github/workflows/ci.yml) runs exactly these steps.
#
# Offline invariant: the workspace has zero crates.io dependencies, so
# every step below must succeed with no network and an empty registry.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (quick mode for the bench-binary smoke tests)"
PLUTO_QUICK=1 cargo test -q --workspace

echo "==> timing-backend differential (tests/timing_backend.rs: analytic == banked bit-for-bit on serial streams)"
PLUTO_QUICK=1 cargo test -q --test timing_backend

echo "==> session API quickstart (examples/session.rs)"
cargo run --release --quiet --example session

echo "==> cluster executor quickstart (examples/cluster.rs)"
cargo run --release --quiet --example cluster

echo "==> 4-worker cluster smoke (fig07 --quick --workers 4)"
cargo run --release --quiet -p pluto-bench --bin fig07_speedup -- --quick --workers 4

echo "==> query-engine throughput guard (benches/query.rs smoke: word-parallel >= 2x scalar packing, one-segment store warm-plan replay >= 2x the same store issuing with plans off, on 256- and 512-entry LUTs)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench query

echo "==> partitioned-LUT guard (benches/partition.rs smoke: fused 5.6 path — 4-seg store query < 2x a single-subarray QueryExecutor query; cached load and reset + reload each < the query they serve)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench partition

echo "==> serve queue-behavior guard (benches/serve.rs smoke: mixed p99 bounded vs baseline, plan-cache hits live, stealing live)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench serve

echo "==> qnn pipeline guard (benches/qnn.rs smoke: warm layers replay plans, direct w8 energy >= 100x nibble, latency <= 2x)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench qnn

echo "==> 4-worker MLP smoke (examples/qnn_inference.rs --workers 4: cluster bit-identical to serial)"
cargo run --release --quiet --example qnn_inference -- --workers 4

echo "==> 4-worker serve smoke (examples/serve.rs traffic replay)"
cargo run --release --quiet --example serve -- --workers 4

echo "==> banked-backend serve smoke (examples/serve.rs --timing banked)"
cargo run --release --quiet --example serve -- --workers 4 --timing banked

echo "==> qnn serve smoke (examples/serve.rs --qnn: streamed inference bit-identical to the host oracle)"
cargo run --release --quiet --example serve -- --qnn --workers 4

echo "==> bench harness smoke (writes BENCH_*.json incl. BENCH_cluster.json)"
PLUTO_QUICK=1 cargo bench -p pluto-bench --bench simulator --bench session --bench cluster

echo "==> end-to-end benchmark crate (benchmark/ is its own workspace: build it against the current public API and run its unit tests)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> CI green"
