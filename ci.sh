#!/usr/bin/env bash
# Repo CI gate: formatting, lints, then the tier-1 build+test sweep.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -D warnings -D deprecated =="
# -D deprecated keeps in-repo code off the legacy dcd-profiler free
# functions: everything must go through ProfileReport.
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

# The rayon shim runs a real thread pool; the whole suite must also pass
# with the pool pinned sequential (RAYON_NUM_THREADS=1), and the parallel
# equivalence tests assert both modes produce bit-identical results.
echo "== tier-1 again, pool pinned sequential (RAYON_NUM_THREADS=1) =="
RAYON_NUM_THREADS=1 cargo test -q

# The root `cargo test` covers only the top-level package; the kernel
# crate's own suites (bitwise GEMM oracle, scratch no-growth) run here.
echo "== dcd-tensor unit and property suites =="
cargo test -q -p dcd-tensor

# The host build (target-cpu=native) compiles the 512-bit register tile on
# an AVX-512 machine; the bitwise suites must also pass against the
# autovectorized AVX2 tile that every other x86-64 machine runs.
echo "== dcd-tensor suites on the AVX2 fallback (target-cpu=x86-64-v3) =="
RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 cargo test -q -p dcd-tensor

echo "== kernel equivalence under a pinned-sequential pool =="
RAYON_NUM_THREADS=1 cargo test -q -p dcd-tensor --test parallel_equivalence

# An odd pool size shares the GEMM's block grids unevenly between threads.
echo "== kernel equivalence under an odd pool (RAYON_NUM_THREADS=3) =="
RAYON_NUM_THREADS=3 cargo test -q -p dcd-tensor --test parallel_equivalence

# The chaos scenarios must be bit-reproducible regardless of thread count:
# the serving acceptance suite runs under the default pool and pinned
# sequential, and both must see identical counts and breaker transitions.
echo "== chaos serving suite, default pool =="
cargo test -q --test serving
echo "== chaos serving suite, pool pinned sequential =="
RAYON_NUM_THREADS=1 cargo test -q --test serving

echo "== criterion benches compile =="
cargo bench --workspace --no-run

echo "== parallel kernel microbenchmark -> BENCH_parallel.json =="
cargo run --release -q -p dcd-bench --bin parallel

echo "== packed-vs-legacy GEMM microbenchmark -> BENCH_gemm.json =="
cargo run --release -q -p dcd-bench --bin gemm

echo "== observability overhead microbenchmark -> BENCH_obs.json =="
cargo run --release -q -p dcd-bench --bin obs

echo "== serving SLO benchmark -> BENCH_serve.json =="
cargo run --release -q -p dcd-bench --bin serve

echo "CI OK"
