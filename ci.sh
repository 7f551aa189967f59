#!/usr/bin/env bash
# Repo CI gate: formatting, lints, then the tier-1 build+test sweep.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -D warnings -D deprecated =="
# -D deprecated fails the build on any use of a #[deprecated] item, so a
# deprecation ends with its callers migrated and the item deleted.
cargo clippy --workspace --all-targets -- -D warnings -D deprecated

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release
cargo test -q

# The rayon shim runs a real thread pool; the whole suite must also pass
# with the pool pinned sequential (RAYON_NUM_THREADS=1), and the parallel
# equivalence tests assert both modes produce bit-identical results.
echo "== tier-1 again, pool pinned sequential (RAYON_NUM_THREADS=1) =="
RAYON_NUM_THREADS=1 cargo test -q

# The root `cargo test` covers only the top-level package; every crate's own
# suites (the dcd-tensor bitwise GEMM oracle and scratch no-growth, the
# dcd-nn golden training pin and gradient checks, dcd-ios, dcd-serve, ...)
# run here.
echo "== every crate's unit and integration suites (--workspace) =="
cargo test -q --workspace

# The host build (target-cpu=native) compiles the 512-bit register tile on
# an AVX-512 machine; the bitwise suites must also pass against the
# autovectorized AVX2 tile that every other x86-64 machine runs.
echo "== dcd-tensor suites on the AVX2 fallback (target-cpu=x86-64-v3) =="
RUSTFLAGS="-C target-cpu=x86-64-v3" CARGO_TARGET_DIR=target/x86-64-v3 cargo test -q -p dcd-tensor

# The direct-convolution property suite runs in each leg as well: on the
# AVX2 build above every narrow layer routes back to the packed path, and a
# batch smaller than the pool shares its tiles out between threads.
echo "== kernel equivalence under a pinned-sequential pool =="
RAYON_NUM_THREADS=1 cargo test -q -p dcd-tensor --test parallel_equivalence
RAYON_NUM_THREADS=1 cargo test -q -p dcd-tensor --test direct_conv

# An odd pool size shares the GEMM's block grids unevenly between threads.
echo "== kernel equivalence under an odd pool (RAYON_NUM_THREADS=3) =="
RAYON_NUM_THREADS=3 cargo test -q -p dcd-tensor --test parallel_equivalence
RAYON_NUM_THREADS=3 cargo test -q -p dcd-tensor --test direct_conv

# The shared conv trunk must reproduce the per-tile scan bit for bit
# whatever the pool size: scene passes, ring convs and tile assembly all
# split work between threads, and an odd pool splits it unevenly. Resilient
# scans run the same trunk, so their equivalence and fault suites run too.
# The scratch test checks that those convs grow no scratch buffer after a
# per-tile warm-up, which a pool of 1 or 3 threads shares out differently.
for threads in 1 3; do
    echo "== shared-trunk scan equivalence (RAYON_NUM_THREADS=$threads) =="
    RAYON_NUM_THREADS=$threads cargo test -q -p dcd-core --lib -- \
        shared_trunk_matches_per_tile_scan_bitwise tile_maps_equal_the_per_tile_trunk_bitwise \
        resilient_scan_matches_plain_scan_under_transient_faults
    RAYON_NUM_THREADS=$threads cargo test -q -p dcd-core --test shared_trunk_scratch
    RAYON_NUM_THREADS=$threads cargo test -q --test resilience
done

# The golden training pin must hold whatever the pool size: the conv
# backward keeps per-sample gradients in per-thread scratch and sums them in
# sample order after the join, and an odd pool splits the batch unevenly.
echo "== golden training pin, pool pinned sequential (RAYON_NUM_THREADS=1) =="
RAYON_NUM_THREADS=1 cargo test -q -p dcd-nn --test golden
echo "== golden training pin, odd pool (RAYON_NUM_THREADS=3) =="
RAYON_NUM_THREADS=3 cargo test -q -p dcd-nn --test golden

# The chaos scenarios must be bit-reproducible regardless of thread count:
# the serving acceptance suite runs under the default pool and pinned
# sequential, and both must see identical counts and breaker transitions.
echo "== chaos serving suite, default pool =="
cargo test -q --test serving
echo "== chaos serving suite, pool pinned sequential =="
RAYON_NUM_THREADS=1 cargo test -q --test serving

echo "== criterion benches compile =="
cargo bench --workspace --no-run

# The bench bins write their BENCH_*.json into the working directory. CI
# runs them from a scratch directory, so a run checks that every bin works
# and leaves the committed results untouched; regenerate those by running
# a bin from the repo root.
echo "== bench bins build (parallel, gemm, obs, serve) =="
cargo build --release -q -p dcd-bench --bin parallel --bin gemm --bin obs --bin serve
bin_dir="$(cd "${CARGO_TARGET_DIR:-target}" && pwd)/release"
bench_dir="$(mktemp -d)"
trap 'rm -rf "$bench_dir"' EXIT

for bin in parallel gemm obs serve; do
    echo "== bench bin: $bin =="
    (cd "$bench_dir" && "$bin_dir/$bin")
done

echo "CI OK"
