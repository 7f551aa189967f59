//! Property-based tests for the tensor kernels.

use dcd_tensor::{
    adaptive_avg_pool2d, adaptive_max_pool2d, conv2d, conv2d_backward, gemm, gemm_at, gemm_bias,
    gemm_bias_relu, gemm_bt, gemm_ep, max_pool2d, Epilogue, SeededRng, Tensor, Trans,
};
use proptest::prelude::*;

/// Naive O(mnk) GEMM oracle in f64.
fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f64; m * n];
    for i in 0..m {
        for p in 0..k {
            for j in 0..n {
                c[i * n + j] += a[i * k + p] as f64 * b[p * n + j] as f64;
            }
        }
    }
    c.into_iter().map(|x| x as f32).collect()
}

/// Single-chain oracle: every element is one `mul_add` chain over `p`
/// ascending, starting from `+0.0` — the arithmetic every GEMM routine
/// (thin, packed, blocked) promises, so results must agree bit for bit.
fn gemm_chain(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc = a[i * k + p].mul_add(b[p * n + j], acc);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Applies `ep` to the oracle's raw products `raw`; `c0` is the prior
/// contents of `C` (read by `Accumulate`).
fn epilogue_ref(ep: Epilogue, raw: &[f32], c0: &[f32], n: usize) -> Vec<f32> {
    let relu = |y: f32| if y > 0.0 { y } else { 0.0 };
    (0..raw.len())
        .map(|e| {
            let (i, j, v) = (e / n, e % n, raw[e]);
            match ep {
                Epilogue::Store => v,
                Epilogue::Accumulate => c0[e] + v,
                Epilogue::BiasCols(b) => v + b[j],
                Epilogue::BiasColsRelu(b) => relu(v + b[j]),
                Epilogue::BiasRows(b) => v + b[i],
                Epilogue::BiasRowsRelu(b) => relu(v + b[i]),
            }
        })
        .collect()
}

/// `rows×cols` row-major → its `cols×rows` transpose.
fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

fn randn(len: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..len).map(|_| rng.normal()).collect()
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (e, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {e}: {g} vs {w}");
    }
}

/// `k` straddles the blocked path's `KC = 256` slices (`2·KC + 5`).
const K_BLOCKED: usize = 2 * 256 + 5;
/// Straddles the `NC = 512` column blocks (8 full + 4) and the `NR = 32`
/// panels; with `K_BLOCKED`, `k·n ≥ 2^21`, so `B` counts as DRAM-resident
/// and `m` alone picks the thin (`m ≤ 8`) or the blocked path.
const N_BLOCKED: usize = 4100;
/// Straddles the thin/blocked crossover (8/9) and the `MR = 6` panels.
const M_CROSSOVER: [usize; 8] = [1, 3, 5, 6, 8, 9, 32, 33];
/// Column counts around the 32-wide tile: 24 and 31 select the 16-wide
/// fallback with a ragged edge, 32 is one whole panel, and 33, 47, 48, 63
/// and 65 leave ragged 32-wide edges of 1, 15, 16, 31 and 1 columns.
const N_TILE_EDGES: [usize; 8] = [24, 31, 32, 33, 47, 48, 63, 65];

#[test]
fn transposed_variants_match_chain_oracle_bitwise() {
    let (k, n) = (K_BLOCKED, N_BLOCKED);
    let mut rng = SeededRng::new(0xB10C);
    let b = randn(k * n, &mut rng);
    let bt = transpose(&b, k, n);
    for m in M_CROSSOVER {
        let a = randn(m * k, &mut rng);
        let at = transpose(&a, m, k);
        let want = gemm_chain(&a, &b, m, k, n);
        assert_bits(&gemm(&a, &b, m, k, n), &want, &format!("gemm m={m}"));
        assert_bits(&gemm_at(&at, &b, m, k, n), &want, &format!("gemm_at m={m}"));
        assert_bits(&gemm_bt(&a, &bt, m, k, n), &want, &format!("gemm_bt m={m}"));
        let mut c = vec![0.0f32; m * n];
        gemm_ep(
            &at,
            Trans::Yes,
            &bt,
            Trans::Yes,
            &mut c,
            m,
            k,
            n,
            Epilogue::Store,
        );
        assert_bits(&c, &want, &format!("gemm_ep Aᵀ·Bᵀ m={m}"));
    }
}

#[test]
fn narrow_tiles_match_chain_oracle_bitwise() {
    // Every row-panel height (m = 1, 2, 4, 6 and ragged 3, 5, 7, 13) against
    // every column-width edge of the 32-wide tile. `gemm_bt` always tiles;
    // `gemm` takes the thin path up to m = 8 and tiles above.
    let k = 37;
    let mut rng = SeededRng::new(0x32);
    for m in [1, 2, 3, 4, 5, 6, 7, 13] {
        for n in N_TILE_EDGES {
            let a = randn(m * k, &mut rng);
            let b = randn(k * n, &mut rng);
            let want = gemm_chain(&a, &b, m, k, n);
            assert_bits(&gemm(&a, &b, m, k, n), &want, &format!("gemm {m}x{n}"));
            let bt = transpose(&b, k, n);
            assert_bits(
                &gemm_bt(&a, &bt, m, k, n),
                &want,
                &format!("gemm_bt {m}x{n}"),
            );
        }
    }
}

#[test]
fn every_epilogue_matches_chain_oracle_bitwise() {
    // One thin and one blocked shape against a DRAM-sized B, plus the thin
    // and packed paths against a small B, the packed one at every column
    // edge of the 32-wide tile.
    let k = K_BLOCKED;
    let mut rng = SeededRng::new(0xE9);
    let small_b = [(3, 100), (33, 100)];
    let tile_edges = N_TILE_EDGES.map(|n| (33, n));
    for (m, n) in [(3, N_BLOCKED), (9, N_BLOCKED)]
        .into_iter()
        .chain(small_b)
        .chain(tile_edges)
    {
        let a = randn(m * k, &mut rng);
        let b = randn(k * n, &mut rng);
        let c0 = randn(m * n, &mut rng);
        let (col_bias, row_bias) = (randn(n, &mut rng), randn(m, &mut rng));
        let raw = gemm_chain(&a, &b, m, k, n);
        for (name, ep) in [
            ("Store", Epilogue::Store),
            ("Accumulate", Epilogue::Accumulate),
            ("BiasCols", Epilogue::BiasCols(&col_bias)),
            ("BiasColsRelu", Epilogue::BiasColsRelu(&col_bias)),
            ("BiasRows", Epilogue::BiasRows(&row_bias)),
            ("BiasRowsRelu", Epilogue::BiasRowsRelu(&row_bias)),
        ] {
            let mut c = c0.clone();
            gemm_ep(&a, Trans::No, &b, Trans::No, &mut c, m, k, n, ep);
            let want = epilogue_ref(ep, &raw, &c0, n);
            assert_bits(&c, &want, &format!("{name} m={m} n={n}"));
        }
    }
}

fn small_f32() -> impl Strategy<Value = f32> {
    (-100i32..=100).prop_map(|x| x as f32 / 10.0)
}

/// Dimension sizes that stress the packed kernel's edge handling: every
/// residue mod the 16/8/4/1 tile sizes, the edges of the 32-wide tile
/// (24, 31, 32, 33, 47, 48, 63, 65) and 64 (whole panels, exercises the MC
/// row-block split).
const TILE_EDGE_SIZES: [usize; 26] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32, 33, 47, 48, 63, 64, 65,
];

fn tile_edge_dim() -> impl Strategy<Value = usize> {
    (0usize..TILE_EDGE_SIZES.len()).prop_map(|i| TILE_EDGE_SIZES[i])
}

proptest! {
    #[test]
    fn gemm_matches_naive_oracle(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let got = gemm(&a, &b, m, k, n);
        let want = gemm_ref(&a, &b, m, k, n);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-4 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn gemm_matches_oracle_at_tile_edges(
        m in tile_edge_dim(), k in tile_edge_dim(), n in tile_edge_dim(), seed in 0u64..1000,
    ) {
        // Non-multiple-of-tile shapes: ragged last row-panel, ragged last
        // column-panel, and every MR/NR selection path.
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let got = gemm(&a, &b, m, k, n);
        let want = gemm_ref(&a, &b, m, k, n);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-4 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn gemm_at_matches_transposed_oracle(
        m in tile_edge_dim(), k in tile_edge_dim(), n in tile_edge_dim(), seed in 0u64..1000,
    ) {
        // a holds Aᵀ in [k, m] storage; result must equal gemm on the
        // explicitly transposed matrix.
        let mut rng = SeededRng::new(seed);
        let at: Vec<f32> = (0..k * m).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let mut a = vec![0.0f32; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = at[p * m + i];
            }
        }
        let got = gemm_at(&at, &b, m, k, n);
        let want = gemm_ref(&a, &b, m, k, n);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-4 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn gemm_bt_matches_transposed_oracle(
        m in tile_edge_dim(), k in tile_edge_dim(), n in tile_edge_dim(), seed in 0u64..1000,
    ) {
        // b holds Bᵀ in [n, k] storage.
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let bt: Vec<f32> = (0..n * k).map(|_| rng.normal()).collect();
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let got = gemm_bt(&a, &bt, m, k, n);
        let want = gemm_ref(&a, &b, m, k, n);
        for (g, w) in got.iter().zip(want.iter()) {
            prop_assert!((g - w).abs() < 1e-4 * (1.0 + w.abs()));
        }
    }

    #[test]
    fn fused_bias_epilogues_match_unfused(
        m in tile_edge_dim(), k in tile_edge_dim(), n in tile_edge_dim(), seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let bias: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let plain = gemm(&a, &b, m, k, n);
        let biased = gemm_bias(&a, &b, &bias, m, k, n);
        let relu = gemm_bias_relu(&a, &b, &bias, m, k, n);
        for i in 0..m * n {
            let want = plain[i] + bias[i % n];
            // Fused bias adds in the same order → bitwise equal.
            prop_assert_eq!(biased[i].to_bits(), want.to_bits());
            let want_relu = if want > 0.0 { want } else { 0.0 };
            prop_assert_eq!(relu[i].to_bits(), want_relu.to_bits());
        }
    }

    #[test]
    fn gemm_is_linear_in_first_argument(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000, alpha in small_f32(),
    ) {
        let mut rng = SeededRng::new(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        let scaled: Vec<f32> = a.iter().map(|x| alpha * x).collect();
        let lhs = gemm(&scaled, &b, m, k, n);
        let rhs: Vec<f32> = gemm(&a, &b, m, k, n).iter().map(|x| alpha * x).collect();
        for (l, r) in lhs.iter().zip(rhs.iter()) {
            prop_assert!((l - r).abs() < 1e-3 * (1.0 + r.abs()), "{l} vs {r}");
        }
    }

    #[test]
    fn concat_then_index_recovers_parts(
        rows_a in 1usize..5, rows_b in 1usize..5, cols in 1usize..5, seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = Tensor::randn([rows_a, cols], 0.0, 1.0, &mut rng);
        let b = Tensor::randn([rows_b, cols], 0.0, 1.0, &mut rng);
        let c = Tensor::concat(&[&a, &b], 0);
        prop_assert_eq!(c.dims(), &[rows_a + rows_b, cols]);
        for i in 0..rows_a {
            prop_assert_eq!(c.index_axis0(i), a.index_axis0(i));
        }
        for i in 0..rows_b {
            prop_assert_eq!(c.index_axis0(rows_a + i), b.index_axis0(i));
        }
    }

    #[test]
    fn conv_is_translation_covariant_in_batch(
        h in 3usize..8, w in 3usize..8, seed in 0u64..500,
    ) {
        // Duplicating a sample in the batch duplicates its output.
        let mut rng = SeededRng::new(seed);
        let x1 = Tensor::randn([1, 2, h, w], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn([3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let bias = Tensor::randn([3], 0.0, 0.1, &mut rng);
        let x2 = Tensor::stack(&[x1.index_axis0(0), x1.index_axis0(0)]);
        let y1 = conv2d(&x1, &weight, &bias, 1, 1);
        let y2 = conv2d(&x2, &weight, &bias, 1, 1);
        prop_assert!(y2.index_axis0(0).max_abs_diff(&y1.index_axis0(0)) < 1e-6);
        prop_assert!(y2.index_axis0(1).max_abs_diff(&y1.index_axis0(0)) < 1e-6);
    }

    #[test]
    fn conv_is_linear_in_input(h in 4usize..8, seed in 0u64..500) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([1, 1, h, h], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn([2, 1, 3, 3], 0.0, 0.5, &mut rng);
        let zero_bias = Tensor::zeros([2]);
        let y = conv2d(&x, &weight, &zero_bias, 1, 0);
        let y2 = conv2d(&x.scale(2.0), &weight, &zero_bias, 1, 0);
        prop_assert!(y2.max_abs_diff(&y.scale(2.0)) < 1e-4);
    }

    #[test]
    fn max_pool_output_bounded_by_input_extrema(
        h in 2usize..9, w in 2usize..9, seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([1, 2, h, w], 0.0, 1.0, &mut rng);
        let (y, _) = max_pool2d(&x, 2, 1);
        let lo = x.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = x.max();
        for &v in y.data() {
            prop_assert!(v >= lo && v <= hi);
        }
    }

    #[test]
    fn adaptive_max_dominates_adaptive_avg(
        h in 1usize..10, w in 1usize..10, bins in 1usize..5, seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([1, 1, h, w], 0.0, 1.0, &mut rng);
        let (mx, _) = adaptive_max_pool2d(&x, bins);
        let av = adaptive_avg_pool2d(&x, bins);
        for (m, a) in mx.data().iter().zip(av.data().iter()) {
            prop_assert!(m >= a, "max {m} < avg {a}");
        }
    }

    #[test]
    fn adaptive_pool_fixed_output_size(
        h in 1usize..20, w in 1usize..20, bins in 1usize..6,
    ) {
        // The SPP invariant: output size depends only on the bin count.
        let x = Tensor::zeros([1, 3, h, w]);
        let (y, _) = adaptive_max_pool2d(&x, bins);
        prop_assert_eq!(y.dims(), &[1, 3, bins, bins]);
    }

    #[test]
    fn conv_backward_grads_have_forward_shapes(
        h in 3usize..7, cin in 1usize..3, cout in 1usize..3, seed in 0u64..200,
    ) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([1, cin, h, h], 0.0, 1.0, &mut rng);
        let weight = Tensor::randn([cout, cin, 3, 3], 0.0, 0.5, &mut rng);
        let bias = Tensor::zeros([cout]);
        let y = conv2d(&x, &weight, &bias, 1, 1);
        let go = Tensor::ones(y.shape().clone());
        let g = conv2d_backward(&x, &weight, &go, 1, 1);
        prop_assert_eq!(g.input.shape(), x.shape());
        prop_assert_eq!(g.weight.shape(), weight.shape());
        prop_assert_eq!(g.bias.dims(), &[cout]);
    }

    #[test]
    fn axpy_matches_scale_add(len in 1usize..64, alpha in small_f32(), seed in 0u64..1000) {
        let mut rng = SeededRng::new(seed);
        let x = Tensor::randn([len], 0.0, 1.0, &mut rng);
        let y = Tensor::randn([len], 0.0, 1.0, &mut rng);
        let mut z = x.clone();
        z.axpy(alpha, &y);
        let want = x.add(&y.scale(alpha));
        prop_assert!(z.max_abs_diff(&want) < 1e-4);
    }
}
