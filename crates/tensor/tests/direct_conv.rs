//! Bitwise property suite for the stride-1 C–P convolutions that the
//! pack-free direct routine runs on AVX-512 builds (its weight gradient up
//! to 64 output channels; the packed routine runs the rest, maps only a
//! few columns wide, and everything on other builds).
//!
//! Every public entry point is checked, bit for bit, against the packed
//! path's arithmetic: an im2col + one `mul_add` chain per element,
//! `max_pool2d`'s window scan and argmax, and the unfused backward route
//! (`max_pool2d_backward`, the ReLU mask, then `gemm_ep` over the im2col
//! columns). The grid covers every `c_in` × `c_out` × kernel combination
//! of the NAS space's shapes, same and valid (pad 0) convolutions, ragged
//! maps and batches 1, 2 and 20, on the pool and forced sequential; the
//! forward also runs narrow valid maps on both sides of the direct route's
//! width crossover.

use dcd_tensor::{
    conv2d, conv2d_backward, conv2d_relu, conv2d_relu_pool, conv2d_relu_pool_backward,
    conv2d_relu_pool_tracked, gemm_ep, max_pool2d, max_pool2d_backward, Conv2dGrads, Epilogue,
    MaxIndices, SeededRng, Tensor, Trans,
};

const C_IN: [usize; 5] = [1, 3, 4, 16, 32];
/// The `tiny` config's 4- and 8-lane layers up to the widest direct weight
/// gradient, and one wider layer.
const C_OUT: [usize; 8] = [4, 8, 16, 24, 32, 48, 64, 80];
/// Every conv1 kernel of the NAS space.
const KERNELS: [usize; 5] = [1, 3, 5, 7, 9];
/// Ragged maps: odd sizes pool with a dropped last row or column.
const MAPS: [(usize, usize); 2] = [(7, 9), (33, 31)];
const BATCHES: [usize; 3] = [1, 2, 20];
/// Multiply-adds one case's oracle may spend (the suite runs unoptimized).
const CASE_BUDGET: usize = 8_000_000;

/// One grid case: every `(c_in, c_out, kernel)` once, the map and batch
/// cycling through their lists, shrunk to the budget. Every other case is
/// a valid convolution (pad 0, on a map that leaves a pooled output), the
/// rest same ones (`pad = kernel / 2`).
#[derive(Debug, Clone, Copy)]
struct Case {
    c_in: usize,
    c_out: usize,
    kernel: usize,
    pad: usize,
    map: (usize, usize),
    batch: usize,
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for (i, (&c_in, (&c_out, &kernel))) in C_IN
        .iter()
        .flat_map(|c| {
            C_OUT
                .iter()
                .flat_map(move |o| KERNELS.iter().map(move |k| (c, (o, k))))
        })
        .enumerate()
    {
        let pad = if i % 2 == 1 { 0 } else { kernel / 2 };
        // A valid convolution's output must still pool to at least 1×1.
        let fits = |map: (usize, usize)| pad > 0 || map.0.min(map.1) > kernel;
        let mut map = MAPS[i % MAPS.len()];
        if !fits(map) {
            map = MAPS[1];
        }
        let mut batch = BATCHES[i % BATCHES.len()];
        let cost = |map: (usize, usize), batch: usize| {
            batch * c_out * c_in * kernel * kernel * map.0 * map.1
        };
        if cost(map, batch) > CASE_BUDGET && fits(MAPS[0]) {
            map = MAPS[0];
        }
        while batch > 1 && cost(map, batch) > CASE_BUDGET {
            batch = BATCHES[BATCHES.iter().position(|&b| b == batch).unwrap() - 1];
        }
        out.push(Case {
            c_in,
            c_out,
            kernel,
            pad,
            map,
            batch,
        });
    }
    out
}

/// Inputs for a case: the image, the weights, a bias whose negative
/// entries leave whole windows non-positive, and gradients w.r.t. the full
/// and the pooled output.
struct Data {
    x: Tensor,
    w: Tensor,
    b: Tensor,
    dense: Tensor,
    go: Tensor,
}

impl Case {
    fn pad(&self) -> usize {
        self.pad
    }

    /// Output map `(oh, ow)`.
    fn out(&self) -> (usize, usize) {
        let out = |n: usize| n + 2 * self.pad - self.kernel + 1;
        (out(self.map.0), out(self.map.1))
    }

    fn data(&self, seed: u64) -> Data {
        let mut rng = SeededRng::new(seed);
        let (h, w) = self.map;
        let (oh, ow) = self.out();
        let x = Tensor::randn([self.batch, self.c_in, h, w], 0.0, 1.0, &mut rng);
        let std = 1.0 / ((self.c_in * self.kernel * self.kernel) as f32).sqrt();
        let wt = Tensor::randn(
            [self.c_out, self.c_in, self.kernel, self.kernel],
            0.0,
            std,
            &mut rng,
        );
        let b = Tensor::randn([self.c_out], -0.2, 0.5, &mut rng);
        let dense = Tensor::randn([self.batch, self.c_out, oh, ow], 0.0, 1.0, &mut rng);
        let go = Tensor::randn([self.batch, self.c_out, oh / 2, ow / 2], 0.0, 1.0, &mut rng);
        Data {
            x,
            w: wt,
            b,
            dense,
            go,
        }
    }

    fn name(&self) -> String {
        format!(
            "c_in={} c_out={} k={} pad={} map={:?} batch={}",
            self.c_in, self.c_out, self.kernel, self.pad, self.map, self.batch
        )
    }
}

/// One sample's im2col columns `[c·k·k, oh·ow]`, zero in the padding.
fn im2col(x: &[f32], c: Case) -> Vec<f32> {
    let (h, w) = c.map;
    let (oh, ow) = c.out();
    let (k, pad) = (c.kernel, c.pad());
    let mut cols = vec![0.0f32; c.c_in * k * k * oh * ow];
    for ci in 0..c.c_in {
        for ki in 0..k {
            for kj in 0..k {
                let row = &mut cols[((ci * k + ki) * k + kj) * oh * ow..][..oh * ow];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (iy, ix) = ((oy + ki).wrapping_sub(pad), (ox + kj).wrapping_sub(pad));
                        if iy < h && ix < w {
                            row[oy * ow + ox] = x[(ci * h + iy) * w + ix];
                        }
                    }
                }
            }
        }
    }
    cols
}

/// The packed forward's pre-activation, spelled out: one `mul_add` chain
/// per element over the window ascending from `+0.0` (padding included),
/// then the bias.
fn forward_oracle(c: Case, d: &Data) -> Tensor {
    let (oh, ow) = c.out();
    let (os, kk) = (oh * ow, c.c_in * c.kernel * c.kernel);
    let mut out = Vec::with_capacity(c.batch * c.c_out * os);
    for xs in d.x.data().chunks(d.x.numel() / c.batch) {
        let cols = im2col(xs, c);
        for (wrow, &bias) in d.w.data().chunks(kk).zip(d.b.data()) {
            for j in 0..os {
                let chain = (0..kk).fold(0.0f32, |acc, p| wrow[p].mul_add(cols[p * os + j], acc));
                out.push(chain + bias);
            }
        }
    }
    Tensor::from_vec([c.batch, c.c_out, oh, ow], out).unwrap()
}

fn relu(t: &Tensor) -> Tensor {
    let v = t
        .data()
        .iter()
        .map(|&y| if y > 0.0 { y } else { 0.0 })
        .collect();
    Tensor::from_vec(t.dims().to_vec(), v).unwrap()
}

/// The unfused backward route from `gy`, the gradient w.r.t. the
/// convolution output: per sample `gw += gy·colsᵀ` and `gcols = Wᵀ·gy`
/// through `gemm_ep`, the bias row sums and an element-at-a-time col2im;
/// weight and bias gradients summed in sample order.
fn backward_oracle(c: Case, d: &Data, gy: &Tensor) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let (h, w) = c.map;
    let (oh, ow) = c.out();
    let (os, k, pad) = (oh * ow, c.kernel, c.pad());
    let kk = c.c_in * k * k;
    let sample_in = c.c_in * h * w;
    let (mut gx, mut gw, mut gb) = (Vec::new(), vec![0.0f32; c.c_out * kk], vec![0.0; c.c_out]);
    for (xs, go) in
        d.x.data()
            .chunks(sample_in)
            .zip(gy.data().chunks(c.c_out * os))
    {
        let cols = im2col(xs, c);
        let mut sgw = vec![0.0f32; c.c_out * kk];
        let ep = Epilogue::Accumulate;
        gemm_ep(
            go,
            Trans::No,
            &cols,
            Trans::Yes,
            &mut sgw,
            c.c_out,
            os,
            kk,
            ep,
        );
        let mut gcols = vec![0.0f32; kk * os];
        let (wt, ep) = (d.w.data(), Epilogue::Store);
        gemm_ep(
            wt,
            Trans::Yes,
            go,
            Trans::No,
            &mut gcols,
            kk,
            c.c_out,
            os,
            ep,
        );
        let mut sgx = vec![0.0f32; sample_in];
        for ci in 0..c.c_in {
            for ki in 0..k {
                for kj in 0..k {
                    let src = &gcols[((ci * k + ki) * k + kj) * os..][..os];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let (iy, ix) =
                                ((oy + ki).wrapping_sub(pad), (ox + kj).wrapping_sub(pad));
                            if iy < h && ix < w {
                                sgx[(ci * h + iy) * w + ix] += src[oy * ow + ox];
                            }
                        }
                    }
                }
            }
        }
        gx.extend(sgx);
        for (d, s) in gw.iter_mut().zip(&sgw) {
            *d += s;
        }
        for (d, row) in gb.iter_mut().zip(go.chunks(os)) {
            *d += row.iter().sum::<f32>();
        }
    }
    (gx, gw, gb)
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: size");
    for (e, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {e}: {g} vs {w}");
    }
}

/// Argmax equality through the only public view of it: a gradient whose
/// every element is distinct routes to the winners.
fn assert_same_argmax(got: &MaxIndices, want: &MaxIndices, pooled: &Tensor, what: &str) {
    let code: Vec<f32> = (1..=pooled.numel()).map(|i| i as f32).collect();
    let code = Tensor::from_vec(pooled.dims().to_vec(), code).unwrap();
    let got = max_pool2d_backward(&code, got);
    let want = max_pool2d_backward(&code, want);
    assert_bits(got.data(), want.data(), &format!("{what}: argmax"));
}

fn check_grads(got: &Conv2dGrads, want: &(Vec<f32>, Vec<f32>, Vec<f32>), what: &str) {
    if let Some(gx) = &got.input {
        assert_bits(gx.data(), &want.0, &format!("{what}: input grad"));
    }
    assert_bits(got.weight.data(), &want.1, &format!("{what}: weight grad"));
    assert_bits(got.bias.data(), &want.2, &format!("{what}: bias grad"));
}

/// Runs `f` on the pool, or forced sequential.
fn on<R>(sequential: bool, f: impl FnOnce() -> R) -> R {
    if sequential {
        rayon::force_sequential(f)
    } else {
        f()
    }
}

/// Narrow valid maps, as a ring's side strips: `ow + k − 1` columns wide
/// for outputs 1, 2 and 3 wide. The direct route takes a map when `2·ow >
/// w`, here a 3×3 kernel's 3-wide output; the 1- and 2-wide ones and every
/// 5×5 and 7×7 one stay packed. An odd height pools with a dropped last row.
fn narrow_cases() -> impl Iterator<Item = Case> {
    [3, 5, 7].into_iter().flat_map(|kernel| {
        [1, 2, 3].into_iter().flat_map(move |ow| {
            [1, 2, 64].into_iter().map(move |batch| Case {
                c_in: 4,
                c_out: 12,
                kernel,
                pad: 0,
                map: (9 + kernel - 1, ow + kernel - 1),
                batch,
            })
        })
    })
}

#[test]
fn forward_matches_the_packed_arithmetic_bitwise() {
    // More threads than the small batches: their tiles are shared out.
    rayon::ensure_threads(4);
    for (i, c) in cases().into_iter().chain(narrow_cases()).enumerate() {
        let d = c.data(i as u64);
        let pad = c.pad();
        let pre = forward_oracle(c, &d);
        let act = relu(&pre);
        for sequential in [false, true] {
            let what = |f: &str| format!("{} {f} sequential={sequential}", c.name());
            let got = on(sequential, || conv2d(&d.x, &d.w, &d.b, 1, pad));
            assert_bits(got.data(), pre.data(), &what("conv2d"));
            let got = on(sequential, || conv2d_relu(&d.x, &d.w, &d.b, 1, pad));
            assert_bits(got.data(), act.data(), &what("conv2d_relu"));
            // A 1-wide output has no pooled column.
            if c.out().1 < 2 {
                continue;
            }
            let (pooled, want_ix) = max_pool2d(&act, 2, 2);
            let got = on(sequential, || conv2d_relu_pool(&d.x, &d.w, &d.b, 1, pad));
            assert_eq!(got.dims(), pooled.dims(), "{}", what("pooled dims"));
            assert_bits(got.data(), pooled.data(), &what("conv2d_relu_pool"));
            let (got, ix) = on(sequential, || {
                conv2d_relu_pool_tracked(&d.x, &d.w, &d.b, 1, pad)
            });
            assert_bits(got.data(), pooled.data(), &what("conv2d_relu_pool_tracked"));
            assert_same_argmax(&ix, &want_ix, &pooled, &what("conv2d_relu_pool_tracked"));
        }
    }
}

#[test]
fn backward_matches_the_unfused_route_bitwise() {
    rayon::ensure_threads(4);
    for (i, c) in cases().into_iter().enumerate() {
        let d = c.data(1000 + i as u64);
        let pad = c.pad();
        let act = relu(&forward_oracle(c, &d));
        let (pooled, ix) = max_pool2d(&act, 2, 2);
        let mut masked = max_pool2d_backward(&d.go, &ix);
        for (g, &a) in masked.data_mut().iter_mut().zip(act.data()) {
            *g *= f32::from(a > 0.0);
        }
        let want_dense = backward_oracle(c, &d, &d.dense);
        let want_pooled = backward_oracle(c, &d, &masked);
        // The forward the backward is fed from is the routed one.
        let (y, saved) = conv2d_relu_pool_tracked(&d.x, &d.w, &d.b, 1, pad);
        assert_bits(y.data(), pooled.data(), &format!("{} forward", c.name()));
        for sequential in [false, true] {
            let what = |f: &str| format!("{} {f} sequential={sequential}", c.name());
            let got = on(sequential, || conv2d_backward(&d.x, &d.w, &d.dense, 1, pad));
            assert!(got.input.is_some());
            check_grads(&got, &want_dense, &what("conv2d_backward"));
            for input_grad in [true, false] {
                let got = on(sequential, || {
                    conv2d_relu_pool_backward(&d.x, &d.w, &y, &saved, &d.go, 1, pad, input_grad)
                });
                assert_eq!(got.input.is_some(), input_grad);
                check_grads(&got, &want_pooled, &what("conv2d_relu_pool_backward"));
            }
        }
    }
}
