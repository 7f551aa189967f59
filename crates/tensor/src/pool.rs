//! Max pooling and adaptive (spatial-pyramid) pooling, forward and backward.
//!
//! The SPP layer of SPP-Net is a set of parallel *adaptive* max pools: each
//! pyramid level divides the feature map into `k × k` bins regardless of the
//! input's spatial size, producing a fixed-length representation (He et al.,
//! TPAMI 2015). Adaptive bins follow the PyTorch convention:
//! `start = floor(i·H / k)`, `end = ceil((i+1)·H / k)`.
//!
//! Fixed and adaptive pools, with or without argmax bookkeeping, all run one
//! kernel (`pool_sample`); the public functions only pick the window
//! geometry and whether to record the winners for [`max_pool2d_backward`].
//! [`crate::conv::conv2d_relu_pool`] runs the same kernel on each sample's
//! activation as soon as its convolution finishes, and its backward
//! scatters each sample's pooled gradient through the ReLU mask with
//! `relu_pool2x2_backward_sample`.

use crate::conv::out_dim;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Argmax bookkeeping from [`max_pool2d`] or [`adaptive_max_pool2d`],
/// consumed by [`max_pool2d_backward`].
#[derive(Debug, Clone)]
pub struct MaxIndices {
    /// For each output element, the linear index of its source in the input.
    pub(crate) indices: Vec<usize>,
    pub(crate) input_dims: [usize; 4],
    pub(crate) output_dims: [usize; 4],
}

/// Fixed-window max pooling.
///
/// Returns the pooled tensor and the argmax indices needed for backprop.
pub fn max_pool2d(input: &Tensor, kernel: usize, stride: usize) -> (Tensor, MaxIndices) {
    tracked(input, Windows::Fixed { kernel, stride })
}

/// Adaptive max pooling to an `out × out` grid — one SPP pyramid level.
pub fn adaptive_max_pool2d(input: &Tensor, out_size: usize) -> (Tensor, MaxIndices) {
    tracked(input, Windows::Adaptive(out_size))
}

/// [`adaptive_max_pool2d`] without the argmax bookkeeping — the inference
/// path, which never backprops, skips the index buffer allocation entirely.
/// Values are bit-identical to the tracked variant.
pub fn adaptive_max_pool2d_values(input: &Tensor, out_size: usize) -> Tensor {
    window_max(input, Windows::Adaptive(out_size), None)
}

/// Backward pass of [`max_pool2d`] and [`adaptive_max_pool2d`]: routes each
/// output gradient to the input element that won the max (overlapping
/// adaptive bins may share a winner, which then sums its gradients).
pub fn max_pool2d_backward(grad_out: &Tensor, saved: &MaxIndices) -> Tensor {
    assert_eq!(
        grad_out.dims(),
        &saved.output_dims,
        "max_pool2d_backward: grad shape mismatch"
    );
    let [n, c, h, w] = saved.input_dims;
    let mut gx = vec![0.0f32; n * c * h * w];
    for (&src, &g) in saved.indices.iter().zip(grad_out.data()) {
        gx[src] += g;
    }
    Tensor::from_vec([n, c, h, w], gx).expect("pool grad size")
}

/// One sample's backward through the ReLU and 2×2/2 max pool that
/// [`crate::conv::conv2d_relu_pool_tracked`] fuses. `go`, `y` and
/// `winners` are the sample's pooled gradient, pooled output and argmax
/// (`[C, H/2, W/2]` each; `winners` as [`MaxIndices`] stores them, offset
/// by the sample's `base`); `gx` receives the `[C, H, W]` gradient of the
/// pre-activation.
///
/// Each winner's ReLU output is its pooled value, so the ReLU mask there
/// is `y > 0`; every other position receives `+0.0`, which the mask leaves
/// unchanged. Each winner gets `(0 + g)·[y > 0]`: bit for bit
/// [`max_pool2d_backward`] followed by multiplying by the 0/1 mask
/// `activation > 0`. Writes every element of `gx` (row pairs are cleared
/// as they are scattered into), so `gx` may hold stale data on entry.
pub(crate) fn relu_pool2x2_backward_sample(
    (go, y, winners): (&[f32], &[f32], &[usize]),
    base: usize,
    (c, h, w): (usize, usize, usize),
    gx: &mut [f32],
) {
    let (ph, pw) = (h / 2, w / 2);
    for (ci, plane) in gx.chunks_exact_mut(h * w).take(c).enumerate() {
        // A last odd row is in no window.
        plane[2 * ph * w..].fill(0.0);
        for (py, rows) in plane.chunks_exact_mut(2 * w).take(ph).enumerate() {
            rows.fill(0.0);
            let o = (ci * ph + py) * pw..(ci * ph + py + 1) * pw;
            // A winner's offset within its window's two rows (a winner
            // outside them would index out of bounds).
            let top = base + (ci * h + 2 * py) * w;
            for ((&g, &v), &src) in go[o.clone()].iter().zip(&y[o.clone()]).zip(&winners[o]) {
                rows[src - top] = (0.0 + g) * f32::from(v > 0.0);
            }
        }
    }
}

/// Window geometry along both spatial axes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Windows {
    /// Square `kernel` windows every `stride` elements, no padding.
    Fixed { kernel: usize, stride: usize },
    /// `bins` windows per axis covering the input exactly.
    Adaptive(usize),
}

impl Windows {
    /// Output extent for an input extent.
    pub(crate) fn out_dim(self, input: usize) -> usize {
        match self {
            Windows::Fixed { kernel, stride } => out_dim(input, kernel, stride, 0),
            Windows::Adaptive(bins) => {
                assert!(bins > 0, "adaptive pool output must be positive");
                assert!(input >= 1, "adaptive pool needs non-empty spatial dims");
                bins
            }
        }
    }

    /// Input indices read by output index `o` along an axis of `input`.
    #[inline]
    fn range(self, o: usize, input: usize) -> Range<usize> {
        match self {
            Windows::Fixed { kernel, stride } => o * stride..o * stride + kernel,
            Windows::Adaptive(bins) => {
                let (start, end) = adaptive_bin(o, input, bins);
                start..end
            }
        }
    }
}

/// Bin boundaries for adaptive pooling (PyTorch convention).
#[inline]
fn adaptive_bin(i: usize, input: usize, bins: usize) -> (usize, usize) {
    let start = i * input / bins;
    let end = ((i + 1) * input).div_ceil(bins);
    (start, end.max(start + 1).min(input))
}

/// [`window_max`] with a fresh argmax buffer, packaged for backprop.
fn tracked(input: &Tensor, windows: Windows) -> (Tensor, MaxIndices) {
    let (n, c, h, w) = input.shape().nchw();
    let mut indices = vec![0usize; n * c * windows.out_dim(h) * windows.out_dim(w)];
    let y = window_max(input, windows, Some(&mut indices));
    let output_dims = y.dims().try_into().expect("NCHW pool output");
    (
        y,
        MaxIndices {
            indices,
            input_dims: [n, c, h, w],
            output_dims,
        },
    )
}

/// Pools every sample of `input` in parallel with [`pool_sample`]. When
/// `argmax` is given, it receives each winner's linear index in `input`.
fn window_max(input: &Tensor, windows: Windows, argmax: Option<&mut [usize]>) -> Tensor {
    let (n, c, h, w) = input.shape().nchw();
    let out_dims = (windows.out_dim(h), windows.out_dim(w));
    let sample_in = c * h * w;
    let sample_out = c * out_dims.0 * out_dims.1;
    let x = |s: usize| &input.data()[s * sample_in..(s + 1) * sample_in];
    let mut out = vec![0.0f32; n * sample_out];
    match argmax {
        Some(idx) => out
            .par_chunks_mut(sample_out)
            .zip(idx.par_chunks_mut(sample_out))
            .enumerate()
            .for_each(|(s, (o, ix))| {
                pool_sample(x(s), (c, h, w), windows, out_dims, o, |olin, lin| {
                    ix[olin] = s * sample_in + lin;
                })
            }),
        None => out
            .par_chunks_mut(sample_out)
            .enumerate()
            .for_each(|(s, o)| pool_sample(x(s), (c, h, w), windows, out_dims, o, |_, _| {})),
    }
    Tensor::from_vec([n, c, out_dims.0, out_dims.1], out).expect("pool output size")
}

/// The 2×2 window max: the window's top pair `a` and bottom pair `b`,
/// scanned row-major from `-∞` with a strict `>` so ties (and NaNs) keep
/// the earlier element. Returns the max and the winner's entry of `at`,
/// the four elements' indices in scan order (0 when nothing beats `-∞`).
/// Every 2×2 pool in the crate runs this scan — the direct convolution's
/// pool runs it 16 windows at a time (`gemm::max_pool2x2_x16`) — so any two
/// of them given the same four values agree bit for bit; callers that need
/// no index pass zeros, and the index bookkeeping compiles away.
#[inline(always)]
fn max2x2(a: &[f32], b: &[f32], at: [usize; 4]) -> (f32, usize) {
    let mut best = f32::NEG_INFINITY;
    let mut best_i = 0;
    for (v, i) in [(a[0], at[0]), (a[1], at[1]), (b[0], at[2]), (b[1], at[3])] {
        if v > best {
            best = v;
            best_i = i;
        }
    }
    (best, best_i)
}

/// Where a `[C, H, W]` map sits in a flat buffer: element `(c, y, x)` is
/// at `origin + c·channel_stride + y·row_stride + x`. Describes a window
/// of a larger map (a tile of a scene-wide feature band, say) without
/// copying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapLayout {
    /// Offset of element `(0, 0, 0)`.
    pub origin: usize,
    /// Distance between channels.
    pub channel_stride: usize,
    /// Distance between rows.
    pub row_stride: usize,
}

impl MapLayout {
    /// A dense `[C, H, W]` map starting at `origin`.
    pub fn dense(origin: usize, (h, w): (usize, usize)) -> Self {
        MapLayout {
            origin,
            channel_stride: h * w,
            row_stride: w,
        }
    }

    /// The same map shifted by `(dy, dx)` elements.
    pub fn at(self, (dy, dx): (usize, usize)) -> Self {
        MapLayout {
            origin: self.origin + dy * self.row_stride + dx,
            ..self
        }
    }

    fn offset(&self, c: usize, y: usize) -> usize {
        self.origin + c * self.channel_stride + y * self.row_stride
    }
}

/// 2×2/2 max pool of a window of `src` into a window of `dst`: output
/// `(c, y, x)` for `c < C`, `y < OH`, `x < OW` is the max of input `(c,
/// 2y..2y + 2, 2x..2x + 2)`, both addressed through their [`MapLayout`].
///
/// The window may start at any origin of a larger map, so a tile can be
/// pooled at its own phase straight out of a scene-wide activation. Runs
/// the kernel [`max_pool2d`] and the fused C–P unit use, so given the same
/// four values it returns the same bits.
pub fn max_pool2x2_at(
    src: &[f32],
    from: MapLayout,
    dst: &mut [f32],
    to: MapLayout,
    (c, oh, ow): (usize, usize, usize),
) {
    for ci in 0..c {
        for oy in 0..oh {
            let top = from.offset(ci, 2 * oy);
            let r0 = &src[top..top + 2 * ow];
            let r1 = &src[top + from.row_stride..top + from.row_stride + 2 * ow];
            let o = to.offset(ci, oy);
            let pairs = r0.chunks_exact(2).zip(r1.chunks_exact(2));
            for (out, (a, b)) in dst[o..o + ow].iter_mut().zip(pairs) {
                *out = max2x2(a, b, [0; 4]).0;
            }
        }
    }
}

/// The one window-max kernel, over one `[C, H, W]` sample `x` into the
/// `[C, OH, OW]` output `o`. Each output element is the max of its window,
/// scanned row-major with a strict `>` so ties keep the first element.
/// `sink(o_index, x_index)` sees every winner; a no-op sink compiles the
/// tracking away.
pub(crate) fn pool_sample(
    x: &[f32],
    (c, h, w): (usize, usize, usize),
    windows: Windows,
    (oh, ow): (usize, usize),
    o: &mut [f32],
    mut sink: impl FnMut(usize, usize),
) {
    for ci in 0..c {
        for oy in 0..oh {
            let rows = windows.range(oy, h);
            let olin = (ci * oh + oy) * ow;
            let o_row = &mut o[olin..olin + ow];
            if let Windows::Fixed {
                kernel: 2,
                stride: 2,
            } = windows
            {
                // The C–P blocks' 2×2/2 pool: walk the window's two input
                // rows pairwise, with no per-window range arithmetic.
                let top = (ci * h + rows.start) * w;
                let (r0, r1) = x[top..top + 2 * w].split_at(w);
                let pairs = r0.chunks_exact(2).zip(r1.chunks_exact(2));
                for (ox, (out, (a, b))) in o_row.iter_mut().zip(pairs).enumerate() {
                    let j = top + 2 * ox;
                    let (best, at) = max2x2(a, b, [j, j + 1, j + w, j + w + 1]);
                    *out = best;
                    sink(olin + ox, at);
                }
            } else {
                for (ox, out) in o_row.iter_mut().enumerate() {
                    let cols = windows.range(ox, w);
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for iy in rows.clone() {
                        for ixp in cols.clone() {
                            let lin = (ci * h + iy) * w + ixp;
                            if x[lin] > best {
                                best = x[lin];
                                best_i = lin;
                            }
                        }
                    }
                    *out = best;
                    sink(olin + ox, best_i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::numeric_grad;
    use crate::rng::SeededRng;

    #[test]
    fn max_pool_2x2_known() {
        let x = Tensor::from_vec(
            [1, 1, 4, 4],
            vec![
                1., 2., 5., 3., //
                4., 0., 1., 2., //
                7., 8., 0., 1., //
                2., 3., 4., 9.,
            ],
        )
        .unwrap();
        let (y, _) = max_pool2d(&x, 2, 2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 5., 8., 9.]);
    }

    #[test]
    fn max_pool_backward_routes_to_argmax() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 4., 2., 3.]).unwrap();
        let (y, ix) = max_pool2d(&x, 2, 2);
        assert_eq!(y.data(), &[4.0]);
        let go = Tensor::from_vec([1, 1, 1, 1], vec![2.5]).unwrap();
        let gx = max_pool2d_backward(&go, &ix);
        assert_eq!(gx.data(), &[0., 2.5, 0., 0.]);
    }

    #[test]
    fn max_pool_backward_matches_numeric() {
        let mut rng = SeededRng::new(4);
        let x = Tensor::randn([2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let (_, ix) = max_pool2d(&x, 2, 2);
        let go = Tensor::ones([2, 2, 2, 2]);
        let gx = max_pool2d_backward(&go, &ix);
        let num = numeric_grad(&x, 1e-3, |xp| max_pool2d(xp, 2, 2).0.sum());
        assert!(gx.max_abs_diff(&num) < 1e-2);
    }

    #[test]
    fn values_variant_matches_tracked_bitwise() {
        let mut rng = SeededRng::new(12);
        let x = Tensor::randn([2, 3, 9, 11], 0.0, 1.0, &mut rng);
        let (z, _) = adaptive_max_pool2d(&x, 4);
        let zv = adaptive_max_pool2d_values(&x, 4);
        assert_eq!(z.dims(), zv.dims());
        for (a, b) in z.data().iter().zip(zv.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pool_2x2_matches_row_major_window_scan() {
        // Ties, signed zeros, NaN and -inf, on odd sizes (floor pooling):
        // values and winners must be those of a plain row-major scan from
        // -inf with a strict `>`, as every other window shape computes.
        let specials = [0.0, -0.0, 1.0, 1.0, f32::NAN, f32::NEG_INFINITY, -2.0];
        let mut rng = SeededRng::new(14);
        let (n, c, h, w) = (2, 3, 9, 11);
        let data = (0..n * c * h * w)
            .map(|_| specials[rng.next_u64() as usize % specials.len()])
            .collect();
        let x = Tensor::from_vec([n, c, h, w], data).unwrap();
        let (y, ix) = max_pool2d(&x, 2, 2);
        assert_eq!(y.dims(), &[n, c, 4, 5]);
        let mut o = 0;
        for s in 0..n {
            for ci in 0..c {
                let base = (s * c + ci) * h * w;
                for oy in 0..4 {
                    for ox in 0..5 {
                        let (mut best, mut best_i) = (f32::NEG_INFINITY, s * c * h * w);
                        for (iy, jx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            let lin = base + (2 * oy + iy) * w + 2 * ox + jx;
                            if x.data()[lin] > best {
                                (best, best_i) = (x.data()[lin], lin);
                            }
                        }
                        assert_eq!(y.data()[o].to_bits(), best.to_bits(), "value {o}");
                        assert_eq!(ix.indices[o], best_i, "winner {o}");
                        o += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn pool_2x2_at_any_origin_matches_max_pool2d_of_the_window() {
        // A 6×8 window at an odd origin of a [3, 13, 15] map, written into
        // the middle of a larger destination, must equal max_pool2d of the
        // window copied out on its own — specials included.
        let specials = [0.0, -0.0, 1.0, 1.0, f32::NAN, f32::NEG_INFINITY, -2.0];
        let mut rng = SeededRng::new(15);
        let (c, h, w) = (3, 13, 15);
        let map: Vec<f32> = (0..c * h * w)
            .map(|_| specials[rng.next_u64() as usize % specials.len()])
            .collect();
        let (y0, x0, wh, ww) = (3, 5, 6, 8);
        let window: Vec<f32> = (0..c)
            .flat_map(|ci| (0..wh).map(move |y| (ci, y)))
            .flat_map(|(ci, y)| {
                let row = (ci * h + y0 + y) * w + x0;
                map[row..row + ww].to_vec()
            })
            .collect();
        let window = Tensor::from_vec([1, c, wh, ww], window).unwrap();
        let (want, _) = max_pool2d(&window, 2, 2);
        let (oh, ow) = (wh / 2, ww / 2);
        let mut dst = vec![7.0f32; c * (oh + 2) * (ow + 3)];
        let to = MapLayout::dense(0, (oh + 2, ow + 3)).at((1, 2));
        let from = MapLayout::dense(0, (h, w)).at((y0, x0));
        max_pool2x2_at(&map, from, &mut dst, to, (c, oh, ow));
        for ci in 0..c {
            for y in 0..oh + 2 {
                for x in 0..ow + 3 {
                    let got = dst[(ci * (oh + 2) + y) * (ow + 3) + x];
                    let inside = (1..oh + 1).contains(&y) && (2..ow + 2).contains(&x);
                    let want = if inside {
                        want.data()[(ci * oh + y - 1) * ow + x - 2]
                    } else {
                        7.0
                    };
                    assert_eq!(got.to_bits(), want.to_bits(), "({ci}, {y}, {x})");
                }
            }
        }
    }

    #[test]
    fn relu_pool_backward_is_pool_backward_then_relu_mask() {
        // A ReLU output with windows that are all +0.0 (pooled value 0, so
        // the mask zeroes the gradient, leaving -0.0 where it is negative)
        // and odd sizes; gradients of both signs. The per-sample kernel
        // writes into stale (NaN) buffers and must overwrite every element.
        let mut rng = SeededRng::new(15);
        let (n, c, h, w) = (2, 3, 7, 9);
        let pre = Tensor::randn([n, c, h, w], -0.3, 1.0, &mut rng);
        let act = pre.map(|v| if v > 0.0 { v } else { 0.0 });
        let (y, ix) = max_pool2d(&act, 2, 2);
        assert!(y.data().contains(&0.0), "no all-non-positive window");
        // Some gradients are -0.0, which `0 + g` turns into +0.0.
        let mut go = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut rng);
        go.data_mut().iter_mut().step_by(5).for_each(|g| *g = -0.0);
        let mut want = max_pool2d_backward(&go, &ix);
        for (g, &a) in want.data_mut().iter_mut().zip(act.data()) {
            *g *= f32::from(a > 0.0);
        }
        let (sample_in, sample_out) = (c * h * w, y.numel() / n);
        let mut got = vec![f32::NAN; n * sample_in];
        for (s, gx) in got.chunks_mut(sample_in).enumerate() {
            let o = s * sample_out..(s + 1) * sample_out;
            let pooled = (&go.data()[o.clone()], &y.data()[o.clone()], &ix.indices[o]);
            relu_pool2x2_backward_sample(pooled, s * sample_in, (c, h, w), gx);
        }
        for (e, (g, w)) in got.iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "element {e}: {g} vs {w}");
        }
        assert!(got.iter().any(|g| g.to_bits() == (-0.0f32).to_bits()));
    }

    #[test]
    fn adaptive_bins_cover_input_exactly() {
        for input in 1..=20 {
            for bins in 1..=input {
                let mut covered = vec![false; input];
                let mut prev_end = 0;
                for i in 0..bins {
                    let (s, e) = adaptive_bin(i, input, bins);
                    assert!(s <= prev_end, "gap before bin {i}");
                    assert!(e > s);
                    prev_end = e;
                    covered[s..e].iter_mut().for_each(|c| *c = true);
                }
                assert_eq!(prev_end, input, "bins do not reach end");
                assert!(covered.iter().all(|&c| c), "uncovered element");
            }
        }
    }

    #[test]
    fn adaptive_max_1x1_is_global_max() {
        let mut rng = SeededRng::new(5);
        let x = Tensor::randn([2, 3, 7, 9], 0.0, 1.0, &mut rng);
        let (y, _) = adaptive_max_pool2d(&x, 1);
        assert_eq!(y.dims(), &[2, 3, 1, 1]);
        for s in 0..2 {
            for c in 0..3 {
                let mut best = f32::NEG_INFINITY;
                for i in 0..7 * 9 {
                    best = best.max(x.data()[(s * 3 + c) * 63 + i]);
                }
                assert_eq!(y.at(&[s, c, 0, 0]), best);
            }
        }
    }

    #[test]
    fn adaptive_max_identity_when_bins_equal_size() {
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let (y, _) = adaptive_max_pool2d(&x, 2);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn adaptive_max_handles_output_larger_than_input() {
        // SPP on tiny maps: 1x1 input pooled to 2x2 replicates the value.
        let x = Tensor::from_vec([1, 1, 1, 1], vec![3.0]).unwrap();
        let (y, _) = adaptive_max_pool2d(&x, 2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[3., 3., 3., 3.]);
    }

    #[test]
    fn adaptive_max_backward_matches_numeric() {
        let mut rng = SeededRng::new(6);
        let x = Tensor::randn([2, 2, 5, 5], 0.0, 1.0, &mut rng);
        let (_, ix) = adaptive_max_pool2d(&x, 3);
        let go = Tensor::ones([2, 2, 3, 3]);
        let gx = max_pool2d_backward(&go, &ix);
        let num = numeric_grad(&x, 1e-3, |xp| adaptive_max_pool2d(xp, 3).0.sum());
        assert!(gx.max_abs_diff(&num) < 1e-2);
    }

    #[test]
    fn adaptive_windows_that_tile_exactly_match_fixed_windows() {
        // 8 → 4 bins is the 2×2/2 fixed pool: same values, same winners.
        let mut rng = SeededRng::new(13);
        let x = Tensor::randn([2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let (fixed, fixed_ix) = max_pool2d(&x, 2, 2);
        let (adaptive, adaptive_ix) = adaptive_max_pool2d(&x, 4);
        assert_eq!(fixed.data(), adaptive.data());
        assert_eq!(fixed_ix.indices, adaptive_ix.indices);
    }

    #[test]
    fn spp_vector_length_is_input_size_independent() {
        // The defining SPP property: pyramid {4,2,1} gives 21·C features for
        // any spatial input size.
        let mut rng = SeededRng::new(11);
        for &(h, w) in &[(8usize, 8usize), (13, 9), (25, 25)] {
            let x = Tensor::randn([1, 2, h, w], 0.0, 1.0, &mut rng);
            let mut total = 0;
            for &level in &[4usize, 2, 1] {
                let (y, _) = adaptive_max_pool2d(&x, level);
                total += y.numel();
            }
            assert_eq!(total, 2 * (16 + 4 + 1));
        }
    }
}
