//! 2-D convolution as a GEMM over im2col columns, with the full backward
//! pass.
//!
//! Layout conventions:
//! * input  `[N, C_in, H, W]`
//! * weight `[C_out, C_in, KH, KW]`
//! * bias   `[C_out]`
//! * output `[N, C_out, OH, OW]` with `OH = (H + 2·pad − KH)/stride + 1`
//!
//! The batch dimension is embarrassingly parallel; forward and backward both
//! fan out over samples with rayon and reduce weight gradients with in-order
//! combination (no shared mutable state). A batch smaller than the pool
//! (batch-1 queries) instead splits each sample's output rows between
//! threads.
//!
//! Hot-path memory discipline: the weight matrix is packed once per call
//! ([`PackedLhs`]) and shared read-only by every sample. The forward pass
//! never materializes the im2col matrix: it walks each sample's output
//! columns in slabs of about [`SLAB_BYTES`], packs each slab straight from
//! the input image into the GEMM's column-panel layout (an L2-resident
//! [`crate::scratch`] buffer whose every lane is overwritten, so it needs
//! no memset), and sweeps the packed weights over it. The bias (+ optional
//! ReLU) is applied by the GEMM epilogue as tiles are written back — there
//! is no intermediate product buffer and no second sweep over the output.
//! The backward pass builds per-sample im2col and gradient columns in the
//! worker's scratch pool. In steady state neither direction allocates per
//! sample.

use crate::gemm::{gemm_bt_acc, gemm_packed, gemm_slab, select_nr, Epilogue, PackedLhs, Trans};
use crate::gemm::{NR_MAX, PAR_WORK};
use crate::scratch;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Target size of one packed forward slab (`k` rows × its columns of the
/// im2col matrix): small enough to stay in L2 next to the packed weights
/// while they sweep it.
const SLAB_BYTES: usize = 1 << 20;

/// Output spatial size of a conv/pool window sweep.
///
/// Panics if the window does not fit (which indicates a mis-sized model).
pub fn out_dim(input: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0, "stride must be positive");
    assert!(
        input + 2 * pad >= kernel,
        "window of size {kernel} does not fit input {input} with pad {pad}"
    );
    (input + 2 * pad - kernel) / stride + 1
}

/// Gradients produced by [`conv2d_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// `d loss / d input`, same shape as the forward input.
    pub input: Tensor,
    /// `d loss / d weight`, same shape as the weight.
    pub weight: Tensor,
    /// `d loss / d bias`, same shape as the bias.
    pub bias: Tensor,
}

/// One sample's convolution geometry: input `[c, h, w]`, a `kh×kw` window
/// at `stride` with `pad`, output `oh×ow`. Row `p = (ci·kh + ki)·kw + kj`,
/// column `oy·ow + ox` of the im2col matrix reads input pixel
/// `(ci, oy·stride + ki − pad, ox·stride + kj − pad)`, or 0 off the image.
#[derive(Debug, Clone, Copy)]
struct Geom {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

impl Geom {
    /// Input row `oy·stride + ki − pad`, or `None` in the padding.
    fn in_row(&self, oy: usize, ki: usize) -> Option<usize> {
        (oy * self.stride + ki)
            .checked_sub(self.pad)
            .filter(|&iy| iy < self.h)
    }

    /// The output columns `ox` whose tap `kj` lands on the image.
    fn in_cols(&self, kj: usize) -> Range<usize> {
        let s = self.stride;
        let lo = self.pad.saturating_sub(kj).div_ceil(s);
        let hi = (self.w + self.pad).saturating_sub(kj).div_ceil(s);
        lo.min(self.ow)..hi.min(self.ow)
    }
}

/// Unpacks one sample `[C, H, W]` into im2col columns
/// `[C·KH·KW, OH·OW]` (row-major, column index = oh·OW + ow).
///
/// `cols` must be zeroed (a fresh [`scratch::take`] buffer is): padding
/// positions are skipped, not written.
fn im2col_into(x: &[f32], g: &Geom, cols: &mut [f32]) {
    let ospatial = g.oh * g.ow;
    debug_assert_eq!(cols.len(), g.c * g.kh * g.kw * ospatial);
    let mut rows = cols.chunks_exact_mut(ospatial);
    for ci in 0..g.c {
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let dst = rows.next().expect("one im2col row per tap");
                let oxs = g.in_cols(kj);
                for oy in 0..g.oh {
                    let Some(iy) = g.in_row(oy, ki) else {
                        continue; // zero padding
                    };
                    let src_row = &x[(ci * g.h + iy) * g.w..(ci * g.h + iy + 1) * g.w];
                    for ox in oxs.clone() {
                        dst[oy * g.ow + ox] = src_row[ox * g.stride + kj - g.pad];
                    }
                }
            }
        }
    }
}

/// Scatters im2col columns back into a `[C, H, W]` gradient (the adjoint of
/// [`im2col_into`]); overlapping windows accumulate into `x`, which must be
/// zeroed on entry.
fn col2im_into(cols: &[f32], g: &Geom, x: &mut [f32]) {
    let ospatial = g.oh * g.ow;
    debug_assert_eq!(x.len(), g.c * g.h * g.w);
    let mut rows = cols.chunks_exact(ospatial);
    for ci in 0..g.c {
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let src = rows.next().expect("one im2col row per tap");
                let oxs = g.in_cols(kj);
                for oy in 0..g.oh {
                    let Some(iy) = g.in_row(oy, ki) else {
                        continue;
                    };
                    let dst_row = &mut x[(ci * g.h + iy) * g.w..(ci * g.h + iy + 1) * g.w];
                    for ox in oxs.clone() {
                        dst_row[ox * g.stride + kj - g.pad] += src[oy * g.ow + ox];
                    }
                }
            }
        }
    }
}

/// Copies one sample `[C, H, W]` into `xp` as `[C, H + 2·pad, W + 2·pad]`
/// with a zero border, so every tap of every output pixel is in bounds.
/// Writes every element of `xp`.
fn pad_into(x: &[f32], g: &Geom, xp: &mut [f32]) {
    let wp = g.w + 2 * g.pad;
    for (src, dst) in x
        .chunks_exact(g.h * g.w)
        .zip(xp.chunks_exact_mut((g.h + 2 * g.pad) * wp))
    {
        let (top, rest) = dst.split_at_mut(g.pad * wp);
        let (body, bottom) = rest.split_at_mut(g.h * wp);
        top.fill(0.0);
        bottom.fill(0.0);
        for (s, d) in src.chunks_exact(g.w).zip(body.chunks_exact_mut(wp)) {
            d[..g.pad].fill(0.0);
            d[g.pad..g.pad + g.w].copy_from_slice(s);
            d[g.pad + g.w..].fill(0.0);
        }
    }
}

/// Packs one column-panel of a sample's im2col matrix — output columns
/// `j0..j0 + width` — straight from the zero-padded image `xp` (see
/// [`pad_into`]) into `panel`, in the GEMM's packed-`B` layout: `nr =
/// panel.len() / k` lanes per `k`-step, so element `(p, jj)` lands at
/// `p·nr + jj`.
///
/// Every lane is written — those past a ragged last panel's `width` with
/// 0 — so `panel` may hold stale data on entry.
fn pack_panel(xp: &[f32], g: &Geom, j0: usize, width: usize, panel: &mut [f32]) {
    let (hp, wp, s) = (g.h + 2 * g.pad, g.w + 2 * g.pad, g.stride);
    let nr = panel.len() / (g.c * g.kh * g.kw);
    // The panel's columns split into runs along output rows: a run fills
    // lanes `lane..lane + len` from `xp[tap + off + t·stride]`, where `tap`
    // is the offset of window position `(ci, ki, kj)`.
    let mut runs = [(0usize, 0usize, 0usize); NR_MAX];
    let mut nruns = 0;
    let (mut oy, mut ox, mut lane) = (j0 / g.ow, j0 % g.ow, 0);
    while lane < width {
        let len = (g.ow - ox).min(width - lane);
        runs[nruns] = (lane, len, oy * s * wp + ox * s);
        nruns += 1;
        lane += len;
        oy += 1;
        ox = 0;
    }
    let runs = &runs[..nruns];
    let mut lanes = panel.chunks_exact_mut(nr);
    for ci in 0..g.c {
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let dst = lanes.next().expect("one lane row per k-step");
                let tap = (ci * hp + ki) * wp + kj;
                for &(lane, len, off) in runs {
                    let run = &mut dst[lane..lane + len];
                    let src = &xp[tap + off..];
                    if s == 1 {
                        run.copy_from_slice(&src[..len]);
                    } else {
                        for (d, v) in run.iter_mut().zip(src.iter().step_by(s)) {
                            *d = *v;
                        }
                    }
                }
                dst[width..].fill(0.0);
            }
        }
    }
}

fn conv2d_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    relu: bool,
) -> Tensor {
    let (n, c_in, h, w) = input.shape().nchw();
    let (c_out, wc_in, kh, kw) = weight.shape().nchw();
    assert_eq!(
        c_in, wc_in,
        "conv2d: input channels {c_in} != weight channels {wc_in}"
    );
    assert_eq!(bias.numel(), c_out, "conv2d: bias size != C_out");
    let oh = out_dim(h, kh, stride, pad);
    let ow = out_dim(w, kw, stride, pad);
    let g = Geom {
        c: c_in,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        oh,
        ow,
    };
    let k = c_in * kh * kw;
    let ospatial = oh * ow;
    let sample_in = c_in * h * w;
    let sample_out = c_out * ospatial;
    let _span = dcd_obs::span("conv2d", dcd_obs::Category::Conv);
    dcd_obs::counter!("conv.flops").add(2 * (n * c_out * k * ospatial) as u64);

    // Pack the weight matrix once; every sample's slabs read it in place.
    let pw = PackedLhs::pack(weight.data(), Trans::No, c_out, k);
    let ep = if relu {
        Epilogue::BiasRowsRelu(bias.data())
    } else {
        Epilogue::BiasRows(bias.data())
    };
    // Slab width: a multiple of the column-panel width `nr`, about
    // SLAB_BYTES of packed columns, no wider than the (padded) output.
    let nr = select_nr(ospatial);
    let nc = (SLAB_BYTES / (4 * k.max(1)) / nr * nr)
        .max(nr)
        .min(ospatial.next_multiple_of(nr));
    // Fewer samples than threads: split each sample's slab packing by
    // column-panel and its sweep into row blocks (multiples of the weight
    // panel height) so the whole pool works on it.
    let threads = rayon::current_num_threads();
    let split = n < threads && c_out * k * ospatial >= PAR_WORK;
    let mc = if split {
        c_out
            .div_ceil(threads.div_ceil(n))
            .next_multiple_of(pw.mr())
    } else {
        c_out
    };

    let mut out = vec![0.0f32; n * sample_out];
    out.par_chunks_mut(sample_out)
        .zip(input.data().par_chunks(sample_in))
        .for_each(|(o, x)| {
            let mut xp = scratch::take_overwrite(c_in * (h + 2 * pad) * (w + 2 * pad));
            pad_into(x, &g, &mut xp);
            let mut slab = scratch::take_overwrite(nc * k);
            for j0 in (0..ospatial).step_by(nc) {
                let cols = j0..(j0 + nc).min(ospatial);
                let panels = &mut slab[..cols.len().div_ceil(nr) * nr * k];
                let pack = |(pj, panel): (usize, &mut [f32])| {
                    let c0 = cols.start + pj * nr;
                    pack_panel(&xp, &g, c0, nr.min(cols.end - c0), panel);
                };
                if split {
                    panels.par_chunks_mut(nr * k).enumerate().for_each(pack);
                } else {
                    panels.chunks_mut(nr * k).enumerate().for_each(pack);
                }
                let sweep = |(blk, c_blk): (usize, &mut [f32])| {
                    let rows = blk * mc..(blk * mc + mc).min(c_out);
                    gemm_slab(&pw, &slab, nr, c_blk, rows, cols.clone(), ospatial, ep);
                };
                if split {
                    o.par_chunks_mut(mc * ospatial).enumerate().for_each(sweep);
                } else {
                    sweep((0, o));
                }
            }
            scratch::release(slab);
            scratch::release(xp);
        });
    Tensor::from_vec([n, c_out, oh, ow], out).expect("conv2d output size")
}

/// Convolution forward pass (bias fused into the GEMM write-back).
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, stride: usize, pad: usize) -> Tensor {
    conv2d_fused(input, weight, bias, stride, pad, false)
}

/// [`conv2d`] with a fused `max(0, ·)` — the inference fast path for
/// `Conv → ReLU`, producing the activation without a separate mask pass.
///
/// Note the fused clamp maps negative pre-activations to `+0.0` where the
/// mask-based training path yields `-0.0`; downstream arithmetic and
/// comparisons are unaffected.
pub fn conv2d_relu(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    conv2d_fused(input, weight, bias, stride, pad, true)
}

/// Convolution backward pass: gradients w.r.t. input, weight and bias.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> Conv2dGrads {
    let (n, c_in, h, w) = input.shape().nchw();
    let (c_out, _, kh, kw) = weight.shape().nchw();
    let (gn, gc, oh, ow) = grad_out.shape().nchw();
    assert_eq!(gn, n, "conv2d_backward: batch mismatch");
    assert_eq!(gc, c_out, "conv2d_backward: channel mismatch");
    let g = Geom {
        c: c_in,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        oh,
        ow,
    };
    let k = c_in * kh * kw;
    let ospatial = oh * ow;
    let sample_in = c_in * h * w;
    let sample_out = c_out * ospatial;
    let _span = dcd_obs::span("conv2d.backward", dcd_obs::Category::Conv);
    // Three per-sample GEMMs (grad-input, grad-weight, forward-shaped cols).
    dcd_obs::counter!("conv.flops").add(6 * (n * c_out * k * ospatial) as u64);

    // Wᵀ [k, c_out] packed once straight from the weight's [c_out, k]
    // storage — no transpose buffer — and shared by every sample's
    // grad-input GEMM.
    let pwt = PackedLhs::pack(weight.data(), Trans::Yes, k, c_out);

    struct PerSample {
        gx: Vec<f32>,
        gw: Vec<f32>,
        gb: Vec<f32>,
    }

    let results: Vec<(usize, PerSample)> = input
        .data()
        .par_chunks(sample_in)
        .zip(grad_out.data().par_chunks(sample_out))
        .enumerate()
        .map(|(i, (x, go))| {
            let mut cols = scratch::take(k * ospatial);
            im2col_into(x, &g, &mut cols);
            let mut acc = PerSample {
                gx: vec![0.0; sample_in],
                gw: vec![0.0; c_out * k],
                gb: vec![0.0; c_out],
            };
            // grad_weight += go [c_out, os] · colsᵀ — reads `cols` in its
            // [k, os] storage directly via the transposed-B kernel.
            gemm_bt_acc(go, &cols, &mut acc.gw, c_out, ospatial, k);
            // grad_bias += row sums of go
            for co in 0..c_out {
                acc.gb[co] = go[co * ospatial..(co + 1) * ospatial].iter().sum();
            }
            // grad_cols = Wᵀ [k, c_out] · go [c_out, os]; scatter via col2im.
            let mut gcols = scratch::take(k * ospatial);
            gemm_packed(&pwt, go, Trans::No, &mut gcols, ospatial, Epilogue::Store);
            col2im_into(&gcols, &g, &mut acc.gx);
            scratch::release(gcols);
            scratch::release(cols);
            (i, acc)
        })
        .collect();

    let mut gx_all = vec![0.0f32; n * sample_in];
    let mut gw = vec![0.0f32; c_out * k];
    let mut gb = vec![0.0f32; c_out];
    for (i, acc) in results {
        gx_all[i * sample_in..(i + 1) * sample_in].copy_from_slice(&acc.gx);
        for (d, s) in gw.iter_mut().zip(acc.gw.iter()) {
            *d += s;
        }
        for (d, s) in gb.iter_mut().zip(acc.gb.iter()) {
            *d += s;
        }
    }

    Conv2dGrads {
        input: Tensor::from_vec([n, c_in, h, w], gx_all).expect("grad input size"),
        weight: Tensor::from_vec([c_out, c_in, kh, kw], gw).expect("grad weight size"),
        bias: Tensor::from_vec([c_out], gb).expect("grad bias size"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check::numeric_grad;
    use crate::rng::SeededRng;

    #[test]
    fn out_dim_formula() {
        assert_eq!(out_dim(100, 3, 1, 1), 100); // same-pad 3x3
        assert_eq!(out_dim(100, 2, 2, 0), 50); // 2x2/2 pool
        assert_eq!(out_dim(5, 5, 1, 0), 1);
        assert_eq!(out_dim(7, 3, 2, 0), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn out_dim_rejects_oversized_kernel() {
        out_dim(3, 5, 1, 0);
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel with weight 1 and zero bias is the identity.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::ones([1, 1, 1, 1]);
        let b = Tensor::zeros([1]);
        let y = conv2d(&x, &w, &b, 1, 0);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel over a 3x3 input of ones, no pad: single output = 9.
        let x = Tensor::ones([1, 1, 3, 3]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let b = Tensor::from_vec([1], vec![0.5]).unwrap();
        let y = conv2d(&x, &w, &b, 1, 0);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 9.5);
    }

    #[test]
    fn padding_zero_extends() {
        // 3x3 ones kernel over a 1x1 input with pad 1: center tap only.
        let x = Tensor::from_vec([1, 1, 1, 1], vec![2.0]).unwrap();
        let w = Tensor::ones([1, 1, 3, 3]);
        let b = Tensor::zeros([1]);
        let y = conv2d(&x, &w, &b, 1, 1);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data()[0], 2.0);
    }

    #[test]
    fn stride_subsamples() {
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|v| v as f32).collect()).unwrap();
        let w = Tensor::ones([1, 1, 1, 1]);
        let b = Tensor::zeros([1]);
        let y = conv2d(&x, &w, &b, 2, 0);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[0., 2., 8., 10.]);
    }

    #[test]
    fn multi_channel_sums_channels() {
        // Two input channels, kernel = 1x1 with weights [1, 10].
        let x = Tensor::from_vec([1, 2, 1, 2], vec![1., 2., 3., 4.]).unwrap();
        let w = Tensor::from_vec([1, 2, 1, 1], vec![1., 10.]).unwrap();
        let b = Tensor::zeros([1]);
        let y = conv2d(&x, &w, &b, 1, 0);
        assert_eq!(y.data(), &[31., 42.]);
    }

    #[test]
    fn relu_variant_clamps_negatives() {
        let x = Tensor::from_vec([1, 1, 1, 2], vec![1.0, -3.0]).unwrap();
        let w = Tensor::ones([1, 1, 1, 1]);
        let b = Tensor::from_vec([1], vec![0.5]).unwrap();
        let y = conv2d_relu(&x, &w, &b, 1, 0);
        assert_eq!(y.data(), &[1.5, 0.0]);
        // Positive region matches the unfused path bitwise.
        let plain = conv2d(&x, &w, &b, 1, 0);
        assert_eq!(y.data()[0].to_bits(), plain.data()[0].to_bits());
    }

    #[test]
    fn batch_samples_independent() {
        let mut rng = SeededRng::new(3);
        let x = Tensor::randn([2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::randn([4, 3, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::randn([4], 0.0, 0.1, &mut rng);
        let y = conv2d(&x, &w, &b, 1, 1);
        let y0 = conv2d(&Tensor::stack(&[x.index_axis0(0)]), &w, &b, 1, 1);
        let y1 = conv2d(&Tensor::stack(&[x.index_axis0(1)]), &w, &b, 1, 1);
        assert!(y.index_axis0(0).max_abs_diff(&y0.index_axis0(0)) < 1e-6);
        assert!(y.index_axis0(1).max_abs_diff(&y1.index_axis0(0)) < 1e-6);
    }

    #[test]
    fn backward_matches_numeric_grad_input() {
        let mut rng = SeededRng::new(7);
        let x = Tensor::randn([1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let w = Tensor::randn([3, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::randn([3], 0.0, 0.1, &mut rng);
        // Loss = sum(conv(x)); then dL/dy = 1 everywhere.
        let y = conv2d(&x, &w, &b, 1, 1);
        let go = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&x, &w, &go, 1, 1);

        let num = numeric_grad(&x, 1e-2, |xp| conv2d(xp, &w, &b, 1, 1).sum());
        assert!(
            grads.input.max_abs_diff(&num) < 0.05,
            "analytic vs numeric input grad diff {}",
            grads.input.max_abs_diff(&num)
        );
    }

    #[test]
    fn backward_matches_numeric_grad_weight_and_bias() {
        let mut rng = SeededRng::new(8);
        let x = Tensor::randn([2, 2, 4, 4], 0.0, 1.0, &mut rng);
        let w = Tensor::randn([2, 2, 3, 3], 0.0, 0.5, &mut rng);
        let b = Tensor::randn([2], 0.0, 0.1, &mut rng);
        let y = conv2d(&x, &w, &b, 1, 0);
        let go = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&x, &w, &go, 1, 0);

        let num_w = numeric_grad(&w, 1e-2, |wp| conv2d(&x, wp, &b, 1, 0).sum());
        assert!(grads.weight.max_abs_diff(&num_w) < 0.05);
        let num_b = numeric_grad(&b, 1e-2, |bp| conv2d(&x, &w, bp, 1, 0).sum());
        assert!(grads.bias.max_abs_diff(&num_b) < 0.05);
    }

    #[test]
    fn backward_with_stride_matches_numeric() {
        let mut rng = SeededRng::new(9);
        let x = Tensor::randn([1, 1, 6, 6], 0.0, 1.0, &mut rng);
        let w = Tensor::randn([2, 1, 2, 2], 0.0, 0.5, &mut rng);
        let b = Tensor::zeros([2]);
        let y = conv2d(&x, &w, &b, 2, 0);
        let go = Tensor::ones(y.shape().clone());
        let grads = conv2d_backward(&x, &w, &go, 2, 0);
        let num = numeric_grad(&x, 1e-2, |xp| conv2d(xp, &w, &b, 2, 0).sum());
        assert!(grads.input.max_abs_diff(&num) < 0.05);
    }

    /// The fused forward's arithmetic, spelled out: [`im2col_into`], then
    /// one `mul_add` chain per output element over `p` ascending from
    /// `+0.0`, plus the bias (the pre-activation).
    fn conv_oracle(x: &Tensor, w: &Tensor, b: &Tensor, stride: usize, pad: usize) -> Vec<f32> {
        let (_, c, h, wd) = x.shape().nchw();
        let (_, _, kh, kw) = w.shape().nchw();
        let (oh, ow) = (out_dim(h, kh, stride, pad), out_dim(wd, kw, stride, pad));
        let g = Geom {
            c,
            h,
            w: wd,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        };
        let (k, os) = (c * kh * kw, oh * ow);
        let mut out = Vec::new();
        for xs in x.data().chunks(c * h * wd) {
            let mut cols = vec![0.0f32; k * os];
            im2col_into(xs, &g, &mut cols);
            for (wrow, &bi) in w.data().chunks(k).zip(b.data()) {
                for j in 0..os {
                    let chain =
                        (0..k).fold(0.0f32, |acc, p| wrow[p].mul_add(cols[p * os + j], acc));
                    out.push(chain + bi);
                }
            }
        }
        out
    }

    /// Checks `conv2d` and `conv2d_relu` against [`conv_oracle`] bit for
    /// bit at batch 1 and 3, on the pool and forced sequential.
    fn assert_matches_oracle(
        c_in: usize,
        hw: (usize, usize),
        c_out: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) {
        let mut rng = SeededRng::new((c_in * 1000 + kernel * 100 + stride * 10 + pad) as u64);
        let w = Tensor::randn([c_out, c_in, kernel, kernel], 0.0, 0.3, &mut rng);
        let b = Tensor::randn([c_out], 0.0, 0.3, &mut rng);
        for batch in [1, 3] {
            let x = Tensor::randn([batch, c_in, hw.0, hw.1], 0.0, 1.0, &mut rng);
            let pre = conv_oracle(&x, &w, &b, stride, pad);
            for relu in [false, true] {
                let want: Vec<f32> = if relu {
                    pre.iter().map(|&y| if y > 0.0 { y } else { 0.0 }).collect()
                } else {
                    pre.clone()
                };
                let run = || conv2d_fused(&x, &w, &b, stride, pad, relu);
                for (mode, got) in [
                    ("pool", run()),
                    ("sequential", rayon::force_sequential(run)),
                ] {
                    let what = format!(
                        "c_in={c_in} {hw:?} k={kernel} s={stride} p={pad} batch={batch} relu={relu} {mode}"
                    );
                    assert_eq!(got.numel(), want.len(), "{what}: size");
                    for (e, (g, w)) in got.data().iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {e}: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_forward_matches_im2col_chain_oracle_bitwise() {
        // More threads than the batch, so batch 1 and 3 both split rows.
        rayon::ensure_threads(4);
        // Every kernel/stride/pad combination that fits; output widths of
        // 33–74 straddle the 32-wide column panels.
        for kernel in [1, 2, 3, 5] {
            for stride in [1, 2] {
                for pad in [0, 1, 2] {
                    assert_matches_oracle(3, (7, 70), 7, kernel, stride, pad);
                }
            }
        }
        // k = 576 (conv2's): slabs of 448 columns, 50×50 outputs leave a
        // ragged sixth slab; c_out = 7 leaves a ragged row panel.
        assert_matches_oracle(64, (50, 50), 7, 3, 1, 1);
        // k = 36 (conv1's): 7264-column slabs; 100×100 outputs leave a
        // ragged second one.
        assert_matches_oracle(4, (100, 100), 7, 3, 1, 1);
        // k = 9000: a single 32-column panel already exceeds SLAB_BYTES, so
        // every slab is one panel; 9×9 outputs leave a ragged third one.
        const { assert!(9000 * 32 * 4 > SLAB_BYTES) };
        assert_matches_oracle(1000, (9, 9), 5, 3, 1, 1);
    }
}
