//! 2-D convolution, forward and backward, by two routines chosen per call
//! from the shape: the packed im2col GEMM, and for stride-1 layers a
//! pack-free direct convolution (the `direct` submodule).
//!
//! Layout conventions:
//! * input  `[N, C_in, H, W]`
//! * weight `[C_out, C_in, KH, KW]`
//! * bias   `[C_out]`
//! * output `[N, C_out, OH, OW]` with `OH = (H + 2·pad − KH)/stride + 1`
//!
//! **Dispatch.** [`conv2d`], [`conv2d_relu`], [`conv2d_relu_pool`] (and its
//! tracked variant), [`conv2d_backward`] and [`conv2d_relu_pool_backward`]
//! pick the routine once per call, in one place (`Pick`, over the
//! `direct` submodule's crossovers): on AVX-512 builds every stride-1
//! forward runs direct; a stride-1 backward into at most 64 channels runs
//! direct when it wants no input gradient or its input channels fill a
//! tile; everything else runs packed, as does
//! [`conv2d_relu_at`] always. The routines agree bit for bit — every
//! element keeps one `mul_add` chain in the same order, the same bias add,
//! ReLU, pool scan and argmax, the same col2im sum order — so the choice
//! is speed alone, and the `conv2d`/`conv2d.backward` spans and the
//! `conv.flops` counter read the same either way.
//!
//! The batch dimension is embarrassingly parallel; forward and backward both
//! fan out over samples with rayon and reduce weight gradients with in-order
//! combination (no shared mutable state). A forward batch smaller than
//! the pool (batch-1 queries) instead shares each sample's work out between
//! threads: the packed path's column slabs, the direct path's channel
//! panels. [`conv2d_relu_at`] runs the packed forward over an explicit list
//! of output positions, such as a tile's border ring.
//!
//! **Packed forward.** The weight matrix is packed once per call
//! ([`PackedLhs`]) and shared read-only by every sample. The im2col matrix
//! is never materialized: each sample's output columns are walked in slabs
//! of about [`SLAB_BYTES`], each packed straight from the input image into
//! the GEMM's column-panel layout (an L2-resident [`crate::scratch`] buffer
//! whose every lane is overwritten, so it needs no memset), and the packed
//! weights sweep it. The bias (+ optional ReLU) is applied by the GEMM
//! epilogue as tiles are written back — no intermediate product buffer and
//! no second sweep over the output. [`conv2d_relu_pool`] fuses the C–P
//! unit's 2×2/2 max pool too: on either path each sample's activation is
//! written into a per-thread scratch buffer and pooled from there into the
//! 4× smaller output, so the full-resolution activation never reaches a
//! tensor.
//!
//! **Packed backward.** One per-sample kernel, shared by
//! [`conv2d_backward`] and the C–P unit's [`conv2d_relu_pool_backward`],
//! which first scatters the pooled gradient through the ReLU mask into a
//! per-thread scratch buffer — the full-resolution gradient never reaches
//! a tensor either (the direct path scatters it channel-last). The weight
//! gradient is a `KC`-sliced GEMM `gwᵀ = cols·gyᵀ` (or `gw = gy·colsᵀ`,
//! whichever orientation wastes fewer tile lanes) whose im2col operand is
//! packed per slice straight from a channel-last zero-padded copy of the
//! image — each kernel row's window elements are one contiguous run there,
//! so packing is plain copies — with its `mul_add` chains carried across
//! slices; the bias gradient's row sums come off the packed `gy` slices.
//! The input gradient, when wanted, is `Wᵀ·gy` into overwrite-only
//! scratch, scattered by a col2im whose stride-1 rows are slice adds
//! straight into the output; the C–P backward skips it entirely when asked
//! for parameter gradients only. Per-sample weight and bias gradients are
//! summed in sample order after the join. In steady state neither
//! direction, on either path, allocates per sample.

use crate::gemm::{
    gemm_packed, gemm_slab, gemm_slice, interleave, CRows, Epilogue, PackedLhs, Trans,
};
use crate::gemm::{select_mr, select_nr, NR_MAX, PAR_WORK};
use crate::pool::{pool_sample, relu_pool2x2_backward_sample, MaxIndices, Windows};
use crate::scratch;
use crate::tensor::Tensor;
use direct::DirectForward;
use rayon::prelude::*;
use std::ops::Range;

mod direct;

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

/// Gradients produced by [`conv2d_backward`] and
/// [`conv2d_relu_pool_backward`].
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// `d loss / d input`, same shape as the forward input; `None` when the
    /// caller asked for parameter gradients only.
    pub input: Option<Tensor>,
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

    /// The lane of im2col row `p = (ci·kh + ki)·kw + kj` in the channel-last
    /// order `(ki·kw + kj)·c + ci` the weight gradient packs.
    fn lane(&self, p: usize) -> usize {
        let taps = self.kh * self.kw;
        p % taps * self.c + p / taps
    }

    /// The output columns `ox` whose tap `kj` lands on the image.
    fn in_cols(&self, kj: usize) -> Range<usize> {
        let s = self.stride;
        let lo = self.pad.saturating_sub(kj).div_ceil(s);
        let hi = (self.w + self.pad).saturating_sub(kj).div_ceil(s);
        lo.min(self.ow)..hi.min(self.ow)
    }
}

/// Scatters a sample's im2col-shaped gradient `cols` (`[C·KH·KW, OH·OW]`)
/// back onto its `[C, H, W]` input gradient `x`, accumulating overlapping
/// windows: the adjoint of the im2col unpacking. Each element of `x` sums
/// its taps in `(ki, kj)` order onto what `x` held (zeros for a fresh
/// gradient). At stride 1 each output row's run is one contiguous slice add.
fn col2im_into(cols: &[f32], g: &Geom, x: &mut [f32]) {
    let ospatial = g.oh * g.ow;
    debug_assert_eq!(x.len(), g.c * g.h * g.w);
    let mut rows = cols.chunks_exact(ospatial);
    for plane in x.chunks_exact_mut(g.h * g.w) {
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let src = rows.next().expect("one im2col row per tap");
                let oxs = g.in_cols(kj);
                if oxs.is_empty() {
                    continue; // the tap only ever lands in the padding
                }
                let (len, x0) = (oxs.len(), oxs.start * g.stride + kj - g.pad);
                for oy in 0..g.oh {
                    let Some(iy) = g.in_row(oy, ki) else {
                        continue; // zero padding
                    };
                    let src = &src[oy * g.ow + oxs.start..oy * g.ow + oxs.end];
                    let dst = &mut plane[iy * g.w..(iy + 1) * g.w];
                    if g.stride == 1 {
                        for (d, &v) in dst[x0..x0 + len].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst[x0..].iter_mut().step_by(g.stride).zip(src) {
                            *d += v;
                        }
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

/// The output columns a forward call computes for each sample: the whole
/// `OH·OW` map, or an explicit list of linear output positions `oy·OW +
/// ox`.
#[derive(Debug, Clone, Copy)]
enum Columns<'a> {
    Map(usize),
    At(&'a [usize]),
}

impl Columns<'_> {
    fn len(&self) -> usize {
        match self {
            Columns::Map(n) => *n,
            Columns::At(ps) => ps.len(),
        }
    }
}

/// Packs one column-panel of a sample's im2col matrix — columns `j0..j0 +
/// width` of `cols` — straight from the zero-padded image `xp` (see
/// [`pad_into`]) into `panel`, in the GEMM's packed-`B` layout: `nr =
/// panel.len() / k` lanes per `k`-step, so element `(p, jj)` lands at
/// `p·nr + jj`.
///
/// Every lane is written — those past a ragged last panel's `width` with
/// 0 — so `panel` may hold stale data on entry.
fn pack_panel(xp: &[f32], g: &Geom, cols: Columns, j0: usize, width: usize, panel: &mut [f32]) {
    let (hp, wp, s) = (g.h + 2 * g.pad, g.w + 2 * g.pad, g.stride);
    let nr = panel.len() / (g.c * g.kh * g.kw);
    // The panel's columns split into runs of consecutive positions along
    // an output row: a run fills lanes `lane..lane + len` from `xp[tap +
    // off + t·stride]`, where `tap` is the offset of window position `(ci,
    // ki, kj)`.
    let mut runs = [(0usize, 0usize, 0usize); NR_MAX];
    let mut nruns = 0;
    match cols {
        // A full map's columns run along output rows.
        Columns::Map(_) => {
            let (mut oy, mut ox, mut lane) = (j0 / g.ow, j0 % g.ow, 0);
            while lane < width {
                let len = (g.ow - ox).min(width - lane);
                runs[nruns] = (lane, len, oy * s * wp + ox * s);
                nruns += 1;
                lane += len;
                oy += 1;
                ox = 0;
            }
        }
        Columns::At(ps) => {
            let mut prev = usize::MAX;
            for (lane, &p) in ps[j0..j0 + width].iter().enumerate() {
                if nruns > 0 && p == prev + 1 && !p.is_multiple_of(g.ow) {
                    runs[nruns - 1].1 += 1;
                } else {
                    let (oy, ox) = (p / g.ow, p % g.ow);
                    runs[nruns] = (lane, 1, oy * s * wp + ox * s);
                    nruns += 1;
                }
                prev = p;
            }
        }
    }
    let runs = &runs[..nruns];
    // Many short runs (a ring's side strips, two lanes a row) gather lane
    // by lane instead: a call per two-float copy would cost more than the
    // copy.
    if nruns > 4 {
        return gather_panel(xp, g, runs, width, panel);
    }
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

/// [`pack_panel`] for a panel of many short `runs` (`(lane, len, offset)`
/// into a window's first tap): every lane's source offset is worked out
/// once, then each `k`-step gathers the panel lane by lane.
fn gather_panel(
    xp: &[f32],
    g: &Geom,
    runs: &[(usize, usize, usize)],
    width: usize,
    panel: &mut [f32],
) {
    let (hp, wp) = (g.h + 2 * g.pad, g.w + 2 * g.pad);
    let nr = panel.len() / (g.c * g.kh * g.kw);
    let mut offsets = [0usize; NR_MAX];
    for &(lane, len, off) in runs {
        for t in 0..len {
            offsets[lane + t] = off + t * g.stride;
        }
    }
    let offsets = &offsets[..width];
    let mut lanes = panel.chunks_exact_mut(nr);
    for ci in 0..g.c {
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let dst = lanes.next().expect("one lane row per k-step");
                let src = &xp[(ci * hp + ki) * wp + kj..];
                for (d, &o) in dst.iter_mut().zip(offsets) {
                    *d = src[o];
                }
                dst[width..].fill(0.0);
            }
        }
    }
}

/// One forward call's shared state: the geometry, the columns each sample
/// computes and the routine that computes them.
struct Forward<'a> {
    g: Geom,
    c_out: usize,
    cols: Columns<'a>,
    route: Route<'a>,
}

/// Which routine a call runs: every public entry point lets the shape
/// decide ([`direct::route`]); the unit tests force each in turn.
#[derive(Debug, Clone, Copy)]
enum Pick {
    Route,
    #[cfg(test)]
    Packed,
    #[cfg(test)]
    Direct,
}

impl Pick {
    /// Whether a forward pass runs direct.
    fn forward(self, g: &Geom) -> bool {
        match self {
            Pick::Route => direct::route(g),
            #[cfg(test)]
            Pick::Packed => false,
            #[cfg(test)]
            Pick::Direct => true,
        }
    }

    /// Whether a backward pass into `c_out` channels, with the input
    /// gradient when `input_grad`, runs direct.
    fn backward(self, g: &Geom, c_out: usize, input_grad: bool) -> bool {
        match self {
            Pick::Route => direct::backward_route(g, c_out, input_grad),
            #[cfg(test)]
            Pick::Packed => false,
            #[cfg(test)]
            Pick::Direct => direct::backward_fits(g, c_out, input_grad),
        }
    }
}

/// The routine a forward call runs, chosen once per call.
enum Route<'a> {
    Packed(Packed<'a>),
    Direct(DirectForward),
}

/// The packed path's state: the weights packed once for every sample, the
/// bias epilogue and the slab shape each sample's sweep uses.
struct Packed<'a> {
    k: usize,
    pw: PackedLhs,
    ep: Epilogue<'a>,
    /// Column-panel width and slab width (a multiple of it).
    nr: usize,
    nc: usize,
    /// Fewer samples than threads: each sample's slabs are shared out
    /// between the pool, one thread packing and sweeping each whole slab.
    split: bool,
}

impl<'a> Packed<'a> {
    fn new(
        weight: &Tensor,
        bias: &'a Tensor,
        relu: bool,
        (n, c_out, k, ncols): (usize, usize, usize, usize),
    ) -> Self {
        // Pack the weight matrix once; every sample's slabs read it in place.
        let pw = PackedLhs::pack(weight.data(), Trans::No, c_out, k);
        let ep = if relu {
            Epilogue::BiasRowsRelu(bias.data())
        } else {
            Epilogue::BiasRows(bias.data())
        };
        // Slab width: a multiple of the column-panel width `nr`, about
        // SLAB_BYTES of packed columns, no wider than the (padded) columns.
        let nr = select_nr(ncols);
        let widest = (SLAB_BYTES / (4 * k.max(1)) / nr * nr).max(nr);
        let mut nc = widest.min(ncols.next_multiple_of(nr));
        // Fewer samples than threads: cut each sample's columns into a
        // multiple of the threads serving it, so the slabs share out evenly.
        let threads = rayon::current_num_threads();
        let split = n < threads && c_out * k * ncols >= PAR_WORK;
        if split {
            let slabs = ncols.div_ceil(widest).next_multiple_of(threads.div_ceil(n));
            nc = ncols.div_ceil(slabs).next_multiple_of(nr);
        }
        Packed {
            k,
            pw,
            ep,
            nr,
            nc,
            split,
        }
    }
}

impl<'a> Forward<'a> {
    fn new(
        input: &Tensor,
        weight: &Tensor,
        bias: &'a Tensor,
        (stride, pad): (usize, usize),
        relu: bool,
        positions: Option<&'a [usize]>,
        pick: Pick,
    ) -> Self {
        let (n, c_in, h, w) = input.shape().nchw();
        let (c_out, wc_in, kh, kw) = weight.shape().nchw();
        assert_eq!(
            c_in, wc_in,
            "conv2d: input channels {c_in} != weight channels {wc_in}"
        );
        assert_eq!(bias.numel(), c_out, "conv2d: bias size != C_out");
        let g = Geom {
            c: c_in,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh: out_dim(h, kh, stride, pad),
            ow: out_dim(w, kw, stride, pad),
        };
        let ospatial = g.oh * g.ow;
        let cols = match positions {
            None => Columns::Map(ospatial),
            Some(ps) => {
                if let Some(&p) = ps.iter().find(|&&p| p >= ospatial) {
                    panic!(
                        "conv2d: output position {p} outside the {}×{} map",
                        g.oh, g.ow
                    );
                }
                Columns::At(ps)
            }
        };
        let k = c_in * kh * kw;
        let ncols = cols.len();
        dcd_obs::counter!("conv.flops").add(2 * (n * c_out * k * ncols) as u64);
        let route = if positions.is_none() && pick.forward(&g) {
            Route::Direct(DirectForward::new(g, weight, bias, relu, n))
        } else {
            Route::Packed(Packed::new(weight, bias, relu, (n, c_out, k, ncols)))
        };
        Forward {
            g,
            c_out,
            cols,
            route,
        }
    }

    /// Convolves every sample of `input` (one per pool thread at a time)
    /// into a fresh `[N, C_out, columns]` buffer.
    fn run(&self, input: &Tensor) -> Vec<f32> {
        let n = input.dims()[0];
        let mut out = vec![0.0f32; n * self.sample_out()];
        out.par_chunks_mut(self.sample_out())
            .zip(input.data().par_chunks(self.sample_in()))
            .for_each(|(o, x)| self.sample(x, o));
        out
    }

    /// Floats per input sample `[C_in, H, W]`.
    fn sample_in(&self) -> usize {
        self.g.c * self.g.h * self.g.w
    }

    /// Floats per output sample `[C_out, columns]`.
    fn sample_out(&self) -> usize {
        self.c_out * self.cols.len()
    }

    /// Packs columns `cols` of the sample whose padded image is `xp` into
    /// `slab` (a scratch buffer of at least `nc·k` floats, whatever it
    /// holds) and sweeps the packed weights over it, writing every output
    /// channel's `cols` through `c`.
    fn slab(&self, p: &Packed, xp: &[f32], cols: Range<usize>, slab: &mut [f32], c: CRows) {
        let (nr, k) = (p.nr, p.k);
        let slab = &mut slab[..cols.len().div_ceil(nr) * nr * k];
        for (pj, panel) in slab.chunks_mut(nr * k).enumerate() {
            let c0 = cols.start + pj * nr;
            pack_panel(xp, &self.g, self.cols, c0, nr.min(cols.end - c0), panel);
        }
        gemm_slab(&p.pw, slab, nr, c, cols, p.ep);
    }

    /// Convolves one sample `x` into `o` (`[C_out, columns]`), writing
    /// every element, so `o` may hold stale data on entry.
    ///
    /// A split sample shares its slabs out between the pool in one
    /// fork-join: each thread packs and sweeps whole slabs, writing each
    /// output channel's slice of the slab's columns.
    fn sample(&self, x: &[f32], o: &mut [f32]) {
        let p = match &self.route {
            Route::Packed(p) => p,
            Route::Direct(d) => return d.sample(x, o),
        };
        let g = self.g;
        let (ncols, nc) = (self.cols.len(), p.nc);
        let mut xp = scratch::take_overwrite(g.c * (g.h + 2 * g.pad) * (g.w + 2 * g.pad));
        pad_into(x, &g, &mut xp);
        if p.split {
            // Slab `s` owns columns `s·nc..` of every output channel.
            let mut slabs: Vec<Vec<&mut [f32]>> = (0..ncols.div_ceil(nc))
                .map(|_| Vec::with_capacity(self.c_out))
                .collect();
            for row in o.chunks_mut(ncols) {
                for (slab, cols) in slabs.iter_mut().zip(row.chunks_mut(nc)) {
                    slab.push(cols);
                }
            }
            slabs.par_iter_mut().enumerate().for_each(|(s, rows)| {
                let cols = s * nc..(s * nc + nc).min(ncols);
                let mut slab = scratch::take_overwrite(nc * p.k);
                self.slab(p, &xp, cols, &mut slab, CRows::Slices(rows));
                scratch::release(slab);
            });
        } else {
            // One slab buffer for every slab of the sample: a ragged last
            // slab only borrows a prefix of it.
            let mut slab = scratch::take_overwrite(nc * p.k);
            for j0 in (0..ncols).step_by(nc) {
                let cols = j0..(j0 + nc).min(ncols);
                self.slab(p, &xp, cols, &mut slab, CRows::Strided(o, ncols));
            }
            scratch::release(slab);
        }
        scratch::release(xp);
    }

    /// Convolves one sample `x` into a scratch activation and 2×2/2-pools
    /// that into `o` (`[C_out, OH/2, OW/2]`); `winners`, when given,
    /// receives each pooled element's argmax as a linear index into the
    /// activation, offset by `base` (what [`MaxIndices`] stores).
    fn sample_pooled(&self, x: &[f32], o: &mut [f32], winners: Option<&mut [usize]>, base: usize) {
        if let Route::Direct(d) = &self.route {
            return d.sample_pooled(x, o, winners, base);
        }
        let (oh, ow) = (self.g.oh, self.g.ow);
        let pooled = (POOL_2X2.out_dim(oh), POOL_2X2.out_dim(ow));
        // The GEMM epilogue writes every element: no memset needed.
        let mut act = scratch::take_overwrite(self.sample_out());
        self.sample(x, &mut act);
        // Pooled on the calling thread even for a split sample: a second
        // fork-join per sample cost more than it saved (conv1 at batch 1,
        // 0.9–1.1 ms against 0.6–0.8 ms).
        let dims = (self.c_out, oh, ow);
        match winners {
            Some(ix) => pool_sample(&act, dims, POOL_2X2, pooled, o, |olin, lin| {
                ix[olin] = base + lin
            }),
            None => pool_sample(&act, dims, POOL_2X2, pooled, o, |_, _| {}),
        }
        scratch::release(act);
    }
}

fn conv2d_fused(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    (stride, pad): (usize, usize),
    relu: bool,
    pick: Pick,
) -> Tensor {
    let _span = dcd_obs::span("conv2d", dcd_obs::Category::Conv);
    let f = Forward::new(input, weight, bias, (stride, pad), relu, None, pick);
    let n = input.dims()[0];
    let out = f.run(input);
    Tensor::from_vec([n, f.c_out, f.g.oh, f.g.ow], out).expect("conv2d output size")
}

/// Convolution forward pass (bias fused into the GEMM write-back).
pub fn conv2d(input: &Tensor, weight: &Tensor, bias: &Tensor, stride: usize, pad: usize) -> Tensor {
    conv2d_fused(input, weight, bias, (stride, pad), false, Pick::Route)
}

/// [`conv2d`] with a fused `max(0, ·)`: `Conv → ReLU` in one pass, with no
/// separate activation sweep. Negative pre-activations map to `+0.0`.
pub fn conv2d_relu(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    conv2d_fused(input, weight, bias, (stride, pad), true, Pick::Route)
}

/// [`conv2d_relu`] evaluated at the listed output positions only: element
/// `(n, co, j)` of the `[N, C_out, positions.len()]` result is, bit for
/// bit, element `(n, co, oy, ox)` of `conv2d_relu(input, weight, bias,
/// stride, pad)` for `positions[j] = oy·OW + ox`.
///
/// Each listed position runs the same `mul_add` chain over the same taps
/// as in the full convolution, and runs of consecutive positions along an
/// output row pack like a full row, so a sparse set of positions — the
/// border ring of a tile, say — is still one dense GEMM per sample. Panics
/// on a position outside the output map.
pub fn conv2d_relu_at(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    (stride, pad): (usize, usize),
    positions: &[usize],
) -> Tensor {
    let _span = dcd_obs::span("conv2d", dcd_obs::Category::Conv);
    let f = Forward::new(
        input,
        weight,
        bias,
        (stride, pad),
        true,
        Some(positions),
        Pick::Route,
    );
    let n = input.dims()[0];
    let out = f.run(input);
    Tensor::from_vec([n, f.c_out, positions.len()], out).expect("conv2d_relu_at output size")
}

/// The 2×2/2 max pool [`conv2d_relu_pool`] applies.
const POOL_2X2: Windows = Windows::Fixed {
    kernel: 2,
    stride: 2,
};

/// [`conv2d_relu`] followed by a 2×2/2 max pool, in one pass: the paper's
/// C–P unit. Each sample's activation lives only in a per-thread scratch
/// buffer and is pooled into the 4× smaller output as soon as its
/// convolution finishes. Bit for bit equal to `max_pool2d(&conv2d_relu(..),
/// 2, 2).0`, including the floor for odd output sizes.
pub fn conv2d_relu_pool(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Tensor {
    conv_relu_pool(input, weight, bias, (stride, pad), false, Pick::Route).0
}

/// [`conv2d_relu_pool`] that also records each pooled element's argmax in
/// the (never materialized) activation — what `max_pool2d` would return —
/// for [`conv2d_relu_pool_backward`].
pub fn conv2d_relu_pool_tracked(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> (Tensor, MaxIndices) {
    let (y, pool) = conv_relu_pool(input, weight, bias, (stride, pad), true, Pick::Route);
    (y, pool.expect("tracked pool records its argmax"))
}

/// Shared body of [`conv2d_relu_pool`] and its tracked variant.
fn conv_relu_pool(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    (stride, pad): (usize, usize),
    track: bool,
    pick: Pick,
) -> (Tensor, Option<MaxIndices>) {
    let _span = dcd_obs::span("conv2d", dcd_obs::Category::Conv);
    let f = Forward::new(input, weight, bias, (stride, pad), true, None, pick);
    let n = input.dims()[0];
    let (oh, ow) = (f.g.oh, f.g.ow);
    let (ph, pw) = (POOL_2X2.out_dim(oh), POOL_2X2.out_dim(ow));
    let sample_pooled = f.c_out * ph * pw;
    let samples = input.data().par_chunks(f.sample_in());
    let mut out = vec![0.0f32; n * sample_pooled];
    let pool = if track {
        let mut indices = vec![0usize; n * sample_pooled];
        out.par_chunks_mut(sample_pooled)
            .zip(indices.par_chunks_mut(sample_pooled))
            .zip(samples)
            .enumerate()
            .for_each(|(s, ((o, ix), x))| f.sample_pooled(x, o, Some(ix), s * f.sample_out()));
        Some(MaxIndices {
            indices,
            input_dims: [n, f.c_out, oh, ow],
            output_dims: [n, f.c_out, ph, pw],
        })
    } else {
        out.par_chunks_mut(sample_pooled)
            .zip(samples)
            .for_each(|(o, x)| f.sample_pooled(x, o, None, 0));
        None
    };
    let y = Tensor::from_vec([n, f.c_out, ph, pw], out).expect("conv2d_relu_pool output size");
    (y, pool)
}

/// `k`-slice of the weight-gradient GEMM, in output positions: a slice of
/// both packed operands (at most `288·256` floats of im2col columns, 295 KB,
/// for a 32-channel 3×3 layer) stays in L2 while the register tiles sweep it.
const KC: usize = 256;

/// How a sample's weight-gradient GEMM `gw = gy·colsᵀ` (`c_out × k`, over
/// the `OH·OW` output positions) maps onto the register tile. `mul_add` is
/// symmetric in its two factors, so the transposed product `gwᵀ =
/// cols·gyᵀ` gives the same bits; the orientation whose padded tiles waste
/// less runs.
#[derive(Debug, Clone, Copy)]
struct GwTile {
    /// Whether the im2col columns are the left operand (`gwᵀ` is formed).
    cols_lhs: bool,
    tile: (usize, usize),
    /// Logical rows × columns of the product.
    m: usize,
    n: usize,
    /// Row stride of a sample's accumulator: `n` in whole column panels.
    ld: usize,
    /// Floats in a sample's accumulator: `m` in whole row panels × `ld`.
    len: usize,
}

impl GwTile {
    fn new(c_out: usize, k: usize) -> Self {
        let plan = |cols_lhs: bool| {
            let (m, n) = if cols_lhs { (k, c_out) } else { (c_out, k) };
            let tile = (select_mr(m), select_nr(n));
            let ld = n.next_multiple_of(tile.1);
            GwTile {
                cols_lhs,
                tile,
                m,
                n,
                ld,
                len: m.next_multiple_of(tile.0) * ld,
            }
        };
        // Tile area swept, with lanes of a tile narrower than the widest
        // (half-width vectors) counted at their relative cost.
        let cost = |t: &GwTile| t.len * (NR_MAX / t.tile.1);
        let (lhs, rhs) = (plan(true), plan(false));
        if cost(&rhs) < cost(&lhs) {
            rhs
        } else {
            lhs
        }
    }

    /// Index of `gw[co][p]` in a sample's accumulator.
    fn at(&self, co: usize, p: usize) -> usize {
        if self.cols_lhs {
            p * self.ld + co
        } else {
            co * self.ld + p
        }
    }

    /// Panel heights of the im2col and `gy` operands.
    fn lanes(&self) -> (usize, usize) {
        if self.cols_lhs {
            self.tile
        } else {
            (self.tile.1, self.tile.0)
        }
    }
}

/// Copies one sample `[C, H, W]` into `xp` channel-last, as `[H + 2·pad,
/// W + 2·pad, C]` with a zero border, so that for each kernel row `ki` the
/// `KW·C` window elements `(ki, kj, ci)` of an output position are one
/// contiguous run. Writes every element of `xp`.
fn pad_hwc_into(x: &[f32], g: &Geom, xp: &mut [f32]) {
    let (c, row) = (g.c, (g.w + 2 * g.pad) * g.c);
    let (top, rest) = xp.split_at_mut(g.pad * row);
    let (body, bottom) = rest.split_at_mut(g.h * row);
    top.fill(0.0);
    bottom.fill(0.0);
    let mut starts = [0usize; NR_MAX];
    for (iy, dst) in body.chunks_exact_mut(row).enumerate() {
        dst[..g.pad * c].fill(0.0);
        dst[(g.pad + g.w) * c..].fill(0.0);
        for c0 in (0..c).step_by(NR_MAX) {
            let starts = &mut starts[..NR_MAX.min(c - c0)];
            for (j, s) in starts.iter_mut().enumerate() {
                *s = ((c0 + j) * g.h + iy) * g.w;
            }
            interleave(x, starts, g.w, c, &mut dst[g.pad * c + c0..]);
        }
    }
}

/// Packs output positions `ps` of a sample's im2col matrix into
/// `lanes`-row panels, k-major (the layout [`gemm_slice`] sweeps), from
/// the channel-last padded image `xp` (see [`pad_hwc_into`]). Lane `l` of
/// a position holds window element `(ki, kj, ci)` with `l = (ki·KW + kj)·C
/// + ci` ([`Geom::lane`]), so each panel's step is a few contiguous copies.
/// Lanes past a ragged last panel are zeroed, so `out` may hold stale data.
fn pack_cols(xp: &[f32], g: &Geom, ps: Range<usize>, lanes: usize, out: &mut [f32]) {
    let (run, wp) = (g.kw * g.c, g.w + 2 * g.pad);
    let k = g.kh * run;
    let len = ps.len();
    let rows = PositionRuns {
        p: ps.start,
        start: ps.start,
        end: ps.end,
        ow: g.ow,
        row_step: wp * g.stride * g.c,
        col_step: g.stride * g.c,
    };
    let mut pieces = [(0usize, 0usize, 0usize); NR_MAX];
    for (pi, panel) in out
        .chunks_exact_mut(lanes * len)
        .take(k.div_ceil(lanes))
        .enumerate()
    {
        // The panel's lanes `l0..l0 + width` cut at kernel-row boundaries:
        // `(lane, xp offset, count)` pieces, each one contiguous copy.
        let (l0, width) = (pi * lanes, lanes.min(k - pi * lanes));
        let mut npieces = 0;
        let mut l = l0;
        while l < l0 + width {
            let (ki, j) = (l / run, l % run);
            let count = (run - j).min(l0 + width - l);
            pieces[npieces] = (l - l0, ki * wp * g.c + j, count);
            npieces += 1;
            l += count;
        }
        let pieces = &pieces[..npieces];
        if let [(0, off, n)] = *pieces {
            if n == lanes && copy_whole_steps(xp, rows.clone(), off, panel, lanes) {
                continue;
            }
        }
        for (q0, count, at) in rows.clone() {
            for t in 0..count {
                let dst = &mut panel[(q0 + t) * lanes..(q0 + t + 1) * lanes];
                let src = &xp[at + t * rows.col_step..];
                for &(lane, off, n) in pieces {
                    for (d, &v) in dst[lane..lane + n].iter_mut().zip(&src[off..off + n]) {
                        *d = v;
                    }
                }
                dst[width..].fill(0.0);
            }
        }
    }
}

/// A slice `start..end` of output positions as runs along output rows:
/// items `(q0, count, at)` are `count` positions from slice offset `q0`,
/// the first one's window at `xp[at..]` in the channel-last padded image.
#[derive(Clone)]
struct PositionRuns {
    p: usize,
    start: usize,
    end: usize,
    ow: usize,
    /// `xp` offsets of one output row and one output column.
    row_step: usize,
    col_step: usize,
}

impl Iterator for PositionRuns {
    type Item = (usize, usize, usize);

    fn next(&mut self) -> Option<Self::Item> {
        if self.p >= self.end {
            return None;
        }
        let (oy, ox) = (self.p / self.ow, self.p % self.ow);
        let count = (self.ow - ox).min(self.end - self.p);
        let run = (
            self.p - self.start,
            count,
            oy * self.row_step + ox * self.col_step,
        );
        self.p += count;
        Some(run)
    }
}

/// [`pack_cols`]'s steps for a panel whose `lanes` lanes are one
/// contiguous piece of each window, at `off` within it, as fixed-size
/// copies. Returns `false`, writing nothing, for a width it has no
/// fixed-size copy for.
fn copy_whole_steps(
    xp: &[f32],
    rows: PositionRuns,
    off: usize,
    panel: &mut [f32],
    lanes: usize,
) -> bool {
    fn steps<const L: usize>(xp: &[f32], rows: PositionRuns, off: usize, panel: &mut [f32]) {
        let step = rows.col_step;
        for (q0, count, at) in rows {
            let dst = panel[q0 * L..(q0 + count) * L].chunks_exact_mut(L);
            for (t, d) in dst.enumerate() {
                let src = at + t * step + off;
                d.copy_from_slice(&xp[src..src + L]);
            }
        }
    }
    match lanes {
        32 => steps::<32>(xp, rows, off, panel),
        16 => steps::<16>(xp, rows, off, panel),
        6 => steps::<6>(xp, rows, off, panel),
        4 => steps::<4>(xp, rows, off, panel),
        _ => return false,
    }
    true
}

/// Packs columns `ps` of a sample's `gy` (`[c_out, OH·OW]`) into
/// `lanes`-row panels, k-major, zeroing lanes past a ragged last panel,
/// and adds each row's elements, in column order, onto its entry of `sums`.
fn pack_gy(
    gy: &[f32],
    ospatial: usize,
    ps: Range<usize>,
    lanes: usize,
    out: &mut [f32],
    sums: &mut [f32],
) {
    let len = ps.len();
    let mut starts = [0usize; NR_MAX];
    for ((pi, panel), sums) in out
        .chunks_exact_mut(lanes * len)
        .enumerate()
        .zip(sums.chunks_mut(lanes))
    {
        let width = sums.len();
        let starts = &mut starts[..width];
        for (r, s) in starts.iter_mut().enumerate() {
            *s = (pi * lanes + r) * ospatial + ps.start;
        }
        interleave(gy, starts, len, lanes, panel);
        for step in panel.chunks_exact_mut(lanes) {
            step[width..].fill(0.0);
            for (s, &v) in sums.iter_mut().zip(&step[..width]) {
                *s += v;
            }
        }
    }
}

/// Where each sample's gradient w.r.t. the convolution output comes from.
#[derive(Clone, Copy)]
enum OutGrad<'a> {
    /// Given at full resolution, `[N, C_out, OH, OW]`.
    Dense(&'a [f32]),
    /// Through the C–P unit's ReLU and 2×2/2 max pool: the gradient w.r.t.
    /// the pooled output, the pooled output and its argmax.
    Pooled {
        go: &'a [f32],
        y: &'a [f32],
        winners: &'a [usize],
    },
}

/// One backward call's shared state.
struct Backward {
    g: Geom,
    c_out: usize,
    k: usize,
    path: BackwardPath,
}

/// The routine a backward call runs, chosen once per call
/// ([`direct::backward_route`]), with the weights it needs for every
/// sample's input gradient (`None` when that is not wanted).
enum BackwardPath {
    /// The weight-gradient GEMM's tile, and `Wᵀ` packed for `gcols = Wᵀ·gy`.
    Packed {
        tile: GwTile,
        pwt: Option<PackedLhs>,
    },
    /// The direct weight gradient, and [`direct::input_grad_panels`].
    Direct { panels: Option<Vec<f32>> },
}

impl Backward {
    /// Floats of a sample's weight-gradient accumulator.
    fn gw_len(&self) -> usize {
        match &self.path {
            BackwardPath::Packed { tile, .. } => tile.len,
            BackwardPath::Direct { .. } => self.k * self.c_out,
        }
    }

    /// Strides of `gw[co][p]` in a sample's accumulator, per channel-last
    /// lane [`Geom::lane`]`(p)` and per output channel `co`.
    fn gw_strides(&self) -> (usize, usize) {
        match &self.path {
            BackwardPath::Packed { tile, .. } => (tile.at(0, 1), tile.at(1, 0)),
            BackwardPath::Direct { .. } => (self.c_out, 1),
        }
    }

    /// One sample: writes its weight gradient and then its bias gradient
    /// into `acc`, and its input gradient over the zeroed `gx` when wanted.
    fn sample(&self, s: usize, x: &[f32], src: OutGrad, acc: &mut [f32], gx: Option<&mut [f32]>) {
        let (gw, gb) = acc.split_at_mut(self.gw_len());
        let (tile, pwt) = match &self.path {
            BackwardPath::Packed { tile, pwt } => (tile, pwt),
            BackwardPath::Direct { panels } => {
                return self.sample_direct(s, x, src, (gw, gb), panels.as_deref().zip(gx));
            }
        };
        let (g, c_out) = (self.g, self.c_out);
        let ospatial = g.oh * g.ow;
        let sample_out = c_out * ospatial;
        let mut scattered = Vec::new();
        let gy = match src {
            OutGrad::Dense(go) => &go[s * sample_out..(s + 1) * sample_out],
            OutGrad::Pooled { go, y, winners } => {
                let pooled = c_out * (g.oh / 2) * (g.ow / 2);
                let o = s * pooled..(s + 1) * pooled;
                scattered = scratch::take_overwrite(sample_out);
                relu_pool2x2_backward_sample(
                    (&go[o.clone()], &y[o.clone()], &winners[o]),
                    s * sample_out,
                    (c_out, g.oh, g.ow),
                    &mut scattered,
                );
                &scattered[..]
            }
        };
        self.param_grads(*tile, x, gy, gw, gb);
        if let (Some(pwt), Some(gx)) = (pwt, gx) {
            // gcols = Wᵀ·gy, every element stored, then col2im.
            let mut gcols = scratch::take_overwrite(self.k * ospatial);
            gemm_packed(pwt, gy, Trans::No, &mut gcols, ospatial, Epilogue::Store);
            col2im_into(&gcols, &g, gx);
            scratch::release(gcols);
        }
        scratch::release(scattered);
    }

    /// [`Backward::sample`] on the direct path: the gradient w.r.t. the
    /// convolution output goes channel-last for the weight gradient and,
    /// when the input gradient is wanted (`input`: the weight panels and
    /// the zeroed `gx`), zero-padded NCHW for the input gradient.
    fn sample_direct(
        &self,
        s: usize,
        x: &[f32],
        src: OutGrad,
        (gw, gb): (&mut [f32], &mut [f32]),
        input: Option<(&[f32], &mut [f32])>,
    ) {
        let (g, c_out) = (self.g, self.c_out);
        let sample_out = c_out * g.oh * g.ow;
        let pooled = c_out * (g.oh / 2) * (g.ow / 2);
        let (o, base) = (s * pooled..(s + 1) * pooled, s * sample_out);
        let mut gy = scratch::take_overwrite(direct::gy_len(&g, c_out));
        match src {
            OutGrad::Dense(go) => {
                direct::transpose_gy(&go[base..base + sample_out], &g, c_out, &mut gy);
            }
            OutGrad::Pooled { go, y, winners } => {
                let src = (&go[o.clone()], &y[o.clone()], &winners[o.clone()]);
                direct::relu_pool_backward_hwc(src, base, &g, c_out, &mut gy);
            }
        }
        direct::param_grads(x, &g, &gy, c_out, gw, gb);
        scratch::release(gy);
        let Some((panels, gx)) = input else {
            return;
        };
        let mut gyp = scratch::take_overwrite(direct::gy_padded_len(&g, c_out));
        match src {
            OutGrad::Dense(go) => {
                direct::pad_gy(&go[base..base + sample_out], &g, &mut gyp);
            }
            OutGrad::Pooled { go, y, winners } => {
                let src = (&go[o.clone()], &y[o.clone()], &winners[o]);
                direct::relu_pool_backward_padded(src, base, &g, c_out, &mut gyp);
            }
        }
        direct::input_grad(&gyp, &g, c_out, panels, gx);
        scratch::release(gyp);
    }

    /// `gw` (the sample's accumulator) `= gy · colsᵀ` and `gb` = the row
    /// sums of `gy`, `KC` output positions at a time: each slice of the
    /// im2col columns is packed straight from a channel-last zero-padded
    /// copy of the image and each slice of `gy` from its rows, and every
    /// element's `mul_add` chain, and every row sum, carries across slices.
    fn param_grads(&self, t: GwTile, x: &[f32], gy: &[f32], gw: &mut [f32], gb: &mut [f32]) {
        let g = self.g;
        let ospatial = g.oh * g.ow;
        let mut xp = scratch::take_overwrite(g.c * (g.h + 2 * g.pad) * (g.w + 2 * g.pad));
        pad_hwc_into(x, &g, &mut xp);
        let kc = KC.min(ospatial);
        let (cols_lanes, gy_lanes) = t.lanes();
        // Each operand's panels, in floats per k-step.
        let (cols_w, gy_w) = (
            self.k.next_multiple_of(cols_lanes),
            self.c_out.next_multiple_of(gy_lanes),
        );
        let mut cpack = scratch::take_overwrite(cols_w * kc);
        let mut gpack = scratch::take_overwrite(gy_w * kc);
        // `Iterator::sum`'s starting value, so each row sum is its fold.
        gb.fill([0.0f32; 0].iter().sum());
        for p0 in (0..ospatial).step_by(kc) {
            let ps = p0..(p0 + kc).min(ospatial);
            let len = ps.len();
            let (cols, gys) = (&mut cpack[..cols_w * len], &mut gpack[..gy_w * len]);
            pack_cols(&xp, &g, ps.clone(), cols_lanes, cols);
            pack_gy(gy, ospatial, ps, gy_lanes, gys, gb);
            let (a, b) = if t.cols_lhs {
                (&cpack, &gpack)
            } else {
                (&gpack, &cpack)
            };
            gemm_slice(t.tile, a, b, len, (t.m, t.n), gw, t.ld, p0 == 0);
        }
        scratch::release(gpack);
        scratch::release(cpack);
        scratch::release(xp);
    }
}

/// Shared body of [`conv2d_backward`] and [`conv2d_relu_pool_backward`]:
/// per sample (in parallel) the gradient w.r.t. the convolution output,
/// the weight, bias and — when `input_grad` — input gradients, then the
/// weight and bias gradients summed over samples in sample order.
fn backward(
    input: &Tensor,
    weight: &Tensor,
    (stride, pad): (usize, usize),
    src: OutGrad,
    input_grad: bool,
    pick: Pick,
) -> Conv2dGrads {
    let (n, c_in, h, w) = input.shape().nchw();
    let (c_out, wc_in, kh, kw) = weight.shape().nchw();
    assert_eq!(
        c_in, wc_in,
        "conv2d_backward: input channels {c_in} != weight channels {wc_in}"
    );
    let g = Geom {
        c: c_in,
        h,
        w,
        kh,
        kw,
        stride,
        pad,
        oh: out_dim(h, kh, stride, pad),
        ow: out_dim(w, kw, stride, pad),
    };
    let k = c_in * kh * kw;
    let _span = dcd_obs::span("conv2d.backward", dcd_obs::Category::Conv);
    // The weight-gradient GEMM per sample, plus the input-gradient one.
    let gemms = if input_grad { 2 } else { 1 };
    dcd_obs::counter!("conv.flops").add(2 * gemms * (n * c_out * k * g.oh * g.ow) as u64);

    let path = if pick.backward(&g, c_out, input_grad) {
        BackwardPath::Direct {
            panels: input_grad.then(|| direct::input_grad_panels(weight)),
        }
    } else {
        BackwardPath::Packed {
            tile: GwTile::new(c_out, k),
            // Wᵀ [k, c_out] packed straight from the weight's [c_out, k]
            // storage.
            pwt: input_grad.then(|| PackedLhs::pack(weight.data(), Trans::Yes, k, c_out)),
        }
    };
    let b = Backward { g, c_out, k, path };
    let per_sample = b.gw_len() + c_out;
    let sample_in = c_in * h * w;
    // Every sample writes its whole accumulator: no memset needed.
    let mut acc = scratch::take_overwrite(n * per_sample);
    let samples = input.data().par_chunks(sample_in);
    let mut gx = input_grad.then(|| vec![0.0f32; n * sample_in]);
    match gx.as_mut() {
        Some(gx) => acc
            .par_chunks_mut(per_sample)
            .zip(gx.par_chunks_mut(sample_in))
            .zip(samples)
            .enumerate()
            .for_each(|(s, ((a, gx), x))| b.sample(s, x, src, a, Some(gx))),
        None => acc
            .par_chunks_mut(per_sample)
            .zip(samples)
            .enumerate()
            .for_each(|(s, (a, x))| b.sample(s, x, src, a, None)),
    }

    let mut gw = vec![0.0f32; c_out * k];
    let mut gb = vec![0.0f32; c_out];
    // Each weight's offset in a sample's accumulator, worked out once.
    let (lane_step, co_step) = b.gw_strides();
    let at: Vec<usize> = (0..k).map(|p| g.lane(p) * lane_step).collect();
    for a in acc.chunks_exact(per_sample) {
        let (sw, sb) = a.split_at(b.gw_len());
        for (co, row) in gw.chunks_exact_mut(k).enumerate() {
            for (d, &at) in row.iter_mut().zip(&at) {
                *d += sw[at + co * co_step];
            }
        }
        for (d, s) in gb.iter_mut().zip(sb) {
            *d += s;
        }
    }
    scratch::release(acc);
    if let BackwardPath::Direct {
        panels: Some(panels),
    } = b.path
    {
        scratch::release(panels);
    }

    Conv2dGrads {
        input: gx.map(|gx| Tensor::from_vec([n, c_in, h, w], gx).expect("grad input size")),
        weight: Tensor::from_vec([c_out, c_in, kh, kw], gw).expect("grad weight size"),
        bias: Tensor::from_vec([c_out], gb).expect("grad bias size"),
    }
}

/// Convolution backward pass from the gradient w.r.t. the convolution's
/// output: gradients w.r.t. input, weight and bias.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> Conv2dGrads {
    let (n, _, h, w) = input.shape().nchw();
    let (c_out, _, kh, kw) = weight.shape().nchw();
    assert_eq!(
        grad_out.dims(),
        &[
            n,
            c_out,
            out_dim(h, kh, stride, pad),
            out_dim(w, kw, stride, pad)
        ],
        "conv2d_backward: grad_out shape mismatch"
    );
    backward(
        input,
        weight,
        (stride, pad),
        OutGrad::Dense(grad_out.data()),
        true,
        Pick::Route,
    )
}

/// Backward pass of the C–P unit, [`conv2d_relu_pool_tracked`]: from the
/// gradient `grad_out` w.r.t. its pooled output, given the forward's input,
/// pooled output and argmax, the gradients w.r.t. weight, bias and — when
/// `input_grad` — input (`None` otherwise, and never computed).
///
/// Bit for bit equal to `max_pool2d_backward`, then the ReLU mask
/// `activation > 0`, then [`conv2d_backward`], but each sample's
/// full-resolution gradient lives only in a per-thread scratch buffer.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_relu_pool_backward(
    input: &Tensor,
    weight: &Tensor,
    pooled: &Tensor,
    saved: &MaxIndices,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    input_grad: bool,
) -> Conv2dGrads {
    let (n, _, h, w) = input.shape().nchw();
    let (c_out, _, kh, kw) = weight.shape().nchw();
    let (oh, ow) = (out_dim(h, kh, stride, pad), out_dim(w, kw, stride, pad));
    assert_eq!(
        saved.input_dims,
        [n, c_out, oh, ow],
        "conv2d_relu_pool_backward: argmax is not this convolution's"
    );
    assert_eq!(
        pooled.dims(),
        &saved.output_dims,
        "conv2d_relu_pool_backward: pooled shape mismatch"
    );
    assert_eq!(
        grad_out.dims(),
        &saved.output_dims,
        "conv2d_relu_pool_backward: grad shape mismatch"
    );
    let src = OutGrad::Pooled {
        go: grad_out.data(),
        y: pooled.data(),
        winners: &saved.indices,
    };
    backward(input, weight, (stride, pad), src, input_grad, Pick::Route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_ep;
    use crate::grad_check::numeric_grad;
    use crate::pool::{max_pool2d, max_pool2d_backward};
    use crate::rng::SeededRng;

    /// Unpacks one sample `[C, H, W]` into im2col columns `[C·KH·KW,
    /// OH·OW]` (row-major, column index = oy·OW + ox); `cols` must be
    /// zeroed, padding positions are skipped.
    fn im2col_into(x: &[f32], g: &Geom, cols: &mut [f32]) {
        let ospatial = g.oh * g.ow;
        let mut rows = cols.chunks_exact_mut(ospatial);
        for ci in 0..g.c {
            for ki in 0..g.kh {
                for kj in 0..g.kw {
                    let dst = rows.next().expect("one im2col row per tap");
                    for oy in 0..g.oh {
                        let Some(iy) = g.in_row(oy, ki) else {
                            continue;
                        };
                        let src_row = &x[(ci * g.h + iy) * g.w..(ci * g.h + iy + 1) * g.w];
                        for ox in g.in_cols(kj) {
                            dst[oy * g.ow + ox] = src_row[ox * g.stride + kj - g.pad];
                        }
                    }
                }
            }
        }
    }

    /// The geometry of `conv2d(x, w, .., stride, pad)`.
    fn geom(x: &Tensor, w: &Tensor, stride: usize, pad: usize) -> Geom {
        let (_, c, h, wd) = x.shape().nchw();
        let (_, _, kh, kw) = w.shape().nchw();
        Geom {
            c,
            h,
            w: wd,
            kh,
            kw,
            stride,
            pad,
            oh: out_dim(h, kh, stride, pad),
            ow: out_dim(wd, kw, stride, pad),
        }
    }

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
        let gx = conv2d_backward(&x, &w, &go, 1, 1).input.unwrap();

        let num = numeric_grad(&x, 1e-2, |xp| conv2d(xp, &w, &b, 1, 1).sum());
        assert!(
            gx.max_abs_diff(&num) < 0.05,
            "analytic vs numeric input grad diff {}",
            gx.max_abs_diff(&num)
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
        let gx = conv2d_backward(&x, &w, &go, 2, 0).input.unwrap();
        let num = numeric_grad(&x, 1e-2, |xp| conv2d(xp, &w, &b, 2, 0).sum());
        assert!(gx.max_abs_diff(&num) < 0.05);
    }

    /// The fused forward's arithmetic, spelled out: [`im2col_into`], then
    /// one `mul_add` chain per output element over `p` ascending from
    /// `+0.0`, plus the bias (the pre-activation).
    fn conv_oracle(x: &Tensor, w: &Tensor, b: &Tensor, stride: usize, pad: usize) -> Vec<f32> {
        let g = geom(x, w, stride, pad);
        let (k, os) = (g.c * g.kh * g.kw, g.oh * g.ow);
        let mut out = Vec::new();
        for xs in x.data().chunks(g.c * g.h * g.w) {
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

    /// Runs `f` on the pool, or forced sequential.
    fn on<R>(sequential: bool, f: impl FnOnce() -> R) -> R {
        if sequential {
            rayon::force_sequential(f)
        } else {
            f()
        }
    }

    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: size");
        for (e, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {e}: {g} vs {w}");
        }
    }

    /// The 2×2/2 window max of a `[n, c, oh, ow]` activation, spelled out:
    /// a row-major scan from `-inf` with a strict `>`, floor for odd sizes.
    fn pool_oracle(act: &[f32], (n, c, oh, ow): (usize, usize, usize, usize)) -> Vec<f32> {
        let mut out = Vec::new();
        for plane in act.chunks(oh * ow).take(n * c) {
            for py in 0..oh / 2 {
                for px in 0..ow / 2 {
                    let (y, x) = (2 * py, 2 * px);
                    let window = [(y, x), (y, x + 1), (y + 1, x), (y + 1, x + 1)];
                    let best = window.iter().fold(f32::NEG_INFINITY, |best, &(iy, ix)| {
                        let v = plane[iy * ow + ix];
                        if v > best {
                            v
                        } else {
                            best
                        }
                    });
                    out.push(best);
                }
            }
        }
        out
    }

    /// Checks `conv2d`, `conv2d_relu` and both `conv2d_relu_pool` variants
    /// against [`conv_oracle`] (→ ReLU → [`pool_oracle`]) bit for bit at
    /// batch 1 and 3, on the pool and forced sequential. The tracked
    /// variant's argmax must equal `max_pool2d`'s on the oracle activation.
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
        let (oh, ow) = (
            out_dim(hw.0, kernel, stride, pad),
            out_dim(hw.1, kernel, stride, pad),
        );
        for batch in [1, 3] {
            let x = Tensor::randn([batch, c_in, hw.0, hw.1], 0.0, 1.0, &mut rng);
            let pre = conv_oracle(&x, &w, &b, stride, pad);
            let act: Vec<f32> = pre.iter().map(|&y| if y > 0.0 { y } else { 0.0 }).collect();
            let pooled = pool_oracle(&act, (batch, c_out, oh, ow));
            let act_t = Tensor::from_vec([batch, c_out, oh, ow], act.clone()).unwrap();
            let (_, want_ix) = crate::pool::max_pool2d(&act_t, 2, 2);
            for sequential in [false, true] {
                let mode = if sequential { "sequential" } else { "pool" };
                let what = |kernel_fn: &str| {
                    format!(
                        "{kernel_fn} c_in={c_in} {hw:?} k={kernel} s={stride} p={pad} batch={batch} {mode}"
                    )
                };
                let got = on(sequential, || conv2d(&x, &w, &b, stride, pad));
                assert_bits(got.data(), &pre, &what("conv2d"));
                let got = on(sequential, || conv2d_relu(&x, &w, &b, stride, pad));
                assert_bits(got.data(), &act, &what("conv2d_relu"));
                let got = on(sequential, || conv2d_relu_pool(&x, &w, &b, stride, pad));
                assert_eq!(
                    got.dims(),
                    &[batch, c_out, oh / 2, ow / 2],
                    "{}",
                    what("dims")
                );
                assert_bits(got.data(), &pooled, &what("conv2d_relu_pool"));
                let (got, ix) = on(sequential, || {
                    conv2d_relu_pool_tracked(&x, &w, &b, stride, pad)
                });
                assert_bits(got.data(), &pooled, &what("conv2d_relu_pool_tracked"));
                assert_eq!(ix.indices, want_ix.indices, "{}", what("argmax"));
                assert_eq!(ix.input_dims, want_ix.input_dims);
                assert_eq!(ix.output_dims, want_ix.output_dims);
                for (name, ps) in position_sets(oh, ow) {
                    let got = on(sequential, || {
                        conv2d_relu_at(&x, &w, &b, (stride, pad), &ps)
                    });
                    assert_eq!(got.dims(), &[batch, c_out, ps.len()]);
                    let want: Vec<f32> = act
                        .chunks(oh * ow)
                        .flat_map(|plane| ps.iter().map(|&p| plane[p]))
                        .collect();
                    assert_bits(got.data(), &want, &what(&format!("conv2d_relu_at {name}")));
                }
            }
        }
    }

    /// Output-position lists for [`conv2d_relu_at`]: the one-pixel border
    /// ring row-major (runs broken at every row), every third position
    /// backwards, and every position.
    fn position_sets(oh: usize, ow: usize) -> Vec<(&'static str, Vec<usize>)> {
        let ring = (0..oh * ow)
            .filter(|p| {
                let (y, x) = (p / ow, p % ow);
                y == 0 || x == 0 || y + 1 == oh || x + 1 == ow
            })
            .collect();
        vec![
            ("ring", ring),
            (
                "every third, reversed",
                (0..oh * ow).rev().step_by(3).collect(),
            ),
            ("all", (0..oh * ow).collect()),
        ]
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn conv2d_relu_at_rejects_positions_off_the_map() {
        let x = Tensor::ones([1, 1, 4, 4]);
        let (w, b) = (Tensor::ones([1, 1, 3, 3]), Tensor::zeros([1]));
        conv2d_relu_at(&x, &w, &b, (1, 1), &[16]);
    }

    #[test]
    fn fused_forward_matches_im2col_chain_oracle_bitwise() {
        // More threads than the batch, so batch 1 and 3 both split slabs.
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
        // conv3's 25×25 output pools to 12×12, dropping the last row and
        // column; batch 1 shares its slabs out between 4 threads.
        assert_matches_oracle(16, (25, 25), 40, 3, 1, 1);
    }

    /// The backward route the fused kernel replaced, spelled out per sample
    /// from the gradient `gy` w.r.t. the convolution output: im2col, then
    /// `gw += gy·colsᵀ` and `gcols = Wᵀ·gy` through `gemm_ep`, bias row
    /// sums, and an element-at-a-time col2im; weight and bias gradients
    /// summed over samples in sample order. Returns `(gx, gw, gb)`.
    fn backward_oracle(
        x: &Tensor,
        w: &Tensor,
        gy: &[f32],
        stride: usize,
        pad: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let g = geom(x, w, stride, pad);
        let (c_out, k, os) = (w.dims()[0], g.c * g.kh * g.kw, g.oh * g.ow);
        let sample_in = g.c * g.h * g.w;
        let (mut gx, mut gw, mut gb) = (Vec::new(), vec![0.0f32; c_out * k], vec![0.0; c_out]);
        for (xs, go) in x.data().chunks(sample_in).zip(gy.chunks(c_out * os)) {
            let mut cols = vec![0.0f32; k * os];
            im2col_into(xs, &g, &mut cols);
            let mut sgw = vec![0.0f32; c_out * k];
            let ep = Epilogue::Accumulate;
            gemm_ep(go, Trans::No, &cols, Trans::Yes, &mut sgw, c_out, os, k, ep);
            let mut gcols = vec![0.0f32; k * os];
            let ep = Epilogue::Store;
            gemm_ep(
                w.data(),
                Trans::Yes,
                go,
                Trans::No,
                &mut gcols,
                k,
                c_out,
                os,
                ep,
            );
            let mut sgx = vec![0.0f32; sample_in];
            let mut rows = gcols.chunks_exact(os);
            for ci in 0..g.c {
                for ki in 0..g.kh {
                    for kj in 0..g.kw {
                        let src = rows.next().unwrap();
                        for oy in 0..g.oh {
                            let Some(iy) = g.in_row(oy, ki) else {
                                continue;
                            };
                            for ox in g.in_cols(kj) {
                                let ix = ox * g.stride + kj - g.pad;
                                sgx[(ci * g.h + iy) * g.w + ix] += src[oy * g.ow + ox];
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

    /// Checks [`conv2d_backward`] against [`backward_oracle`], and
    /// [`conv2d_relu_pool_backward`] (both variants) against it fed by the
    /// unfused route's gradient — `max_pool2d_backward` over the full
    /// activation, then the ReLU mask — bit for bit at batch 1 and 3, on
    /// the pool and forced sequential.
    fn assert_backward_matches_oracle(
        c_in: usize,
        hw: (usize, usize),
        c_out: usize,
        kernel: usize,
        stride: usize,
    ) {
        let pad = kernel / 2;
        let mut rng = SeededRng::new((c_in * 1000 + c_out * 10 + kernel) as u64);
        let w = Tensor::randn([c_out, c_in, kernel, kernel], 0.0, 0.3, &mut rng);
        // Negative biases leave whole windows non-positive: pooled +0.0,
        // so their (partly negative) gradients are masked to ±0.
        let b = Tensor::randn([c_out], -0.2, 0.5, &mut rng);
        for batch in [1, 3] {
            let x = Tensor::randn([batch, c_in, hw.0, hw.1], 0.0, 1.0, &mut rng);
            let y = conv2d(&x, &w, &b, stride, pad);
            let dense = Tensor::randn(y.shape().clone(), 0.0, 1.0, &mut rng);
            let act = conv2d_relu(&x, &w, &b, stride, pad);
            let (pooled, ix) = max_pool2d(&act, 2, 2);
            let go = Tensor::randn(pooled.shape().clone(), 0.0, 1.0, &mut rng);
            let mut masked = max_pool2d_backward(&go, &ix);
            for (g, &a) in masked.data_mut().iter_mut().zip(act.data()) {
                *g *= f32::from(a > 0.0);
            }
            let want_dense = backward_oracle(&x, &w, dense.data(), stride, pad);
            let want_pooled = backward_oracle(&x, &w, masked.data(), stride, pad);
            for sequential in [false, true] {
                let mode = if sequential { "sequential" } else { "pool" };
                let what = |f: &str, grad: &str| {
                    format!("{f} {grad} c_in={c_in} {hw:?} c_out={c_out} k={kernel} s={stride} batch={batch} {mode}")
                };
                let check = |f: &str, got: &Conv2dGrads, want: &(Vec<f32>, Vec<f32>, Vec<f32>)| {
                    if let Some(gx) = &got.input {
                        assert_eq!(gx.dims(), x.dims());
                        assert_bits(gx.data(), &want.0, &what(f, "input"));
                    }
                    assert_eq!(got.weight.dims(), w.dims());
                    assert_bits(got.weight.data(), &want.1, &what(f, "weight"));
                    assert_bits(got.bias.data(), &want.2, &what(f, "bias"));
                };
                let got = on(sequential, || conv2d_backward(&x, &w, &dense, stride, pad));
                assert!(got.input.is_some());
                check("conv2d_backward", &got, &want_dense);
                for input_grad in [true, false] {
                    let got = on(sequential, || {
                        conv2d_relu_pool_backward(
                            &x, &w, &pooled, &ix, &go, stride, pad, input_grad,
                        )
                    });
                    assert_eq!(got.input.is_some(), input_grad);
                    check("conv2d_relu_pool_backward", &got, &want_pooled);
                }
            }
        }
    }

    #[test]
    fn fused_backward_matches_unfused_route_oracle_bitwise() {
        // More threads than the batch.
        rayon::ensure_threads(4);
        // The nas-trial C–P blocks (C16-C32-C48 on 64×64 patches): conv1's
        // k = 36 and 4096 positions (16 KC slices), conv2's k = 144, conv3's
        // k = 288 with 256 positions (one slice).
        assert_backward_matches_oracle(4, (64, 64), 16, 3, 1);
        assert_backward_matches_oracle(16, (32, 32), 32, 3, 1);
        assert_backward_matches_oracle(32, (16, 16), 48, 3, 1);
        // A 25×25 output pools to 12×12, dropping its last row and column;
        // 625 positions leave a ragged third slice, and c_out = 20 ragged
        // panels on either side of the tile.
        assert_backward_matches_oracle(8, (25, 25), 20, 3, 1);
        // 1×1 and 5×5 kernels (k = 5 and 125, ragged panels), odd and
        // non-square sizes; 7-wide outputs split slices mid-row.
        assert_backward_matches_oracle(5, (11, 7), 3, 1, 1);
        assert_backward_matches_oracle(5, (9, 13), 7, 5, 1);
        // Stride 2 packs strided runs.
        assert_backward_matches_oracle(3, (12, 10), 6, 3, 2);
    }

    #[test]
    fn weight_grad_tile_picks_the_cheaper_orientation() {
        // Either orientation gives the same bits; the accumulator indexing
        // must follow whichever runs, and the padded tile area decides.
        for (c_out, k) in [
            (16, 36),
            (32, 144),
            (48, 288),
            (3, 5),
            (64, 576),
            (4, 36),
            (72, 576),
        ] {
            let t = GwTile::new(c_out, k);
            assert_eq!((t.m, t.n), if t.cols_lhs { (k, c_out) } else { (c_out, k) });
            assert!(t.ld >= t.n && t.ld.is_multiple_of(t.tile.1));
            assert_eq!(t.len % t.ld, 0);
            assert!(t.len / t.ld >= t.m && (t.len / t.ld).is_multiple_of(t.tile.0));
            let mut seen = vec![false; t.len];
            for co in 0..c_out {
                for p in 0..k {
                    assert!(!std::mem::replace(&mut seen[t.at(co, p)], true));
                }
            }
        }
    }

    #[test]
    fn direct_and_packed_routes_agree_bitwise() {
        // More threads than the batch: batch 1 shares its panels out.
        // Inputs of fewer than 8 channels differ between the routes only
        // in the forward and the parameter-only backward.
        rayon::ensure_threads(4);
        let shapes = [
            (4, (13, 11), 16, 3, 3),
            (3, (9, 14), 24, 5, 1),
            (16, (8, 8), 48, 1, 2),
            (1, (7, 9), 64, 9, 1),
            (32, (6, 5), 8, 7, 20),
            (4, (20, 20), 4, 3, 1),
            // Wider than the direct weight gradient: only the forward
            // differs between the routes.
            (8, (10, 12), 72, 3, 2),
        ];
        // Same convolutions, and valid ones (pad 0) where the map allows.
        let padded = shapes
            .into_iter()
            .flat_map(|(c_in, (h, w), c_out, kernel, batch)| {
                let pads = if kernel == 1 || kernel >= h.min(w) {
                    vec![kernel / 2]
                } else {
                    vec![kernel / 2, 0]
                };
                pads.into_iter()
                    .map(move |pad| (c_in, (h, w), c_out, kernel, batch, pad))
            });
        for (c_in, (h, w), c_out, kernel, batch, pad) in padded {
            let (oh, ow) = (out_dim(h, kernel, 1, pad), out_dim(w, kernel, 1, pad));
            let mut rng = SeededRng::new((c_in * 100 + c_out + kernel) as u64);
            let x = Tensor::randn([batch, c_in, h, w], 0.0, 1.0, &mut rng);
            let wt = Tensor::randn([c_out, c_in, kernel, kernel], 0.0, 0.3, &mut rng);
            let b = Tensor::randn([c_out], -0.2, 0.5, &mut rng);
            let dense = Tensor::randn([batch, c_out, oh, ow], 0.0, 1.0, &mut rng);
            let go = Tensor::randn([batch, c_out, oh / 2, ow / 2], 0.0, 1.0, &mut rng);
            let run = |pick: Pick| {
                let conv = conv2d_fused(&x, &wt, &b, (1, pad), false, pick);
                let relu = conv2d_fused(&x, &wt, &b, (1, pad), true, pick);
                let untracked = conv_relu_pool(&x, &wt, &b, (1, pad), false, pick).0;
                let (pooled, ix) = conv_relu_pool(&x, &wt, &b, (1, pad), true, pick);
                let ix = ix.unwrap();
                let dense = backward(&x, &wt, (1, pad), OutGrad::Dense(dense.data()), true, pick);
                let src = OutGrad::Pooled {
                    go: go.data(),
                    y: pooled.data(),
                    winners: &ix.indices,
                };
                let params = backward(&x, &wt, (1, pad), src, false, pick);
                let full = backward(&x, &wt, (1, pad), src, true, pick);
                (conv, relu, untracked, pooled, ix, [dense, params, full])
            };
            let (packed, direct) = (run(Pick::Packed), run(Pick::Direct));
            let what = |f: &str| {
                format!("{f} c_in={c_in} {h}x{w} c_out={c_out} k={kernel} pad={pad} batch={batch}")
            };
            assert_bits(direct.0.data(), packed.0.data(), &what("conv2d"));
            assert_bits(direct.1.data(), packed.1.data(), &what("conv2d_relu"));
            assert_bits(direct.2.data(), packed.2.data(), &what("conv2d_relu_pool"));
            assert_bits(
                direct.3.data(),
                packed.3.data(),
                &what("conv2d_relu_pool_tracked"),
            );
            assert_eq!(direct.4.indices, packed.4.indices, "{}", what("argmax"));
            for (d, p) in direct.5.iter().zip(&packed.5) {
                assert_eq!(d.input.is_some(), p.input.is_some());
                if let (Some(d), Some(p)) = (&d.input, &p.input) {
                    assert_bits(d.data(), p.data(), &what("input grad"));
                }
                assert_bits(d.weight.data(), p.weight.data(), &what("weight grad"));
                assert_bits(d.bias.data(), p.bias.data(), &what("bias grad"));
            }
        }
    }
}
