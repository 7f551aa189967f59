//! Pack-free direct convolution for narrow stride-1 layers.
//!
//! In a narrow layer every im2col element the packed path writes feeds
//! only 4–64 output rows, so packing costs about as much as the FMAs it
//! feeds. The direct path packs no pixel:
//!
//! * **Forward.** In the zero-padded image, tap `(ci, ki, kj)` of the
//!   pixels along an output row is one contiguous run, at a fixed offset
//!   from the pixels themselves. An 8-channel × 48-pixel register tile
//!   ([`crate::gemm::direct_tile`]) loads each tap's run as vectors
//!   straight from the image and broadcasts the weights from panels
//!   rearranged once per call. It sweeps every padded-width pixel from the
//!   first output pixel to the last (the `wp − ow` pixels past each row
//!   are computed and dropped) into an NCHW scratch activation, which is
//!   copied out row by row or 2×2-pooled 16 windows at a time
//!   ([`crate::gemm::max_pool2x2_x16`]).
//! * **Weight gradient.** The pooled gradient is scattered channel-last
//!   (`[OH·OW, C_out]`), and per-(tap, 16-lane) accumulators chain over
//!   the output positions in ascending order, broadcasting each tap's
//!   input from a channel-last padded image, where a kernel row's taps are
//!   one contiguous run ([`crate::gemm::direct_gw_tile`]).
//! * **Input gradient.** Tap `(ki, kj)` of `Wᵀ·gy` is a 1×1 convolution of
//!   the zero-padded output gradient at the tap's offset, so the same
//!   forward tile forms it and adds it onto the input gradient tap by tap,
//!   in col2im's `(ki, kj)` order — no `Wᵀ·gy` columns, no col2im pass.
//!
//! Every element keeps the packed path's arithmetic: each output its
//! `mul_add` chain over the taps, bias add and ReLU; each pooled element
//! its window scan and argmax; each weight-gradient element its chain over
//! positions and each input-gradient element its sum over taps. The two
//! paths agree bit for bit, and [`route`] picks between them on speed
//! alone.

use super::{Geom, POOL_2X2};
use crate::gemm::{direct_gw_tile, direct_tile, max_pool2x2_x16, DirectWindow, TileOut, PAR_WORK};
use crate::scratch;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// Widest layer the direct weight gradient runs: four 16-lane groups of
/// accumulators per tap.
pub(super) const MAX_C_OUT: usize = 64;

/// Whether a forward convolution of geometry `g` runs the direct path:
/// every stride-1 layer on AVX-512 builds, where its zmm tile beat the
/// packed path on every shape measured, wide layers included (DESIGN.md,
/// "Pack-free direct convolution"). Elsewhere the tile's 24 accumulators
/// would need 48 ymm registers of the 16 there are, so the packed path's
/// 6×16 tiles run.
pub(super) fn route(g: &Geom) -> bool {
    cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) && g.stride == 1
}

/// Whether a backward convolution into `c_out` channels, with its input
/// gradient when `input_grad`, runs direct: a forward-routed layer that
/// [`backward_fits`].
pub(super) fn backward_route(g: &Geom, c_out: usize, input_grad: bool) -> bool {
    route(g) && backward_fits(g, c_out, input_grad)
}

/// Whether the direct backward takes a layer: at most [`MAX_C_OUT`]
/// output channels (wider ones keep the packed weight gradient) and, when
/// the input gradient is wanted, enough input channels to fill a tile's
/// `MR` rows. With fewer (conv1's 4 bands) half the tile idles and the
/// packed `Wᵀ·gy` GEMM with col2im is faster (C4→64 at 64×64, batch 20:
/// 4.2–4.9 ms packed against 5.6–6.5 ms direct), so such a backward runs
/// packed whole. Training asks conv1 for its weight gradient only, which
/// stays direct.
pub(super) fn backward_fits(g: &Geom, c_out: usize, input_grad: bool) -> bool {
    // The padded gradient needs `kh − 1 − pad ≥ 0` rows above the map.
    let input_fits = g.c >= MR && g.pad < g.kh && g.pad < g.kw;
    c_out <= MAX_C_OUT && (!input_grad || input_fits)
}

/// 16-lane channel groups for `c_out` channels.
fn groups(c_out: usize) -> usize {
    c_out.div_ceil(16)
}

/// Channels per forward tile.
const MR: usize = 8;
/// 16-lane pixel vectors per forward tile: 8 channels × 48 pixels is 24
/// zmm accumulators, with the three pixel vectors and the weight broadcast
/// 28 of the 32 registers, and each tap's 11 loads feed 24 FMAs.
const TILE_Z: usize = 3;
/// Pixels per forward tile.
const TILE_PX: usize = 16 * TILE_Z;

/// A 64-byte-aligned window of `len` floats in a scratch buffer taken with
/// 15 floats to spare, so 16-lane vectors at multiples of 16 load and
/// store within one cache line.
fn aligned(buf: &mut [f32], len: usize) -> &mut [f32] {
    let at = buf.as_ptr().align_offset(64).min(15);
    &mut buf[at..at + len]
}

/// One direct forward call's shared state.
pub(super) struct DirectForward {
    g: Geom,
    c_out: usize,
    k: usize,
    win: DirectWindow,
    /// The weights as `MR`-row panels, each tap-major (`[k][MR]`), rows
    /// past `c_out` zero.
    panels: Vec<f32>,
    /// The bias, zero past `c_out` (a scratch buffer).
    bias: Vec<f32>,
    relu: bool,
    /// Tiles a sample computes: every padded-width pixel `oy·wp + ox` from
    /// the first output pixel to the last, in whole tiles. The `wp − ow`
    /// pixels past each output row are computed and never read.
    tiles: usize,
    /// Fewer samples than threads: each sample's panels are shared out.
    split: bool,
}

impl DirectForward {
    pub(super) fn new(g: Geom, weight: &Tensor, bias: &Tensor, relu: bool, n: usize) -> Self {
        let c_out = weight.dims()[0];
        assert_eq!(g.stride, 1, "direct convolution of a strided layer");
        let k = g.c * g.kh * g.kw;
        let (hp, wp) = (g.h + 2 * g.pad, g.w + 2 * g.pad);
        let npanels = c_out.div_ceil(MR);
        let mut panels = scratch::take(npanels * k * MR);
        for (co, row) in weight.data().chunks_exact(k).enumerate() {
            let panel = &mut panels[co / MR * k * MR..];
            for (p, &v) in row.iter().enumerate() {
                panel[p * MR + co % MR] = v;
            }
        }
        let mut lanes = scratch::take(npanels * MR);
        lanes[..c_out].copy_from_slice(bias.data());
        let pixels = (g.oh - 1) * wp + g.ow;
        let threads = rayon::current_num_threads();
        DirectForward {
            g,
            c_out,
            k,
            win: DirectWindow::new(g.c, (g.kh, g.kw), (hp, wp)),
            panels,
            bias: lanes,
            relu,
            tiles: pixels.div_ceil(TILE_PX),
            split: n < threads && npanels > 1 && c_out * k * g.oh * g.ow >= PAR_WORK,
        }
    }

    /// Floats of one channel's plane of a sample's activation.
    fn plane(&self) -> usize {
        self.tiles * TILE_PX
    }

    /// Convolves one sample `x` into `act`, `[C_out in whole panels][plane]`
    /// (whatever it held): channel `co`'s pixel `(oy, ox)` at `co·plane +
    /// oy·wp + ox`.
    fn activation(&self, x: &[f32], act: &mut [f32]) {
        let g = self.g;
        let padded = g.c * (g.h + 2 * g.pad) * (g.w + 2 * g.pad);
        // The last tile's pixels past the map read up to a tile past the
        // padded image: zeros, and their outputs are never read.
        let mut xp = scratch::take_overwrite(padded + TILE_PX);
        super::pad_into(x, &g, &mut xp[..padded]);
        xp[padded..].fill(0.0);
        let (k, plane) = (self.k, self.plane());
        let tile = |j: usize, t: usize, out: &mut [f32]| {
            let panel = &self.panels[j * k * MR..(j + 1) * k * MR];
            let ep = TileOut::Bias(&self.bias[j * MR..(j + 1) * MR], self.relu);
            direct_tile::<MR, TILE_Z>(&xp, t * TILE_PX, &self.win, panel, ep, out, plane);
        };
        let act = &mut act[..self.c_out.div_ceil(MR) * MR * plane];
        if self.split {
            act.par_chunks_mut(MR * plane)
                .enumerate()
                .for_each(|(j, out)| {
                    for t in 0..self.tiles {
                        tile(j, t, &mut out[t * TILE_PX..]);
                    }
                });
        } else {
            // Tile-major, so a tile's pixels stay in L1 for every panel.
            for t in 0..self.tiles {
                for (j, out) in act.chunks_mut(MR * plane).enumerate() {
                    tile(j, t, &mut out[t * TILE_PX..]);
                }
            }
        }
        scratch::release(xp);
    }

    /// Runs [`Self::activation`] on a fresh scratch buffer and hands it
    /// (an [`aligned`] window, with 32 floats past the last plane that the
    /// pool's last vectors may read) to `f`.
    fn with_activation(&self, x: &[f32], f: impl FnOnce(&[f32])) {
        let len = self.c_out.div_ceil(MR) * MR * self.plane() + 32;
        let mut buf = scratch::take_overwrite(len + 15);
        let act = aligned(&mut buf, len);
        self.activation(x, act);
        f(act);
        scratch::release(buf);
    }

    /// Convolves one sample `x` into `o` (`[C_out, OH, OW]`), writing every
    /// element.
    pub(super) fn sample(&self, x: &[f32], o: &mut [f32]) {
        let (g, plane) = (self.g, self.plane());
        let wp = g.w + 2 * g.pad;
        self.with_activation(x, |act| {
            for (co, out) in o.chunks_exact_mut(g.oh * g.ow).enumerate() {
                for (oy, row) in out.chunks_exact_mut(g.ow).enumerate() {
                    row.copy_from_slice(&act[co * plane + oy * wp..][..g.ow]);
                }
            }
        });
    }

    /// Convolves one sample `x` and 2×2/2-pools it into `o` (`[C_out,
    /// OH/2, OW/2]`); `winners`, when given, receives each pooled element's
    /// argmax as a linear index into the NCHW activation, offset by `base`
    /// — the window scan and index of the packed path's pool.
    pub(super) fn sample_pooled(
        &self,
        x: &[f32],
        o: &mut [f32],
        mut winners: Option<&mut [usize]>,
        base: usize,
    ) {
        let (g, plane) = (self.g, self.plane());
        let wp = g.w + 2 * g.pad;
        let (ph, pw) = (POOL_2X2.out_dim(g.oh), POOL_2X2.out_dim(g.ow));
        self.with_activation(x, |act| {
            for co in 0..self.c_out {
                for py in 0..ph {
                    let y = 2 * py;
                    let row = &act[co * plane + y * wp..];
                    // 16 windows at a time; a ragged last group reads past
                    // the row, and keeps only its own windows.
                    for x0 in (0..pw).step_by(16) {
                        let len = (pw - x0).min(16);
                        let at = |r: usize| -> &[f32; 32] {
                            row[r * wp + 2 * x0..][..32].try_into().expect("32 pixels")
                        };
                        let (best, sel) = max_pool2x2_x16(at(0), at(1));
                        let olin = (co * ph + py) * pw + x0;
                        o[olin..olin + len].copy_from_slice(&best[..len]);
                        if let Some(ix) = winners.as_deref_mut() {
                            let top = base + (co * g.oh + y) * g.ow + 2 * x0;
                            let dst = &mut ix[olin..olin + len];
                            for (t, (d, &s)) in dst.iter_mut().zip(&sel).enumerate() {
                                let s = s as usize;
                                *d = top + 2 * t + (s & 1) + (s >> 1) * g.ow;
                            }
                        }
                    }
                }
            }
        });
    }
}

impl Drop for DirectForward {
    fn drop(&mut self) {
        scratch::release(std::mem::take(&mut self.panels));
        scratch::release(std::mem::take(&mut self.bias));
    }
}

/// Tap counts a weight-gradient tile may have for `z` channel groups: `T`
/// accumulator rows of `z` zmm each, the gradient row and the broadcast
/// within the 32 zmm registers (the largest first).
fn gw_taps(z: usize) -> &'static [usize] {
    match z {
        1 => &[24, 16, 12, 8, 4],
        2 => &[12, 8, 4],
        3 => &[8, 4],
        _ => &[6, 4],
    }
}

/// Runs `direct_gw_tile` with `t` taps for `z` channel groups.
fn run_gw_tile(
    (t, z): (usize, usize),
    xh: &[f32],
    map: (usize, usize),
    steps: (usize, usize),
    gy: (&[f32], usize),
    out: &mut [f32],
) {
    let out = &mut out[..t * 16 * z];
    match (t, z) {
        (24, 1) => direct_gw_tile::<24, 1>(xh, map, steps, gy, out),
        (16, 1) => direct_gw_tile::<16, 1>(xh, map, steps, gy, out),
        (12, 1) => direct_gw_tile::<12, 1>(xh, map, steps, gy, out),
        (8, 1) => direct_gw_tile::<8, 1>(xh, map, steps, gy, out),
        (4, 1) => direct_gw_tile::<4, 1>(xh, map, steps, gy, out),
        (12, 2) => direct_gw_tile::<12, 2>(xh, map, steps, gy, out),
        (8, 2) => direct_gw_tile::<8, 2>(xh, map, steps, gy, out),
        (4, 2) => direct_gw_tile::<4, 2>(xh, map, steps, gy, out),
        (8, 3) => direct_gw_tile::<8, 3>(xh, map, steps, gy, out),
        (4, 3) => direct_gw_tile::<4, 3>(xh, map, steps, gy, out),
        (6, 4) => direct_gw_tile::<6, 4>(xh, map, steps, gy, out),
        (4, 4) => direct_gw_tile::<4, 4>(xh, map, steps, gy, out),
        _ => unreachable!("direct weight-gradient tile {t}x{z}"),
    }
}

/// How a kernel row's `run = kw·c` taps split into weight-gradient tiles:
/// `(t, starts)` — as few `t`-tap tiles as the widest allowed tile needs,
/// each as narrow as covers the run; the last starts `run − t` so tiles
/// overlap rather than overhang (recomputing the same chains), unless the
/// run is narrower than any tile.
fn gw_pieces(z: usize, run: usize) -> (usize, impl Iterator<Item = usize> + Clone) {
    let taps = gw_taps(z);
    let pieces = run.div_ceil(taps[0]);
    let need = run.div_ceil(pieces);
    let t = *taps
        .iter()
        .rev()
        .find(|&&t| t >= need)
        .expect("widest tile");
    let starts = (0..pieces).map(move |i| (i * t).min(run.saturating_sub(t)));
    (t, starts)
}

/// The gradient w.r.t. one sample's convolution output, channel-last:
/// position `j = oy·OW + ox`, channel `co` at `j·c_out + co` — `[OH·OW,
/// C_out]`, the transpose of the NCHW gradient, plus `16·z − c_out` floats
/// of zeros so the tiles' last `16·z`-lane load stays in bounds.
pub(super) fn gy_len(g: &Geom, c_out: usize) -> usize {
    g.oh * g.ow * c_out + 16 * groups(c_out) - c_out
}

/// Writes `go`'s `[C_out, OH, OW]` gradient channel-last into `gy` (see
/// [`gy_len`]), every element.
pub(super) fn transpose_gy(go: &[f32], g: &Geom, c_out: usize, gy: &mut [f32]) {
    let os = g.oh * g.ow;
    for (co, plane) in go.chunks_exact(os).take(c_out).enumerate() {
        for (j, &v) in plane.iter().enumerate() {
            gy[j * c_out + co] = v;
        }
    }
    gy[os * c_out..].fill(0.0);
}

/// [`crate::pool::relu_pool2x2_backward_sample`] into the channel-last
/// layout of [`gy_len`]: every element of `gy` is written, each winner
/// `(0 + g)·[y > 0]` and every other position `+0.0`.
pub(super) fn relu_pool_backward_hwc(
    (go, y, winners): (&[f32], &[f32], &[usize]),
    base: usize,
    g: &Geom,
    c_out: usize,
    gy: &mut [f32],
) {
    let (h, w) = (g.oh, g.ow);
    let (ph, pw) = (h / 2, w / 2);
    gy.fill(0.0);
    for ci in 0..c_out {
        for py in 0..ph {
            let o = (ci * ph + py) * pw..(ci * ph + py + 1) * pw;
            // A winner's offset within its window's two rows (a winner
            // outside them fails the bounds check).
            let top = base + (ci * h + 2 * py) * w;
            for ((&gv, &v), &src) in go[o.clone()].iter().zip(&y[o.clone()]).zip(&winners[o]) {
                let at = src - top;
                assert!(at < 2 * w, "argmax outside its pooling window");
                gy[((2 * py) * w + at) * c_out + ci] = (0.0 + gv) * f32::from(v > 0.0);
            }
        }
    }
}

/// One sample's weight and bias gradients on the direct path, from the
/// channel-last `gy` (see [`gy_len`]): `gw[lane·c_out + co]` for the
/// channel-last tap lane `(ki·kw + kj)·c + ci` ([`Geom::lane`]), and
/// `gb[co]`, each one chain over the positions in ascending order.
pub(super) fn param_grads(
    x: &[f32],
    g: &Geom,
    gy: &[f32],
    c_out: usize,
    gw: &mut [f32],
    gb: &mut [f32],
) {
    let z = groups(c_out);
    let (wp, run) = (g.w + 2 * g.pad, g.kw * g.c);
    let padded = (g.h + 2 * g.pad) * wp * g.c;
    // A tile wider than its kernel row reads past the padded image's end.
    let slack = gw_taps(z)[0];
    let mut xh = scratch::take_overwrite(padded + slack);
    super::pad_hwc_into(x, g, &mut xh[..padded]);
    xh[padded..].fill(0.0);
    let (t, starts) = gw_pieces(z, run);
    let mut tile = [0.0f32; 24 * 16];
    for ki in 0..g.kh {
        for l0 in starts.clone() {
            let at = ki * wp * g.c + l0;
            let map = (g.oh, g.ow);
            run_gw_tile(
                (t, z),
                &xh[at..],
                map,
                (wp * g.c, g.c),
                (gy, c_out),
                &mut tile,
            );
            for (l, acc) in (l0..run).zip(tile.chunks_exact(16 * z).take(t)) {
                let lane = ki * run + l;
                gw[lane * c_out..(lane + 1) * c_out].copy_from_slice(&acc[..c_out]);
            }
        }
    }
    scratch::release(xh);
    // `Iterator::sum`'s starting value, so each row sum is its fold.
    gb.fill([0.0f32; 0].iter().sum());
    for row in gy.chunks_exact(c_out).take(g.oh * g.ow) {
        for (s, &v) in gb.iter_mut().zip(row) {
            *s += v;
        }
    }
}

/// The input gradient's geometry on the direct path: `gx` is formed in
/// tiles over its padded-width pixels `iy·wg + ix`, and its tap `(ki, kj)`
/// reads the output gradient zero-padded to `[c_out, hg, wg]` (see
/// [`gy_padded_len`]) at `iy·wg + ix + (kh − 1 − ki)·wg + (kw − 1 − kj)`.
#[derive(Debug, Clone, Copy)]
struct GradWindow {
    /// Padded gradient rows and columns: `h + kh − 1`, `w + kw − 1`.
    hg: usize,
    wg: usize,
    tiles: usize,
}

impl GradWindow {
    fn new(g: &Geom) -> Self {
        let (hg, wg) = (g.h + g.kh - 1, g.w + g.kw - 1);
        GradWindow {
            hg,
            wg,
            tiles: ((g.h - 1) * wg + g.w).div_ceil(TILE_PX),
        }
    }

    /// Floats of one input channel's plane of the `gx` accumulator.
    fn plane(&self) -> usize {
        self.tiles * TILE_PX
    }
}

/// Floats of the zero-padded output gradient the direct input gradient
/// reads: `c_out` planes of `hg × wg`, plus a tile of zeros that the last
/// tile's pixels past the map read.
pub(super) fn gy_padded_len(g: &Geom, c_out: usize) -> usize {
    let gw = GradWindow::new(g);
    c_out * gw.hg * gw.wg + TILE_PX
}

/// Writes the NCHW output gradient `go` (`[c_out, oh, ow]`) into `gyp`
/// zero-padded (see [`gy_padded_len`]), every element.
pub(super) fn pad_gy(go: &[f32], g: &Geom, gyp: &mut [f32]) {
    let gw = GradWindow::new(g);
    gyp.fill(0.0);
    let (top, left) = (g.kh - 1 - g.pad, g.kw - 1 - g.pad);
    for (plane, src) in gyp
        .chunks_exact_mut(gw.hg * gw.wg)
        .zip(go.chunks_exact(g.oh * g.ow))
    {
        for (oy, row) in src.chunks_exact(g.ow).enumerate() {
            plane[(top + oy) * gw.wg + left..][..g.ow].copy_from_slice(row);
        }
    }
}

/// [`crate::pool::relu_pool2x2_backward_sample`] into the zero-padded
/// layout of [`gy_padded_len`], every element.
pub(super) fn relu_pool_backward_padded(
    (go, y, winners): (&[f32], &[f32], &[usize]),
    base: usize,
    g: &Geom,
    c_out: usize,
    gyp: &mut [f32],
) {
    let gw = GradWindow::new(g);
    let (h, w) = (g.oh, g.ow);
    let (ph, pw) = (h / 2, w / 2);
    let (top, left) = (g.kh - 1 - g.pad, g.kw - 1 - g.pad);
    gyp.fill(0.0);
    for (ci, plane) in gyp.chunks_exact_mut(gw.hg * gw.wg).take(c_out).enumerate() {
        for py in 0..ph {
            let o = (ci * ph + py) * pw..(ci * ph + py + 1) * pw;
            let rows = base + (ci * h + 2 * py) * w;
            for ((&gv, &v), &src) in go[o.clone()].iter().zip(&y[o.clone()]).zip(&winners[o]) {
                let at = src - rows;
                assert!(at < 2 * w, "argmax outside its pooling window");
                let (iy, ix) = (2 * py + at / w, at % w);
                plane[(top + iy) * gw.wg + left + ix] = (0.0 + gv) * f32::from(v > 0.0);
            }
        }
    }
}

/// The weights as the direct input gradient reads them: for each
/// `MR`-channel panel of the input channels and each tap `(ki, kj)`,
/// `[c_out][MR]` — `W[co][ci][ki][kj]` at `((j·taps + t)·c_out + co)·MR +
/// ci − j·MR`, rows past `c_in` zero. A scratch buffer.
pub(super) fn input_grad_panels(weight: &Tensor) -> Vec<f32> {
    let (c_out, c_in, kh, kw) = weight.shape().nchw();
    let taps = kh * kw;
    let mut panels = scratch::take(c_in.div_ceil(MR) * taps * c_out * MR);
    for (co, filters) in weight.data().chunks_exact(c_in * taps).enumerate() {
        for (ci, taps_of) in filters.chunks_exact(taps).enumerate() {
            for (t, &v) in taps_of.iter().enumerate() {
                panels[((ci / MR * taps + t) * c_out + co) * MR + ci % MR] = v;
            }
        }
    }
    panels
}

/// One sample's input gradient on the direct path, written over the
/// zeroed `gx` (`[c_in, h, w]`), from the zero-padded output gradient `gyp`
/// and [`input_grad_panels`].
///
/// Element `(ci, iy, ix)` sums, in `(ki, kj)` order onto `+0.0`, the chain
/// over `c_out` ascending of `W[co][ci][ki][kj]·gy[co][iy − ki + pad][ix −
/// kj + pad]`: the packed path's `Wᵀ·gy` element followed by its col2im.
/// A tap that lands in the padding adds a chain over zeros, `+0.0`, where
/// col2im adds nothing; a sum that starts at `+0.0` is never `−0.0`, so
/// adding `+0.0` leaves it unchanged.
pub(super) fn input_grad(gyp: &[f32], g: &Geom, c_out: usize, panels: &[f32], gx: &mut [f32]) {
    let gw = GradWindow::new(g);
    let plane = gw.plane();
    let taps = g.kh * g.kw;
    // Each tap is a 1×1 convolution over the padded gradient's `c_out`
    // planes, shifted by the tap's offset.
    let win = DirectWindow::new(c_out, (1, 1), (gw.hg, gw.wg));
    let npanels = g.c.div_ceil(MR);
    let mut acc = scratch::take(npanels * MR * plane);
    for t in 0..gw.tiles {
        for (j, out) in acc.chunks_exact_mut(MR * plane).enumerate() {
            for (tap, (ki, kj)) in (0..g.kh)
                .flat_map(|ki| (0..g.kw).map(move |kj| (ki, kj)))
                .enumerate()
            {
                let q0 = t * TILE_PX + (g.kh - 1 - ki) * gw.wg + (g.kw - 1 - kj);
                let panel = &panels[(j * taps + tap) * c_out * MR..][..c_out * MR];
                let out = &mut out[t * TILE_PX..];
                direct_tile::<MR, TILE_Z>(gyp, q0, &win, panel, TileOut::Accumulate, out, plane);
            }
        }
    }
    for (ci, dst) in gx.chunks_exact_mut(g.h * g.w).enumerate() {
        for (iy, row) in dst.chunks_exact_mut(g.w).enumerate() {
            row.copy_from_slice(&acc[ci * plane + iy * gw.wg..][..g.w]);
        }
    }
    scratch::release(acc);
}
