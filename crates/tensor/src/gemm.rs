//! Packed, register-blocked, rayon-parallel single-precision GEMM.
//!
//! This is the workhorse behind the fully-connected layers and the im2col
//! convolution. Every product runs one of three routines, chosen per call
//! from its shape (see [`gemm_ep`]):
//!
//! * **Packed** — every product whose `B` fits in cache (the convolution
//!   backward's per-sample input-gradient products among them). `A` is
//!   packed into row-panels of `MR` rows and `B` into column-panels of `NR`
//!   columns (k-major inside each panel), once per call, into thread-local
//!   [`crate::scratch`] buffers; each register tile then runs over the
//!   whole `k` extent, B panels in the outer loop so one stays cache-hot
//!   while the A panels sweep it. Parallel tasks own disjoint `MC`-row
//!   blocks of `C`. The convolution forward pass drives the same tile loop
//!   through `gemm_slab`, over L2-sized slabs of `B` that `conv` packs
//!   straight from the input image, and its weight gradient through
//!   `gemm_slice`, over `k`-slices of both operands that `conv` packs.
//! * **Blocked** — products whose `B` is DRAM-resident (`k·n ≥ BIG_RHS`,
//!   e.g. the 7680×4096 fc1 weights) and that are not thin. `C` is cut
//!   into a fixed 2-D grid of blocks of `MC_BLOCKED` rows × `NC` columns,
//!   one rayon task each. A task walks `k` in `KC` slices; per slice it
//!   packs only its `KC×NC` slab of `B` into an L2-resident scratch buffer
//!   and sweeps its register tiles over it, so `B` crosses DRAM once per
//!   row block (once per call for the batched FC shapes, `m ≤ MC_BLOCKED`)
//!   rather than once per output row. Tasks accumulate into fixed-size
//!   staging chunks (handed out by `par_chunks_mut`, so no task needs
//!   shared mutable access to `C`), and one pass after the join scatters
//!   them into `C` through the epilogue.
//! * **Thin** — skinny products (`m ≤ THIN_M` with a row-major `B` —
//!   batch-1 inference) skip packing: packing `B` costs `k·n` writes, more
//!   than the whole product is worth at `m = 1`. An axpy kernel runs
//!   straight off the row-major `b`, in `k`-chunks sized in bytes to stay
//!   in L2 while the rows consume them. A DRAM-resident `B` is split into
//!   one contiguous column range per pool thread; a small one runs inline.
//!
//! An `MR×NR` register tile accumulates with one `mul_add` per element and
//! no data-dependent branches, narrowed for skinny problems. At full size
//! it is 6×32 on AVX-512 builds: 12 zmm accumulators, written with
//! `core::arch` intrinsics because LLVM keeps autovectorized code to
//! 256-bit vectors there (`fma_tile_zmm`). The pack-free direct
//! convolution's tiles (`direct_tile`, `direct_gw_tile`) and its 16-window
//! pool (`max_pool2x2_x16`) sit beside it: this module holds the crate's
//! only `unsafe` blocks, each behind an assert that bounds every pointer it
//! forms, with a portable fallback for builds without AVX-512.
//! Every other tile, and the full-size 6×16 tile (12 ymm accumulators) of
//! builds without AVX-512, is left to LLVM's autovectorizer (the workspace
//! builds with `target-cpu=native`, see `.cargo/config.toml`). The
//! write-back applies a fused [`Epilogue`] — overwrite, accumulate, or
//! bias (+ optional ReLU), broadcast over rows or columns — so callers like
//! the fully-connected forward pass make no second sweep over `C`.
//! Transposed variants ([`gemm_at`], [`gemm_bt`]) pack straight from the
//! transposed layout, so backward passes never materialize `Aᵀ`/`Bᵀ`; a
//! transposed `B` is packed through register-sized block transposes
//! (`interleave`), not one strided store per element.
//!
//! Every output element is a single fused-multiply-add chain over
//! `p = 0..k` in ascending order — carried across `KC` slices in f32 by the
//! blocked path — regardless of the routine, the tile shape or width, the
//! block grid, or the thread count. That is what keeps parallel runs
//! bit-identical to sequential ones, the three routines bit-identical to
//! each other, and AVX-512 builds bit-identical to AVX2 ones.

use crate::scratch;
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::ops::Range;

/// Rows per A micro-panel at full size.
const MR_MAX: usize = 6;
/// Columns per B micro-panel at full size. On AVX-512, 6 rows × 32 columns
/// is 12 zmm accumulators — with the two B vectors and the A broadcast, 15
/// of the 32 registers — and 12 independent FMA chains cover the FMA units'
/// latency×throughput product. Elsewhere 6×16 is 12 ymm accumulators, 15
/// of the 16 AVX2 registers.
pub(crate) const NR_MAX: usize = if cfg!(all(target_arch = "x86_64", target_feature = "avx512f")) {
    32
} else {
    16
};
/// Rows of `C` per parallel task on the packed path (a multiple of every
/// selectable `MR`).
const MC: usize = 60;
/// `m` at or below which packing an L2-resident `B` cannot amortize and
/// the thin axpy path runs instead.
const THIN_M: usize = 8;
/// `k·n` at or above which `B` is considered DRAM-resident (≥ 8 MB of f32)
/// and the blocked path takes over from the packed one.
const BIG_RHS: usize = 1 << 21;
/// Columns of `C` per blocked task (a multiple of every `NR`).
const NC: usize = 512;
/// `k`-slice of the blocked path: a `KC×NC` slab of packed `B` is 512 KB,
/// so it stays in L2 while the block's register tiles sweep it.
const KC: usize = 256;
/// Rows of `C` per blocked task (a multiple of every `MR`). Fixes the size
/// of a task's staging chunk at `MC_BLOCKED·NC` for every shape.
const MC_BLOCKED: usize = 48;
/// Bytes of `B` one thin task streams per `k`-chunk: small enough to stay
/// in L2 while each of the task's `m` rows consumes the chunk.
const THIN_CHUNK_BYTES: usize = 256 << 10;
/// `m·n·k` below which the block loop runs inline (scheduling would
/// dominate). The parallel and sequential paths run identical code.
pub(crate) const PAR_WORK: usize = 1 << 16;

/// Calls `$f::<MR, NR>(args…)` for the runtime tile shape `$tile`, so the
/// micro-kernel is monomorphized per shape and dispatched once per call.
macro_rules! dispatch_tile {
    ($tile:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $tile {
            (6, 32) => $f::<6, 32>($($arg),*),
            (6, 16) => $f::<6, 16>($($arg),*),
            (6, 8) => $f::<6, 8>($($arg),*),
            (6, 4) => $f::<6, 4>($($arg),*),
            (6, 1) => $f::<6, 1>($($arg),*),
            (4, 32) => $f::<4, 32>($($arg),*),
            (4, 16) => $f::<4, 16>($($arg),*),
            (4, 8) => $f::<4, 8>($($arg),*),
            (4, 4) => $f::<4, 4>($($arg),*),
            (4, 1) => $f::<4, 1>($($arg),*),
            (2, 32) => $f::<2, 32>($($arg),*),
            (2, 16) => $f::<2, 16>($($arg),*),
            (2, 8) => $f::<2, 8>($($arg),*),
            (2, 4) => $f::<2, 4>($($arg),*),
            (2, 1) => $f::<2, 1>($($arg),*),
            (1, 32) => $f::<1, 32>($($arg),*),
            (1, 16) => $f::<1, 16>($($arg),*),
            (1, 8) => $f::<1, 8>($($arg),*),
            (1, 4) => $f::<1, 4>($($arg),*),
            (1, 1) => $f::<1, 1>($($arg),*),
            (mr, nr) => unreachable!("unsupported tile {mr}x{nr}"),
        }
    };
}

/// Whether an operand is stored transposed.
///
/// `gemm`-family entry points take matrices in row-major storage; `Yes`
/// means the buffer holds the transpose of the operand (so `op(A)[i][p]`
/// reads `a[p*m + i]`), and the packing routines absorb the transpose —
/// no intermediate buffer is ever materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// Operand stored as written in the product.
    No,
    /// Buffer holds the operand's transpose.
    Yes,
}

/// Fused write-back applied as each register tile leaves the accumulators.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `C = A·B`.
    Store,
    /// `C += A·B`.
    Accumulate,
    /// `C = A·B + bias[j]` — bias broadcast over rows (fully-connected
    /// layers; `bias` has length `n`).
    BiasCols(&'a [f32]),
    /// [`Epilogue::BiasCols`] followed by `max(0, ·)`.
    BiasColsRelu(&'a [f32]),
    /// `C = A·B + bias[i]` — bias broadcast over columns (convolution
    /// output channels; `bias` has length `m`).
    BiasRows(&'a [f32]),
    /// [`Epilogue::BiasRows`] followed by `max(0, ·)`.
    BiasRowsRelu(&'a [f32]),
}

fn relu(y: f32) -> f32 {
    if y > 0.0 {
        y
    } else {
        0.0
    }
}

impl Epilogue<'_> {
    fn check(&self, m: usize, n: usize) {
        match self {
            Epilogue::BiasCols(b) | Epilogue::BiasColsRelu(b) => {
                assert_eq!(b.len(), n, "column bias length {} != n {n}", b.len());
            }
            Epilogue::BiasRows(b) | Epilogue::BiasRowsRelu(b) => {
                assert_eq!(b.len(), m, "row bias length {} != m {m}", b.len());
            }
            Epilogue::Store | Epilogue::Accumulate => {}
        }
    }

    /// Writes finished accumulators `acc` into `crow`, the segment of row
    /// `i` of `C` that starts at column `j0`.
    #[inline(always)]
    fn write_row(self, crow: &mut [f32], acc: &[f32], i: usize, j0: usize) {
        let acc = &acc[..crow.len()];
        match self {
            Epilogue::Store => crow.copy_from_slice(acc),
            Epilogue::Accumulate => {
                for (c, &v) in crow.iter_mut().zip(acc) {
                    *c += v;
                }
            }
            Epilogue::BiasCols(bias) => {
                for ((c, &v), &b) in crow.iter_mut().zip(acc).zip(&bias[j0..]) {
                    *c = v + b;
                }
            }
            Epilogue::BiasColsRelu(bias) => {
                for ((c, &v), &b) in crow.iter_mut().zip(acc).zip(&bias[j0..]) {
                    *c = relu(v + b);
                }
            }
            Epilogue::BiasRows(bias) => {
                let b = bias[i];
                for (c, &v) in crow.iter_mut().zip(acc) {
                    *c = v + b;
                }
            }
            Epilogue::BiasRowsRelu(bias) => {
                let b = bias[i];
                for (c, &v) in crow.iter_mut().zip(acc) {
                    *c = relu(v + b);
                }
            }
        }
    }
}

/// Micro-panel height for an `m`-row problem: full 6 when there is enough
/// work to fill the tile, narrowed so a skinny GEMM does not burn the FLOPs
/// on padding.
pub(crate) fn select_mr(m: usize) -> usize {
    if m >= MR_MAX {
        MR_MAX
    } else if m >= 4 {
        4
    } else if m >= 2 {
        2
    } else {
        1
    }
}

/// Micro-panel width for an `n`-column problem (see [`select_mr`]).
pub(crate) fn select_nr(n: usize) -> usize {
    if n >= NR_MAX {
        NR_MAX
    } else if n >= 16 {
        16
    } else if n >= 8 {
        8
    } else if n >= 2 {
        4
    } else {
        1
    }
}

fn check_dims(a: usize, b: usize, c: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a, m * k, "A buffer is {a} but m*k = {}", m * k);
    assert_eq!(b, k * n, "B buffer is {b} but k*n = {}", k * n);
    assert_eq!(c, m * n, "C buffer is {c} but m*n = {}", m * n);
}

// ----------------------------------------------------------------- packing

/// Packs `op(A)` (`m×k` logical) into row-panels of `mr` rows, k-major
/// within each panel: element `(p, ii)` of panel `pi` lands at
/// `pi·mr·k + p·mr + ii`. `out` must be zeroed (ragged panels stay padded).
fn pack_lhs(a: &[f32], ta: Trans, m: usize, k: usize, mr: usize, out: &mut [f32]) {
    if k == 0 {
        return; // zero-extent panels; the epilogue still runs on write-back
    }
    match ta {
        Trans::No => {
            for (pi, panel) in out.chunks_mut(mr * k).enumerate() {
                let i0 = pi * mr;
                let rows = mr.min(m - i0);
                for ii in 0..rows {
                    let src = &a[(i0 + ii) * k..(i0 + ii + 1) * k];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * mr + ii] = v;
                    }
                }
            }
        }
        Trans::Yes => {
            // `a` stores Aᵀ: `op(A)[i][p] = a[p*m + i]`, so each source row
            // of `a` is contiguous in `ii` and copies as a slice.
            for (pi, panel) in out.chunks_mut(mr * k).enumerate() {
                let i0 = pi * mr;
                let rows = mr.min(m - i0);
                for p in 0..k {
                    let src = &a[p * m + i0..p * m + i0 + rows];
                    panel[p * mr..p * mr + rows].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs rows `ks` × columns `js` of `op(B)` (`k×n` logical) into
/// column-panels of `nr` columns, k-major within each panel: element
/// `(p, jj)` of panel `pj` lands at `pj·nr·kc + p·nr + jj`, with
/// `kc = ks.len()` and `p`, `jj` relative to the block. The lanes past a
/// ragged last panel are not written: zeroed by a fresh buffer, stale in a
/// reused slab — either way they only feed accumulator lanes that are
/// never written back.
fn pack_rhs(
    b: &[f32],
    tb: Trans,
    (k, n): (usize, usize),
    ks: Range<usize>,
    js: Range<usize>,
    nr: usize,
    out: &mut [f32],
) {
    let kc = ks.len();
    if kc == 0 {
        return;
    }
    match tb {
        Trans::No => {
            // Row-outer: each source row segment is read front to back, so
            // a DRAM-resident `b` streams instead of striding by `n`.
            for (p, src) in ks.map(|p| &b[p * n + js.start..p * n + js.end]).enumerate() {
                for (pj, s) in src.chunks(nr).enumerate() {
                    let dst = pj * nr * kc + p * nr;
                    out[dst..dst + s.len()].copy_from_slice(s);
                }
            }
        }
        Trans::Yes => {
            // `b` stores Bᵀ: `op(B)[p][j] = b[j*k + p]`, so each panel's
            // columns are `nr` rows of `b`, contiguous in `p`, interleaved.
            let mut starts = [0usize; NR_MAX];
            for (pj, panel) in out.chunks_mut(nr * kc).enumerate() {
                let j0 = js.start + pj * nr;
                if j0 >= js.end {
                    break;
                }
                let width = nr.min(js.end - j0);
                for (jj, s) in starts[..width].iter_mut().enumerate() {
                    *s = (j0 + jj) * k + ks.start;
                }
                interleave(b, &starts[..width], kc, nr, panel);
            }
        }
    }
}

/// `k`-steps per block [`interleave`] transposes through registers.
const TB: usize = 8;

/// Interleaves `starts.len()` source rows, `len` elements each, into `out`
/// `p`-major: element `p` of row `r`, `src[starts[r] + p]`, lands at
/// `out[p·ld + r]` — the k-major panel layout of both GEMM operands, with
/// `ld` lanes per `k`-step. Lanes `starts.len()..ld` are not written.
///
/// Transposes blocks of up to 8 rows × `TB` steps at a time (`TB`
/// contiguous loads per row, contiguous stores per step) instead of one
/// strided store per element; only the copies are reordered, never a value.
pub(crate) fn interleave(src: &[f32], starts: &[usize], len: usize, ld: usize, out: &mut [f32]) {
    debug_assert!(starts.len() <= ld);
    for (rb, rstarts) in starts.chunks(8).enumerate() {
        let out = &mut out[rb * 8..];
        match rstarts.len() {
            8 => interleave_rows::<8>(src, rstarts, len, ld, out),
            6 => interleave_rows::<6>(src, rstarts, len, ld, out),
            4 => interleave_rows::<4>(src, rstarts, len, ld, out),
            _ => {
                for (r, &s) in rstarts.iter().enumerate() {
                    for (p, &v) in src[s..s + len].iter().enumerate() {
                        out[p * ld + r] = v;
                    }
                }
            }
        }
    }
}

/// [`interleave`] for a group of exactly `R` rows.
#[inline(always)]
fn interleave_rows<const R: usize>(
    src: &[f32],
    starts: &[usize],
    len: usize,
    ld: usize,
    out: &mut [f32],
) {
    let starts: &[usize; R] = starts.try_into().expect("R row starts");
    let full = len / TB * TB;
    for p0 in (0..full).step_by(TB) {
        let rows: [&[f32; TB]; R] =
            std::array::from_fn(|r| src[starts[r] + p0..][..TB].try_into().expect("TB steps"));
        for p in 0..TB {
            let at = (p0 + p) * ld;
            let dst: &mut [f32; R] = (&mut out[at..at + R]).try_into().expect("R lanes");
            for (d, row) in dst.iter_mut().zip(&rows) {
                *d = row[p];
            }
        }
    }
    for p in full..len {
        for (r, &s) in starts.iter().enumerate() {
            out[p * ld + r] = src[s + p];
        }
    }
}

/// `A` pre-packed for reuse across many [`gemm_packed`] calls.
///
/// `conv2d` packs its weight matrix once per layer invocation and shares it
/// (read-only) across every sample's im2col GEMM instead of re-packing per
/// sample. The panel buffer is borrowed from the packing thread's scratch
/// pool and returned on drop.
pub struct PackedLhs {
    buf: Vec<f32>,
    m: usize,
    k: usize,
    mr: usize,
}

impl PackedLhs {
    /// Packs `op(A)` with logical shape `m×k` (`a` holds `k×m` storage when
    /// `ta` is [`Trans::Yes`]).
    pub fn pack(a: &[f32], ta: Trans, m: usize, k: usize) -> PackedLhs {
        assert_eq!(
            a.len(),
            m * k,
            "A buffer is {} but m*k = {}",
            a.len(),
            m * k
        );
        let mr = select_mr(m.max(1));
        let mut buf = scratch::take(m.div_ceil(mr) * mr * k);
        pack_lhs(a, ta, m, k, mr, &mut buf);
        PackedLhs { buf, m, k, mr }
    }

    /// Logical row count of the packed operand.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Shared (inner) dimension of the packed operand.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl Drop for PackedLhs {
    fn drop(&mut self) {
        scratch::release(std::mem::take(&mut self.buf));
    }
}

// ------------------------------------------------------------ micro-kernel

/// Runs one `MR×NR` register tile over `kdim` packed `k`-steps, continuing
/// the chains already in `acc`.
///
/// Each accumulator is one `mul_add` chain over `a[i][p]·b[p][j]` for `p`
/// ascending — one fused chain per output element, independent of tile
/// shape and thread count, which is the invariant behind the
/// bit-determinism guarantee. 32-wide tiles run the explicit 512-bit
/// kernel under AVX-512; every other shape (and every shape elsewhere) is
/// left to LLVM's autovectorizer.
#[inline(always)]
fn fma_tile<const MR: usize, const NR: usize>(
    apanel: &[f32],
    bpanel: &[f32],
    kdim: usize,
    acc: &mut [[f32; NR]; MR],
) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    if NR == 32 {
        return fma_tile_zmm::<MR>(apanel, bpanel, kdim, acc.as_flattened_mut());
    }
    for p in 0..kdim {
        let ar = &apanel[p * MR..p * MR + MR];
        let br = &bpanel[p * NR..p * NR + NR];
        for i in 0..MR {
            let ai = ar[i];
            for j in 0..NR {
                acc[i][j] = ai.mul_add(br[j], acc[i][j]);
            }
        }
    }
}

/// [`fma_tile`] for an `MR×32` tile in `2·MR` zmm accumulators: per
/// `k`-step, two 16-lane loads of the B row and one broadcast per A element.
/// `_mm512_fmadd_ps` rounds once, exactly like `f32::mul_add`, so each lane
/// carries the same chain as the portable loop. LLVM keeps 256-bit vectors
/// for autovectorized code on AVX-512 targets, so the wide tile is spelled
/// out with intrinsics.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
#[inline(always)]
fn fma_tile_zmm<const MR: usize>(apanel: &[f32], bpanel: &[f32], kdim: usize, acc: &mut [f32]) {
    use core::arch::x86_64::{
        _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
    };
    assert!(
        apanel.len() >= kdim * MR && bpanel.len() >= kdim * 32 && acc.len() == MR * 32,
        "fma_tile_zmm: panels shorter than {kdim} k-steps"
    );
    let (a, b, c) = (apanel.as_ptr(), bpanel.as_ptr(), acc.as_mut_ptr());
    // SAFETY: the assert above bounds every access: A reads `p·MR + i <
    // kdim·MR`, B reads 16 lanes at `p·32` and `p·32 + 16`, ending below
    // `kdim·32`, and the accumulator loads/stores cover `acc[..MR·32]`
    // exactly. All loads and stores are unaligned-tolerant (`loadu`/
    // `storeu`), and the `avx512f` target feature is enabled at compile
    // time by the `cfg` on this function.
    unsafe {
        let mut rows = [[_mm512_setzero_ps(); 2]; MR];
        for (i, r) in rows.iter_mut().enumerate() {
            *r = [
                _mm512_loadu_ps(c.add(i * 32)),
                _mm512_loadu_ps(c.add(i * 32 + 16)),
            ];
        }
        for p in 0..kdim {
            let b0 = _mm512_loadu_ps(b.add(p * 32));
            let b1 = _mm512_loadu_ps(b.add(p * 32 + 16));
            for (i, r) in rows.iter_mut().enumerate() {
                let ai = _mm512_set1_ps(*a.add(p * MR + i));
                r[0] = _mm512_fmadd_ps(ai, b0, r[0]);
                r[1] = _mm512_fmadd_ps(ai, b1, r[1]);
            }
        }
        for (i, r) in rows.iter().enumerate() {
            _mm512_storeu_ps(c.add(i * 32), r[0]);
            _mm512_storeu_ps(c.add(i * 32 + 16), r[1]);
        }
    }
}

// ------------------------------------------- pack-free direct convolution

/// The taps a pack-free direct convolution tile reads from a zero-padded
/// NCHW image (`c` planes of `plane` floats, rows of `wp`): tap
/// `p = (ci·kh + ki)·kw + kj` of the pixel at padded offset `q` is at
/// `q + ci·plane + ki·wp + kj`. Constructed only through
/// [`DirectWindow::new`], so `reach` is the largest tap offset.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirectWindow {
    c: usize,
    kh: usize,
    kw: usize,
    plane: usize,
    wp: usize,
    reach: usize,
}

impl DirectWindow {
    pub(crate) fn new(c: usize, (kh, kw): (usize, usize), (hp, wp): (usize, usize)) -> Self {
        assert!(
            c > 0 && kh > 0 && kw > 0 && kh <= hp && kw <= wp,
            "empty window"
        );
        let plane = hp * wp;
        DirectWindow {
            c,
            kh,
            kw,
            plane,
            wp,
            reach: (c - 1) * plane + (kh - 1) * wp + kw - 1,
        }
    }

    /// Taps per window, `c·kh·kw`.
    pub(crate) fn k(&self) -> usize {
        self.c * self.kh * self.kw
    }
}

/// How a [`direct_tile`] writes its finished chains `v`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TileOut<'a> {
    /// `out = v + bias[i]`, through `max(0, ·)` when the flag is set.
    Bias(&'a [f32], bool),
    /// `out += v`.
    Accumulate,
}

/// One `MR`-channel × `16·Z`-pixel tile of the pack-free direct
/// convolution: pixels `q0..q0 + 16·Z` of the zero-padded image `xp`
/// (consecutive offsets, see [`DirectWindow`]) against `panel`, `MR` rows
/// of the weights tap-major (`panel[p·MR + i]`, rows past `c_out` zero).
/// Writes channel `i`'s pixels to `out[i·ld..]` through the epilogue
/// `ep`.
///
/// Each tap's pixels are one contiguous run of the image, so they load as
/// vectors straight from it, and the weights broadcast: the packed GEMM's
/// tile with the image in place of a packed slab. Each output element is
/// one `mul_add` chain over the taps `p` ascending from `+0.0`, then the
/// epilogue — `+ bias`, then `max(0, ·)`, or `+=` — of the packed GEMM.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn direct_tile<const MR: usize, const Z: usize>(
    xp: &[f32],
    q0: usize,
    win: &DirectWindow,
    panel: &[f32],
    ep: TileOut,
    out: &mut [f32],
    ld: usize,
) {
    assert!(
        xp.len() >= q0 + 16 * Z + win.reach
            && panel.len() >= win.k() * MR
            && !matches!(ep, TileOut::Bias(b, _) if b.len() < MR)
            && ld >= 16 * Z
            && out.len() >= (MR - 1) * ld + 16 * Z,
        "direct_tile: operands shorter than the tile"
    );
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        use core::arch::x86_64::{
            _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_max_ps, _mm512_set1_ps,
            _mm512_setzero_ps, _mm512_storeu_ps,
        };
        let (x, w, o) = (xp.as_ptr(), panel.as_ptr(), out.as_mut_ptr());
        // SAFETY: the assert above bounds every access. Tap `(ci, ki, kj)`
        // reads pixels `q0 + ci·plane + ki·wp + kj + 16·z + lane ≤ q0 +
        // 16·Z − 1 + reach < xp.len()` (`reach` is the largest tap offset,
        // fixed by `DirectWindow::new`); tap `p` reads weights `p·MR + i <
        // k·MR`, and the bias (when given) `MR` lanes; row `i` loads and
        // stores lanes `i·ld .. i·ld + 16·Z`, inside `out`.
        // All loads and stores are unaligned-tolerant, and `avx512f` is
        // enabled at compile time by the `cfg` on this block.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); Z]; MR];
            let mut wrow = w;
            for ci in 0..win.c {
                for ki in 0..win.kh {
                    let row = x.add(q0 + ci * win.plane + ki * win.wp);
                    for kj in 0..win.kw {
                        let xs = row.add(kj);
                        let xv: [_; Z] = std::array::from_fn(|z| _mm512_loadu_ps(xs.add(16 * z)));
                        for (i, a) in acc.iter_mut().enumerate() {
                            let wv = _mm512_set1_ps(*wrow.add(i));
                            for (a, &xv) in a.iter_mut().zip(&xv) {
                                *a = _mm512_fmadd_ps(wv, xv, *a);
                            }
                        }
                        wrow = wrow.add(MR);
                    }
                }
            }
            let zero = _mm512_setzero_ps();
            for (i, a) in acc.iter().enumerate() {
                for (z, &a) in a.iter().enumerate() {
                    let at = o.add(i * ld + 16 * z);
                    let v = match ep {
                        TileOut::Bias(bias, relu) => {
                            let v = _mm512_add_ps(a, _mm512_set1_ps(bias[i]));
                            // `max(v, 0)` returns its second operand unless
                            // `v > 0`: NaN and −0 map to +0, as `relu` does.
                            if relu {
                                _mm512_max_ps(v, zero)
                            } else {
                                v
                            }
                        }
                        TileOut::Accumulate => _mm512_add_ps(_mm512_loadu_ps(at), a),
                    };
                    _mm512_storeu_ps(at, v);
                }
            }
        }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    {
        let mut acc = [[[0.0f32; 16]; Z]; MR];
        let mut p = 0;
        for ci in 0..win.c {
            for ki in 0..win.kh {
                let row = q0 + ci * win.plane + ki * win.wp;
                for kj in 0..win.kw {
                    let xs = &xp[row + kj..row + kj + 16 * Z];
                    for (a, &wv) in acc.iter_mut().zip(&panel[p * MR..p * MR + MR]) {
                        for (a, &xv) in a.as_flattened_mut().iter_mut().zip(xs) {
                            *a = wv.mul_add(xv, *a);
                        }
                    }
                    p += 1;
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let dst = &mut out[i * ld..i * ld + 16 * Z];
            for (d, &a) in dst.iter_mut().zip(a.as_flattened()) {
                *d = match ep {
                    TileOut::Bias(bias, true) => relu(a + bias[i]),
                    TileOut::Bias(bias, false) => a + bias[i],
                    TileOut::Accumulate => *d + a,
                };
            }
        }
    }
}

/// A `T`-tap × `16·Z`-channel tile of the direct convolution's weight
/// gradient: `out[t·16·Z + c] = Σ_j x_t(j)·gy[j·ld + c]` over the `oh·ow`
/// output positions `j = oy·ow + ox` in ascending order, one `mul_add`
/// chain per element from `+0.0` — the packed weight-gradient GEMM's chain.
/// `xh` is a channel-last zero-padded image from the tile's first tap on:
/// tap `t` of position `(oy, ox)` is `xh[oy·row_step + ox·col_step + t]`.
/// `gy` holds the gradient w.r.t. the convolution output channel-last,
/// `ld` floats per position; lanes it holds past the real channels feed
/// only accumulators the caller discards.
#[inline(always)]
pub(crate) fn direct_gw_tile<const T: usize, const Z: usize>(
    xh: &[f32],
    (oh, ow): (usize, usize),
    (row_step, col_step): (usize, usize),
    (gy, ld): (&[f32], usize),
    out: &mut [f32],
) {
    assert!(
        oh > 0
            && ow > 0
            && xh.len() >= (oh - 1) * row_step + (ow - 1) * col_step + T
            && gy.len() >= (oh * ow - 1) * ld + 16 * Z
            && out.len() == T * 16 * Z,
        "direct_gw_tile: operands shorter than the tile"
    );
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        use core::arch::x86_64::{
            _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps, _mm512_storeu_ps,
        };
        let (x, g, o) = (xh.as_ptr(), gy.as_ptr(), out.as_mut_ptr());
        // SAFETY: the assert above bounds every access. Position `(oy, ox)`
        // reads taps `oy·row_step + ox·col_step + t ≤ (oh − 1)·row_step +
        // (ow − 1)·col_step + T − 1 < xh.len()` and gradient lanes `j·ld ..
        // j·ld + 16·Z` with `j < oh·ow`, inside `gy`; the stores cover
        // `out[..T·16·Z]` exactly. All loads and stores are
        // unaligned-tolerant, and `avx512f` is enabled at compile time by
        // the `cfg` on this block.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); Z]; T];
            let mut grow = g;
            for oy in 0..oh {
                let mut xs = x.add(oy * row_step);
                for _ in 0..ow {
                    let gv: [_; Z] = std::array::from_fn(|z| _mm512_loadu_ps(grow.add(16 * z)));
                    for (t, a) in acc.iter_mut().enumerate() {
                        let xv = _mm512_set1_ps(*xs.add(t));
                        for (a, &gv) in a.iter_mut().zip(&gv) {
                            *a = _mm512_fmadd_ps(xv, gv, *a);
                        }
                    }
                    xs = xs.add(col_step);
                    grow = grow.add(ld);
                }
            }
            for (t, a) in acc.iter().enumerate() {
                for (z, &a) in a.iter().enumerate() {
                    _mm512_storeu_ps(o.add((t * Z + z) * 16), a);
                }
            }
        }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    {
        let mut acc = [[[0.0f32; 16]; Z]; T];
        let mut j = 0;
        for oy in 0..oh {
            for ox in 0..ow {
                let at = oy * row_step + ox * col_step;
                let xs = &xh[at..at + T];
                let gv = &gy[j * ld..j * ld + 16 * Z];
                for (a, &xv) in acc.iter_mut().zip(xs) {
                    for (a, gv) in a.iter_mut().zip(gv.chunks_exact(16)) {
                        for (a, &gv) in a.iter_mut().zip(gv) {
                            *a = xv.mul_add(gv, *a);
                        }
                    }
                }
                j += 1;
            }
        }
        out.copy_from_slice(acc.as_flattened().as_flattened());
    }
}

/// The 2×2/2 max pool of 16 windows at once: `top` and `bottom` hold the
/// windows' two rows, 32 consecutive pixels each. Window `t` scans pixels
/// `2t`, `2t + 1` of `top`, then of `bottom`, from `-∞` with a strict `>`
/// (ties and NaNs keep the earlier pixel); returns each window's max and
/// which of its four pixels won (0 when nothing beats `-∞`).
#[inline(always)]
pub(crate) fn max_pool2x2_x16(top: &[f32; 32], bottom: &[f32; 32]) -> ([f32; 16], [u32; 16]) {
    let mut best = [f32::NEG_INFINITY; 16];
    let mut sel = [0u32; 16];
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    {
        use core::arch::x86_64::{
            _mm512_cmp_ps_mask, _mm512_loadu_ps, _mm512_mask_blend_epi32, _mm512_mask_blend_ps,
            _mm512_permutex2var_ps, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setr_epi32,
            _mm512_setzero_si512, _mm512_storeu_ps, _mm512_storeu_si512, _CMP_GT_OQ,
        };
        // SAFETY: the loads read the two 32-float rows, 16 lanes at a time,
        // and the stores write the two 16-lane results, all in bounds by
        // the argument types; loads and stores are unaligned-tolerant, and
        // `avx512f` is enabled at compile time by the `cfg` on this block.
        unsafe {
            let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
            let split = |row: &[f32; 32]| {
                let (lo, hi) = (
                    _mm512_loadu_ps(row.as_ptr()),
                    _mm512_loadu_ps(row.as_ptr().add(16)),
                );
                (
                    _mm512_permutex2var_ps(lo, even, hi),
                    _mm512_permutex2var_ps(lo, odd, hi),
                )
            };
            let ((a0, a1), (b0, b1)) = (split(top), split(bottom));
            let mut b = _mm512_set1_ps(f32::NEG_INFINITY);
            let mut s = _mm512_setzero_si512();
            for (i, x) in (0i32..).zip([a0, a1, b0, b1]) {
                // Ordered `x > b`: false for a NaN, as the scalar `>`.
                let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, b);
                b = _mm512_mask_blend_ps(gt, b, x);
                s = _mm512_mask_blend_epi32(gt, s, _mm512_set1_epi32(i));
            }
            _mm512_storeu_ps(best.as_mut_ptr(), b);
            _mm512_storeu_si512(sel.as_mut_ptr().cast(), s);
        }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    for (t, (b, s)) in best.iter_mut().zip(&mut sel).enumerate() {
        let window = [top[2 * t], top[2 * t + 1], bottom[2 * t], bottom[2 * t + 1]];
        for (i, x) in (0u32..).zip(window) {
            if x > *b {
                *b = x;
                *s = i;
            }
        }
    }
    (best, sel)
}

/// Where a sweep writes its rows of `C`.
pub(crate) enum CRows<'a, 'b> {
    /// Rows `rows` of `C` at stride `ldc`, every column at its own index.
    Strided(&'a mut [f32], usize),
    /// One slice per row of `rows`, holding just the swept columns `cols`
    /// (column `j` at `j − cols.start`): a column slab of a larger `C`
    /// that other threads fill beside it.
    Slices(&'a mut [&'b mut [f32]]),
}

/// One [`CRows`] variant, chosen before a sweep so the write-back loop
/// indexes its rows without a branch.
trait RowsOut {
    /// Columns `cols.start + j0..` of row `i` (counted from `rows.start`).
    fn row(&mut self, i: usize, j0: usize, cols: &Range<usize>) -> &mut [f32];
}

/// [`CRows::Strided`].
struct Strided<'a>(&'a mut [f32], usize);

impl RowsOut for Strided<'_> {
    #[inline(always)]
    fn row(&mut self, i: usize, j0: usize, cols: &Range<usize>) -> &mut [f32] {
        &mut self.0[i * self.1 + cols.start + j0..]
    }
}

/// [`CRows::Slices`].
impl RowsOut for &mut [&mut [f32]] {
    #[inline(always)]
    fn row(&mut self, i: usize, j0: usize, _cols: &Range<usize>) -> &mut [f32] {
        &mut self[i][j0..]
    }
}

/// Runs every micro-tile of `rows` × `cols` of `C` over the full `k`
/// extent and writes each back through the epilogue, masking the ragged
/// edge. `rows.start` is a multiple of `MR`, so row panel `ip / MR` of
/// `apack` starts at `ip·k`. `c` holds rows `rows` (see [`CRows`]);
/// `bpack` holds the column-panels of `cols` (panel `(jp − cols.start) /
/// NR` holds columns `jp..jp + NR`). B panels are the outer loop, so one B
/// micro-panel stays cache-hot while every A panel of the block sweeps it.
#[allow(clippy::too_many_arguments)]
fn block<const MR: usize, const NR: usize>(
    apack: &[f32],
    bpack: &[f32],
    mut c: impl RowsOut,
    rows: Range<usize>,
    cols: Range<usize>,
    k: usize,
    ep: Epilogue<'_>,
) {
    for jp in cols.clone().step_by(NR) {
        let j0 = jp - cols.start;
        let bpanel = &bpack[j0 * k..(j0 + NR) * k];
        let n_rem = NR.min(cols.end - jp);
        for ip in rows.clone().step_by(MR) {
            let apanel = &apack[ip * k..(ip + MR) * k];
            let m_rem = MR.min(rows.end - ip);
            let mut acc = [[0.0f32; NR]; MR];
            fma_tile(apanel, bpanel, k, &mut acc);
            for (i, t) in acc.iter().enumerate().take(m_rem) {
                let crow = &mut c.row(ip - rows.start + i, j0, &cols)[..n_rem];
                ep.write_row(crow, t, ip + i, jp);
            }
        }
    }
}

/// `C[m×n] = op(A)·B'` against a pre-packed left operand, `B'` packed here
/// from `b` (transposed when `tb` says so), with a fused epilogue.
pub fn gemm_packed(pa: &PackedLhs, b: &[f32], tb: Trans, c: &mut [f32], n: usize, ep: Epilogue) {
    let (m, k) = (pa.m, pa.k);
    check_dims(m * k, b.len(), c.len(), m, k, n);
    ep.check(m, n);
    if m == 0 || n == 0 {
        return;
    }
    let nr = select_nr(n);
    // Every lane the tiles write back is packed, so no memset is needed.
    let mut bpack = scratch::take_overwrite(n.div_ceil(nr) * nr * k);
    pack_rhs(b, tb, (k, n), 0..k, 0..n, nr, &mut bpack);
    let tile = (pa.mr, nr);
    let apack = &pa.buf;
    let run = |(blk, c_blk): (usize, &mut [f32])| {
        let rows = blk * MC..(blk * MC + MC).min(m);
        let c_blk = Strided(c_blk, n);
        dispatch_tile!(tile, block(apack, &bpack, c_blk, rows, 0..n, k, ep));
    };
    if m * n * k < PAR_WORK {
        c.chunks_mut(MC * n).enumerate().for_each(run);
    } else {
        c.par_chunks_mut(MC * n).enumerate().for_each(run);
    }
    scratch::release(bpack);
}

/// Sweeps the pre-packed `pa` over one packed slab of `B` — columns `cols`
/// of the product, `nr` per column-panel, full `k` extent, laid out as
/// [`pack_rhs`] would — writing every row of `C` (see [`CRows`]) through
/// the epilogue. The convolution forward pass packs such slabs straight
/// from the input image.
pub(crate) fn gemm_slab(
    pa: &PackedLhs,
    slab: &[f32],
    nr: usize,
    c: CRows<'_, '_>,
    cols: Range<usize>,
    ep: Epilogue<'_>,
) {
    let (m, k, tile) = (pa.m, pa.k, (pa.mr, nr));
    match c {
        CRows::Strided(c, ldc) => {
            dispatch_tile!(
                tile,
                block(&pa.buf, slab, Strided(c, ldc), 0..m, cols, k, ep)
            )
        }
        CRows::Slices(rows) => dispatch_tile!(tile, block(&pa.buf, slab, rows, 0..m, cols, k, ep)),
    }
}

/// Continues `C (m×n) = A·B` over one `kc`-step slice of the shared
/// dimension: `apack` holds the slice of `A` in `tile.0`-row panels and
/// `bpack` that of `B` in `tile.1`-column panels, both k-major as
/// [`interleave`] lays them out. `c` holds `C` at row stride `ldc`, with
/// room for `m` and `n` rounded up to whole panels; every tile is written
/// back whole. Each element continues its `mul_add` chain from `c` — or
/// starts it from `+0.0` when `fresh` — so a product cut into ascending
/// slices is bit-identical to one pass over the whole `k` (the blocked
/// path's invariant). The convolution weight gradient packs both slices
/// straight from its per-sample operands.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_slice(
    tile: (usize, usize),
    apack: &[f32],
    bpack: &[f32],
    kc: usize,
    (m, n): (usize, usize),
    c: &mut [f32],
    ldc: usize,
    fresh: bool,
) {
    dispatch_tile!(
        tile,
        slab_tiles(apack, bpack, kc, 0..kc, 0..m, n, ldc, c, fresh)
    );
}

// ------------------------------------------------- blocked and thin paths

/// How the blocked and thin paths cut `C` into tasks: row-block-major
/// blocks of at most `mc` rows × `nc` columns. Task `t` accumulates into
/// chunk `t` of a staging buffer, `chunk` floats each, rows at stride `nc`.
struct Grid {
    m: usize,
    n: usize,
    mc: usize,
    nc: usize,
    col_blocks: usize,
    blocks: usize,
    chunk: usize,
}

impl Grid {
    /// Blocked-path grid: a fixed cut into row blocks of `MC_BLOCKED` rows
    /// (a multiple of every `MR`) × column blocks of `NC` columns, so the
    /// staging chunks have the fixed size `MC_BLOCKED·NC`.
    fn blocked(m: usize, n: usize) -> Grid {
        let col_blocks = n.div_ceil(NC);
        Grid {
            m,
            n,
            mc: MC_BLOCKED,
            nc: NC,
            col_blocks,
            blocks: m.div_ceil(MC_BLOCKED) * col_blocks,
            chunk: MC_BLOCKED * NC,
        }
    }

    /// Thin-path grid: one row block. A DRAM-resident `B` gets one column
    /// range per pool thread — the path is bound by streaming `B`, and the
    /// longest contiguous runs per task stream best; a cache-resident `B`
    /// runs as a single block on the calling thread. (The split never
    /// changes a result: each element's chain is the same in any block.)
    fn thin(m: usize, n: usize, big_rhs: bool) -> Grid {
        let nc = if big_rhs {
            n.div_ceil(rayon::current_num_threads())
                .next_multiple_of(NR_MAX)
        } else {
            n
        };
        let col_blocks = n.div_ceil(nc);
        Grid {
            m,
            n,
            mc: m,
            nc,
            col_blocks,
            blocks: col_blocks,
            chunk: m * nc,
        }
    }

    /// Rows and columns of `C` owned by task `t`.
    fn block(&self, t: usize) -> (Range<usize>, Range<usize>) {
        let (i0, j0) = (t / self.col_blocks * self.mc, t % self.col_blocks * self.nc);
        (
            i0..(i0 + self.mc).min(self.m),
            j0..(j0 + self.nc).min(self.n),
        )
    }

    /// Runs `task(t, chunk)` for every block over a fresh zeroed staging
    /// buffer — on the pool when there are several blocks and the product
    /// is big enough — then applies the epilogue while scattering the
    /// chunks into `c`.
    fn run(
        &self,
        work: usize,
        c: &mut [f32],
        ep: Epilogue<'_>,
        task: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        let mut stage = scratch::take(self.blocks * self.chunk);
        let run = |(t, chunk): (usize, &mut [f32])| task(t, chunk);
        if self.blocks == 1 || work < PAR_WORK {
            stage.chunks_mut(self.chunk).enumerate().for_each(run);
        } else {
            stage.par_chunks_mut(self.chunk).enumerate().for_each(run);
        }
        for (t, chunk) in stage.chunks(self.chunk).enumerate() {
            let (rows, cols) = self.block(t);
            for (i, acc) in rows.zip(chunk.chunks(self.nc)) {
                ep.write_row(
                    &mut c[i * self.n + cols.start..i * self.n + cols.end],
                    acc,
                    i,
                    cols.start,
                );
            }
        }
        scratch::release(stage);
    }
}

/// Sweeps one packed `KC×NC` slab of `B` through every register tile of a
/// blocked task's `width` columns, continuing each tile's chains from the
/// staging chunk `acc` (rows at stride `ld`) — or starting them from `+0.0`
/// when `fresh` — and storing whole tiles back.
#[allow(clippy::too_many_arguments)]
fn slab_tiles<const MR: usize, const NR: usize>(
    apack: &[f32],
    slab: &[f32],
    k: usize,
    ks: Range<usize>,
    rows: Range<usize>,
    width: usize,
    ld: usize,
    acc: &mut [f32],
    fresh: bool,
) {
    let kc = ks.len();
    for jp in (0..width).step_by(NR) {
        let bpanel = &slab[jp * kc..(jp + NR) * kc];
        for ip in rows.clone().step_by(MR) {
            // Panel `ip / MR` starts at `ip·k`; its `ks` slice is contiguous.
            let apanel = &apack[ip * k + ks.start * MR..ip * k + ks.end * MR];
            let out = &mut acc[(ip - rows.start) * ld + jp..];
            let mut tile = [[0.0f32; NR]; MR];
            if !fresh {
                for (i, t) in tile.iter_mut().enumerate() {
                    t.copy_from_slice(&out[i * ld..i * ld + NR]);
                }
            }
            fma_tile(apanel, bpanel, kc, &mut tile);
            for (i, t) in tile.iter().enumerate() {
                out[i * ld..i * ld + NR].copy_from_slice(t);
            }
        }
    }
}

/// Cache-blocked GEMM for a DRAM-resident `B` (see the module docs).
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'_>,
) {
    let pa = PackedLhs::pack(a, ta, m, k);
    let tile = (pa.mr, select_nr(n));
    let grid = Grid::blocked(m, n);
    grid.run(m * k * n, c, ep, |t, acc| {
        let (rows, cols) = grid.block(t);
        let mut slab = scratch::take(KC * NC);
        for p0 in (0..k).step_by(KC) {
            let ks = p0..(p0 + KC).min(k);
            pack_rhs(b, tb, (k, n), ks.clone(), cols.clone(), tile.1, &mut slab);
            dispatch_tile!(
                tile,
                slab_tiles(
                    &pa.buf,
                    &slab,
                    k,
                    ks,
                    rows.clone(),
                    cols.len(),
                    grid.nc,
                    acc,
                    false
                )
            );
        }
        scratch::release(slab);
    });
}

/// Column-parallel axpy kernel for skinny products.
///
/// Packing `B` costs `k·n` writes; at `m = 1` (batch-1 inference through a
/// fully-connected layer) that is more memory traffic than the entire
/// product. Each task owns a column range (all of them when `B` is
/// small) and reads the row-major `b` directly in `k`-chunks of `THIN_CHUNK_BYTES` — each chunk stays in
/// L2 while all `m` accumulator rows consume it. Every output element is
/// still a single `mul_add` chain with `p` ascending, so the thin and
/// tiled paths agree to the bit.
#[allow(clippy::too_many_arguments)]
fn gemm_thin(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    big_rhs: bool,
    ep: Epilogue<'_>,
) {
    let grid = Grid::thin(m, n, big_rhs);
    let kc = (THIN_CHUNK_BYTES / (grid.nc * std::mem::size_of::<f32>())).max(1);
    grid.run(m * k * n, c, ep, |t, acc| {
        let (_, cols) = grid.block(t);
        for kb in (0..k).step_by(kc) {
            for (i, acc_row) in acc.chunks_mut(grid.nc).enumerate() {
                let acc_row = &mut acc_row[..cols.len()];
                for p in kb..(kb + kc).min(k) {
                    let ai = match ta {
                        Trans::No => a[i * k + p],
                        Trans::Yes => a[p * m + i],
                    };
                    let brow = &b[p * n + cols.start..p * n + cols.end];
                    for (av, &bv) in acc_row.iter_mut().zip(brow) {
                        *av = ai.mul_add(bv, *av);
                    }
                }
            }
        }
    });
}

/// General GEMM: `C[m×n] ←(ep) op(A)·op(B)` where `a` stores `A` (`m×k`,
/// or `k×m` when `ta` = [`Trans::Yes`]) and `b` stores `B` (`k×n`, or
/// `n×k` when `tb` = [`Trans::Yes`]).
///
/// Routes the call by shape: skinny products with a row-major `B` take the
/// thin path; otherwise a DRAM-resident `B` (`k·n ≥ BIG_RHS`) takes the
/// cache-blocked path and everything else the packed path.
/// All three give bit-identical results.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ep(
    a: &[f32],
    ta: Trans,
    b: &[f32],
    tb: Trans,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    let _span = dcd_obs::span("gemm", dcd_obs::Category::Gemm);
    dcd_obs::counter!("gemm.flops").add(2 * (m * k * n) as u64);
    check_dims(a.len(), b.len(), c.len(), m, k, n);
    ep.check(m, n);
    if m == 0 || n == 0 {
        return;
    }
    let big_rhs = k * n >= BIG_RHS;
    if m <= THIN_M && tb == Trans::No {
        gemm_thin(a, ta, b, c, m, k, n, big_rhs, ep);
    } else if big_rhs {
        gemm_blocked(a, ta, b, tb, c, m, k, n, ep);
    } else {
        let pa = PackedLhs::pack(a, ta, m, k);
        gemm_packed(&pa, b, tb, c, n, ep);
    }
}

// ---------------------------------------------------------- entry points

/// `C = A (m×k) · B (k×n)` into a freshly allocated row-major buffer.
///
/// Slices are raw row-major matrices; see [`matmul`] for the [`Tensor`]
/// wrapper.
pub fn gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(a, Trans::No, b, Trans::No, &mut c, m, k, n, Epilogue::Store);
    c
}

/// `C = A·B + bias` where `bias` (length `n`) is broadcast over rows — the
/// fully-connected forward pass, bias fused into the tile write-back
/// instead of a second sweep over `C`.
pub fn gemm_bias(a: &[f32], b: &[f32], bias: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::No,
        &mut c,
        m,
        k,
        n,
        Epilogue::BiasCols(bias),
    );
    c
}

/// `C[m×n] = Aᵀ·B` where `a` holds `A` in `k×m` storage — e.g. the
/// fully-connected weight gradient `xᵀ·∂y` without materializing `xᵀ`.
pub fn gemm_at(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::Yes,
        b,
        Trans::No,
        &mut c,
        m,
        k,
        n,
        Epilogue::Store,
    );
    c
}

/// `C[m×n] = A·Bᵀ` where `b` holds `B` in `n×k` storage — e.g. the
/// fully-connected input gradient `∂y·Wᵀ` without materializing `Wᵀ`.
pub fn gemm_bt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = vec![0.0f32; m * n];
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::Yes,
        &mut c,
        m,
        k,
        n,
        Epilogue::Store,
    );
    c
}

/// Rank-2 [`Tensor`] matrix product.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().matrix();
    let (k2, n) = b.shape().matrix();
    assert_eq!(k, k2, "matmul inner dims disagree: {k} vs {k2}");
    let c = gemm(a.data(), b.data(), m, k, n);
    Tensor::from_vec([m, n], c).expect("gemm output size")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    /// Naive reference O(mnk) product.
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

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn identity_matmul() {
        let a = Tensor::from_vec([2, 2], vec![1., 2., 3., 4.]).unwrap();
        let eye = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.]).unwrap();
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn known_2x3_by_3x2() {
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![7., 8., 9., 10., 11., 12.];
        let c = gemm(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![58., 64., 139., 154.]);
    }

    #[test]
    fn matches_reference_small() {
        let mut rng = SeededRng::new(1);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 4, 9), (16, 16, 16)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            assert_close(&gemm(&a, &b, m, k, n), &gemm_ref(&a, &b, m, k, n), 1e-5);
        }
    }

    #[test]
    fn matches_reference_parallel_path() {
        // Large enough that the rayon branch engages and multiple row
        // blocks and ragged edge panels are exercised (70 % 8 != 0).
        let (m, k, n) = (70, 300, 50);
        let mut rng = SeededRng::new(2);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
        assert_close(&gemm(&a, &b, m, k, n), &gemm_ref(&a, &b, m, k, n), 1e-4);
    }

    #[test]
    fn thin_matches_tiled_bitwise() {
        // m ≤ THIN_M routes through the axpy path; the tiled kernel run on
        // the same inputs (via a pre-packed LHS, which always tiles) must
        // agree to the bit — both are one fma chain per element.
        let mut rng = SeededRng::new(14);
        for &(m, k, n) in &[(1, 5376, 64), (4, 37, 21), (8, 100, 33)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let thin = gemm(&a, &b, m, k, n);
            let pa = PackedLhs::pack(&a, Trans::No, m, k);
            let mut tiled = vec![0.0f32; m * n];
            gemm_packed(&pa, &b, Trans::No, &mut tiled, n, Epilogue::Store);
            for (i, (t, g)) in thin.iter().zip(tiled.iter()).enumerate() {
                assert_eq!(t.to_bits(), g.to_bits(), "element {i}: {t} vs {g}");
            }
        }
    }

    #[test]
    fn grids_tile_c_exactly_once() {
        // Ragged row/column edges on both grids, and the thin grid's single
        // inline block for a cache-resident B.
        for &(m, n) in &[(1, 1), (9, 4096), (33, 4100), (1440, 512), (5, 3500)] {
            for g in [
                Grid::blocked(m, n),
                Grid::thin(m, n, true),
                Grid::thin(m, n, false),
            ] {
                assert!(g.chunk >= g.mc.min(m) * g.nc, "{m}x{n}: chunk too small");
                let mut owners = vec![0u8; m * n];
                for t in 0..g.blocks {
                    let (rows, cols) = g.block(t);
                    for i in rows {
                        for j in cols.clone() {
                            owners[i * n + j] += 1;
                        }
                    }
                }
                assert!(
                    owners.iter().all(|&o| o == 1),
                    "{m}x{n}: blocks overlap or leave gaps"
                );
            }
        }
    }

    #[test]
    fn gemm_bias_broadcasts_rows() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., 2., 3., 4.];
        let c = gemm_bias(&a, &b, &[10., 20.], 2, 2, 2);
        assert_eq!(c, vec![11., 22., 13., 24.]);
    }

    #[test]
    fn bias_cols_relu_clamps_negatives() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., -2., 3., -4.];
        let mut c = vec![0.0; 4];
        let ep = Epilogue::BiasColsRelu(&[0.5, 0.5]);
        gemm_ep(&a, Trans::No, &b, Trans::No, &mut c, 2, 2, 2, ep);
        assert_eq!(c, vec![1.5, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn row_bias_broadcasts_columns() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., 2., 3., 4.];
        let mut c = vec![0.0; 4];
        gemm_ep(
            &a,
            Trans::No,
            &b,
            Trans::No,
            &mut c,
            2,
            2,
            2,
            Epilogue::BiasRows(&[10., 20.]),
        );
        assert_eq!(c, vec![11., 12., 23., 24.]);
    }

    #[test]
    fn gemm_at_transposes_lhs() {
        // A stored [k=3 × m=2]; op(A) = Aᵀ is [[1,3,5],[2,4,6]].
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![7., 8., 9., 10., 11., 12.];
        let c = gemm_at(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![89., 98., 116., 128.]);
    }

    #[test]
    fn gemm_bt_transposes_rhs() {
        // B stored [n=2 × k=3]; op(B) = Bᵀ.
        let a = vec![1., 2., 3., 4., 5., 6.];
        let b = vec![7., 8., 9., 10., 11., 12.];
        let c = gemm_bt(&a, &b, 2, 3, 2);
        assert_eq!(c, vec![50., 68., 122., 167.]);
    }

    #[test]
    fn gemm_bt_accumulate_epilogue_accumulates() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![2., 3., 4., 5.]; // B stored [n=2 × k=2]
        let mut c = vec![1.0; 4];
        let ep = Epilogue::Accumulate;
        gemm_ep(&a, Trans::No, &b, Trans::Yes, &mut c, 2, 2, 2, ep);
        // A·Bᵀ = [[2,4],[3,5]] + 1
        assert_eq!(c, vec![3., 5., 4., 6.]);
    }

    #[test]
    fn packed_lhs_reused_across_calls() {
        let mut rng = SeededRng::new(3);
        let (m, k, n) = (11, 23, 17);
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
        let pa = PackedLhs::pack(&a, Trans::No, m, k);
        for seed in 0..4 {
            let mut r2 = SeededRng::new(seed);
            let b: Vec<f32> = (0..k * n).map(|_| r2.normal()).collect();
            let mut c = vec![0.0; m * n];
            gemm_packed(&pa, &b, Trans::No, &mut c, n, Epilogue::Store);
            assert_close(&c, &gemm_ref(&a, &b, m, k, n), 1e-5);
        }
    }

    #[test]
    fn zero_k_applies_epilogue_only() {
        let mut c = vec![7.0; 4];
        gemm_ep(
            &[],
            Trans::No,
            &[],
            Trans::No,
            &mut c,
            2,
            0,
            2,
            Epilogue::BiasCols(&[1.0, 2.0]),
        );
        assert_eq!(c, vec![1., 2., 1., 2.]);
        gemm_ep(
            &[],
            Trans::No,
            &[],
            Trans::No,
            &mut c,
            2,
            0,
            2,
            Epilogue::Accumulate,
        );
        assert_eq!(c, vec![1., 2., 1., 2.]);
    }

    #[test]
    fn empty_dims_are_ok() {
        assert!(gemm(&[], &[], 0, 3, 0).is_empty());
        let c = gemm(&[0.0; 0], &[0.0; 0], 2, 0, 2);
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "inner dims disagree")]
    fn matmul_checks_inner_dim() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        matmul(&a, &b);
    }
}
