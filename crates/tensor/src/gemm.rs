//! Packed, register-blocked, rayon-parallel single-precision GEMM.
//!
//! This is the workhorse behind the fully-connected layers and the im2col
//! convolution. Every product runs one of three routines, chosen per call
//! from its shape (see [`gemm_ep`]):
//!
//! * **Packed** — every product whose `B` fits in cache (the convolution
//!   backward's per-sample products among them). `A` is packed into
//!   row-panels of `MR` rows and `B` into column-panels of `NR` columns
//!   (k-major inside each panel), once per call, into thread-local
//!   [`crate::scratch`] buffers; each register tile then runs over the
//!   whole `k` extent, B panels in the outer loop so one stays cache-hot
//!   while the A panels sweep it. Parallel tasks own disjoint `MC`-row
//!   blocks of `C`. The convolution forward pass drives the same tile loop
//!   through `gemm_slab`, over L2-sized slabs of `B` that `conv` packs
//!   straight from the input image.
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
//! 256-bit vectors there (`fma_tile_zmm`, the crate's one `unsafe` block).
//! Every other tile, and the full-size 6×16 tile (12 ymm accumulators) of
//! builds without AVX-512, is left to LLVM's autovectorizer (the workspace
//! builds with `target-cpu=native`, see `.cargo/config.toml`). The
//! write-back applies a fused [`Epilogue`] — overwrite, accumulate, or
//! bias (+ optional ReLU), broadcast over rows or columns — so callers like
//! the fully-connected forward pass make no second sweep over `C`.
//! Transposed variants ([`gemm_at`], [`gemm_bt`]) pack straight from the
//! transposed layout, so backward passes never materialize `Aᵀ`/`Bᵀ`.
//!
//! Every output element is a single fused-multiply-add chain over
//! `p = 0..k` in ascending order — carried across `KC` slices in f32 by the
//! blocked path — regardless of the routine, the tile shape or width, the
//! block grid, or the thread count. That is what keeps parallel runs
//! bit-identical to sequential ones, the three routines bit-identical to
//! each other, and AVX-512 builds bit-identical to AVX2 ones. (The
//! retained [`gemm_legacy`] baseline uses separate mul+add, so it agrees
//! with the packed kernel only to rounding, not to the bit.)

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
fn select_mr(m: usize) -> usize {
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
            // `b` stores Bᵀ: `op(B)[p][j] = b[j*k + p]`, contiguous in `p`.
            for (jj, j) in js.enumerate() {
                let src = &b[j * k + ks.start..j * k + ks.end];
                let panel = &mut out[jj / nr * nr * kc + jj % nr..];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * nr] = v;
                }
            }
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

    /// Rows per packed panel (a row block split must be a multiple of it).
    pub(crate) fn mr(&self) -> usize {
        self.mr
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

/// Runs every micro-tile of `rows` × `cols` of `C` over the full `k`
/// extent and writes each back through the epilogue, masking the ragged
/// edge. `rows.start` is a multiple of `MR`, so row panel `ip / MR` of
/// `apack` starts at `ip·k`. `c_rows` holds rows `rows` at stride `ldc`;
/// `bpack` holds the column-panels of `cols` (panel `(jp − cols.start) /
/// NR` holds columns `jp..jp + NR`). B panels are the outer loop, so one B
/// micro-panel stays cache-hot while every A panel of the block sweeps it.
#[allow(clippy::too_many_arguments)]
fn block<const MR: usize, const NR: usize>(
    apack: &[f32],
    bpack: &[f32],
    c_rows: &mut [f32],
    rows: Range<usize>,
    cols: Range<usize>,
    k: usize,
    ldc: usize,
    ep: Epilogue<'_>,
) {
    for jp in cols.clone().step_by(NR) {
        let bpanel = &bpack[(jp - cols.start) * k..(jp - cols.start + NR) * k];
        let n_rem = NR.min(cols.end - jp);
        for ip in rows.clone().step_by(MR) {
            let apanel = &apack[ip * k..(ip + MR) * k];
            let m_rem = MR.min(rows.end - ip);
            let mut acc = [[0.0f32; NR]; MR];
            fma_tile(apanel, bpanel, k, &mut acc);
            let c = &mut c_rows[(ip - rows.start) * ldc + jp..];
            for (i, t) in acc.iter().enumerate().take(m_rem) {
                ep.write_row(&mut c[i * ldc..i * ldc + n_rem], t, ip + i, jp);
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
    let mut bpack = scratch::take(n.div_ceil(nr) * nr * k);
    pack_rhs(b, tb, (k, n), 0..k, 0..n, nr, &mut bpack);
    let tile = (pa.mr, nr);
    let apack = &pa.buf;
    let run = |(blk, c_blk): (usize, &mut [f32])| {
        let rows = blk * MC..(blk * MC + MC).min(m);
        dispatch_tile!(tile, block(apack, &bpack, c_blk, rows, 0..n, k, n, ep));
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
/// [`pack_rhs`] would — writing rows `rows` of `C` (held in `c_rows` at
/// stride `ldc`) through the epilogue. The convolution forward pass packs
/// such slabs straight from the input image.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_slab(
    pa: &PackedLhs,
    slab: &[f32],
    nr: usize,
    c_rows: &mut [f32],
    rows: Range<usize>,
    cols: Range<usize>,
    ldc: usize,
    ep: Epilogue<'_>,
) {
    let k = pa.k;
    dispatch_tile!(
        (pa.mr, nr),
        block(&pa.buf, slab, c_rows, rows, cols, k, ldc, ep)
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
/// staging chunk `acc` (rows at stride `ld`) and storing them back.
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
) {
    let kc = ks.len();
    for jp in (0..width).step_by(NR) {
        let bpanel = &slab[jp * kc..(jp + NR) * kc];
        for ip in rows.clone().step_by(MR) {
            // Panel `ip / MR` starts at `ip·k`; its `ks` slice is contiguous.
            let apanel = &apack[ip * k + ks.start * MR..ip * k + ks.end * MR];
            let out = &mut acc[(ip - rows.start) * ld + jp..];
            let mut tile = [[0.0f32; NR]; MR];
            for (i, t) in tile.iter_mut().enumerate() {
                t.copy_from_slice(&out[i * ld..i * ld + NR]);
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
                    acc
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

/// `C = A·B` overwriting an existing buffer (no zeroing pre-pass — the
/// packed kernel stores every element exactly once).
pub fn gemm_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ep(a, Trans::No, b, Trans::No, c, m, k, n, Epilogue::Store);
}

/// `C += A·B` accumulated into an existing buffer.
pub fn gemm_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ep(a, Trans::No, b, Trans::No, c, m, k, n, Epilogue::Accumulate);
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

/// [`gemm_bias`] with a fused `max(0, ·)` — the inference fast path for
/// `Linear → ReLU`, skipping the separate mask pass entirely.
pub fn gemm_bias_relu(
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
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
        Epilogue::BiasColsRelu(bias),
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

/// `C += A·Bᵀ` (`b` in `n×k` storage) — the convolution weight-gradient
/// accumulation `∂y·colsᵀ` without building the `colsᵀ` buffer.
pub fn gemm_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_ep(
        a,
        Trans::No,
        b,
        Trans::Yes,
        c,
        m,
        k,
        n,
        Epilogue::Accumulate,
    );
}

/// Rank-2 [`Tensor`] matrix product.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape().matrix();
    let (k2, n) = b.shape().matrix();
    assert_eq!(k, k2, "matmul inner dims disagree: {k} vs {k2}");
    let c = gemm(a.data(), b.data(), m, k, n);
    Tensor::from_vec([m, n], c).expect("gemm output size")
}

// -------------------------------------------------------------- legacy

/// The pre-packing scalar axpy kernel, kept as the benchmark baseline
/// (`dcd-bench --bin gemm` reports packed-vs-legacy speedups) and as an
/// independent oracle in tests. Not used by any layer.
pub fn gemm_legacy(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return c;
    }
    const KC: usize = 256;
    let legacy_rows = |a: &[f32], c_rows: &mut [f32], i0: usize, i1: usize| {
        for kb in (0..k).step_by(KC) {
            let kend = (kb + KC).min(k);
            for i in i0..i1 {
                let a_row = &a[i * k..(i + 1) * k];
                let c_row = &mut c_rows[(i - i0) * n..(i - i0 + 1) * n];
                for p in kb..kend {
                    let aval = a_row[p];
                    if aval == 0.0 {
                        continue;
                    }
                    let b_row = &b[p * n..(p + 1) * n];
                    for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                        *cv += aval * bv;
                    }
                }
            }
        }
    };
    if m * n * k < PAR_WORK {
        legacy_rows(a, &mut c, 0, m);
    } else {
        c.par_chunks_mut(32 * n)
            .enumerate()
            .for_each(|(blk, c_blk)| {
                legacy_rows(a, c_blk, blk * 32, (blk * 32 + 32).min(m));
            });
    }
    c
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
    fn packed_matches_legacy_closely() {
        // The packed kernel keeps the legacy summation order (single
        // accumulator per element, p ascending) but fuses each multiply-add,
        // so it agrees with the separate-mul-add legacy kernel to rounding.
        let mut rng = SeededRng::new(12);
        for &(m, k, n) in &[(1, 7, 5), (13, 31, 9), (70, 300, 50)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.normal()).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.normal()).collect();
            let packed = gemm(&a, &b, m, k, n);
            let legacy = gemm_legacy(&a, &b, m, k, n);
            assert_close(&packed, &legacy, 1e-5);
        }
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
    fn gemm_acc_accumulates() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![2., 3., 4., 5.];
        let mut c = vec![1.0; 4];
        gemm_acc(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, vec![3., 4., 5., 6.]);
    }

    #[test]
    fn gemm_bias_broadcasts_rows() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., 2., 3., 4.];
        let c = gemm_bias(&a, &b, &[10., 20.], 2, 2, 2);
        assert_eq!(c, vec![11., 22., 13., 24.]);
    }

    #[test]
    fn gemm_bias_relu_clamps_negatives() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![1., -2., 3., -4.];
        let c = gemm_bias_relu(&a, &b, &[0.5, 0.5], 2, 2, 2);
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
    fn gemm_bt_acc_accumulates() {
        let a = vec![1., 0., 0., 1.];
        let b = vec![2., 3., 4., 5.]; // B stored [n=2 × k=2]
        let mut c = vec![1.0; 4];
        gemm_bt_acc(&a, &b, &mut c, 2, 2, 2);
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
