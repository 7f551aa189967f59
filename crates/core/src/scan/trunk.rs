//! The exact shared conv trunk: how every scan, plain or resilient, builds
//! a chunk's network input.
//!
//! Overlapping tiles see the same raster pixels, so their convolutions
//! mostly compute the same values. This module computes each shareable
//! C–P level once over the scanned region, in row bands, and builds every
//! tile's feature maps from those scene-wide maps plus a recomputed border
//! ring. The rest of the network then runs per chunk of tiles, and the
//! detections are bit-identical to running every tile alone.
//!
//! **Which levels share.** Tile origins are `k·stride`. A tile's level-ℓ
//! map (ℓ = 1, 2, 3) lines up with the scene's when its origin is a
//! multiple of `2^(ℓ−1)`, since the tile's pools must fall on the scene's
//! 2×2 grid. At an even stride conv1 and conv2 share; at a multiple of 4
//! conv3 shares too. Every shared level but the last keeps its pooled map
//! across the scene. The last keeps its activation, which each tile pools
//! at its own phase. The unshared levels run per tile, after the shared
//! ones. Odd strides, strides of a patch or more and even conv1 kernels
//! share no level: each tile's input is then its normalized raster window,
//! written by the same code that writes a level-0 ring input.
//!
//! **The ring.** A tile's map differs from the scene's only in a border
//! band, where the tile's zero padding replaces real neighbours. The
//! network input has no such band. A convolution with padding `p` widens
//! the band by `p`. A 2×2 pool halves it, rounding up, with the trailing
//! side worked out from the floor for odd sizes. Per tile, the activation
//! positions under every pooling window the band touches are recomputed
//! from the tile's own zero-padded map. These positions form up to four
//! strips, the ring. A strip's outputs read only its rectangle grown by
//! `p`, with zeros past the map's edge, so each strip gets that window as
//! its own input, and a valid convolution over it returns exactly the
//! strip. Strips of one shape share a convolution: the top and bottom
//! strips make one, the side strips another. Under a 7×7 conv1, conv3's
//! ring has four shapes: 4-row top and 2-row bottom strips, and side
//! strips 4 and 2 columns wide. For candidate 2 at stride 50 the ring is
//! 784 conv1 positions (the 396-pixel band rounded out to whole windows)
//! and 384 conv2 positions of each tile's 10 000 and 2 500. A 1×1 conv1
//! has no ring.
//!
//! **Why the bits match.** Every convolution output, in the scene pass
//! and in a ring, is one `mul_add` chain over the same taps in the same
//! order as in the per-tile pass, whichever conv routine computes it.
//! Outside the band its taps read the same values; scene-edge taps read
//! the zero border the scene pass keeps around its region; ring outputs
//! read the zeros their window holds where the tile's padding would be.
//! Pools take the same four values in the same order through the same
//! kernel. Normalization is per pixel, so the scene pass and the ring
//! inputs normalize as they read the raster.
//!
//! **Memory and scratch.** The scene-wide maps live in plain `Vec`s that
//! hold only the rows the current chunk's tiles, and the next band pass,
//! read: about two tile heights per level, however tall the raster. Scene
//! passes run as zero-padding convolutions over tile-shaped blocks with a
//! halo, and ring inputs are a few rows or columns of a tile, so each asks
//! the scratch arena for at most the buffers a per-tile pass asks for.
//! The ring convolutions take whichever routine their shape gets: the
//! side strips, two columns wide, run packed.

use super::ScanConfig;
use dcd_geodata::normalize_reflectance;
use dcd_nn::{BlockGeometry, SppNet, CONV_BLOCKS};
use dcd_tensor::{conv2d_relu, conv2d_relu_pool, max_pool2x2_at, MapLayout, Tensor};
use rayon::prelude::*;
use std::ops::Range;

/// How many of `model`'s C–P levels tiles at `stride` share: none unless
/// the tiles overlap and their origins sit on the 2×2 pool grid (an even
/// stride). Every shared level's tile map must pool to at least one pixel,
/// and its convolution must keep the map's size (an odd kernel).
pub(super) fn shared_levels(model: &SppNet, patch: usize, stride: usize) -> usize {
    if stride == 0 || stride >= patch || !stride.is_multiple_of(2) {
        return 0;
    }
    let levels = CONV_BLOCKS.min(1 + stride.trailing_zeros() as usize);
    let same = (0..levels).all(|l| model.block_geometry(l).kernel % 2 == 1);
    if same && patch >> (levels - 1) >= 2 {
        levels
    } else {
        0
    }
}

/// A rectangle of a tile's activation that its ring recomputes, pooled on
/// its own: rows and columns in the tile's activation, even-aligned.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Strip {
    rows: Range<usize>,
    cols: Range<usize>,
}

impl Strip {
    /// Rows × columns of the strip.
    fn dims(&self) -> (usize, usize) {
        (self.rows.len(), self.cols.len())
    }
}

/// One tile's ring at one level.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ring {
    /// The strips, grouped by shape: each group is one valid convolution,
    /// its strips side by side in the batch.
    groups: Vec<Vec<Strip>>,
    /// Pooled rows (and columns) the tile shares with the scene.
    clean: Range<usize>,
    /// Leading and trailing pooled rows that may differ, which become the
    /// next level's input band.
    band: (usize, usize),
}

impl Ring {
    /// The ring of a `side × side` tile map convolved with padding `pad`,
    /// whose input may differ from the scene's in `lead` leading and
    /// `trail` trailing rows (and columns).
    ///
    /// Each strip's outputs read only its rectangle grown by `pad` on every
    /// side, with zeros past the map's edge. A valid convolution over that
    /// window returns exactly the strip.
    fn new(side: usize, pad: usize, (lead, trail): (usize, usize)) -> Ring {
        let np = side / 2;
        // Activation rows that may differ, from each side.
        let (e0, e1) = ((lead + pad).min(side), (trail + pad).min(side));
        // Pooled row j reads activation rows 2j and 2j + 1.
        let head = e0.div_ceil(2).min(np);
        let tail = (np - ((side - e1) / 2).min(np)).min(np - head);
        let (lo, hi) = (2 * head, 2 * (np - tail));
        let full = 0..2 * np;
        let strips = [
            (0..lo, full.clone()),
            (hi..2 * np, full),
            (lo..hi, 0..lo),
            (lo..hi, hi..2 * np),
        ];
        let mut groups: Vec<Vec<Strip>> = Vec::new();
        for (rows, cols) in strips {
            let strip = Strip { rows, cols };
            if strip.rows.is_empty() || strip.cols.is_empty() {
                continue;
            }
            match groups.iter_mut().find(|g| g[0].dims() == strip.dims()) {
                Some(group) => group.push(strip),
                None => groups.push(vec![strip]),
            }
        }
        Ring {
            groups,
            clean: head..np - tail,
            band: (head, tail),
        }
    }
}

/// Rows `lo..hi` of a scene-wide `[C, H, width]` map, channel-major with
/// room for `cap` rows a channel: row `y` of channel `c` is at `(c·cap + y
/// − lo)·width`. A tile's window of one channel is then one compact block
/// of rows.
#[derive(Debug, Default)]
struct Band {
    data: Vec<f32>,
    c: usize,
    width: usize,
    /// Rows per channel to make room for at the first append.
    room: usize,
    cap: usize,
    lo: usize,
    hi: usize,
}

impl Band {
    /// The map from `(y, x)` on (`y` among the held rows).
    fn layout(&self, (y, x): (usize, usize)) -> MapLayout {
        assert!(
            (self.lo..self.hi).contains(&y),
            "scene row {y} not held ({}..{})",
            self.lo,
            self.hi
        );
        MapLayout {
            origin: (y - self.lo) * self.width + x,
            channel_stride: self.cap * self.width,
            row_stride: self.width,
        }
    }

    /// Forgets the rows above `y` (all of them, when `y` is past the end),
    /// moving the rest up, channels in parallel.
    fn drop_below(&mut self, y: usize) {
        let k = y.min(self.hi).saturating_sub(self.lo);
        let keep = (self.hi - self.lo - k) * self.width;
        if k > 0 && keep > 0 {
            self.data
                .par_chunks_mut(self.cap * self.width)
                .for_each(|plane| plane.copy_within(k * self.width..k * self.width + keep, 0));
        }
        self.lo += k;
        if y > self.hi {
            (self.lo, self.hi) = (y, y);
        }
    }

    /// Appends `n` rows, row `r` of channel `c` written by `fill(c, r,
    /// row)`, channels in parallel. Makes room for at least `room` rows per
    /// channel at the first append, and grows it if the held rows and the
    /// new ones ever do not fit.
    fn append(&mut self, n: usize, fill: impl Fn(usize, usize, &mut [f32]) + Sync) {
        let (held, w) = (self.hi - self.lo, self.width);
        if held + n > self.cap {
            let cap = (held + n).max(self.room);
            let mut data = vec![0.0f32; self.c * cap * w];
            for (new, old) in data
                .chunks_exact_mut(cap * w)
                .zip(self.data.chunks_exact(self.cap.max(1) * w))
            {
                new[..held * w].copy_from_slice(&old[..held * w]);
            }
            (self.data, self.cap) = (data, cap);
        }
        self.data
            .par_chunks_mut(self.cap * w)
            .enumerate()
            .for_each(|(c, plane)| {
                for (r, row) in plane[held * w..(held + n) * w]
                    .chunks_exact_mut(w)
                    .enumerate()
                {
                    fill(c, r, row);
                }
            });
        self.hi += n;
    }
}

/// One shared C–P level.
struct Level {
    geom: BlockGeometry,
    /// Side of a tile's input map, and of its activation, at this level.
    side: usize,
    ring: Ring,
    /// Whether the scene keeps this level's pooled map (every shared level
    /// but the last) or its activation (the last).
    pooled: bool,
    /// Rows × columns of this level's input over the scanned region.
    extent: (usize, usize),
    /// The scene pass's tile-shaped blocks: `blocks` blocks of `block`
    /// activation columns, and at most `block` activation rows per pass.
    blocks: usize,
    block: usize,
    band: Band,
}

impl Level {
    /// Activation rows (or columns) per row of the kept map.
    fn scale(&self) -> usize {
        if self.pooled {
            2
        } else {
            1
        }
    }

    /// Rows of the kept map over the scanned region.
    fn rows(&self) -> usize {
        self.extent.0 / self.scale()
    }

    /// Writes the window `rows × cols` of one tile's pooled map into `dst`
    /// at `to` (the window's top-left corner there): the clean square from
    /// the kept map, for the tile whose input map starts at `(y, x)` of
    /// the level's input, and each strip pooled from tile `i`'s ring
    /// values in `rings`, one `[N·m, C_out, rows, cols]` tensor per group
    /// of `m` strips, strip `j` of tile `i` at sample `i·m + j`.
    fn assemble(
        &self,
        (y, x): (usize, usize),
        (rings, i): (&[Tensor], usize),
        (rows, cols): (Range<usize>, Range<usize>),
        dst: &mut [f32],
        to: MapLayout,
    ) {
        let c = self.geom.c_out;
        let clip = |r: &Range<usize>, w: &Range<usize>| r.start.max(w.start)..r.end.min(w.end);
        let clean = &self.ring.clean;
        let (cr, cc) = (clip(clean, &rows), clip(clean, &cols));
        if !cr.is_empty() && !cc.is_empty() {
            let at = to.at((cr.start - rows.start, cc.start - cols.start));
            let size = (c, cr.len(), cc.len());
            if self.pooled {
                let from = self.band.layout((y / 2 + cr.start, x / 2 + cc.start));
                copy_window(&self.band.data, from, dst, at, size);
            } else {
                let from = self.band.layout((y + 2 * cr.start, x + 2 * cc.start));
                max_pool2x2_at(&self.band.data, from, dst, at, size);
            }
        }
        for (group, ring) in self.ring.groups.iter().zip(rings) {
            for (j, s) in group.iter().enumerate() {
                let pooled = |r: &Range<usize>| r.start / 2..r.end / 2;
                let (sr, sc) = (clip(&pooled(&s.rows), &rows), clip(&pooled(&s.cols), &cols));
                if sr.is_empty() || sc.is_empty() {
                    continue;
                }
                let from = MapLayout::dense(0, s.dims())
                    .at((2 * sr.start - s.rows.start, 2 * sc.start - s.cols.start));
                let at = to.at((sr.start - rows.start, sc.start - cols.start));
                let per = c * s.rows.len() * s.cols.len();
                let values = &ring.data()[(i * group.len() + j) * per..][..per];
                max_pool2x2_at(values, from, dst, at, (c, sr.len(), sc.len()));
            }
        }
    }
}

/// Copies a `[C, H, W]` window of `src` into a window of `dst`.
fn copy_window(
    src: &[f32],
    from: MapLayout,
    dst: &mut [f32],
    to: MapLayout,
    (c, h, w): (usize, usize, usize),
) {
    for ci in 0..c {
        for y in 0..h {
            let s = from.origin + ci * from.channel_stride + y * from.row_stride;
            let d = to.origin + ci * to.channel_stride + y * to.row_stride;
            dst[d..d + w].copy_from_slice(&src[s..s + w]);
        }
    }
}

/// The shared levels of one scan, with their scene-wide bands.
pub(super) struct SharedTrunk<'a> {
    model: &'a SppNet,
    raster: &'a Tensor,
    config: &'a ScanConfig,
    levels: Vec<Level>,
    /// Shape `[C, H, W]` of one tile's input to the rest of the network.
    tile_dims: [usize; 3],
    /// Spare buffers for scene-pass halos and ring inputs, whose every
    /// element each use writes.
    spare: Vec<Vec<f32>>,
}

impl<'a> SharedTrunk<'a> {
    /// The C–P levels of `model` that the tiles centred at `centers` (in
    /// scan order) on `raster` share ([`shared_levels`], possibly none),
    /// for a scan that asks for their maps `batch` tiles at a time.
    pub(super) fn new(
        model: &'a SppNet,
        raster: &'a Tensor,
        config: &'a ScanConfig,
        centers: &[(usize, usize)],
        batch: usize,
    ) -> Self {
        let levels = shared_levels(model, config.patch_size, config.stride);
        let half = config.patch_size / 2;
        let last = centers.last().expect("a scan has tiles");
        let mut extent = (
            last.1 - half + config.patch_size,
            last.0 - half + config.patch_size,
        );
        let mut side = config.patch_size;
        let mut channels = raster.dims()[0];
        let mut band = (0, 0);
        // The most tile rows one chunk reaches.
        let row_tiles = centers.iter().take_while(|c| c.1 == centers[0].1).count();
        let span = (batch.max(1).div_ceil(row_tiles) + 1).min(centers.len() / row_tiles);
        let levels = (0..levels)
            .map(|l| {
                let geom = model.block_geometry(l);
                let ring = Ring::new(side, geom.pad, band);
                let pooled = l + 1 < levels;
                // Tile-shaped blocks, whole pool windows when pooled.
                let widest = if pooled { side & !1 } else { side };
                let blocks = extent.1.div_ceil(widest);
                let mut block = extent.1.div_ceil(blocks);
                if pooled {
                    block = block.next_multiple_of(2);
                }
                let scale = if pooled { 2 } else { 1 };
                // What a chunk's tiles and the next level's pass read: the
                // band's room, sized once.
                let next_pad = if pooled {
                    model.block_geometry(l + 1).pad
                } else {
                    0
                };
                let step = (config.stride >> l) / scale;
                let room = (span - 1) * step + side / scale + 2 * next_pad;
                let level = Level {
                    geom,
                    side,
                    pooled,
                    extent,
                    blocks,
                    block,
                    band: Band {
                        c: geom.c_out,
                        width: blocks * block / scale,
                        room: room.min(extent.0 / scale),
                        ..Band::default()
                    },
                    ring,
                };
                band = level.ring.band;
                channels = geom.c_out;
                side /= 2;
                extent = (extent.0 / 2, extent.1 / 2);
                level
            })
            .collect();
        SharedTrunk {
            model,
            raster,
            config,
            levels,
            tile_dims: [channels, side, side],
            spare: Vec::new(),
        }
    }

    /// The block the rest of the network starts at.
    pub(super) fn tail_block(&self) -> usize {
        self.levels.len()
    }

    /// Shape `[C, H, W]` of one tile's input to the rest of the network.
    pub(super) fn tile_dims(&self) -> [usize; 3] {
        self.tile_dims
    }

    /// Writes the input to the rest of the network, `[N, C, H, W]`
    /// ([`SharedTrunk::tile_dims`]), of the tiles centred at `centers` —
    /// a chunk in scan order, after every earlier chunk — into `out`: each
    /// tile's whole input map at the first unshared level, which is its
    /// normalized raster window when no level is shared.
    pub(super) fn tile_maps(&mut self, centers: &[(usize, usize)], out: &mut [f32]) {
        let half = self.config.patch_size / 2;
        let origins: Vec<(usize, usize)> = centers
            .iter()
            .map(|&(cx, cy)| (cy - half, cx - half))
            .collect();
        self.advance(origins[0].0..=origins[origins.len() - 1].0);
        let mut spare = std::mem::take(&mut self.spare);
        // The previous level's ring values, one tensor per strip group.
        let mut below: Vec<Tensor> = Vec::new();
        for (l, level) in self.levels.iter().enumerate() {
            let block = self.model.block(l);
            let (w, b) = (&block.weight.value, &block.bias.value);
            below = level
                .ring
                .groups
                .iter()
                .map(|group| {
                    let buf = spare.pop().unwrap_or_default();
                    let x = self.ring_input(l, group, &origins, &below, buf);
                    let ring = conv2d_relu(&x, w, b, 1, 0);
                    spare.push(x.into_vec());
                    ring
                })
                .collect();
        }
        self.spare = spare;
        let [c, h, w] = self.tile_dims;
        out.par_chunks_mut(c * h * w)
            .zip(origins.par_iter())
            .enumerate()
            .for_each(|(i, (dst, &origin))| {
                let to = MapLayout::dense(0, (h, w));
                let window = (0..h, 0..w);
                self.input_window(self.levels.len(), origin, (&below, i), window, dst, to);
            });
    }

    /// Level `l`'s ring input for one group of same-shaped strips, in
    /// `buf`: each tile's strips side by side in the batch, each the
    /// strip's window of the tile's input map grown by the conv's pad
    /// ([`SharedTrunk::input_window`]), zero past the map's edge.
    fn ring_input(
        &self,
        l: usize,
        group: &[Strip],
        origins: &[(usize, usize)],
        below: &[Tensor],
        mut buf: Vec<f32>,
    ) -> Tensor {
        let BlockGeometry { c_in, pad, .. } = self.levels[l].geom;
        let side = self.levels[l].side;
        let (h, w) = group[0].dims();
        let (h, w) = (h + 2 * pad, w + 2 * pad);
        // The window's part on the map, and the zero rows (or columns)
        // before that part where the window starts off the map.
        let grow = |r: &Range<usize>| r.start.saturating_sub(pad)..(r.end + pad).min(side);
        let zeros = |r: &Range<usize>| pad - r.start.min(pad);
        buf.resize(origins.len() * group.len() * c_in * h * w, 0.0);
        buf.par_chunks_mut(group.len() * c_in * h * w)
            .zip(origins.par_iter())
            .enumerate()
            .for_each(|(i, (dst, &origin))| {
                for (s, dst) in group.iter().zip(dst.chunks_exact_mut(c_in * h * w)) {
                    dst.fill(0.0);
                    let to = MapLayout::dense(0, (h, w)).at((zeros(&s.rows), zeros(&s.cols)));
                    let window = (grow(&s.rows), grow(&s.cols));
                    self.input_window(l, origin, (below, i), window, dst, to);
                }
            });
        Tensor::from_vec([origins.len() * group.len(), c_in, h, w], buf).expect("ring input")
    }

    /// Writes the window `rows × cols` of level `l`'s input map of the
    /// tile whose origin is raster cell `(y, x)` into `dst` at `to`: the
    /// raster window at `l = 0`, and otherwise level `l − 1`'s pooled map,
    /// rebuilt from its kept map and tile `i`'s ring values in `below`.
    fn input_window(
        &self,
        l: usize,
        (y, x): (usize, usize),
        (below, i): (&[Tensor], usize),
        window: (Range<usize>, Range<usize>),
        dst: &mut [f32],
        to: MapLayout,
    ) {
        match l.checked_sub(1) {
            None => self.raster_window((y, x), window, dst, to),
            Some(k) => self.levels[k].assemble((y >> k, x >> k), (below, i), window, dst, to),
        }
    }

    /// Copies the window `rows × cols` of the tile whose origin is raster
    /// cell `(y, x)` into `dst` at `to`, normalized as the dataset is.
    fn raster_window(
        &self,
        (y, x): (usize, usize),
        (rows, cols): (Range<usize>, Range<usize>),
        dst: &mut [f32],
        to: MapLayout,
    ) {
        let (rh, rw) = (self.raster.dims()[1], self.raster.dims()[2]);
        for ci in 0..self.raster.dims()[0] {
            for (r, src_y) in rows.clone().enumerate() {
                let s = (ci * rh + y + src_y) * rw + x;
                let d = to.origin + ci * to.channel_stride + r * to.row_stride;
                let out = &mut dst[d..d + cols.len()];
                out.copy_from_slice(&self.raster.data()[s + cols.start..s + cols.end]);
                normalize_reflectance(out);
            }
        }
    }

    /// Moves every band to the tile rows whose origins are raster rows
    /// `rows`: drops the rows no later tile or band pass reads, then
    /// computes the rows these tile rows read — the last level first, so
    /// each level runs one pass for the rows it and the next level need.
    fn advance(&mut self, rows: std::ops::RangeInclusive<usize>) {
        for l in 0..self.levels.len() {
            let level = &self.levels[l];
            let mut keep = (rows.start() >> l) / level.scale();
            if let Some(next) = self.levels.get(l + 1) {
                // The next level's next pass starts at its held rows' end.
                let start = (next.band.hi * next.scale()).saturating_sub(next.geom.pad);
                keep = keep.min(start);
            }
            self.levels[l].band.drop_below(keep);
        }
        for l in (0..self.levels.len()).rev() {
            let level = &self.levels[l];
            let window = (rows.end() >> l) / level.scale() + level.side / level.scale();
            self.ensure(l, window);
        }
    }

    /// Computes level `l`'s kept map up to row `need`, first computing the
    /// input rows it reads. After the first chunk each call adds the rows
    /// of the one or two tile rows a chunk moves on by.
    fn ensure(&mut self, l: usize, need: usize) {
        let level = &self.levels[l];
        let need = need.min(level.rows());
        if level.band.hi >= need {
            return;
        }
        let (scale, pad) = (level.scale(), level.geom.pad);
        if l > 0 {
            self.ensure(l - 1, need * scale + pad);
        }
        let start = self.levels[l].band.hi * scale;
        for a0 in (start..need * scale).step_by(self.levels[l].block) {
            let a1 = (a0 + self.levels[l].block).min(need * scale);
            self.pass(l, a0..a1);
        }
    }

    /// One scene pass: level `l`'s activation rows `rows` across the whole
    /// region, as a zero-padding convolution over tile-shaped blocks cut
    /// with a halo from the level's input, appended to its band.
    fn pass(&mut self, l: usize, rows: Range<usize>) {
        let level = &self.levels[l];
        let BlockGeometry {
            c_in, c_out, pad, ..
        } = level.geom;
        let (bh, bw) = (rows.len() + 2 * pad, level.block + 2 * pad);
        // `input_row` writes every element.
        let mut halo = self.spare.pop().unwrap_or_default();
        halo.resize(level.blocks * c_in * bh * bw, 0.0);
        halo.par_chunks_mut(c_in * bh * bw)
            .enumerate()
            .for_each(|(j, dst)| {
                let x0 = j * level.block;
                for (ci, plane) in dst.chunks_exact_mut(bh * bw).enumerate() {
                    for (yy, row) in plane.chunks_exact_mut(bw).enumerate() {
                        self.input_row(l, ci, (rows.start + yy).checked_sub(pad), x0, pad, row);
                    }
                }
            });
        let x = Tensor::from_vec([level.blocks, c_in, bh, bw], halo).expect("halo blocks");
        let block = self.model.block(l);
        let (w, b) = (&block.weight.value, &block.bias.value);
        let y = if level.pooled {
            conv2d_relu_pool(&x, w, b, 1, 0)
        } else {
            conv2d_relu(&x, w, b, 1, 0)
        };
        self.spare.push(x.into_vec());
        let [_, _, oh, ow]: [usize; 4] = y.dims().try_into().expect("NCHW");
        self.levels[l].band.append(oh, |c, r, row| {
            for (j, dst) in row.chunks_exact_mut(ow).enumerate() {
                let src = ((j * c_out + c) * oh + r) * ow;
                dst.copy_from_slice(&y.data()[src..src + ow]);
            }
        });
    }

    /// Fills `row` with channel `c` of level `l`'s input at row `y` (`None`
    /// above the region), from column `x0 − pad` on, with zeros outside
    /// the region: the raster normalized as the dataset is, or the
    /// previous level's kept map.
    fn input_row(
        &self,
        l: usize,
        c: usize,
        y: Option<usize>,
        x0: usize,
        pad: usize,
        row: &mut [f32],
    ) {
        let (h, w) = self.levels[l].extent;
        let Some(y) = y.filter(|&y| y < h) else {
            row.fill(0.0);
            return;
        };
        // Row positions `i` read input column `x0 + i − pad`.
        let lo = pad.saturating_sub(x0).min(row.len());
        let hi = (w + pad).saturating_sub(x0).clamp(lo, row.len());
        row[..lo].fill(0.0);
        row[hi..].fill(0.0);
        let cols = x0 + lo - pad..x0 + hi - pad;
        let dst = &mut row[lo..hi];
        if l == 0 {
            let (rh, rw) = (self.raster.dims()[1], self.raster.dims()[2]);
            let src = &self.raster.data()[(c * rh + y) * rw..(c * rh + y + 1) * rw];
            dst.copy_from_slice(&src[cols]);
            normalize_reflectance(dst);
        } else {
            let band = &self.levels[l - 1].band;
            let at = band.layout((y, 0));
            let s = at.origin + c * at.channel_stride;
            dst.copy_from_slice(&band.data[s + cols.start..s + cols.end]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_follows_the_stride() {
        use dcd_nn::SppNetConfig;
        use dcd_tensor::SeededRng;
        let model = |conv1_kernel| {
            let arch = SppNetConfig {
                conv1_kernel,
                ..SppNetConfig::tiny()
            };
            SppNet::new(arch, &mut SeededRng::new(1))
        };
        let net = model(3);
        // Overlap and an even stride share conv1 and conv2; a multiple of
        // 4 shares conv3 too; odd strides and disjoint tiles share nothing.
        assert_eq!(shared_levels(&net, 100, 50), 2);
        assert_eq!(shared_levels(&net, 100, 12), 3);
        assert_eq!(shared_levels(&net, 100, 24), 3);
        assert_eq!(shared_levels(&net, 100, 2), 2);
        assert_eq!(shared_levels(&net, 100, 51), 0);
        assert_eq!(shared_levels(&net, 100, 100), 0);
        assert_eq!(shared_levels(&net, 100, 120), 0);
        assert_eq!(shared_levels(&net, 100, 0), 0);
        // A 4-pixel tile pools to 1×1 after conv2: conv3 cannot share.
        assert_eq!(shared_levels(&net, 4, 2), 2);
        assert_eq!(shared_levels(&net, 4, 4), 0);
        assert_eq!(shared_levels(&net, 3, 2), 0);
        // An even conv1 kernel changes the map's size: no sharing.
        assert_eq!(shared_levels(&model(1), 100, 50), 2);
        assert_eq!(shared_levels(&model(2), 100, 50), 0);
    }

    /// The strips of a ring, whatever their group.
    fn strips(ring: &Ring) -> impl Iterator<Item = &Strip> {
        ring.groups.iter().flatten()
    }

    /// Ring sizes (the strips' activation area) from the first level down,
    /// for a tile side and the conv pads in order.
    fn ring_sizes(side: usize, pads: &[usize]) -> Vec<usize> {
        let (mut side, mut band) = (side, (0, 0));
        pads.iter()
            .map(|&pad| {
                let ring = Ring::new(side, pad, band);
                band = ring.band;
                side /= 2;
                strips(&ring).map(|s| s.rows.len() * s.cols.len()).sum()
            })
            .collect()
    }

    #[test]
    fn candidate2_rings() {
        // conv1's one-pixel band (396 pixels) rounds out to whole pool
        // windows: 100² − 96² = 784. conv2's two-pixel band is already
        // whole windows: 50² − 46² = 384. conv3's 25×25 map pools only
        // its first 24 rows and columns: 24² − 20² = 176 of the 184.
        assert_eq!(ring_sizes(100, &[1, 1, 1]), vec![784, 384, 176]);
    }

    #[test]
    fn every_conv1_kernel_has_a_ring_the_pools_agree_on() {
        // The paper's conv1 sizes, then two 3×3 convs. A 1×1 conv1 has no
        // ring, but conv2's own padding still needs one; 7×7 and 9×9 widen
        // every later ring.
        assert_eq!(ring_sizes(100, &[0, 1, 1]), vec![0, 384, 176]);
        assert_eq!(ring_sizes(100, &[1, 1, 1]), vec![784, 384, 176]);
        assert_eq!(ring_sizes(100, &[2, 1, 1]), vec![784, 384, 176]);
        assert_eq!(ring_sizes(100, &[3, 1, 1]), vec![1536, 736, 252]);
        assert_eq!(ring_sizes(100, &[4, 1, 1]), vec![1536, 736, 252]);
        // Under a 7×7 conv1, conv3's 25×25 map has a 4-row top strip and a
        // 2-row bottom one, and side strips 4 and 2 columns wide: four
        // shapes, four convolutions. 3×3 convs pair them up.
        let dims = |side, pad, band| {
            let ring = Ring::new(side, pad, band);
            ring.groups
                .iter()
                .map(|g| g.iter().map(Strip::dims).collect())
                .collect::<Vec<Vec<_>>>()
        };
        assert_eq!(
            dims(25, 1, (2, 2)),
            vec![vec![(4, 24)], vec![(2, 24)], vec![(18, 4)], vec![(18, 2)]]
        );
        assert_eq!(
            dims(100, 1, (0, 0)),
            vec![vec![(2, 100), (2, 100)], vec![(96, 2), (96, 2)]]
        );
        for pad in 0..=4 {
            let (side, mut band) = (100, (0, 0));
            let mut side = side;
            for p in [pad, 1, 1] {
                let ring = Ring::new(side, p, band);
                let np = side / 2;
                // Strips and clean interior tile the pooled map exactly.
                let pooled: usize = strips(&ring).map(|s| s.rows.len() * s.cols.len() / 4).sum();
                assert_eq!(pooled + ring.clean.len().pow(2), np * np);
                // The band a pool window touches is inside the ring.
                let (e0, e1) = (band.0 + p, band.1 + p);
                assert!(2 * ring.clean.start >= e0, "pad {pad}");
                assert!(2 * ring.clean.end <= side - e1, "pad {pad}");
                band = ring.band;
                side /= 2;
            }
        }
    }

    #[test]
    fn tile_maps_equal_the_per_tile_trunk_bitwise() {
        // Candidate 2's geometry (100×100 tiles, 3×3 convs) with narrow
        // channels, on a 260×310 raster that no stride divides. At stride
        // 50 the tail starts at conv3, at stride 12 at the SPP layer, and
        // at stride 51 at conv1. Corner, edge-middle and interior tiles are
        // checked against the first blocks run on the tile alone.
        use dcd_geodata::render::clip_patch_into;
        use dcd_nn::SppNetConfig;
        use dcd_tensor::SeededRng;
        let mut arch = SppNetConfig::candidate2();
        arch.channels = [8, 12, 16];
        arch.fc1 = 16;
        let model = SppNet::new(arch, &mut SeededRng::new(3));
        let raster = Tensor::uniform([4, 260, 310], 0.0, 1.0, &mut SeededRng::new(4));
        for (stride, levels, dims) in [
            (50, 2, [12, 25, 25]),
            (12, 3, [16, 12, 12]),
            (51, 0, [4, 100, 100]),
        ] {
            let config = ScanConfig::for_patch(100).with_stride(stride);
            let centers = super::super::tile_centers(310, 260, &config);
            let mut trunk = SharedTrunk::new(&model, &raster, &config, &centers, 7);
            assert_eq!(trunk.tail_block(), levels);
            assert_eq!(trunk.tile_dims(), dims);
            let per: usize = dims.iter().product();
            let tile = |c: (usize, usize)| ((c.1 - 50) / stride, (c.0 - 50) / stride);
            let (rows, cols) = tile(*centers.last().unwrap());
            let mut picks: Vec<(usize, usize)> = [0, rows / 2, rows]
                .into_iter()
                .flat_map(|ty| [0, cols / 2, cols].map(|tx| (ty, tx)))
                .collect();
            picks.extend([(1, 1), (rows - 1, 2)]);
            let mut checked = 0;
            // Chunks of 7 tiles straddle tile rows.
            for chunk in centers.chunks(7) {
                let mut maps = vec![0.0f32; chunk.len() * per];
                trunk.tile_maps(chunk, &mut maps);
                for (&c, got) in chunk.iter().zip(maps.chunks(per)) {
                    if !picks.contains(&tile(c)) {
                        continue;
                    }
                    let mut clip = vec![0.0f32; 4 * 100 * 100];
                    clip_patch_into(&raster, c.0, c.1, 100, &mut clip);
                    clip.iter_mut().for_each(|v| *v = (*v - 0.5) * 2.0);
                    let mut x = Tensor::from_vec([1, 4, 100, 100], clip).unwrap();
                    for b in 0..levels {
                        x = model.block(b).infer(&x);
                    }
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got),
                        bits(x.data()),
                        "stride {stride} tile {:?}",
                        tile(c)
                    );
                    checked += 1;
                }
            }
            assert_eq!(checked, picks.len());
        }
    }

    #[test]
    fn band_appends_drops_and_lays_out_rows() {
        // Two channels of three columns; element (c, y, x) = 100c + 10y + x.
        let value = |c: usize, y: usize, x: usize| (100 * c + 10 * y + x) as f32;
        let mut band = Band {
            c: 2,
            width: 3,
            lo: 5,
            hi: 5,
            ..Band::default()
        };
        let rows = |first: usize| {
            move |c: usize, r: usize, row: &mut [f32]| {
                for (x, v) in row.iter_mut().enumerate() {
                    *v = value(c, first + r, x);
                }
            }
        };
        band.append(4, rows(5));
        let at = band.layout((6, 1));
        assert_eq!(band.data[at.origin], value(0, 6, 1));
        assert_eq!(band.data[at.origin + at.channel_stride], value(1, 6, 1));
        assert_eq!(band.data[at.origin + at.row_stride], value(0, 7, 1));
        band.drop_below(7);
        band.append(3, rows(9));
        assert_eq!((band.lo, band.hi), (7, 12));
        for (c, y, x) in [(0, 7, 0), (1, 8, 2), (1, 11, 1), (0, 11, 2)] {
            let at = band.layout((y, x));
            assert_eq!(band.data[at.origin + c * at.channel_stride], value(c, y, x));
        }
        band.drop_below(20);
        assert_eq!((band.lo, band.hi), (20, 20));
    }
}
