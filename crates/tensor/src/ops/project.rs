//! Implicit-im2col, activation-sparse patch projection: `patch · R` for
//! a block of patch rows, with both operands read where they lie.
//!
//! The DeepCAM engine hashes every im2col patch by projecting it through
//! a dense, finite `[n, k]` matrix `R`. Materialising the `[N·P, n]`
//! im2col matrix and running a dense GEMM over it copies every patch and
//! multiplies every zero-padding tap and every post-ReLU zero. Here
//! neither operand is staged per block:
//! - **`A`.** A [`PatchSource`] holds the layer input, zero-padded once
//!   per layer (borrowed when the layer has no padding), and an `n`-entry
//!   offset table: column `kk` of patch row `r` is
//!   `padded[base_r + off[kk]]`. Linear layers use the same form, with
//!   `base_r = r·n` and the identity table.
//! - **`B`.** [`ProjPanels`] holds `R` once per layer in 64-column
//!   panels laid out `[k/64][n][64]`, drawn straight into them from the
//!   layer's seed ([`ProjPanels::generate`]), so every tile walks contiguous
//!   64-float rows. A 64-column slice of row-major `R` at `k = 256` has a
//!   1 KB stride, which maps it onto 16 of L1's 64 sets.
//!
//! One register tile projects every layer: 4 rows × 64 columns in
//! sixteen `zmm` accumulators on `Avx512`, 2 × 64 in the portable code.
//! It walks the block's rows in groups of its height (the rows after the
//! last whole group one at a time), and each panel row it loads serves
//! every row of the group. What a group walks is chosen once per layer
//! from the im2col matrix's non-zero count ([`PatchSource::dense`]):
//! - a nearly dense layer (the first layer's raw image, density ≈ 0.96)
//!   walks every column, its rows' values read in place;
//! - a sparser layer first lists, per group, the columns in which any of
//!   its rows is non-zero (the group's union), ascending, with the rows'
//!   values at them packed `[len][rows]` beside it, and walks only that
//!   list. Neighbouring output positions share most of their post-ReLU
//!   zeros, so a 4-row union skips much of `n`: EIE shares each non-zero
//!   activation across a group of processing elements the same way. Rows
//!   that start one apart in the input (a stride-1 conv within one output
//!   line) read a column's values in one load.
//!
//! The patch norms are summed in place, from the same rows.
//!
//! # Exact and fused chains
//!
//! Every output element is one serial chain over ascending patch
//! columns, starting from `+0.0` — the chain [`matmul_dense_into`] and
//! [`crate::tensor::matmul_into`] evaluate — minus the columns outside
//! its group's union, where the row's entry is `±0.0`; a union column
//! where the row itself is zero stays in the chain. With `R` finite every
//! zero entry's term is `±0.0`, and adding `±0.0` to an accumulator that
//! started at `+0.0` never changes a bit: the accumulator never holds
//! `-0.0` (an exact cancellation rounds to `+0.0`, and
//! `+0.0 + ±0.0 = +0.0`). Subnormal and non-finite entries are not zero:
//! they enter the union.
//!
//! The portable tile, which every variant but `Avx512` runs, rounds each
//! term's multiply, then its add, so its result equals im2col +
//! [`matmul_dense_into`] bitwise. On `Avx512` the tile fuses each term
//! into one `_mm512_fmadd_ps`: one rounding instead of two, so a value
//! may differ from the exact one in its last bits. It is still one
//! serial chain over at most `n` terms, so it lies within
//! `γ_n·Σ|x_i·r_i|` of the true dot product, as the exact value does.
//! [`ProjectScratch::exact_element`] recomputes any output with the
//! exact chain over the same walk.
//!
//! The norm is exact in every form. `patch.iter().map(|v| v * v).sum()`
//! folds from `-0.0` on current toolchains, but its first `+ v²` (always
//! `≥ +0.0` or NaN) already lands on `+0.0` or above, so starting from
//! `+0.0` and adding the squares in order reproduces it for any
//! non-empty patch. An all-zero patch therefore gets norm `+0.0`, never
//! the `-0.0` an empty `sum` would give.
//!
//! # Epilogues
//!
//! A tile is finished when its walk over the group's list ends: its
//! rows × 64 outputs, one 64-bit word per row. Every tile body ends in one
//! epilogue. [`project_patches_approx_into`] stores the floats;
//! [`project_patches_signs_into`] compares them against a per-lane bound
//! ([`Signs`]) and writes each row's sign and uncertain words, so the
//! DeepCAM hash, which needs only the sign bits, never stores or re-reads
//! the float block. The AVX-512 tile compares in registers, the portable
//! one from a stack tile.

use std::borrow::Cow;

use crate::error::TensorError;
use crate::ops::conv::Conv2dConfig;
use crate::rng::{fill_standard_normal, seeded_rng};
use crate::shape::Shape;
use crate::simd::Avx512Token;
use crate::tensor::Tensor;
use crate::Result;

#[cfg(doc)]
use crate::tensor::matmul_dense_into;

/// A layer at or above this share of non-zero im2col entries (in
/// 1/1024ths) walks every column in place; below it each group walks its
/// union list. A list costs a pass over the group's `n` columns, which a
/// nearly dense layer's union (about all of `n`) does not pay back.
/// Measured on VGG11 at k = 256 (fastest of 40 alternating serial
/// 16-image passes, 2-vCPU AVX-512 Xeon): with lists, the 0.96- and
/// 0.86-dense layers 0 and 1 project 9% and 15% slower; walked in place,
/// the 0.44- and 0.36-dense layers 3 and 5 project 14% and 11% slower,
/// the 0.66-dense layer 2 the same, and the 2×2-output layer 6 13% faster.
const DENSE_PER_1024: usize = 680;

/// Floats per 64-byte cache line.
const LINE: usize = 16;

/// The first index of `v` that starts a 64-byte line (at most `LINE`).
fn line_start(v: &[f32]) -> usize {
    v.as_ptr().align_offset(64).min(LINE)
}

/// A projection `R` (`[n, k]`) packed into 64-column panels for the
/// projection tiles, laid out `[k/64][n][64]`: panel `p` holds output
/// columns `64p..64p + 64` of every row, each row's 64 floats one
/// contiguous run. The panels start on a 64-byte line, and the last is
/// zero-padded when `k % 64 ≠ 0`.
///
/// ```
/// use deepcam_tensor::ops::project::ProjPanels;
///
/// // R = [[0, 1, .., 69], [70, .., 139]]: n = 2, k = 70.
/// let r: Vec<f32> = (0..140).map(|v| v as f32).collect();
/// let panels = ProjPanels::pack(&r, 2, 70);
/// assert_eq!(panels.get(1, 65), 135.0);
/// // Panel 1 holds columns 64..128: six real ones, then zeros.
/// assert_eq!(&panels.panel(1)[64..71], &[134.0, 135.0, 136.0, 137.0, 138.0, 139.0, 0.0]);
/// ```
#[derive(Debug)]
pub struct ProjPanels {
    n: usize,
    k: usize,
    /// The panels, plus `LINE` floats of slack so they can start on a
    /// line. The buffer never moves, so its start is found again on
    /// every read.
    buf: Vec<f32>,
}

impl ProjPanels {
    /// Packs the row-major `[n, k]` matrix `proj`.
    ///
    /// # Panics
    ///
    /// Panics when `proj` is not `n·k` long.
    pub fn pack(proj: &[f32], n: usize, k: usize) -> Self {
        assert_eq!(proj.len(), n * k, "projection must be n*k");
        let mut panels = Self::zeroed(n, k);
        for (row, vals) in proj.chunks_exact(k.max(1)).enumerate() {
            panels.put_row(row, vals);
        }
        panels
    }

    /// Draws the seeded Gaussian `R` straight into panels: bit for bit
    /// [`ProjPanels::pack`] of the row-major `[n, k]` matrix whose entry
    /// `i` is the `i`-th [`standard_normal`](crate::rng::standard_normal)
    /// draw of [`seeded_rng`]`(seed)` as `f32` (`ProjectionMatrix::generate`
    /// in `deepcam-hash`). It draws one row of `k` values at a time into a
    /// `k`-float buffer with [`fill_standard_normal`], in the same order,
    /// and copies each 64-value run into its panel, so the row-major
    /// `n·k` matrix is never held.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `k` is zero.
    pub fn generate(n: usize, k: usize, seed: u64) -> Self {
        assert!(n > 0 && k > 0, "projection dimensions must be > 0");
        let mut panels = Self::zeroed(n, k);
        let (mut rng, mut vals) = (seeded_rng(seed), vec![0.0; k]);
        for row in 0..n {
            fill_standard_normal(&mut rng, &mut vals);
            panels.put_row(row, &vals);
        }
        panels
    }

    /// All-zero panels for an `[n, k]` matrix, starting on a line.
    fn zeroed(n: usize, k: usize) -> Self {
        let buf = vec![0.0; k.div_ceil(64) * n * 64 + LINE];
        ProjPanels { n, k, buf }
    }

    /// Writes row `row` of `R` (`k` values) into its panels, one 64-value
    /// run each.
    fn put_row(&mut self, row: usize, vals: &[f32]) {
        let (n, at) = (self.n, line_start(&self.buf));
        let dst = &mut self.buf[at..];
        for (p, cols) in vals.chunks(64).enumerate() {
            dst[(p * n + row) * 64..][..cols.len()].copy_from_slice(cols);
        }
    }

    /// Rows `n` of `R`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Columns `k` of `R`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Panel `p`: `n` rows of 64 floats, columns `64p..64p + 64`.
    pub fn panel(&self, p: usize) -> &[f32] {
        let at = line_start(&self.buf);
        &self.buf[at..at + self.buf.len() - LINE][p * self.n * 64..(p + 1) * self.n * 64]
    }

    /// `R[row, col]`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        assert!(col < self.k, "column outside R");
        self.panel(col / 64)[row * 64 + col % 64]
    }
}

/// Where projected patch rows come from: the values every row reads (the
/// layer input, or its zero-padded copy) and where each row's columns lie
/// in them. Column `kk` of row `r` is `data[base_r + off[kk]]`.
#[derive(Debug, Clone)]
pub struct PatchSource<'a> {
    data: Cow<'a, [f32]>,
    /// One offset per patch column, ascending.
    off: Vec<usize>,
    /// Rows are `images × oh × ow`; row `(ni, y, x)` starts at
    /// `ni·image + y·step_h + x·step_w`.
    images: usize,
    oh: usize,
    ow: usize,
    image: usize,
    step_h: usize,
    step_w: usize,
    /// Non-zero entries of the (implicit) im2col matrix.
    nonzero: usize,
}

impl<'a> PatchSource<'a> {
    /// Row-major `[data.len() / n, n]` rows (linear layers, or an explicit
    /// im2col matrix), read in place.
    pub fn rows(data: &'a [f32], n: usize) -> Self {
        let images = data.len() / n.max(1);
        PatchSource {
            nonzero: count_nonzero(&data[..images * n]),
            data: Cow::Borrowed(data),
            off: (0..n).collect(),
            images,
            oh: 1,
            ow: 1,
            image: n,
            step_h: 0,
            step_w: 0,
        }
    }

    /// The implicit im2col of `input` under `cfg`: row
    /// `ni·OH·OW + oh·OW + ow`, column `ci·KH·KW + kh·KW + kw`, exactly as
    /// [`crate::ops::im2col`] lays them out. With padding the input is
    /// copied once, zero-padded; without, it is read in place.
    ///
    /// # Errors
    ///
    /// The same conditions as [`crate::ops::im2col`], plus a kernel that
    /// does not fit the padded input (a typed error here, where
    /// [`Conv2dConfig::output_hw`] would panic).
    pub fn conv(input: &'a Tensor, cfg: &Conv2dConfig) -> Result<Self> {
        cfg.validate()?;
        let (images, c, h, w) = input.shape().as_nchw().ok_or(TensorError::RankMismatch {
            expected: 4,
            actual: input.shape().rank(),
            op: "implicit im2col",
        })?;
        if c != cfg.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: input.shape().clone(),
                rhs: Shape::new(&[cfg.in_channels]),
                op: "implicit im2col (channels)",
            });
        }
        let (pad, stride) = (cfg.padding, cfg.stride);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        if hp < cfg.kernel_h || wp < cfg.kernel_w {
            return Err(TensorError::InvalidConfig(format!(
                "kernel {}x{} does not fit padded input {hp}x{wp}",
                cfg.kernel_h, cfg.kernel_w
            )));
        }
        let (oh, ow) = cfg.output_hw(h, w);
        // Each input value lies in `cover_h[ih]·cover_w[iw]` patches.
        let cover_h = cover(h, oh, cfg.kernel_h, stride, pad);
        let cover_w = cover(w, ow, cfg.kernel_w, stride, pad);
        let mut nonzero = 0;
        for (i, line) in input.data().chunks_exact(w.max(1)).enumerate() {
            let in_line: usize = line
                .iter()
                .zip(&cover_w)
                .map(|(&x, &cw)| usize::from(x != 0.0) * cw)
                .sum();
            nonzero += in_line * cover_h[i % h];
        }
        let data = if pad == 0 {
            Cow::Borrowed(input.data())
        } else {
            let mut padded = vec![0.0; images * c * hp * wp];
            let planes = input.data().chunks_exact((h * w).max(1));
            for (plane, dst) in planes.zip(padded.chunks_exact_mut(hp * wp)) {
                for (line, dst) in plane
                    .chunks_exact(w)
                    .zip(dst[pad * wp..].chunks_exact_mut(wp))
                {
                    dst[pad..pad + w].copy_from_slice(line);
                }
            }
            Cow::Owned(padded)
        };
        let mut off = Vec::with_capacity(cfg.patch_len());
        for ci in 0..c {
            for kh in 0..cfg.kernel_h {
                off.extend((0..cfg.kernel_w).map(|kw| (ci * hp + kh) * wp + kw));
            }
        }
        Ok(PatchSource {
            data,
            off,
            images,
            oh,
            ow,
            image: c * hp * wp,
            step_h: stride * wp,
            step_w: stride,
            nonzero,
        })
    }

    /// Number of patch rows.
    pub fn len(&self) -> usize {
        self.images * self.oh * self.ow
    }

    /// Whether there are no patch rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Patch width `n`.
    pub fn width(&self) -> usize {
        self.off.len()
    }

    /// Non-zero entries of the im2col matrix: each non-zero input value
    /// counted once per patch it lies in. Times `k`, the multiply-adds a
    /// projection of every row needs; the tiles run more, the zeros of
    /// each group's union.
    pub fn nonzero(&self) -> usize {
        self.nonzero
    }

    /// Whether the projection walks every column in place: at least
    /// `DENSE_PER_1024`/1024 of the im2col entries are non-zero.
    pub fn dense(&self) -> bool {
        self.nonzero * 1024 >= self.len() * self.width() * DENSE_PER_1024
    }

    /// Where rows `g0..g0 + bases.len()` start in the data: one division
    /// for the first row, then a walk along the output rows.
    fn bases_into(&self, g0: usize, bases: &mut [usize]) {
        let per = self.oh * self.ow;
        let (mut y, mut x) = (g0 % per / self.ow, g0 % self.ow);
        let mut line = g0 / per * self.image + y * self.step_h;
        for base in bases {
            *base = line + x * self.step_w;
            x += 1;
            if x == self.ow {
                (x, y) = (0, y + 1);
                line += self.step_h;
                if y == self.oh {
                    y = 0;
                    line = line - self.oh * self.step_h + self.image;
                }
            }
        }
    }
}

/// `cover[i]`: the windows along one axis (`out` of them, `kernel` wide,
/// `stride` apart, from `-pad`) that contain input index `i < extent`.
fn cover(extent: usize, out: usize, kernel: usize, stride: usize, pad: usize) -> Vec<usize> {
    let mut cover = vec![0; extent];
    for o in 0..out {
        for kk in 0..kernel {
            let at = (o * stride + kk).checked_sub(pad);
            if let Some(c) = at.and_then(|i| cover.get_mut(i)) {
                *c += 1;
            }
        }
    }
    cover
}

/// Non-zero entries of `block`.
fn count_nonzero(block: &[f32]) -> usize {
    block.iter().map(|&x| usize::from(x != 0.0)).sum()
}

/// A block's patch rows, read in place: column `kk` of row `r` is
/// `data[bases[r] + off[kk]]`.
#[derive(Debug, Clone, Copy)]
struct Rows<'b> {
    data: &'b [f32],
    off: &'b [usize],
    bases: &'b [usize],
}

impl<'b> Rows<'b> {
    /// Row `r`'s window. Every row's window is as long as the others', so
    /// one bounds check on an offset covers a group's rows.
    #[inline]
    fn row(&self, r: usize) -> &'b [f32] {
        &self.data[self.bases[r]..][..span(self.off)]
    }
}

/// How far a row's window reaches past its base: through its last
/// offset.
fn span(off: &[usize]) -> usize {
    off.last().map_or(0, |&o| o + 1)
}

/// A block's rows in the groups the tile walks: rows `0..full` in groups
/// of `group` consecutive rows, then rows `full..rows` one at a time.
/// Listed, the group at row `r0` with `T` rows walks `lens[r0]` union
/// columns, ascending, at `cols[r0·n..]`, with its rows' values at them,
/// `[len][T]`, at `vals[r0·n..]`; otherwise it walks every column, its
/// rows read in place.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Groups<'b> {
    pub(crate) group: usize,
    pub(crate) full: usize,
    pub(crate) rows: usize,
    block: Rows<'b>,
    listed: bool,
    cols: &'b [u32],
    vals: &'b [f32],
    lens: &'b [usize],
}

/// The group row `r` lies in, when rows `0..full` form groups of `group`
/// and the rows after them stand alone: its first row and its height.
fn group_of(r: usize, full: usize, group: usize) -> (usize, usize) {
    if r < full {
        (r / group * group, group)
    } else {
        (r, 1)
    }
}

/// `rows` cut to the last offset of `off`: every window is then as long
/// as the others, so one bounds check on an offset covers all `T` loads.
#[inline(always)]
pub(crate) fn windows<'b, const T: usize>(
    mut rows: [&'b [f32]; T],
    off: &[usize],
) -> [&'b [f32]; T] {
    let span = span(off);
    for row in &mut rows {
        *row = &row[..span];
    }
    rows
}

/// The terms of one `T`-row group, in ascending column order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Terms<'b, const T: usize> {
    /// Column `s` of the walk is panel row `s`, and row `i`'s value
    /// `rows[i][off[s]]`.
    InPlace {
        rows: [&'b [f32]; T],
        off: &'b [usize],
    },
    /// Step `s` is panel row `cols[s]`, and row `i`'s value
    /// `vals[s·T + i]`.
    Listed { cols: &'b [u32], vals: &'b [f32] },
}

impl<'b> Groups<'b> {
    /// The terms of the `T`-row group at row `r0`.
    #[inline(always)]
    pub(crate) fn terms<const T: usize>(&self, r0: usize) -> Terms<'b, T> {
        if self.listed {
            let (cols, vals) = self.list::<T>(r0);
            Terms::Listed { cols, vals }
        } else {
            let mut rows = [&self.block.data[..0]; T];
            for (i, row) in rows.iter_mut().enumerate() {
                *row = self.block.row(r0 + i);
            }
            Terms::InPlace {
                rows,
                off: self.block.off,
            }
        }
    }

    /// The list of the `T`-row group at row `r0`: its columns and its
    /// rows' values at them.
    #[inline(always)]
    fn list<const T: usize>(&self, r0: usize) -> (&'b [u32], &'b [f32]) {
        let (at, len) = (r0 * self.block.off.len(), self.lens[r0]);
        (&self.cols[at..at + len], &self.vals[at..at + len * T])
    }

    /// Outputs `(r, j)` of `L` lanes, each with the exact chain over the
    /// walk of its row's group. On a listed block every lane's row must
    /// lie in the first lane's group: the lanes then share its list.
    fn exact<const L: usize>(
        &self,
        lanes: [(usize, usize); L],
        panels: &'b ProjPanels,
    ) -> [f32; L] {
        let n = self.block.off.len();
        // Lane `l` reads float `j % 64` of row `col` of `j`'s panel.
        let columns = lanes.map(|(_, j)| (&panels.panel(j / 64).as_chunks().0[..n], j % 64));
        if !self.listed {
            let rows = windows(lanes.map(|(r, _)| self.block.row(r)), self.block.off);
            let steps = self.block.off.iter().enumerate();
            return exact_chains(steps.map(|(s, &o)| (s, rows.map(|row| row[o]))), columns);
        }
        let of = |r| group_of(r, self.full, self.group);
        let (r0, t) = of(lanes.first().map_or(0, |l| l.0));
        let at = lanes.map(|(r, _)| {
            assert_eq!(of(r).0, r0, "lanes of one group");
            r - r0
        });
        match t {
            4 => self.listed_chains::<4, L>(r0, at, columns),
            2 => self.listed_chains::<2, L>(r0, at, columns),
            _ => self.listed_chains::<1, L>(r0, at, columns),
        }
    }

    /// [`Groups::exact`] over the list of the `T`-row group at `r0`, lane
    /// `l` its row `at[l]`.
    #[inline]
    fn listed_chains<const T: usize, const L: usize>(
        &self,
        r0: usize,
        at: [usize; L],
        columns: [(&[[f32; 64]], usize); L],
    ) -> [f32; L] {
        let (cols, vals) = self.list::<T>(r0);
        let steps = cols.iter().zip(vals.as_chunks::<T>().0);
        let rows = at.map(|i| i.min(T - 1));
        exact_chains(
            steps.map(|(&col, xs)| (col as usize, rows.map(|i| xs[i]))),
            columns,
        )
    }
}

/// The exact serial multiply-then-add chains of `L` lanes from `+0.0`:
/// step `(col, xs)` adds `xs[l] · columns[l].0[col][columns[l].1]` to
/// lane `l`. Each chain waits an add's latency for the one before; `L`
/// of them side by side overlap their waits.
#[inline]
fn exact_chains<const L: usize>(
    steps: impl Iterator<Item = (usize, [f32; L])>,
    columns: [(&[[f32; 64]], usize); L],
) -> [f32; L] {
    let mut acc = [0.0f32; L];
    for (col, xs) in steps {
        for ((a, x), (rows, j)) in acc.iter_mut().zip(xs).zip(columns) {
            *a += x * rows[col][j & 63];
        }
    }
    acc
}

/// The sign certificate [`project_patches_signs_into`] applies to every
/// finished tile in place of storing its floats.
///
/// Lane `j` of row `r` compares `v = y_j`. Its sign bit is `v >= 0.0`,
/// and its uncertain bit is set unless
/// `|v| > fl(s_r · c_j)`, where `s_r = row_scale(n, ‖x‖)` and
/// `c_j = bounds[j]`. Both compares are ordered, so a NaN value or
/// bound, and an infinite value against an infinite bound, flag the lane:
/// the certificate fails closed.
///
/// Word `w` of row `r` goes to `signs[w·rows + r]` and
/// `uncertain[w·rows + r]`, word-major as the Hamming tile reads it; the
/// unused high bits of a row's last word are zero.
#[derive(Debug)]
pub struct Signs<'e> {
    /// `c_j`, one per output column (`k` entries).
    pub bounds: &'e [f32],
    /// The bound's row factor from the patch width and the row's norm.
    pub row_scale: fn(usize, f32) -> f32,
    /// The sign words, `k.div_ceil(64) · rows`.
    pub signs: &'e mut [u64],
    /// The uncertain words, laid out as `signs`.
    pub uncertain: &'e mut [u64],
}

/// Where a projection's finished tiles go.
enum Target<'e> {
    Floats(&'e mut [f32]),
    Signs(Signs<'e>),
}

/// What a tile does with its finished accumulators; every tile body,
/// portable or AVX-512, ends in one.
pub(crate) enum Epilogue<'e> {
    /// Store the values into `out` (`[rows, k]`).
    Store { out: &'e mut [f32], k: usize },
    /// Compare them into sign and uncertain words.
    Signs(SignTile<'e>),
}

/// A [`Signs`] certificate over a block of `rows` rows of width `n`, with
/// row `r`'s bound factor in `factors[r]` once its norm is known.
pub(crate) struct SignTile<'e> {
    pub(crate) cert: Signs<'e>,
    pub(crate) n: usize,
    pub(crate) rows: usize,
    pub(crate) factors: &'e mut [f32],
}

impl Epilogue<'_> {
    /// Row `r`'s norm is known: fixes its bound factor.
    #[inline]
    fn set_norm(&mut self, r: usize, norm: f32) {
        if let Epilogue::Signs(st) = self {
            st.factors[r] = (st.cert.row_scale)(st.n, norm);
        }
    }

    /// Finishes row `r`'s first `w` values of `tile` at columns
    /// `j0..j0 + w` (`j0` a multiple of 64): the portable epilogue. The
    /// tile comes by value, so the caller's accumulators stay in
    /// registers; the compares go through bytes, so they vectorize.
    pub(crate) fn finish(&mut self, r: usize, j0: usize, tile: [f32; 64], w: usize) {
        let vals = &tile[..w];
        let st = match self {
            Epilogue::Store { out, k } => {
                return out[r * *k + j0..][..vals.len()].copy_from_slice(vals);
            }
            Epilogue::Signs(st) => st,
        };
        let (scale, cert) = (st.factors[r], &mut st.cert);
        let (mut sign, mut unsure) = ([0u8; 64], [0u8; 64]);
        let lanes = sign.iter_mut().zip(&mut unsure).zip(vals);
        for (((s, u), &v), &c) in lanes.zip(&cert.bounds[j0..]) {
            *s = u8::from(v >= 0.0);
            let sure = v.abs() > scale * c;
            *u = u8::from(!sure);
        }
        let at = j0 / 64 * st.rows + r;
        (cert.signs[at], cert.uncertain[at]) = (collapse(&sign), collapse(&unsure));
    }
}

/// 64 0/1 bytes as a word, bit `b` = `bytes[b]`: one multiply per 8-byte
/// group gathers its bits into the top byte.
fn collapse(bytes: &[u8; 64]) -> u64 {
    const MAGIC: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u64;
    for (g, group) in bytes.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(group.try_into().expect("8-byte group"));
        word |= (lanes.wrapping_mul(MAGIC) >> 56) << (8 * g);
    }
    word
}

/// Reusable per-worker buffers of the projection, sized for blocks of up
/// to `max_rows` rows of one source: the bound factors, and the last
/// block's row bases and, when the source's groups walk lists, its lists.
#[derive(Debug, Clone)]
pub struct ProjectScratch {
    max_rows: usize,
    /// Per-row bound factor of a [`Signs`] block.
    factors: Vec<f32>,
    last: LastBlock,
}

/// The block a scratch last projected.
#[derive(Debug, Clone)]
struct LastBlock {
    n: usize,
    listed: bool,
    /// Its rows, and the height of its whole groups.
    rows: usize,
    group: usize,
    /// Where each row starts in the source's data.
    bases: Vec<usize>,
    /// The group lists, laid out as [`Groups`] reads them.
    cols: Vec<u32>,
    vals: Vec<f32>,
    lens: Vec<usize>,
}

impl LastBlock {
    /// Rows in whole groups.
    fn full(&self) -> usize {
        self.rows / self.group * self.group
    }

    /// The block's groups, rows read from `src`.
    fn groups<'b>(&'b self, src: &'b PatchSource<'_>) -> Groups<'b> {
        Groups {
            group: self.group,
            full: self.full(),
            rows: self.rows,
            block: Rows {
                data: &src.data,
                off: &src.off,
                bases: &self.bases[..self.rows],
            },
            listed: self.listed,
            cols: &self.cols,
            vals: &self.vals,
            lens: &self.lens,
        }
    }
}

impl ProjectScratch {
    /// Buffers for blocks of up to `max_rows` rows of `src`.
    pub fn new(max_rows: usize, src: &PatchSource<'_>) -> Self {
        let (n, listed) = (src.width(), !src.dense());
        let list = if listed { max_rows * n } else { 0 };
        ProjectScratch {
            max_rows,
            factors: vec![0.0; max_rows],
            last: LastBlock {
                n,
                listed,
                rows: 0,
                group: 1,
                bases: vec![0; max_rows],
                cols: vec![0; list],
                vals: vec![0.0; list],
                lens: vec![0; if listed { max_rows } else { 0 }],
            },
        }
    }

    /// Output `j` of row `r` of the block last projected from `src`
    /// through `panels`, recomputed with the exact serial
    /// multiply-then-add chain over the walk of the row's group: the bits
    /// of im2col + [`matmul_dense_into`].
    ///
    /// # Panics
    ///
    /// Panics when `r` or `j` lies outside the last block, or `panels`
    /// does not match the source's width.
    // analyze: alloc-free
    pub fn exact_element(
        &self,
        src: &PatchSource<'_>,
        r: usize,
        panels: &ProjPanels,
        j: usize,
    ) -> f32 {
        self.exact_elements(src, [(r, j)], panels)[0]
    }

    /// [`ProjectScratch::exact_element`] of `L` lanes `(r, j)` whose rows
    /// lie in one group ([`ProjectScratch::group_rows`]), in one walk of
    /// the group: the lanes' chains run side by side.
    ///
    /// # Panics
    ///
    /// As [`ProjectScratch::exact_element`], for any lane, and when the
    /// lanes' rows lie in different groups.
    // analyze: alloc-free
    pub fn exact_elements<const L: usize>(
        &self,
        src: &PatchSource<'_>,
        lanes: [(usize, usize); L],
        panels: &ProjPanels,
    ) -> [f32; L] {
        for &(r, j) in &lanes {
            assert!(
                r < self.last.rows && j < panels.k(),
                "element outside the last block"
            );
        }
        assert_eq!(panels.n(), src.width(), "projection must have n rows");
        self.last.groups(src).exact(lanes, panels)
    }

    /// The rows of the group row `r` of the last block lies in.
    pub fn group_rows(&self, r: usize) -> std::ops::Range<usize> {
        let (r0, t) = group_of(r, self.last.full(), self.last.group);
        r0..r0 + t
    }

    /// Multiply-adds the last block's tiles ran per output column: over
    /// its groups, the walk's length times the group's rows.
    pub fn terms(&self) -> usize {
        let b = &self.last;
        if !b.listed {
            return b.rows * b.n;
        }
        let whole = (0..b.full()).step_by(b.group);
        let tail = b.lens[b.full()..b.rows].iter().sum::<usize>();
        whole.map(|r0| b.lens[r0] * b.group).sum::<usize>() + tail
    }
}

/// Projects patch rows `row_start..row_start + rows` of `src` through
/// `panels` (`R`, every element finite) into `out[..rows * k]`, and
/// writes each row's L2 norm into `norms[..rows]`.
///
/// The norms are bit-identical to materialising the rows (im2col for a
/// conv source) and taking `patch.iter().map(|v| v * v).sum::<f32>()
/// .sqrt()` per row. Each projected value is one serial chain over the
/// row's columns, fused on `Avx512` and exact elsewhere, so it lies
/// within `γ_n·Σ|x_i·r_i|` of the true dot product, as the value of
/// im2col + [`matmul_dense_into`] does (see the [module docs](self)).
/// [`ProjectScratch::exact_element`] gives any output's exact bits.
///
/// # Panics
///
/// Panics when the block exceeds the scratch's capacity or `src`'s rows,
/// the scratch was built for another source's width, or a buffer length
/// disagrees with `rows`, `n` or `k`.
// analyze: alloc-free
pub fn project_patches_approx_into(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    panels: &ProjPanels,
    scratch: &mut ProjectScratch,
    out: &mut [f32],
    norms: &mut [f32],
) {
    let out = &mut out[..rows * panels.k()];
    let target = Target::Floats(out);
    project_block(src, row_start, rows, panels, scratch, target, norms);
}

/// [`project_patches_approx_into`]'s projection, with each finished tile
/// compared into sign and uncertain words by `signs` while its
/// accumulators are still in registers (on the portable variants, from a
/// stack tile): no float of the block is stored. The words equal
/// `bitvec::certify_signs_into` in `deepcam-hash` applied to the floats
/// [`project_patches_approx_into`] stores, and the norms are the same.
///
/// # Panics
///
/// As [`project_patches_approx_into`], and when a buffer of `signs`
/// disagrees with `rows` or `k`.
// analyze: alloc-free
pub fn project_patches_signs_into(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    panels: &ProjPanels,
    scratch: &mut ProjectScratch,
    signs: Signs<'_>,
    norms: &mut [f32],
) {
    let k = panels.k();
    let words = k.div_ceil(64) * rows;
    assert_eq!(signs.bounds.len(), k, "one bound per output column");
    assert_eq!(signs.signs.len(), words, "word-major sign block");
    assert_eq!(signs.uncertain.len(), words, "word-major uncertain block");
    let target = Target::Signs(signs);
    project_block(src, row_start, rows, panels, scratch, target, norms);
}

/// The one body of both projection entries: the rows' bases and norms,
/// the group lists (on a listed source), then the tile over every panel.
fn project_block(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    panels: &ProjPanels,
    scratch: &mut ProjectScratch,
    target: Target<'_>,
    norms: &mut [f32],
) {
    let (n, k) = (src.width(), panels.k());
    assert_eq!(panels.n(), n, "projection must have n rows");
    assert_eq!(
        scratch.last.n, n,
        "scratch width must match the patch width"
    );
    assert!(rows <= scratch.max_rows, "block exceeds scratch capacity");
    assert!(
        row_start + rows <= src.len(),
        "block exceeds the source rows"
    );
    let norms = &mut norms[..rows];
    let wide = crate::simd::avx512();
    let b = &mut scratch.last;
    // A group is as tall as the tile that walks it.
    (b.rows, b.group) = (rows, if wide.is_some() { 4 } else { 2 });
    src.bases_into(row_start, &mut b.bases[..rows]);
    let block = Rows {
        data: &src.data,
        off: &src.off,
        bases: &b.bases[..rows],
    };
    block_norms(&block, norms);
    if b.listed {
        list_groups(&block, b.group, &mut b.cols, &mut b.vals, &mut b.lens);
    }
    let mut ep = match target {
        Target::Floats(out) => Epilogue::Store { out, k },
        Target::Signs(cert) => Epilogue::Signs(SignTile {
            cert,
            n,
            rows,
            factors: &mut scratch.factors[..rows],
        }),
    };
    for (r, &norm) in norms.iter().enumerate() {
        ep.set_norm(r, norm);
    }
    union_gemm(wide, &scratch.last.groups(src), panels, &mut ep);
}

/// Row norms of a block, up to 16 rows at a time: rows whose bases step
/// by one (neighbouring outputs of a stride-1 conv) read one contiguous
/// slice per column, so their squares vectorize with the accumulators in
/// registers; each row still sums its columns ascending from `+0.0`.
fn block_norms(block: &Rows<'_>, norms: &mut [f32]) {
    let bases = block.bases;
    let mut r = 0;
    while r < bases.len() {
        let b = bases[r];
        let run = bases[r..].iter().zip(b..).take(16);
        let dst = &mut norms[r..];
        r += match run.take_while(|&(&x, y)| x == y).count() {
            16 => norm_run::<16>(block, b, dst),
            8.. => norm_run::<8>(block, b, dst),
            4.. => norm_run::<4>(block, b, dst),
            _ => norm_run::<1>(block, b, dst),
        };
    }
}

/// The norms of the `W` rows starting at `base`, one apart, into
/// `norms[..W]`. Returns `W`.
#[inline]
fn norm_run<const W: usize>(block: &Rows<'_>, base: usize, norms: &mut [f32]) -> usize {
    let mut acc = [0.0f32; W];
    for &o in block.off {
        let xs: &[f32; W] = block.data[base + o..][..W].try_into().expect("W rows");
        for (a, &x) in acc.iter_mut().zip(xs) {
            *a += x * x;
        }
    }
    for (v, a) in norms.iter_mut().zip(acc) {
        *v = a.sqrt();
    }
    W
}

/// Lists every group of a block, laid out as [`Groups`] reads them:
/// whole groups of `group` rows, then the rows after the last one alone.
fn list_groups(
    block: &Rows<'_>,
    group: usize,
    cols: &mut [u32],
    vals: &mut [f32],
    lens: &mut [usize],
) {
    let (rows, n) = (block.bases.len(), block.off.len());
    let full = rows / group * group;
    for r0 in (0..full).step_by(group) {
        let (cols, vals) = (&mut cols[r0 * n..][..n], &mut vals[r0 * n..][..group * n]);
        lens[r0] = match group {
            4 => union_list::<4>(block, r0, cols, vals),
            _ => union_list::<2>(block, r0, cols, vals),
        };
    }
    for r0 in full..rows {
        let (cols, vals) = (&mut cols[r0 * n..][..n], &mut vals[r0 * n..][..n]);
        lens[r0] = union_list::<1>(block, r0, cols, vals);
    }
}

/// Lists the columns in which any of rows `r0..r0 + T` is non-zero,
/// ascending, into `cols`, and the rows' values at them into `vals`
/// (`[len][T]`); returns `len`. Branch-free compaction: every column is
/// written, and the cursor steps past listed ones only. Rows whose bases
/// step by one read each column's `T` values in one load.
#[inline]
fn union_list<const T: usize>(
    block: &Rows<'_>,
    r0: usize,
    cols: &mut [u32],
    vals: &mut [f32],
) -> usize {
    let bases = &block.bases[r0..r0 + T];
    let mut len = 0;
    let mut put = |col: usize, xs: [f32; T]| {
        cols[len] = col as u32;
        vals[len * T..][..T].copy_from_slice(&xs);
        len += usize::from(xs.iter().fold(false, |nz, &x| nz | (x != 0.0)));
    };
    if bases.iter().zip(bases[0]..).all(|(&b, at)| b == at) {
        let run = &block.data[bases[0]..][..span(block.off) + T - 1];
        for (col, &o) in block.off.iter().enumerate() {
            put(col, run[o..o + T].try_into().expect("T rows"));
        }
    } else {
        let mut rows = [&block.data[..0]; T];
        for (i, row) in rows.iter_mut().enumerate() {
            *row = block.row(r0 + i);
        }
        for (col, &o) in block.off.iter().enumerate() {
            put(col, rows.map(|row| row[o]));
        }
    }
    len
}

/// The tile over every group and panel: fused on AVX-512 when `wide`,
/// else [`union_portable`] (the exact bits), each tile ending in `ep`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn union_gemm(
    wide: Option<Avx512Token>,
    groups: &Groups<'_>,
    panels: &ProjPanels,
    ep: &mut Epilogue<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        return crate::simd::x86::union_avx512(token, groups, panels, ep);
    }
    union_portable(groups, panels, ep);
}

/// The portable tile: [`matmul_dense_into`]'s chain (ascending over the
/// group's walk from `+0.0`, multiply then add) in 2-row × 64-column
/// tiles (1-row after the last whole group), each finished from its
/// accumulators: one word per row, in sixteen 256-bit registers.
fn union_portable(groups: &Groups<'_>, panels: &ProjPanels, ep: &mut Epilogue<'_>) {
    assert_eq!(groups.group, 2, "the portable tile walks 2-row groups");
    let k = panels.k();
    for jt in (0..k).step_by(64) {
        let (panel, w) = (panels.panel(jt / 64), 64.min(k - jt));
        for r0 in (0..groups.full).step_by(2) {
            tile_portable(groups.terms::<2>(r0), r0, panel, jt, w, ep);
        }
        for r0 in groups.full..groups.rows {
            tile_portable(groups.terms::<1>(r0), r0, panel, jt, w, ep);
        }
    }
}

/// Rows `r0..r0 + T` × the 64 columns of `panel` (output columns
/// `jt..jt + w` of them kept) over the group's `terms`: each step reads
/// one contiguous panel row, so the accumulators stay in registers.
#[inline]
fn tile_portable<const T: usize>(
    terms: Terms<'_, T>,
    r0: usize,
    panel: &[f32],
    jt: usize,
    w: usize,
    ep: &mut Epilogue<'_>,
) {
    // Each walk owns its accumulators: shared across both loops, they
    // were written back to the stack on every step.
    let acc = match terms {
        Terms::InPlace { rows, off } => {
            let mut acc = [[0.0f32; 64]; T];
            let rows = windows(rows, off);
            for (&o, b_row) in off.iter().zip(panel.chunks_exact(64)) {
                let mut xs = [0.0f32; T];
                for (x, row) in xs.iter_mut().zip(&rows) {
                    *x = row[o];
                }
                add_step(&mut acc, &xs, b_row);
            }
            acc
        }
        Terms::Listed { cols, vals } => {
            let mut acc = [[0.0f32; 64]; T];
            for (&col, xs) in cols.iter().zip(vals.chunks_exact(T)) {
                let xs = xs.try_into().expect("T rows");
                add_step(&mut acc, xs, &panel[col as usize * 64..][..64]);
            }
            acc
        }
    };
    for (i, acc_i) in acc.into_iter().enumerate() {
        ep.finish(r0 + i, jt, acc_i, w);
    }
}

/// Adds one step of a walk to a `T`-row portable tile: the rows' values
/// `xs` times the 64-float panel row `b_row`.
#[inline(always)]
fn add_step<const T: usize>(acc: &mut [[f32; 64]; T], xs: &[f32; T], b_row: &[f32]) {
    let bv: &[f32; 64] = b_row.try_into().expect("64 columns");
    for (&x, acc_i) in xs.iter().zip(acc.iter_mut()) {
        for (s, &bl) in acc_i.iter_mut().zip(bv) {
            *s += x * bl;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::im2col;
    use crate::rng::seeded_rng;
    use crate::tensor::matmul_dense_into;

    /// im2col + dense GEMM + the historical norm expression.
    fn oracle(
        patches: &[f32],
        rows: usize,
        n: usize,
        proj: &[f32],
        k: usize,
    ) -> (Vec<f32>, Vec<f32>) {
        let mut out = vec![0.0f32; rows * k];
        matmul_dense_into(patches, rows, n, proj, k, &mut out);
        let norms = (0..rows)
            .map(|r| {
                patches[r * n..(r + 1) * n]
                    .iter()
                    .map(|&v| v * v)
                    .sum::<f32>()
                    .sqrt()
            })
            .collect();
        (out, norms)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Projects `src` in `block`-row blocks on every detected variant and
    /// checks each block against the oracle over the materialised rows
    /// `patches`: the norms bitwise, [`ProjectScratch::exact_element`] on
    /// every lane bitwise, and each fused value within
    /// `2·γ_n·‖x‖·‖R[:, j]‖` of the exact one.
    fn check(src: &PatchSource<'_>, patches: &[f32], proj: &[f32], k: usize, block: usize) {
        let (n, rows) = (src.width(), src.len());
        let (want, want_norms) = oracle(patches, rows, n, proj, k);
        let norm64 = |v: &mut dyn Iterator<Item = f32>| -> f64 {
            v.map(|x| f64::from(x).powi(2)).sum::<f64>().sqrt()
        };
        let col_norms: Vec<f64> = (0..k)
            .map(|j| norm64(&mut proj[j..].iter().step_by(k).copied()))
            .collect();
        let nu = n as f64 * f64::from(f32::EPSILON) / 2.0;
        let gamma = nu / (1.0 - nu);
        let panels = ProjPanels::pack(proj, n, k);
        let _pin = crate::simd::tests::pinned();
        let initial = crate::simd::active();
        for &v in crate::simd::detected() {
            crate::simd::force_variant(v).expect("detected variant");
            let mut scratch = ProjectScratch::new(block, src);
            let mut out = vec![f32::NAN; block * k];
            let mut norms = vec![f32::NAN; block];
            let mut start = 0;
            while start < rows {
                let here = block.min(rows - start);
                project_patches_approx_into(
                    src,
                    start,
                    here,
                    &panels,
                    &mut scratch,
                    &mut out,
                    &mut norms,
                );
                assert_eq!(bits(&norms[..here]), bits(&want_norms[start..start + here]));
                for r in 0..here {
                    let g = start + r;
                    let x_norm = norm64(&mut patches[g * n..(g + 1) * n].iter().copied());
                    for (j, &c_norm) in col_norms.iter().enumerate() {
                        let exact = want[g * k + j];
                        let what = format!("{} row {g} lane {j}", v.name());
                        let recomputed = scratch.exact_element(src, r, &panels, j);
                        assert_eq!(recomputed.to_bits(), exact.to_bits(), "{what}");
                        let gap = (f64::from(out[r * k + j]) - f64::from(exact)).abs();
                        assert!(gap <= 2.0 * gamma * x_norm * c_norm, "{what}: gap {gap}");
                    }
                }
                start += here;
            }
        }
        crate::simd::force_variant(initial).expect("restore the ambient variant");
    }

    /// A normal tensor with about `density_pct`% of entries kept; the
    /// rest are `+0.0` or `-0.0`.
    fn sparse_input(shape: &[usize], density_pct: u64, seed: u64) -> Tensor {
        let mut rng = seeded_rng(seed);
        let mut t = crate::init::normal(&mut rng, Shape::new(shape), 0.0, 1.0);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            if (i as u64 * 2654435761 + seed) % 100 >= density_pct {
                *v = if i % 3 == 0 { -0.0 } else { 0.0 };
            }
        }
        t
    }

    #[test]
    fn conv_source_matches_im2col_and_dense_gemm() {
        // Dense, sparse, all-zero and mixed densities; output tiles with
        // and without a tail; strided and padded windows; n = 180, wider
        // than one 64-column stretch of a panel.
        for (c, density, k, stride, pad) in [
            (3, 100, 64, 1, 1),
            (3, 40, 96, 2, 1),
            (3, 0, 64, 1, 2),
            (20, 90, 70, 1, 0),
            (20, 30, 128, 1, 1),
        ] {
            let cfg = Conv2dConfig::new(c, 4, 3)
                .with_stride(stride)
                .with_padding(pad);
            let x = sparse_input(&[2, c, 7, 6], density, 7);
            let n = cfg.patch_len();
            let proj = crate::init::normal(&mut seeded_rng(8), Shape::new(&[n, k]), 0.0, 1.0);
            let patches = im2col(&x, &cfg).unwrap();
            let src = PatchSource::conv(&x, &cfg).unwrap();
            check(&src, patches.data(), proj.data(), k, 16);
        }
    }

    #[test]
    fn row_source_and_all_zero_rows_keep_positive_zero_norms() {
        let x = sparse_input(&[9, 20], 0, 3);
        let proj = crate::init::normal(&mut seeded_rng(4), Shape::new(&[20, 128]), 0.0, 1.0);
        check(
            &PatchSource::rows(x.data(), 20),
            x.data(),
            proj.data(),
            128,
            4,
        );
        let src = PatchSource::rows(x.data(), 20);
        let mut scratch = ProjectScratch::new(9, &src);
        let (mut out, mut norms) = (vec![1.0f32; 9 * 128], vec![1.0f32; 9]);
        project_patches_approx_into(
            &src,
            0,
            9,
            &ProjPanels::pack(proj.data(), 20, 128),
            &mut scratch,
            &mut out,
            &mut norms,
        );
        assert!(norms.iter().chain(&out).all(|v| v.to_bits() == 0));
    }

    #[test]
    fn packed_panels_read_back_as_row_major_r() {
        // Whole panels, a 6-column and a half-width last panel, and more
        // than two panels.
        for k in [64, 70, 96, 256, 768] {
            let n = 5;
            let proj =
                crate::init::normal(&mut seeded_rng(k as u64), Shape::new(&[n, k]), 0.0, 1.0);
            let panels = ProjPanels::pack(proj.data(), n, k);
            assert_eq!((panels.n(), panels.k()), (n, k));
            for row in 0..n {
                for col in 0..k {
                    let want = proj.data()[row * k + col];
                    assert_eq!(panels.get(row, col).to_bits(), want.to_bits(), "k {k}");
                }
            }
            let last = panels.panel(k.div_ceil(64) - 1);
            assert_eq!(last.len(), n * 64);
            for row in last.chunks_exact(64) {
                assert!(
                    row[(k - 1) % 64 + 1..].iter().all(|v| v.to_bits() == 0),
                    "k {k}"
                );
            }
            assert_eq!(panels.panel(0).as_ptr().align_offset(64), 0, "k {k}");
        }
    }

    #[test]
    fn generated_panels_are_the_packed_seeded_draw() {
        // One row, a conv patch width and the widest layer; whole panels,
        // a 6-column last panel, and the widths the hash plans bind.
        for n in [1, 27, 576] {
            for k in [64, 70, 256, 768, 1024] {
                let seed = (n * k) as u64;
                let mut r = vec![0.0f32; n * k];
                crate::rng::fill_standard_normal(&mut seeded_rng(seed), &mut r);
                let (want, got) = (ProjPanels::pack(&r, n, k), ProjPanels::generate(n, k, seed));
                assert_eq!((got.n(), got.k()), (n, k));
                for p in 0..k.div_ceil(64) {
                    let (a, b) = (got.panel(p), want.panel(p));
                    assert_eq!(bits(a), bits(b), "n {n} k {k} panel {p}");
                    assert_eq!(a.as_ptr().align_offset(64), 0, "n {n} k {k} panel {p}");
                }
            }
        }
    }

    #[test]
    fn padded_conv_sources_match_im2col_on_both_branches() {
        // Every kernel width the models use, strides 1–3 and padding 0–3
        // on a non-square two-image input, projected in 61-row blocks
        // that cross image boundaries; a dense input walks in place and a
        // sparse one walks group lists. k = 96 ends in a half panel.
        let mut branches = [false; 2];
        for kernel in [1, 3, 5, 7] {
            for stride in 1..=3 {
                for pad in 0..=3 {
                    for density in [100, 15] {
                        let cfg = Conv2dConfig::new(3, 4, kernel)
                            .with_stride(stride)
                            .with_padding(pad);
                        let x = sparse_input(&[2, 3, 11, 9], density, kernel as u64);
                        let n = cfg.patch_len();
                        let k = if stride == 2 { 96 } else { 128 };
                        let proj =
                            crate::init::normal(&mut seeded_rng(9), Shape::new(&[n, k]), 0.0, 1.0);
                        let patches = im2col(&x, &cfg).unwrap();
                        let src = PatchSource::conv(&x, &cfg).unwrap();
                        branches[usize::from(src.dense())] = true;
                        check(&src, patches.data(), proj.data(), k, 61);
                    }
                }
            }
        }
        assert_eq!(branches, [true, true], "both branches ran");
        // Group lists on the shapes the sweep above leaves to chance: a
        // 4-row group whose rows are non-zero in disjoint columns (row i
        // in columns 2i and 2i + 1), groups that straddle an output line
        // (6 outputs a line) and an image (18 outputs an image), and
        // blocks of 5–7 rows, whose last rows walk alone.
        let disjoint: Vec<f32> = (0..8 * 16)
            .map(|i| {
                if i % 16 / 2 == i / 16 {
                    1.0 + i as f32
                } else {
                    0.0
                }
            })
            .collect();
        let straddling = sparse_input(&[2, 3, 3, 6], 30, 5);
        let cfg = Conv2dConfig::new(3, 4, 3).with_padding(1);
        let patches = im2col(&straddling, &cfg).unwrap();
        let sources = [
            (PatchSource::rows(&disjoint, 16), &disjoint[..]),
            (
                PatchSource::conv(&straddling, &cfg).unwrap(),
                patches.data(),
            ),
        ];
        for (src, rows) in &sources {
            assert!(!src.dense(), "the source walks group lists");
            let n = src.width();
            let proj = crate::init::normal(&mut seeded_rng(10), Shape::new(&[n, 128]), 0.0, 1.0);
            for block in [61, 7, 6, 5] {
                check(src, rows, proj.data(), 128, block);
            }
        }
    }

    #[test]
    fn conv_source_rejects_bad_geometry() {
        let cfg = Conv2dConfig::new(3, 4, 5);
        let x = Tensor::zeros(Shape::new(&[1, 3, 2, 8]));
        assert!(PatchSource::conv(&x, &cfg).is_err());
        let x = Tensor::zeros(Shape::new(&[1, 2, 8, 8]));
        assert!(PatchSource::conv(&x, &cfg).is_err());
    }
}
