//! Implicit-im2col, activation-sparse patch projection: `patch · R` for
//! a block of patch rows, read straight from the NCHW activation.
//!
//! The DeepCAM engine hashes every im2col patch by projecting it through
//! a dense, finite `[n, k]` matrix `R`. Materialising the `[N·P, n]`
//! im2col matrix and running a dense GEMM over it multiplies every
//! zero-padding tap and every post-ReLU zero. [`project_patches_into`]
//! instead gathers one block of patch rows at a time, walking only the
//! in-bounds taps of each patch, and keeps each row's non-zero taps in
//! ascending column order. Each tap is then broadcast across `k`:
//! `acc[..] += x · R[col, ..]`, with `k` tiled so a row's accumulators
//! stay in registers and the `R` tile they read stays in L1. The patch
//! norms are accumulated in the same pass over the taps.
//!
//! # Bit-exactness
//!
//! Every output element is one serial add chain over ascending patch
//! columns, starting from `+0.0` — the chain [`matmul_dense_into`] and
//! [`crate::tensor::matmul_into`] evaluate — minus the terms whose patch
//! entry is `±0.0`. With `R` finite those terms are `±0.0`, and adding
//! `±0.0` to an accumulator that started at `+0.0` never changes a bit
//! (exact cancellation rounds to `+0.0`, and `+0.0 + ±0.0 = +0.0`). So
//! the result equals im2col + [`matmul_dense_into`] bitwise. Subnormal
//! and non-finite entries are not zero: they are kept as taps.
//!
//! The norm follows the same rule. `patch.iter().map(|v| v * v).sum()`
//! folds from `-0.0` on current toolchains, but its first `+ v²` (always
//! `≥ +0.0` or NaN) already lands on `+0.0` or above, so starting from
//! `+0.0` and adding only the non-zero squares reproduces it for any
//! non-empty patch. An all-zero patch therefore gets norm `+0.0`, never
//! the `-0.0` an empty `sum` would give.
//!
//! A nearly dense block (the first layer's raw image, density ≈ 0.96)
//! runs through [`matmul_dense_into`]'s 4×32 register tile over the
//! block's implicit patch rows instead. The choice is made per block from
//! the non-zero count its gather just counted; both branches give
//! identical bits. The gather itself takes the form (compacted taps or
//! dense rows) the previous block's choice predicts, and converts when
//! the count disagrees.
//!
//! Both branches dispatch on the active [`crate::simd`] variant: on
//! `Avx512` the dense block runs a 4-row × 64-column tile with sixteen
//! `zmm` accumulators and the broadcast keeps a row's 128 accumulators in
//! eight `zmm` registers ([`crate::simd`]'s x86 kernels); every other
//! variant runs the portable code here, which LLVM vectorizes at 256 bits
//! on AVX-512 hosts too. In [`project_patches_into`] the wide kernels keep
//! the separate multiply and add of every term, so all variants give
//! identical bits.
//!
//! # The fused form
//!
//! [`project_patches_approx_into`] runs the same gather and norms, but
//! on `Avx512` its tiles fuse each term into one `_mm512_fmadd_ps`: one
//! rounding instead of two, so a projected value may differ from the
//! exact one in its last bits (every other variant has no fused tile and
//! stays exact). Each value is still one serial chain over at most `n`
//! terms, so it lies within `γ_n·Σ|x_i·r_i|` of the true dot product, as
//! the exact value does. The norms are exact in both forms, and both
//! pick the branch at the same density. After either call, [`ProjectScratch::exact_element`] recomputes any one
//! output with the exact chain, from the taps the block's gather left in
//! the scratch.

use crate::error::TensorError;
use crate::ops::conv::Conv2dConfig;
use crate::shape::Shape;
use crate::simd::Avx512Token;
use crate::tensor::{matmul_dense_into, Tensor};
use crate::Result;

/// Output columns per register tile of the tap broadcast: a row's 128
/// accumulators fill sixteen 256-bit or eight 512-bit registers.
pub(crate) const KT: usize = 128;

/// Patch columns per packed `R` tile: `NC × KT` floats (32 KB) stay in
/// L1 while every row of the block reads them.
const NC: usize = 64;

/// A block at or above this share of non-zero taps (in 1/1024ths) takes
/// the dense register-tiled kernel instead of the tap broadcast. The
/// broadcast reads `R` once per tap where the dense tile shares each `R`
/// load across four rows, so it only wins on clearly sparse blocks
/// (measured crossover on VGG11: 600–760 perform alike, 870 is slower).
///
/// Re-measured after the 512-bit tiles, with the threshold the only
/// difference: perfbench `offline-vgg11`, 10 s alternating pairs on a
/// 2-vCPU AVX-512 Xeon, 680 → 480 (≈ the 0.47 break-even the two
/// kernels' MAC-per-cycle rates predict on that host; it moves VGG11's
/// 0.53- and 0.66-dense layers to the dense tile):
///
/// | variant | pairs | 480 faster in | median ms/image | 680's IQR |
/// |---|---|---|---|---|
/// | `avx512` | 6 | 4 | 0.893 → 0.862 (−3.5%) | 0.065 |
/// | `scalar` | 4 | 1 | 1.108 → 1.152 (+3.9%) | 0.085 |
///
/// Neither move clears the band, and the variants disagree, so 680
/// stays.
///
/// Re-measured once [`project_patches_approx_into`]'s fused tiles ran
/// the engine on `Avx512` (they speed the dense tile up about 1.55× and
/// the broadcast about 1.1×), the threshold the only difference. VGG11's
/// conv inputs are 0.96, 0.86, 0.66, 0.44, 0.52, 0.36, 0.37 and 0.24
/// dense, so 340 moves layers 2–6 to the dense tile and 200 layer 7
/// too:
///
/// | variant | change | run | pairs | new faster in | median ms/image | old's IQR |
/// |---|---|---|---|---|---|---|
/// | `avx512` | 680 → 480 | 10 s | 6 | 4 | 0.774 → 0.773 | 0.042 |
/// | `avx512` | 680 → 340 | 10 s | 6 | 6 | 0.832 → 0.772 (−7.2%) | 0.046 |
/// | `avx512` | 680 → 340 | 20 s | 10 | 6 | 0.763 → 0.747 (−2.1%) | 0.019 |
/// | `avx512` | 340 → 200 | 10 s | 6 | 2 | 0.787 → 0.810 (+3.0%) | 0.044 |
/// | `scalar` | 680 → 340 | 10 s | 6 | 0 | 1.162 → 1.291 (+11.1%) | 0.036 |
///
/// At the benchmark's 20 s run length 340 wins 6/10 pairs, inside the
/// band, and it costs the portable kernels 11%, so 680 stays for both
/// forms.
const DENSE_PER_1024: usize = 680;

/// Where projected patch rows come from.
#[derive(Debug, Clone, Copy)]
pub enum PatchSource<'a> {
    /// Materialised row-major `[rows, n]` vectors (linear layers, or an
    /// explicit im2col matrix).
    Rows {
        /// The rows, `rows · n` values.
        data: &'a [f32],
        /// Row width.
        n: usize,
    },
    /// The implicit im2col of an NCHW input: row `ni·OH·OW + oh·OW + ow`,
    /// column `ci·KH·KW + kh·KW + kw`, exactly as [`crate::ops::im2col`]
    /// lays them out.
    Conv {
        /// The NCHW input values.
        input: &'a [f32],
        /// Convolution geometry.
        cfg: Conv2dConfig,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Output height.
        oh: usize,
        /// Output width.
        ow: usize,
        /// Images in the input.
        images: usize,
    },
}

impl<'a> PatchSource<'a> {
    /// Row-major `[data.len() / n, n]` rows.
    pub fn rows(data: &'a [f32], n: usize) -> Self {
        PatchSource::Rows { data, n }
    }

    /// The implicit im2col of `input` under `cfg`.
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
        if h + 2 * cfg.padding < cfg.kernel_h || w + 2 * cfg.padding < cfg.kernel_w {
            return Err(TensorError::InvalidConfig(format!(
                "kernel {}x{} does not fit padded input {}x{}",
                cfg.kernel_h,
                cfg.kernel_w,
                h + 2 * cfg.padding,
                w + 2 * cfg.padding
            )));
        }
        let (oh, ow) = cfg.output_hw(h, w);
        Ok(PatchSource::Conv {
            input: input.data(),
            cfg: *cfg,
            h,
            w,
            oh,
            ow,
            images,
        })
    }

    /// Number of patch rows.
    pub fn len(&self) -> usize {
        match *self {
            PatchSource::Rows { data, n } => data.len() / n.max(1),
            PatchSource::Conv { oh, ow, images, .. } => images * oh * ow,
        }
    }

    /// Whether there are no patch rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Patch width `n`.
    pub fn width(&self) -> usize {
        match *self {
            PatchSource::Rows { n, .. } => n,
            PatchSource::Conv { cfg, .. } => cfg.patch_len(),
        }
    }
}

/// Reusable per-worker buffers of [`project_patches_into`], sized for
/// blocks of up to `max_rows` rows of width `n` (allocated once, not per
/// block).
#[derive(Debug, Clone)]
pub struct ProjectScratch {
    max_rows: usize,
    n: usize,
    /// Row `r`'s non-zero taps, ascending column, at `r·n..r·n + lens[r]`.
    tap_col: Vec<u32>,
    tap_x: Vec<f32>,
    lens: Vec<usize>,
    /// Dense block rows for the dense branch.
    patch: Vec<f32>,
    /// Packed `NC × KT` tile of `R`.
    strip: Vec<f32>,
    /// Per-row read position in the tap lists across column tiles.
    cursor: Vec<usize>,
    /// Whether the last block took the dense branch (picks the next
    /// block's gather form).
    dense: bool,
    /// First source row and row count of the last block.
    start: usize,
    rows: usize,
}

impl ProjectScratch {
    /// Buffers for blocks of up to `max_rows` rows of width `n`.
    pub fn new(max_rows: usize, n: usize) -> Self {
        ProjectScratch {
            max_rows,
            n,
            tap_col: vec![0; max_rows * n],
            tap_x: vec![0.0; max_rows * n],
            lens: vec![0; max_rows],
            patch: vec![0.0; max_rows * n],
            strip: vec![0.0; NC * KT],
            cursor: vec![0; max_rows],
            dense: false,
            start: 0,
            rows: 0,
        }
    }

    /// Output `j` of row `r` of the block last projected from `src`
    /// (`proj` is that call's `[n, k]` matrix), recomputed with the exact
    /// serial multiply-then-add chain over the row's taps: the bits
    /// [`project_patches_into`] gives it, whichever form projected the
    /// block.
    ///
    /// # Panics
    ///
    /// Panics when `r` or `j` lies outside the last block, or `proj` is
    /// not `n·k`.
    // analyze: alloc-free
    pub fn exact_element(
        &self,
        src: &PatchSource<'_>,
        r: usize,
        proj: &[f32],
        k: usize,
        j: usize,
    ) -> f32 {
        let n = self.n;
        assert!(r < self.rows && j < k, "element outside the last block");
        assert_eq!(proj.len(), n * k, "projection must be n*k");
        let mut acc = 0.0f32;
        if self.dense {
            // Zero taps included: the chain of `matmul_dense_into`.
            let row = self.dense_row(src, r);
            for (&x, &v) in row.iter().zip(proj[j..].iter().step_by(k)) {
                acc += x * v;
            }
        } else {
            let (cols, xs) = self.taps(r);
            for (&col, &x) in cols.iter().zip(xs) {
                acc += x * proj[col as usize * k + j];
            }
        }
        acc
    }

    /// Row `r` of the last block as the dense branch read it.
    fn dense_row<'s>(&'s self, src: &PatchSource<'s>, r: usize) -> &'s [f32] {
        let n = self.n;
        match *src {
            PatchSource::Rows { data, .. } => &data[(self.start + r) * n..][..n],
            PatchSource::Conv { .. } => &self.patch[r * n..(r + 1) * n],
        }
    }

    /// Row `r`'s non-zero taps of the last block: columns and values.
    fn taps(&self, r: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (r * self.n, r * self.n + self.lens[r]);
        (&self.tap_col[lo..hi], &self.tap_x[lo..hi])
    }
}

/// Projects patch rows `row_start..row_start + rows` of `src` through
/// `proj` (`[n, k]`, row-major, every element finite) into
/// `out[..rows * k]`, and writes each row's L2 norm into `norms[..rows]`.
///
/// Bit-identical to materialising the rows (im2col for a conv source),
/// running [`matmul_dense_into`] over them, and taking
/// `patch.iter().map(|v| v * v).sum::<f32>().sqrt()` per row — see the
/// [module docs](self) for why skipping zero taps keeps every bit.
///
/// # Panics
///
/// Panics when the block exceeds the scratch's capacity or `src`'s rows,
/// or a buffer length disagrees with `rows`, `n` or `k`.
// analyze: alloc-free
#[allow(clippy::too_many_arguments)]
pub fn project_patches_into(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    proj: &[f32],
    k: usize,
    scratch: &mut ProjectScratch,
    out: &mut [f32],
    norms: &mut [f32],
) {
    project_block::<false>(src, row_start, rows, proj, k, scratch, out, norms);
}

/// [`project_patches_into`] with fused multiply-add tiles on `Avx512`:
/// the same contract, except that a projected value may differ from the
/// exact one by the rounding of its chain (see the
/// [module docs](self#the-fused-form)). The norms are bit-identical.
///
/// # Panics
///
/// The same conditions as [`project_patches_into`].
// analyze: alloc-free
#[allow(clippy::too_many_arguments)]
pub fn project_patches_approx_into(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    proj: &[f32],
    k: usize,
    scratch: &mut ProjectScratch,
    out: &mut [f32],
    norms: &mut [f32],
) {
    project_block::<true>(src, row_start, rows, proj, k, scratch, out, norms);
}

/// The body of both projection entries; `FMA` picks the wide tiles'
/// form.
// analyze: alloc-free
#[allow(clippy::too_many_arguments)]
fn project_block<const FMA: bool>(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    proj: &[f32],
    k: usize,
    scratch: &mut ProjectScratch,
    out: &mut [f32],
    norms: &mut [f32],
) {
    let n = src.width();
    assert_eq!(scratch.n, n, "scratch width must match the patch width");
    assert!(rows <= scratch.max_rows, "block exceeds scratch capacity");
    assert!(
        row_start + rows <= src.len(),
        "block exceeds the source rows"
    );
    assert_eq!(proj.len(), n * k, "projection must be n*k");
    let out = &mut out[..rows * k];
    let norms = &mut norms[..rows];
    let s = scratch;
    (s.start, s.rows) = (row_start, rows);
    let wide = crate::simd::avx512();
    let (lo, hi) = (row_start * n, (row_start + rows) * n);
    // Materialised rows are already dense; a conv block is gathered in
    // the form the previous block's choice predicts.
    let (nnz, compacted) = match *src {
        PatchSource::Rows { data, .. } => (count_nonzero(&data[lo..hi]), false),
        PatchSource::Conv { .. } if s.dense => {
            (gather_dense(src, row_start, rows, &mut s.patch), false)
        }
        PatchSource::Conv { .. } => {
            let lens = &mut s.lens[..rows];
            (
                gather_taps(src, row_start, &mut s.tap_col, &mut s.tap_x, lens),
                true,
            )
        }
    };
    s.dense = nnz * 1024 >= rows * n * DENSE_PER_1024;
    if s.dense && compacted {
        scatter_taps(
            &s.tap_col,
            &s.tap_x,
            &s.lens[..rows],
            n,
            &mut s.patch[..rows * n],
        );
    }
    let block = match *src {
        PatchSource::Rows { data, .. } => &data[lo..hi],
        PatchSource::Conv { .. } => &s.patch[..rows * n],
    };
    if s.dense {
        dense_norms(block, n, norms);
        dense_gemm::<FMA>(wide, block, rows, n, proj, k, out);
        return;
    }
    if !compacted {
        compact_rows(block, n, &mut s.tap_col, &mut s.tap_x, &mut s.lens[..rows]);
    }
    broadcast_taps::<FMA>(
        wide,
        &s.tap_col,
        &s.tap_x,
        &s.lens[..rows],
        n,
        proj,
        k,
        &mut s.strip,
        &mut s.cursor,
        out,
        norms,
    );
}

/// Non-zero entries of `block`.
fn count_nonzero(block: &[f32]) -> usize {
    block.iter().map(|&x| usize::from(x != 0.0)).sum()
}

/// Per-row walk state of a conv block: `(image, oh, ow)` of the block's
/// first row, advanced row by row without divisions.
struct RowWalk {
    ni: usize,
    ohi: usize,
    owi: usize,
}

impl RowWalk {
    fn at(row: usize, oh: usize, ow: usize) -> Self {
        RowWalk {
            ni: row / (oh * ow),
            ohi: (row / ow) % oh,
            owi: row % ow,
        }
    }

    /// The current row's `(image, ih0, iw0)`, then steps to the next.
    fn next(&mut self, cfg: &Conv2dConfig, oh: usize, ow: usize) -> (usize, isize, isize) {
        let pad = cfg.padding as isize;
        let here = (
            self.ni,
            (self.ohi * cfg.stride) as isize - pad,
            (self.owi * cfg.stride) as isize - pad,
        );
        self.owi += 1;
        if self.owi == ow {
            self.owi = 0;
            self.ohi += 1;
            if self.ohi == oh {
                self.ohi = 0;
                self.ni += 1;
            }
        }
        here
    }
}

/// The in-bounds kernel offsets `lo..hi` along one axis for a window
/// starting at input coordinate `start` (may be negative).
fn valid_range(start: isize, kernel: usize, extent: usize) -> (usize, usize) {
    let lo = (-start).clamp(0, kernel as isize) as usize;
    let hi = (extent as isize - start).clamp(lo as isize, kernel as isize) as usize;
    (lo, hi)
}

/// Gathers each row's non-zero in-bounds taps of a conv block, ascending
/// column, into `r·n..r·n + lens[r]`. Returns the non-zero count.
fn gather_taps(
    src: &PatchSource<'_>,
    row_start: usize,
    tap_col: &mut [u32],
    tap_x: &mut [f32],
    lens: &mut [usize],
) -> usize {
    match kernel_w(src) {
        1 => gather_taps_kw::<1>(src, row_start, tap_col, tap_x, lens),
        3 => gather_taps_kw::<3>(src, row_start, tap_col, tap_x, lens),
        5 => gather_taps_kw::<5>(src, row_start, tap_col, tap_x, lens),
        _ => gather_taps_kw::<0>(src, row_start, tap_col, tap_x, lens),
    }
}

/// Gathers a conv block as dense im2col rows into `patch`, zero-filling
/// out-of-bounds taps. Returns the non-zero count.
fn gather_dense(src: &PatchSource<'_>, row_start: usize, rows: usize, patch: &mut [f32]) -> usize {
    match kernel_w(src) {
        1 => gather_dense_kw::<1>(src, row_start, rows, patch),
        3 => gather_dense_kw::<3>(src, row_start, rows, patch),
        5 => gather_dense_kw::<5>(src, row_start, rows, patch),
        _ => gather_dense_kw::<0>(src, row_start, rows, patch),
    }
}

/// The kernel width of a conv source: the gathers are monomorphised for
/// the common widths so their innermost copy unrolls.
fn kernel_w(src: &PatchSource<'_>) -> usize {
    match *src {
        PatchSource::Conv { cfg, .. } => cfg.kernel_w,
        PatchSource::Rows { .. } => 0,
    }
}

/// [`gather_taps`] with the kernel width fixed at `KW` (`0`: read it
/// from the source at run time).
#[inline(always)]
fn gather_taps_kw<const KW: usize>(
    src: &PatchSource<'_>,
    row_start: usize,
    tap_col: &mut [u32],
    tap_x: &mut [f32],
    lens: &mut [usize],
) -> usize {
    let PatchSource::Conv {
        input,
        cfg,
        h,
        w,
        oh,
        ow,
        ..
    } = *src
    else {
        unreachable!("conv sources only");
    };
    let (c, kh_n, n) = (cfg.in_channels, cfg.kernel_h, cfg.patch_len());
    let kw_n = if KW == 0 { cfg.kernel_w } else { KW };
    let plane = h * w;
    let mut walk = RowWalk::at(row_start, oh, ow);
    let mut total = 0;
    for (r, len_out) in lens.iter_mut().enumerate() {
        let (ni, ih0, iw0) = walk.next(&cfg, oh, ow);
        let img = &input[ni * c * plane..(ni + 1) * c * plane];
        let (kh_lo, kh_hi) = valid_range(ih0, kh_n, h);
        let (kw_lo, kw_hi) = valid_range(iw0, kw_n, w);
        let cols = &mut tap_col[r * n..(r + 1) * n];
        let xs = &mut tap_x[r * n..(r + 1) * n];
        let mut len = 0;
        // Write every tap, advance past non-zero ones only: branch-free
        // compaction.
        let mut push = |len: &mut usize, col: usize, x: f32| {
            cols[*len] = col as u32;
            xs[*len] = x;
            *len += usize::from(x != 0.0);
        };
        for ci in 0..c {
            for kh in kh_lo..kh_hi {
                let line = ci * plane + (ih0 + kh as isize) as usize * w;
                let col0 = (ci * kh_n + kh) * kw_n;
                if kw_hi - kw_lo == kw_n {
                    // Full-width window row: a fixed-length walk.
                    let from = line + iw0 as usize;
                    for (kw, &x) in img[from..from + kw_n].iter().enumerate() {
                        push(&mut len, col0 + kw, x);
                    }
                } else {
                    for kw in kw_lo..kw_hi {
                        push(
                            &mut len,
                            col0 + kw,
                            img[line + (iw0 + kw as isize) as usize],
                        );
                    }
                }
            }
        }
        *len_out = len;
        total += len;
    }
    total
}

/// [`gather_dense`] with the kernel width fixed at `KW` (`0`: read it
/// from the source at run time).
#[inline(always)]
fn gather_dense_kw<const KW: usize>(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    patch: &mut [f32],
) -> usize {
    let PatchSource::Conv {
        input,
        cfg,
        h,
        w,
        oh,
        ow,
        ..
    } = *src
    else {
        unreachable!("conv sources only");
    };
    let (c, kh_n, n) = (cfg.in_channels, cfg.kernel_h, cfg.patch_len());
    let kw_n = if KW == 0 { cfg.kernel_w } else { KW };
    let plane = h * w;
    let mut walk = RowWalk::at(row_start, oh, ow);
    for dst in patch[..rows * n].chunks_exact_mut(n) {
        let (ni, ih0, iw0) = walk.next(&cfg, oh, ow);
        let img = &input[ni * c * plane..(ni + 1) * c * plane];
        let (kh_lo, kh_hi) = valid_range(ih0, kh_n, h);
        let (kw_lo, kw_hi) = valid_range(iw0, kw_n, w);
        if (kh_hi - kh_lo) * (kw_hi - kw_lo) < kh_n * kw_n {
            dst.fill(0.0);
        }
        for ci in 0..c {
            for kh in kh_lo..kh_hi {
                let line = ci * plane + (ih0 + kh as isize) as usize * w;
                let col0 = (ci * kh_n + kh) * kw_n;
                if kw_hi - kw_lo == kw_n {
                    // Full-width window row: a fixed-length copy.
                    let from = line + iw0 as usize;
                    dst[col0..col0 + kw_n].copy_from_slice(&img[from..from + kw_n]);
                } else {
                    for kw in kw_lo..kw_hi {
                        dst[col0 + kw] = img[line + (iw0 + kw as isize) as usize];
                    }
                }
            }
        }
    }
    count_nonzero(&patch[..rows * n])
}

/// Compacts dense rows into per-row non-zero tap lists.
fn compact_rows(
    block: &[f32],
    n: usize,
    tap_col: &mut [u32],
    tap_x: &mut [f32],
    lens: &mut [usize],
) {
    for (r, len_out) in lens.iter_mut().enumerate() {
        let cols = &mut tap_col[r * n..(r + 1) * n];
        let xs = &mut tap_x[r * n..(r + 1) * n];
        let mut len = 0;
        for (col, &x) in block[r * n..(r + 1) * n].iter().enumerate() {
            cols[len] = col as u32;
            xs[len] = x;
            len += usize::from(x != 0.0);
        }
        *len_out = len;
    }
}

/// Expands per-row tap lists back into dense rows.
fn scatter_taps(tap_col: &[u32], tap_x: &[f32], lens: &[usize], n: usize, patch: &mut [f32]) {
    patch.fill(0.0);
    for (r, (dst, &len)) in patch.chunks_exact_mut(n).zip(lens).enumerate() {
        for (&col, &x) in tap_col[r * n..r * n + len]
            .iter()
            .zip(&tap_x[r * n..r * n + len])
        {
            dst[col as usize] = x;
        }
    }
}

/// The dense branch's GEMM: the AVX-512 tile (in `FMA`'s form) when
/// `wide`, else [`matmul_dense_into`] (the exact form's bits).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn dense_gemm<const FMA: bool>(
    wide: Option<Avx512Token>,
    block: &[f32],
    rows: usize,
    n: usize,
    proj: &[f32],
    k: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        return crate::simd::x86::dense_avx512::<FMA>(token, block, rows, n, proj, k, out);
    }
    matmul_dense_into(block, rows, n, proj, k, out);
}

/// Row norms of dense rows, four rows' serial chains interleaved so the
/// add latency overlaps (each row still sums ascending from `+0.0`).
fn dense_norms(block: &[f32], n: usize, norms: &mut [f32]) {
    let mut quads = norms.chunks_exact_mut(4);
    let mut r = 0;
    for quad in &mut quads {
        let mut acc = [0.0f32; 4];
        for col in 0..n {
            for (j, a) in acc.iter_mut().enumerate() {
                let x = block[(r + j) * n + col];
                *a += x * x;
            }
        }
        for (o, a) in quad.iter_mut().zip(acc) {
            *o = a.sqrt();
        }
        r += 4;
    }
    for o in quads.into_remainder() {
        let mut acc = 0.0f32;
        for &x in &block[r * n..(r + 1) * n] {
            acc += x * x;
        }
        *o = acc.sqrt();
        r += 1;
    }
}

/// The tap broadcast over a block: for each `KT`-wide output tile and
/// each `NC`-column tile of `R` (packed contiguous, so it stays in L1),
/// every row adds `x · R[col, tile]` for its taps in that column range
/// into register accumulators. Column tiles run in ascending order and
/// reload the partial sums, so each output keeps one ascending chain.
/// The norms ride along on the first output tile.
#[allow(clippy::too_many_arguments)]
fn broadcast_taps<const FMA: bool>(
    wide: Option<Avx512Token>,
    tap_col: &[u32],
    tap_x: &[f32],
    lens: &[usize],
    n: usize,
    proj: &[f32],
    k: usize,
    strip: &mut [f32],
    cursor: &mut [usize],
    out: &mut [f32],
    norms: &mut [f32],
) {
    let rows = lens.len();
    norms.fill(0.0);
    let mut kt = 0;
    while kt < k {
        let width = KT.min(k - kt);
        for (r, cur) in cursor[..rows].iter_mut().enumerate() {
            *cur = r * n;
        }
        let mut c0 = 0;
        while c0 < n {
            let c1 = (c0 + NC).min(n);
            for (c, tile) in (c0..c1).zip(strip.chunks_exact_mut(KT)) {
                tile[..width].copy_from_slice(&proj[c * k + kt..c * k + kt + width]);
            }
            for r in 0..rows {
                let end = r * n + lens[r];
                let out_row = &mut out[r * k + kt..r * k + kt + width];
                // A tail tile (`width < KT`) computes garbage in its
                // unused lanes from stale strip columns; they are never
                // stored.
                let mut tile = [0.0f32; KT];
                if c0 > 0 {
                    tile[..width].copy_from_slice(out_row);
                }
                let (from, c) = (cursor[r], (c0, c1));
                cursor[r] = if kt == 0 {
                    row_tile::<true, FMA>(
                        wide,
                        tap_col,
                        tap_x,
                        from,
                        end,
                        c,
                        strip,
                        &mut tile,
                        &mut norms[r],
                    )
                } else {
                    row_tile::<false, FMA>(
                        wide, tap_col, tap_x, from, end, c, strip, &mut tile, &mut 0.0,
                    )
                };
                out_row.copy_from_slice(&tile[..width]);
            }
            c0 = c1;
        }
        kt += width;
    }
    for v in norms.iter_mut() {
        *v = v.sqrt();
    }
}

/// One row's taps `from..end` with column in `c0..c1`, added into a
/// `KT`-wide register tile (and, with `NORM`, their squares into
/// `norm`) — on the AVX-512 kernel (in `FMA`'s form) when `wide`, else
/// [`row_tile_portable`] (the exact form's bits). Returns where the next
/// column tile resumes.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline]
fn row_tile<const NORM: bool, const FMA: bool>(
    wide: Option<Avx512Token>,
    tap_col: &[u32],
    tap_x: &[f32],
    from: usize,
    end: usize,
    c: (usize, usize),
    strip: &[f32],
    tile: &mut [f32; KT],
    norm: &mut f32,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        return crate::simd::x86::row_tile_avx512::<NORM, FMA>(
            token, tap_col, tap_x, from, end, c, strip, tile, norm,
        );
    }
    row_tile_portable::<NORM>(tap_col, tap_x, from, end, c, strip, tile, norm)
}

/// The portable row tile: the path of every non-`Avx512` variant and the
/// oracle of the AVX-512 one.
#[allow(clippy::too_many_arguments)]
#[inline]
fn row_tile_portable<const NORM: bool>(
    tap_col: &[u32],
    tap_x: &[f32],
    from: usize,
    end: usize,
    (c0, c1): (usize, usize),
    strip: &[f32],
    tile: &mut [f32; KT],
    norm: &mut f32,
) -> usize {
    let mut acc = *tile;
    let mut nrm = *norm;
    let mut i = from;
    while i < end {
        let col = tap_col[i] as usize;
        if col >= c1 {
            break;
        }
        let x = tap_x[i];
        if NORM {
            nrm += x * x;
        }
        let rv: &[f32; KT] = strip[(col - c0) * KT..(col - c0 + 1) * KT]
            .try_into()
            .expect("KT-wide tile");
        for (a, &v) in acc.iter_mut().zip(rv) {
            *a += x * v;
        }
        i += 1;
    }
    *tile = acc;
    *norm = nrm;
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::im2col;
    use crate::rng::seeded_rng;

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

    fn check(src: &PatchSource<'_>, patches: &[f32], proj: &[f32], k: usize, block: usize) {
        let (n, rows) = (src.width(), src.len());
        let (want, want_norms) = oracle(patches, rows, n, proj, k);
        let mut scratch = ProjectScratch::new(block, n);
        let mut out = vec![f32::NAN; block * k];
        let mut norms = vec![f32::NAN; block];
        let mut start = 0;
        while start < rows {
            let here = block.min(rows - start);
            project_patches_into(
                src,
                start,
                here,
                proj,
                k,
                &mut scratch,
                &mut out,
                &mut norms,
            );
            assert_eq!(
                bits(&out[..here * k]),
                bits(&want[start * k..(start + here) * k])
            );
            assert_eq!(bits(&norms[..here]), bits(&want_norms[start..start + here]));
            start += here;
        }
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
        // and without a tail; strided and padded windows; more than one
        // packed column tile (n = 8·3·3·... > NC).
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
        let mut scratch = ProjectScratch::new(9, 20);
        let (mut out, mut norms) = (vec![1.0f32; 9 * 128], vec![1.0f32; 9]);
        project_patches_into(
            &PatchSource::rows(x.data(), 20),
            0,
            9,
            proj.data(),
            128,
            &mut scratch,
            &mut out,
            &mut norms,
        );
        assert!(norms.iter().chain(&out).all(|v| v.to_bits() == 0));
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
