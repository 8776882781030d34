//! Implicit-im2col, activation-sparse patch projection: `patch · R` for
//! a block of patch rows, read straight from the NCHW activation.
//!
//! The DeepCAM engine hashes every im2col patch by projecting it through
//! a dense, finite `[n, k]` matrix `R`. Materialising the `[N·P, n]`
//! im2col matrix and running a dense GEMM over it multiplies every
//! zero-padding tap and every post-ReLU zero.
//! [`project_patches_approx_into`] instead gathers one block of patch
//! rows at a time, walking only the in-bounds taps of each patch, and
//! keeps each row's non-zero taps in ascending column order. Each tap is
//! then broadcast across `k`: `acc[..] += x · R[col, ..]`, with `k` tiled
//! so a row's accumulators stay in registers and the `R` tile they read
//! stays in L1. The patch norms are accumulated in the same pass over
//! the taps.
//!
//! # Exact and fused chains
//!
//! Every output element is one serial chain over ascending patch
//! columns, starting from `+0.0` — the chain [`matmul_dense_into`] and
//! [`crate::tensor::matmul_into`] evaluate — minus the terms whose patch
//! entry is `±0.0`. With `R` finite those terms are `±0.0`, and adding
//! `±0.0` to an accumulator that started at `+0.0` never changes a bit
//! (exact cancellation rounds to `+0.0`, and `+0.0 + ±0.0 = +0.0`).
//! Subnormal and non-finite entries are not zero: they are kept as taps.
//!
//! The portable kernels, which every variant but `Avx512` runs, round
//! each term's multiply, then its add, so their result equals im2col +
//! [`matmul_dense_into`] bitwise. On `Avx512` the tiles fuse each term
//! into one `_mm512_fmadd_ps`: one rounding instead of two, so a value
//! may differ from the exact one in its last bits. It is still one
//! serial chain over at most `n` terms, so it lies within
//! `γ_n·Σ|x_i·r_i|` of the true dot product, as the exact value does.
//! [`ProjectScratch::exact_element`] recomputes any output with the
//! exact chain, from the taps the block's gather left in the scratch.
//!
//! The norm is exact in every form. `patch.iter().map(|v| v * v).sum()`
//! folds from `-0.0` on current toolchains, but its first `+ v²` (always
//! `≥ +0.0` or NaN) already lands on `+0.0` or above, so starting from
//! `+0.0` and adding only the non-zero squares reproduces it for any
//! non-empty patch. An all-zero patch therefore gets norm `+0.0`, never
//! the `-0.0` an empty `sum` would give.
//!
//! A nearly dense block (the first layer's raw image, density ≈ 0.96)
//! runs through a register tile over the block's implicit patch rows
//! instead: four rows × 64 columns, filled by two 4×32 passes (the chain
//! of [`matmul_dense_into`]), or on `Avx512` held in sixteen `zmm`
//! accumulators. The choice is made per block from the non-zero count
//! its gather just counted; both branches give identical bits. The
//! gather itself takes the form (compacted taps or dense rows) the
//! previous block's choice predicts, and converts when the count
//! disagrees. On `Avx512` the broadcast keeps a row's 128 accumulators in
//! eight `zmm` registers ([`crate::simd`]'s x86 kernels); the portable
//! code is vectorized by LLVM, at 256 bits on AVX-512 hosts too.
//!
//! # Epilogues
//!
//! A tile is finished when its walk over `n` ends: a dense tile's 4 × 64
//! outputs (one 64-bit word per row), or a broadcast row's 128 outputs on
//! its last column tile. Every tile body ends in one epilogue.
//! [`project_patches_approx_into`] stores the floats;
//! [`project_patches_signs_into`] compares them against a per-lane bound
//! ([`Signs`]) and writes each row's sign and uncertain words, so the
//! DeepCAM hash, which needs only the sign bits, never stores or re-reads
//! the float block. The AVX-512 tiles compare in registers, the portable
//! ones from a stack tile.

use crate::error::TensorError;
use crate::ops::conv::Conv2dConfig;
use crate::shape::Shape;
use crate::simd::Avx512Token;
use crate::tensor::Tensor;
use crate::Result;

#[cfg(doc)]
use crate::tensor::matmul_dense_into;

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
/// band, and it costs the portable kernels 11%, so 680 stays.
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

/// The sign certificate [`project_patches_signs_into`] applies to every
/// finished tile in place of storing its floats.
///
/// Lane `j` of row `r` compares `v = y_j`, or under crossbar noise
/// `v = fl(y_j + fl(fl(level·‖x‖)·z_j))` with `z` the row's draws. Its
/// sign bit is `v >= 0.0`, and its uncertain bit is set unless
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
    /// Crossbar noise: its level and the block's `[rows, k]` norm-free
    /// draws `z`, row-major.
    pub noise: Option<(f32, &'e [f32])>,
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
/// row `r`'s bound factor and noise amplitude in `factors[r]` once its
/// norm is known.
pub(crate) struct SignTile<'e> {
    pub(crate) cert: Signs<'e>,
    pub(crate) n: usize,
    pub(crate) rows: usize,
    pub(crate) factors: &'e mut [(f32, f32)],
}

impl Epilogue<'_> {
    /// Row `r`'s norm is known: fixes its bound factor and its noise
    /// amplitude `fl(level·‖x‖)`.
    #[inline]
    pub(crate) fn set_norm(&mut self, r: usize, norm: f32) {
        if let Epilogue::Signs(st) = self {
            let amp = st.cert.noise.map_or(0.0, |(level, _)| level * norm);
            st.factors[r] = ((st.cert.row_scale)(st.n, norm), amp);
        }
    }

    /// Finishes row `r`'s first `w` values of `tile` at columns
    /// `j0..j0 + w` (`j0` a multiple of 64): the portable epilogue. The
    /// tile comes by value, so the caller's accumulators stay in
    /// registers; the compares go through bytes, so they vectorize.
    pub(crate) fn finish<const W: usize>(&mut self, r: usize, j0: usize, tile: [f32; W], w: usize) {
        let vals = &tile[..w];
        let st = match self {
            Epilogue::Store { out, k } => {
                return out[r * *k + j0..][..vals.len()].copy_from_slice(vals);
            }
            Epilogue::Signs(st) => st,
        };
        let (scale, amp) = st.factors[r];
        let (k, cert) = (st.cert.bounds.len(), &mut st.cert);
        for (w, chunk) in (j0 / 64..).zip(vals.chunks(64)) {
            let j = 64 * w;
            let mut noisy = [0.0f32; 64];
            let v = match cert.noise {
                Some((_, z)) => {
                    for ((v, &y), &z) in noisy.iter_mut().zip(chunk).zip(&z[r * k + j..]) {
                        *v = y + amp * z;
                    }
                    &noisy[..chunk.len()]
                }
                None => chunk,
            };
            let (mut sign, mut unsure) = ([0u8; 64], [0u8; 64]);
            let lanes = sign.iter_mut().zip(&mut unsure).zip(v);
            for (((s, u), &v), &c) in lanes.zip(&cert.bounds[j..]) {
                *s = u8::from(v >= 0.0);
                let sure = v.abs() > scale * c;
                *u = u8::from(!sure);
            }
            let at = w * st.rows + r;
            (cert.signs[at], cert.uncertain[at]) = (collapse(&sign), collapse(&unsure));
        }
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

/// One row's tile of the tap broadcast: its taps `from..end` with column
/// in `c0..c1`, into output columns `kt..kt + width`; `last` when `c1`
/// ends the row, so the tile is finished.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowTile {
    pub(crate) r: usize,
    pub(crate) from: usize,
    pub(crate) end: usize,
    pub(crate) c0: usize,
    pub(crate) c1: usize,
    pub(crate) kt: usize,
    pub(crate) width: usize,
    pub(crate) last: bool,
}

/// Reusable per-worker buffers of the projection, sized for blocks of up
/// to `max_rows` rows of width `n` (allocated once, not per block).
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
    /// Per-row `KT`-wide partial sums between column tiles (`n > NC`).
    partial: Vec<f32>,
    /// Per-row bound factor and noise amplitude of a [`Signs`] block.
    factors: Vec<(f32, f32)>,
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
            strip: vec![0.0; NC * KT + LINE],
            cursor: vec![0; max_rows],
            partial: vec![0.0; max_rows * KT + LINE],
            factors: vec![(0.0, 0.0); max_rows],
            dense: false,
            start: 0,
            rows: 0,
        }
    }

    /// Output `j` of row `r` of the block last projected from `src`
    /// (`proj` is that call's `[n, k]` matrix), recomputed with the exact
    /// serial multiply-then-add chain over the row's taps: the bits of
    /// im2col + [`matmul_dense_into`], whichever form projected the
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

    /// Whether the last block took the dense branch.
    pub fn dense(&self) -> bool {
        self.dense
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
/// The norms are bit-identical to materialising the rows (im2col for a
/// conv source) and taking `patch.iter().map(|v| v * v).sum::<f32>()
/// .sqrt()` per row. Each projected value is one serial chain over the
/// row's taps, fused on `Avx512` (but for a dense block's `k % 64`
/// tail) and exact elsewhere, so it lies within
/// `γ_n·Σ|x_i·r_i|` of the true dot product, as the value of im2col +
/// [`matmul_dense_into`] does (see the [module docs](self)).
/// [`ProjectScratch::exact_element`] gives any output's exact bits.
///
/// # Panics
///
/// Panics when the block exceeds the scratch's capacity or `src`'s rows,
/// or a buffer length disagrees with `rows`, `n` or `k`.
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
    let out = &mut out[..rows * k];
    let target = Target::Floats(out);
    project_block(src, row_start, rows, proj, k, scratch, target, norms);
}

/// [`project_patches_approx_into`]'s projection, with each finished tile
/// compared into sign and uncertain words by `signs` while its
/// accumulators are still in registers (on the portable variants, from a
/// stack tile): no float of the block is stored. The words equal
/// `bitvec::certify_signs_into` in `deepcam-hash` applied to the floats
/// [`project_patches_approx_into`] stores (plus the noise `signs`
/// describes), and the norms are the same.
///
/// # Panics
///
/// As [`project_patches_approx_into`], and when a buffer of `signs`
/// disagrees with `rows` or `k`.
// analyze: alloc-free
#[allow(clippy::too_many_arguments)]
pub fn project_patches_signs_into(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    proj: &[f32],
    k: usize,
    scratch: &mut ProjectScratch,
    signs: Signs<'_>,
    norms: &mut [f32],
) {
    let words = k.div_ceil(64) * rows;
    assert_eq!(signs.bounds.len(), k, "one bound per output column");
    assert_eq!(signs.signs.len(), words, "word-major sign block");
    assert_eq!(signs.uncertain.len(), words, "word-major uncertain block");
    if let Some((_, z)) = signs.noise {
        assert_eq!(z.len(), rows * k, "one draw per output");
    }
    let target = Target::Signs(signs);
    project_block(src, row_start, rows, proj, k, scratch, target, norms);
}

/// The one body of both projection entries.
#[allow(clippy::too_many_arguments)]
fn project_block(
    src: &PatchSource<'_>,
    row_start: usize,
    rows: usize,
    proj: &[f32],
    k: usize,
    scratch: &mut ProjectScratch,
    target: Target<'_>,
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
    let mut ep = match target {
        Target::Floats(out) => Epilogue::Store { out, k },
        Target::Signs(cert) => Epilogue::Signs(SignTile {
            cert,
            n,
            rows,
            factors: &mut s.factors[..rows],
        }),
    };
    let block = match *src {
        PatchSource::Rows { data, .. } => &data[lo..hi],
        PatchSource::Conv { .. } => &s.patch[..rows * n],
    };
    if s.dense {
        dense_norms(block, n, norms);
        for (r, &norm) in norms.iter().enumerate() {
            ep.set_norm(r, norm);
        }
        dense_gemm(wide, block, rows, n, proj, k, &mut ep);
        return;
    }
    if !compacted {
        compact_rows(block, n, &mut s.tap_col, &mut s.tap_x, &mut s.lens[..rows]);
    }
    let taps = (&s.tap_col[..], &s.tap_x[..]);
    let (strip, partial) = (lines(&mut s.strip), lines(&mut s.partial));
    let bufs = (strip, &mut s.cursor[..], partial);
    broadcast_taps(
        wide,
        taps,
        &s.lens[..rows],
        n,
        proj,
        k,
        bufs,
        &mut ep,
        norms,
    );
}

/// Floats per 64-byte cache line.
const LINE: usize = 16;

/// `v` less its last `LINE` floats, starting on a cache line: the 512-bit
/// tiles load and store the packed `R` tile and the partial sums in whole
/// lines, never split across two (the zeroed buffer is allocated with
/// `LINE` floats of slack and left untouched until used).
fn lines(v: &mut [f32]) -> &mut [f32] {
    let off = v.as_ptr().align_offset(64).min(LINE);
    let len = v.len() - LINE;
    &mut v[off..off + len]
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

/// The dense branch: the fused AVX-512 tiles over the whole 64-column
/// tiles when `wide`, and [`dense_portable`] (the exact bits) over the
/// rest, each ending in `ep`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables, unused_mut))]
fn dense_gemm(
    wide: Option<Avx512Token>,
    block: &[f32],
    rows: usize,
    n: usize,
    proj: &[f32],
    k: usize,
    ep: &mut Epilogue<'_>,
) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        crate::simd::x86::dense_avx512(token, block, rows, n, proj, k, ep);
        done = k / 64 * 64;
    }
    dense_portable(block, rows, n, proj, k, done, ep);
}

/// The portable dense branch over columns `from..k` (`from` a multiple of
/// 64): [`matmul_dense_into`]'s chain (ascending over `n` from `+0.0`,
/// multiply then add) in 2-row × 64-column tiles (a 1-row tile for an odd
/// last row), each finished from its accumulators: one word per row, in
/// sixteen 256-bit registers.
fn dense_portable(
    a: &[f32],
    rows: usize,
    n: usize,
    b: &[f32],
    k: usize,
    from: usize,
    ep: &mut Epilogue<'_>,
) {
    let pairs = rows / 2 * 2;
    for jt in (from..k).step_by(64) {
        let w = 64.min(k - jt);
        for r0 in (0..pairs).step_by(2) {
            dense_tile_portable::<2>(a, r0, n, b, k, jt, w, ep);
        }
        if pairs < rows {
            dense_tile_portable::<1>(a, pairs, n, b, k, jt, w, ep);
        }
    }
}

/// Rows `r0..r0 + R` × columns `jt..jt + w` (`w ≤ 64`) of the portable
/// dense branch. A whole 64-column tile walks fixed-width rows of `b`, so
/// its accumulators stay in registers.
#[allow(clippy::too_many_arguments)]
#[inline]
fn dense_tile_portable<const R: usize>(
    a: &[f32],
    r0: usize,
    n: usize,
    b: &[f32],
    k: usize,
    jt: usize,
    w: usize,
    ep: &mut Epilogue<'_>,
) {
    let mut rows = [&a[..0]; R];
    for (i, row) in rows.iter_mut().enumerate() {
        *row = &a[(r0 + i) * n..(r0 + i + 1) * n];
    }
    let mut acc = [[0.0f32; 64]; R];
    let b_rows = (0..n).zip(b.chunks_exact(k));
    if w == 64 {
        for (kk, b_row) in b_rows {
            let bv: &[f32; 64] = b_row[jt..jt + 64].try_into().expect("64 columns");
            for (row, acc_i) in rows.iter().zip(acc.iter_mut()) {
                let x = row[kk];
                for (s, &bl) in acc_i.iter_mut().zip(bv) {
                    *s += x * bl;
                }
            }
        }
    } else {
        for (kk, b_row) in b_rows {
            for (row, acc_i) in rows.iter().zip(acc.iter_mut()) {
                let x = row[kk];
                for (s, &bl) in acc_i.iter_mut().zip(&b_row[jt..jt + w]) {
                    *s += x * bl;
                }
            }
        }
    }
    for (i, &acc_i) in acc.iter().enumerate() {
        ep.finish(r0 + i, jt, acc_i, w);
    }
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
/// into register accumulators. Column tiles run in ascending order, the
/// partial sums between them kept per row in `partial`, so each output
/// keeps one ascending chain; the last column tile finishes the row's
/// tile into `ep`. The norms ride along on the first output tile, and
/// each is final (and handed to `ep`) when that tile's walk ends.
#[allow(clippy::too_many_arguments)]
fn broadcast_taps(
    wide: Option<Avx512Token>,
    (tap_col, tap_x): (&[u32], &[f32]),
    lens: &[usize],
    n: usize,
    proj: &[f32],
    k: usize,
    (strip, cursor, partial): (&mut [f32], &mut [usize], &mut [f32]),
    ep: &mut Epilogue<'_>,
    norms: &mut [f32],
) {
    norms.fill(0.0);
    let mut kt = 0;
    while kt < k {
        let width = KT.min(k - kt);
        for (r, cur) in cursor[..lens.len()].iter_mut().enumerate() {
            *cur = r * n;
        }
        let mut c0 = 0;
        while c0 < n {
            let c1 = (c0 + NC).min(n);
            for (c, tile) in (c0..c1).zip(strip.chunks_exact_mut(KT)) {
                tile[..width].copy_from_slice(&proj[c * k + kt..c * k + kt + width]);
            }
            for (r, &len) in lens.iter().enumerate() {
                let t = RowTile {
                    r,
                    from: cursor[r],
                    end: r * n + len,
                    c0,
                    c1,
                    kt,
                    width,
                    last: c1 == n,
                };
                let part = (&mut partial[r * KT..(r + 1) * KT])
                    .try_into()
                    .expect("KT-wide partial");
                let taps = (tap_col, tap_x);
                cursor[r] = if kt == 0 {
                    row_tile::<true>(wide, taps, t, strip, part, &mut norms[r], ep)
                } else {
                    row_tile::<false>(wide, taps, t, strip, part, &mut 0.0, ep)
                };
            }
            c0 = c1;
        }
        kt += width;
    }
}

/// One row tile `t` on the fused AVX-512 kernel when `wide`, else
/// [`row_tile_portable`] (the exact bits). Returns where the next column
/// tile resumes.
#[allow(clippy::too_many_arguments)]
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline]
fn row_tile<const NORM: bool>(
    wide: Option<Avx512Token>,
    taps: (&[u32], &[f32]),
    t: RowTile,
    strip: &[f32],
    partial: &mut [f32; KT],
    norm: &mut f32,
    ep: &mut Epilogue<'_>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        return crate::simd::x86::row_tile_avx512::<NORM>(token, taps, t, strip, partial, norm, ep);
    }
    row_tile_portable::<NORM>(taps, t, strip, partial, norm, ep)
}

/// The portable row tile: the path of every non-`Avx512` variant. Its
/// `KT` accumulators start from `partial` (or `+0.0` on the first column
/// tile), take the tile's taps (and, with `NORM`, their squares into
/// `norm`), and go back to `partial`, or, on the last column tile, to
/// `ep` from the stack.
#[inline]
fn row_tile_portable<const NORM: bool>(
    (tap_col, tap_x): (&[u32], &[f32]),
    t: RowTile,
    strip: &[f32],
    partial: &mut [f32; KT],
    norm: &mut f32,
    ep: &mut Epilogue<'_>,
) -> usize {
    let mut acc = if t.c0 > 0 { *partial } else { [0.0f32; KT] };
    let mut nrm = *norm;
    let (cols, xs) = (&tap_col[..t.end], &tap_x[..t.end]);
    let mut i = t.from;
    while i < t.end {
        let col = cols[i] as usize;
        if col >= t.c1 {
            break;
        }
        let x = xs[i];
        i += 1;
        if NORM {
            nrm += x * x;
        }
        let rv: &[f32; KT] = strip[(col - t.c0) * KT..(col - t.c0 + 1) * KT]
            .try_into()
            .expect("KT-wide tile");
        for (a, &v) in acc.iter_mut().zip(rv) {
            *a += x * v;
        }
    }
    if NORM {
        *norm = if t.last { nrm.sqrt() } else { nrm };
        if t.last {
            ep.set_norm(t.r, *norm);
        }
    }
    if t.last {
        // A tail tile (`width < KT`) holds garbage in its unused lanes,
        // from stale strip columns; they are never finished.
        ep.finish(t.r, t.kt, acc, t.width);
    } else {
        *partial = acc;
    }
    i
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
        let _pin = crate::simd::tests::pinned();
        let initial = crate::simd::active();
        for &v in crate::simd::detected() {
            crate::simd::force_variant(v).expect("detected variant");
            let mut scratch = ProjectScratch::new(block, n);
            let mut out = vec![f32::NAN; block * k];
            let mut norms = vec![f32::NAN; block];
            let mut start = 0;
            while start < rows {
                let here = block.min(rows - start);
                project_patches_approx_into(
                    src,
                    start,
                    here,
                    proj,
                    k,
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
                        let recomputed = scratch.exact_element(src, r, proj, k, j);
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
        project_patches_approx_into(
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
