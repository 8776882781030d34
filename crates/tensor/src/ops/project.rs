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
//! - **`B`.** [`ProjPanels`] packs `R` once per layer into 64-column
//!   panels laid out `[k/64][n][64]`, so every tile walks contiguous
//!   64-float rows. A 64-column slice of row-major `R` at `k = 256` has a
//!   1 KB stride, which maps it onto 16 of L1's 64 sets.
//!
//! Each layer takes one of two branches, chosen once from the im2col
//! matrix's non-zero count ([`PatchSource::dense`]). A nearly dense
//! layer (the first layer's raw image, density ≈ 0.96) runs a register
//! tile over the block's rows, read in place: 4 rows × 64 columns in
//! sixteen `zmm` accumulators on `Avx512`, 2 × 64 in the portable code. A
//! sparse layer gathers each row's non-zero taps in ascending column
//! order, then broadcasts each tap across `k`:
//! `acc[..] += x · R[col, ..]`, 128 columns at a time, from the two
//! panels' rows of its column. The broadcast walks `NC` columns at a
//! time so the 32 KB of panel rows it reads stay in L1; the patch norms
//! are accumulated in the same pass over the taps.
//!
//! # Exact and fused chains
//!
//! Every output element is one serial chain over ascending patch
//! columns, starting from `+0.0` — the chain [`matmul_dense_into`] and
//! [`crate::tensor::matmul_into`] evaluate — minus, on the broadcast,
//! the terms whose patch entry is `±0.0`. With `R` finite those terms
//! are `±0.0`, and adding `±0.0` to an accumulator that started at
//! `+0.0` never changes a bit (exact cancellation rounds to `+0.0`, and
//! `+0.0 + ±0.0 = +0.0`). Subnormal and non-finite entries are not zero:
//! they are kept as taps.
//!
//! The portable kernels, which every variant but `Avx512` runs, round
//! each term's multiply, then its add, so their result equals im2col +
//! [`matmul_dense_into`] bitwise. On `Avx512` the tiles fuse each term
//! into one `_mm512_fmadd_ps`: one rounding instead of two, so a value
//! may differ from the exact one in its last bits. It is still one
//! serial chain over at most `n` terms, so it lies within
//! `γ_n·Σ|x_i·r_i|` of the true dot product, as the exact value does.
//! [`ProjectScratch::exact_element`] recomputes any output with the
//! exact chain, from the row the last block read.
//!
//! The norm is exact in every form. `patch.iter().map(|v| v * v).sum()`
//! folds from `-0.0` on current toolchains, but its first `+ v²` (always
//! `≥ +0.0` or NaN) already lands on `+0.0` or above, so starting from
//! `+0.0` and adding the squares in order (only the non-zero ones, or
//! all of them) reproduces it for any non-empty patch. An all-zero patch
//! therefore gets norm `+0.0`, never the `-0.0` an empty `sum` would
//! give.
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

use std::borrow::Cow;

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

/// Patch columns per tile of the tap broadcast: the `NC × KT` floats
/// (32 KB) of panel rows it reads stay in L1 while every row of the
/// block reads them.
const NC: usize = 64;

/// A layer at or above this share of non-zero im2col entries (in
/// 1/1024ths) takes the dense register-tiled kernel instead of the tap
/// broadcast. The broadcast reads `R` once per tap where the dense tile
/// shares each `R` load across four rows, so it only wins on clearly
/// sparse layers (measured crossover on VGG11: 600–760 perform alike,
/// 870 is slower).
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
///
/// Re-measured once the dense tile read its rows in place (no gather)
/// and `R` from panels, with the choice made per layer:
///
/// | variant | change | run | pairs | new faster in | median ms/image | old's IQR |
/// |---|---|---|---|---|---|---|
/// | `avx512` | 680 → 340 | 10 s | 6 | 6 | 0.545 → 0.522 (−4.1%) | 0.049 |
/// | `scalar` | 680 → 340 | 10 s | 4 | 0 | 1.252 → 1.364 (+9.0%) | 0.034 |
///
/// The `avx512` gain stays inside the band (the fix-up of a dense layer
/// walks every column, zeros included, so its certify time grows), and
/// the portable kernels lose 9%: 680 stays.
const DENSE_PER_1024: usize = 680;

/// Floats per 64-byte cache line.
const LINE: usize = 16;

/// The first index of `v` that starts a 64-byte line (at most `LINE`).
fn line_start(v: &[f32]) -> usize {
    v.as_ptr().align_offset(64).min(LINE)
}

/// `v` less its last `LINE` floats, starting on a cache line: the 512-bit
/// tiles load and store the partial sums in whole lines, never split
/// across two (the zeroed buffer is allocated with `LINE` floats of slack
/// and left untouched until used).
fn lines(v: &mut [f32]) -> &mut [f32] {
    let (off, len) = (line_start(v), v.len() - LINE);
    &mut v[off..off + len]
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
        let len = k.div_ceil(64) * n * 64;
        let mut buf = vec![0.0; len + LINE];
        let at = line_start(&buf);
        let dst = &mut buf[at..at + len];
        for (row, src) in proj.chunks_exact(k.max(1)).enumerate() {
            for (p, cols) in src.chunks(64).enumerate() {
                dst[(p * n + row) * 64..][..cols.len()].copy_from_slice(cols);
            }
        }
        ProjPanels { n, k, buf }
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
    /// counted once per patch it lies in.
    pub fn nonzero(&self) -> usize {
        self.nonzero
    }

    /// Whether the projection takes the dense tile: at least
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
pub(crate) struct DenseBlock<'b> {
    pub(crate) data: &'b [f32],
    pub(crate) off: &'b [usize],
    pub(crate) bases: &'b [usize],
}

impl<'b> DenseBlock<'b> {
    /// Row `r`'s window: from its base through its last column. Every
    /// row's window is as long as the others', so one bounds check on an
    /// offset covers a tile's rows.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &'b [f32] {
        let span = self.off.last().map_or(0, |&o| o + 1);
        &self.data[self.bases[r]..][..span]
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
    /// The noise level, `0.0` without noise. A plain field, not read
    /// through `cert.noise`: the amplitude multiply is speculated either
    /// way, and the uninitialised level of a `None` can be a subnormal
    /// whose microcode assist costs about 100 cycles a row.
    pub(crate) level: f32,
    pub(crate) factors: &'e mut [(f32, f32)],
}

impl Epilogue<'_> {
    /// Row `r`'s norm is known: fixes its bound factor and its noise
    /// amplitude `fl(level·‖x‖)`.
    #[inline]
    pub(crate) fn set_norm(&mut self, r: usize, norm: f32) {
        if let Epilogue::Signs(st) = self {
            st.factors[r] = ((st.cert.row_scale)(st.n, norm), st.level * norm);
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

impl RowTile {
    /// Columns of 64-wide half `h` the tile finishes.
    pub(crate) fn half_width(&self, h: usize) -> usize {
        64.min(self.width - 64 * h)
    }
}

/// Reusable per-worker buffers of the projection, sized for blocks of up
/// to `max_rows` rows of one source and allocated once, for the branch
/// that source takes: a dense layer needs only the row bases and the
/// bound factors, a broadcast layer the tap lists, cursors and partial
/// sums too.
#[derive(Debug, Clone)]
pub struct ProjectScratch {
    max_rows: usize,
    n: usize,
    dense: bool,
    /// Rows of the last block.
    rows: usize,
    /// Where each row of the last block starts in the source's data.
    bases: Vec<usize>,
    /// Per-row bound factor and noise amplitude of a [`Signs`] block.
    factors: Vec<(f32, f32)>,
    /// Row `r`'s non-zero taps, ascending column, at `r·n..r·n + lens[r]`.
    tap_col: Vec<u32>,
    tap_x: Vec<f32>,
    lens: Vec<usize>,
    /// Per-row read position in the tap lists across column tiles.
    cursor: Vec<usize>,
    /// Per-row `KT`-wide partial sums between column tiles (`n > NC`).
    partial: Vec<f32>,
}

impl ProjectScratch {
    /// Buffers for blocks of up to `max_rows` rows of `src`.
    pub fn new(max_rows: usize, src: &PatchSource<'_>) -> Self {
        let (n, dense) = (src.width(), src.dense());
        let taps = if dense { 0 } else { max_rows * n };
        let per_row = if dense { 0 } else { max_rows };
        ProjectScratch {
            max_rows,
            n,
            dense,
            rows: 0,
            bases: vec![0; max_rows],
            factors: vec![(0.0, 0.0); max_rows],
            tap_col: vec![0; taps],
            tap_x: vec![0.0; taps],
            lens: vec![0; per_row],
            cursor: vec![0; per_row],
            partial: vec![0.0; if dense { 0 } else { max_rows * KT + LINE }],
        }
    }

    /// Output `j` of row `r` of the block last projected from `src`
    /// through `panels`, recomputed with the exact serial
    /// multiply-then-add chain over the row's columns: the bits of im2col
    /// + [`matmul_dense_into`], whichever branch projected the block.
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
        assert!(
            r < self.rows && j < panels.k(),
            "element outside the last block"
        );
        assert_eq!(panels.n(), src.width(), "projection must have n rows");
        let column = &panels.panel(j / 64)[j % 64..];
        let mut acc = 0.0f32;
        if self.dense {
            // Zero terms included: the chain of `matmul_dense_into`.
            let row = &src.data[self.bases[r]..];
            for (&o, &v) in src.off.iter().zip(column.iter().step_by(64)) {
                acc += row[o] * v;
            }
        } else {
            let (lo, hi) = (r * self.n, r * self.n + self.lens[r]);
            for (&col, &x) in self.tap_col[lo..hi].iter().zip(&self.tap_x[lo..hi]) {
                acc += x * column[col as usize * 64];
            }
        }
        acc
    }

    /// Whether this scratch's source takes the dense tile.
    pub fn dense(&self) -> bool {
        self.dense
    }

    /// Multiply-adds the last block ran per output column: `rows · n` on
    /// the dense tile, the block's non-zero taps on the broadcast.
    pub fn taps(&self) -> usize {
        if self.dense {
            self.rows * self.n
        } else {
            self.lens[..self.rows].iter().sum()
        }
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
/// the scratch was built for another source's width or branch, or a
/// buffer length disagrees with `rows`, `n` or `k`.
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
/// [`project_patches_approx_into`] stores (plus the noise `signs`
/// describes), and the norms are the same.
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
    if let Some((_, z)) = signs.noise {
        assert_eq!(z.len(), rows * k, "one draw per output");
    }
    let target = Target::Signs(signs);
    project_block(src, row_start, rows, panels, scratch, target, norms);
}

/// The one body of both projection entries.
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
    assert_eq!(scratch.n, n, "scratch width must match the patch width");
    assert_eq!(
        scratch.dense,
        src.dense(),
        "scratch sized for the other branch"
    );
    assert!(rows <= scratch.max_rows, "block exceeds scratch capacity");
    assert!(
        row_start + rows <= src.len(),
        "block exceeds the source rows"
    );
    let norms = &mut norms[..rows];
    let s = scratch;
    s.rows = rows;
    src.bases_into(row_start, &mut s.bases[..rows]);
    let mut ep = match target {
        Target::Floats(out) => Epilogue::Store { out, k },
        Target::Signs(cert) => Epilogue::Signs(SignTile {
            level: cert.noise.map_or(0.0, |(level, _)| level),
            cert,
            n,
            rows,
            factors: &mut s.factors[..rows],
        }),
    };
    let wide = crate::simd::avx512();
    let block = DenseBlock {
        data: &src.data,
        off: &src.off,
        bases: &s.bases[..rows],
    };
    if s.dense {
        dense_norms(&block, norms);
        for (r, &norm) in norms.iter().enumerate() {
            ep.set_norm(r, norm);
        }
        dense_gemm(wide, &block, panels, &mut ep);
        return;
    }
    gather_taps(&block, &mut s.tap_col, &mut s.tap_x, &mut s.lens[..rows]);
    let taps = (&s.tap_col[..], &s.tap_x[..]);
    let bufs = (&mut s.cursor[..], lines(&mut s.partial));
    broadcast_taps(wide, taps, &s.lens[..rows], panels, bufs, &mut ep, norms);
}

/// Gathers each row's non-zero taps of a block, ascending column, into
/// `r·n..r·n + lens[r]`.
fn gather_taps(block: &DenseBlock<'_>, tap_col: &mut [u32], tap_x: &mut [f32], lens: &mut [usize]) {
    let n = block.off.len();
    for (r, len_out) in lens.iter_mut().enumerate() {
        let (row, cols) = (block.row(r), &mut tap_col[r * n..(r + 1) * n]);
        let xs = &mut tap_x[r * n..(r + 1) * n];
        let mut len = 0;
        // Write every tap, advance past non-zero ones only: branch-free
        // compaction.
        for (col, &o) in block.off.iter().enumerate() {
            let x = row[o];
            cols[len] = col as u32;
            xs[len] = x;
            len += usize::from(x != 0.0);
        }
        *len_out = len;
    }
}

/// Row norms of a dense block, up to 16 rows at a time: rows whose bases
/// step by one (neighbouring outputs of a stride-1 conv) read one
/// contiguous slice per column, so their squares vectorize with the
/// accumulators in registers; each row still sums its columns ascending
/// from `+0.0`.
fn dense_norms(block: &DenseBlock<'_>, norms: &mut [f32]) {
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
fn norm_run<const W: usize>(block: &DenseBlock<'_>, base: usize, norms: &mut [f32]) -> usize {
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

/// The dense branch: the fused AVX-512 tiles when `wide`, else
/// [`dense_portable`] (the exact bits), each tile ending in `ep`.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn dense_gemm(
    wide: Option<Avx512Token>,
    block: &DenseBlock<'_>,
    panels: &ProjPanels,
    ep: &mut Epilogue<'_>,
) {
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        return crate::simd::x86::dense_avx512(token, block, panels, ep);
    }
    dense_portable(block, panels, ep);
}

/// The portable dense branch: [`matmul_dense_into`]'s chain (ascending
/// over `n` from `+0.0`, multiply then add) in 2-row × 64-column tiles (a
/// 1-row tile for an odd last row), each finished from its accumulators:
/// one word per row, in sixteen 256-bit registers.
fn dense_portable(block: &DenseBlock<'_>, panels: &ProjPanels, ep: &mut Epilogue<'_>) {
    let (rows, k) = (block.bases.len(), panels.k());
    let pairs = rows / 2 * 2;
    for jt in (0..k).step_by(64) {
        let panel = panels.panel(jt / 64);
        let w = 64.min(k - jt);
        for r0 in (0..pairs).step_by(2) {
            dense_tile_portable::<2>(block, r0, panel, jt, w, ep);
        }
        if pairs < rows {
            dense_tile_portable::<1>(block, pairs, panel, jt, w, ep);
        }
    }
}

/// Rows `r0..r0 + R` × the 64 columns of `panel` (output columns
/// `jt..jt + w` of them kept) of the portable dense branch: each column
/// of `n` reads one contiguous panel row, so the accumulators stay in
/// registers.
#[inline]
fn dense_tile_portable<const R: usize>(
    block: &DenseBlock<'_>,
    r0: usize,
    panel: &[f32],
    jt: usize,
    w: usize,
    ep: &mut Epilogue<'_>,
) {
    let mut rows = [&block.data[..0]; R];
    for (i, row) in rows.iter_mut().enumerate() {
        *row = block.row(r0 + i);
    }
    let mut acc = [[0.0f32; 64]; R];
    for (&o, b_row) in block.off.iter().zip(panel.chunks_exact(64)) {
        let bv: &[f32; 64] = b_row.try_into().expect("64 columns");
        for (row, acc_i) in rows.iter().zip(acc.iter_mut()) {
            let x = row[o];
            for (s, &bl) in acc_i.iter_mut().zip(bv) {
                *s += x * bl;
            }
        }
    }
    for (i, &acc_i) in acc.iter().enumerate() {
        ep.finish(r0 + i, jt, acc_i, w);
    }
}

/// The tap broadcast over a block: for each `KT`-wide output tile (the
/// two panels that hold it, or one for a last tile of at most 64
/// columns) and each `NC`-column tile of `n`, every row adds
/// `x · R[col, tile]` for its taps in that column range into register
/// accumulators, reading the panels' rows in place. Column tiles run in
/// ascending order, the partial sums between them kept per row in
/// `partial`, so each output keeps one ascending chain; the last column
/// tile finishes the row's tile into `ep`. The norms ride along on the
/// first output tile, and each is final (and handed to `ep`) when that
/// tile's walk ends.
fn broadcast_taps(
    wide: Option<Avx512Token>,
    (tap_col, tap_x): (&[u32], &[f32]),
    lens: &[usize],
    panels: &ProjPanels,
    (cursor, partial): (&mut [usize], &mut [f32]),
    ep: &mut Epilogue<'_>,
    norms: &mut [f32],
) {
    let (n, k) = (panels.n(), panels.k());
    norms.fill(0.0);
    for kt in (0..k).step_by(KT) {
        let width = KT.min(k - kt);
        for (r, cur) in cursor[..lens.len()].iter_mut().enumerate() {
            *cur = r * n;
        }
        for c0 in (0..n).step_by(NC) {
            let c1 = (c0 + NC).min(n);
            let half = |p: usize| &panels.panel(p)[c0 * 64..c1 * 64];
            let lo = half(kt / 64);
            let hi = if width > 64 { half(kt / 64 + 1) } else { lo };
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
                let mut running = 0.0;
                let norm = if kt == 0 { &mut norms[r] } else { &mut running };
                cursor[r] = match (kt == 0, width > 64) {
                    (true, true) => row_tile::<true, 2>(wide, taps, t, [lo, hi], part, norm, ep),
                    (true, false) => row_tile::<true, 1>(wide, taps, t, [lo], part, norm, ep),
                    (false, true) => row_tile::<false, 2>(wide, taps, t, [lo, hi], part, norm, ep),
                    (false, false) => row_tile::<false, 1>(wide, taps, t, [lo], part, norm, ep),
                };
            }
        }
    }
}

/// One row tile `t` over `H` panel halves on the fused AVX-512 kernel
/// when `wide`, else [`row_tile_portable`] (the exact bits). Returns
/// where the next column tile resumes.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
#[inline]
fn row_tile<const NORM: bool, const H: usize>(
    wide: Option<Avx512Token>,
    taps: (&[u32], &[f32]),
    t: RowTile,
    halves: [&[f32]; H],
    partial: &mut [f32; KT],
    norm: &mut f32,
    ep: &mut Epilogue<'_>,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if let Some(token) = wide {
        return crate::simd::x86::row_tile_avx512::<NORM, H>(
            token, taps, t, halves, partial, norm, ep,
        );
    }
    row_tile_portable::<NORM, H>(taps, t, halves, partial, norm, ep)
}

/// The portable row tile: the path of every non-`Avx512` variant. Its
/// `64·H` accumulators start from `partial` (or `+0.0` on the first
/// column tile), take the tile's taps, each from its column's row of the
/// `H` panel halves (and, with `NORM`, their squares into `norm`), and
/// go back to `partial`, or, on the last column tile, to `ep` from the
/// stack.
#[inline]
fn row_tile_portable<const NORM: bool, const H: usize>(
    (tap_col, tap_x): (&[u32], &[f32]),
    t: RowTile,
    halves: [&[f32]; H],
    partial: &mut [f32; KT],
    norm: &mut f32,
    ep: &mut Epilogue<'_>,
) -> usize {
    let mut acc = [[0.0f32; 64]; H];
    if t.c0 > 0 {
        for (a, p) in acc.iter_mut().zip(partial.chunks_exact(64)) {
            a.copy_from_slice(p);
        }
    }
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
        let at = (col - t.c0) * 64;
        for (a, half) in acc.iter_mut().zip(halves) {
            let rv: &[f32; 64] = half[at..at + 64].try_into().expect("64-wide row");
            for (s, &v) in a.iter_mut().zip(rv) {
                *s += x * v;
            }
        }
    }
    if NORM {
        *norm = if t.last { nrm.sqrt() } else { nrm };
        if t.last {
            ep.set_norm(t.r, *norm);
        }
    }
    for (h, a) in acc.into_iter().enumerate() {
        if t.last {
            ep.finish(t.r, t.kt + 64 * h, a, t.half_width(h));
        } else {
            partial[64 * h..64 * h + 64].copy_from_slice(&a);
        }
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
    fn padded_conv_sources_match_im2col_on_both_branches() {
        // Every kernel width the models use, strides 1–3 and padding 0–3
        // on a non-square two-image input, projected in 61-row blocks
        // that cross image boundaries; a dense and a sparse input take
        // both branches. k = 96 ends in a half panel.
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
