//! Per-layer phase replay of the engine's serial datapath through the
//! public `tensor` and `hash` functions: im2col, projection GEMM, norm
//! and sign-pack, Hamming, cosine-LUT reconstruction, and the digital
//! peripherals. Each dot layer uses its `CompiledTile`'s `n`, `k`, seed
//! and packed weights; the float `Cnn.blocks` give the geometry and the
//! peripheral parameters. Every layer consumes the replay's own output,
//! so the replay carries the served datapath's real activations and its
//! final logits must equal `infer`'s bit for bit.

use std::time::Instant;

use deepcam_core::{CompiledModel, CompiledTile};
use deepcam_hash::bitvec::pack_signs_into;
use deepcam_hash::geometric::{GeometricDot, NormMode};
use deepcam_hash::{Minifloat8, ProjectionMatrix};
use deepcam_models::{Block, Cnn};
use deepcam_tensor::ops::conv::im2col_sharded;
use deepcam_tensor::ops::norm::BN_EPS;
use deepcam_tensor::ops::pool::{avg_pool2d, max_pool2d};
use deepcam_tensor::{matmul_dense_into, Shape, Tensor};

use crate::setup::Res;

/// Patch rows per projection sub-block (the engine's blocking).
const SUB_ROWS: usize = 64;

/// Accumulated phase times and work counts of one dot layer.
#[derive(Debug, Clone, Default)]
pub struct LayerPhases {
    /// Patch-matrix staging: im2col (conv) or the row copy (linear), s.
    pub im2col: f64,
    /// Projection GEMM, s.
    pub proj: f64,
    /// Patch norm, norm quantization and sign-pack, s.
    pub pack: f64,
    /// Hamming distance against the packed weight tile, s.
    pub hamming: f64,
    /// Cosine-LUT reconstruction `‖a‖·‖w‖·cos`, s.
    pub lut: f64,
    /// Patch rows hashed.
    pub rows: usize,
    /// Pre-hash vector length.
    pub n: usize,
    /// Hash width.
    pub k: usize,
    /// Kernels (CAM rows searched per query).
    pub m: usize,
    /// 64-bit words per packed hash.
    pub words: usize,
    /// Non-zero patch-matrix entries.
    pub nonzero: usize,
}

impl LayerPhases {
    /// Projection multiply-adds ×2, per second, in GFLOP/s.
    pub fn proj_gflops(&self) -> f64 {
        2.0 * (self.rows * self.n * self.k) as f64 / self.proj.max(1e-12) / 1e9
    }

    /// Share of non-zero patch-matrix entries.
    pub fn input_density(&self) -> f64 {
        self.nonzero as f64 / (self.rows * self.n).max(1) as f64
    }

    /// Packed weight bytes the Hamming phase reads (computed from the
    /// tile geometry, not measured).
    pub fn hamming_bytes(&self) -> f64 {
        (self.rows * self.m * self.words * 8) as f64
    }

    /// Sum of this layer's phases, s.
    pub fn total(&self) -> f64 {
        self.im2col + self.proj + self.pack + self.hamming + self.lut
    }
}

/// One replay pass: per-layer phases plus the peripheral steps.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Dot layers in traversal order.
    pub layers: Vec<LayerPhases>,
    /// Bias/BN/ReLU/permute, pooling and flatten, s.
    pub peripheral: f64,
    /// The replay's logits.
    pub logits: Vec<f32>,
}

impl Replay {
    /// Sum of every replayed phase, s.
    pub fn total(&self) -> f64 {
        self.layers.iter().map(LayerPhases::total).sum::<f64>() + self.peripheral
    }
}

/// The per-layer state the engine derives from a tile at load time
/// (derived here once, outside the timed phases).
pub struct Derived {
    proj: Tensor,
    w_norms: Vec<f32>,
    lut: Vec<f32>,
    norm: NormMode,
}

/// Derives every dot layer's projection, quantized norms and LUT.
pub fn derive(compiled: &CompiledModel) -> Vec<Derived> {
    let cfg = &compiled.config;
    compiled
        .tiles()
        .into_iter()
        .map(|t| Derived {
            proj: ProjectionMatrix::generate(t.n, t.k, t.seed).to_tensor(),
            w_norms: t
                .norms
                .iter()
                .map(|&w| match cfg.norm {
                    NormMode::Minifloat8 => Minifloat8::from_f32(w).to_f32(),
                    NormMode::Fp32 => w,
                })
                .collect(),
            lut: (0..=t.k)
                .map(|hd| cfg.cosine.eval(GeometricDot::angle_from_hamming(hd, t.k)))
                .collect(),
            norm: cfg.norm,
        })
        .collect()
}

/// Secs elapsed since `t`, and restarts `t`.
fn lap(t: &mut Instant) -> f64 {
    let now = Instant::now();
    let s = (now - *t).as_secs_f64();
    *t = now;
    s
}

/// Batch-norm parameters `(gamma, beta, mean, var)`.
type Bn = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

/// The trailing BN and ReLU blocks the fusion pass folds into the dot
/// layer at `i`: `(BN, relu, index of the next block)`.
fn fused_tail(blocks: &[Block], i: usize, conv: bool) -> (Option<Bn>, bool, usize) {
    let mut j = i + 1;
    let mut bn = None;
    if conv {
        if let Some(Block::Bn(b)) = blocks.get(j) {
            bn = Some((
                b.gamma.value.data().to_vec(),
                b.beta.value.data().to_vec(),
                b.running_mean.clone(),
                b.running_var.clone(),
            ));
            j += 1;
        }
    }
    let relu = matches!(blocks.get(j), Some(Block::Relu(_)));
    (bn, relu, j + usize::from(relu))
}

/// Replays one serial inference of `batch` through `cnn`'s blocks and
/// `compiled`'s tiles.
pub fn replay(
    cnn: &Cnn,
    compiled: &CompiledModel,
    derived: &[Derived],
    batch: &Tensor,
) -> Res<Replay> {
    let tiles = compiled.tiles();
    let blocks = &cnn.blocks;
    let mut out = Replay::default();
    let mut x = batch.clone();
    let mut i = 0usize;
    while i < blocks.len() {
        let mut t = Instant::now();
        match &blocks[i] {
            Block::Conv(conv) => {
                let dot = out.layers.len();
                let (nb, _, h, w) = x.shape().as_nchw().ok_or("conv input must be NCHW")?;
                let (oh, ow) = conv.cfg.output_hw(h, w);
                let patches = im2col_sharded(&x, &conv.cfg, 1)?;
                let mut ph = LayerPhases {
                    im2col: lap(&mut t),
                    ..LayerPhases::default()
                };
                let (bn, relu, next) = fused_tail(blocks, i, true);
                let out2d = dot_phases(patches.data(), tiles[dot], &derived[dot], &mut ph);
                let mut t = Instant::now();
                let bias = conv.bias.value.data();
                let inv: Option<Vec<f32>> = bn
                    .as_ref()
                    .map(|p| p.3.iter().map(|&v| 1.0 / (v + BN_EPS).sqrt()).collect());
                let (p, m) = (oh * ow, ph.m);
                let mut y = vec![0.0f32; nb * m * p];
                for ni in 0..nb {
                    for pi in 0..p {
                        let row = (ni * p + pi) * m;
                        for (mi, &b) in bias.iter().enumerate() {
                            let mut v = out2d[row + mi] + b;
                            if let (Some(bn), Some(inv)) = (&bn, &inv) {
                                v = bn.0[mi] * (v - bn.2[mi]) * inv[mi] + bn.1[mi];
                            }
                            if relu {
                                v = v.max(0.0);
                            }
                            y[(ni * m + mi) * p + pi] = v;
                        }
                    }
                }
                x = Tensor::from_vec(y, Shape::new(&[nb, m, oh, ow]))?;
                out.peripheral += lap(&mut t);
                out.layers.push(ph);
                i = next;
            }
            Block::Linear(lin) => {
                let dot = out.layers.len();
                let nb = x.shape().dim(0);
                let rows = x.data().to_vec();
                let mut ph = LayerPhases {
                    im2col: lap(&mut t),
                    ..LayerPhases::default()
                };
                let (_, relu, next) = fused_tail(blocks, i, false);
                let mut y = dot_phases(&rows, tiles[dot], &derived[dot], &mut ph);
                let mut t = Instant::now();
                let m = ph.m;
                for ni in 0..nb {
                    for (mi, &b) in lin.bias.value.data().iter().enumerate() {
                        let v = &mut y[ni * m + mi];
                        *v += b;
                        if relu {
                            *v = v.max(0.0);
                        }
                    }
                }
                x = Tensor::from_vec(y, Shape::new(&[nb, m]))?;
                out.peripheral += lap(&mut t);
                out.layers.push(ph);
                i = next;
            }
            Block::Bn(_) | Block::Relu(_) => {
                return Err("standalone BN/ReLU blocks are not replayed".into())
            }
            Block::MaxPool(p) => {
                x = max_pool2d(&x, &p.cfg)?.0;
                out.peripheral += lap(&mut t);
                i += 1;
            }
            Block::AvgPool(p) => {
                x = avg_pool2d(&x, &p.cfg)?;
                out.peripheral += lap(&mut t);
                i += 1;
            }
            Block::Flatten(_) => {
                let n = x.shape().dim(0);
                let rest = x.len() / n.max(1);
                x = x.reshape(Shape::new(&[n, rest]))?;
                out.peripheral += lap(&mut t);
                i += 1;
            }
            Block::Residual(_) => return Err("residual blocks are not replayed".into()),
        }
    }
    out.logits = x.into_vec();
    Ok(out)
}

/// The dot-product phases of one layer over `rows` (`[R, n]` row-major),
/// timed per 64-row sub-block: projection, norm + sign-pack, Hamming,
/// LUT. Returns the `[R, M]` reconstruction.
fn dot_phases(rows: &[f32], tile: &CompiledTile, d: &Derived, ph: &mut LayerPhases) -> Vec<f32> {
    let (n, k, m) = (tile.n, tile.k, tile.kernels());
    let wpr = tile.packed.words_per_row();
    let r = rows.len() / n;
    *ph = LayerPhases {
        rows: r,
        n,
        k,
        m,
        words: wpr,
        ..ph.clone()
    };
    let mut out = vec![0.0f32; r * m];
    let block = SUB_ROWS.min(r.max(1));
    let mut projected = vec![0.0f32; block * k];
    let mut queries = vec![0u64; block * wpr];
    let mut a_norms = vec![0.0f32; block];
    let mut dists = vec![0u32; block * m];
    let mut sub = 0usize;
    while sub < r {
        let sr = SUB_ROWS.min(r - sub);
        let mut t = Instant::now();
        matmul_dense_into(
            &rows[sub * n..(sub + sr) * n],
            sr,
            n,
            d.proj.data(),
            k,
            &mut projected[..sr * k],
        );
        ph.proj += lap(&mut t);
        for l in 0..sr {
            let patch = &rows[(sub + l) * n..(sub + l + 1) * n];
            let norm = patch.iter().map(|&v| v * v).sum::<f32>().sqrt();
            pack_signs_into(
                &projected[l * k..(l + 1) * k],
                &mut queries[l * wpr..(l + 1) * wpr],
            );
            a_norms[l] = match d.norm {
                NormMode::Minifloat8 => Minifloat8::quantize(norm),
                NormMode::Fp32 => norm,
            };
        }
        ph.pack += lap(&mut t);
        for l in 0..sr {
            tile.packed.hamming_into(
                &queries[l * wpr..(l + 1) * wpr],
                &mut dists[l * m..(l + 1) * m],
            );
        }
        ph.hamming += lap(&mut t);
        for l in 0..sr {
            let o = &mut out[(sub + l) * m..(sub + l + 1) * m];
            for ((o, &hd), &w) in o.iter_mut().zip(&dists[l * m..(l + 1) * m]).zip(&d.w_norms) {
                *o = a_norms[l] * w * d.lut[hd as usize];
            }
        }
        ph.lut += lap(&mut t);
        sub += sr;
    }
    ph.nonzero = rows.iter().filter(|v| **v != 0.0).count();
    out
}
