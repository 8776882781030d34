//! The **frozen pre-optimization dot-product datapath**.
//!
//! This module preserves, verbatim, the hot path as it existed before
//! the packed-tile/LUT rewrite: a scalar ikj projection GEMM over a
//! copied chunk, a per-bit `BitVec` sign build with one bounds-checked
//! `set()` per bit, and a per-(patch, kernel) loop that re-evaluates the
//! angle and cosine transcendental for every pair through heap-allocated
//! per-row hashes — written into an `[N·P, M]` buffer that a second pass
//! permutes into `[N, M, P]`, adding bias.
//!
//! It exists for two reasons:
//!
//! 1. **Differential oracle.** The optimized engine must produce
//!    bit-identical logits to this path for every model, cosine mode
//!    and norm mode (`tests/hotpath_reference.rs`). Any
//!    semantic drift in the fast kernels fails loudly against code that
//!    provably computed the paper's equations.
//! 2. **Benchmark baseline.** The `perf` bench bin times
//!    [`DeepCamEngine::infer_reference`](crate::DeepCamEngine::infer_reference)
//!    against the fast path to report the rewrite's true before/after on
//!    the same binary and host.
//!
//! Nothing here is reachable from production inference; do not "fix" or
//! optimize this code — its value is that it never changes.

use deepcam_hash::context::ContextSet;
use deepcam_hash::geometric::{GeometricDot, NormMode};
use deepcam_hash::{BitVec, Minifloat8};
use deepcam_tensor::pool::ThreadPool;
use deepcam_tensor::Tensor;

use crate::engine::EngineConfig;
use crate::ir::CompiledTile;

/// The historical scalar ikj GEMM (`Tensor::matmul` before k-blocking),
/// kept so the baseline's projection cost is measured as it was.
fn naive_matmul(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The historical per-bit sign builder (`BitVec::from_signs` before
/// word-wise packing).
fn bitwise_from_signs(values: &[f32]) -> BitVec {
    let mut v = BitVec::zeros(values.len());
    for (i, &x) in values.iter().enumerate() {
        if x >= 0.0 {
            v.set(i, true);
        }
    }
    v
}

/// One dot step over the materialised patch rows `row_data` (`[N·P, n]`):
/// the pre-rewrite `[N·P, M]` rows, sharded across `workers` as the
/// engine sharded them, then the historical permute into `[N, M, P]`
/// with `+ bias`. Returns the `[N, M, P]` buffer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dot_layer(
    row_data: &[f32],
    tile: &CompiledTile,
    proj: &Tensor,
    weights: &ContextSet,
    engine_cfg: &EngineConfig,
    bias: &[f32],
    p: usize,
    workers: usize,
) -> Vec<f32> {
    let r = row_data.len() / tile.n.max(1);
    let m = tile.kernels();
    let mut out2d = vec![0.0f32; r * m];
    let workers = workers.clamp(1, r.max(1));
    let range = |row_start: usize, chunk: &mut [f32]| {
        dot_rows_range(
            row_data, tile.n, proj, weights, tile.k, engine_cfg, row_start, chunk,
        )
    };
    if workers <= 1 {
        range(0, &mut out2d);
    } else {
        let chunk_rows = r.div_ceil(workers);
        ThreadPool::global().run_chunks_mut(&mut out2d, chunk_rows * m, |ci, chunk| {
            range(ci * chunk_rows, chunk);
        });
    }
    // Permute [N*P, M] -> [N, M, P], adding bias in the same pass.
    let n_batch = r / p.max(1);
    let mut out = vec![0.0f32; n_batch * m * p];
    for ni in 0..n_batch {
        for pi in 0..p {
            let row = (ni * p + pi) * m;
            for (mi, &b) in bias.iter().enumerate() {
                out[(ni * m + mi) * p + pi] = out2d[row + mi] + b;
            }
        }
    }
    out
}

/// Hashes patch rows `row_start..row_start + out.len() / M` and fills
/// their output slice — the pre-rewrite body of the engine's
/// `dot_rows_range`, character-for-character up to the two helpers
/// above.
#[allow(clippy::too_many_arguments)]
fn dot_rows_range(
    row_data: &[f32],
    n: usize,
    proj: &deepcam_tensor::Tensor,
    weights: &ContextSet,
    k: usize,
    engine_cfg: &EngineConfig,
    row_start: usize,
    out: &mut [f32],
) {
    let m = weights.len();
    let rows_here = out.len() / m;
    let cosine = engine_cfg.cosine;
    let norm_mode = engine_cfg.norm;
    // Batched projection of this chunk: [rows_here, n] x [n, k]. Each
    // projected element is a fixed-order dot over n, so chunk boundaries
    // never change its value.
    let chunk = row_data[row_start * n..(row_start + rows_here) * n].to_vec();
    let projected = naive_matmul(&chunk, rows_here, n, proj.data(), k);
    for local in 0..rows_here {
        let patch = &row_data[(row_start + local) * n..(row_start + local + 1) * n];
        let norm = patch.iter().map(|&v| v * v).sum::<f32>().sqrt();
        let bits = bitwise_from_signs(&projected[local * k..(local + 1) * k]);
        let a_norm = match norm_mode {
            NormMode::Minifloat8 => Minifloat8::from_f32(norm).to_f32(),
            NormMode::Fp32 => norm,
        };
        for (mi, wctx) in weights.iter().enumerate() {
            let hd = bits
                .hamming(&wctx.bits)
                .expect("weight and activation hashes share k");
            let theta = GeometricDot::angle_from_hamming(hd, k);
            let w_norm = match norm_mode {
                NormMode::Minifloat8 => wctx.quantized_norm(),
                NormMode::Fp32 => wctx.norm,
            };
            out[local * m + mi] = a_norm * w_norm * cosine.eval(theta);
        }
    }
}
