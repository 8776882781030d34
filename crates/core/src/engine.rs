//! The functional DeepCAM inference engine — the runtime stage of the
//! compilation pipeline (see [`crate::ir`]).
//!
//! [`DeepCamEngine::compile`] lowers a trained [`Cnn`] through the shared
//! pipeline (`Cnn → LayerIr → PlanBinding → CompiledModel`) and builds
//! the runtime view on top; [`DeepCamEngine::from_compiled`] builds the
//! same runtime from a deserialized artifact, so a model compiled once
//! and [`CompiledModel::save`]d can be served without recompiling — with
//! **bit-identical** logits. [`DeepCamEngine::infer`] then runs real
//! inference:
//!
//! 1. hash every im2col patch of the layer input with the layer's
//!    projection (the on-chip crossbar, an ideal device) — both
//!    read in place: the patches from the layer's zero-padded input,
//!    skipping on sparse layers the columns a group of rows has all
//!    zero, without materialising the im2col matrix, and the projection
//!    from 64-column panels drawn once per layer,
//! 2. Hamming-compare a 64-patch block of hashes against all stored
//!    kernel contexts in one tile — functionally what the CAM array does
//!    in parallel, one search per patch,
//! 3. reconstruct each output as `‖a‖·‖w‖·cos(π·HD/k)` with eq. 5 cosine
//!    and minifloat norms, add the bias, and write it straight into its
//!    `[N, M, OH, OW]` slot — no staging buffer, no permute pass,
//! 4. run batch-norm/ReLU/pool exactly, in place, as standalone steps
//!    (digital post-processing).
//!
//! The result is the "DC" accuracy of the paper's Fig. 5, directly
//! comparable to the float model's "BL" accuracy.
//!
//! The artifact stores only seeds, packed hashes and raw norms; the
//! projection panels, cosine LUTs and mode-quantized norms the inner
//! loops read are *derived* here, deterministically, in
//! `RuntimeTile`-building — the same derivation whether the artifact
//! came from an in-memory compile or from disk.

use deepcam_hash::context::{Context, ContextSet};
use deepcam_hash::geometric::{CosineMode, GeometricDot, NormMode};
use deepcam_hash::{Minifloat8, ProjectionMatrix};
use deepcam_models::Cnn;
use deepcam_tensor::ops::conv::{im2col_sharded, Conv2dConfig};
use deepcam_tensor::ops::norm::{batch_norm2d_infer, channel_stats};
use deepcam_tensor::ops::pool::{avg_pool2d, max_pool2d};
use deepcam_tensor::ops::project::PatchSource;
use deepcam_tensor::pool::{split_ranges, Parallelism, ThreadPool};
use deepcam_tensor::{Shape, Tensor};

use crate::certify::{Projection, SignHasher};
use crate::error::CoreError;
use crate::hashplan::HashPlan;
use crate::ir::{CompiledModel, CompiledStep, CompiledTile};
use crate::record::{now, DotRecord, Probe, Recording, Timed};
use crate::Result;

/// Functional engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Hash length per dot layer.
    pub plan: HashPlan,
    /// Base seed for the per-layer projection matrices.
    pub seed: u64,
    /// Cosine evaluation (eq. 5 by default).
    pub cosine: CosineMode,
    /// Norm quantization (8-bit minifloat by default).
    pub norm: NormMode,
    /// The most pool tasks a split of the batch (or of a layer's patch
    /// rows) may use. Each split takes one task per `MIN_TASK_MACS`
    /// multiply-adds of projection, up to this bound, so small jobs run
    /// on the calling thread whatever the setting.
    ///
    /// Any setting produces **bit-identical** outputs — parallelism only
    /// changes wall clock (see `tests/parallel_equivalence.rs`). The
    /// [`Parallelism::Auto`] default honors the `DEEPCAM_WORKERS`
    /// environment variable.
    pub parallelism: Parallelism,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            plan: HashPlan::uniform_max(),
            seed: 0xDEE9CA4,
            cosine: CosineMode::default(),
            norm: NormMode::default(),
            parallelism: Parallelism::Auto,
        }
    }
}

impl serde::bin::BinCodec for EngineConfig {
    fn encode(&self, w: &mut serde::bin::Writer) {
        self.plan.encode(w);
        w.put_u64(self.seed);
        self.cosine.encode(w);
        self.norm.encode(w);
        // The device-noise slot of the format: every engine models an
        // ideal device, so it is always 0.0.
        w.put_f32(0.0);
        self.parallelism.encode(w);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        let plan = serde::bin::BinCodec::decode(r)?;
        let seed = r.get_u64()?;
        let cosine = serde::bin::BinCodec::decode(r)?;
        let norm = serde::bin::BinCodec::decode(r)?;
        // An artifact compiled for a noisy device fails closed rather
        // than being served as an ideal one (`!=` also refuses NaN).
        let noise = r.get_f32()?;
        if noise != 0.0 {
            return Err(serde::bin::BinError::Invalid(format!(
                "crossbar noise {noise}: only an ideal device (0.0) is supported"
            )));
        }
        Ok(EngineConfig {
            plan,
            seed,
            cosine,
            norm,
            parallelism: serde::bin::BinCodec::decode(r)?,
        })
    }
}

/// Per-dot-layer state *derived* from a [`CompiledTile`] + config at
/// engine-build time: everything the artifact deliberately does not
/// store because it is a deterministic function of what it does store.
pub(crate) struct RuntimeTile {
    /// Layer projection `R` (`[n, k]`, the on-chip crossbar weights),
    /// drawn from the tile's seed straight into the 64-column panels the
    /// projection tiles read in place, with the upward-rounded bounds on
    /// its column norms, the `c_j` of the sign certificate (see
    /// [`crate::certify`]). Compile hashed the kernels through the same
    /// draw.
    projection: Projection,
    /// `R` row-major, for the frozen [`reference`](`crate::reference`)
    /// datapath alone: regenerated on its first use, so the fast path
    /// never holds a second copy.
    proj: std::sync::OnceLock<Tensor>,
    /// Per-kernel contexts rebuilt from the packed tile + raw norms —
    /// read only by the frozen [`reference`](`crate::reference`)
    /// datapath and tests, so they are derived lazily on first use (the
    /// fast path reads the packed tile directly and never pays the
    /// per-bit reconstruction).
    weights: std::sync::OnceLock<ContextSet>,
    /// Per-kernel norms with the engine's `NormMode` already applied.
    pub(crate) w_norms: Vec<f32>,
    /// `cos_lut[hd] = cosine.eval((π/k)·hd)` for `hd ∈ 0..=k`: the only
    /// k+1 values the angle/cosine pipeline can ever produce at this
    /// layer width. Layers sharing a hash width share one allocation
    /// (the LUT is a pure function of `(k, CosineMode)`, and the cosine
    /// mode is fixed per engine) — less memory and better cache locality
    /// when consecutive layers run at the same width.
    pub(crate) cos_lut: std::sync::Arc<Vec<f32>>,
}

impl RuntimeTile {
    /// The single derivation both construction paths share — in-memory
    /// compile and artifact load build *identical* runtime state, which
    /// is what makes save→load→infer bit-exact. `luts` caches cosine
    /// LUTs by hash width across the tiles of one engine build.
    fn derive(
        tile: &CompiledTile,
        cfg: &EngineConfig,
        luts: &mut std::collections::HashMap<usize, std::sync::Arc<Vec<f32>>>,
    ) -> Self {
        // Identical to `Context::quantized_norm` on the lazily rebuilt
        // contexts below: `Minifloat8::quantize` is bit for bit the
        // `from_f32` round trip they store.
        let w_norms = tile
            .norms
            .iter()
            .map(|&norm| cfg.norm.apply(norm))
            .collect();
        let cos_lut = luts
            .entry(tile.k)
            .or_insert_with(|| {
                std::sync::Arc::new(
                    (0..=tile.k)
                        .map(|hd| {
                            cfg.cosine
                                .eval(GeometricDot::angle_from_hamming(hd, tile.k))
                        })
                        .collect(),
                )
            })
            .clone();
        RuntimeTile {
            projection: Projection::generate(tile.n, tile.k, tile.seed),
            proj: std::sync::OnceLock::new(),
            weights: std::sync::OnceLock::new(),
            w_norms,
            cos_lut,
        }
    }

    /// The layer's row-major projection, regenerated on first request
    /// (thread-safe, as [`RuntimeTile::weights`]).
    fn proj(&self, tile: &CompiledTile) -> &Tensor {
        self.proj
            .get_or_init(|| ProjectionMatrix::generate(tile.n, tile.k, tile.seed).to_tensor())
    }

    /// The layer's kernel contexts, rebuilt from the packed tile on
    /// first request (thread-safe; the reference datapath runs sharded).
    fn weights(&self, tile: &CompiledTile) -> &ContextSet {
        self.weights.get_or_init(|| {
            let contexts: Vec<Context> = (0..tile.packed.rows())
                .map(|row| {
                    let norm = tile.norms[row];
                    Context {
                        norm,
                        norm_q: Minifloat8::from_f32(norm),
                        bits: tile.packed.row_bitvec(row),
                    }
                })
                .collect();
            ContextSet {
                contexts,
                hash_len: tile.k,
                source_dim: tile.n,
            }
        })
    }
}

/// Which dot-product datapath a pipeline walk uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Datapath {
    /// The packed-tile + cosine-LUT kernels (production).
    Fast,
    /// The frozen pre-optimization scalar path — differential oracle and
    /// bench baseline (see [`DeepCamEngine::infer_reference`]).
    Reference,
}

/// What every step of one pipeline walk shares.
struct Walk<'a> {
    cfg: &'a EngineConfig,
    /// One derived tile per dot layer, indexed by traversal index.
    tiles: &'a [RuntimeTile],
    /// The most tasks a dot step splits its patch rows into.
    dot_workers: usize,
    datapath: Datapath,
}

/// A compiled model plus its derived runtime state, ready to serve.
pub struct DeepCamEngine {
    compiled: CompiledModel,
    /// One derived tile per dot layer, indexed by traversal index.
    tiles: Vec<RuntimeTile>,
    /// Projection multiply-adds of one image: `Σ p·n·k` over the IR's
    /// dot layers at their bound `k` (sizes [`DeepCamEngine::image_tasks`]).
    macs_per_image: usize,
}

impl DeepCamEngine {
    /// Compiles a trained model under a configuration — shorthand for
    /// [`CompiledModel::compile`] + [`DeepCamEngine::from_compiled`].
    ///
    /// Dot layers are numbered in traversal order (residual bodies before
    /// their shortcuts), matching
    /// [`deepcam_models::Cnn::dot_layer_count`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] (naming the offending layer)
    /// when the plan does not cover the model, or hashing errors when a
    /// layer's geometry is invalid.
    pub fn compile(model: &Cnn, cfg: EngineConfig) -> Result<Self> {
        Self::from_compiled(CompiledModel::compile(model, cfg)?)
    }

    /// Builds the runtime for a compiled artifact (fresh from
    /// [`CompiledModel::compile`] or reloaded via
    /// [`CompiledModel::load`]). Logits are bit-identical either way —
    /// `tests/compiled_model_roundtrip.rs` enforces it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Artifact`] when the artifact is structurally
    /// inconsistent.
    pub fn from_compiled(compiled: CompiledModel) -> Result<Self> {
        compiled.validate()?;
        let mut luts = std::collections::HashMap::new();
        let tiles = compiled
            .tiles()
            .into_iter()
            .map(|t| RuntimeTile::derive(t, &compiled.config, &mut luts))
            .collect();
        // Saturating: a decoded `p` is not bounded by the tiles, and a
        // hostile one may only change the task count, never panic.
        let macs_per_image = compiled.ir.dots.iter().fold(0usize, |sum, d| {
            let k = compiled.binding.k_for(d.index);
            sum.saturating_add(d.shape.p.saturating_mul(d.shape.n * k))
        });
        Ok(DeepCamEngine {
            compiled,
            tiles,
            macs_per_image,
        })
    }

    /// Loads an artifact from disk and builds its runtime — the serving
    /// path for models compiled in a previous process.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CompiledModel::load`] and
    /// [`DeepCamEngine::from_compiled`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::from_compiled(CompiledModel::load(path)?)
    }

    /// The underlying compiled artifact (serialize it with
    /// [`CompiledModel::save`]).
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Number of dot-product layers compiled to CAM form.
    pub fn dot_layers(&self) -> usize {
        self.compiled.dot_layers()
    }

    /// Name of the source model.
    pub fn model_name(&self) -> &str {
        self.compiled.model_name()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.compiled.config
    }

    /// Runs inference on an NCHW batch, returning the model's output
    /// with the batch as its first axis (logits `[N, classes]` for a
    /// classifier).
    ///
    /// The batch is split into contiguous image chunks, one per
    /// `MIN_TASK_MACS` multiply-adds of projection, at most one per worker
    /// of the configured [`Parallelism`] (see
    /// [`DeepCamEngine::image_tasks`]), and the logits are reassembled in
    /// input order. A batch too small to split runs on the calling
    /// thread, where each dot layer splits its patch rows by the same
    /// rule; a single worker runs everything on the calling thread.
    ///
    /// **Bit-exactness guarantee:** the logits are the same for every
    /// worker count and every batch composition: image `i`'s logits equal
    /// those of image `i` run alone, so the serving runtime's
    /// micro-batches never change a served result.
    /// `tests/parallel_equivalence.rs` and `tests/serve_differential.rs`
    /// enforce this.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (batch/model mismatch).
    pub fn infer(&self, batch: &Tensor) -> Result<Tensor> {
        self.infer_batch_with(batch, self.compiled.config.parallelism)
    }

    /// Runs inference through the **frozen pre-optimization datapath**
    /// (`crate::reference`): per-pair angle/cosine evaluation over
    /// heap-allocated hashes, exactly as the engine computed before the
    /// packed-tile rewrite.
    ///
    /// Logits are guaranteed bit-identical to [`DeepCamEngine::infer`]
    /// — `tests/hotpath_reference.rs` enforces it across models and
    /// modes. This exists as a differential oracle and as the
    /// baseline side of the `perf` benchmark; never use it for
    /// production inference.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeepCamEngine::infer`].
    pub fn infer_reference(&self, batch: &Tensor) -> Result<Tensor> {
        self.run_walk(
            batch.clone(),
            self.compiled.config.parallelism.resolve(),
            Datapath::Reference,
        )
    }

    /// [`DeepCamEngine::infer`] (or, for [`Datapath::Reference`],
    /// [`DeepCamEngine::infer_reference`]) that also times the pass: the
    /// wall time of every top-level step and, per dot layer, its phases
    /// and counters (see [`crate::record`]). The logits are bit-identical
    /// to the unrecorded call's.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeepCamEngine::infer`].
    pub fn infer_recorded(
        &self,
        batch: &Tensor,
        datapath: Datapath,
    ) -> Result<(Tensor, Recording)> {
        let walk = self.walk(self.compiled.config.parallelism.resolve(), datapath);
        let mut rec = Recording {
            datapath,
            steps: Vec::new(),
            dots: Vec::new(),
        };
        let mut cur = batch.clone();
        for step in &self.compiled.steps {
            let start = now();
            cur = run_step(step, cur, &walk, Some(&mut rec))?;
            rec.steps.push(now() - start);
        }
        Ok((cur, rec))
    }

    /// Runs inference on the calling thread, with `dot_workers` workers
    /// inside each layer. The steps rewrite `batch` in place where they
    /// can, so it is taken by value.
    fn run_walk(&self, batch: Tensor, dot_workers: usize, datapath: Datapath) -> Result<Tensor> {
        let walk = self.walk(dot_workers, datapath);
        let mut cur = batch;
        for step in &self.compiled.steps {
            cur = run_step(step, cur, &walk, None)?;
        }
        Ok(cur)
    }

    fn walk(&self, dot_workers: usize, datapath: Datapath) -> Walk<'_> {
        Walk {
            cfg: &self.compiled.config,
            tiles: &self.tiles,
            dot_workers,
            datapath,
        }
    }

    /// The one batch fan-out/reassembly primitive: [`DeepCamEngine::infer`]
    /// and [`DeepCamEngine::evaluate_with`] run their images through it.
    ///
    /// Each range of `ranges` is copied out as a standalone image chunk,
    /// run through the full pipeline and reduced by `finish`; results
    /// come back in range order (a deterministic reduction regardless of
    /// which worker finishes first). The ranges go to
    /// [`DeepCamEngine::image_tasks`] pool tasks in contiguous groups; one
    /// group runs on the calling thread, so small jobs and
    /// `Parallelism::Serial` callers never touch the pool. Inside each
    /// chunk every dot layer splits its patch rows by the same rule, up
    /// to the workers the groups leave idle (either nesting is bit-exact
    /// — parallelism never changes values), and no range at all yields
    /// no result.
    fn fan_out<R: Send>(
        &self,
        images: &Tensor,
        ranges: &[std::ops::Range<usize>],
        parallelism: Parallelism,
        finish: impl Fn(&std::ops::Range<usize>, Tensor) -> R + Sync,
    ) -> Vec<Result<R>> {
        let groups = split_ranges(ranges.len(), self.image_tasks(images, parallelism));
        // Only the workers the groups leave idle split a chunk's rows:
        // more tasks than workers at once just take turns on the CPUs.
        let dot_workers = (parallelism.resolve() / groups.len().max(1)).max(1);
        let run_one = |r: &std::ops::Range<usize>| -> Result<R> {
            let chunk = self.image_chunk(images, r.start, r.end)?;
            let logits = self.run_walk(chunk, dot_workers, Datapath::Fast)?;
            Ok(finish(r, logits))
        };
        if groups.len() <= 1 {
            return ranges.iter().map(run_one).collect();
        }
        ThreadPool::global()
            .run_indexed(groups.len(), |gi| {
                ranges[groups[gi].clone()]
                    .iter()
                    .map(run_one)
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }

    /// How many image tasks [`DeepCamEngine::infer_batch_with`] and
    /// [`DeepCamEngine::evaluate_with`] split `batch` into under
    /// `parallelism`: one per `MIN_TASK_MACS` multiply-adds of the batch's
    /// projection, at least one and at most the workers or the images.
    /// The projection is images × `Σ p·n·k` over the compiled IR's dot
    /// layers at their bound `k`, summed once when the engine is built
    /// (every `p` is static: models lower from their declared input).
    /// 1 means the batch runs on the calling thread.
    pub fn image_tasks(&self, batch: &Tensor, parallelism: Parallelism) -> usize {
        let images = batch.shape().dim(0);
        let macs = images.saturating_mul(self.macs_per_image);
        tasks(macs, parallelism.resolve()).min(images.max(1))
    }

    /// Concatenates per-chunk outputs along the batch axis into one
    /// `[n, ...]` tensor that keeps the per-image dims (the reassembly
    /// half of [`DeepCamEngine::fan_out`]).
    fn concat_outputs(n: usize, chunks: Vec<Result<Tensor>>) -> Result<Tensor> {
        let mut data: Vec<f32> = Vec::new();
        let mut dims = vec![n];
        for chunk in chunks {
            let chunk = chunk?;
            dims.truncate(1);
            dims.extend_from_slice(&chunk.shape().dims()[1..]);
            data.extend_from_slice(chunk.data());
        }
        Ok(Tensor::from_vec(data, Shape::new(&dims))?)
    }

    /// Alias of [`DeepCamEngine::infer`], which the repo benchmark
    /// (`perfbench/`) calls by this name.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeepCamEngine::infer`].
    pub fn infer_batch(&self, batch: &Tensor) -> Result<Tensor> {
        self.infer(batch)
    }

    /// [`DeepCamEngine::infer`] with an explicit parallelism override
    /// (the compiled engine is reusable across worker counts): the batch
    /// splits into [`DeepCamEngine::image_tasks`] contiguous chunks, and
    /// `parallelism` bounds the tasks of every split.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (batch/model mismatch).
    pub fn infer_batch_with(&self, batch: &Tensor, parallelism: Parallelism) -> Result<Tensor> {
        let n = batch.shape().dim(0);
        let ranges = split_ranges(n, self.image_tasks(batch, parallelism));
        if ranges.len() <= 1 {
            return self.run_walk(batch.clone(), parallelism.resolve(), Datapath::Fast);
        }
        let chunks = self.fan_out(batch, &ranges, parallelism, |_, logits| logits);
        Self::concat_outputs(n, chunks)
    }

    /// Recalibrates every batch-norm stage's running statistics under the
    /// *approximate* datapath, using `images` as the calibration set.
    ///
    /// The float model's BN statistics describe float activations; after
    /// dot-products are replaced by hash-based approximations, the
    /// activation distribution shifts (the eq. 5 cosine has a positive
    /// bias and the Hamming estimator adds variance), and the mismatch
    /// compounds across deep networks. Recomputing BN statistics under
    /// the deployed arithmetic is the standard compute-in-memory
    /// calibration step and substantially recovers deep-model accuracy.
    ///
    /// Calibration mutates the compiled artifact's BN steps, so an
    /// engine calibrated here and then [`CompiledModel::save`]d serves
    /// the calibrated statistics after reload.
    ///
    /// # Errors
    ///
    /// Propagates inference errors.
    pub fn calibrate_bn(&mut self, images: &Tensor) -> Result<()> {
        let mut steps = std::mem::take(&mut self.compiled.steps);
        let walk = self.walk(self.compiled.config.parallelism.resolve(), Datapath::Fast);
        let result = calibrate_steps(&mut steps, images.clone(), &walk);
        self.compiled.steps = steps;
        result.map(|_| ())
    }

    /// Validates an evaluation request and returns the image count.
    fn check_eval_inputs(
        &self,
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
    ) -> Result<usize> {
        let n = images.shape().dim(0);
        if n != labels.len() {
            return Err(CoreError::InvalidInput(format!(
                "evaluate: {} images but {} labels",
                n,
                labels.len()
            )));
        }
        if batch_size == 0 {
            return Err(CoreError::InvalidInput(
                "evaluate: batch_size must be > 0".to_string(),
            ));
        }
        Ok(n)
    }

    /// Copies images `start..end` into a standalone NCHW batch.
    fn image_chunk(&self, images: &Tensor, start: usize, end: usize) -> Result<Tensor> {
        let sample: usize = images.shape().dims()[1..].iter().product();
        let mut dims = vec![end - start];
        dims.extend_from_slice(&images.shape().dims()[1..]);
        Ok(Tensor::from_vec(
            images.data()[start * sample..end * sample].to_vec(),
            Shape::new(&dims),
        )?)
    }

    /// Counts top-1 hits of `logits` against `labels` (first index wins
    /// ties, matching `Tensor::argmax`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidInput`] unless `logits` is `[rows, classes]`
    /// with one row per label and at least one class.
    fn count_correct(logits: &Tensor, labels: &[usize]) -> Result<usize> {
        let classes = match logits.shape().dims() {
            &[rows, classes] if rows == labels.len() && classes > 0 => classes,
            _ => {
                return Err(CoreError::InvalidInput(format!(
                    "evaluate: output {} is not [rows, classes] for {} labels",
                    logits.shape(),
                    labels.len()
                )))
            }
        };
        Ok(labels
            .iter()
            .enumerate()
            .filter(|&(row, &label)| {
                let slice = &logits.data()[row * classes..(row + 1) * classes];
                // Single-pass fold carrying (index, value): no re-slicing
                // per comparison, and strict `>` keeps the first maximum
                // on ties.
                let (best, _) = slice.iter().enumerate().skip(1).fold(
                    (0usize, slice[0]),
                    |(bi, bv), (j, &v)| if v > bv { (j, v) } else { (bi, bv) },
                );
                best == label
            })
            .count())
    }

    /// Top-1 accuracy over a labelled set, processed in mini-batches
    /// fanned out across the configured [`Parallelism`].
    ///
    /// When the image count is not a multiple of `batch_size`, the final
    /// mini-batch is simply smaller — every image is always evaluated,
    /// never silently dropped (`evaluate_never_truncates_remainder` in
    /// the test suite pins this down). An empty set scores 0.0.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] when the label count differs
    /// from the image count or `batch_size` is zero; propagates inference
    /// errors.
    pub fn evaluate(&self, images: &Tensor, labels: &[usize], batch_size: usize) -> Result<f32> {
        self.evaluate_with(images, labels, batch_size, self.compiled.config.parallelism)
    }

    /// [`DeepCamEngine::evaluate`] with an explicit parallelism override
    /// (the compiled engine is reusable across worker counts). Per-batch
    /// hit counts are reduced in batch order, and per-image logits are
    /// bit-identical for every worker count, so the accuracy is
    /// **exactly** the same for every setting.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeepCamEngine::evaluate`].
    pub fn evaluate_with(
        &self,
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
        parallelism: Parallelism,
    ) -> Result<f32> {
        let n = self.check_eval_inputs(images, labels, batch_size)?;
        // Mini-batch ranges through the shared fan-out, reduced straight
        // to per-batch hit counts (summed in batch order below).
        let ranges: Vec<std::ops::Range<usize>> = (0..n.div_ceil(batch_size))
            .map(|bi| bi * batch_size..(bi * batch_size + batch_size).min(n))
            .collect();
        let counts = self.fan_out(images, &ranges, parallelism, |r, logits| {
            Self::count_correct(&logits, &labels[r.start..r.end])
        });
        let mut correct = 0usize;
        for count in counts {
            correct += count??;
        }
        Ok(correct as f32 / n.max(1) as f32)
    }
}

/// Executes one pipeline step on `x`, consuming it: peripheral steps
/// rewrite the activations in place. Dot steps pair their stored
/// [`CompiledTile`] with the derived [`RuntimeTile`] at the same
/// traversal index, and append their [`DotRecord`] to `rec` when given.
fn run_step(
    step: &CompiledStep,
    mut x: Tensor,
    walk: &Walk<'_>,
    mut rec: Option<&mut Recording>,
) -> Result<Tensor> {
    match step {
        CompiledStep::Conv {
            cfg: conv_cfg,
            tile,
            bias,
        } => run_dot(Some(conv_cfg), tile, bias, &x, walk, rec),
        CompiledStep::Linear { tile, bias } => run_dot(None, tile, bias, &x, walk, rec),
        CompiledStep::Bn {
            gamma,
            beta,
            mean,
            var,
        } => {
            let (_, c, _, _) = x.shape().as_nchw().ok_or_else(|| {
                CoreError::Unsupported("batch norm input must be NCHW".to_string())
            })?;
            if gamma.len() != c {
                return Err(CoreError::InvalidInput(format!(
                    "batch norm over {} channels, input has {c}",
                    gamma.len()
                )));
            }
            batch_norm2d_infer(&mut x, gamma, beta, mean, var)?;
            Ok(x)
        }
        CompiledStep::Relu => {
            x.map_inplace(|v| v.max(0.0));
            Ok(x)
        }
        CompiledStep::MaxPool(p) => Ok(max_pool2d(&x, p)?.0),
        CompiledStep::AvgPool(p) => Ok(avg_pool2d(&x, p)?),
        CompiledStep::Flatten => {
            let n = x.shape().dim(0);
            let rest = x.len() / n.max(1);
            Ok(x.reshape(Shape::new(&[n, rest]))?)
        }
        CompiledStep::Residual { body, shortcut } => {
            let mut main = x.clone();
            for s in body {
                main = run_step(s, main, walk, rec.as_deref_mut())?;
            }
            for s in shortcut.iter().flatten() {
                x = run_step(s, x, walk, rec.as_deref_mut())?;
            }
            let mut out = main.add(&x)?;
            out.map_inplace(|v| v.max(0.0));
            Ok(out)
        }
    }
}

/// The dot-layer body behind the `Conv` and `Linear` step arms: CAM
/// dot-products, then `+ bias`, written straight into the
/// `[N, M, OH, OW]` (or, for linear steps, the `[N, M]`) output.
fn run_dot(
    conv: Option<&Conv2dConfig>,
    tile: &CompiledTile,
    bias: &[f32],
    x: &Tensor,
    walk: &Walk<'_>,
    rec: Option<&mut Recording>,
) -> Result<Tensor> {
    let start = rec.is_some().then(now);
    let m = tile.kernels();
    let rt = &walk.tiles[tile.layer_idx];
    // Each image contributes P = OH*OW patch rows (P = 1 for a linear
    // step).
    let (src, dims, p) = match conv {
        Some(conv_cfg) => {
            let src = PatchSource::conv(x, conv_cfg).map_err(|e| {
                CoreError::InvalidInput(format!("dot layer {}: {e}", tile.layer_idx))
            })?;
            // `PatchSource::conv` checked the NCHW rank and that the
            // kernel fits.
            let (n_batch, _, h, w) = x.shape().as_nchw().expect("checked NCHW");
            let (oh, ow) = conv_cfg.output_hw(h, w);
            (src, vec![n_batch, m, oh, ow], oh * ow)
        }
        None => {
            if x.shape().rank() != 2 {
                return Err(CoreError::InvalidInput(format!(
                    "dot layer {}: linear input must be [N, features], got {}",
                    tile.layer_idx,
                    x.shape()
                )));
            }
            let src = PatchSource::rows(x.data(), x.shape().dim(1));
            (src, vec![x.shape().dim(0), m], 1)
        }
    };
    check_width(tile, src.width())?;
    let mut dot = DotRecord {
        layer: tile.layer_idx,
        rows: src.len(),
        nonzero_macs: src.nonzero() * tile.k,
        ..DotRecord::default()
    };
    let out = match walk.datapath {
        Datapath::Fast => {
            let step = DotStep {
                src,
                ct: tile,
                rt,
                cfg: walk.cfg,
                bias,
                p,
            };
            dot_rows(&step, walk.dot_workers, rec.is_some().then_some(&mut dot))
        }
        Datapath::Reference => {
            // Only the frozen reference datapath still materialises the
            // [N*P, n] im2col matrix.
            let staged = conv
                .map(|c| im2col_sharded(x, c, walk.dot_workers))
                .transpose()?;
            crate::reference::dot_layer(
                staged.as_ref().map_or(x.data(), Tensor::data),
                tile,
                rt.proj(tile),
                rt.weights(tile),
                walk.cfg,
                bias,
                p,
                walk.dot_workers,
            )
        }
    };
    let out = Tensor::from_vec(out, Shape::new(&dims))?;
    if let (Some(rec), Some(start)) = (rec, start) {
        dot.wall = now() - start;
        rec.dots.push(dot);
    }
    Ok(out)
}

/// Rejects a patch row whose width is not the tile's `n` — a request
/// whose element count matches the model input but whose shape does not
/// reaches the dot layer with the wrong row width.
fn check_width(tile: &CompiledTile, width: usize) -> Result<()> {
    if width == tile.n {
        Ok(())
    } else {
        Err(CoreError::InvalidInput(format!(
            "dot layer {}: rows of {width} features, but the layer hashes {}",
            tile.layer_idx, tile.n
        )))
    }
}

/// Walks the pipeline forwarding `x`, replacing every batch-norm stage's
/// statistics with the batch statistics of its *approximate-datapath*
/// input.
fn calibrate_steps(steps: &mut [CompiledStep], x: Tensor, walk: &Walk<'_>) -> Result<Tensor> {
    let mut cur = x;
    for step in steps.iter_mut() {
        cur = match step {
            CompiledStep::Bn { mean, var, .. } => {
                let (new_mean, new_var) = channel_stats(&cur)?;
                *mean = new_mean;
                *var = new_var;
                run_step(step, cur, walk, None)?
            }
            CompiledStep::Residual { body, shortcut } => {
                let main = calibrate_steps(body, cur.clone(), walk)?;
                let skip = match shortcut {
                    Some(sc) => calibrate_steps(sc, cur, walk)?,
                    None => cur,
                };
                let mut out = main.add(&skip)?;
                out.map_inplace(|v| v.max(0.0));
                out
            }
            other => run_step(other, cur, walk, None)?,
        };
    }
    Ok(cur)
}

/// The projection multiply-adds one pool task must carry before a split
/// pays for its hand-off (2²⁵ ≈ 33.5 M, about 0.6 ms of projection).
///
/// A hand-off costs 12–23 µs of CPU on a 2-vCPU AVX-512 Xeon, and the
/// woken worker starts more than 20 µs late. A 2-way split of `Fixed(2)`
/// `infer_batch_with` against the serial pass on that host, with the
/// work per task as the column (medians of 30–80 interleaved rounds in
/// one process, three sweeps, logits identical; the ranges are the
/// sweeps' spread on a shared host):
///
/// | work per task | job | CPU overhead | wall gain |
/// |---|---|---|---|
/// | 4.5 M | 1 LeNet5 image (rows) | +15 to +31% | −6 to +20% |
/// | 9.0 M | 2 LeNet5 images | +24 to +34% | +12 to +20% |
/// | 11.8 M | 1 VGG11 image (rows) | +18 to +27% | +11 to +19% |
/// | 18 M | 4 LeNet5 images | +7 to +18% | +26 to +39% |
/// | 24–27 M | 2 VGG11, 6 LeNet5 images | +4 to +13% | +34 to +44% |
/// | 35–54 M | 3–4 VGG11, 8–12 LeNet5 images | +5 to +38% | +12 to +43% |
/// | 71–108 M | 6–8 VGG11, 16–24 LeNet5 images | −2 to +36% | +11 to +49% |
/// | 189 M | 16 VGG11 images | +4% | +45% |
///
/// Below about 16 M a split buys at most a fifth of the wall time for a
/// quarter or more extra CPU; from about 24 M it buys a third or more.
/// 32 M keeps a margin over that knee. On the repo benchmark's
/// `serve-lenet5-poisson` (micro-batches of 1.8 LeNet5 images on
/// average) 16, 32 and 64 M all read 11–18% less CPU per image than
/// splitting every batch, inside each other's spread over four seeds, so
/// the knee, not that workload, sets the value.
const MIN_TASK_MACS: usize = 32 << 20;

/// How many tasks `macs` multiply-adds split into: one per whole
/// [`MIN_TASK_MACS`], at least one and at most `workers`. The image
/// fan-out and the patch-row split of every dot layer both take this
/// rule, so a job too small to pay for the hand-off stays on the
/// calling thread.
fn tasks(macs: usize, workers: usize) -> usize {
    (macs / MIN_TASK_MACS).clamp(1, workers.max(1))
}

/// Patch rows per blocked sub-block: the projected activations stay
/// cache-resident between the projection that produces them and the
/// sign/Hamming stage that consumes them (64 rows × k floats ≈ 64 KB at
/// k = 256, vs streaming a whole layer's projection through memory).
const SUB_ROWS: usize = 64;

/// What every row range of one dot step shares.
struct DotStep<'a> {
    src: PatchSource<'a>,
    ct: &'a CompiledTile,
    rt: &'a RuntimeTile,
    cfg: &'a EngineConfig,
    bias: &'a [f32],
    /// Patch rows per image (`P = 1` for a linear step).
    p: usize,
}

/// The heart of the engine: approximate dot-products of every patch row
/// of `step.src` against every stored kernel context, via hashing and
/// Hamming distance, plus the bias, written straight into the
/// `[N, M, P]` output it returns.
///
/// The rows split into [`tasks`] contiguous ranges of at most `workers`,
/// sized by the layer's `rows·n·k` multiply-adds; more than one range
/// runs on the pool. Each range owns the
/// disjoint segments of every `(image, channel)` plane its rows cover,
/// split off the output with `split_at_mut`. Every output element is
/// computed by the identical pipeline regardless of sharding, so results
/// are bit-identical for every worker count — and to the frozen
/// reference datapath (`tests/hotpath_reference.rs`). With `rec`, each
/// range times its sub-blocks into a record of its own, summed into
/// `rec`; without, each runs the untimed loop.
fn dot_rows(step: &DotStep<'_>, workers: usize, rec: Option<&mut DotRecord>) -> Vec<f32> {
    let (r, m) = (step.src.len(), step.ct.kernels());
    let mut out = vec![0.0f32; r * m];
    let ranges = split_ranges(r, tasks(r * step.ct.n * step.ct.k, workers));
    let mut shares = plane_segments(&mut out, m, step.p, &ranges);
    let mut parts = vec![DotRecord::default(); if rec.is_some() { ranges.len() } else { 0 }];
    let run = |rows: &std::ops::Range<usize>, segs: &mut [&mut [f32]], part| match part {
        Some(rec) => dot_rows_range(step, rows, segs, &mut Timed { rec, last: now() }),
        None => dot_rows_range(step, rows, segs, &mut ()),
    };
    let mut parts_iter = parts.iter_mut();
    if ranges.len() <= 1 {
        // One range (none for an empty batch) runs on the calling thread.
        for (rows, segs) in ranges.iter().zip(&mut shares) {
            run(rows, segs, parts_iter.next());
        }
    } else {
        ThreadPool::global().scope(|s| {
            for (rows, segs) in ranges.iter().zip(&mut shares) {
                let (run, part) = (&run, parts_iter.next());
                s.spawn(move || run(rows, segs, part));
            }
        });
    }
    // The segments borrow `out`; release them before handing it back.
    drop(shares);
    if let Some(rec) = rec {
        rec.tasks = ranges.len();
        for part in &parts {
            rec.absorb(part);
        }
    }
    out
}

/// Splits the `[N, M, P]` output among the row `ranges` (contiguous and
/// ascending, covering `0..N·P`): range `i` gets, for every image its
/// rows touch and every channel, the run of that `(image, channel)`
/// plane its rows cover — disjoint `&mut` segments in (image, channel)
/// order.
fn plane_segments<'o>(
    out: &'o mut [f32],
    m: usize,
    p: usize,
    ranges: &[std::ops::Range<usize>],
) -> Vec<Vec<&'o mut [f32]>> {
    let mut shares: Vec<Vec<&mut [f32]>> = ranges.iter().map(|_| Vec::new()).collect();
    for (plane_idx, mut plane) in out.chunks_mut(p.max(1)).enumerate() {
        let lo = plane_idx / m * p;
        for (rows, share) in ranges.iter().zip(&mut shares) {
            let len = rows.end.min(lo + p).saturating_sub(rows.start.max(lo));
            if len > 0 {
                let (head, tail) = std::mem::take(&mut plane).split_at_mut(len);
                share.push(head);
                plane = tail;
            }
        }
    }
    shares
}

/// Hashes patch rows `rows` and writes their outputs into `segs`, this
/// range's share of the output from [`plane_segments`]. This single
/// function serves both the serial and every sharded configuration of
/// [`dot_rows`], and reports each sub-block's phases and counts to
/// `probe` (`()` when nothing records).
///
/// One blocked kernel per 64-row sub-block, allocation-free inside the
/// loop (the scratch is allocated once per chunk, with group lists only
/// on a sparse layer):
/// 1. project the sub-block with the one register tile in its fused
///    multiply-add form, which reads both operands in place (the patch
///    rows from the layer's zero-padded input through the source's
///    offset table, `R` from the tile's 64-column panels) and, on a
///    sparse layer, walks per group of rows only the columns some row of
///    the group is non-zero in; the exact patch norms come with it; each
///    finished tile packs its signs into word-major queries, certifying
///    each sign against an error bound;
/// 2. recompute the uncertain lanes exactly ([`SignHasher`]; the signs
///    are those of the exact chain) and quantize the norms;
/// 3. run one Hamming tile of those queries against all M packed kernel
///    rows ([`PackedHashes::hamming_tile_into`](deepcam_hash::PackedHashes::hamming_tile_into));
/// 4. per kernel, evaluate `a_norm * w_norm * cos_lut[hd]` — the
///    identical expression (and multiplication order) the per-pair path
///    evaluated, with the angle/cosine collapsed into the k+1-entry LUT
///    — then `+ bias`, contiguously over the sub-block's rows;
/// 5. store each channel plane's run straight into its output segment.
// analyze: alloc-free
fn dot_rows_range<P: Probe>(
    step: &DotStep<'_>,
    rows: &std::ops::Range<usize>,
    segs: &mut [&mut [f32]],
    probe: &mut P,
) {
    let &DotStep {
        ref src,
        ct,
        rt,
        cfg: engine_cfg,
        bias,
        p,
    } = step;
    let m = ct.kernels();
    let k = ct.k;
    let wpr = ct.packed.words_per_row();
    let norm_mode = engine_cfg.norm;
    let lut = &rt.cos_lut[..=k];
    let first_image = rows.start / p;
    let block = SUB_ROWS.min(rows.len().max(1));
    // Per-worker scratch, allocated once per chunk (not per patch).
    let mut hasher = SignHasher::new(block, src, k);
    let mut a_norms = vec![0.0f32; block];
    let mut queries = vec![0u64; wpr * block];
    let mut dists = vec![0u32; m * block];
    let mut cos = vec![0.0f32; block];
    let mut g0 = rows.start;
    while g0 < rows.end {
        let nq = SUB_ROWS.min(rows.end - g0);
        // Each hash bit is the exact chain's sign, and each chain runs
        // in a fixed order over n, so block boundaries never change it.
        let queries = &mut queries[..wpr * nq];
        let recomputed = hasher.hash(src, g0, nq, &rt.projection, queries, probe);
        for (a_norm, &norm) in a_norms.iter_mut().zip(&hasher.norms()[..nq]) {
            *a_norm = norm_mode.apply(norm);
        }
        probe.lap(|d| &mut d.certify);
        let dists = &mut dists[..m * nq];
        ct.packed.hamming_tile_into(queries, nq, dists);
        probe.lap(|d| &mut d.hamming);
        let g1 = g0 + nq;
        for (j, hd_row) in dists.chunks_exact(nq).enumerate() {
            // The LUT reads first (scalar gathers), so the arithmetic
            // below runs over contiguous lanes. `hd <= k` always; the
            // clamp only lets the bounds check fold away.
            for (c, &hd) in cos.iter_mut().zip(hd_row) {
                *c = lut[(hd as usize).min(k)];
            }
            let w_norm = rt.w_norms[j];
            let b = bias[j];
            // The sub-block's rows, split at image boundaries: each
            // image's run lands in one contiguous stretch of the plane.
            for ni in g0 / p..=(g1 - 1) / p {
                let (lo, hi) = (g0.max(ni * p), g1.min((ni + 1) * p));
                let seg_start = rows.start.max(ni * p);
                let dst = &mut segs[(ni - first_image) * m + j][lo - seg_start..hi - seg_start];
                let (cos, a_norms) = (&cos[lo - g0..hi - g0], &a_norms[lo - g0..hi - g0]);
                for ((o, &c), &a_norm) in dst.iter_mut().zip(cos).zip(a_norms) {
                    *o = a_norm * w_norm * c + b;
                }
            }
        }
        probe.lap(|d| &mut d.lut);
        probe.block(recomputed, hasher.terms() * k);
        g0 = g1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11};
    use deepcam_tensor::rng::seeded_rng;
    use deepcam_tensor::Layer;

    fn tiny_batch(n: usize) -> Tensor {
        let mut rng = seeded_rng(5);
        deepcam_tensor::init::normal(&mut rng, Shape::new(&[n, 1, 28, 28]), 0.0, 1.0)
    }

    /// The smallest LeNet5 batch whose image fan-out takes `workers`
    /// tasks, so a sweep up to `workers` compares real splits.
    fn split_batch(engine: &DeepCamEngine, workers: usize) -> Tensor {
        let x = tiny_batch((workers * MIN_TASK_MACS).div_ceil(engine.macs_per_image));
        assert_eq!(engine.image_tasks(&x, Parallelism::Fixed(workers)), workers);
        x
    }

    #[test]
    fn tasks_split_only_whole_task_loads() {
        assert_eq!(tasks(0, 4), 1, "no work still runs once");
        for w in [2usize, 3, 4] {
            assert_eq!(
                tasks(w * MIN_TASK_MACS - 1, w),
                w - 1,
                "just below {w} loads"
            );
            assert_eq!(tasks(w * MIN_TASK_MACS, w), w, "{w} whole loads");
        }
        assert_eq!(tasks(MIN_TASK_MACS - 1, 8), 1);
        assert_eq!(tasks(100 * MIN_TASK_MACS, 3), 3, "capped at the workers");
        assert_eq!(tasks(100 * MIN_TASK_MACS, 0), 1, "0 workers behave like 1");
    }

    #[test]
    fn image_tasks_follow_the_ir_macs() {
        // The IR's static `Σ p·n·k` is what one image's pass hashes, and
        // `image_tasks` sizes every batch from it.
        let mut rng = seeded_rng(24);
        for model in [
            scaled_lenet5(&mut rng, 10),
            scaled_vgg11(&mut rng, 4, 10),
            scaled_resnet18(&mut rng, 4, 10),
        ] {
            let engine = DeepCamEngine::compile(
                &model,
                EngineConfig {
                    plan: HashPlan::Uniform(512),
                    parallelism: Parallelism::Serial,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let ir = &engine.compiled.ir;
            let ir_macs: usize = ir.dots.iter().map(|d| d.shape.p * d.shape.n * 512).sum();
            assert_eq!(engine.macs_per_image, ir_macs, "{}", model.name);
            let (c, h, w) = model.input.unwrap();
            let one = Tensor::zeros(Shape::new(&[1, c, h, w]));
            let (_, rec) = engine.infer_recorded(&one, Datapath::Fast).unwrap();
            let hashed: usize = rec
                .dots
                .iter()
                .map(|d| d.rows * ir.dots[d.layer].shape.n * 512)
                .sum();
            assert_eq!(hashed, ir_macs, "{}", model.name);
            for images in [1usize, 3, 16, 64] {
                let x = Tensor::zeros(Shape::new(&[images, c, h, w]));
                for workers in [1usize, 2, 4] {
                    assert_eq!(
                        engine.image_tasks(&x, Parallelism::Fixed(workers)),
                        tasks(images * ir_macs, workers).min(images),
                        "{} x{images} / {workers}",
                        model.name
                    );
                }
            }
        }
    }

    #[test]
    fn a_feature_map_output_concatenates_along_the_batch() {
        // A conv-final model's output is `[N, M, OH, OW]`, not
        // `[N, classes]`: every worker count must reassemble it whole.
        use deepcam_models::Block;
        use deepcam_tensor::layer::{Conv2d, ReLU};
        let mut rng = seeded_rng(25);
        let model = Cnn::new(
            "conv-final",
            vec![
                Block::Conv(Conv2d::new(
                    &mut rng,
                    Conv2dConfig::new(1, 16, 3).with_padding(1),
                )),
                Block::Relu(ReLU::new()),
            ],
            16,
        )
        .with_input(1, 32, 32);
        let engine = DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(1024),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let x = deepcam_tensor::init::normal(&mut rng, Shape::new(&[16, 1, 32, 32]), 0.0, 1.0);
        assert_eq!(engine.image_tasks(&x, Parallelism::Fixed(2)), 2);
        let serial = engine.infer_batch_with(&x, Parallelism::Serial).unwrap();
        let split = engine.infer_batch_with(&x, Parallelism::Fixed(2)).unwrap();
        assert_eq!(serial.shape(), &Shape::new(&[16, 16, 32, 32]));
        assert_eq!(split.shape(), serial.shape());
        assert_eq!(split.data(), serial.data());
    }

    #[test]
    fn evaluate_refuses_a_feature_map_output() {
        // The conv 1→16 + ReLU model answers `[N, 16, 32, 32]`, which has
        // no per-image class row to score.
        use deepcam_models::Block;
        use deepcam_tensor::layer::{Conv2d, ReLU};
        let mut rng = seeded_rng(25);
        let model = Cnn::new(
            "conv-final",
            vec![
                Block::Conv(Conv2d::new(
                    &mut rng,
                    Conv2dConfig::new(1, 16, 3).with_padding(1),
                )),
                Block::Relu(ReLU::new()),
            ],
            16,
        )
        .with_input(1, 32, 32);
        let engine = DeepCamEngine::compile(&model, EngineConfig::default()).unwrap();
        let x = deepcam_tensor::init::normal(&mut rng, Shape::new(&[4, 1, 32, 32]), 0.0, 1.0);
        for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
            match engine.evaluate_with(&x, &[0, 1, 2, 3], 2, parallelism) {
                Err(CoreError::InvalidInput(msg)) => {
                    assert!(msg.contains("[2, 16, 32, 32]"), "{msg}")
                }
                other => panic!("expected InvalidInput, got {other:?}"),
            }
        }
    }

    #[test]
    fn compile_counts_layers() {
        let mut rng = seeded_rng(0);
        let model = scaled_lenet5(&mut rng, 10);
        let engine = DeepCamEngine::compile(&model, EngineConfig::default()).unwrap();
        assert_eq!(engine.dot_layers(), 5);
        assert_eq!(engine.model_name(), "LeNet5");
    }

    #[test]
    fn infer_shapes() {
        let mut rng = seeded_rng(1);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let logits = engine.infer(&tiny_batch(3)).unwrap();
        assert_eq!(logits.shape(), &Shape::new(&[3, 10]));
        assert!(logits.all_finite());
    }

    #[test]
    fn tracks_float_model_outputs() {
        // At k=1024 with exact cosine + fp32 norms, the engine's logits
        // should correlate strongly with the float model's.
        let mut rng = seeded_rng(2);
        let mut model = scaled_lenet5(&mut rng, 10);
        let x = tiny_batch(4);
        let float_logits = model.forward(&x, false).unwrap();
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(1024),
            cosine: CosineMode::Exact,
            norm: NormMode::Fp32,
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let dc_logits = engine.infer(&x).unwrap();
        // Pearson correlation across all logits.
        let a = float_logits.data();
        let b = dc_logits.data();
        let ma = a.iter().sum::<f32>() / a.len() as f32;
        let mb = b.iter().sum::<f32>() / b.len() as f32;
        let mut cov = 0.0;
        let mut va = 0.0;
        let mut vb = 0.0;
        for i in 0..a.len() {
            cov += (a[i] - ma) * (b[i] - mb);
            va += (a[i] - ma).powi(2);
            vb += (b[i] - mb).powi(2);
        }
        let corr = cov / (va.sqrt() * vb.sqrt()).max(1e-9);
        assert!(corr > 0.5, "correlation {corr}");
    }

    #[test]
    fn plan_must_cover_model() {
        let mut rng = seeded_rng(3);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(vec![256; 3]),
            ..EngineConfig::default()
        };
        assert!(matches!(
            DeepCamEngine::compile(&model, cfg),
            Err(CoreError::InvalidPlan(_))
        ));
    }

    #[test]
    fn plan_errors_name_the_model_and_layer() {
        let mut rng = seeded_rng(30);
        let model = scaled_lenet5(&mut rng, 10);
        // Wrong layer count: the message names the model.
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(vec![256; 3]),
            ..EngineConfig::default()
        };
        match DeepCamEngine::compile(&model, cfg).map(|_| ()) {
            Err(CoreError::InvalidPlan(msg)) => {
                assert!(msg.contains("LeNet5"), "{msg}");
                assert!(msg.contains("5 dot layers"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
        // Unsupported length: the message names the offending layer.
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(vec![256, 256, 300, 256, 256]),
            ..EngineConfig::default()
        };
        match DeepCamEngine::compile(&model, cfg).map(|_| ()) {
            Err(CoreError::InvalidPlan(msg)) => {
                assert!(msg.contains("dot layer 2"), "{msg}");
                assert!(msg.contains("'fc1'"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn residual_model_compiles_and_runs() {
        let mut rng = seeded_rng(4);
        let model = scaled_resnet18(&mut rng, 4, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        assert_eq!(engine.dot_layers(), 21);
        let mut rng2 = seeded_rng(6);
        let x = deepcam_tensor::init::normal(&mut rng2, Shape::new(&[2, 3, 32, 32]), 0.0, 1.0);
        let logits = engine.infer(&x).unwrap();
        assert_eq!(logits.shape(), &Shape::new(&[2, 10]));
        assert!(logits.all_finite());
    }

    #[test]
    fn calibrate_bn_changes_stats_and_keeps_shapes() {
        let mut rng = seeded_rng(9);
        let model = deepcam_models::scaled::scaled_vgg11(&mut rng, 4, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let mut engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let mut rng2 = seeded_rng(10);
        let calib = deepcam_tensor::init::normal(&mut rng2, Shape::new(&[4, 3, 32, 32]), 0.0, 1.0);
        let before = engine.infer(&calib).unwrap();
        engine.calibrate_bn(&calib).unwrap();
        let after = engine.infer(&calib).unwrap();
        assert_eq!(before.shape(), after.shape());
        assert!(after.all_finite());
        // Calibration must actually change the BN statistics (and hence
        // the logits) for a model whose float stats are untrained.
        assert_ne!(before.data(), after.data());
    }

    #[test]
    fn calibration_persists_through_the_artifact() {
        // calibrate → save → load must serve the calibrated statistics.
        let mut rng = seeded_rng(40);
        let model = deepcam_models::scaled::scaled_vgg11(&mut rng, 4, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let mut engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let mut rng2 = seeded_rng(41);
        let calib = deepcam_tensor::init::normal(&mut rng2, Shape::new(&[3, 3, 32, 32]), 0.0, 1.0);
        engine.calibrate_bn(&calib).unwrap();
        let calibrated = engine.infer(&calib).unwrap();
        let reloaded = DeepCamEngine::from_compiled(
            CompiledModel::from_bytes(&engine.compiled().to_bytes()).unwrap(),
        )
        .unwrap();
        assert_eq!(calibrated.data(), reloaded.infer(&calib).unwrap().data());
    }

    #[test]
    fn cosine_luts_are_shared_per_hash_length() {
        // Satellite: one cosine-LUT allocation per distinct hash
        // length. A uniform plan must yield a single shared Arc across
        // every runtime tile; distinct lengths must not share.
        let mut rng = seeded_rng(50);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let first = &engine.tiles[0].cos_lut;
        for rt in &engine.tiles[1..] {
            assert!(std::sync::Arc::ptr_eq(first, &rt.cos_lut));
        }
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(vec![256, 512, 256, 512, 256]),
            ..EngineConfig::default()
        };
        let model2 = scaled_lenet5(&mut seeded_rng(50), 10);
        let engine = DeepCamEngine::compile(&model2, cfg).unwrap();
        assert!(std::sync::Arc::ptr_eq(
            &engine.tiles[0].cos_lut,
            &engine.tiles[2].cos_lut
        ));
        assert!(std::sync::Arc::ptr_eq(
            &engine.tiles[1].cos_lut,
            &engine.tiles[3].cos_lut
        ));
        assert!(!std::sync::Arc::ptr_eq(
            &engine.tiles[0].cos_lut,
            &engine.tiles[1].cos_lut
        ));
        // Sharing must not change the table contents.
        assert_eq!(engine.tiles[1].cos_lut.len(), 512 + 1);
    }

    #[test]
    fn count_correct_tie_breaks_to_first_max() {
        // Two tied maxima: the *first* index wins, matching
        // `Tensor::argmax`. Labels hitting the first tie count as
        // correct; labels hitting the second do not.
        let logits = Tensor::from_vec(
            vec![
                1.0, 5.0, 5.0, 2.0, // argmax = 1 (not 2)
                7.0, 7.0, 7.0, 7.0, // argmax = 0
                0.0, -1.0, 3.0, 3.0, // argmax = 2 (not 3)
            ],
            Shape::new(&[3, 4]),
        )
        .unwrap();
        assert_eq!(
            DeepCamEngine::count_correct(&logits, &[1, 0, 2]).unwrap(),
            3
        );
        assert_eq!(
            DeepCamEngine::count_correct(&logits, &[2, 1, 3]).unwrap(),
            0
        );
        // Mixed: only the middle row's label is the winning index.
        assert_eq!(
            DeepCamEngine::count_correct(&logits, &[2, 0, 3]).unwrap(),
            1
        );
    }

    #[test]
    fn count_correct_matches_tensor_argmax_convention() {
        let mut rng = seeded_rng(77);
        let logits = deepcam_tensor::init::normal(&mut rng, Shape::new(&[8, 5]), 0.0, 1.0);
        for row in 0..8 {
            let expected = Tensor::from_slice(&logits.data()[row * 5..(row + 1) * 5])
                .argmax()
                .unwrap()
                .0;
            let labels: Vec<usize> = (0..8).map(|_| expected).collect();
            // Row `row` must be counted under its argmax label.
            let hits = DeepCamEngine::count_correct(&logits, &labels).unwrap();
            assert!(hits >= 1, "row {row}");
        }
    }

    #[test]
    fn misshapen_input_is_a_typed_error_on_both_paths() {
        // 784 values shaped 14x56 run the convs but reach `fc1` with 192
        // features instead of 400; a 3-channel image fails `conv1`.
        let mut rng = seeded_rng(22);
        let engine =
            DeepCamEngine::compile(&scaled_lenet5(&mut rng, 10), EngineConfig::default()).unwrap();
        for shape in [[1, 1, 14, 56], [1, 3, 28, 28]] {
            let x = Tensor::zeros(Shape::new(&shape));
            for result in [engine.infer(&x), engine.infer_reference(&x)] {
                assert!(
                    matches!(result, Err(CoreError::InvalidInput(_))),
                    "{shape:?}: {result:?}"
                );
            }
        }
    }

    #[test]
    fn batch_norm_channel_mismatch_is_a_typed_error() {
        // A leading batch-norm's channel count is unknown until the
        // input arrives, so a mismatch must surface at inference as a
        // typed error, not an out-of-bounds index.
        use deepcam_models::Block;
        use deepcam_tensor::layer::{BatchNorm2d, Flatten, Linear};
        let mut rng = seeded_rng(23);
        let model = Cnn::new(
            "bn-first",
            vec![
                Block::Bn(BatchNorm2d::new(2)),
                Block::Flatten(Flatten::new()),
                Block::Linear(Linear::new(&mut rng, 8, 4)),
            ],
            4,
        )
        .with_input(2, 2, 2);
        let engine = DeepCamEngine::compile(&model, EngineConfig::default()).unwrap();
        assert!(engine
            .infer(&Tensor::zeros(Shape::new(&[1, 2, 2, 2])))
            .is_ok());
        let result = engine.infer(&Tensor::zeros(Shape::new(&[1, 3, 2, 2])));
        assert!(
            matches!(result, Err(CoreError::InvalidInput(_))),
            "{result:?}"
        );
    }

    #[test]
    fn infer_reference_matches_fast_path_bitwise() {
        let mut rng = seeded_rng(21);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let x = tiny_batch(2);
        let fast = engine.infer(&x).unwrap();
        let reference = engine.infer_reference(&x).unwrap();
        assert_eq!(fast.data(), reference.data());
    }

    #[test]
    fn infer_recorded_matches_both_datapaths_bitwise() {
        let mut rng = seeded_rng(22);
        let models = [
            (scaled_lenet5(&mut rng, 10), tiny_batch(3)),
            (
                scaled_resnet18(&mut rng, 4, 10),
                deepcam_tensor::init::normal(&mut rng, Shape::new(&[2, 3, 32, 32]), 0.0, 1.0),
            ),
        ];
        for (model, x) in &models {
            for parallelism in [Parallelism::Serial, Parallelism::Fixed(2)] {
                let cfg = EngineConfig {
                    plan: HashPlan::Uniform(256),
                    parallelism,
                    ..EngineConfig::default()
                };
                let engine = DeepCamEngine::compile(model, cfg).unwrap();
                let what = format!("{} {parallelism:?}", model.name);
                let (fast, rec) = engine.infer_recorded(x, Datapath::Fast).unwrap();
                assert_eq!(fast.data(), engine.infer(x).unwrap().data(), "{what}");
                assert_eq!(rec.datapath, Datapath::Fast);
                assert_eq!(rec.steps.len(), engine.compiled.steps.len(), "{what}");
                assert_eq!(rec.dots.len(), engine.dot_layers(), "{what}");
                let tiles = engine.compiled.tiles();
                for (i, dot) in rec.dots.iter().enumerate() {
                    assert_eq!(dot.layer, i, "{what}: traversal order");
                    let macs = dot.rows * tiles[i].n * tiles[i].k;
                    assert_eq!(dot.tasks, tasks(macs, parallelism.resolve()), "{what}");
                    assert!(dot.sub_blocks >= dot.rows.div_ceil(SUB_ROWS), "{what}");
                    if parallelism == Parallelism::Serial {
                        assert_eq!(dot.sub_blocks, dot.rows.div_ceil(SUB_ROWS), "{what}");
                        assert!(dot.phases() <= dot.wall, "{what}: phases inside the step");
                    }
                    assert!(
                        dot.nonzero_macs <= dot.macs,
                        "{what}: every useful term ran"
                    );
                }
                let (reference, rec) = engine.infer_recorded(x, Datapath::Reference).unwrap();
                assert_eq!(
                    reference.data(),
                    engine.infer_reference(x).unwrap().data(),
                    "{what}"
                );
                assert_eq!(rec.dots.len(), engine.dot_layers(), "{what}");
                for dot in &rec.dots {
                    assert_eq!(dot.phases(), std::time::Duration::ZERO, "{what}");
                    assert_eq!(dot.sub_blocks, 0, "{what}");
                }
            }
        }
    }

    #[test]
    fn an_all_zero_image_recomputes_every_lane_of_the_first_layer() {
        let mut rng = seeded_rng(23);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            parallelism: Parallelism::Serial,
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        // Norm 0 leaves the bound +∞: no lane can be certified.
        let zeros = Tensor::zeros(Shape::new(&[1, 1, 28, 28]));
        let (_, rec) = engine.infer_recorded(&zeros, Datapath::Fast).unwrap();
        let first = &rec.dots[0];
        assert_eq!(first.recomputed_lanes, first.rows * 256);
        assert_eq!(first.nonzero_macs, 0);
        // A Gaussian image certifies nearly every lane.
        let (_, rec) = engine
            .infer_recorded(&tiny_batch(1), Datapath::Fast)
            .unwrap();
        let first = &rec.dots[0];
        assert!(first.recomputed_lanes * 100 < first.rows * 256);
        assert!(first.nonzero_macs > 0);
    }

    #[test]
    fn evaluate_bounds() {
        let mut rng = seeded_rng(8);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let x = tiny_batch(6);
        let labels = vec![0usize; 6];
        let acc = engine.evaluate(&x, &labels, 4).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        // An empty set scores 0, not NaN.
        let empty = Tensor::zeros(Shape::new(&[0, 1, 28, 28]));
        assert_eq!(engine.evaluate(&empty, &[], 4).unwrap(), 0.0);
    }

    #[test]
    fn evaluate_rejects_inconsistent_inputs() {
        let mut rng = seeded_rng(12);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let x = tiny_batch(4);
        // Label count mismatch is a typed error, not a panic.
        assert!(matches!(
            engine.evaluate(&x, &[0usize; 3], 2),
            Err(CoreError::InvalidInput(_))
        ));
        // Zero batch size too.
        assert!(matches!(
            engine.evaluate(&x, &[0usize; 4], 0),
            Err(CoreError::InvalidInput(_))
        ));
    }

    #[test]
    fn evaluate_never_truncates_remainder() {
        // 6 images with batch_size 4 leaves a remainder mini-batch of 2;
        // every image must still be evaluated. Comparing against
        // batch_size 1/6 (where no remainder exists) pins this down:
        // accuracy is a count over all n images, so any silent drop of
        // the remainder would shift the result.
        let mut rng = seeded_rng(14);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let x = tiny_batch(6);
        let logits = engine.infer(&x).unwrap();
        let labels: Vec<usize> = (0..6)
            .map(|i| {
                let row = &logits.data()[i * 10..(i + 1) * 10];
                // Label half the images with their argmax, half wrong, so
                // the expected accuracy is exactly 3/6 only when all six
                // are counted.
                let best = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                if i % 2 == 0 {
                    best
                } else {
                    (best + 1) % 10
                }
            })
            .collect();
        for batch_size in [1usize, 4, 5, 6, 100] {
            let acc = engine.evaluate(&x, &labels, batch_size).unwrap();
            assert_eq!(acc, 0.5, "batch_size {batch_size}");
            let par = engine
                .evaluate_with(&x, &labels, batch_size, Parallelism::Fixed(3))
                .unwrap();
            assert_eq!(par, 0.5, "parallel batch_size {batch_size}");
        }
    }

    #[test]
    fn infer_batch_matches_infer_bitwise() {
        let mut rng = seeded_rng(15);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg.clone()).unwrap();
        let serial_engine = DeepCamEngine::compile(
            &model,
            EngineConfig {
                parallelism: Parallelism::Serial,
                ..cfg
            },
        )
        .unwrap();
        // 8 tasks' worth of images: 3 workers get uneven chunks.
        let x = split_batch(&engine, 8);
        let serial = serial_engine.infer(&x).unwrap();
        for workers in [1usize, 2, 3, 8] {
            let par = Parallelism::Fixed(workers);
            assert_eq!(engine.image_tasks(&x, par), workers);
            let par = engine.infer_batch_with(&x, par).unwrap();
            assert_eq!(serial.data(), par.data(), "workers {workers}");
            assert_eq!(serial.shape(), par.shape());
        }
    }

    #[test]
    fn infer_matches_per_image_infer_bitwise() {
        // The serving-runtime contract: every image of an `infer` batch
        // is bit-identical to its own single-image `infer` call, so
        // micro-batching can never change a served result.
        let mut rng = seeded_rng(23);
        let model = scaled_lenet5(&mut rng, 10);
        let engine_at = |parallelism| {
            let cfg = EngineConfig {
                plan: HashPlan::Uniform(256),
                parallelism,
                ..EngineConfig::default()
            };
            DeepCamEngine::compile(&model, cfg).unwrap()
        };
        let engine = engine_at(Parallelism::Serial);
        let x = split_batch(&engine, 4);
        let mut serial: Vec<f32> = Vec::new();
        for i in 0..x.shape().dim(0) {
            let one = engine.image_chunk(&x, i, i + 1).unwrap();
            serial.extend_from_slice(engine.infer(&one).unwrap().data());
        }
        for workers in [1usize, 2, 4] {
            let engine = engine_at(Parallelism::Fixed(workers));
            assert_eq!(engine.image_tasks(&x, engine.config().parallelism), workers);
            let coalesced = engine.infer(&x).unwrap();
            assert_eq!(serial.as_slice(), coalesced.data(), "workers {workers}");
        }
    }

    #[test]
    fn noisy_infer_batch_is_batch_invariant() {
        // The name predates the ideal-device model; what stays is the
        // per-call override: one engine sharded over images by
        // `infer_batch_with` reproduces its own serial pass exactly.
        let mut rng = seeded_rng(16);
        let model = scaled_lenet5(&mut rng, 10);
        let cfg = EngineConfig {
            plan: HashPlan::Uniform(256),
            ..EngineConfig::default()
        };
        let engine = DeepCamEngine::compile(&model, cfg).unwrap();
        let x = split_batch(&engine, 4);
        let serial = engine.infer_batch_with(&x, Parallelism::Serial).unwrap();
        let par = engine.infer_batch_with(&x, Parallelism::Fixed(4)).unwrap();
        assert_eq!(serial.data(), par.data());
    }
}
