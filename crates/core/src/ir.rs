//! The staged compilation pipeline:
//!
//! ```text
//! ModelSpec ─┐
//!            ├─► LayerIr ──► PlanBinding ──► CompiledModel ──► DeepCamEngine
//! Cnn ───────┘   (lowered     (validated      (packed weight     (runtime:
//!                 dot-layer    per-layer       tiles, norms,       derived
//!                 list)        hash widths)    seeds, pipeline)    projections,
//!                                                                  cos LUTs)
//! ```
//!
//! [`LayerIr`] is the *single* lowered view of a model's dot-product
//! layers — shapes, traversal order, names — shared by the functional
//! engine, the frozen reference datapath, the analytic scheduler
//! ([`crate::sched`]), the baselines crate and every experiment. Both
//! source languages lower into it: weight-free [`ModelSpec`]s through
//! [`LayerIr::from_spec`] (built on the one `ModelSpec::dot_layers`
//! lowering) and trained [`Cnn`]s through [`LayerIr::from_cnn`].
//!
//! [`CompiledModel`] is the deployment artifact the paper describes
//! (§III): per-layer packed weight-context tiles, raw kernel norms and
//! projection seeds, plus the exact digital post-processing pipeline. It
//! is **self-contained and serializable** — [`CompiledModel::save`] /
//! [`CompiledModel::load`] round-trip a versioned binary artifact
//! through the vendored serde's [`serde::bin`] codec, and a reloaded
//! artifact serves inference **bit-identically** to the in-memory
//! compile (`tests/compiled_model_roundtrip.rs` pins this). Everything
//! the runtime derives (projection matrices, cosine LUTs, quantized
//! norms) is a deterministic function of the stored fields, so the
//! artifact stays compact: seeds are stored, `n×k` float matrices are
//! not.

use deepcam_hash::{ContextGenerator, PackedHashes};
use deepcam_models::{Block, Cnn, DotLayer, LayerSpec, ModelSpec, PoolKind, PoolSpec, ResBlock};
use deepcam_tensor::ops::conv::Conv2dConfig;
use deepcam_tensor::ops::pool::PoolConfig;
use deepcam_tensor::Tensor;
use serde::bin::{BinCodec, BinError, BinResult, Reader, Writer};

use crate::engine::EngineConfig;
use crate::error::CoreError;
use crate::hashplan::PlanBinding;
use crate::passes::mapping::ModelMapping;
use crate::Result;

/// Which dot-product form a lowered layer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DotKind {
    /// A convolution: `P` im2col patches against `M` kernels.
    Conv,
    /// A fully-connected layer: one input vector against `M` neurons.
    Linear,
}

/// One lowered dot-product layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DotIr {
    /// Traversal index (0-based; residual bodies before their shortcuts —
    /// the numbering every hash plan and profile sample uses).
    pub index: usize,
    /// Source layer form.
    pub kind: DotKind,
    /// CAM-mapping shape: name, `P`, `M`, `n`, unique input elements.
    ///
    /// Every lowering fixes these statically (a [`Cnn`] from its declared
    /// [`Cnn::input`]), so `p ≥ 1` for every dot layer of a valid
    /// [`CompiledModel`]; the engine sizes its image tasks from them.
    pub shape: DotLayer,
    /// The peripheral (non-dot) layers executed between this dot layer
    /// and the next, in order. The post-processing cost model folds
    /// their cost into this layer's entry.
    pub peripherals: Vec<LayerSpec>,
}

/// A model lowered to its dot-layer list — stage one of the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerIr {
    /// Source model name, e.g. `"VGG11"`.
    pub model_name: String,
    /// Workload label for reports, e.g. `"VGG11 CIFAR10"`.
    pub workload: String,
    /// Peripheral layers preceding the first dot layer (none in any
    /// paper workload; recorded for completeness, ignored by the cost
    /// models exactly as the pre-IR scheduler ignored them).
    pub preamble: Vec<LayerSpec>,
    /// The dot-product layers in traversal order.
    pub dots: Vec<DotIr>,
}

impl LayerIr {
    /// Lowers a weight-free [`ModelSpec`].
    ///
    /// The `P`/`M`/`n` arithmetic lives solely in
    /// [`ModelSpec::dot_layers`] — this is its only caller in the
    /// workspace, which is what makes the lowering single-sourced.
    pub fn from_spec(spec: &ModelSpec) -> LayerIr {
        let mut shapes = spec.dot_layers().into_iter();
        let mut dots: Vec<DotIr> = Vec::new();
        let mut preamble = Vec::new();
        for layer in &spec.layers {
            match layer {
                LayerSpec::Conv(_) | LayerSpec::Linear(_) => {
                    let kind = if matches!(layer, LayerSpec::Conv(_)) {
                        DotKind::Conv
                    } else {
                        DotKind::Linear
                    };
                    let shape = shapes.next().expect("one DotLayer per dot LayerSpec");
                    dots.push(DotIr {
                        index: dots.len(),
                        kind,
                        shape,
                        peripherals: Vec::new(),
                    });
                }
                other => match dots.last_mut() {
                    Some(d) => d.peripherals.push(other.clone()),
                    None => preamble.push(other.clone()),
                },
            }
        }
        LayerIr {
            model_name: spec.name.clone(),
            workload: spec.workload(),
            preamble,
            dots,
        }
    }

    /// Lowers a trainable [`Cnn`] from its declared [`Cnn::input`].
    ///
    /// Traversal order matches the engine compiler exactly (residual
    /// bodies before their shortcuts). Conv layers are named
    /// `conv1..convN` and linear layers `fc1..fcM` in traversal order.
    /// Every dot layer gets its static `P` and every peripheral layer its
    /// element counts, traced from the declared input, so the analytic
    /// scheduler can cost a trained model's exact topology.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Unsupported`] when the model declares no
    /// input shape, or when the declared shape is inconsistent with a
    /// layer's expectations.
    pub fn from_cnn(model: &Cnn) -> Result<LayerIr> {
        let Some((c, h, w)) = model.input else {
            return Err(CoreError::Unsupported(format!(
                "model '{}' declares no input shape (see `Cnn::with_input`)",
                model.name
            )));
        };
        let mut st = TraceShape::Chw(c, h, w);
        let mut ir = LayerIr {
            model_name: model.name.clone(),
            workload: model.name.clone(),
            preamble: Vec::new(),
            dots: Vec::new(),
        };
        let mut counters = (0usize, 0usize);
        walk_blocks(&model.blocks, &mut st, &mut ir, &mut counters)?;
        Ok(ir)
    }

    /// Number of dot layers.
    pub fn len(&self) -> usize {
        self.dots.len()
    }

    /// Returns `true` when the model has no dot layers.
    pub fn is_empty(&self) -> bool {
        self.dots.is_empty()
    }

    /// The im2col/input vector length of every dot layer, traversal
    /// order (the shape signal behind
    /// [`HashPlan::variable_for_dims`](crate::HashPlan::variable_for_dims)).
    pub fn patch_lens(&self) -> Vec<usize> {
        self.dots.iter().map(|d| d.shape.n).collect()
    }
}

/// Shape state threaded through the [`Cnn`] lowering walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TraceShape {
    /// NCHW feature map of `(channels, height, width)` per image.
    Chw(usize, usize, usize),
    /// Flattened features per image.
    Flat(usize),
}

impl TraceShape {
    /// Elements per image.
    fn elements(self) -> usize {
        match self {
            TraceShape::Chw(c, h, w) => c * h * w,
            TraceShape::Flat(f) => f,
        }
    }
}

fn attach_peripheral(ir: &mut LayerIr, spec: LayerSpec) {
    match ir.dots.last_mut() {
        Some(d) => d.peripherals.push(spec),
        None => ir.preamble.push(spec),
    }
}

fn walk_blocks(
    blocks: &[Block],
    st: &mut TraceShape,
    ir: &mut LayerIr,
    counters: &mut (usize, usize),
) -> Result<()> {
    for block in blocks {
        match block {
            Block::Conv(conv) => {
                counters.0 += 1;
                let name = format!("conv{}", counters.0);
                let (c, h, w) = feature_map(*st, &name)?;
                let cfg = &conv.cfg;
                if c != cfg.in_channels {
                    return Err(CoreError::Unsupported(format!(
                        "{name} expects {} input channels, traced shape has {c}",
                        cfg.in_channels
                    )));
                }
                let pad = 2 * cfg.padding;
                if cfg.validate().is_err() || h + pad < cfg.kernel_h || w + pad < cfg.kernel_w {
                    return Err(CoreError::Unsupported(format!(
                        "{name}'s {}x{} window does not fit its {h}x{w} input",
                        cfg.kernel_h, cfg.kernel_w
                    )));
                }
                let (oh, ow) = cfg.output_hw(h, w);
                *st = TraceShape::Chw(cfg.out_channels, oh, ow);
                ir.dots.push(DotIr {
                    index: ir.dots.len(),
                    kind: DotKind::Conv,
                    shape: DotLayer {
                        name,
                        p: oh * ow,
                        m: cfg.out_channels,
                        n: cfg.patch_len(),
                        input_elems: c * h * w,
                    },
                    peripherals: Vec::new(),
                });
            }
            Block::Linear(lin) => {
                counters.1 += 1;
                let name = format!("fc{}", counters.1);
                let m = lin.weight.value.shape().dim(0);
                let n = lin.weight.value.shape().dim(1);
                match *st {
                    TraceShape::Flat(f) if f != n => {
                        return Err(CoreError::Unsupported(format!(
                            "{name} expects {n} input features, traced shape has {f}"
                        )));
                    }
                    TraceShape::Flat(_) => {}
                    TraceShape::Chw(c, h, w) => {
                        // The engine's Linear step consumes `[N, F]`
                        // input; a feature map reaching it unflattened
                        // is a model bug the lowering should surface.
                        return Err(CoreError::Unsupported(format!(
                            "{name} follows a {c}x{h}x{w} feature map with no Flatten"
                        )));
                    }
                }
                *st = TraceShape::Flat(m);
                ir.dots.push(DotIr {
                    index: ir.dots.len(),
                    kind: DotKind::Linear,
                    shape: DotLayer {
                        name,
                        p: 1,
                        m,
                        n,
                        input_elems: n,
                    },
                    peripherals: Vec::new(),
                });
            }
            Block::Bn(_) => attach_peripheral(
                ir,
                LayerSpec::BatchNorm {
                    elements: st.elements(),
                },
            ),
            Block::Relu(_) => attach_peripheral(
                ir,
                LayerSpec::Activation {
                    elements: st.elements(),
                },
            ),
            Block::MaxPool(p) => pool_peripheral(st, ir, PoolKind::Max, &p.cfg)?,
            Block::AvgPool(p) => pool_peripheral(st, ir, PoolKind::Avg, &p.cfg)?,
            Block::Flatten(_) => *st = TraceShape::Flat(st.elements()),
            Block::Residual(ResBlock { body, shortcut, .. }) => {
                let entry = *st;
                let mut body_st = entry;
                walk_blocks(body, &mut body_st, ir, counters)?;
                if let Some(sc) = shortcut {
                    let mut sc_st = entry;
                    walk_blocks(sc, &mut sc_st, ir, counters)?;
                    if sc_st != body_st {
                        return Err(CoreError::Unsupported(
                            "residual branches disagree on output shape".to_string(),
                        ));
                    }
                }
                *st = body_st;
                let elements = body_st.elements();
                attach_peripheral(ir, LayerSpec::EltwiseAdd { elements });
                // The ReLU after the residual add.
                attach_peripheral(ir, LayerSpec::Activation { elements });
            }
        }
    }
    Ok(())
}

/// The feature map `layer` reads, or an error when the activations
/// reaching it are already flattened.
fn feature_map(st: TraceShape, layer: &str) -> Result<(usize, usize, usize)> {
    match st {
        TraceShape::Chw(c, h, w) => Ok((c, h, w)),
        TraceShape::Flat(f) => Err(CoreError::Unsupported(format!(
            "{layer} follows {f} flattened features, not a feature map"
        ))),
    }
}

fn pool_peripheral(
    st: &mut TraceShape,
    ir: &mut LayerIr,
    kind: PoolKind,
    cfg: &PoolConfig,
) -> Result<()> {
    let (c, h, w) = feature_map(*st, "pooling")?;
    cfg.validate(h, w)
        .map_err(|e| CoreError::Unsupported(format!("pooling: {e}")))?;
    attach_peripheral(
        ir,
        LayerSpec::Pool(PoolSpec {
            kind,
            kernel: cfg.kernel,
            channels: c,
            in_h: h,
            in_w: w,
        }),
    );
    let (oh, ow) = cfg.output_hw(h, w);
    *st = TraceShape::Chw(c, oh, ow);
    Ok(())
}

/// The weight tensor of every dot layer of a [`Cnn`], traversal order
/// (tuner building block: re-compile a single layer's tile at a new
/// hash length without re-walking the model).
pub(crate) fn dot_layer_weights(model: &Cnn) -> Vec<&Tensor> {
    fn collect<'m>(blocks: &'m [Block], out: &mut Vec<&'m Tensor>) {
        for block in blocks {
            match block {
                Block::Conv(c) => out.push(&c.weight.value),
                Block::Linear(l) => out.push(&l.weight.value),
                Block::Residual(ResBlock { body, shortcut, .. }) => {
                    collect(body, out);
                    if let Some(sc) = shortcut {
                        collect(sc, out);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    collect(&model.blocks, &mut out);
    out
}

/// One dot layer's CAM-resident artifact: every kernel context packed
/// into a contiguous tile, plus the seeds and raw norms the runtime
/// derives the rest from.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTile {
    /// Dot-layer traversal index (profile labels).
    pub layer_idx: usize,
    /// Lowered layer name (`conv3`, `fc1`, …).
    pub name: String,
    /// Pre-hash vector length `n`.
    pub n: usize,
    /// Bound hash width `k`.
    pub k: usize,
    /// Seed of the layer's `n×k` Gaussian projection. The matrix itself
    /// is *derived*, never stored — `ProjectionMatrix::generate(n, k,
    /// seed)` is deterministic, which keeps artifacts small and the
    /// round-trip bit-exact.
    pub seed: u64,
    /// All `M` kernel hashes in one packed tile.
    pub packed: PackedHashes,
    /// Raw (pre-quantization) L2 norm of every kernel. The engine's
    /// `NormMode` is applied at runtime, so one artifact serves both
    /// norm modes of its config without re-compiling weights.
    pub norms: Vec<f32>,
}

impl CompiledTile {
    /// Hashes one layer's weights into a tile: the per-layer unit of
    /// compilation (and the tuner's cache entry).
    ///
    /// # Errors
    ///
    /// Propagates hashing errors (invalid geometry).
    pub fn compile(
        name: impl Into<String>,
        layer_idx: usize,
        k: usize,
        seed: u64,
        weight: &Tensor,
    ) -> Result<Self> {
        let dims = weight.shape().dims();
        let n: usize = dims[1..].iter().product();
        let gen = ContextGenerator::new(n, k, seed)?;
        let contexts = gen.weight_contexts(weight)?;
        let mut packed = PackedHashes::new(k);
        let mut norms = Vec::with_capacity(contexts.len());
        for wctx in contexts.iter() {
            packed
                .push(&wctx.bits)
                .expect("weight hashes share the layer width by construction");
            norms.push(wctx.norm);
        }
        Ok(CompiledTile {
            layer_idx,
            name: name.into(),
            n,
            k,
            seed,
            packed,
            norms,
        })
    }

    /// Number of kernel contexts (output channels / features).
    pub fn kernels(&self) -> usize {
        self.norms.len()
    }
}

/// One step of the compiled digital pipeline.
///
/// Mirrors the model's block structure: dot-product steps carry their
/// [`CompiledTile`]; peripheral steps carry the exact float parameters
/// the post-processing module executes digitally.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledStep {
    /// Convolution through the CAM datapath.
    Conv {
        /// im2col geometry.
        cfg: Conv2dConfig,
        /// The layer's packed weight contexts.
        tile: CompiledTile,
        /// Per-kernel bias, added digitally after reconstruction.
        bias: Vec<f32>,
    },
    /// Fully-connected layer through the CAM datapath.
    Linear {
        /// The layer's packed weight contexts.
        tile: CompiledTile,
        /// Per-feature bias.
        bias: Vec<f32>,
    },
    /// Batch normalization with frozen (or BN-calibrated) statistics.
    Bn {
        /// Scale.
        gamma: Vec<f32>,
        /// Shift.
        beta: Vec<f32>,
        /// Running mean.
        mean: Vec<f32>,
        /// Running variance.
        var: Vec<f32>,
    },
    /// ReLU.
    Relu,
    /// Max pooling.
    MaxPool(PoolConfig),
    /// Average pooling.
    AvgPool(PoolConfig),
    /// NCHW → `[N, F]` flatten.
    Flatten,
    /// Residual block: `relu(body(x) + shortcut(x))`.
    Residual {
        /// Main branch.
        body: Vec<CompiledStep>,
        /// Projection branch; `None` = identity.
        shortcut: Option<Vec<CompiledStep>>,
    },
}

/// Maximum residual nesting accepted when decoding an artifact (real
/// models nest once; the bound only guards the decoder's stack against
/// hostile input).
const MAX_STEP_DEPTH: usize = 64;

impl CompiledStep {
    fn encode(&self, w: &mut Writer) {
        match self {
            CompiledStep::Conv { cfg, tile, bias } => {
                w.put_u8(0);
                cfg.encode(w);
                tile.encode(w);
                bias.encode(w);
            }
            CompiledStep::Linear { tile, bias } => {
                w.put_u8(1);
                tile.encode(w);
                bias.encode(w);
            }
            CompiledStep::Bn {
                gamma,
                beta,
                mean,
                var,
            } => {
                w.put_u8(2);
                gamma.encode(w);
                beta.encode(w);
                mean.encode(w);
                var.encode(w);
            }
            CompiledStep::Relu => w.put_u8(3),
            CompiledStep::MaxPool(cfg) => {
                w.put_u8(4);
                cfg.encode(w);
            }
            CompiledStep::AvgPool(cfg) => {
                w.put_u8(5);
                cfg.encode(w);
            }
            CompiledStep::Flatten => w.put_u8(6),
            CompiledStep::Residual { body, shortcut } => {
                w.put_u8(7);
                Self::encode_vec(body, w);
                match shortcut {
                    None => w.put_u8(0),
                    Some(sc) => {
                        w.put_u8(1);
                        Self::encode_vec(sc, w);
                    }
                }
            }
        }
    }

    fn encode_vec(steps: &[Self], w: &mut Writer) {
        w.put_usize(steps.len());
        for step in steps {
            step.encode(w);
        }
    }

    /// Decodes one encoded step onto `out`. Tag 8 is the fused step
    /// older writers emitted (a dot layer with its trailing batch-norm
    /// and/or ReLU folded in); it expands into exactly the steps it
    /// folded — the dot step, then `Bn` if folded, then `Relu` if
    /// folded — which serve the same logits.
    fn decode_into(r: &mut Reader<'_>, depth: usize, out: &mut Vec<Self>) -> BinResult<()> {
        if depth > MAX_STEP_DEPTH {
            return Err(BinError::Invalid(format!(
                "step nesting deeper than {MAX_STEP_DEPTH}"
            )));
        }
        let step = match r.get_u8()? {
            0 => CompiledStep::Conv {
                cfg: BinCodec::decode(r)?,
                tile: BinCodec::decode(r)?,
                bias: BinCodec::decode(r)?,
            },
            1 => CompiledStep::Linear {
                tile: BinCodec::decode(r)?,
                bias: BinCodec::decode(r)?,
            },
            2 => Self::decode_bn(r)?,
            3 => CompiledStep::Relu,
            4 => CompiledStep::MaxPool(BinCodec::decode(r)?),
            5 => CompiledStep::AvgPool(BinCodec::decode(r)?),
            6 => CompiledStep::Flatten,
            7 => {
                let body = Self::decode_vec(r, depth + 1)?;
                let shortcut = match r.get_u8()? {
                    0 => None,
                    1 => Some(Self::decode_vec(r, depth + 1)?),
                    other => return Err(BinError::Invalid(format!("shortcut tag {other}"))),
                };
                CompiledStep::Residual { body, shortcut }
            }
            8 => {
                let conv: Option<Conv2dConfig> = BinCodec::decode(r)?;
                let tile = BinCodec::decode(r)?;
                let bias = BinCodec::decode(r)?;
                let bn = match r.get_u8()? {
                    0 => None,
                    1 => Some(Self::decode_bn(r)?),
                    other => return Err(BinError::Invalid(format!("Option tag {other}"))),
                };
                let relu = r.get_bool()?;
                let dot = match conv {
                    Some(cfg) => CompiledStep::Conv { cfg, tile, bias },
                    None if bn.is_none() => CompiledStep::Linear { tile, bias },
                    // Batch-norm was only ever folded into conv steps.
                    None => {
                        return Err(BinError::Invalid(
                            "fused step folds batch-norm without conv geometry".to_string(),
                        ))
                    }
                };
                out.push(dot);
                out.extend(bn);
                if relu {
                    out.push(CompiledStep::Relu);
                }
                return Ok(());
            }
            other => return Err(BinError::Invalid(format!("CompiledStep tag {other}"))),
        };
        out.push(step);
        Ok(())
    }

    fn decode_bn(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(CompiledStep::Bn {
            gamma: BinCodec::decode(r)?,
            beta: BinCodec::decode(r)?,
            mean: BinCodec::decode(r)?,
            var: BinCodec::decode(r)?,
        })
    }

    fn decode_vec(r: &mut Reader<'_>, depth: usize) -> BinResult<Vec<Self>> {
        let len = r.get_usize()?;
        let mut out = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            Self::decode_into(r, depth, &mut out)?;
        }
        Ok(out)
    }
}

/// Artifact file magic (`"DCAM"`).
pub const ARTIFACT_MAGIC: [u8; 4] = *b"DCAM";
/// Artifact format version written by [`CompiledModel::to_bytes`]. Bump
/// on any encoding change; [`CompiledModel::from_bytes`] rejects
/// unknown versions instead of misinterpreting bytes.
///
/// Version history:
/// * **1** — config, IR, binding, steps.
/// * **2** — adds the optional [`ModelMapping`] section after the steps
///   and the fused step tag 8 (a dot layer with folded batch-norm/ReLU).
///   Tag 8 is no longer written; the reader expands it into the
///   unfused steps (`tests/data/vgg11_fused_v2.dcam` pins one).
///   Version-aware load keeps v1 artifacts readable
///   (`tests/data/lenet5_v1.dcam` pins one).
pub const ARTIFACT_VERSION: u32 = 2;
/// Oldest artifact format version [`CompiledModel::from_bytes`] accepts.
pub const ARTIFACT_MIN_VERSION: u32 = 1;

/// A trained model compiled for CAM-based inference — the pipeline's
/// final, serializable stage.
///
/// Build one with [`CompiledModel::compile`], persist it with
/// [`CompiledModel::save`], and serve it with
/// [`DeepCamEngine::from_compiled`](crate::DeepCamEngine::from_compiled).
/// A saved-and-reloaded artifact produces logits bit-identical to the
/// in-memory compile.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledModel {
    /// The configuration the model was compiled under (plan, seed,
    /// cosine/norm modes, parallelism default).
    pub config: EngineConfig,
    /// The lowered view the compile consumed.
    pub ir: LayerIr,
    /// The validated per-layer hash lengths.
    pub binding: PlanBinding,
    /// The step pipeline (tiles + digital peripherals).
    pub(crate) steps: Vec<CompiledStep>,
    /// Per-layer array-mapping decisions attached by the mapping pass
    /// ([`crate::passes::mapping`]); `None` until that pass runs. Pure
    /// scheduling metadata — the functional engine never reads it, so it
    /// cannot affect logits.
    pub mapping: Option<ModelMapping>,
}

impl CompiledModel {
    /// Compiles a trained model under a configuration:
    /// `Cnn → LayerIr → PlanBinding → CompiledModel`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] (naming the offending layer)
    /// when the plan does not cover the model, and hashing errors when a
    /// layer's geometry is invalid.
    pub fn compile(model: &Cnn, cfg: EngineConfig) -> Result<Self> {
        let ir = LayerIr::from_cnn(model)?;
        let binding = cfg.plan.bind(&ir)?;
        let mut idx = 0usize;
        let steps = compile_blocks(&model.blocks, &cfg, &ir, &binding, &mut idx)?;
        debug_assert_eq!(idx, ir.dots.len());
        Ok(CompiledModel {
            config: cfg,
            ir,
            binding,
            steps,
            mapping: None,
        })
    }

    /// Name of the source model.
    pub fn model_name(&self) -> &str {
        &self.ir.model_name
    }

    /// Number of dot layers compiled to CAM form.
    pub fn dot_layers(&self) -> usize {
        self.ir.dots.len()
    }

    /// The compiled tiles in traversal order.
    pub fn tiles(&self) -> Vec<&CompiledTile> {
        fn collect<'m>(steps: &'m [CompiledStep], out: &mut Vec<&'m CompiledTile>) {
            for step in steps {
                match step {
                    CompiledStep::Conv { tile, .. } | CompiledStep::Linear { tile, .. } => {
                        out.push(tile)
                    }
                    CompiledStep::Residual { body, shortcut } => {
                        collect(body, out);
                        if let Some(sc) = shortcut {
                            collect(sc, out);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out = Vec::with_capacity(self.ir.dots.len());
        collect(&self.steps, &mut out);
        out
    }

    /// Mutable visit of every tile in traversal order (tuner internals).
    pub(crate) fn for_each_tile_mut(&mut self, f: &mut impl FnMut(&mut CompiledTile)) {
        fn walk(steps: &mut [CompiledStep], f: &mut impl FnMut(&mut CompiledTile)) {
            for step in steps {
                match step {
                    CompiledStep::Conv { tile, .. } | CompiledStep::Linear { tile, .. } => f(tile),
                    CompiledStep::Residual { body, shortcut } => {
                        walk(body, f);
                        if let Some(sc) = shortcut {
                            walk(sc, f);
                        }
                    }
                    _ => {}
                }
            }
        }
        walk(&mut self.steps, f);
    }

    /// Structural consistency check: the binding covers the IR, every
    /// dot layer has a static patch count, every tile's width matches its
    /// bound length, and tile indices are the IR's traversal order. Run
    /// on every decoded artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Artifact`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        let dots = self.ir.dots.len();
        if self.binding.len() != dots {
            return Err(CoreError::Artifact(format!(
                "binding covers {} layers, IR has {dots}",
                self.binding.len()
            )));
        }
        for (pos, dot) in self.ir.dots.iter().enumerate() {
            // Consumers index bindings/tiles by `DotIr::index`, so a
            // decoded IR whose indices are not the traversal order would
            // panic downstream — reject it here instead.
            if dot.index != pos {
                return Err(CoreError::Artifact(format!(
                    "IR dot layer at traversal position {pos} claims index {}",
                    dot.index
                )));
            }
            // Every model lowers from a declared input, so a dot layer
            // with no patches is a corrupted (or hand-built) IR that the
            // engine's task sizing and the scheduler cannot cost.
            if dot.shape.p == 0 {
                return Err(CoreError::Artifact(format!(
                    "IR dot layer {pos} ('{}') has no static patch count (p = 0)",
                    dot.shape.name
                )));
            }
        }
        let tiles = self.tiles();
        if tiles.len() != dots {
            return Err(CoreError::Artifact(format!(
                "{} tiles for {dots} IR dot layers",
                tiles.len()
            )));
        }
        for (pos, tile) in tiles.iter().enumerate() {
            if tile.layer_idx != pos {
                return Err(CoreError::Artifact(format!(
                    "tile at traversal position {pos} claims layer index {}",
                    tile.layer_idx
                )));
            }
            let k = self.binding.k_for(pos);
            if tile.k != k || tile.packed.bits() != k {
                return Err(CoreError::Artifact(format!(
                    "tile {pos} ('{}') has width {} (packed {}), binding says {k}",
                    tile.name,
                    tile.k,
                    tile.packed.bits()
                )));
            }
            if tile.norms.len() != tile.packed.rows() {
                return Err(CoreError::Artifact(format!(
                    "tile {pos} ('{}') has {} norms for {} packed rows",
                    tile.name,
                    tile.norms.len(),
                    tile.packed.rows()
                )));
            }
            let ir_shape = &self.ir.dots[pos].shape;
            if tile.n != ir_shape.n || tile.norms.len() != ir_shape.m {
                return Err(CoreError::Artifact(format!(
                    "tile {pos} ('{}') shape {}x{} disagrees with IR {}x{}",
                    tile.name,
                    tile.norms.len(),
                    tile.n,
                    ir_shape.m,
                    ir_shape.n
                )));
            }
        }
        // Per-step parameter vectors: the inference loops index these by
        // kernel/channel without bounds checks of their own, so a
        // corrupted artifact must be rejected here, not panic at serve
        // time. `channels` is the channel count of the activations that
        // reach each step, where the steps before it fix one: a conv sets
        // it, a linear or flatten step leaves flat activations, and the
        // input's count is unknown.
        fn check_steps(
            steps: &[CompiledStep],
            mut channels: Option<usize>,
        ) -> Result<Option<usize>> {
            for step in steps {
                match step {
                    CompiledStep::Conv { cfg, tile, bias } => {
                        if bias.len() != tile.kernels() {
                            return Err(CoreError::Artifact(format!(
                                "conv step '{}' has {} bias entries for {} kernels",
                                tile.name,
                                bias.len(),
                                tile.kernels()
                            )));
                        }
                        if cfg.out_channels != tile.kernels() || cfg.patch_len() != tile.n {
                            return Err(CoreError::Artifact(format!(
                                "conv step '{}' geometry {}x{} disagrees with its tile {}x{}",
                                tile.name,
                                cfg.out_channels,
                                cfg.patch_len(),
                                tile.kernels(),
                                tile.n
                            )));
                        }
                        channels = Some(tile.kernels());
                    }
                    CompiledStep::Linear { tile, bias } => {
                        if bias.len() != tile.kernels() {
                            return Err(CoreError::Artifact(format!(
                                "linear step '{}' has {} bias entries for {} features",
                                tile.name,
                                bias.len(),
                                tile.kernels()
                            )));
                        }
                        channels = None;
                    }
                    CompiledStep::Bn {
                        gamma,
                        beta,
                        mean,
                        var,
                    } => {
                        let c = gamma.len();
                        if beta.len() != c || mean.len() != c || var.len() != c {
                            return Err(CoreError::Artifact(format!(
                                "batch-norm step statistics disagree in length: \
                                 gamma {c}, beta {}, mean {}, var {}",
                                beta.len(),
                                mean.len(),
                                var.len()
                            )));
                        }
                        if let Some(expected) = channels.filter(|&e| e != c) {
                            return Err(CoreError::Artifact(format!(
                                "batch-norm step has {c} channels, its input has {expected}"
                            )));
                        }
                    }
                    CompiledStep::Flatten => channels = None,
                    CompiledStep::Residual { body, shortcut } => {
                        let body_channels = check_steps(body, channels)?;
                        if let Some(sc) = shortcut {
                            check_steps(sc, channels)?;
                        }
                        channels = body_channels;
                    }
                    CompiledStep::Relu | CompiledStep::MaxPool(_) | CompiledStep::AvgPool(_) => {}
                }
            }
            Ok(channels)
        }
        check_steps(&self.steps, None)?;
        if let Some(mapping) = &self.mapping {
            mapping.check(dots)?;
        }
        Ok(())
    }

    /// Serializes to the current (v2) binary artifact format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_raw(&ARTIFACT_MAGIC);
        w.put_u32(ARTIFACT_VERSION);
        self.config.encode(&mut w);
        self.ir.encode(&mut w);
        self.binding.encode(&mut w);
        CompiledStep::encode_vec(&self.steps, &mut w);
        self.mapping.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes and validates an artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Artifact`] on a bad magic, an unsupported
    /// format version, malformed bytes, or structural inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let magic = r
            .take(4)
            .map_err(|_| CoreError::Artifact("file too short for magic".to_string()))?;
        if magic != ARTIFACT_MAGIC {
            return Err(CoreError::Artifact(format!(
                "bad magic {magic:?}, expected {ARTIFACT_MAGIC:?} — not a DeepCAM artifact"
            )));
        }
        let version = r.get_u32()?;
        if !(ARTIFACT_MIN_VERSION..=ARTIFACT_VERSION).contains(&version) {
            return Err(CoreError::Artifact(format!(
                "artifact format version {version}, this build reads \
                 {ARTIFACT_MIN_VERSION}..={ARTIFACT_VERSION}"
            )));
        }
        let config = BinCodec::decode(&mut r)?;
        let ir = BinCodec::decode(&mut r)?;
        let binding = BinCodec::decode(&mut r)?;
        let steps = CompiledStep::decode_vec(&mut r, 0)?;
        // v1 artifacts predate the mapping section: decode to `None`, so
        // every pre-change artifact keeps loading and serving unchanged.
        let mapping = if version >= 2 {
            BinCodec::decode(&mut r)?
        } else {
            None
        };
        let model = CompiledModel {
            config,
            ir,
            binding,
            steps,
            mapping,
        };
        r.finish()?;
        model.validate()?;
        Ok(model)
    }

    /// Writes the artifact to `path` (see [`CompiledModel::to_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Artifact`] on I/O failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<()> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes())
            .map_err(|e| CoreError::Artifact(format!("writing {}: {e}", path.display())))
    }

    /// Reads an artifact from `path` (see [`CompiledModel::from_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Artifact`] on I/O failure or any
    /// [`CompiledModel::from_bytes`] condition.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| CoreError::Artifact(format!("reading {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

fn compile_blocks(
    blocks: &[Block],
    cfg: &EngineConfig,
    ir: &LayerIr,
    binding: &PlanBinding,
    idx: &mut usize,
) -> Result<Vec<CompiledStep>> {
    let mut steps = Vec::with_capacity(blocks.len());
    for block in blocks {
        match block {
            Block::Conv(conv) => {
                let tile = CompiledTile::compile(
                    ir.dots[*idx].shape.name.clone(),
                    *idx,
                    binding.k_for(*idx),
                    cfg.seed.wrapping_add(*idx as u64),
                    &conv.weight.value,
                )?;
                steps.push(CompiledStep::Conv {
                    cfg: conv.cfg,
                    tile,
                    bias: conv.bias.value.data().to_vec(),
                });
                *idx += 1;
            }
            Block::Linear(lin) => {
                let tile = CompiledTile::compile(
                    ir.dots[*idx].shape.name.clone(),
                    *idx,
                    binding.k_for(*idx),
                    cfg.seed.wrapping_add(*idx as u64),
                    &lin.weight.value,
                )?;
                steps.push(CompiledStep::Linear {
                    tile,
                    bias: lin.bias.value.data().to_vec(),
                });
                *idx += 1;
            }
            Block::Bn(bn) => steps.push(CompiledStep::Bn {
                gamma: bn.gamma.value.data().to_vec(),
                beta: bn.beta.value.data().to_vec(),
                mean: bn.running_mean.clone(),
                var: bn.running_var.clone(),
            }),
            Block::Relu(_) => steps.push(CompiledStep::Relu),
            Block::MaxPool(p) => steps.push(CompiledStep::MaxPool(p.cfg)),
            Block::AvgPool(p) => steps.push(CompiledStep::AvgPool(p.cfg)),
            Block::Flatten(_) => steps.push(CompiledStep::Flatten),
            Block::Residual(ResBlock { body, shortcut, .. }) => {
                let body_steps = compile_blocks(body, cfg, ir, binding, idx)?;
                let shortcut_steps = match shortcut {
                    Some(s) => Some(compile_blocks(s, cfg, ir, binding, idx)?),
                    None => None,
                };
                steps.push(CompiledStep::Residual {
                    body: body_steps,
                    shortcut: shortcut_steps,
                });
            }
        }
    }
    Ok(steps)
}

impl BinCodec for DotKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            DotKind::Conv => 0,
            DotKind::Linear => 1,
        });
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(DotKind::Conv),
            1 => Ok(DotKind::Linear),
            other => Err(BinError::Invalid(format!("DotKind tag {other}"))),
        }
    }
}

impl BinCodec for DotIr {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.index);
        self.kind.encode(w);
        self.shape.encode(w);
        self.peripherals.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(DotIr {
            index: r.get_usize()?,
            kind: BinCodec::decode(r)?,
            shape: BinCodec::decode(r)?,
            peripherals: BinCodec::decode(r)?,
        })
    }
}

impl BinCodec for LayerIr {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.model_name);
        w.put_str(&self.workload);
        self.preamble.encode(w);
        self.dots.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(LayerIr {
            model_name: r.get_str()?,
            workload: r.get_str()?,
            preamble: BinCodec::decode(r)?,
            dots: BinCodec::decode(r)?,
        })
    }
}

impl BinCodec for CompiledTile {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.layer_idx);
        w.put_str(&self.name);
        w.put_usize(self.n);
        w.put_usize(self.k);
        w.put_u64(self.seed);
        self.packed.encode(w);
        self.norms.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> BinResult<Self> {
        Ok(CompiledTile {
            layer_idx: r.get_usize()?,
            name: r.get_str()?,
            n: r.get_usize()?,
            k: r.get_usize()?,
            seed: r.get_u64()?,
            packed: BinCodec::decode(r)?,
            norms: BinCodec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashplan::HashPlan;
    use deepcam_models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11};
    use deepcam_models::zoo;
    use deepcam_tensor::rng::seeded_rng;

    #[test]
    fn spec_and_cnn_lowerings_agree_on_dot_counts() {
        let mut rng = seeded_rng(0);
        for (cnn, expect) in [
            (scaled_lenet5(&mut rng, 10), 5),
            (scaled_vgg11(&mut rng, 8, 10), 9),
            (scaled_resnet18(&mut rng, 4, 10), 21),
        ] {
            let ir = LayerIr::from_cnn(&cnn).unwrap();
            assert_eq!(ir.len(), expect, "{}", cnn.name);
            assert_eq!(ir.len(), cnn.dot_layer_count());
            for (i, d) in ir.dots.iter().enumerate() {
                assert_eq!(d.index, i);
                assert!(d.shape.p > 0 && d.shape.m > 0 && d.shape.n > 0);
            }
        }
    }

    #[test]
    fn from_spec_is_the_single_spec_lowering() {
        for spec in zoo::all_workloads() {
            let ir = LayerIr::from_spec(&spec);
            let direct = spec.dot_layers();
            assert_eq!(ir.len(), direct.len());
            for (d, raw) in ir.dots.iter().zip(direct.iter()) {
                assert_eq!(&d.shape, raw);
                assert!(d.shape.p > 0);
            }
            // Every non-dot layer of the spec lands in exactly one
            // peripheral list (or the preamble).
            let peripheral_count: usize =
                ir.preamble.len() + ir.dots.iter().map(|d| d.peripherals.len()).sum::<usize>();
            let non_dot = spec.layers.iter().filter(|l| !l.is_dot_layer()).count();
            assert_eq!(peripheral_count, non_dot, "{}", spec.name);
        }
    }

    #[test]
    fn cnn_lowering_names_layers_in_traversal_order() {
        let mut rng = seeded_rng(1);
        let ir = LayerIr::from_cnn(&scaled_lenet5(&mut rng, 10)).unwrap();
        let names: Vec<&str> = ir.dots.iter().map(|d| d.shape.name.as_str()).collect();
        assert_eq!(names, ["conv1", "conv2", "fc1", "fc2", "fc3"]);
    }

    #[test]
    fn cnn_lowering_without_input_is_unsupported() {
        let mut rng = seeded_rng(2);
        let mut model = scaled_lenet5(&mut rng, 10);
        model.input = None;
        assert!(matches!(
            LayerIr::from_cnn(&model),
            Err(CoreError::Unsupported(msg)) if msg.contains("declares no input")
        ));
        assert!(matches!(
            CompiledModel::compile(&model, EngineConfig::default()),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn cnn_lowering_rejects_a_conv_after_flatten() {
        use deepcam_tensor::layer::{Conv2d, Flatten};
        let mut rng = seeded_rng(10);
        let model = Cnn::new(
            "flat-conv",
            vec![
                Block::Flatten(Flatten::new()),
                Block::Conv(Conv2d::new(&mut rng, Conv2dConfig::new(1, 4, 1))),
            ],
            4,
        )
        .with_input(1, 4, 4);
        assert!(matches!(
            LayerIr::from_cnn(&model),
            Err(CoreError::Unsupported(msg)) if msg.contains("conv1 follows 16 flattened")
        ));
    }

    #[test]
    fn cnn_lowering_rejects_inconsistent_input_decl() {
        let mut rng = seeded_rng(3);
        let mut model = scaled_lenet5(&mut rng, 10);
        model.input = Some((3, 28, 28)); // LeNet expects 1 channel
        assert!(matches!(
            LayerIr::from_cnn(&model),
            Err(CoreError::Unsupported(_))
        ));
        // A 2x2 image pools to 1x1 before conv2's 5x5 window: a typed
        // error, not a panic in the shape arithmetic.
        model.input = Some((1, 2, 2));
        assert!(matches!(
            LayerIr::from_cnn(&model),
            Err(CoreError::Unsupported(msg)) if msg.contains("conv2's 5x5 window")
        ));
    }

    #[test]
    fn resnet_lowering_emits_residual_peripherals() {
        let mut rng = seeded_rng(4);
        let ir = LayerIr::from_cnn(&scaled_resnet18(&mut rng, 4, 10)).unwrap();
        // Every residual block contributes an EltwiseAdd peripheral.
        let adds = ir
            .dots
            .iter()
            .flat_map(|d| d.peripherals.iter())
            .filter(|p| matches!(p, LayerSpec::EltwiseAdd { .. }))
            .count();
        assert_eq!(adds, 8); // 4 stages × 2 blocks
    }

    #[test]
    fn compiled_model_exposes_tiles_in_traversal_order() {
        let mut rng = seeded_rng(5);
        let model = scaled_resnet18(&mut rng, 4, 10);
        let compiled = CompiledModel::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        compiled.validate().unwrap();
        let tiles = compiled.tiles();
        assert_eq!(tiles.len(), 21);
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(t.layer_idx, i);
            assert_eq!(t.k, 256);
            assert_eq!(t.kernels(), compiled.ir.dots[i].shape.m);
        }
    }

    #[test]
    fn validate_rejects_corrupted_ir_indices() {
        // Consumers index bindings and tiles by `DotIr::index`; an
        // artifact whose IR indices disagree with traversal order must
        // be rejected at decode, not panic downstream.
        let mut rng = seeded_rng(8);
        let model = scaled_lenet5(&mut rng, 10);
        let mut compiled = CompiledModel::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        compiled.ir.dots[0].index = 1000;
        assert!(matches!(
            compiled.validate(),
            Err(CoreError::Artifact(msg)) if msg.contains("position 0")
        ));
        assert!(matches!(
            CompiledModel::from_bytes(&compiled.to_bytes()),
            Err(CoreError::Artifact(_))
        ));
    }

    #[test]
    fn validate_rejects_a_dot_layer_without_patches() {
        // Every IR lowers from a declared input; an artifact whose dot
        // layer has `p = 0` cannot size the engine's tasks or be costed.
        let mut rng = seeded_rng(11);
        let mut compiled = CompiledModel::compile(
            &scaled_lenet5(&mut rng, 10),
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        compiled.ir.dots[1].shape.p = 0;
        assert!(matches!(
            compiled.validate(),
            Err(CoreError::Artifact(msg)) if msg.contains("dot layer 1 ('conv2')")
        ));
        assert!(matches!(
            CompiledModel::from_bytes(&compiled.to_bytes()),
            Err(CoreError::Artifact(_))
        ));
    }

    #[test]
    fn validate_rejects_batch_norm_that_disagrees_with_its_channels() {
        // VGG11's first conv has 4 kernels; a batch-norm after it with
        // 3 self-consistent entries would index past its vectors at
        // inference, so the artifact must be rejected at decode.
        let mut rng = seeded_rng(9);
        let model = scaled_vgg11(&mut rng, 4, 10);
        let mut compiled = CompiledModel::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let Some(CompiledStep::Bn {
            gamma,
            beta,
            mean,
            var,
        }) = compiled
            .steps
            .iter_mut()
            .find(|s| matches!(s, CompiledStep::Bn { .. }))
        else {
            panic!("VGG11 has batch-norm steps");
        };
        assert_eq!(gamma.len(), 4);
        for v in [gamma, beta, mean, var] {
            v.pop();
        }
        assert!(matches!(
            compiled.validate(),
            Err(CoreError::Artifact(msg)) if msg.contains("3 channels, its input has 4")
        ));
        assert!(matches!(
            CompiledModel::from_bytes(&compiled.to_bytes()),
            Err(CoreError::Artifact(_))
        ));
    }

    #[test]
    fn fused_linear_tag_expands_and_rejects_folded_batch_norm() {
        // Tag 8 without conv geometry is a fused linear step: it expands
        // into `Linear` then `Relu`, and a batch-norm folded into it (no
        // writer ever produced one) is malformed.
        let weight = Tensor::from_vec(
            (0..32).map(|i| i as f32 - 16.0).collect(),
            deepcam_tensor::Shape::new(&[4, 8]),
        )
        .unwrap();
        let tile = CompiledTile::compile("fc1", 0, 256, 7, &weight).unwrap();
        let bias = vec![0.5f32; 4];
        let fused = |with_bn: bool| {
            let mut w = Writer::new();
            w.put_usize(1);
            w.put_u8(8);
            None::<Conv2dConfig>.encode(&mut w);
            tile.encode(&mut w);
            bias.encode(&mut w);
            w.put_bool(with_bn);
            if with_bn {
                for _ in 0..4 {
                    bias.encode(&mut w);
                }
            }
            w.put_bool(true);
            w.into_bytes()
        };
        let steps = CompiledStep::decode_vec(&mut Reader::new(&fused(false)), 0).unwrap();
        assert_eq!(
            steps,
            [
                CompiledStep::Linear {
                    tile: tile.clone(),
                    bias: bias.clone()
                },
                CompiledStep::Relu
            ]
        );
        assert!(matches!(
            CompiledStep::decode_vec(&mut Reader::new(&fused(true)), 0),
            Err(BinError::Invalid(msg)) if msg.contains("without conv geometry")
        ));
    }

    #[test]
    fn artifact_rejects_bad_magic_version_and_truncation() {
        let mut rng = seeded_rng(6);
        let model = scaled_lenet5(&mut rng, 10);
        let compiled = CompiledModel::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let bytes = compiled.to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            CompiledModel::from_bytes(&bad_magic),
            Err(CoreError::Artifact(msg)) if msg.contains("magic")
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            CompiledModel::from_bytes(&bad_version),
            Err(CoreError::Artifact(msg)) if msg.contains("version")
        ));

        for cut in [0, 3, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                CompiledModel::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CompiledModel::from_bytes(&trailing).is_err());
    }

    #[test]
    fn v1_artifact_loads_with_no_mapping() {
        // A v1 artifact decodes with no mapping and re-saves as the
        // current version without changing value.
        let v1 = include_bytes!("../../../tests/data/lenet5_v1.dcam");
        assert_eq!(&v1[4..8], &1u32.to_le_bytes());
        let restored = CompiledModel::from_bytes(v1).unwrap();
        assert!(restored.mapping.is_none());
        let v2 = restored.to_bytes();
        assert_eq!(&v2[4..8], &ARTIFACT_VERSION.to_le_bytes());
        assert_eq!(CompiledModel::from_bytes(&v2).unwrap(), restored);
    }

    #[test]
    fn artifact_round_trips_exactly() {
        let mut rng = seeded_rng(7);
        let model = scaled_lenet5(&mut rng, 10);
        let compiled = CompiledModel::compile(
            &model,
            EngineConfig {
                plan: HashPlan::PerLayer(vec![256, 512, 256, 768, 1024]),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let restored = CompiledModel::from_bytes(&compiled.to_bytes()).unwrap();
        assert_eq!(compiled, restored);
    }
}
