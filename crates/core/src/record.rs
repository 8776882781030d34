//! Per-step and per-phase timing of one inference pass, handed back by
//! [`DeepCamEngine::infer_recorded`](crate::DeepCamEngine::infer_recorded).
//!
//! A [`Recording`] holds the wall time of every top-level pipeline step
//! and, per dot layer, a [`DotRecord`]: the step's wall time and rows on
//! both datapaths, and on the fast path the four phases of its 64-row
//! sub-blocks plus their counters. The engine owns nothing global: the
//! recording lives in the caller's stack frame for one pass.
//!
//! The sub-block loop is generic over a `Probe`: `Timed` charges each
//! phase to a [`DotRecord`], and `()` compiles every report away, so an
//! unrecorded pass pays one branch per dot step and worker. `now` is the
//! only reader of the host clock in this crate.
//!
//! ```
//! use deepcam_core::{Datapath, DeepCamEngine, EngineConfig, HashPlan};
//! use deepcam_models::scaled::scaled_lenet5;
//! use deepcam_tensor::rng::seeded_rng;
//! use deepcam_tensor::{Shape, Tensor};
//!
//! let model = scaled_lenet5(&mut seeded_rng(0), 10);
//! let cfg = EngineConfig { plan: HashPlan::Uniform(256), ..EngineConfig::default() };
//! let engine = DeepCamEngine::compile(&model, cfg)?;
//! let batch = Tensor::zeros(Shape::new(&[1, 1, 28, 28]));
//! let (logits, rec) = engine.infer_recorded(&batch, Datapath::Fast)?;
//! assert_eq!(logits.data(), engine.infer(&batch)?.data());
//! assert_eq!(rec.dots.len(), engine.dot_layers());
//! # Ok::<(), deepcam_core::CoreError>(())
//! ```

use std::time::{Duration, Instant};

use crate::engine::Datapath;

/// What one recorded inference pass measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Recording {
    /// The datapath the pass ran.
    pub datapath: Datapath,
    /// Wall time of every top-level step, in pipeline order.
    pub steps: Vec<Duration>,
    /// One record per dot layer, in traversal order.
    pub dots: Vec<DotRecord>,
}

impl Recording {
    /// The pass's wall time: the sum of its top-level steps.
    pub fn wall(&self) -> Duration {
        self.steps.iter().sum()
    }

    /// The time the recording attributes to a phase or a non-dot step:
    /// the dot layers' phases plus the step time outside dot layers. On
    /// a serial fast pass this is nearly all of [`Recording::wall`]; the
    /// rest is the dot steps' setup outside their sub-block loops.
    pub fn accounted(&self) -> Duration {
        let dot_wall: Duration = self.dots.iter().map(|d| d.wall).sum();
        let phases: Duration = self.dots.iter().map(DotRecord::phases).sum();
        self.wall().saturating_sub(dot_wall) + phases
    }
}

/// One dot layer of a recorded pass.
///
/// Phases and counters are zero on the reference datapath, which has no
/// sub-blocks (all but `nonzero_macs`). A layer whose `rows·n·k`
/// multiply-adds outweigh the pool hand-off splits its rows into `tasks`
/// ranges on the pool; each phase is then summed over the tasks, so the
/// phases may exceed `wall`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DotRecord {
    /// Dot-layer traversal index.
    pub layer: usize,
    /// Patch rows hashed (images × output positions).
    pub rows: usize,
    /// Row ranges the fast path split the layer into: 1 on the calling
    /// thread, more on the pool (0 on the reference datapath).
    pub tasks: usize,
    /// Wall time of the whole dot step.
    pub wall: Duration,
    /// Fused-tile projection (the rows' bases, the patch norms and the
    /// group lists), with the tile epilogue that compares each finished
    /// tile against the sign certificate and
    /// packs the sign words.
    pub project: Duration,
    /// The exact fix-up of the lanes the certificate left uncertain and
    /// the norm quantization.
    pub certify: Duration,
    /// The Hamming tile against every kernel.
    pub hamming: Duration,
    /// Cosine LUT, norms, bias and the store into the output planes.
    pub lut: Duration,
    /// 64-row sub-blocks hashed.
    pub sub_blocks: usize,
    /// Hash lanes whose sign the bound did not prove, recomputed exactly.
    pub recomputed_lanes: usize,
    /// Multiply-adds the projection tiles executed: `Σ |list|·rows·k`
    /// over every group of rows, its union list's length times its rows.
    pub macs: usize,
    /// Multiply-adds the projection needs: the im2col matrix's non-zero
    /// entries times `k`. A property of the layer's input, set on both
    /// datapaths; `macs / nonzero_macs` is what the group unions add.
    pub nonzero_macs: usize,
}

impl DotRecord {
    /// The sum of the four phases.
    pub fn phases(&self) -> Duration {
        self.project + self.certify + self.hamming + self.lut
    }

    /// Adds one worker's phases and counters.
    pub(crate) fn absorb(&mut self, part: &DotRecord) {
        self.project += part.project;
        self.certify += part.certify;
        self.hamming += part.hamming;
        self.lut += part.lut;
        self.sub_blocks += part.sub_blocks;
        self.recomputed_lanes += part.recomputed_lanes;
        self.macs += part.macs;
    }
}

/// Reads the host clock.
// analyze: allow(determinism, "the recorder's one clock read; it feeds timings only, never a computed value")
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// What a dot step's sub-block loop reports to.
pub(crate) trait Probe {
    /// Ends a phase: the time since the previous boundary goes to the
    /// field `phase` picks.
    fn lap(&mut self, phase: fn(&mut DotRecord) -> &mut Duration);
    /// Counts one sub-block: the lanes it recomputed and the
    /// multiply-adds its projection ran.
    fn block(&mut self, recomputed: usize, macs: usize);
}

/// Nothing records.
impl Probe for () {
    #[inline(always)]
    fn lap(&mut self, _: fn(&mut DotRecord) -> &mut Duration) {}

    #[inline(always)]
    fn block(&mut self, _: usize, _: usize) {}
}

/// Charges phases and counts to one worker's [`DotRecord`]; what runs
/// before the first lap is the first phase's.
pub(crate) struct Timed<'r> {
    pub(crate) rec: &'r mut DotRecord,
    pub(crate) last: Instant,
}

impl Probe for Timed<'_> {
    fn lap(&mut self, phase: fn(&mut DotRecord) -> &mut Duration) {
        let t = now();
        *phase(self.rec) += t - self.last;
        self.last = t;
    }

    fn block(&mut self, recomputed: usize, macs: usize) {
        self.rec.sub_blocks += 1;
        self.rec.recomputed_lanes += recomputed;
        self.rec.macs += macs;
    }
}
