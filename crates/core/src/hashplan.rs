//! Hash-length assignment across a network's dot-product layers.
//!
//! The paper's *variable hash length encoding strategy* (§III-A, Fig. 5):
//! every CNN layer gets the minimum hash length that preserves accuracy,
//! instead of provisioning the worst-case length everywhere. The CAM's
//! chunked word (256/512/768/1024 bits) provides the discrete choices.

use deepcam_hash::SUPPORTED_HASH_LENGTHS;

use crate::error::CoreError;
use crate::ir::LayerIr;
use crate::Result;

/// A hash length for every dot-product layer of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HashPlan {
    /// The same length for all layers (the Fig. 10 baselines: 256-bit
    /// "DeepCAM-256", 1024-bit "Max DeepCAM").
    Uniform(usize),
    /// One length per dot-product layer, in execution order (the paper's
    /// VHL configuration).
    PerLayer(Vec<usize>),
}

impl HashPlan {
    /// The paper's homogeneous minimal configuration (Fig. 10 baseline).
    pub fn uniform_min() -> Self {
        HashPlan::Uniform(256)
    }

    /// "Max DeepCAM": homogeneous 1024-bit words.
    pub fn uniform_max() -> Self {
        HashPlan::Uniform(1024)
    }

    /// A shape-driven variable plan for weight-free model specs, where no
    /// accuracy search is possible: longer patch vectors get longer
    /// hashes. Rationale: the Hamming angle estimator's resolution must
    /// cover the richer angular structure of high-dimensional patches,
    /// and this matches the qualitative Fig. 5 finding that wide middle
    /// layers need longer hashes than narrow early/late layers.
    ///
    /// Thresholds map im2col length `n` to `{256, 512, 768, 1024}` at
    /// `n ≤ 128 / ≤ 1152 / ≤ 2560 / larger`.
    pub fn variable_for_dims(patch_lens: &[usize]) -> Self {
        HashPlan::PerLayer(
            patch_lens
                .iter()
                .map(|&n| {
                    if n <= 128 {
                        256
                    } else if n <= 1152 {
                        512
                    } else if n <= 2560 {
                        768
                    } else {
                        1024
                    }
                })
                .collect(),
        )
    }

    /// The hash length for dot-product layer `layer` (0-based, execution
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] when a per-layer plan is too
    /// short for the requested index.
    pub fn length_for(&self, layer: usize) -> Result<usize> {
        match self {
            HashPlan::Uniform(k) => Ok(*k),
            HashPlan::PerLayer(ks) => ks.get(layer).copied().ok_or_else(|| {
                CoreError::InvalidPlan(format!(
                    "plan has {} entries, layer {layer} requested",
                    ks.len()
                ))
            }),
        }
    }

    /// Returns `true` when `k` is a CAM-supported hash width — the one
    /// membership rule shared by [`HashPlan::validate`] and
    /// [`HashPlan::bind`].
    fn width_supported(k: usize) -> bool {
        SUPPORTED_HASH_LENGTHS.contains(&k)
    }

    /// Validates every length against the CAM-supported set and (for
    /// per-layer plans) the expected layer count.
    ///
    /// Prefer [`HashPlan::bind`] when a lowered [`LayerIr`] is at hand;
    /// its messages name real layers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] with a description of the first
    /// violation.
    pub fn validate(&self, expected_layers: usize) -> Result<()> {
        match self {
            HashPlan::Uniform(k) => {
                if !Self::width_supported(*k) {
                    return Err(CoreError::InvalidPlan(format!(
                        "uniform hash length {k} not in {SUPPORTED_HASH_LENGTHS:?}"
                    )));
                }
            }
            HashPlan::PerLayer(ks) => {
                if ks.len() != expected_layers {
                    return Err(CoreError::InvalidPlan(format!(
                        "plan has {} entries for a {expected_layers}-layer model",
                        ks.len()
                    )));
                }
                for (i, &k) in ks.iter().enumerate() {
                    if !Self::width_supported(k) {
                        return Err(CoreError::InvalidPlan(format!(
                            "hash length {k} at dot layer {i} not in {SUPPORTED_HASH_LENGTHS:?}"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Mean hash length over `layers` layers (diagnostic; drives the
    /// headline energy saving).
    pub fn mean_length(&self, layers: usize) -> f64 {
        match self {
            HashPlan::Uniform(k) => *k as f64,
            HashPlan::PerLayer(ks) => {
                if ks.is_empty() {
                    0.0
                } else {
                    ks.iter().take(layers.max(1)).sum::<usize>() as f64
                        / ks.len().min(layers.max(1)) as f64
                }
            }
        }
    }

    /// Short label for figure legends.
    pub fn label(&self) -> String {
        match self {
            HashPlan::Uniform(k) => format!("uniform-{k}"),
            HashPlan::PerLayer(_) => "variable".to_string(),
        }
    }

    /// Resolves this plan against a lowered model: validates every length
    /// and the layer count, and returns the per-layer assignment.
    ///
    /// This is the one place plans meet models in the compilation
    /// pipeline (`ModelSpec`/`Cnn` → [`LayerIr`] → [`PlanBinding`] →
    /// [`CompiledModel`](crate::ir::CompiledModel)); every violation
    /// message names the offending dot layer by index *and* lowered name.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidPlan`] describing the first violation.
    pub fn bind(&self, ir: &LayerIr) -> Result<PlanBinding> {
        let layers = ir.dots.len();
        let ks: Vec<usize> = match self {
            HashPlan::Uniform(k) => {
                if !Self::width_supported(*k) {
                    return Err(CoreError::InvalidPlan(format!(
                        "uniform hash length {k} not in {SUPPORTED_HASH_LENGTHS:?}"
                    )));
                }
                vec![*k; layers]
            }
            HashPlan::PerLayer(ks) => {
                if ks.len() != layers {
                    return Err(CoreError::InvalidPlan(format!(
                        "plan has {} entries but model '{}' has {layers} dot layers",
                        ks.len(),
                        ir.model_name
                    )));
                }
                for (i, &k) in ks.iter().enumerate() {
                    if !Self::width_supported(k) {
                        return Err(CoreError::InvalidPlan(format!(
                            "hash length {k} at dot layer {i} ('{}') not in \
                             {SUPPORTED_HASH_LENGTHS:?}",
                            ir.dots[i].shape.name
                        )));
                    }
                }
                ks.clone()
            }
        };
        Ok(PlanBinding { ks })
    }
}

/// A [`HashPlan`] resolved and validated against a lowered model: exactly
/// one supported hash length per dot layer, in traversal order.
///
/// Produced by [`HashPlan::bind`]; consumed by the engine compiler, the
/// scheduler ([`crate::sched::CamScheduler::run_ir`]) and the auto-tuner.
/// Holding a `PlanBinding` is proof the plan fits the model it was bound
/// against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanBinding {
    ks: Vec<usize>,
}

impl PlanBinding {
    /// The bound length of every dot layer, traversal order.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// The bound hash length of dot layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range — a binding always covers the
    /// model it was bound against.
    pub fn k_for(&self, layer: usize) -> usize {
        self.ks[layer]
    }

    /// Number of dot layers covered.
    pub fn len(&self) -> usize {
        self.ks.len()
    }

    /// Returns `true` for a zero-layer binding.
    pub fn is_empty(&self) -> bool {
        self.ks.is_empty()
    }

    /// Mean bound hash length (drives the headline energy saving).
    pub fn mean_length(&self) -> f64 {
        if self.ks.is_empty() {
            0.0
        } else {
            self.ks.iter().sum::<usize>() as f64 / self.ks.len() as f64
        }
    }

    /// The binding as an explicit per-layer plan.
    pub fn to_plan(&self) -> HashPlan {
        HashPlan::PerLayer(self.ks.clone())
    }
}

impl serde::bin::BinCodec for HashPlan {
    fn encode(&self, w: &mut serde::bin::Writer) {
        match self {
            HashPlan::Uniform(k) => {
                w.put_u8(0);
                w.put_usize(*k);
            }
            HashPlan::PerLayer(ks) => {
                w.put_u8(1);
                ks.encode(w);
            }
        }
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(HashPlan::Uniform(r.get_usize()?)),
            1 => Ok(HashPlan::PerLayer(serde::bin::BinCodec::decode(r)?)),
            other => Err(serde::bin::BinError::Invalid(format!(
                "HashPlan tag {other}"
            ))),
        }
    }
}

impl serde::bin::BinCodec for PlanBinding {
    fn encode(&self, w: &mut serde::bin::Writer) {
        self.ks.encode(w);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        Ok(PlanBinding {
            ks: serde::bin::BinCodec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_lengths() {
        let p = HashPlan::Uniform(512);
        assert_eq!(p.length_for(0).unwrap(), 512);
        assert_eq!(p.length_for(99).unwrap(), 512);
        assert!(p.validate(5).is_ok());
    }

    #[test]
    fn unsupported_length_rejected() {
        assert!(HashPlan::Uniform(300).validate(3).is_err());
        assert!(HashPlan::PerLayer(vec![256, 300]).validate(2).is_err());
    }

    #[test]
    fn per_layer_count_checked() {
        let p = HashPlan::PerLayer(vec![256, 512]);
        assert!(p.validate(3).is_err());
        assert!(p.validate(2).is_ok());
        assert!(p.length_for(2).is_err());
    }

    #[test]
    fn variable_for_dims_thresholds() {
        let p = HashPlan::variable_for_dims(&[25, 150, 1152, 2304, 4608]);
        match p {
            HashPlan::PerLayer(ks) => assert_eq!(ks, vec![256, 512, 512, 768, 1024]),
            _ => panic!("expected per-layer plan"),
        }
    }

    #[test]
    fn mean_length() {
        assert_eq!(HashPlan::Uniform(256).mean_length(4), 256.0);
        let p = HashPlan::PerLayer(vec![256, 768]);
        assert_eq!(p.mean_length(2), 512.0);
    }

    #[test]
    fn labels() {
        assert_eq!(HashPlan::uniform_max().label(), "uniform-1024");
        assert_eq!(HashPlan::PerLayer(vec![256]).label(), "variable");
    }

    fn toy_ir(names: &[&str]) -> crate::ir::LayerIr {
        use deepcam_models::DotLayer;
        crate::ir::LayerIr {
            model_name: "ToyNet".into(),
            workload: "ToyNet".into(),
            preamble: Vec::new(),
            dots: names
                .iter()
                .enumerate()
                .map(|(index, name)| crate::ir::DotIr {
                    index,
                    kind: crate::ir::DotKind::Linear,
                    shape: DotLayer {
                        name: (*name).to_string(),
                        p: 1,
                        m: 4,
                        n: 8,
                        input_elems: 8,
                    },
                    peripherals: Vec::new(),
                })
                .collect(),
        }
    }

    #[test]
    fn bind_produces_per_layer_assignment() {
        let ir = toy_ir(&["conv1", "fc1"]);
        let b = HashPlan::Uniform(512).bind(&ir).unwrap();
        assert_eq!(b.ks(), &[512, 512]);
        assert_eq!(b.k_for(1), 512);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.mean_length(), 512.0);
        assert_eq!(b.to_plan(), HashPlan::PerLayer(vec![512, 512]));
        let v = HashPlan::PerLayer(vec![256, 1024]).bind(&ir).unwrap();
        assert_eq!(v.mean_length(), 640.0);
    }

    #[test]
    fn bind_error_names_offending_layer() {
        let ir = toy_ir(&["conv1", "conv2", "fc1"]);
        let err = HashPlan::PerLayer(vec![256, 300, 512])
            .bind(&ir)
            .unwrap_err();
        match err {
            CoreError::InvalidPlan(msg) => {
                assert!(msg.contains("hash length 300"), "{msg}");
                assert!(msg.contains("dot layer 1"), "{msg}");
                assert!(msg.contains("'conv2'"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn bind_error_names_model_on_count_mismatch() {
        let ir = toy_ir(&["conv1", "conv2", "fc1"]);
        let err = HashPlan::PerLayer(vec![256]).bind(&ir).unwrap_err();
        match err {
            CoreError::InvalidPlan(msg) => {
                assert!(msg.contains("plan has 1 entries"), "{msg}");
                assert!(msg.contains("'ToyNet'"), "{msg}");
                assert!(msg.contains("3 dot layers"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    #[test]
    fn bind_error_for_unsupported_uniform() {
        let ir = toy_ir(&["fc1"]);
        let err = HashPlan::Uniform(100).bind(&ir).unwrap_err();
        match err {
            CoreError::InvalidPlan(msg) => {
                assert!(msg.contains("uniform hash length 100"), "{msg}");
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }
}
