//! Layer-shape specifications for performance and energy modelling.
//!
//! A [`ModelSpec`] is the weight-free description of a CNN: enough to
//! compute MAC counts, im2col geometry, and the CAM mapping quantities
//! used by every scheduler — how many dot-products a layer performs
//! (`P`), against how many kernels (`M`), at what vector length (`n`).

/// 2-D convolution shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvSpec {
    /// Layer name, e.g. `"conv1"`.
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (kernels, `M`).
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Padding.
    pub padding: usize,
    /// Input feature-map height.
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
}

impl ConvSpec {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output spatial positions per image: `P = OH·OW`.
    pub fn positions(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// im2col patch length: `n = C·K·K`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Multiply-accumulates per image.
    pub fn macs(&self) -> u64 {
        self.positions() as u64 * self.out_channels as u64 * self.patch_len() as u64
    }
}

/// Fully-connected layer shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinearSpec {
    /// Layer name, e.g. `"fc1"`.
    pub name: String,
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

impl LinearSpec {
    /// MACs per image.
    pub fn macs(&self) -> u64 {
        self.in_features as u64 * self.out_features as u64
    }
}

/// Pooling kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling.
    Max,
    /// Average pooling (including global average pooling).
    Avg,
}

/// Pooling layer shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Max or average.
    pub kind: PoolKind,
    /// Window (= stride; non-overlapping, as in all four workloads).
    pub kernel: usize,
    /// Channels passing through.
    pub channels: usize,
    /// Input feature-map height.
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
}

impl PoolSpec {
    /// Output elements per image.
    pub fn out_elements(&self) -> usize {
        self.channels * (self.in_h / self.kernel) * (self.in_w / self.kernel)
    }

    /// Comparison/add operations per image (window size per output).
    pub fn ops(&self) -> u64 {
        (self.out_elements() * self.kernel * self.kernel) as u64
    }
}

/// One layer of a model spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// Convolution (a dot-product layer).
    Conv(ConvSpec),
    /// Fully-connected (a dot-product layer).
    Linear(LinearSpec),
    /// Pooling.
    Pool(PoolSpec),
    /// Batch normalization over `elements` activations.
    BatchNorm {
        /// Activations normalized per image.
        elements: usize,
    },
    /// Element-wise activation over `elements` activations.
    Activation {
        /// Activations touched per image.
        elements: usize,
    },
    /// Residual skip-connection addition over `elements` activations.
    EltwiseAdd {
        /// Elements added per image.
        elements: usize,
    },
}

impl LayerSpec {
    /// MACs per image (zero for non-dot-product layers).
    pub fn macs(&self) -> u64 {
        match self {
            LayerSpec::Conv(c) => c.macs(),
            LayerSpec::Linear(l) => l.macs(),
            _ => 0,
        }
    }

    /// Returns `true` for layers whose dot-products DeepCAM offloads to
    /// the CAM (conv and linear).
    pub fn is_dot_layer(&self) -> bool {
        matches!(self, LayerSpec::Conv(_) | LayerSpec::Linear(_))
    }
}

/// The CAM-mapping view of one dot-product layer: `P` input vectors
/// against `M` kernel vectors of length `n`.
///
/// * Convolution: `P` = output positions, `M` = kernels, `n` = patch len.
/// * Linear: `P` = 1 (one input vector per image), `M` = output neurons,
///   `n` = input features.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DotLayer {
    /// Source layer name.
    pub name: String,
    /// Number of input (activation) vectors per image.
    pub p: usize,
    /// Number of kernel (weight) vectors.
    pub m: usize,
    /// Vector length before hashing.
    pub n: usize,
    /// Unique input activations feeding the layer (`C·H·W` for a conv —
    /// smaller than `p·n` because im2col duplicates overlapping pixels).
    /// Memory-traffic models charge DRAM per unique element.
    pub input_elems: usize,
}

impl DotLayer {
    /// Dot products per image: `P·M`.
    pub fn dot_products(&self) -> u64 {
        self.p as u64 * self.m as u64
    }

    /// MACs per image.
    pub fn macs(&self) -> u64 {
        self.dot_products() * self.n as u64
    }
}

impl serde::bin::BinCodec for ConvSpec {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_str(&self.name);
        w.put_usize(self.in_channels);
        w.put_usize(self.out_channels);
        w.put_usize(self.kernel);
        w.put_usize(self.stride);
        w.put_usize(self.padding);
        w.put_usize(self.in_h);
        w.put_usize(self.in_w);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        Ok(ConvSpec {
            name: r.get_str()?,
            in_channels: r.get_usize()?,
            out_channels: r.get_usize()?,
            kernel: r.get_usize()?,
            stride: r.get_usize()?,
            padding: r.get_usize()?,
            in_h: r.get_usize()?,
            in_w: r.get_usize()?,
        })
    }
}

impl serde::bin::BinCodec for LinearSpec {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_str(&self.name);
        w.put_usize(self.in_features);
        w.put_usize(self.out_features);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        Ok(LinearSpec {
            name: r.get_str()?,
            in_features: r.get_usize()?,
            out_features: r.get_usize()?,
        })
    }
}

impl serde::bin::BinCodec for PoolSpec {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_u8(match self.kind {
            PoolKind::Max => 0,
            PoolKind::Avg => 1,
        });
        w.put_usize(self.kernel);
        w.put_usize(self.channels);
        w.put_usize(self.in_h);
        w.put_usize(self.in_w);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        let kind = match r.get_u8()? {
            0 => PoolKind::Max,
            1 => PoolKind::Avg,
            other => {
                return Err(serde::bin::BinError::Invalid(format!(
                    "PoolKind tag {other}"
                )))
            }
        };
        Ok(PoolSpec {
            kind,
            kernel: r.get_usize()?,
            channels: r.get_usize()?,
            in_h: r.get_usize()?,
            in_w: r.get_usize()?,
        })
    }
}

impl serde::bin::BinCodec for LayerSpec {
    fn encode(&self, w: &mut serde::bin::Writer) {
        match self {
            LayerSpec::Conv(c) => {
                w.put_u8(0);
                c.encode(w);
            }
            LayerSpec::Linear(l) => {
                w.put_u8(1);
                l.encode(w);
            }
            LayerSpec::Pool(p) => {
                w.put_u8(2);
                p.encode(w);
            }
            LayerSpec::BatchNorm { elements } => {
                w.put_u8(3);
                w.put_usize(*elements);
            }
            LayerSpec::Activation { elements } => {
                w.put_u8(4);
                w.put_usize(*elements);
            }
            LayerSpec::EltwiseAdd { elements } => {
                w.put_u8(5);
                w.put_usize(*elements);
            }
        }
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        match r.get_u8()? {
            0 => Ok(LayerSpec::Conv(serde::bin::BinCodec::decode(r)?)),
            1 => Ok(LayerSpec::Linear(serde::bin::BinCodec::decode(r)?)),
            2 => Ok(LayerSpec::Pool(serde::bin::BinCodec::decode(r)?)),
            3 => Ok(LayerSpec::BatchNorm {
                elements: r.get_usize()?,
            }),
            4 => Ok(LayerSpec::Activation {
                elements: r.get_usize()?,
            }),
            5 => Ok(LayerSpec::EltwiseAdd {
                elements: r.get_usize()?,
            }),
            other => Err(serde::bin::BinError::Invalid(format!(
                "LayerSpec tag {other}"
            ))),
        }
    }
}

impl serde::bin::BinCodec for DotLayer {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_str(&self.name);
        w.put_usize(self.p);
        w.put_usize(self.m);
        w.put_usize(self.n);
        w.put_usize(self.input_elems);
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        Ok(DotLayer {
            name: r.get_str()?,
            p: r.get_usize()?,
            m: r.get_usize()?,
            n: r.get_usize()?,
            input_elems: r.get_usize()?,
        })
    }
}

/// A complete weight-free model description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSpec {
    /// Model name, e.g. `"VGG11"`.
    pub name: String,
    /// Dataset label, e.g. `"CIFAR10"` (as in the paper's workload pairs).
    pub dataset: String,
    /// Input `(channels, height, width)`.
    pub input: (usize, usize, usize),
    /// Classifier classes.
    pub num_classes: usize,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl ModelSpec {
    /// Total MACs per image.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs()).sum()
    }

    /// The dot-product layers in CAM-mapping form, execution order.
    pub fn dot_layers(&self) -> Vec<DotLayer> {
        self.layers
            .iter()
            .filter_map(|l| match l {
                LayerSpec::Conv(c) => Some(DotLayer {
                    name: c.name.clone(),
                    p: c.positions(),
                    m: c.out_channels,
                    n: c.patch_len(),
                    input_elems: c.in_channels * c.in_h * c.in_w,
                }),
                LayerSpec::Linear(l) => Some(DotLayer {
                    name: l.name.clone(),
                    p: 1,
                    m: l.out_features,
                    n: l.in_features,
                    input_elems: l.in_features,
                }),
                _ => None,
            })
            .collect()
    }

    /// `"name dataset"` workload label used in figures.
    pub fn workload(&self) -> String {
        format!("{} {}", self.name, self.dataset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(in_c: usize, out_c: usize, k: usize, s: usize, p: usize, h: usize) -> ConvSpec {
        ConvSpec {
            name: "c".into(),
            in_channels: in_c,
            out_channels: out_c,
            kernel: k,
            stride: s,
            padding: p,
            in_h: h,
            in_w: h,
        }
    }

    #[test]
    fn conv_geometry() {
        let c = conv(1, 6, 5, 1, 0, 32);
        assert_eq!((c.out_h(), c.out_w()), (28, 28));
        assert_eq!(c.positions(), 784);
        assert_eq!(c.patch_len(), 25);
        assert_eq!(c.macs(), 784 * 6 * 25);
    }

    #[test]
    fn strided_padded_conv() {
        let c = conv(64, 128, 3, 2, 1, 32);
        assert_eq!(c.out_h(), 16);
        assert_eq!(c.patch_len(), 576);
    }

    #[test]
    fn linear_macs() {
        let l = LinearSpec {
            name: "fc".into(),
            in_features: 120,
            out_features: 84,
        };
        assert_eq!(l.macs(), 10_080);
    }

    #[test]
    fn dot_layers_extract_conv_and_linear() {
        let spec = ModelSpec {
            name: "T".into(),
            dataset: "D".into(),
            input: (1, 8, 8),
            num_classes: 2,
            layers: vec![
                LayerSpec::Conv(conv(1, 4, 3, 1, 1, 8)),
                LayerSpec::Activation { elements: 256 },
                LayerSpec::Linear(LinearSpec {
                    name: "fc".into(),
                    in_features: 256,
                    out_features: 2,
                }),
            ],
        };
        let dots = spec.dot_layers();
        assert_eq!(dots.len(), 2);
        assert_eq!(dots[0].p, 64);
        assert_eq!(dots[0].m, 4);
        assert_eq!(dots[0].n, 9);
        assert_eq!(dots[1].p, 1);
        assert_eq!(dots[1].m, 2);
        assert_eq!(dots[1].n, 256);
        assert_eq!(spec.total_macs(), 64 * 4 * 9 + 512);
    }

    #[test]
    fn pool_ops() {
        let p = PoolSpec {
            kind: PoolKind::Max,
            kernel: 2,
            channels: 16,
            in_h: 10,
            in_w: 10,
        };
        assert_eq!(p.out_elements(), 16 * 25);
        assert_eq!(p.ops(), 16 * 25 * 4);
    }
}
