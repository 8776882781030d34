//! Full-size shape specs of the paper's four workloads (Table I).
//!
//! These match the standard CIFAR-style definitions the paper evaluates:
//! LeNet5 on 32×32 MNIST (the classic zero-padded variant), VGG11/VGG16
//! with 3×3 convolutions and a single 512→classes classifier head (the
//! common CIFAR adaptation), and the CIFAR ResNet18 with a 3×3 stem.
//! Weights never appear here — cycles and energy depend only on geometry.

use crate::spec::{ConvSpec, LayerSpec, LinearSpec, ModelSpec, PoolKind, PoolSpec};

fn conv(name: &str, in_c: usize, out_c: usize, k: usize, s: usize, p: usize, h: usize) -> ConvSpec {
    ConvSpec {
        name: name.to_string(),
        in_channels: in_c,
        out_channels: out_c,
        kernel: k,
        stride: s,
        padding: p,
        in_h: h,
        in_w: h,
    }
}

fn push_conv_bn_relu(layers: &mut Vec<LayerSpec>, c: ConvSpec) -> usize {
    let out_elems = c.positions() * c.out_channels;
    let out_h = c.out_h();
    layers.push(LayerSpec::Conv(c));
    layers.push(LayerSpec::BatchNorm {
        elements: out_elems,
    });
    layers.push(LayerSpec::Activation {
        elements: out_elems,
    });
    out_h
}

/// Classic LeNet5 for 32×32 MNIST (~416k MACs, ~62k parameters).
pub fn lenet5() -> ModelSpec {
    let mut layers = vec![
        // conv1: 1→6 k5 on 32×32 → 28×28
        LayerSpec::Conv(conv("conv1", 1, 6, 5, 1, 0, 32)),
        LayerSpec::Activation {
            elements: 6 * 28 * 28,
        },
    ];
    layers.push(LayerSpec::Pool(PoolSpec {
        kind: PoolKind::Avg,
        kernel: 2,
        channels: 6,
        in_h: 28,
        in_w: 28,
    }));
    // conv2: 6→16 k5 on 14×14 → 10×10
    layers.push(LayerSpec::Conv(conv("conv2", 6, 16, 5, 1, 0, 14)));
    layers.push(LayerSpec::Activation {
        elements: 16 * 10 * 10,
    });
    layers.push(LayerSpec::Pool(PoolSpec {
        kind: PoolKind::Avg,
        kernel: 2,
        channels: 16,
        in_h: 10,
        in_w: 10,
    }));
    // conv3: 16→120 k5 on 5×5 → 1×1 (the "C5" layer)
    layers.push(LayerSpec::Conv(conv("conv3", 16, 120, 5, 1, 0, 5)));
    layers.push(LayerSpec::Activation { elements: 120 });
    layers.push(LayerSpec::Linear(LinearSpec {
        name: "fc1".into(),
        in_features: 120,
        out_features: 84,
    }));
    layers.push(LayerSpec::Activation { elements: 84 });
    layers.push(LayerSpec::Linear(LinearSpec {
        name: "fc2".into(),
        in_features: 84,
        out_features: 10,
    }));
    ModelSpec {
        name: "LeNet5".into(),
        dataset: "MNIST".into(),
        input: (1, 32, 32),
        num_classes: 10,
        layers,
    }
}

fn vgg(name: &str, dataset: &str, plan: &[usize], num_classes: usize) -> ModelSpec {
    // `plan` entries: channel count for a conv, or 0 for a max-pool.
    let mut layers = Vec::new();
    let mut in_c = 3usize;
    let mut h = 32usize;
    let mut conv_idx = 0usize;
    for &entry in plan {
        if entry == 0 {
            layers.push(LayerSpec::Pool(PoolSpec {
                kind: PoolKind::Max,
                kernel: 2,
                channels: in_c,
                in_h: h,
                in_w: h,
            }));
            h /= 2;
        } else {
            conv_idx += 1;
            push_conv_bn_relu(
                &mut layers,
                conv(&format!("conv{conv_idx}"), in_c, entry, 3, 1, 1, h),
            );
            in_c = entry;
        }
    }
    layers.push(LayerSpec::Linear(LinearSpec {
        name: "fc".into(),
        in_features: in_c,
        out_features: num_classes,
    }));
    ModelSpec {
        name: name.into(),
        dataset: dataset.into(),
        input: (3, 32, 32),
        num_classes,
        layers,
    }
}

/// VGG11 for CIFAR10 (~153M MACs).
pub fn vgg11() -> ModelSpec {
    vgg(
        "VGG11",
        "CIFAR10",
        &[64, 0, 128, 0, 256, 256, 0, 512, 512, 0, 512, 512, 0],
        10,
    )
}

/// VGG16 for CIFAR100 (~313M MACs).
pub fn vgg16() -> ModelSpec {
    vgg(
        "VGG16",
        "CIFAR100",
        &[
            64, 64, 0, 128, 128, 0, 256, 256, 256, 0, 512, 512, 512, 0, 512, 512, 512, 0,
        ],
        100,
    )
}

/// CIFAR-style ResNet18 for CIFAR100 (~555M MACs).
pub fn resnet18() -> ModelSpec {
    let mut layers = Vec::new();
    let mut h = 32usize;
    // Stem.
    push_conv_bn_relu(&mut layers, conv("conv1", 3, 64, 3, 1, 1, h));
    let mut in_c = 64usize;
    let mut block_idx = 0usize;
    // Four stages of two BasicBlocks each.
    for &(out_c, first_stride) in &[(64usize, 1usize), (128, 2), (256, 2), (512, 2)] {
        for b in 0..2 {
            block_idx += 1;
            let stride = if b == 0 { first_stride } else { 1 };
            let name_a = format!("layer{block_idx}a");
            let name_b = format!("layer{block_idx}b");
            let ca = conv(&name_a, in_c, out_c, 3, stride, 1, h);
            let out_h = ca.out_h();
            let out_elems = out_c * out_h * out_h;
            layers.push(LayerSpec::Conv(ca));
            layers.push(LayerSpec::BatchNorm {
                elements: out_elems,
            });
            layers.push(LayerSpec::Activation {
                elements: out_elems,
            });
            layers.push(LayerSpec::Conv(conv(&name_b, out_c, out_c, 3, 1, 1, out_h)));
            layers.push(LayerSpec::BatchNorm {
                elements: out_elems,
            });
            if stride != 1 || in_c != out_c {
                // Projection shortcut.
                layers.push(LayerSpec::Conv(conv(
                    &format!("layer{block_idx}s"),
                    in_c,
                    out_c,
                    1,
                    stride,
                    0,
                    h,
                )));
                layers.push(LayerSpec::BatchNorm {
                    elements: out_elems,
                });
            }
            layers.push(LayerSpec::EltwiseAdd {
                elements: out_elems,
            });
            layers.push(LayerSpec::Activation {
                elements: out_elems,
            });
            h = out_h;
            in_c = out_c;
        }
    }
    // Global average pool 4×4 → 1×1 and classifier.
    layers.push(LayerSpec::Pool(PoolSpec {
        kind: PoolKind::Avg,
        kernel: h,
        channels: 512,
        in_h: h,
        in_w: h,
    }));
    layers.push(LayerSpec::Linear(LinearSpec {
        name: "fc".into(),
        in_features: 512,
        out_features: 100,
    }));
    ModelSpec {
        name: "ResNet18".into(),
        dataset: "CIFAR100".into(),
        input: (3, 32, 32),
        num_classes: 100,
        layers,
    }
}

/// ImageNet-shape ResNet18 (224×224 input, 7×7 stem, ~1.8 GMACs).
///
/// Not one of the paper's Table I workloads, but included because the
/// paper's claimed 8× speedup scaling from 64→512 CAM rows requires
/// feature maps with ≥512 output positions in every stage — true at
/// ImageNet resolution, false at CIFAR resolution (the Fig. 9 test
/// `more_rows_increase_resnet_speedup_search_only` pins the saturation).
pub fn resnet18_imagenet() -> ModelSpec {
    let mut layers = Vec::new();
    // 7×7/2 stem: 224 → 112, then 3×3/2 max pool → 56.
    let stem = conv("conv1", 3, 64, 7, 2, 3, 224);
    let stem_h = stem.out_h();
    let stem_elems = 64 * stem_h * stem_h;
    layers.push(LayerSpec::Conv(stem));
    layers.push(LayerSpec::BatchNorm {
        elements: stem_elems,
    });
    layers.push(LayerSpec::Activation {
        elements: stem_elems,
    });
    layers.push(LayerSpec::Pool(PoolSpec {
        kind: PoolKind::Max,
        kernel: 2,
        channels: 64,
        in_h: stem_h,
        in_w: stem_h,
    }));
    let mut h = stem_h / 2; // 56
    let mut in_c = 64usize;
    let mut block_idx = 0usize;
    for &(out_c, first_stride) in &[(64usize, 1usize), (128, 2), (256, 2), (512, 2)] {
        for b in 0..2 {
            block_idx += 1;
            let stride = if b == 0 { first_stride } else { 1 };
            let ca = conv(&format!("layer{block_idx}a"), in_c, out_c, 3, stride, 1, h);
            let out_h = ca.out_h();
            let out_elems = out_c * out_h * out_h;
            layers.push(LayerSpec::Conv(ca));
            layers.push(LayerSpec::BatchNorm {
                elements: out_elems,
            });
            layers.push(LayerSpec::Activation {
                elements: out_elems,
            });
            layers.push(LayerSpec::Conv(conv(
                &format!("layer{block_idx}b"),
                out_c,
                out_c,
                3,
                1,
                1,
                out_h,
            )));
            layers.push(LayerSpec::BatchNorm {
                elements: out_elems,
            });
            if stride != 1 || in_c != out_c {
                layers.push(LayerSpec::Conv(conv(
                    &format!("layer{block_idx}s"),
                    in_c,
                    out_c,
                    1,
                    stride,
                    0,
                    h,
                )));
                layers.push(LayerSpec::BatchNorm {
                    elements: out_elems,
                });
            }
            layers.push(LayerSpec::EltwiseAdd {
                elements: out_elems,
            });
            layers.push(LayerSpec::Activation {
                elements: out_elems,
            });
            h = out_h;
            in_c = out_c;
        }
    }
    layers.push(LayerSpec::Pool(PoolSpec {
        kind: PoolKind::Avg,
        kernel: h,
        channels: 512,
        in_h: h,
        in_w: h,
    }));
    layers.push(LayerSpec::Linear(LinearSpec {
        name: "fc".into(),
        in_features: 512,
        out_features: 1000,
    }));
    ModelSpec {
        name: "ResNet18-ImageNet".into(),
        dataset: "ImageNet".into(),
        input: (3, 224, 224),
        num_classes: 1000,
        layers,
    }
}

/// All four paper workloads in Table I order.
pub fn all_workloads() -> Vec<ModelSpec> {
    vec![lenet5(), vgg11(), vgg16(), resnet18()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet5_macs_match_classic() {
        let m = lenet5();
        // conv1 117.6k + conv2 240k + conv3 48k + fc 10.9k ≈ 416.5k
        let macs = m.total_macs();
        assert!((380_000..450_000).contains(&(macs as usize)), "{macs}");
        assert_eq!(m.dot_layers().len(), 5);
    }

    #[test]
    fn lenet5_first_layer_matches_paper_example() {
        // §IV-B example: 32×32 single-channel input, 6 kernels of 5×5 →
        // 784 input vectors for 6 kernel vectors.
        let m = lenet5();
        let d = &m.dot_layers()[0];
        assert_eq!(d.p, 28 * 28);
        assert_eq!(d.m, 6);
        assert_eq!(d.n, 25);
    }

    #[test]
    fn vgg11_structure() {
        let m = vgg11();
        let dots = m.dot_layers();
        assert_eq!(dots.len(), 9); // 8 convs + 1 fc
        let macs = m.total_macs();
        // Standard CIFAR VGG11 ≈ 153M MACs.
        assert!((140e6..170e6).contains(&(macs as f64)), "{macs}");
    }

    #[test]
    fn vgg16_structure() {
        let m = vgg16();
        assert_eq!(m.dot_layers().len(), 14); // 13 convs + 1 fc
        let macs = m.total_macs() as f64;
        assert!((290e6..340e6).contains(&macs), "{macs}");
        assert_eq!(m.num_classes, 100);
    }

    #[test]
    fn resnet18_structure() {
        let m = resnet18();
        // 1 stem + 8 blocks × 2 convs + 3 projection shortcuts + 1 fc = 21.
        assert_eq!(m.dot_layers().len(), 21);
        let macs = m.total_macs() as f64;
        // CIFAR ResNet18 ≈ 555M MACs.
        assert!((500e6..620e6).contains(&macs), "{macs}");
    }

    #[test]
    fn resnet18_spatial_flow() {
        // Feature maps: 32 → 32 → 16 → 8 → 4, then global pool.
        let m = resnet18();
        let last_conv = m
            .layers
            .iter()
            .filter_map(|l| match l {
                crate::spec::LayerSpec::Conv(c) => Some(c),
                _ => None,
            })
            .next_back()
            .unwrap();
        assert_eq!(last_conv.out_h(), 4);
    }

    #[test]
    fn workload_ordering_by_macs() {
        // The paper's efficiency ratios shrink from LeNet to ResNet18
        // because total work grows: MACs must be strictly increasing.
        let w = all_workloads();
        for pair in w.windows(2) {
            assert!(
                pair[0].total_macs() < pair[1].total_macs(),
                "{} !< {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn imagenet_resnet18_shapes() {
        let m = resnet18_imagenet();
        // 1 stem + 16 block convs + 3 shortcuts + 1 fc = 21 dot layers.
        assert_eq!(m.dot_layers().len(), 21);
        let macs = m.total_macs() as f64;
        // Standard ImageNet ResNet18 ≈ 1.8 GMACs.
        assert!((1.6e9..2.0e9).contains(&macs), "{macs}");
        // Every conv stage keeps P ≥ 49; early stages have thousands of
        // positions, which is what makes the row sweep scale. (The fc
        // layer always has P = 1.)
        let min_conv_p = m
            .dot_layers()
            .iter()
            .filter(|d| d.name != "fc")
            .map(|d| d.p)
            .min()
            .unwrap();
        assert!(min_conv_p >= 49, "min conv P {min_conv_p}");
    }

    #[test]
    fn workload_labels() {
        assert_eq!(lenet5().workload(), "LeNet5 MNIST");
        assert_eq!(resnet18().workload(), "ResNet18 CIFAR100");
    }
}
