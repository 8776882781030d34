//! Introspectable trainable CNNs.
//!
//! [`Cnn`] is a list of [`Block`]s — an *enum*, not trait objects — so
//! that `deepcam-core` can pattern-match on a trained network and compile
//! each conv/linear layer into CAM contexts while re-using the float
//! implementations of the peripheral layers (pool/BN/ReLU, which DeepCAM
//! executes digitally in its post-processing module anyway).

use deepcam_tensor::layer::{
    AvgPool2d, BatchNorm2d, Conv2d, Flatten, Layer, Linear, MaxPool2d, Param, ReLU,
};
use deepcam_tensor::ops::activation::{relu, relu_backward};
use deepcam_tensor::{Tensor, TensorError};

/// One block of a [`Cnn`].
pub enum Block {
    /// Convolution.
    Conv(Conv2d),
    /// Batch normalization.
    Bn(BatchNorm2d),
    /// ReLU activation.
    Relu(ReLU),
    /// Max pooling.
    MaxPool(MaxPool2d),
    /// Average pooling.
    AvgPool(AvgPool2d),
    /// NCHW → `[N, F]` flatten.
    Flatten(Flatten),
    /// Fully-connected layer.
    Linear(Linear),
    /// Residual basic block.
    Residual(ResBlock),
}

impl Block {
    /// Short kind label for summaries.
    pub fn kind(&self) -> &'static str {
        match self {
            Block::Conv(_) => "Conv",
            Block::Bn(_) => "Bn",
            Block::Relu(_) => "Relu",
            Block::MaxPool(_) => "MaxPool",
            Block::AvgPool(_) => "AvgPool",
            Block::Flatten(_) => "Flatten",
            Block::Linear(_) => "Linear",
            Block::Residual(_) => "Residual",
        }
    }
}

impl Layer for Block {
    fn forward(&mut self, x: &Tensor, train: bool) -> deepcam_tensor::Result<Tensor> {
        match self {
            Block::Conv(l) => l.forward(x, train),
            Block::Bn(l) => l.forward(x, train),
            Block::Relu(l) => l.forward(x, train),
            Block::MaxPool(l) => l.forward(x, train),
            Block::AvgPool(l) => l.forward(x, train),
            Block::Flatten(l) => l.forward(x, train),
            Block::Linear(l) => l.forward(x, train),
            Block::Residual(l) => l.forward(x, train),
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> deepcam_tensor::Result<Tensor> {
        match self {
            Block::Conv(l) => l.backward(grad_out),
            Block::Bn(l) => l.backward(grad_out),
            Block::Relu(l) => l.backward(grad_out),
            Block::MaxPool(l) => l.backward(grad_out),
            Block::AvgPool(l) => l.backward(grad_out),
            Block::Flatten(l) => l.backward(grad_out),
            Block::Linear(l) => l.backward(grad_out),
            Block::Residual(l) => l.backward(grad_out),
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        match self {
            Block::Conv(l) => l.params_mut(),
            Block::Bn(l) => l.params_mut(),
            Block::Relu(l) => l.params_mut(),
            Block::MaxPool(l) => l.params_mut(),
            Block::AvgPool(l) => l.params_mut(),
            Block::Flatten(l) => l.params_mut(),
            Block::Linear(l) => l.params_mut(),
            Block::Residual(l) => l.params_mut(),
        }
    }

    fn name(&self) -> &'static str {
        self.kind()
    }
}

/// A ResNet basic block over [`Block`] lists:
/// `output = relu(body(x) + shortcut(x))`.
#[derive(Default)]
pub struct ResBlock {
    /// Main branch (conv-bn-relu-conv-bn).
    pub body: Vec<Block>,
    /// Projection branch; `None` = identity.
    pub shortcut: Option<Vec<Block>>,
    cached_sum: Option<Tensor>,
}

impl ResBlock {
    /// Creates a block with an identity shortcut.
    pub fn new(body: Vec<Block>) -> Self {
        ResBlock {
            body,
            shortcut: None,
            cached_sum: None,
        }
    }

    /// Creates a block with a projection shortcut.
    pub fn with_shortcut(body: Vec<Block>, shortcut: Vec<Block>) -> Self {
        ResBlock {
            body,
            shortcut: Some(shortcut),
            cached_sum: None,
        }
    }
}

fn forward_chain(blocks: &mut [Block], x: &Tensor, train: bool) -> deepcam_tensor::Result<Tensor> {
    let mut cur = x.clone();
    for b in blocks.iter_mut() {
        cur = b.forward(&cur, train)?;
    }
    Ok(cur)
}

fn backward_chain(blocks: &mut [Block], grad: &Tensor) -> deepcam_tensor::Result<Tensor> {
    let mut cur = grad.clone();
    for b in blocks.iter_mut().rev() {
        cur = b.backward(&cur)?;
    }
    Ok(cur)
}

impl Layer for ResBlock {
    fn forward(&mut self, x: &Tensor, train: bool) -> deepcam_tensor::Result<Tensor> {
        let main = forward_chain(&mut self.body, x, train)?;
        let skip = match &mut self.shortcut {
            Some(s) => forward_chain(s, x, train)?,
            None => x.clone(),
        };
        let sum = main.add(&skip)?;
        self.cached_sum = Some(sum.clone());
        Ok(relu(&sum))
    }

    fn backward(&mut self, grad_out: &Tensor) -> deepcam_tensor::Result<Tensor> {
        let sum = self
            .cached_sum
            .as_ref()
            .ok_or(TensorError::MissingForwardCache("ResBlock"))?;
        let grad_sum = relu_backward(grad_out, sum)?;
        let grad_main = backward_chain(&mut self.body, &grad_sum)?;
        let grad_skip = match &mut self.shortcut {
            Some(s) => backward_chain(s, &grad_sum)?,
            None => grad_sum,
        };
        grad_main.add(&grad_skip)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = self.body.iter_mut().flat_map(|b| b.params_mut()).collect();
        if let Some(s) = &mut self.shortcut {
            p.extend(s.iter_mut().flat_map(|b| b.params_mut()));
        }
        p
    }

    fn name(&self) -> &'static str {
        "ResBlock"
    }
}

/// A trainable, introspectable CNN.
pub struct Cnn {
    /// Model family name (e.g. `"ScaledVGG11"`).
    pub name: String,
    /// Blocks in execution order.
    pub blocks: Vec<Block>,
    /// Classifier classes.
    pub num_classes: usize,
    /// Expected input `(channels, height, width)` per image.
    ///
    /// Purely descriptive for training (`forward` accepts whatever batch
    /// it is handed), but the compilation pipeline lowers a model only
    /// from it: it fixes every layer's static shapes — patch counts,
    /// peripheral element counts — so a trained model lowers to the same
    /// `LayerIr` a weight-free `ModelSpec` produces. A model left at
    /// `None` trains but does not compile; declare it with
    /// [`Cnn::with_input`].
    pub input: Option<(usize, usize, usize)>,
}

impl Cnn {
    /// Creates a model from blocks (input shape undeclared, so it trains
    /// but does not compile until [`Cnn::with_input`] declares one).
    pub fn new(name: impl Into<String>, blocks: Vec<Block>, num_classes: usize) -> Self {
        Cnn {
            name: name.into(),
            blocks,
            num_classes,
            input: None,
        }
    }

    /// Builder-style declaration of the expected per-image input shape.
    pub fn with_input(mut self, channels: usize, height: usize, width: usize) -> Self {
        self.input = Some((channels, height, width));
        self
    }

    /// Total scalar parameters.
    pub fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.value.len()).sum()
    }

    /// Counts the dot-product layers (conv + linear, including those
    /// inside residual blocks) — the layers that receive per-layer hash
    /// lengths in DeepCAM.
    pub fn dot_layer_count(&self) -> usize {
        fn count(blocks: &[Block]) -> usize {
            blocks
                .iter()
                .map(|b| match b {
                    Block::Conv(_) | Block::Linear(_) => 1,
                    Block::Residual(r) => {
                        count(&r.body) + r.shortcut.as_ref().map_or(0, |s| count(s))
                    }
                    _ => 0,
                })
                .sum()
        }
        count(&self.blocks)
    }
}

impl Layer for Cnn {
    fn forward(&mut self, x: &Tensor, train: bool) -> deepcam_tensor::Result<Tensor> {
        forward_chain(&mut self.blocks, x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> deepcam_tensor::Result<Tensor> {
        backward_chain(&mut self.blocks, grad_out)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.blocks
            .iter_mut()
            .flat_map(|b| b.params_mut())
            .collect()
    }

    fn name(&self) -> &'static str {
        "Cnn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_tensor::ops::conv::Conv2dConfig;
    use deepcam_tensor::rng::seeded_rng;
    use deepcam_tensor::Shape;

    fn tiny_cnn() -> Cnn {
        let mut rng = seeded_rng(0);
        Cnn::new(
            "tiny",
            vec![
                Block::Conv(Conv2d::new(
                    &mut rng,
                    Conv2dConfig::new(1, 4, 3).with_padding(1),
                )),
                Block::Relu(ReLU::new()),
                Block::MaxPool(MaxPool2d::new(2)),
                Block::Flatten(Flatten::new()),
                Block::Linear(Linear::new(&mut rng, 4 * 4 * 4, 3)),
            ],
            3,
        )
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = tiny_cnn();
        let x = Tensor::zeros(Shape::new(&[2, 1, 8, 8]));
        let y = net.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &Shape::new(&[2, 3]));
        let gx = net.backward(&Tensor::full(y.shape().clone(), 1.0)).unwrap();
        assert_eq!(gx.shape(), x.shape());
    }

    #[test]
    fn dot_layer_count_includes_residual_internals() {
        let mut rng = seeded_rng(1);
        let body = vec![
            Block::Conv(Conv2d::new(
                &mut rng,
                Conv2dConfig::new(4, 4, 3).with_padding(1),
            )),
            Block::Bn(BatchNorm2d::new(4)),
            Block::Relu(ReLU::new()),
            Block::Conv(Conv2d::new(
                &mut rng,
                Conv2dConfig::new(4, 4, 3).with_padding(1),
            )),
            Block::Bn(BatchNorm2d::new(4)),
        ];
        let shortcut = vec![Block::Conv(Conv2d::new(
            &mut rng,
            Conv2dConfig::new(4, 4, 1),
        ))];
        let net = Cnn::new(
            "res",
            vec![Block::Residual(ResBlock::with_shortcut(body, shortcut))],
            2,
        );
        assert_eq!(net.dot_layer_count(), 3);
    }

    #[test]
    fn residual_block_trains() {
        let mut rng = seeded_rng(2);
        let body = vec![
            Block::Conv(Conv2d::new(
                &mut rng,
                Conv2dConfig::new(2, 2, 3).with_padding(1),
            )),
            Block::Bn(BatchNorm2d::new(2)),
        ];
        let mut block = ResBlock::new(body);
        let x = Tensor::full(Shape::new(&[2, 2, 4, 4]), 0.3);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape(), x.shape());
        let g = block
            .backward(&Tensor::full(x.shape().clone(), 0.1))
            .unwrap();
        assert_eq!(g.shape(), x.shape());
        assert!(!block.params_mut().is_empty());
    }

    #[test]
    fn kind_labels() {
        let net = tiny_cnn();
        let kinds: Vec<&str> = net.blocks.iter().map(|b| b.kind()).collect();
        assert_eq!(kinds, vec!["Conv", "Relu", "MaxPool", "Flatten", "Linear"]);
    }

    #[test]
    fn param_count_positive() {
        assert!(tiny_cnn().param_count() > 0);
    }

    #[test]
    fn param_count_counts_everything() {
        let mut rng = seeded_rng(1);
        let mut net = Cnn::new(
            "count",
            vec![
                Block::Linear(Linear::new(&mut rng, 10, 5)), // 50 + 5
                Block::Bn(BatchNorm2d::new(3)),              // 3 + 3
            ],
            5,
        );
        assert_eq!(net.param_count(), 61);
    }

    #[test]
    fn residual_identity_gradient_splits() {
        // With a zeroed body, the block is relu(x), and the input gradient
        // equals body-gradient + identity-gradient.
        let mut rng = seeded_rng(2);
        let mut conv = Conv2d::new(&mut rng, Conv2dConfig::new(2, 2, 3).with_padding(1));
        conv.weight.value.map_inplace(|_| 0.0);
        let mut block = ResBlock::new(vec![Block::Conv(conv)]);
        let x = Tensor::full(Shape::new(&[1, 2, 4, 4]), 1.0);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.data(), x.data());
        let g = block
            .backward(&Tensor::full(x.shape().clone(), 1.0))
            .unwrap();
        assert_eq!(g.shape(), x.shape());
        // Identity path alone passes gradient 1 everywhere (plus the conv
        // path contribution, which is 0 for zero weights).
        assert!(g.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn residual_projection_shortcut_runs() {
        let mut rng = seeded_rng(3);
        let body = vec![Block::Conv(Conv2d::new(
            &mut rng,
            Conv2dConfig::new(2, 4, 3).with_padding(1).with_stride(2),
        ))];
        let shortcut = vec![Block::Conv(Conv2d::new(
            &mut rng,
            Conv2dConfig::new(2, 4, 1).with_stride(2),
        ))];
        let mut block = ResBlock::with_shortcut(body, shortcut);
        let x = Tensor::full(Shape::new(&[1, 2, 8, 8]), 0.5);
        let y = block.forward(&x, true).unwrap();
        assert_eq!(y.shape(), &Shape::new(&[1, 4, 4, 4]));
        let gx = block
            .backward(&Tensor::full(y.shape().clone(), 1.0))
            .unwrap();
        assert_eq!(gx.shape(), x.shape());
    }
}
