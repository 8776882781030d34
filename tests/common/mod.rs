//! Sizing shared by the split differential tests.

use deepcam::accel::DeepCamEngine;
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::{Shape, Tensor};

/// The smallest batch of `image`-shaped (`[C, H, W]`) inputs whose image
/// fan-out takes `workers` tasks. The engine splits a job only in whole
/// task loads of projection work, so a smaller batch would run on the
/// calling thread and compare serial against serial.
pub fn fan_out_images(engine: &DeepCamEngine, image: &[usize], workers: usize) -> usize {
    (1..=1 << 16)
        .find(|&n| {
            let dims: Vec<usize> = std::iter::once(n).chain(image.iter().copied()).collect();
            let batch = Tensor::zeros(Shape::new(&dims));
            engine.image_tasks(&batch, Parallelism::Fixed(workers)) == workers
        })
        .expect("a batch of at most 65536 images splits")
}
