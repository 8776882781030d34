//! Micro-batcher bit-exactness differential: N images submitted
//! concurrently through a [`deepcam::serve::Session`] must produce
//! **byte-identical** logits to the same images run serially, one at a
//! time, through [`DeepCamEngine::infer`] — across engine worker counts
//! {1, 4}, and for every batch composition the coalescer happens to
//! pick. This is the property that
//! makes dynamic micro-batching safe to deploy: batching can change
//! wall-clock, never results.

mod common;

use std::sync::Arc;
use std::time::Duration;

use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::models::scaled::scaled_lenet5;
use deepcam::serve::{Session, SessionConfig};
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape, Tensor};

const ELEMS: usize = 784;

/// The smallest batch the image fan-out splits 4 ways (a single image
/// runs on the calling thread, as serial ground truth should).
fn full_batch(engine: &DeepCamEngine) -> usize {
    common::fan_out_images(engine, &[1, 28, 28], 4)
}

/// Two full batches and a remainder, so the coalescer sees mixed
/// occupancies.
fn images(full: usize) -> Tensor {
    let mut rng = seeded_rng(77);
    init::normal(&mut rng, Shape::new(&[2 * full + 3, 1, 28, 28]), 0.0, 1.0)
}

/// Images `start..end` of `images` as one batch.
fn chunk(images: &Tensor, start: usize, end: usize) -> Tensor {
    Tensor::from_vec(
        images.data()[start * ELEMS..end * ELEMS].to_vec(),
        Shape::new(&[end - start, 1, 28, 28]),
    )
    .unwrap()
}

/// Serial ground truth: each image alone through `infer`, bit patterns
/// collected in submission order.
fn serial_logit_bits(engine: &DeepCamEngine, images: &Tensor) -> Vec<u32> {
    let mut bits = Vec::new();
    for i in 0..images.shape().dim(0) {
        let one = chunk(images, i, i + 1);
        assert_eq!(engine.image_tasks(&one, engine.config().parallelism), 1);
        bits.extend(
            engine
                .infer(&one)
                .unwrap()
                .data()
                .iter()
                .map(|v| v.to_bits()),
        );
    }
    bits
}

fn engine_with(workers: usize) -> DeepCamEngine {
    let mut rng = seeded_rng(5);
    let model = scaled_lenet5(&mut rng, 10);
    DeepCamEngine::compile(
        &model,
        EngineConfig {
            plan: HashPlan::Uniform(256),
            parallelism: Parallelism::Fixed(workers),
            ..EngineConfig::default()
        },
    )
    .expect("compiles")
}

#[test]
fn concurrent_micro_batches_match_serial_submission_bitwise() {
    for workers in [1usize, 4] {
        let engine = Arc::new(engine_with(workers));
        let full = full_batch(&engine);
        let x = images(full);
        let count = x.shape().dim(0);
        let expected = serial_logit_bits(&engine, &x);
        // A full micro-batch splits `workers` ways.
        let batch = chunk(&x, 0, full);
        assert_eq!(
            engine.image_tasks(&batch, engine.config().parallelism),
            workers
        );
        // An eager batcher (tiny max_wait) under concurrent
        // submission: batch composition is timing-dependent, the
        // results must not be.
        let session = Session::new(
            Arc::clone(&engine),
            SessionConfig {
                max_batch: full,
                max_wait: Duration::from_micros(200),
                queue_capacity: count * 2,
            },
        );
        let pendings: Vec<_> = (0..count)
            .map(|i| {
                session
                    .submit(&[1, 28, 28], &x.data()[i * ELEMS..(i + 1) * ELEMS])
                    .expect("submit")
            })
            .collect();
        let mut got = Vec::new();
        for p in pendings {
            got.extend(p.wait().unwrap().iter().map(|v| v.to_bits()));
        }
        assert_eq!(
            expected, got,
            "workers {workers}: coalesced logits differ from serial"
        );
        let stats = session.stats();
        assert_eq!(stats.completed, count as u64);
        assert!(stats.batches >= 1);
    }
}

#[test]
fn infer_matches_serial_for_every_split() {
    // The engine-level half of the contract, without session timing:
    // any partition of the set through `infer` equals serial.
    for workers in [1usize, 4] {
        let engine = engine_with(workers);
        let full = full_batch(&engine);
        let x = images(full);
        let count = x.shape().dim(0);
        let expected = serial_logit_bits(&engine, &x);
        for split in [1usize, 3, full, count] {
            let mut got = Vec::new();
            let mut start = 0;
            while start < count {
                let end = (start + split).min(count);
                let chunk = chunk(&x, start, end);
                if end - start >= full {
                    let tasks = engine.image_tasks(&chunk, engine.config().parallelism);
                    assert_eq!(tasks, workers, "split {split}");
                }
                got.extend(
                    engine
                        .infer(&chunk)
                        .unwrap()
                        .data()
                        .iter()
                        .map(|v| v.to_bits()),
                );
                start = end;
            }
            assert_eq!(expected, got, "workers {workers}, split {split}");
        }
    }
}
