//! Micro-batcher bit-exactness differential: N images submitted
//! concurrently through a [`deepcam::serve::Session`] must produce
//! **byte-identical** logits to the same images run serially, one at a
//! time, through [`DeepCamEngine::infer`] — across engine worker counts
//! {1, 4}, and for every batch composition the coalescer happens to
//! pick. This is the property that
//! makes dynamic micro-batching safe to deploy: batching can change
//! wall-clock, never results.

use std::sync::Arc;
use std::time::Duration;

use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::models::scaled::scaled_lenet5;
use deepcam::serve::{Session, SessionConfig};
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::rng::seeded_rng;
use deepcam::tensor::{init, Shape, Tensor};

const IMAGES: usize = 12;
const ELEMS: usize = 784;

fn images() -> Tensor {
    let mut rng = seeded_rng(77);
    init::normal(&mut rng, Shape::new(&[IMAGES, 1, 28, 28]), 0.0, 1.0)
}

/// Serial ground truth: each image alone through `infer`, bit patterns
/// collected in submission order.
fn serial_logit_bits(engine: &DeepCamEngine, images: &Tensor) -> Vec<u32> {
    let mut bits = Vec::new();
    for i in 0..IMAGES {
        let one = Tensor::from_vec(
            images.data()[i * ELEMS..(i + 1) * ELEMS].to_vec(),
            Shape::new(&[1, 1, 28, 28]),
        )
        .unwrap();
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
    let x = images();
    for workers in [1usize, 4] {
        let engine = Arc::new(engine_with(workers));
        let expected = serial_logit_bits(&engine, &x);
        // An eager batcher (tiny max_wait) under concurrent
        // submission: batch composition is timing-dependent, the
        // results must not be.
        let session = Session::new(
            Arc::clone(&engine),
            SessionConfig {
                max_batch: 5, // uneven: forces mixed occupancies
                max_wait: Duration::from_micros(200),
                queue_capacity: IMAGES * 2,
            },
        );
        let pendings: Vec<_> = (0..IMAGES)
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
        assert_eq!(stats.completed, IMAGES as u64);
        assert!(stats.batches >= 1);
    }
}

#[test]
fn infer_matches_serial_for_every_split() {
    // The engine-level half of the contract, without session timing:
    // any partition of the set through `infer` equals serial.
    let x = images();
    for workers in [1usize, 4] {
        let engine = engine_with(workers);
        let expected = serial_logit_bits(&engine, &x);
        for split in [1usize, 3, 5, IMAGES] {
            let mut got = Vec::new();
            let mut start = 0;
            while start < IMAGES {
                let end = (start + split).min(IMAGES);
                let chunk = Tensor::from_vec(
                    x.data()[start * ELEMS..end * ELEMS].to_vec(),
                    Shape::new(&[end - start, 1, 28, 28]),
                )
                .unwrap();
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
