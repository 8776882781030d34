//! Criterion bench for the Fig. 9 machinery: the CAM scheduler and both
//! baseline simulators over the full workloads.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use deepcam_baselines::{Eyeriss, SkylakeCpu};
use deepcam_core::sched::CamScheduler;
use deepcam_core::{Dataflow, HashPlan, LayerIr};
use deepcam_models::zoo;

fn bench_deepcam_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9/deepcam_sched");
    let resnet = zoo::resnet18();
    let dims = LayerIr::from_spec(&resnet).patch_lens();
    let plan = HashPlan::variable_for_dims(&dims);
    for dataflow in Dataflow::both() {
        let sched = CamScheduler::new(64, dataflow).expect("supported rows");
        group.bench_function(format!("resnet18_{}", dataflow.label()), |b| {
            b.iter(|| {
                sched
                    .run(black_box(&resnet), black_box(&plan))
                    .expect("plan fits")
            })
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9/baselines");
    let vgg = zoo::vgg16();
    let eyeriss = Eyeriss::paper_config();
    group.bench_function("eyeriss_vgg16", |b| b.iter(|| eyeriss.run(black_box(&vgg))));
    let cpu = SkylakeCpu::paper_config();
    group.bench_function("skylake_vgg16", |b| b.iter(|| cpu.run(black_box(&vgg))));
    group.finish();
}

criterion_group! {
    name = benches;
    // Short measurement windows keep `cargo bench --workspace` minutes-scale
    // on small CI machines while still giving stable medians.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(900))
        .sample_size(10);
    targets = bench_deepcam_scheduler, bench_baselines
}
criterion_main!(benches);
