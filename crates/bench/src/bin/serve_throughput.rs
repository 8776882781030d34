//! Measures the serving runtime's dynamic micro-batcher: closed-loop
//! clients hammer one model's `deepcam_serve::Session` and we sweep the
//! batcher's `max_batch`, recording requests/sec, batch occupancy and
//! latency percentiles into `BENCH_serve.json`.
//!
//! Usage: `cargo run --release -p deepcam-bench --bin serve_throughput
//! [--out PATH] [--clients N] [--requests N] [--repeats R] [--force]`
//! (an unknown flag or a value that is not a count of at least 1 exits 2
//! with this usage line).
//!
//! The sweep runs `max_batch` 1, 4, 8 and 16, less every value above
//! `--clients`: a closed loop never has more requests in flight than
//! clients, so such a row could only time the batcher's `max_wait`
//! deadline. The skipped values are printed and listed in the JSON.
//!
//! The `max_batch = 1` row is the "before": one engine call per request,
//! exactly what a naive server wrapping `infer` would do. Larger
//! `max_batch` rows coalesce concurrent requests into multi-image
//! `DeepCamEngine::infer` calls — amortizing per-call pipeline walks and
//! turning per-image 1-row GEMMs into batched ones — which is where
//! serving throughput comes from even on one core. Results are
//! bit-identical either way (the differential suite pins it), so the
//! comparison times identical computations.
//!
//! Each closed-loop cell runs `--clients` × `--requests` inferences (8 ×
//! 400 by default, about a second on a 2-vCPU host), `--repeats` times.
//! A row's `speedup_vs_unbatched` is the unbatched row's median wall time
//! over its own, written only when the two rows' min–max wall ranges do
//! not overlap and `null` otherwise (`perf`'s speedup rule); the
//! unbatched row itself reads 1.
//!
//! Refuses to overwrite a committed JSON recorded on a bigger host
//! unless `--force` is passed (same guard as the other speedup bins).

use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcam_bench::guard::{self, BenchArgs, Spread};
use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_lenet5;
use deepcam_serve::{ModelRegistry, Runtime, SessionConfig};
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{init, Shape};

struct Row {
    max_batch: usize,
    elapsed_ms: f64,
    reqs_per_sec: f64,
    mean_occupancy: f64,
    max_occupancy: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// One closed-loop run: `clients` threads each issue `requests`
/// blocking inferences through a fresh session; returns the stats row.
fn run_config(
    engine: &Arc<DeepCamEngine>,
    max_batch: usize,
    clients: usize,
    requests: usize,
    images: &[Vec<f32>],
) -> Row {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        "bench",
        DeepCamEngine::from_compiled(engine.compiled().clone()).unwrap(),
    );
    let runtime = Arc::new(Runtime::new(
        registry,
        SessionConfig {
            max_batch,
            max_wait: Duration::from_micros(500),
            queue_capacity: clients * 4,
        },
    ));
    // Warm the session (loads nothing, but spawns the dispatcher and
    // pays one-time costs outside the timed window), then snapshot the
    // counters so the warmup batch is excluded from the reported row.
    runtime
        .infer("bench", &[1, 28, 28], &images[0])
        .expect("warmup inference");
    let warm = runtime.stats("bench").expect("warmup stats");

    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let runtime = Arc::clone(&runtime);
            scope.spawn(move || {
                for r in 0..requests {
                    let img = &images[(c * requests + r) % images.len()];
                    runtime
                        .infer("bench", &[1, 28, 28], img)
                        .expect("closed-loop inference");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = runtime.stats("bench").expect("stats");
    // Occupancy over the timed window only: subtract the warmup batch
    // (mean_occupancy is occupancy_sum / batches, so the sums recover
    // exactly). The latency percentiles keep the single warmup sample —
    // one of hundreds, below the p99 rank by construction.
    let timed_batches = stats.batches - warm.batches;
    let timed_occupancy_sum =
        stats.mean_occupancy * stats.batches as f64 - warm.mean_occupancy * warm.batches as f64;
    Row {
        max_batch,
        elapsed_ms: elapsed * 1e3,
        reqs_per_sec: (clients * requests) as f64 / elapsed,
        mean_occupancy: if timed_batches == 0 {
            0.0
        } else {
            timed_occupancy_sum / timed_batches as f64
        },
        max_occupancy: stats.max_occupancy,
        p50_ms: stats.p50_latency_ms,
        p99_ms: stats.p99_latency_ms,
    }
}

/// Keeps the run with the median wall time (`wall` of it, in ms) of
/// `runs`, together with the spread of all of them: every rate is
/// derived from the median run, so one lucky run cannot set the record.
fn median_run<T>(mut runs: Vec<T>, wall: fn(&T) -> f64) -> (T, Spread) {
    let spread = Spread::of(runs.iter().map(wall).collect());
    runs.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
    (runs.swap_remove(runs.len() / 2), spread)
}

fn main() {
    let args = BenchArgs::from_env(
        "serve_throughput [--out PATH] [--clients N] [--requests N] [--repeats R] [--force]",
        &["--clients", "--requests"],
        &[],
    );
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let clients = args.number("--clients").unwrap_or(8);
    let requests = args.number("--requests").unwrap_or(400);
    let repeats = args.repeats.unwrap_or(3);
    let force = args.force;
    let (batch_sweep, skipped): (Vec<usize>, Vec<usize>) =
        [1usize, 4, 8, 16].iter().partition(|&&b| b <= clients);

    let host_cores = guard::host_cores();
    if !guard::check_overwrite(&out_path, host_cores, force).proceed() {
        return; // verdict printed; keeping the bigger-host JSON is success
    }
    println!("== Serving runtime: micro-batching vs one-request-per-infer ==");
    println!("host cores: {host_cores}, clients: {clients}, requests/client: {requests}, repeats: {repeats}");
    for max_batch in &skipped {
        println!("max_batch {max_batch:>3}: skipped, {clients} closed-loop clients cannot fill it");
    }

    let mut rng = seeded_rng(0);
    let model = scaled_lenet5(&mut rng, 10);
    let engine = Arc::new(
        DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                ..EngineConfig::default()
            },
        )
        .expect("engine compiles"),
    );
    let mut data_rng = seeded_rng(1);
    let images: Vec<Vec<f32>> = (0..64)
        .map(|_| {
            init::normal(&mut data_rng, Shape::new(&[1, 1, 28, 28]), 0.0, 1.0)
                .data()
                .to_vec()
        })
        .collect();

    // The median-time run of `repeats` per config, with the spread of
    // all of them (closed-loop throughput is noise-prone on a shared
    // host).
    let rows: Vec<(Row, Spread)> = batch_sweep
        .iter()
        .map(|&max_batch| {
            let runs = (0..repeats)
                .map(|_| run_config(&engine, max_batch, clients, requests, &images))
                .collect();
            let (row, wall) = median_run(runs, |r| r.elapsed_ms);
            println!(
                "max_batch {:>3}: {:>8.1} req/s (wall {:.1} ms, {:.1}-{:.1}), occupancy mean {:.2} \
                 max {}, p50 {:.2} ms, p99 {:.2} ms",
                row.max_batch, row.reqs_per_sec, wall.median, wall.min, wall.max,
                row.mean_occupancy, row.max_occupancy, row.p50_ms, row.p99_ms
            );
            (row, wall)
        })
        .collect();

    // A speedup only where the wall ranges do not overlap; the
    // unbatched row is the base itself.
    let base = &rows[0].1;
    let speedups: Vec<Option<f64>> = std::iter::once(Some(1.0))
        .chain(rows[1..].iter().map(|(_, wall)| base.speedup_to(wall)))
        .collect();
    for ((row, _), speedup) in rows.iter().zip(&speedups).skip(1) {
        match speedup {
            Some(x) => println!("max_batch {} vs 1: {x:.2}x throughput", row.max_batch),
            None => println!("max_batch {} vs 1: wall ranges overlap", row.max_batch),
        }
    }

    // Hand-rolled JSON, like the other speedup bins (the vendored serde
    // has no serializer).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"experiment\": \"closed-loop serving throughput, scaled LeNet5, k=256, dynamic micro-batching\",\n",
    );
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str(&format!("  \"clients\": {clients},\n"));
    json.push_str(&format!("  \"requests_per_client\": {requests},\n"));
    json.push_str(&format!("  \"repeats\": {repeats},\n"));
    json.push_str("  \"max_wait_us\": 500,\n");
    json.push_str("  \"bit_identical_to_serial\": true,\n");
    json.push_str(&format!("  \"skipped_max_batch\": {skipped:?},\n"));
    json.push_str("  \"configs\": [\n");
    for (i, ((row, wall), speedup)) in rows.iter().zip(&speedups).enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"max_batch\": {}, \"wall_ms\": {}, \"reqs_per_sec\": {:.2}, \
             \"mean_occupancy\": {:.3}, \"max_occupancy\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"speedup_vs_unbatched\": {}}}{comma}\n",
            row.max_batch,
            wall.json(),
            row.reqs_per_sec,
            row.mean_occupancy,
            row.max_occupancy,
            row.p50_ms,
            row.p99_ms,
            speedup.map_or("null".to_string(), |x| format!("{x:.3}"))
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}
