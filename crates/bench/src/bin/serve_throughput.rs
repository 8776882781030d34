//! Measures the serving runtime's dynamic micro-batcher: closed-loop
//! clients hammer one model's `deepcam_serve::Session` and we sweep the
//! batcher's `max_batch`, recording requests/sec, batch occupancy and
//! latency percentiles into `BENCH_serve.json`.
//!
//! Usage: `cargo run --release -p deepcam-bench --bin serve_throughput
//! [--out PATH] [--clients N] [--requests N] [--conns N] [--repeats R]
//! [--force]` (an unknown flag or a value that is not a count of at least
//! 1 exits 2 with this usage line).
//!
//! The sweep runs `max_batch` 1, 4, 8 and 16, less every value above
//! `--clients`: a closed loop never has more requests in flight than
//! clients, so such a row could only time the batcher's `max_wait`
//! deadline. The skipped values are printed and listed in the JSON.
//!
//! The `max_batch = 1` row is the "before": one engine call per request,
//! exactly what a naive server wrapping `infer` would do. Larger
//! `max_batch` rows coalesce concurrent requests into
//! `DeepCamEngine::infer_each` calls — amortizing per-call pipeline
//! walks and turning per-image 1-row GEMMs into batched ones — which is
//! where serving throughput comes from even on one core. Results are
//! bit-identical either way (the differential suite pins it), so the
//! comparison times identical computations.
//!
//! Refuses to overwrite a committed JSON recorded on a bigger host
//! unless `--force` is passed (same guard as the other speedup bins).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deepcam_bench::guard::{self, BenchArgs, Spread};
use deepcam_core::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam_models::scaled::scaled_lenet5;
use deepcam_serve::protocol::Response;
use deepcam_serve::{ModelRegistry, MuxClient, Runtime, Server, ServerConfig, SessionConfig};
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

struct OpenRow {
    conns: usize,
    completed: u64,
    errors: u64,
    elapsed_ms: f64,
    reqs_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Keeps the run with the median wall time (`wall` of it, in ms) of
/// `runs`, together with the spread of all of them: every rate is
/// derived from the median run, so one lucky run cannot set the record.
fn median_run<T>(mut runs: Vec<T>, wall: fn(&T) -> f64) -> (T, Spread) {
    let spread = Spread::of(runs.iter().map(wall).collect());
    runs.sort_by(|a, b| wall(a).total_cmp(&wall(b)));
    (runs.swap_remove(runs.len() / 2), spread)
}

/// Exact percentile over the collected per-request latencies (the
/// open-loop sweep keeps every sample, so no histogram coarseness).
fn percentile_ms(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// One open-loop run over the wire: `conns` protocol-v2 connections,
/// each holding `window` pipelined requests in flight against a live
/// TCP server — the sweep keeps `conns · window` constant, so climbing
/// the connection count measures fan-in scalability at fixed offered
/// load, not queueing delay. Per-request
/// latency is measured client-side submit→reply; typed error replies
/// (overload backpressure) count separately from completions.
fn run_open_loop(
    engine: &Arc<DeepCamEngine>,
    conns: usize,
    window: usize,
    requests: usize,
    images: &[Vec<f32>],
) -> OpenRow {
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        "bench",
        DeepCamEngine::from_compiled(engine.compiled().clone()).unwrap(),
    );
    let runtime = Arc::new(Runtime::new(
        registry,
        SessionConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(500),
            queue_capacity: 256,
        },
    ));
    let mut server = Server::bind(
        "127.0.0.1:0",
        runtime,
        ServerConfig {
            max_connections: conns + 8,
            ..ServerConfig::default()
        },
    )
    .expect("bench server binds");
    let addr = server.local_addr();

    let start = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    let mut completed = 0u64;
    let mut errors = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut mux = MuxClient::connect(addr).expect("open-loop connect");
                    let mut inflight: HashMap<u64, Instant> = HashMap::new();
                    let mut lat = Vec::with_capacity(requests);
                    let mut submitted = 0usize;
                    let mut done = 0u64;
                    let mut errs = 0u64;
                    while submitted < requests || !inflight.is_empty() {
                        while submitted < requests && inflight.len() < window {
                            let img = &images[(c * requests + submitted) % images.len()];
                            let id = mux
                                .submit_infer("bench", &[1, 28, 28], img)
                                .expect("open-loop submit");
                            inflight.insert(id, Instant::now());
                            submitted += 1;
                        }
                        let (id, resp) = mux.recv().expect("open-loop reply");
                        if let Some(sent) = inflight.remove(&id) {
                            match resp {
                                Response::Logits(_) => {
                                    lat.push(sent.elapsed().as_secs_f64() * 1000.0);
                                    done += 1;
                                }
                                _ => errs += 1,
                            }
                        }
                    }
                    (lat, done, errs)
                })
            })
            .collect();
        for handle in handles {
            let (lat, done, errs) = handle.join().expect("open-loop client thread");
            latencies.extend(lat);
            completed += done;
            errors += errs;
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    latencies.sort_by(|a, b| a.total_cmp(b));
    OpenRow {
        conns,
        completed,
        errors,
        elapsed_ms: elapsed * 1e3,
        reqs_per_sec: completed as f64 / elapsed,
        p50_ms: percentile_ms(&latencies, 0.50),
        p99_ms: percentile_ms(&latencies, 0.99),
    }
}

fn main() {
    let args = BenchArgs::from_env(
        "serve_throughput [--out PATH] [--clients N] [--requests N] [--conns N] [--repeats R] \
         [--force]",
        &["--clients", "--requests", "--conns"],
        &[],
    );
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let clients = args.number("--clients").unwrap_or(8);
    let requests = args.number("--requests").unwrap_or(40);
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

    let unbatched = rows[0].0.reqs_per_sec;
    for (row, _) in &rows[1..] {
        println!(
            "max_batch {} vs 1: {:.2}x throughput",
            row.max_batch,
            row.reqs_per_sec / unbatched
        );
    }

    // Open-loop many-connection sweep over the wire: pipelined
    // protocol-v2 requests against a live TCP server, from a base
    // connection count up to 4× that fan-in at the SAME total in-flight
    // load (window shrinks as connections grow). The headline is the
    // c10k question: does p99 at 4× the connections hold at
    // equal-or-better than at the base count? 2048 requests per run put
    // 20 samples above each p99, and the p99 of every repeat is kept.
    const OPEN_INFLIGHT: usize = 16;
    const OPEN_TOTAL: usize = 2048;
    let base_conns = args.number("--conns").unwrap_or(4);
    let conn_sweep = [base_conns, base_conns * 4];
    println!(
        "\n== Open-loop wire sweep: {OPEN_INFLIGHT} pipelined v2 requests in flight, split over the connections =="
    );
    let open_rows: Vec<(OpenRow, Spread, Spread)> = conn_sweep
        .iter()
        .map(|&conns| {
            let window = (OPEN_INFLIGHT / conns).max(1);
            let requests = (OPEN_TOTAL / conns).max(8);
            let runs: Vec<OpenRow> = (0..repeats)
                .map(|_| run_open_loop(&engine, conns, window, requests, &images))
                .collect();
            let p99 = Spread::of(runs.iter().map(|r| r.p99_ms).collect());
            let (row, wall) = median_run(runs, |r| r.elapsed_ms);
            println!(
                "{:>4} conns x window {}: {:>8.1} req/s (wall {:.1} ms, {:.1}-{:.1}), \
                 completed {}, errors {}, p50 {:.2} ms, p99 {:.2} ms ({:.2}-{:.2})",
                row.conns,
                window,
                row.reqs_per_sec,
                wall.median,
                wall.min,
                wall.max,
                row.completed,
                row.errors,
                row.p50_ms,
                p99.median,
                p99.min,
                p99.max
            );
            (row, wall, p99)
        })
        .collect();
    let ((base, _, base_p99), (top, _, top_p99)) = (&open_rows[0], &open_rows[1]);
    // A verdict only where the p99 ranges do not overlap (`perf`'s
    // speedup rule); `None` when the repeats cannot tell the two apart.
    let p99_equal_or_better = base_p99.speedup_to(top_p99).map(|ratio| ratio >= 1.0);
    println!(
        "{} conns vs {} conns: p99 {:.2} ms vs {:.2} ms ({}), {:.2}x connections",
        top.conns,
        base.conns,
        top_p99.median,
        base_p99.median,
        match p99_equal_or_better {
            Some(true) => "equal-or-better",
            Some(false) => "worse",
            None => "ranges overlap",
        },
        top.conns as f64 / base.conns as f64
    );

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
    for (i, (row, wall)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"max_batch\": {}, \"wall_ms\": {}, \"reqs_per_sec\": {:.2}, \
             \"mean_occupancy\": {:.3}, \"max_occupancy\": {}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"speedup_vs_unbatched\": {:.3}}}{comma}\n",
            row.max_batch,
            wall.json(),
            row.reqs_per_sec,
            row.mean_occupancy,
            row.max_occupancy,
            row.p50_ms,
            row.p99_ms,
            row.reqs_per_sec / unbatched
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"open_loop\": {\n");
    json.push_str(&format!("    \"total_inflight\": {OPEN_INFLIGHT},\n"));
    json.push_str(&format!("    \"base_conns\": {base_conns},\n"));
    json.push_str("    \"protocol\": 2,\n");
    json.push_str("    \"rows\": [\n");
    for (i, (row, wall, p99)) in open_rows.iter().enumerate() {
        let comma = if i + 1 == open_rows.len() { "" } else { "," };
        json.push_str(&format!(
            "      {{\"conns\": {}, \"completed\": {}, \"errors\": {}, \
             \"wall_ms\": {}, \"reqs_per_sec\": {:.2}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {}}}{comma}\n",
            row.conns,
            row.completed,
            row.errors,
            wall.json(),
            row.reqs_per_sec,
            row.p50_ms,
            p99.json()
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"headline\": {{\"conn_ratio\": {:.1}, \"base_p99_ms\": {}, \
         \"top_p99_ms\": {}, \"p99_equal_or_better\": {}}}\n",
        top.conns as f64 / base.conns as f64,
        base_p99.json(),
        top_p99.json(),
        p99_equal_or_better.map_or("null".to_string(), |b| b.to_string())
    ));
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_serve.json");
    println!("wrote {out_path}");
}
