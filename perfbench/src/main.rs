//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline-vgg11|serve-lenet5-poisson|serve-vgg11-burst> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up several times (`setup_s` is the
//! median), computes the bit-exact oracle, measures for `--seconds`, and
//! prints a provenance line and then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics. The end-to-end times are process CPU
//! time (see [`cpu`]), which a shared host's contention leaves out; the
//! traced run reports the wall-clock latencies and rates beside them.
//! `perfbench/METRICS.md` defines every metric and the end-to-end metric
//! each per-layer metric should move.

mod cpu;
mod replay;
mod schedule;
mod setup;
mod stats;
mod wire;

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use deepcam_core::{simd, CompiledModel, DeepCamEngine, PerfReport};
use deepcam_serve::protocol::{decode_payload_v2, encode_payload_v2, Request, Response};
use deepcam_serve::{ModelRegistry, Runtime, ServerStats, SessionStats};
use deepcam_tensor::{Parallelism, Tensor};

use schedule::{Arrival, Rung};
use setup::{Load, Net, Prepared, Res, Served, Spec, BATCH, MODEL_ID};
use stats::{median, percentile, sorted, supported};
use wire::Phase;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Res<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>").into())
    };
    let seconds: f64 = value("--seconds")?.parse()?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]").into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse()?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1").into()),
        },
    })
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What a run measured, before printing.
#[derive(Default)]
struct Outcome {
    metrics: Metrics,
    attempted: usize,
    failed: usize,
    /// Outputs that differ from the oracle (any phase).
    mismatched: usize,
    /// Percentiles reported from fewer than ten samples beyond their rank.
    unsupported: Vec<String>,
}

impl Outcome {
    /// Percentile `q` of time-ordered `samples` (windowed, see
    /// [`stats::windowed_percentile`]), noting when the sample is too
    /// small to support it.
    fn pct(&mut self, label: &str, samples: &[f64], q: f64) -> f64 {
        if !supported(samples.len(), q) {
            self.unsupported
                .push(format!("{label} (n={})", samples.len()));
        }
        stats::windowed_percentile(samples, q)
    }

    fn count(&mut self, phase: &Phase) {
        self.attempted += phase.due.len();
        self.failed += phase.failed();
        self.mismatched += phase.mismatched;
    }
}

/// Everything a workload run needs besides the prepared program.
struct Ctx {
    spec: Spec,
    seed: u64,
    seconds: f64,
    pool: Vec<Vec<f32>>,
    oracle: Vec<u64>,
    setups: Vec<setup::Timings>,
}

impl Ctx {
    fn dims(&self) -> [usize; 3] {
        self.spec.net.dims()
    }

    /// The workload's seeded schedule for a phase of `seconds`
    /// (`salt` separates the phases of one run).
    fn schedule(&self, seconds: f64, rate: f64, salt: u64) -> Vec<Arrival> {
        let seed = self.seed.wrapping_mul(0x100_0000_01B3) ^ salt;
        match self.spec.load {
            Load::Burst { min_gap, .. } => {
                schedule::bursts(seed, BATCH, rate, min_gap, seconds, self.pool.len())
            }
            _ => schedule::poisson(seed, rate, seconds, self.pool.len()),
        }
    }

    fn offered_rate(&self) -> f64 {
        match self.spec.load {
            Load::Poisson { rate } | Load::Burst { rate, .. } => rate,
            Load::Offline => 0.0,
        }
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run() -> Res<()> {
    let steal_at_start = steal_seconds();
    let args = parse_args()?;
    let spec = setup::spec(&args.workload)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let dims = spec.net.dims();
    let pool = setup::inputs(args.seed, spec.pool, dims);
    let dir = PathBuf::from(".bench_build/perfbench-work").join(spec.name);

    // Set up several times; keep the last. Dropping a prepared server
    // shuts it down before the next one binds.
    let mut setups = Vec::with_capacity(setup::SETUP_REPS);
    let mut prepared: Option<Prepared> = None;
    for _ in 0..setup::SETUP_REPS {
        drop(prepared.take());
        let p = setup::prepare(&spec, &dir, &pool[0])?;
        setups.push(p.timings);
        prepared = Some(p);
    }
    let mut prep = prepared.ok_or("no set-up ran")?;
    let oracle = setup::oracle(&prep.unpassed, &pool, dims)?;
    let cam = setup::cam_report(&prep.compiled)?;
    let roundtrip = setup::roundtrip_matches(&prep)?;

    let ctx = Ctx {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        pool,
        oracle,
        setups,
    };
    let mut out = if args.trace {
        traced(&ctx, &prep)?
    } else {
        untraced(&ctx, &prep, &cam)?
    };
    if let Served::Server { server, .. } = &mut prep.served {
        server.shutdown();
    }
    drop(prep);
    let _ = std::fs::remove_dir_all(&dir);
    if !args.trace {
        out.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    let steal = steal_seconds() - steal_at_start;
    println!("{}", provenance(&args, &out, steal));
    let correct = roundtrip && out.mismatched == 0;
    println!("{}", result_json(correct, &out));
    Ok(())
}

// ---------------------------------------------------------------------
// End-to-end runs
// ---------------------------------------------------------------------

fn untraced(ctx: &Ctx, prep: &Prepared, cam: &PerfReport) -> Res<Outcome> {
    let mut out = Outcome::default();
    let setup_s: Vec<f64> = ctx
        .setups
        .iter()
        .map(|t| cpu::scaled(t.cpu, t.reference))
        .collect();
    out.metrics.put("setup_s", median(&setup_s), "s");
    let cpu_per_image = match &prep.served {
        Served::Engine(engine) => {
            let run = closed_loop(ctx, engine, ctx.seconds, false)?;
            out.attempted += run.images;
            out.mismatched += run.mismatched;
            let per_call: Vec<f64> = run
                .calls_cpu
                .iter()
                .zip(&run.calls_ref)
                .map(|(&c, &r)| cpu::scaled(c, r))
                .collect();
            median(&per_call) / BATCH as f64
        }
        Served::Server { server, .. } => {
            let stream = wire::connect(server.local_addr())?;
            let mut next_id = 0u64;
            let rate = ctx.offered_rate();
            let phase = run_phase(ctx, &stream, &mut next_id, ctx.seconds, rate, 1, false)?;
            out.count(&phase);
            median(&phase.cpu_per_reply)
        }
    };
    out.metrics
        .put("cpu_ms_per_image", cpu_per_image * 1e3, "ms");
    out.metrics
        .put("cam_cycles_per_image", cam.total_cycles as f64, "cycles");
    out.metrics
        .put("cam_energy_nj_per_image", cam.total_energy_j * 1e9, "nJ");
    Ok(out)
}

/// One open-loop phase of the workload's schedule at `rate`.
fn run_phase(
    ctx: &Ctx,
    stream: &TcpStream,
    next_id: &mut u64,
    seconds: f64,
    rate: f64,
    salt: u64,
    traced: bool,
) -> Res<Phase> {
    let sched = ctx.schedule(seconds, rate, salt);
    // About half a second of replies per CPU window, in whole bursts.
    let cpu_window = BATCH * ((rate * 0.5 / BATCH as f64).round() as usize).max(1);
    wire::open_loop(
        stream,
        next_id,
        &sched,
        &ctx.pool,
        &ctx.oracle,
        ctx.dims(),
        traced,
        cpu_window,
    )
}

/// Latencies from due (completed requests only, ms) and the phase's
/// delivery span in seconds (first due to last completion).
fn latencies(phase: &Phase) -> (Vec<f64>, f64) {
    let lat: Vec<f64> = schedule::latencies_from_due(&phase.due, &phase.done)
        .into_iter()
        .filter(|l| l.is_finite())
        .collect();
    let last = phase
        .done
        .iter()
        .copied()
        .filter(|d| d.is_finite())
        .fold(0.0, f64::max);
    let first = phase.due.first().copied().unwrap_or(0.0);
    (lat, (last - first).max(1e-9))
}

/// The ladder verdict inputs of one phase at `rate`.
fn rung(phase: &Phase, rate: f64) -> Rung {
    let (lat, _) = latencies(phase);
    let end = phase.due.last().copied().unwrap_or(0.0);
    let last = phase.done.iter().copied().fold(end, f64::max);
    Rung {
        rate,
        p99_ms: stats::windowed_percentile(&lat, 0.99),
        drain_ms: (last - end) * 1e3,
        errors: phase.failed() + phase.mismatched,
    }
}

/// Climbs the capacity ladder above `base` (a phase at the offered rate)
/// in rungs that together take at most `budget` seconds, retrying a
/// failed rate once, and returns the highest rate that met `slo_ms`.
/// Requests refused past capacity end the ladder; they are counted as
/// attempted but not as failures of the workload.
fn capacity_ladder(
    ctx: &Ctx,
    stream: &TcpStream,
    next_id: &mut u64,
    base: Rung,
    budget: f64,
    out: &mut Outcome,
) -> Res<f64> {
    let mut rates = vec![base.rate];
    rates.extend(schedule::ladder(2.0 * base.rate, 1.12, 8.0 * base.rate));
    let mut rungs = vec![base];
    let rung_secs = (budget / 12.0).max(0.5);
    let mut used = 0.0;
    let (mut i, mut retried) = (0usize, false);
    while used + rung_secs <= budget {
        if schedule::rung_passes(rungs.last().expect("rung"), ctx.spec.slo_ms) {
            (i, retried) = (i + 1, false);
        } else if retried {
            break; // this rate failed twice
        } else {
            retried = true;
        }
        let Some(&r) = rates.get(i) else { break };
        let salt = 100 + rungs.len() as u64;
        let p = run_phase(ctx, stream, next_id, rung_secs, r, salt, false)?;
        out.attempted += p.due.len();
        out.mismatched += p.mismatched;
        rungs.push(rung(&p, r));
        used += rung_secs;
    }
    Ok(schedule::max_rps_at_slo(&rungs, ctx.spec.slo_ms))
}

/// A closed-loop offline run over the pooled mini-batches.
struct ClosedLoop {
    /// Per-`infer_batch` call time, ms.
    calls_ms: Vec<f64>,
    /// Process CPU time of each call, s.
    calls_cpu: Vec<f64>,
    /// CPU time of the reference computation after each call, s.
    calls_ref: Vec<f64>,
    /// When each call returned, seconds from the loop start.
    ends: Vec<f64>,
    /// Generator time between one call's return and the next call, ms.
    gaps_ms: Vec<f64>,
    images: usize,
    mismatched: usize,
}

fn closed_loop(ctx: &Ctx, engine: &DeepCamEngine, seconds: f64, traced: bool) -> Res<ClosedLoop> {
    let batches = pooled_batches(ctx)?;
    let mut run = ClosedLoop {
        calls_ms: Vec::new(),
        calls_cpu: Vec::new(),
        calls_ref: Vec::new(),
        ends: Vec::new(),
        gaps_ms: Vec::new(),
        images: 0,
        mismatched: 0,
    };
    // Traced runs keep a span per call (start, end) besides the timings.
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    let start = Instant::now();
    let mut last = start;
    let mut b = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let (batch, inputs) = &batches[b % batches.len()];
        let cpu0 = cpu::snapshot();
        let t0 = Instant::now();
        let logits = engine.infer_batch(batch)?;
        let t1 = Instant::now();
        run.calls_cpu.push(cpu::snapshot().since(&cpu0));
        run.calls_ref.push(cpu::reference_s());
        if traced {
            spans.push((t0, t1));
        }
        run.calls_ms.push((t1 - t0).as_secs_f64() * 1e3);
        run.gaps_ms.push((t0 - last).as_secs_f64() * 1e3);
        run.ends.push((t1 - start).as_secs_f64());
        run.mismatched +=
            stats::mismatches(logits.data(), logits.shape().dim(1), inputs, &ctx.oracle);
        run.images += inputs.len();
        last = Instant::now();
        b += 1;
    }
    std::hint::black_box(spans);
    Ok(run)
}

/// The pool as mini-batches of `BATCH`, with each row's pool index.
fn pooled_batches(ctx: &Ctx) -> Res<Vec<(Tensor, Vec<usize>)>> {
    (0..ctx.pool.len() / BATCH)
        .map(|b| {
            let idx: Vec<usize> = (b * BATCH..(b + 1) * BATCH).collect();
            let imgs: Vec<&[f32]> = idx.iter().map(|&i| ctx.pool[i].as_slice()).collect();
            Ok((setup::stack(&imgs, ctx.dims())?, idx))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Traced run: per-layer metrics
// ---------------------------------------------------------------------

/// The wall-clock rate and latencies of an offline closed loop, as
/// `loadgen.*` metrics.
fn closed_loop_wall(out: &mut Outcome, run: &ClosedLoop, slo_ms: f64) {
    let rate = stats::windowed_rate(&run.ends, BATCH as f64);
    let within = run.calls_ms.iter().filter(|&&ms| ms <= slo_ms).count();
    let share = within as f64 / run.calls_ms.len().max(1) as f64;
    let p50 = out.pct("loadgen.batch_ms_p50", &run.calls_ms, 0.50);
    let p90 = out.pct("loadgen.batch_ms_p90", &run.calls_ms, 0.90);
    let p99 = out.pct("loadgen.req_ms_p99", &run.calls_ms, 0.99);
    out.metrics.put("loadgen.images_per_s", rate, "img/s");
    out.metrics.put("loadgen.batch_ms_p50", p50, "ms");
    out.metrics.put("loadgen.batch_ms_p90", p90, "ms");
    // An offline image's latency is its mini-batch call's.
    out.metrics.put("loadgen.req_ms_p50", p50, "ms");
    out.metrics.put("loadgen.req_ms_p99", p99, "ms");
    out.metrics
        .put("loadgen.max_rps_at_slo", rate * share, "req/s");
}

/// The wall-clock rate and latencies of an open-loop phase, as
/// `loadgen.*` metrics (all but `loadgen.max_rps_at_slo`).
fn open_loop_wall(out: &mut Outcome, phase: &Phase) {
    let (lat, span) = latencies(phase);
    let groups = schedule::group_spans(&phase.due, &phase.done, BATCH);
    out.metrics.put(
        "loadgen.images_per_s",
        phase.completed() as f64 / span,
        "img/s",
    );
    for (name, sample, q) in [
        ("loadgen.batch_ms_p50", &groups, 0.50),
        ("loadgen.batch_ms_p90", &groups, 0.90),
        ("loadgen.req_ms_p50", &lat, 0.50),
        ("loadgen.req_ms_p99", &lat, 0.99),
    ] {
        let v = out.pct(name, sample, q);
        out.metrics.put(name, v, "ms");
    }
}

fn traced(ctx: &Ctx, prep: &Prepared) -> Res<Outcome> {
    let mut out = Outcome::default();
    let t = ctx.seconds;
    let slo = ctx.spec.slo_ms;
    let lag_ms: Vec<f64>;
    let (sent, completed, slo_misses, errors, overhead);
    let (session, before, after): (Phase, SessionStats, SessionStats);
    let mut server_stats = ServerStats::default();
    match &prep.served {
        Served::Engine(engine) => {
            let plain = closed_loop(ctx, engine, 0.3 * t, false)?;
            let run = closed_loop(ctx, engine, 0.3 * t, true)?;
            closed_loop_wall(&mut out, &plain, slo);
            overhead =
                stats::windowed_rate(&plain.ends, 1.0) / stats::windowed_rate(&run.ends, 1.0) - 1.0;
            out.attempted += plain.images + run.images;
            out.mismatched += plain.mismatched + run.mismatched;
            lag_ms = run.gaps_ms.clone();
            sent = run.images;
            completed = run.images;
            slo_misses = run.calls_ms.iter().filter(|&&ms| ms > slo).count() * BATCH;
            errors = run.mismatched;
            // The serving layers see the same images in-process: a
            // closed loop of mini-batch-sized request groups.
            let registry = Arc::new(ModelRegistry::new());
            registry.register(
                MODEL_ID,
                DeepCamEngine::from_compiled(prep.compiled.clone())?,
            );
            let runtime = Runtime::new(registry, setup::session_config());
            before = runtime.stats(MODEL_ID)?;
            session = closed_session(ctx, &runtime, 0.2 * t)?;
            after = runtime.stats(MODEL_ID)?;
            // No wire here: time the codec on this workload's frames.
            let mut frames = Vec::new();
            for (batch, inputs) in &pooled_batches(ctx)? {
                let logits = engine.infer_batch(batch)?;
                let classes = logits.shape().dim(1);
                for (row, &i) in inputs.iter().enumerate() {
                    let reply = Response::Logits(
                        logits.data()[row * classes..(row + 1) * classes].to_vec(),
                    );
                    frames.push((request_frame(ctx, i), encode_payload_v2(i as u64, &reply)));
                }
            }
            let (enc, dec) = codec_times(&frames)?;
            out.metrics.put("serve.protocol.encode_us", enc, "us");
            out.metrics.put("serve.protocol.decode_us", dec, "us");
        }
        Served::Server { runtime, server } => {
            let stream = wire::connect(server.local_addr())?;
            let mut next_id = 0u64;
            let rate = ctx.offered_rate();
            let plain = run_phase(ctx, &stream, &mut next_id, 0.3 * t, rate, 1, false)?;
            let phase = run_phase(ctx, &stream, &mut next_id, 0.3 * t, rate, 2, true)?;
            out.count(&plain);
            out.count(&phase);
            open_loop_wall(&mut out, &plain);
            let p50 = |p: &Phase| percentile(&sorted(&latencies(p).0), 0.5);
            overhead = p50(&phase) / p50(&plain) - 1.0;
            lag_ms = phase
                .sent
                .iter()
                .zip(&phase.due)
                .map(|(s, d)| (s - d) * 1e3)
                .collect();
            sent = phase.due.len();
            completed = phase.completed();
            let (lat, _) = latencies(&phase);
            slo_misses = lat.iter().filter(|&&ms| ms > slo).count() + phase.failed();
            errors = phase.failed() + phase.mismatched;
            // Live codec spans of this phase's own frames.
            out.metrics.put(
                "serve.protocol.encode_us",
                median(&phase.encode_s) * 1e6,
                "us",
            );
            out.metrics.put(
                "serve.protocol.decode_us",
                median(&phase.decode_s) * 1e6,
                "us",
            );
            let sched = ctx.schedule(0.2 * t, rate, 3);
            before = runtime.stats(MODEL_ID)?;
            session = wire::session_replay(runtime, &sched, &ctx.pool, &ctx.oracle, ctx.dims())?;
            after = runtime.stats(MODEL_ID)?;
            server_stats = server.stats();
            // The ladder runs last: past capacity it is refused, which
            // the server counters above must not include.
            let max_rps = match ctx.spec.load {
                Load::Poisson { .. } => {
                    let base = rung(&plain, rate);
                    capacity_ladder(ctx, &stream, &mut next_id, base, 0.2 * t, &mut out)?
                }
                _ => {
                    let (lat, span) = latencies(&plain);
                    lat.iter().filter(|&&ms| ms <= slo).count() as f64 / span
                }
            };
            out.metrics.put("loadgen.max_rps_at_slo", max_rps, "req/s");
        }
    }
    // Every request frame of a workload has the same size.
    out.metrics.put(
        "serve.protocol.frame_bytes",
        request_frame(ctx, 0).len() as f64 + 4.0,
        "bytes",
    );

    // serve.session: the in-process replay of the same load.
    out.count(&session);
    let (lat, span) = latencies(&session);
    let v = out.pct("serve.session.req_ms_p50", &lat, 0.50);
    out.metrics.put("serve.session.req_ms_p50", v, "ms");
    let v = out.pct("serve.session.req_ms_p99", &lat, 0.99);
    out.metrics.put("serve.session.req_ms_p99", v, "ms");
    // The replay's share of the session counters.
    let batches = after.batches - before.batches;
    let images =
        after.mean_occupancy * after.batches as f64 - before.mean_occupancy * before.batches as f64;
    out.metrics.put(
        "serve.session.occupancy_mean",
        images / batches.max(1) as f64,
        "images",
    );
    out.metrics
        .put("serve.session.batches_per_s", batches as f64 / span, "1/s");
    out.metrics
        .put("serve.session.rejected", session.refused as f64, "count");
    out.metrics
        .put("serve.server.refused", server_stats.refused as f64, "count");
    out.metrics.put(
        "serve.server.timed_out",
        server_stats.timed_out as f64,
        "count",
    );
    out.metrics.put(
        "serve.server.protocol_errors",
        server_stats.protocol_errors as f64,
        "count",
    );

    let v = out.pct("loadgen.lag_ms_p99", &lag_ms, 0.99);
    out.metrics.put("loadgen.lag_ms_p99", v, "ms");
    out.metrics.put("loadgen.sent", sent as f64, "count");
    out.metrics
        .put("loadgen.completed", completed as f64, "count");
    out.metrics.put(
        "loadgen.slo_miss_frac",
        slo_misses as f64 / sent.max(1) as f64,
        "fraction",
    );
    out.metrics.put(
        "loadgen.error_frac",
        errors as f64 / sent.max(1) as f64,
        "fraction",
    );
    out.metrics.put("trace.overhead_frac", overhead, "fraction");

    // core.compile: medians over this run's set-ups.
    let med =
        |f: fn(&setup::Timings) -> f64| median(&ctx.setups.iter().map(f).collect::<Vec<_>>()) * 1e3;
    out.metrics
        .put("core.compile.compile_ms", med(|t| t.compile), "ms");
    out.metrics
        .put("core.compile.passes_ms", med(|t| t.passes), "ms");
    out.metrics.put(
        "core.compile.artifact_bytes",
        prep.artifact.len() as f64,
        "bytes",
    );
    out.metrics
        .put("core.compile.load_ms", med(|t| t.load), "ms");

    engine_probe(ctx, prep, &mut out)?;
    Ok(out)
}

/// The encoded protocol-v2 request payload for pool input `i`.
fn request_frame(ctx: &Ctx, i: usize) -> Vec<u8> {
    encode_payload_v2(
        i as u64,
        &Request::Infer {
            model: MODEL_ID.into(),
            dims: ctx.dims().to_vec(),
            data: ctx.pool[i].clone(),
        },
    )
}

/// Median request-encode and reply-decode times over `frames`, µs.
fn codec_times(frames: &[(Vec<u8>, Vec<u8>)]) -> Res<(f64, f64)> {
    let mut enc = Vec::with_capacity(frames.len());
    let mut dec = Vec::with_capacity(frames.len());
    for (req, reply) in frames {
        let (_, msg) = decode_payload_v2::<Request>(req)?;
        let t = Instant::now();
        let again = encode_payload_v2(0, &msg);
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(again);
        let t = Instant::now();
        let back = decode_payload_v2::<Response>(reply)?;
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(back);
    }
    Ok((median(&enc), median(&dec)))
}

/// A closed loop of `BATCH`-request groups through an in-process
/// runtime for `seconds`; each request is timed from its group's
/// submission.
fn closed_session(ctx: &Ctx, runtime: &Runtime, seconds: f64) -> Res<Phase> {
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut g = 0usize;
    let groups = ctx.pool.len() / BATCH;
    while start.elapsed().as_secs_f64() < seconds {
        let t0 = start.elapsed().as_secs_f64();
        let pending: Vec<_> = (0..BATCH)
            .map(|r| {
                let i = (g % groups) * BATCH + r;
                (i, runtime.submit(MODEL_ID, &ctx.dims(), &ctx.pool[i]))
            })
            .collect();
        for (i, p) in pending {
            phase.due.push(t0);
            phase.sent.push(t0);
            match p.and_then(|p| p.wait()) {
                Ok(l) => {
                    phase.done.push(start.elapsed().as_secs_f64());
                    phase.mismatched += usize::from(stats::digest(&l) != ctx.oracle[i]);
                }
                Err(_) => {
                    phase.done.push(f64::INFINITY);
                }
            }
        }
        g += 1;
    }
    Ok(phase)
}

/// Replays the engine phase by phase on the probe model and reports
/// the `core.*` and `hash.*` per-layer metrics.
fn engine_probe(ctx: &Ctx, prep: &Prepared, out: &mut Outcome) -> Res<()> {
    // The probe is scaled VGG11 under the workload's plan; the LeNet5
    // workload probes the offline plan (uniform k = 256).
    let (compiled, images): (CompiledModel, Vec<Vec<f32>>) = match ctx.spec.net {
        Net::Vgg11 => (prep.compiled.clone(), ctx.pool[..BATCH].to_vec()),
        Net::Lenet5 => {
            let offline = setup::spec("offline-vgg11").ok_or("offline workload")?;
            let mut c =
                CompiledModel::compile(&Net::Vgg11.build(), setup::engine_config(&offline.plan))?;
            deepcam_core::passes::apply(&mut c, &deepcam_core::passes::default_passes())?;
            (c, setup::inputs(ctx.seed, BATCH, Net::Vgg11.dims()))
        }
    };
    let cnn = Net::Vgg11.build();
    let refs: Vec<&[f32]> = images.iter().map(Vec::as_slice).collect();
    let batch = setup::stack(&refs, Net::Vgg11.dims())?;
    let engine = DeepCamEngine::from_compiled(compiled.clone())?;
    let derived = replay::derive(&compiled);
    const REPS: usize = 5;
    let mut infer_s = Vec::with_capacity(REPS);
    let mut replays = Vec::with_capacity(REPS);
    let mut logits = Vec::new();
    for rep in 0..=REPS {
        let t0 = Instant::now();
        logits = engine
            .infer_batch_with(&batch, Parallelism::Serial)?
            .into_vec();
        let t = t0.elapsed().as_secs_f64();
        let r = replay::replay(&cnn, &compiled, &derived, &batch)?;
        // The first repetition warms caches and is not reported.
        if rep > 0 {
            infer_s.push(t);
            replays.push(r);
        }
    }
    // The replay must compute exactly what the engine computes.
    if replays.iter().any(|r| r.logits != logits) {
        out.mismatched += 1;
        eprintln!("perfbench: engine replay diverged from infer");
    }
    let infer = median(&infer_s);
    let layers = replays[0].layers.len();
    let med =
        |f: &dyn Fn(&replay::Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    for i in 0..layers {
        let l = |r: &replay::Replay| r.layers[i].clone();
        let p = format!("core.layer{i}");
        out.metrics
            .put(format!("{p}.im2col_ms"), med(&|r| l(r).im2col) * 1e3, "ms");
        out.metrics
            .put(format!("{p}.proj_ms"), med(&|r| l(r).proj) * 1e3, "ms");
        out.metrics
            .put(format!("{p}.pack_ms"), med(&|r| l(r).pack) * 1e3, "ms");
        out.metrics.put(
            format!("{p}.hamming_ms"),
            med(&|r| l(r).hamming) * 1e3,
            "ms",
        );
        out.metrics
            .put(format!("{p}.lut_ms"), med(&|r| l(r).lut) * 1e3, "ms");
        out.metrics.put(
            format!("{p}.proj_gflops"),
            med(&|r| l(r).proj_gflops()),
            "GFLOP/s",
        );
        out.metrics.put(
            format!("{p}.input_density"),
            replays[0].layers[i].input_density(),
            "fraction",
        );
    }
    out.metrics
        .put("core.peripheral_ms", med(&|r| r.peripheral) * 1e3, "ms");
    let gbps = |r: &replay::Replay| {
        let bytes: f64 = r
            .layers
            .iter()
            .map(replay::LayerPhases::hamming_bytes)
            .sum();
        let secs: f64 = r.layers.iter().map(|l| l.hamming).sum();
        bytes / secs.max(1e-12) / 1e9
    };
    out.metrics.put("hash.hamming_gbps", med(&gbps), "GB/s");
    out.metrics
        .put("core.engine.batch_ms_p50", infer * 1e3, "ms");
    out.metrics.put(
        "core.engine.phase_coverage",
        med(&|r| r.total()) / infer,
        "fraction",
    );

    let cam = setup::cam_report(&compiled)?;
    for (i, l) in cam.layers.iter().enumerate() {
        out.metrics.put(
            format!("core.sched.layer{i}.cycles"),
            l.cycles as f64,
            "cycles",
        );
        out.metrics.put(
            format!("core.sched.layer{i}.energy_nj"),
            l.energy.total() * 1e9,
            "nJ",
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU time the hypervisor took from this host's vCPUs
/// (`steal` in `/proc/stat`, at the usual 100 ticks per second); 0 where
/// unavailable.
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// The checkout's git revision when it is a git work tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("{r} (packed)")),
        None => head,
    }
}

fn cpu_flags() -> Vec<&'static str> {
    #[allow(unused_mut)]
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    flags.push($f);
                }
            )*};
        }
        probe!(
            "popcnt",
            "avx2",
            "fma",
            "bmi2",
            "avx512f",
            "avx512vpopcntdq"
        );
    }
    flags
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_list(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", inner.join(", "))
}

fn provenance(args: &Args, out: &Outcome, steal_s: f64) -> String {
    let env: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("DEEPCAM_"))
        .collect();
    let flags: Vec<String> = cpu_flags().into_iter().map(String::from).collect();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {cores}, \"cpu_flags\": {}, \"simd\": {}, \"git_rev\": {}, \
         \"deepcam_env_set\": {}, \"engine_parallelism\": \"Fixed({})\", \"server_core\": \"epoll\", \
         \"unsupported_percentiles\": {}, \"host_steal_s\": {steal_s:.2}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_list(&flags),
        json_str(simd::active().name()),
        json_str(&git_rev()),
        json_list(&env),
        setup::WORKERS,
        json_list(&out.unsupported),
    )
}

fn result_json(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed + out.mismatched,
        metrics.join(", ")
    )
}
