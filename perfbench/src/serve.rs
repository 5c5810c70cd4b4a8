//! The serving workloads (`serve-closed`, `serve-open`) over TCP
//! loopback against the standard fixture, plus the serving-layer probes
//! the traced solve workloads run at their own shape.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use h3dfact::prelude::*;
use h3dfact::server::{self, ServeClient, ServerConfig, ServerHandle};
use h3dfact::service::{FactorizeRequest, RequestStream};
use h3dfact::wire::{Frame, WireResponse, WireStats};

use crate::layers::{self, ResonatorTally};
use crate::{median, percentile, Args, Cell, Report, SetupTimer, SERVE_CELL};

/// Service shards of the fixture.
const SHARDS: usize = 2;
/// Micro-batch size.
const BATCH: usize = 8;
/// Deadline flush.
const FLUSH: Duration = Duration::from_millis(2);
/// The server's pump period (its default), mirrored by the replica.
const PUMP_TICK: Duration = Duration::from_millis(1);
/// Service worker threads (pinned).
const SERVICE_THREADS: usize = 2;
/// Dedicated server solver threads (pinned).
const SOLVER_THREADS: usize = 1;
/// The fixture's codebook seed; requests follow `--seed`.
const SERVICE_SEED: u64 = 50;
/// Per-shard queue bound: deep enough that the overload step queues
/// instead of shedding, so no request of any workload fails.
const QUEUE_CAPACITY: usize = 1 << 14;

/// `serve-open` rates, requests/second. Absolute, never scaled by a
/// measured capacity, and away from rates where the p99 straddles the
/// ~40 ms delayed-ACK tail or the SLO limit (on the 2-vCPU host they were
/// chosen on, 3000 rps did both; 6000 rps is far enough above capacity
/// that its step always shows the growing backlog).
const NOMINAL_RPS: f64 = 500.0;
const LADDER_RPS: [f64; 3] = [1_000.0, 2_000.0, 6_000.0];
/// The overload step: bursts of this many requests all due at once, far
/// above capacity, so the server drains a backlog at its saturating rate.
/// Capacity is the median over the bursts.
const OVERLOAD_REQUESTS: usize = 8_000;
const OVERLOAD_BURSTS: usize = 4;
/// The `slo_rps` latency limit on a ladder step's p99 (from due time).
const SLO_P99_MS: f64 = 50.0;
/// Lognormal interarrival shape of the open loop.
const SIGMA: f64 = 1.0;
/// A generator whose p99 lateness exceeds this made an invalid run.
/// Latency is timed from the due time, so smaller lateness only bunches
/// arrivals; past ten nominal interarrivals the schedule no longer holds.
const MAX_LATE_P99_MS: f64 = 20.0;
/// Tenants interleaved on the open-loop connection.
const TENANTS: u64 = 4;

fn fixture(cell: &Cell, registry: &Arc<CodebookRegistry>) -> FactorizationService {
    FactorizationService::builder()
        .spec(cell.spec)
        .backends(&[(cell.kind, SHARDS)])
        .seed(SERVICE_SEED)
        .max_iters(cell.budget)
        .batch_size(BATCH)
        .queue_capacity(QUEUE_CAPACITY)
        .threads(SERVICE_THREADS)
        .flush_deadline(FLUSH)
        .registry(Arc::clone(registry))
        .build()
}

fn spawn(service: FactorizationService) -> ServerHandle {
    server::spawn(
        service,
        ServerConfig::default().solver_threads(SOLVER_THREADS),
    )
    .expect("bind a loopback server")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    ServeClient::connect(handle.local_addr()).expect("connect to the loopback server")
}

/// One request per shard, answered: the fixture's lazy first-use work.
/// One at a time: two answers written back to back on the server's
/// socket would wait for the client's delayed ACK.
fn warm_up(client: &mut ServeClient, stream: &mut RequestStream, live: &mut Vec<WireResponse>) {
    for tag in 0..SHARDS as u64 {
        client
            .send_request(u64::MAX - tag, &stream.next_request())
            .expect("send warm-up request");
        match client.recv() {
            Ok(Some(Frame::Response(r))) => live.push(r),
            other => panic!("warm-up request not answered: {other:?}"),
        }
    }
}

/// One cold serving set-up: build the service on a private registry,
/// spawn, connect with Hello, and get one answer per shard.
fn setup_once(cell: &Cell) -> f64 {
    let start = Instant::now();
    let registry = Arc::new(CodebookRegistry::new());
    let service = fixture(cell, &registry);
    let mut stream = service.request_stream("warm-up", cell.kind, u64::MAX);
    let handle = spawn(service);
    let mut client = connect(&handle);
    warm_up(&mut client, &mut stream, &mut Vec::new());
    let elapsed = start.elapsed().as_secs_f64();
    drop(client);
    handle.shutdown();
    elapsed
}

fn decoded_matches(r: &WireResponse, truth: &Option<Vec<usize>>) -> bool {
    truth.as_ref().is_some_and(|t| {
        t.len() == r.decoded.len() && t.iter().zip(&r.decoded).all(|(&a, &b)| a == b as usize)
    })
}

/// Shuts the server down and checks every live response against the
/// serial replay of the trace it hands back. Returns the replayed
/// outcomes' resonator tally and the replay wall time.
fn shutdown_and_replay(
    handle: ServerHandle,
    live: &[WireResponse],
    report: &mut Report,
) -> (ResonatorTally, f64) {
    let service = handle.shutdown();
    let t = Instant::now();
    let replayed = service.replay(service.trace());
    let replay_s = t.elapsed().as_secs_f64();
    let by_id: HashMap<u64, _> = replayed.iter().map(|r| (r.id.0, r)).collect();
    let mismatched = live
        .iter()
        .filter(|l| {
            by_id.get(&l.id).is_none_or(|r| {
                r.outcome.decoded.len() != l.decoded.len()
                    || r.outcome
                        .decoded
                        .iter()
                        .zip(&l.decoded)
                        .any(|(&a, &b)| a != b as usize)
                    || r.outcome.iterations as u64 != l.iterations
                    || r.outcome.solved != l.solved
                    || r.cursor != l.cursor
                    || r.shard != l.shard as usize
            })
        })
        .count();
    report.check(
        "live_equals_replay",
        mismatched == 0 && replayed.len() == live.len(),
        format!(
            "{} live responses, {} replayed, {mismatched} differ",
            live.len(),
            replayed.len()
        ),
    );
    report.failed += mismatched as u64;
    let mut tally = ResonatorTally::default();
    tally.add_all(replayed.iter().map(|r| &r.outcome));
    (tally, replay_s)
}

/// A closed loop of one outstanding request for `window` (and at least
/// `min_requests`). Returns per-request client latencies (ms), the live
/// responses, requests attempted, and the elapsed seconds.
struct ClosedRun {
    latency_ms: Vec<f64>,
    live: Vec<WireResponse>,
    attempted: usize,
    answered_correctly: usize,
    /// Answers reported solved with a wrong decode.
    wrong: usize,
    lost: usize,
    elapsed_s: f64,
}

fn closed_loop(
    client: &mut ServeClient,
    stream: &mut RequestStream,
    window: Duration,
    min_requests: usize,
) -> ClosedRun {
    let mut run = ClosedRun {
        latency_ms: Vec::new(),
        live: Vec::new(),
        attempted: 0,
        answered_correctly: 0,
        wrong: 0,
        lost: 0,
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    let mut tag = 0u64;
    while start.elapsed() < window || run.attempted < min_requests {
        let request = stream.next_request();
        let sent = Instant::now();
        run.attempted += 1;
        if client.send_request(tag, &request).is_err() {
            run.lost += 1;
            break;
        }
        match client.recv() {
            Ok(Some(Frame::Response(r))) if r.tag == tag => {
                run.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                let right = decoded_matches(&r, &request.truth);
                run.answered_correctly += usize::from(right);
                run.wrong += usize::from(r.solved && !right);
                run.live.push(r);
            }
            _ => {
                run.lost += 1;
                break;
            }
        }
        tag += 1;
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}

pub fn closed(args: &Args, report: &mut Report) {
    let cell = SERVE_CELL;
    let setup = SetupTimer::start(|| setup_once(&cell));

    let registry = Arc::new(CodebookRegistry::new());
    let service = fixture(&cell, &registry);
    let mut warm = service.request_stream("warm-up", cell.kind, u64::MAX);
    let mut stream = service.request_stream("closed", cell.kind, args.seed);
    let handle = spawn(service);
    let mut client = connect(&handle);
    let mut live = Vec::new();
    warm_up(&mut client, &mut warm, &mut live);

    let run = closed_loop(&mut client, &mut stream, args.window(), 1);
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    let stats = handle.stats();
    drop(client);
    live.extend(run.live.iter().cloned());

    let answered = run.latency_ms.len();
    report.attempted = run.attempted as u64;
    report.failed = (run.attempted - answered + run.wrong) as u64;
    report.check(
        "no_lost_requests",
        run.lost == 0,
        format!("{} of {} requests unanswered", run.lost, run.attempted),
    );
    report.metric("req_p50_ms", percentile(&run.latency_ms, 500), "ms");
    report.metric("req_p95_ms", percentile(&run.latency_ms, 950), "ms");
    report.metric("req_p99_ms", percentile(&run.latency_ms, 990), "ms");
    report.metric("throughput_rps", answered as f64 / run.elapsed_s, "1/s");
    report.metric("solves_per_s", answered as f64 / run.elapsed_s, "1/s");
    report.metric("ok_share", answered as f64 / run.attempted as f64, "ratio");
    report.metric(
        "solved_rate",
        run.answered_correctly as f64 / run.attempted as f64,
        "ratio",
    );

    let (tally, replay_s) = shutdown_and_replay(handle, &live, report);
    setup.finish(report);
    if args.trace {
        server_metrics(&stats, &stats, &run.latency_ms, report);
        let replica = replica(&cell, args.seed, None, replica_window(args));
        replica.report(report);
        cross_check_stages(&run.latency_ms, &stats, &replica, true, report);
        tally.report(report);
        tally.check_wall(replay_s, report);
        serving_layer_common(&cell, args, &stats, report);
    }
}

fn replica_window(args: &Args) -> Duration {
    Duration::from_secs_f64((args.seconds * 0.1).clamp(0.5, 2.0))
}

/// The per-layer metrics shared by both serve workloads.
fn serving_layer_common(cell: &Cell, args: &Args, stats: &WireStats, report: &mut Report) {
    report.metric("registry.hot_hit_rate", hot_hit_rate(stats), "ratio");
    report.metric(
        "registry.resident_bytes",
        stats.registry.resident_bytes() as f64,
        "bytes",
    );
    layers::probe_cells(std::slice::from_ref(cell), args.seed, report);
    layers::session_call_probe(cell, args.seed, report);
}

fn hot_hit_rate(stats: &WireStats) -> f64 {
    if stats.registry.resolves == 0 {
        1.0
    } else {
        stats.registry.hot_hits as f64 / stats.registry.resolves as f64
    }
}

/// `server.*` and the batch counters: latencies from the STATS frame
/// `latency` (against the client's own latencies over the same
/// requests), counters from `stats`.
fn server_metrics(latency: &WireStats, stats: &WireStats, client_ms: &[f64], report: &mut Report) {
    let [_accepted, _rejected, completed, flushes, _size, by_deadline, _drain, _largest, expired] =
        stats.service;
    report.metric("server.p50_ms", latency.p50_ms, "ms");
    report.metric("server.p99_ms", latency.p99_ms, "ms");
    report.metric(
        "server.hop_p50_ms",
        percentile(client_ms, 500) - latency.p50_ms,
        "ms",
    );
    report.metric(
        "server.hop_p99_ms",
        percentile(client_ms, 990) - latency.p99_ms,
        "ms",
    );
    report.metric("server.accepted", stats.accepted as f64, "count");
    report.metric("server.shed_total", stats.shed_total() as f64, "count");
    report.metric(
        "service.batch_size_mean",
        completed as f64 / flushes.max(1) as f64,
        "count",
    );
    report.metric(
        "service.flush_deadline_share",
        by_deadline as f64 / flushes.max(1) as f64,
        "ratio",
    );
    report.metric("service.expired", expired as f64, "count");
    report.check(
        "no_accounting_anomalies",
        stats.accounting_anomalies == 0,
        format!("{} slot-accounting anomalies", stats.accounting_anomalies),
    );
}

/// ROADMAP 1(a)/5: hop + flush wait + solve must account for the
/// client p50. Enforced on `serve-closed`, where one outstanding request
/// makes the stages additive; reported elsewhere.
fn cross_check_stages(
    client_ms: &[f64],
    stats: &WireStats,
    replica: &Replica,
    enforce: bool,
    report: &mut Report,
) {
    let client_p50 = percentile(client_ms, 500);
    let hop = client_p50 - stats.p50_ms;
    let stages = hop + median(&replica.flush_wait_ms) + median(&replica.solve_ms);
    let ratio = stages / client_p50;
    report.metric("server.stage_sum_ratio", ratio, "ratio");
    if enforce {
        report.check(
            "stage_sum_matches_client_p50",
            (0.9..=1.1).contains(&ratio),
            format!("hop + flush wait + solve = {stages:.3} ms vs client p50 {client_p50:.3} ms"),
        );
    }
}

/// An in-process replica of the server's service path — admission,
/// pump-tick deadline formation (or size formation), off-service solve
/// on a shard engine, completion — timing each public call. `gap` is
/// the open-loop mean interarrival (lognormal); `None` is a closed loop
/// of one outstanding request.
pub struct Replica {
    admit_ns: Vec<f64>,
    form_ns: Vec<f64>,
    solve_ms: Vec<f64>,
    complete_ns: Vec<f64>,
    flush_wait_ms: Vec<f64>,
}

impl Replica {
    fn report(&self, report: &mut Report) {
        report.metric("service.admit_ns", median(&self.admit_ns), "ns");
        report.metric("service.form_ns", median(&self.form_ns), "ns");
        report.metric("service.solve_ms_per_batch", median(&self.solve_ms), "ms");
        report.metric("service.complete_ns", median(&self.complete_ns), "ns");
        report.metric("service.flush_wait_ms", median(&self.flush_wait_ms), "ms");
    }
}

fn replica(cell: &Cell, seed: u64, gap: Option<Duration>, window: Duration) -> Replica {
    let registry = Arc::new(CodebookRegistry::new());
    let mut service = fixture(cell, &registry);
    let mut streams: Vec<RequestStream> = (0..TENANTS)
        .map(|t| {
            service.request_stream(
                &format!("tenant-{t}"),
                cell.kind,
                seed.wrapping_mul(TENANTS).wrapping_add(t),
            )
        })
        .collect();
    let factories: Vec<_> = (0..SHARDS)
        .map(|i| service.shard_engine_factory(i))
        .collect();
    let mut engines: Vec<_> = factories.iter().map(|f| f()).collect();
    let mut arrivals = Lognormal::new(seed, gap.map_or(1.0, |g| g.as_secs_f64()), SIGMA);
    let mut out = Replica {
        admit_ns: Vec::new(),
        form_ns: Vec::new(),
        solve_ms: Vec::new(),
        complete_ns: Vec::new(),
        flush_wait_ms: Vec::new(),
    };
    let mut admitted_at: HashMap<u64, Instant> = HashMap::new();
    let start = Instant::now();
    let mut next_arrival = Some(start);
    let mut next_tick = start + PUMP_TICK;
    let mut k = 0u64;
    while start.elapsed() < window {
        let due = next_arrival.filter(|&a| a <= next_tick);
        let wake = due.unwrap_or(next_tick);
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mut batches = Vec::new();
        if due.is_some() {
            let request = streams[(k % TENANTS) as usize].next_request();
            k += 1;
            let t = Instant::now();
            let admission = service.try_admit(request).expect("replica queue has room");
            out.admit_ns.push(t.elapsed().as_nanos() as f64);
            admitted_at.insert(admission.id.0, t);
            next_arrival = gap.map(|_| wake + Duration::from_secs_f64(arrivals.next()));
            if admission.batch_ready {
                let t = Instant::now();
                batches.extend(
                    service.take_batch(admission.shard, h3dfact::service::FlushReason::Size),
                );
                out.form_ns.push(t.elapsed().as_nanos() as f64);
            }
        } else {
            next_tick += PUMP_TICK;
            let t = Instant::now();
            let due = service.take_due(t);
            if !due.is_empty() {
                out.form_ns.push(t.elapsed().as_nanos() as f64);
            }
            batches.extend(due);
        }
        let formed = Instant::now();
        for batch in batches {
            let shard = batch.shard();
            let books = service.codebook_handle().resolve();
            let t = Instant::now();
            let solved = batch.solve_with(engines[shard].as_mut(), &books);
            out.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            service.complete_batch(solved);
            out.complete_ns.push(t.elapsed().as_nanos() as f64);
            for r in service.take_responses() {
                if let Some(at) = admitted_at.remove(&r.id.0) {
                    out.flush_wait_ms
                        .push(formed.duration_since(at).as_secs_f64() * 1e3);
                }
                if gap.is_none() {
                    next_arrival = Some(Instant::now());
                }
            }
        }
    }
    out
}

/// The serving-layer probe the traced solve workloads run at their
/// first cell's shape: a short closed loop against a live server of that
/// cell, its STATS, and the in-process service replica.
pub fn probe(cell: &Cell, seed: u64, report: &mut Report) {
    let registry = Arc::new(CodebookRegistry::new());
    let service = fixture(cell, &registry);
    let mut warm = service.request_stream("warm-up", cell.kind, u64::MAX);
    let mut stream = service.request_stream("probe", cell.kind, seed);
    let handle = spawn(service);
    let mut client = connect(&handle);
    let mut live = Vec::new();
    warm_up(&mut client, &mut warm, &mut live);
    let run = closed_loop(&mut client, &mut stream, Duration::from_millis(500), 32);
    let stats = handle.stats();
    drop(client);
    live.extend(run.live);
    report.check(
        "probe_answers_complete_and_right",
        run.lost == 0 && run.wrong == 0,
        format!(
            "{} of {} probe requests unanswered, {} solved wrongly",
            run.lost, run.attempted, run.wrong
        ),
    );
    let mut probe_checks = Report::default();
    shutdown_and_replay(handle, &live, &mut probe_checks);
    for (name, ok, detail) in probe_checks.checks {
        report.check(&format!("probe_{name}"), ok, detail);
    }
    server_metrics(&stats, &stats, &run.latency_ms, report);
    let replica = replica(cell, seed, None, Duration::from_millis(500));
    replica.report(report);
    cross_check_stages(&run.latency_ms, &stats, &replica, false, report);
}

// ─── serve-open ─────────────────────────────────────────────────────────

/// Seeded lognormal samples with a given mean (Box–Muller normals; the
/// offline `rand` shim has uniforms only).
struct Lognormal {
    rng: rand::rngs::StdRng,
    mu: f64,
    sigma: f64,
}

impl Lognormal {
    fn new(seed: u64, mean: f64, sigma: f64) -> Self {
        use rand::SeedableRng;
        Lognormal {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            // The mean of a lognormal is exp(mu + sigma²/2).
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
        }
    }

    fn next(&mut self) -> f64 {
        use rand::Rng;
        let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// One open-loop phase: a fixed offered rate for a fixed time, or a
/// burst of requests all due at its start.
struct Phase {
    name: String,
    rps: f64,
    seconds: f64,
    burst: usize,
}

/// Per-request facts the sender records.
#[derive(Clone, Copy)]
struct Sent {
    phase: usize,
    due: Instant,
    sent: Instant,
}

pub fn open(args: &Args, report: &mut Report) {
    let cell = SERVE_CELL;
    let setup = SetupTimer::start(|| setup_once(&cell));

    // Nominal first, so a STATS snapshot taken right after it holds the
    // nominal server latencies alone; the overload step last, so its
    // backlog cannot leak into another phase.
    let t = args.seconds;
    let mut phases = vec![Phase {
        name: "nominal".into(),
        rps: NOMINAL_RPS,
        seconds: 0.35 * t,
        burst: 0,
    }];
    phases.extend(LADDER_RPS.iter().map(|&rps| Phase {
        name: format!("ladder-{rps}"),
        rps,
        seconds: 0.05 * t,
        burst: 0,
    }));
    let overload = phases.len();
    phases.extend((0..OVERLOAD_BURSTS).map(|b| Phase {
        name: format!("overload-{b}"),
        rps: f64::INFINITY,
        seconds: 0.0,
        burst: OVERLOAD_REQUESTS,
    }));
    const NOMINAL: usize = 0;

    let registry = Arc::new(CodebookRegistry::new());
    let service = fixture(&cell, &registry);
    let mut warm = service.request_stream("warm-up", cell.kind, u64::MAX);
    let mut streams: Vec<RequestStream> = (0..TENANTS)
        .map(|i| {
            service.request_stream(
                &format!("tenant-{i}"),
                cell.kind,
                args.seed.wrapping_mul(TENANTS).wrapping_add(i),
            )
        })
        .collect();
    let handle = spawn(service);
    let mut sender = connect(&handle);
    let mut live = Vec::new();
    warm_up(&mut sender, &mut warm, &mut live);

    // Receiver: every frame with its arrival time, until the server
    // closes the connection after the sender's half-close.
    let received = Arc::new(AtomicUsize::new(0));
    let protocol_error = Arc::new(AtomicBool::new(false));
    let frames: Arc<Mutex<Vec<(Instant, Frame)>>> = Arc::new(Mutex::new(Vec::new()));
    let receiver = {
        let mut rx = sender.try_clone().expect("clone the client socket");
        let (received, protocol_error, frames) =
            (received.clone(), protocol_error.clone(), frames.clone());
        std::thread::spawn(move || loop {
            match rx.recv() {
                Ok(Some(frame @ Frame::Response(_))) => {
                    frames
                        .lock()
                        .expect("frame log")
                        .push((Instant::now(), frame));
                    received.fetch_add(1, Ordering::SeqCst);
                }
                Ok(None) => break,
                Ok(Some(_)) | Err(_) => {
                    protocol_error.store(true, Ordering::SeqCst);
                    received.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
    };

    let mut arrivals = Lognormal::new(args.seed, 1.0, SIGMA);
    let mut sent: Vec<Sent> = Vec::new();
    let mut truths: Vec<Option<Vec<usize>>> = Vec::new();
    let mut nominal_stats = None;
    let mut send_failed = false;
    for (p, phase) in phases.iter().enumerate() {
        let gap_scale = 1.0 / phase.rps;
        let start = Instant::now() + Duration::from_millis(1);
        let mut due_s = 0.0f64;
        for k in 0.. {
            if phase.burst > 0 {
                if k == phase.burst {
                    break;
                }
            } else {
                due_s += gap_scale * arrivals.next();
                if due_s >= phase.seconds {
                    break;
                }
            }
            let due = start + Duration::from_secs_f64(due_s);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let tag = sent.len() as u64;
            let request: FactorizeRequest = streams[(tag % TENANTS) as usize].next_request();
            let at = Instant::now();
            if sender.send_request(tag, &request).is_err() {
                send_failed = true;
                break;
            }
            sent.push(Sent {
                phase: p,
                due,
                sent: at,
            });
            truths.push(request.truth);
        }
        // Quiesce: the next phase starts on an empty queue.
        let deadline = Instant::now() + Duration::from_secs(10);
        while received.load(Ordering::SeqCst) < sent.len() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if p == NOMINAL {
            nominal_stats = Some(handle.stats());
        }
        if send_failed {
            break;
        }
    }
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");
    let stats = handle.stats();
    sender
        .finish_sending()
        .expect("half-close the client socket");
    receiver.join().expect("receiver thread");
    drop(sender);

    let frames = std::mem::take(&mut *frames.lock().expect("frame log"));
    let mut answered: Vec<Option<(Instant, WireResponse)>> = vec![None; sent.len()];
    let mut duplicates = 0usize;
    for (at, frame) in frames {
        if let Frame::Response(r) = frame {
            match answered.get_mut(r.tag as usize) {
                Some(slot @ None) => *slot = Some((at, r)),
                _ => duplicates += 1,
            }
        }
    }
    let ok = answered.iter().filter(|a| a.is_some()).count();
    let correct = answered
        .iter()
        .zip(&truths)
        .filter(|(a, t)| a.as_ref().is_some_and(|(_, r)| decoded_matches(r, t)))
        .count();
    let wrong = answered
        .iter()
        .zip(&truths)
        .filter(|(a, t)| {
            a.as_ref()
                .is_some_and(|(_, r)| r.solved && !decoded_matches(r, t))
        })
        .count();
    report.attempted = sent.len() as u64;
    report.failed = (sent.len() - ok + wrong) as u64;
    report.check(
        "no_protocol_errors",
        !protocol_error.load(Ordering::SeqCst) && !send_failed && duplicates == 0,
        format!("send failed: {send_failed}, duplicate/unknown tags: {duplicates}"),
    );
    report.check(
        "no_lost_requests",
        ok == sent.len(),
        format!("{} of {} requests unanswered", sent.len() - ok, sent.len()),
    );

    // Latency from the due time, per phase.
    let latency = |p: usize| -> Vec<f64> {
        sent.iter()
            .zip(&answered)
            .filter(|(s, _)| s.phase == p)
            .filter_map(|(s, a)| {
                a.as_ref()
                    .map(|(at, _)| at.duration_since(s.due).as_secs_f64() * 1e3)
            })
            .collect()
    };
    let late_ms: Vec<f64> = sent
        .iter()
        .filter(|s| s.phase < overload)
        .map(|s| s.sent.duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    let late_p99 = percentile(&late_ms, 990);
    report.check(
        "generator_on_schedule",
        late_p99 <= MAX_LATE_P99_MS,
        format!("gen.late_p99_ms = {late_p99:.3} (limit {MAX_LATE_P99_MS})"),
    );
    report.metric("gen.late_p99_ms", late_p99, "ms");

    let nominal_ms = latency(NOMINAL);
    report.metric("req_p50_ms", percentile(&nominal_ms, 500), "ms");
    report.metric("req_p95_ms", percentile(&nominal_ms, 950), "ms");
    report.metric("req_p99_ms", percentile(&nominal_ms, 990), "ms");

    // Saturating capacity: each burst's completions from its due time to
    // its last answer; the median over the bursts.
    let rates: Vec<f64> = (overload..phases.len())
        .map(|p| {
            let answers: Vec<Instant> = sent
                .iter()
                .zip(&answered)
                .filter(|(s, _)| s.phase == p)
                .filter_map(|(_, a)| a.as_ref().map(|(at, _)| *at))
                .collect();
            let due = sent.iter().find(|s| s.phase == p).map(|s| s.due);
            match (due, answers.iter().max()) {
                (Some(d), Some(last)) => {
                    answers.len() as f64 / last.duration_since(d).as_secs_f64()
                }
                _ => 0.0,
            }
        })
        .collect();
    let capacity = median(&rates);
    report.info("overload.rates", format!("{rates:.1?}"));
    report.metric("throughput_rps", capacity, "1/s");
    report.metric("solves_per_s", capacity, "1/s");

    let mut slo = 0.0f64;
    for (p, phase) in phases
        .iter()
        .enumerate()
        .filter(|(p, _)| *p != NOMINAL && *p < overload)
    {
        let ms = latency(p);
        let p99 = percentile(&ms, 990);
        let last_due = sent.iter().filter(|s| s.phase == p).map(|s| s.due).max();
        let last_answer = sent
            .iter()
            .zip(&answered)
            .filter(|(s, _)| s.phase == p)
            .filter_map(|(_, a)| a.as_ref().map(|(at, _)| *at))
            .max();
        let drained = match (last_due, last_answer) {
            (Some(d), Some(a)) => a.saturating_duration_since(d).as_secs_f64() * 1e3 <= SLO_P99_MS,
            _ => false,
        };
        report.info(&format!("{}.p99_ms", phase.name), format!("{p99:.3}"));
        if p99 <= SLO_P99_MS && drained && ms.len() == sent.iter().filter(|s| s.phase == p).count()
        {
            slo = slo.max(phase.rps);
        }
    }
    report.metric("slo_rps", slo, "1/s");
    report.metric("ok_share", ok as f64 / sent.len().max(1) as f64, "ratio");
    report.metric(
        "solved_rate",
        correct as f64 / sent.len().max(1) as f64,
        "ratio",
    );
    for (p, phase) in phases.iter().enumerate() {
        let n = sent.iter().filter(|s| s.phase == p).count();
        report.info(&format!("{}.sent", phase.name), n);
    }

    live.extend(answered.into_iter().flatten().map(|(_, r)| r));
    let (tally, replay_s) = shutdown_and_replay(handle, &live, report);
    setup.finish(report);
    if args.trace {
        // Latencies from the nominal snapshot; counters over the run.
        let nominal_stats = nominal_stats.unwrap_or_else(|| stats.clone());
        server_metrics(&nominal_stats, &stats, &nominal_ms, report);
        let gap = Duration::from_secs_f64(1.0 / NOMINAL_RPS);
        let replica = replica(&cell, args.seed, Some(gap), replica_window(args));
        replica.report(report);
        cross_check_stages(&nominal_ms, &nominal_stats, &replica, false, report);
        tally.report(report);
        tally.check_wall(replay_s, report);
        serving_layer_common(&cell, args, &stats, report);
    }
}
