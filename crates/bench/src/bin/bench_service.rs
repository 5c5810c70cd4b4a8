//! Serving-layer performance harness: streams multi-tenant traffic
//! through the `FactorizationService` (micro-batching, warmed shards),
//! measures sustained throughput and per-request wall-latency
//! percentiles, compares against the equivalent closed-batch
//! `Session::run_batched` loop at the same thread count, verifies the
//! live-vs-replay bit-identity contract, then puts the same pool behind
//! the TCP front-end and sweeps an open-loop lognormal traffic generator
//! across offered-load multiples of the measured closed-loop capacity
//! (latency and shed-rate curves). Writes a `BENCH_service.json`
//! summary.
//!
//! ```sh
//! cargo run --release -p h3dfact_bench --bin bench_service            # full
//! cargo run --release -p h3dfact_bench --bin bench_service -- --quick # CI smoke
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use h3dfact::prelude::*;
use h3dfact::server;
use h3dfact_bench::service as fx;
use h3dfact_bench::traffic;

/// Nearest-rank percentile over a sorted sample, with the rank computed
/// in integer per-mille (e.g. `999` = p99.9) — float percentages like
/// `99.9/100.0` round above the true ratio and overshoot the rank.
fn percentile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((permille * sorted.len()).div_ceil(1000)).max(1);
    sorted[rank - 1]
}

/// A shape whose codebooks get hot-tier lane mirrors (1024×1024 rows:
/// 16 words wide) at 128 KiB per member, so promotion pays real
/// materialization.
const MIRRORED_SPEC: ProblemSpec = ProblemSpec {
    factors: 2,
    codebook_size: 1024,
    dim: 1024,
};

/// A session pinned to a private registry, at the bench seed discipline.
fn registry_session(registry: &Arc<CodebookRegistry>, spec: ProblemSpec, seed: u64) -> Session {
    Session::builder()
        .spec(spec)
        .backend(BackendKind::Stochastic)
        .seed(seed)
        .max_iters(fx::MAX_ITERS)
        .registry(Arc::clone(registry))
        .build()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = h3dfact_bench::env::threads().max(2);
    let rounds = if quick { 8 } else { 48 };
    let requests_total = rounds * fx::BATCH * 2; // two tenants per round

    // ── Baseline: the closed-batch loop the service must not lose to. ──
    // Same shape, seed, budget, thread count; each round generates and
    // solves one batch of fx::BATCH problems.
    let mut session = fx::baseline_session(threads);
    let t0 = Instant::now();
    let mut baseline_problems = 0usize;
    let mut baseline_solved = 0usize;
    for _ in 0..rounds * 2 {
        let report = session.run_batched(fx::BATCH);
        baseline_problems += report.problems;
        baseline_solved += report.solved;
    }
    let baseline_wall_s = t0.elapsed().as_secs_f64();
    let baseline_rps = baseline_problems as f64 / baseline_wall_s;

    // ── Service: the same volume streamed by two tenants. ──
    // Request generation is inside the timed loop (the baseline's
    // `run_batched` also generates in-loop), so the comparison is
    // end-to-end on both sides.
    let mut svc = fx::service(threads);
    let mut tenant_a = svc.request_stream("tenant-a", BackendKind::Stochastic, 0);
    let mut tenant_b = svc.request_stream("tenant-b", BackendKind::Stochastic, 1);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for _ in 0..fx::BATCH {
            svc.submit(tenant_a.next_request());
            svc.submit(tenant_b.next_request());
        }
        svc.pump();
    }
    let responses = svc.drain();
    let service_wall_s = t0.elapsed().as_secs_f64();
    let service_rps = responses.len() as f64 / service_wall_s;
    assert_eq!(responses.len(), requests_total);
    let service_solved = responses.iter().filter(|r| r.outcome.solved).count();

    // Wall-latency percentiles (submit → micro-batch completion).
    let mut latencies: Vec<f64> = responses
        .iter()
        .filter_map(|r| r.wall_latency_s)
        .map(|l| l * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let (p50, p95, p99) = (
        percentile(&latencies, 500),
        percentile(&latencies, 950),
        percentile(&latencies, 990),
    );

    // ── The determinism contract: live micro-batched output must equal
    // the serial trace replay bit for bit. ──
    // Replay returns trace (flush) order while `drain` returns admission
    // id order; the contract is per-request bit-identity, so compare on
    // matching ids.
    let mut replayed = svc.replay(svc.trace());
    replayed.sort_by_key(|r| r.id);
    let identical = responses.len() == replayed.len()
        && responses.iter().zip(&replayed).all(|(l, r)| {
            l.outcome.decoded == r.outcome.decoded
                && l.outcome.solved == r.outcome.solved
                && l.outcome.iterations == r.outcome.iterations
                && l.cursor == r.cursor
                && l.shard == r.shard
        });

    let stats = svc.stats();
    let throughput_ratio = service_rps / baseline_rps;

    // ── The network front-end: latency under offered load. ──
    // Step 1: closed loop (one request in flight) over loopback measures
    // the zero-queueing capacity of this pool for one connection.
    let probe_svc = fx::service(threads);
    let mut probe_stream = probe_svc.request_stream("probe", BackendKind::Stochastic, 7);
    let probe_handle =
        server::spawn(probe_svc, ServerConfig::default()).expect("spawn probe server");
    let closed_n = if quick { 32 } else { 128 };
    let closed = traffic::closed_loop(probe_handle.local_addr(), &mut probe_stream, closed_n);
    probe_handle.shutdown();
    assert_eq!(closed.protocol_errors, 0, "closed loop saw protocol errors");
    assert_eq!(closed.completed, closed_n, "closed loop lost responses");
    let capacity_rps = closed.achieved_rps;

    // Step 2: open-loop lognormal traffic at multiples of that capacity,
    // against a server whose tenant quota admits exactly `capacity_rps`
    // sustained — above 1× the token bucket sheds the overload instead
    // of queueing without bound, so the curve shows both queueing delay
    // (latency percentiles) and explicit backpressure (shed rate).
    let load_svc = fx::service(threads);
    let mut load_stream = load_svc.request_stream("load", BackendKind::Stochastic, 8);
    let load_config = ServerConfig::default().quota(
        "load",
        TenantQuota::rate_limited(capacity_rps, 2.0 * fx::BATCH as f64),
    );
    let load_handle = server::spawn(load_svc, load_config).expect("spawn load server");
    // Registry traffic snapshot: the load service resolves its codebook
    // handle once per solved micro-batch, so the delta across the sweep
    // is the hot-tier hit profile under open-loop traffic.
    let reg_before = CodebookRegistry::global().stats();
    let open_n = if quick { 48 } else { 256 };
    let offered_multiples = [0.5, 1.0, 2.0];
    let sweep: Vec<(f64, traffic::TrafficReport)> = offered_multiples
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let report = traffic::open_loop(
                load_handle.local_addr(),
                &mut load_stream,
                open_n,
                x * capacity_rps,
                1.0, // lognormal sigma: decidedly heavy-tailed
                fx::SEED + i as u64,
            );
            assert_eq!(report.protocol_errors, 0, "open loop saw protocol errors");
            assert_eq!(
                report.completed + report.shed,
                open_n,
                "every request must be answered or explicitly shed"
            );
            (x, report)
        })
        .collect();
    let reg_after = CodebookRegistry::global().stats();
    let sweep_resolves = reg_after.resolves - reg_before.resolves;
    let sweep_hot_hits = reg_after.hot_hits - reg_before.hot_hits;
    let sweep_hit_rate = if sweep_resolves == 0 {
        1.0
    } else {
        sweep_hot_hits as f64 / sweep_resolves as f64
    };

    let load_svc = load_handle.shutdown();
    // The admitted-under-load trace replays deterministically (the
    // bit-identity of live wire responses against replay is asserted
    // request-by-request in tests/server.rs; here we check the trace the
    // open-loop run produced is itself stable).
    let wire_replay_ok = {
        let once = load_svc.replay(load_svc.trace());
        let twice = load_svc.replay(load_svc.trace());
        once.len() == twice.len()
            && once
                .iter()
                .zip(&twice)
                .all(|(a, b)| a.outcome.decoded == b.outcome.decoded && a.cursor == b.cursor)
    };

    // ── Registry: the content-addressed codebook memory hierarchy. ──
    // (a) Warm-up amortization: steady-state hot-tier resolve vs a
    // resolve that must rematerialize demoted lane mirrors, on a shape
    // whose members get 128 KiB lane mirrors.
    let roomy = Arc::new(CodebookRegistry::new());
    let hot_session = registry_session(&roomy, MIRRORED_SPEC, fx::SEED);
    let hot_handle = hot_session.codebook_handle().clone();
    let resolve_reps = if quick { 200 } else { 2000 };
    let t = Instant::now();
    for _ in 0..resolve_reps {
        std::hint::black_box(hot_handle.resolve());
    }
    let hot_resolve_ns = t.elapsed().as_secs_f64() * 1e9 / resolve_reps as f64;

    // A zero-byte budget forces the two sets to evict each other on
    // every alternating touch: each resolve pays full rematerialization.
    let pressured = Arc::new(CodebookRegistry::with_hot_budget(0));
    let pa = registry_session(&pressured, MIRRORED_SPEC, fx::SEED);
    let pb = registry_session(&pressured, MIRRORED_SPEC, fx::SEED + 1);
    let (ha, hb) = (pa.codebook_handle().clone(), pb.codebook_handle().clone());
    let cold_reps = if quick { 20 } else { 100 };
    let t = Instant::now();
    for _ in 0..cold_reps {
        std::hint::black_box(ha.resolve());
        std::hint::black_box(hb.resolve());
    }
    let cold_resolve_us = t.elapsed().as_secs_f64() * 1e6 / (2 * cold_reps) as f64;
    assert!(
        pressured.stats().demotions >= (2 * cold_reps - 2) as u64,
        "zero budget must demote on every alternating resolve"
    );

    // (b) Steady-state resident bytes per tenant: N sessions over one
    // shared codebook set vs N sessions with distinct sets.
    let tenancy: Vec<(usize, u64, u64)> = [1usize, 8, 64]
        .iter()
        .map(|&tenants| {
            let shared = Arc::new(CodebookRegistry::new());
            let _kept: Vec<Session> = (0..tenants)
                .map(|_| registry_session(&shared, fx::SPEC, fx::SEED))
                .collect();
            let distinct = Arc::new(CodebookRegistry::new());
            let _kept: Vec<Session> = (0..tenants)
                .map(|i| registry_session(&distinct, fx::SPEC, fx::SEED + 1 + i as u64))
                .collect();
            (
                tenants,
                shared.stats().resident_bytes(),
                distinct.stats().resident_bytes(),
            )
        })
        .collect();
    let single_tenant_bytes = tenancy[0].1;
    let shared_64_total = tenancy[2].1;
    let shared_64_per_tenant = shared_64_total as f64 / 64.0;
    let distinct_8_per_tenant = tenancy[1].2 as f64 / 8.0;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"service\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(
        json,
        "  \"host_available_parallelism\": {},",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let _ = writeln!(json, "  \"max_iters\": {},", fx::MAX_ITERS);
    let _ = writeln!(json, "  \"batch_size\": {},", fx::BATCH);
    let _ = writeln!(json, "  \"baseline_run_batched\": {{");
    let _ = writeln!(json, "    \"problems\": {baseline_problems},");
    let _ = writeln!(json, "    \"solved\": {baseline_solved},");
    let _ = writeln!(json, "    \"wall_s\": {baseline_wall_s:.4},");
    let _ = writeln!(json, "    \"throughput_rps\": {baseline_rps:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"service\": {{");
    let _ = writeln!(json, "    \"requests\": {},", responses.len());
    let _ = writeln!(json, "    \"solved\": {service_solved},");
    let _ = writeln!(json, "    \"wall_s\": {service_wall_s:.4},");
    let _ = writeln!(json, "    \"throughput_rps\": {service_rps:.1},");
    let _ = writeln!(json, "    \"latency_p50_ms\": {p50:.3},");
    let _ = writeln!(json, "    \"latency_p95_ms\": {p95:.3},");
    let _ = writeln!(json, "    \"latency_p99_ms\": {p99:.3},");
    let _ = writeln!(json, "    \"flushes\": {},", stats.flushes);
    let _ = writeln!(json, "    \"flushed_by_size\": {},", stats.flushed_by_size);
    let _ = writeln!(
        json,
        "    \"flushed_by_deadline\": {},",
        stats.flushed_by_deadline
    );
    let _ = writeln!(json, "    \"largest_batch\": {}", stats.largest_batch);
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serving\": {{");
    let _ = writeln!(json, "    \"closed_loop\": {{");
    let _ = writeln!(json, "      \"requests\": {},", closed.sent);
    let _ = writeln!(json, "      \"wall_s\": {:.4},", closed.wall_s);
    let _ = writeln!(json, "      \"capacity_rps\": {capacity_rps:.1},");
    let _ = writeln!(json, "      \"latency_p50_ms\": {:.3},", closed.p50_ms);
    let _ = writeln!(json, "      \"latency_p95_ms\": {:.3},", closed.p95_ms);
    let _ = writeln!(json, "      \"latency_p99_ms\": {:.3},", closed.p99_ms);
    let _ = writeln!(json, "      \"latency_p999_ms\": {:.3}", closed.p999_ms);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"open_loop_sigma\": 1.0,");
    let _ = writeln!(json, "    \"offered_load_curve\": [");
    for (i, (x, r)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"offered_x_capacity\": {x:.2},");
        let _ = writeln!(json, "        \"offered_rps\": {:.1},", x * capacity_rps);
        let _ = writeln!(json, "        \"sent\": {},", r.sent);
        let _ = writeln!(json, "        \"completed\": {},", r.completed);
        let _ = writeln!(json, "        \"shed\": {},", r.shed);
        let _ = writeln!(json, "        \"shed_rate\": {:.4},", r.shed_rate());
        let _ = writeln!(json, "        \"achieved_rps\": {:.1},", r.achieved_rps);
        let _ = writeln!(json, "        \"latency_p50_ms\": {:.3},", r.p50_ms);
        let _ = writeln!(json, "        \"latency_p95_ms\": {:.3},", r.p95_ms);
        let _ = writeln!(json, "        \"latency_p99_ms\": {:.3},", r.p99_ms);
        let _ = writeln!(json, "        \"latency_p999_ms\": {:.3}", r.p999_ms);
        let _ = writeln!(json, "      }}{comma}");
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"replay_stable_under_load\": {wire_replay_ok}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"registry\": {{");
    let _ = writeln!(json, "    \"hot_resolve_ns\": {hot_resolve_ns:.0},");
    let _ = writeln!(json, "    \"cold_resolve_us\": {cold_resolve_us:.2},");
    let _ = writeln!(
        json,
        "    \"warmup_amortization_x\": {:.1},",
        cold_resolve_us * 1e3 / hot_resolve_ns.max(1.0)
    );
    let _ = writeln!(json, "    \"tenancy\": [");
    for (i, (tenants, shared_total, distinct_total)) in tenancy.iter().enumerate() {
        let comma = if i + 1 < tenancy.len() { "," } else { "" };
        let _ = writeln!(json, "      {{");
        let _ = writeln!(json, "        \"tenants\": {tenants},");
        let _ = writeln!(json, "        \"shared_total_bytes\": {shared_total},");
        let _ = writeln!(
            json,
            "        \"shared_bytes_per_tenant\": {:.1},",
            *shared_total as f64 / *tenants as f64
        );
        let _ = writeln!(json, "        \"distinct_total_bytes\": {distinct_total},");
        let _ = writeln!(
            json,
            "        \"distinct_bytes_per_tenant\": {:.1}",
            *distinct_total as f64 / *tenants as f64
        );
        let _ = writeln!(json, "      }}{comma}");
    }
    let _ = writeln!(json, "    ],");
    let _ = writeln!(json, "    \"open_loop_resolves\": {sweep_resolves},");
    let _ = writeln!(json, "    \"open_loop_hot_hits\": {sweep_hot_hits},");
    let _ = writeln!(json, "    \"open_loop_hot_hit_rate\": {sweep_hit_rate:.4}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"throughput_vs_run_batched\": {throughput_ratio:.3},"
    );
    let _ = writeln!(json, "  \"live_equals_replay\": {identical}");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    print!("{json}");

    assert!(identical, "live service output diverged from trace replay");
    assert!(wire_replay_ok, "serving trace replay is unstable");
    // Registry memory-hierarchy gates (run in --quick too: byte
    // accounting is deterministic, unlike wall-clock throughput).
    assert!(
        shared_64_per_tenant < distinct_8_per_tenant,
        "64 shared-codebook tenants must undercut the 8-tenant distinct \
         baseline per tenant ({shared_64_per_tenant:.1} vs {distinct_8_per_tenant:.1} bytes)"
    );
    assert!(
        shared_64_total as f64 <= 1.1 * single_tenant_bytes as f64,
        "64 tenants sharing one codebook set must stay within 1.1x the \
         single-tenant footprint ({shared_64_total} vs {single_tenant_bytes} bytes)"
    );
    // The throughput floor is a full-run assertion only: the --quick CI
    // smoke gates correctness (bit-identity above), not wall-clock — an
    // 8-round sample on a loaded shared runner is too noisy to fail on.
    assert!(
        quick || throughput_ratio >= 0.9,
        "service throughput fell more than 10% below the closed-batch loop \
         ({service_rps:.1} vs {baseline_rps:.1} rps)"
    );
}
