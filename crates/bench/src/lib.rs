//! Shared helpers for the benchmark harness (see `benches/`).
//!
//! Each paper table/figure has a dedicated `harness = false` bench target
//! that prints the regenerated rows; `benches/kernels.rs` holds the
//! Criterion micro-benchmarks.

pub mod kernels {
    //! The packed-kernel microbench workloads, shared by the
    //! `kernels_packed` Criterion group (`benches/kernels.rs`) and the
    //! `bench_kernels` harness bin (which writes `BENCH_kernels.json`) so
    //! the two can never drift apart.

    use hdc::rng::rng_from_seed;
    use hdc::{BipolarVector, Codebook};

    /// Codebook rows `M` of the microbench shape.
    pub const M: usize = 256;
    /// Hypervector dimension `D` of the microbench shape.
    pub const D: usize = 1024;

    /// One fixture: the codebook, a query, and the mid-weight vector the
    /// projection benches drive (`w_j = j mod 16`, the shape of a coarse
    /// ADC readout).
    pub struct Fixture {
        /// The `M × D` codebook.
        pub book: Codebook,
        /// A random query vector.
        pub query: BipolarVector,
        /// Projection weights.
        pub weights: Vec<f64>,
    }

    /// Builds the standard `M = 256`, `D = 1024` fixture.
    pub fn fixture() -> Fixture {
        let mut rng = rng_from_seed(1);
        let book = Codebook::random(M, D, &mut rng);
        let query = BipolarVector::random(D, &mut rng);
        let weights = (0..M).map(|i| (i % 16) as f64).collect();
        Fixture {
            book,
            query,
            weights,
        }
    }

    /// Per-vector similarity baseline: one `BipolarVector::dot` per
    /// codevector (the pre-packed software path), written into `out`.
    pub fn similarities_pervector(fx: &Fixture, out: &mut [f64]) {
        for (o, v) in out.iter_mut().zip(fx.book.vectors()) {
            *o = v.dot(&fx.query) as f64;
        }
    }

    /// Packed similarity MVM into `out`.
    pub fn similarities_packed(fx: &Fixture, out: &mut [f64]) {
        fx.book.packed().similarities_into(&fx.query, out);
    }

    /// Allocating iteration round-trip (similarity + projection +
    /// re-sign), the seed-era kernel shape: fresh vectors every call.
    pub fn iteration_allocating(fx: &Fixture) -> BipolarVector {
        let sims: Vec<f64> = fx
            .book
            .vectors()
            .iter()
            .map(|v| v.dot(&fx.query) as f64)
            .collect();
        std::hint::black_box(&sims);
        let sums = hdc::ops::weighted_sums(fx.book.vectors(), &fx.weights);
        BipolarVector::from_reals_sign(&sums)
    }

    /// Scratch reused by [`iteration_allocfree`].
    pub struct IterationScratch {
        /// Similarity weights (`M`).
        pub sims: Vec<f64>,
        /// Projection sums (`D`).
        pub sums: Vec<f64>,
        /// The re-signed estimate.
        pub estimate: BipolarVector,
    }

    /// Builds the scratch for the alloc-free round-trip.
    pub fn iteration_scratch() -> IterationScratch {
        IterationScratch {
            sims: vec![0.0f64; M],
            sums: vec![0.0f64; D],
            estimate: BipolarVector::ones(D),
        }
    }

    /// Allocation-free iteration round-trip through the packed kernels
    /// and caller-owned scratch.
    pub fn iteration_allocfree(fx: &Fixture, scratch: &mut IterationScratch) {
        fx.book
            .packed()
            .similarities_into(&fx.query, &mut scratch.sims);
        std::hint::black_box(&scratch.sims);
        fx.book
            .packed()
            .weighted_sums_into(&fx.weights, &mut scratch.sums);
        scratch.estimate.assign_signs_of_reals(&scratch.sums);
    }

    /// The batch-executor session of the microbench: stochastic backend,
    /// `F = 3`, `M = 8`, `D = 256`, at the given worker-thread count.
    pub fn batch_session(threads: usize, max_iters: usize) -> h3dfact::session::Session {
        h3dfact::session::Session::builder()
            .spec(hdc::ProblemSpec::new(3, 8, 256))
            .backend(h3dfact::session::BackendKind::Stochastic)
            .seed(7)
            .max_iters(max_iters)
            .threads(threads)
            .build()
    }
}

pub mod service {
    //! Shared fixtures for the serving benchmarks: the standard service
    //! and the equivalent closed-batch session the `bench_service`
    //! harness bin (which writes `BENCH_service.json`) compares against,
    //! kept here so tests and the harness can never drift apart.

    use std::time::Duration;

    use h3dfact::prelude::*;

    /// The serving benchmark's problem shape.
    pub const SPEC: ProblemSpec = ProblemSpec {
        factors: 3,
        codebook_size: 8,
        dim: 256,
    };

    /// Master seed shared by the service and the baseline session.
    pub const SEED: u64 = 50;

    /// Iteration budget per request.
    pub const MAX_ITERS: usize = 500;

    /// Micro-batch size (also the baseline's closed-batch size).
    pub const BATCH: usize = 8;

    /// The standard two-shard stochastic service at `threads` workers.
    pub fn service(threads: usize) -> FactorizationService {
        FactorizationService::builder()
            .spec(SPEC)
            .backends(&[(BackendKind::Stochastic, 2)])
            .seed(SEED)
            .max_iters(MAX_ITERS)
            .batch_size(BATCH)
            .queue_capacity(4 * BATCH)
            .threads(threads)
            .flush_deadline(Duration::from_millis(2))
            .build()
    }

    /// The equivalent closed-batch baseline: one session, same shape,
    /// seed, and budget, driven through `Session::run_batched`.
    pub fn baseline_session(threads: usize) -> Session {
        Session::builder()
            .spec(SPEC)
            .backend(BackendKind::Stochastic)
            .seed(SEED)
            .max_iters(MAX_ITERS)
            .threads(threads)
            .build()
    }
}

pub mod traffic {
    //! Synthetic traffic generation for the network serving front-end:
    //! a closed-loop prober (one outstanding request — measures the
    //! no-queueing service capacity) and an open-loop generator with
    //! heavy-tailed lognormal interarrivals (offered load is independent
    //! of completions — queueing delay and shedding become visible).
    //! Shared by the `bench_service` harness (latency-vs-offered-load
    //! curves in `BENCH_service.json`) and the `traffic_gen` CI smoke.

    use std::net::SocketAddr;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use h3dfact::server::ServeClient;
    use h3dfact::service::RequestStream;
    use h3dfact::wire::Frame;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// What one traffic run observed, all timing client-side (so the
    /// latency includes the wire hop and any server-side queueing).
    #[derive(Debug, Clone)]
    pub struct TrafficReport {
        /// Requests sent.
        pub sent: usize,
        /// `Response` frames received.
        pub completed: usize,
        /// `Shed` frames received (explicit backpressure).
        pub shed: usize,
        /// Protocol faults observed (`Error` frames or codec errors).
        pub protocol_errors: usize,
        /// Wall time from first send to last completion, seconds.
        pub wall_s: f64,
        /// Completions per second over `wall_s`.
        pub achieved_rps: f64,
        /// Client-observed latency percentiles, milliseconds
        /// (send → response; shed requests are excluded).
        pub p50_ms: f64,
        /// 95th percentile, ms.
        pub p95_ms: f64,
        /// 99th percentile, ms.
        pub p99_ms: f64,
        /// 99.9th percentile, ms.
        pub p999_ms: f64,
    }

    impl TrafficReport {
        /// Fraction of sent requests shed.
        pub fn shed_rate(&self) -> f64 {
            if self.sent == 0 {
                0.0
            } else {
                self.shed as f64 / self.sent as f64
            }
        }
    }

    /// Nearest-rank percentiles (ms) over the collected latencies.
    fn percentiles(latencies_ms: &mut [f64]) -> (f64, f64, f64, f64) {
        if latencies_ms.is_empty() {
            return (0.0, 0.0, 0.0, 0.0);
        }
        latencies_ms.sort_by(f64::total_cmp);
        let n = latencies_ms.len();
        // Integer per-mille rank: `99.9/100.0` is not representable in
        // f64 (it rounds up), so the float formula overshoots the
        // nearest rank at n = 1000 — `(permille·n).ceil()` gave 1000
        // where rank 999 is correct.
        let pick = |permille: usize| {
            let rank = ((permille * n).div_ceil(1000)).max(1);
            latencies_ms[rank - 1]
        };
        (pick(500), pick(950), pick(990), pick(999))
    }

    /// Closed loop: one request in flight at a time, next send gated on
    /// the previous completion. The achieved rate is the service's
    /// zero-queueing capacity for this client — the natural unit for
    /// offered-load multiples in [`open_loop`].
    pub fn closed_loop(
        addr: SocketAddr,
        stream: &mut RequestStream,
        requests: usize,
    ) -> TrafficReport {
        let mut client = ServeClient::connect(addr).expect("connect");
        let mut latencies_ms = Vec::with_capacity(requests);
        let (mut completed, mut shed, mut protocol_errors) = (0usize, 0usize, 0usize);
        let t0 = Instant::now();
        for tag in 0..requests as u64 {
            let request = stream.next_request();
            let sent_at = Instant::now();
            client.send_request(tag, &request).expect("send");
            match client.recv() {
                Ok(Some(Frame::Response(r))) => {
                    assert_eq!(r.tag, tag, "closed loop sees its own tag");
                    completed += 1;
                    latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
                }
                Ok(Some(Frame::Shed { .. })) => shed += 1,
                _ => {
                    protocol_errors += 1;
                    break;
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let (p50_ms, p95_ms, p99_ms, p999_ms) = percentiles(&mut latencies_ms);
        TrafficReport {
            sent: requests,
            completed,
            shed,
            protocol_errors,
            wall_s,
            achieved_rps: completed as f64 / wall_s.max(1e-9),
            p50_ms,
            p95_ms,
            p99_ms,
            p999_ms,
        }
    }

    /// Open loop: sends are paced by a heavy-tailed lognormal
    /// interarrival process with mean `1/offered_rps`, regardless of how
    /// fast completions come back — offered load above capacity shows up
    /// as queueing delay and shed frames instead of silently throttling
    /// the generator. `sigma` is the lognormal shape parameter (≈ 1.0 is
    /// decidedly heavy-tailed; 0 degenerates to a uniform cadence).
    ///
    /// The schedule is absolute (`start + Σ gaps`), so a late send does
    /// not stretch the rest of the run: the generator catches up in a
    /// burst, as real open-loop load does.
    pub fn open_loop(
        addr: SocketAddr,
        stream: &mut RequestStream,
        requests: usize,
        offered_rps: f64,
        sigma: f64,
        seed: u64,
    ) -> TrafficReport {
        assert!(offered_rps > 0.0, "offered load must be positive");
        let sender = ServeClient::connect(addr).expect("connect");
        let mut receiver = sender.try_clone().expect("clone socket");

        // Receiver half: drain completions until every sent request is
        // answered (each gets exactly one response or shed frame).
        let (tx, rx) = mpsc::channel::<(u64, Instant)>();
        let collector = std::thread::spawn(move || {
            let mut send_times: Vec<Option<Instant>> = vec![None; requests];
            let mut latencies_ms = Vec::with_capacity(requests);
            let (mut completed, mut shed, mut protocol_errors) = (0usize, 0usize, 0usize);
            while completed + shed + protocol_errors < requests {
                // Sends happen-before their responses, so the timestamp
                // for any received tag is already in the channel.
                match receiver.recv() {
                    Ok(Some(Frame::Response(r))) => {
                        while send_times[r.tag as usize].is_none() {
                            let (tag, at) = rx.recv().expect("send timestamp");
                            send_times[tag as usize] = Some(at);
                        }
                        let sent_at = send_times[r.tag as usize].expect("recorded");
                        latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
                        completed += 1;
                    }
                    Ok(Some(Frame::Shed { .. })) => shed += 1,
                    Ok(Some(_)) | Ok(None) | Err(_) => {
                        protocol_errors += 1;
                        break;
                    }
                }
            }
            (latencies_ms, completed, shed, protocol_errors)
        });

        // Sender half: lognormal with mean 1/offered_rps means
        // `mu = ln(1/rps) − sigma²/2` (the mean of a lognormal is
        // `exp(mu + sigma²/2)`). Normal deviates via Box–Muller — the
        // offline rand shim has uniforms only.
        let mu = (1.0 / offered_rps).ln() - sigma * sigma / 2.0;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sender = sender;
        let start = Instant::now();
        let mut due_s = 0.0f64;
        for tag in 0..requests as u64 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            due_s += (mu + sigma * z).exp();
            let due = Duration::from_secs_f64(due_s);
            let elapsed = start.elapsed();
            if due > elapsed {
                std::thread::sleep(due - elapsed);
            }
            let request = stream.next_request();
            tx.send((tag, Instant::now())).expect("collector alive");
            sender.send_request(tag, &request).expect("send");
        }
        drop(tx);

        let (mut latencies_ms, completed, shed, protocol_errors) =
            collector.join().expect("collector thread");
        let wall_s = start.elapsed().as_secs_f64();
        let (p50_ms, p95_ms, p99_ms, p999_ms) = percentiles(&mut latencies_ms);
        TrafficReport {
            sent: requests,
            completed,
            shed,
            protocol_errors,
            wall_s,
            achieved_rps: completed as f64 / wall_s.max(1e-9),
            p50_ms,
            p95_ms,
            p99_ms,
            p999_ms,
        }
    }
}

pub mod env {
    //! Environment knobs shared by the bench targets.

    /// True when `H3DFACT_FULL=1`: run the paper-scale grids (hours)
    /// instead of the scaled defaults (minutes).
    pub fn full_scale() -> bool {
        std::env::var("H3DFACT_FULL")
            .map(|v| v == "1")
            .unwrap_or(false)
    }

    /// Trial count for accuracy cells, honoring `H3DFACT_TRIALS`.
    pub fn trials(default: usize) -> usize {
        std::env::var("H3DFACT_TRIALS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Worker threads, honoring `H3DFACT_THREADS`.
    pub fn threads() -> usize {
        std::env::var("H3DFACT_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
    }
}

pub mod workloads {
    //! Shared fixtures for the end-to-end `Workload` benchmarks: the
    //! standard session + workload pairs the `bench_workloads` harness
    //! bin (which writes `BENCH_workloads.json`) drives, kept here so
    //! future Criterion groups and the harness can never drift apart.

    use h3dfact::perception::{AttributeSchema, NeuralFrontend};
    use h3dfact::session::{BackendKind, Session};
    use h3dfact::workload::{
        CapacitySweep, IntegerFactorization, Perception, RandomFactorization, RobustnessSweep,
        SeverityPoint,
    };
    use hdc::ProblemSpec;

    /// The standard random-factorization shape (`F = 3`, `M = 8`,
    /// `D = 256`).
    pub const RANDOM_SPEC: ProblemSpec = ProblemSpec {
        factors: 3,
        codebook_size: 8,
        dim: 256,
    };

    /// Perception dimension used by the workload benches.
    pub const PERCEPTION_DIM: usize = 512;

    /// A session provisioned for `spec` on `kind` at `threads` workers.
    pub fn session(spec: ProblemSpec, kind: BackendKind, threads: usize) -> Session {
        Session::builder()
            .spec(spec)
            .backend(kind)
            .seed(40)
            .max_iters(1_500)
            .threads(threads)
            .build()
    }

    /// The benchmark's random-factorization workload.
    pub fn random() -> RandomFactorization {
        RandomFactorization::new(RANDOM_SPEC, 41)
    }

    /// The benchmark's attribute-estimation perception workload.
    pub fn perception_attributes() -> Perception {
        Perception::attributes(
            AttributeSchema::raven(),
            PERCEPTION_DIM,
            NeuralFrontend::paper_quality(5),
            42,
        )
    }

    /// The benchmark's RPM-puzzle perception workload.
    pub fn perception_puzzles() -> Perception {
        Perception::puzzles(
            AttributeSchema::raven(),
            PERCEPTION_DIM,
            NeuralFrontend::paper_quality(5),
            43,
        )
    }

    /// The benchmark's integer-factorization workload (primes below 100,
    /// `D = 1024`).
    pub fn integer() -> IntegerFactorization {
        IntegerFactorization::new(100, 1024, 44)
    }

    /// The benchmark's capacity-sweep workload at the random shape.
    pub fn capacity() -> CapacitySweep {
        CapacitySweep::new(RANDOM_SPEC, 45)
    }

    /// The benchmark's robustness sweep at the random shape (ROADMAP 4c).
    pub fn robustness() -> RobustnessSweep {
        RobustnessSweep::new(RANDOM_SPEC, 46)
    }

    /// The severity grid the robustness frontier measures: stuck-at
    /// rates crossed with PCM drift scales (`1 + ν·ln(1+t)` at ν = 0.05
    /// for t = 0 s, ~1 hour, ~1 month), extended with
    /// conductance-window nonlinearity cells (the nonlinear G–V write
    /// curve alone, and stacked on the worst drift cell).
    pub fn severity_grid(quick: bool) -> Vec<SeverityPoint> {
        let drift: Vec<f64> = [0.0, 3.6e3, 2.6e6]
            .iter()
            .map(|&t| SeverityPoint::pcm_drift_scale(0.05, t))
            .collect();
        let mut points = if quick {
            SeverityPoint::grid(&[0.0, 0.05], &drift[..2])
        } else {
            SeverityPoint::grid(&[0.0, 0.01, 0.05, 0.10], &drift)
        };
        let clean = points[0];
        let worst = *points.last().expect("grid is non-empty");
        points.push(clean.with_write_nonlinearity(0.15));
        if !quick {
            points.push(clean.with_write_nonlinearity(0.30));
            points.push(worst.with_write_nonlinearity(0.15));
        }
        points
    }
}
