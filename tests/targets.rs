//! Contract tests for the execution targets:
//!
//! 1. **Functional is the engine** — for every backend kind,
//!    `BackendKind::instantiate(TargetKind::Functional, ..)` is the engine
//!    its own constructor builds, with the documented default knobs: same
//!    name, outcomes, and `RunReport`s (energy ledgers included).
//! 2. **Approximate tiled co-simulation** — outcomes and run reports
//!    (energy, cycles, per-iteration temperature trajectory) are pinned
//!    bit for bit, deterministic per seed, thread-count invariant,
//!    replayable through the service, and physically sane.

use h3dfact::prelude::*;

/// Field-by-field outcome equality, excluding wall-clock phase times.
fn assert_outcomes_identical(a: &FactorizationOutcome, b: &FactorizationOutcome, cell: &str) {
    assert_eq!(a.solved, b.solved, "{cell}: solved");
    assert_eq!(a.iterations, b.iterations, "{cell}: iterations");
    assert_eq!(a.decoded, b.decoded, "{cell}: decoded indices");
    assert_eq!(a.converged, b.converged, "{cell}: converged");
    assert_eq!(
        a.degenerate_events, b.degenerate_events,
        "{cell}: degenerate events"
    );
}

/// The engine each kind's own constructor builds with the session's
/// default knobs (no ADC or noise override).
fn direct_engine(
    kind: BackendKind,
    spec: ProblemSpec,
    max_iters: usize,
    seed: u64,
) -> Box<dyn Backend> {
    let cfg = H3dFactConfig::default_for(spec).with_max_iters(max_iters);
    match kind {
        BackendKind::H3dFact => Box::new(H3dFact::new(cfg, seed)),
        BackendKind::Sram2d => Box::new(Sram2dEngine::new(spec, max_iters, seed)),
        BackendKind::Hybrid2d => Box::new(Hybrid2dEngine::new(cfg, seed)),
        BackendKind::Pcm => Box::new(PcmEngine::paper_default(spec, max_iters, seed)),
        BackendKind::Baseline => Box::new(BaselineResonator::new(max_iters, seed)),
        BackendKind::Stochastic => Box::new(StochasticResonator::with_cell_noise(
            spec,
            max_iters,
            StochasticResonator::CHIP_CELL_SIGMA,
            4,
            seed,
        )),
    }
}

/// Every backend kind's functional target is its direct engine: identical
/// outcomes and identical `RunReport`s (energy ledgers included), across
/// several runs so per-run seed derivation is exercised past cursor 0.
#[test]
fn functional_target_matches_direct_engines_for_all_kinds() {
    let spec = ProblemSpec::new(3, 8, 256);
    let problems: Vec<FactorizationProblem> = (0..3)
        .map(|i| FactorizationProblem::random(spec, &mut rng_from_seed(770 + i)))
        .collect();
    for kind in BackendKind::ALL {
        let mut direct = direct_engine(kind, spec, 500, 77);
        let mut routed = kind.instantiate(TargetKind::Functional, spec, 500, 77, None, None);
        assert_eq!(routed.name(), kind.name(), "{kind}: name");
        assert_eq!(direct.name(), routed.name(), "{kind}: name");
        for (i, p) in problems.iter().enumerate() {
            let cell = format!("{kind} problem {i}");
            let a = direct.factorize(p);
            let b = routed.factorize(p);
            assert_outcomes_identical(&a, &b, &cell);
            assert_eq!(
                direct.last_run_stats(),
                routed.last_run_stats(),
                "{cell}: run report (ledger included)"
            );
        }
    }
}

/// The approximate tiled target is deterministic per seed: two fresh
/// sessions produce bitwise-identical outcomes and run reports —
/// temperature trajectory, energy ledger, ADC counts and all.
#[test]
fn approx_tiled_cost_reports_are_deterministic_per_seed() {
    let spec = ProblemSpec::new(3, 8, 256);
    let run = |seed: u64| {
        let mut s = Session::builder()
            .spec(spec)
            .backend(BackendKind::H3dFact)
            .seed(seed)
            .max_iters(500)
            .target(TargetKind::ApproxTiled)
            .build();
        let report = s.run(2);
        (report, s.last_run_stats().expect("run report"))
    };
    let (ra, ca) = run(5);
    let (rb, cb) = run(5);
    assert_eq!(ra.solved, rb.solved);
    assert_eq!(ra.total_iterations, rb.total_iterations);
    for (a, b) in ra.outcomes.iter().zip(&rb.outcomes) {
        assert_outcomes_identical(a, b, "approx-tiled same-seed");
    }
    assert_eq!(ca, cb, "run reports must be bitwise identical per seed");
    // A different seed draws different device noise.
    let (_, cc) = run(6);
    assert_ne!(ca, cc, "different seeds must differ somewhere");
}

/// The co-simulated thermal trajectory is physically sane: one sample per
/// iteration, monotone heating from ambient under sustained load, peak at
/// least the die mean, and energy/cycle accounting present.
#[test]
fn approx_tiled_thermal_trajectory_is_sane() {
    let spec = ProblemSpec::new(3, 8, 256);
    let mut s = Session::builder()
        .spec(spec)
        .backend(BackendKind::Hybrid2d)
        .seed(11)
        .max_iters(500)
        .target(TargetKind::ApproxTiled)
        .build();
    let report = s.run(1);
    let stats = s.last_run_stats().expect("run report");
    assert_eq!(stats.backend, "hybrid-2d+approx");
    let iters = report.outcomes[0].iterations;
    assert_eq!(stats.iterations, iters);
    assert_eq!(
        stats.mean_die_temp_c.len(),
        iters,
        "one sample per iteration"
    );
    let ambient = 25.0;
    let mut last = ambient;
    for &t in &stats.mean_die_temp_c {
        assert!(t >= last - 1e-9, "sustained load must not cool the dies");
        assert!(t < 200.0, "lumped model must stay stable");
        last = t;
    }
    assert!(last > ambient, "dies heat above ambient under load");
    assert!(stats.peak_temp_c.unwrap() >= last - 1e-9);
    assert!(stats.energy.as_ref().unwrap().total() > 0.0);
    assert!(stats.cycles.unwrap() > 0);
    assert!(stats.latency_s.unwrap() > 0.0);
    assert!(stats.adc_conversions.unwrap() > 0);
}

/// Both targets compose with the session's parallel executor: a
/// multi-threaded run is bit-identical to the sequential one.
#[test]
fn target_sessions_are_thread_invariant() {
    let spec = ProblemSpec::new(3, 8, 256);
    for (kind, target) in [
        (BackendKind::Stochastic, TargetKind::Functional),
        (BackendKind::H3dFact, TargetKind::ApproxTiled),
    ] {
        let run = |threads: usize| {
            Session::builder()
                .spec(spec)
                .backend(kind)
                .seed(21)
                .max_iters(500)
                .threads(threads)
                .target(target)
                .build()
                .run(6)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.solved, par.solved, "{target}: solved");
        assert_eq!(
            seq.total_iterations, par.total_iterations,
            "{target}: iterations"
        );
        assert_eq!(seq.total_energy_j, par.total_energy_j, "{target}: energy");
        for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
            assert_outcomes_identical(a, b, &format!("{target} threads"));
        }
    }
}

/// A service on the approximate tiled target keeps the live ≡ replay
/// contract: a trace captured live over an `H3dFact` + `Hybrid2d` shard
/// pool replays bit for bit, run cursors included.
#[test]
fn approx_tiled_service_replays_live_traces() {
    let build = || {
        ServiceBuilder::default()
            .spec(ProblemSpec::new(3, 8, 256))
            .seed(909)
            .max_iters(500)
            .backends(&[(BackendKind::H3dFact, 1), (BackendKind::Hybrid2d, 1)])
            .batch_size(4)
            .target(TargetKind::ApproxTiled)
            .build()
    };
    let mut live = build();
    let mut streams = [
        live.request_stream("tenant-a", BackendKind::H3dFact, 1),
        live.request_stream("tenant-b", BackendKind::Hybrid2d, 2),
    ];
    for _ in 0..3 {
        for stream in &mut streams {
            live.submit(stream.next_request());
        }
    }
    let mut live_responses = live.drain();
    live_responses.sort_by_key(|r| r.id);
    assert_eq!(live_responses.len(), 6, "every request is answered");
    let mut replayed = build().replay(live.trace());
    replayed.sort_by_key(|r| r.id);
    assert_eq!(replayed.len(), live_responses.len());
    for (a, b) in live_responses.iter().zip(&replayed) {
        let cell = format!("request {} on {}", a.id, a.backend);
        assert_eq!(a.backend, b.backend, "{cell}: backend");
        assert_eq!(a.cursor, b.cursor, "{cell}: run cursor");
        assert_outcomes_identical(&a.outcome, &b.outcome, &cell);
    }
}

/// Pins the approximate tiled target's values, not just its determinism:
/// outcomes plus the exact bit patterns of the cost totals and the
/// thermal endpoints, for both analog crossbar backends at one fixed
/// seed. Any change to its kernels, seed discipline, energy recipe or
/// thermal stepping moves at least one of these.
#[test]
fn approx_tiled_values_are_pinned() {
    // (kind, solved, total iterations, then the bits of total energy,
    // total latency, final peak temperature, final mean die temperature)
    let pins: [(BackendKind, usize, usize, u64, u64, u64, u64); 2] = [
        (
            BackendKind::H3dFact,
            3,
            310,
            0x3ec06733c4e418d6,
            0x3f32037daa3a2b65,
            0x403901397e8f03b4,
            0x4039012483d72f50,
        ),
        (
            BackendKind::Hybrid2d,
            3,
            310,
            0x3ec21900b3914251,
            0x3f30a8c4afc7d948,
            0x403901eb360ba03d,
            0x403901b77c7858c7,
        ),
    ];
    for (kind, solved, iters, energy, latency, peak, mean_last) in pins {
        let mut s = Session::builder()
            .spec(ProblemSpec::new(3, 32, 256))
            .backend(kind)
            .seed(2024)
            .max_iters(500)
            .target(TargetKind::ApproxTiled)
            .build();
        let report = s.run(3);
        let stats = s.last_run_stats().expect("run report");
        assert_eq!(report.solved, solved, "{kind}: solved");
        assert_eq!(report.total_iterations, iters, "{kind}: iterations");
        assert_eq!(
            report.total_energy_j.unwrap().to_bits(),
            energy,
            "{kind}: energy"
        );
        assert_eq!(
            report.total_latency_s.unwrap().to_bits(),
            latency,
            "{kind}: latency"
        );
        assert_eq!(
            stats.peak_temp_c.unwrap().to_bits(),
            peak,
            "{kind}: peak temp"
        );
        let last = *stats.mean_die_temp_c.last().expect("trajectory");
        assert_eq!(last.to_bits(), mean_last, "{kind}: final mean die temp");
    }
}
