//! The unified API surface: `Session` builder round-trips, `Box<dyn
//! Backend>` dispatch over all six engines, and batch-vs-sequential
//! equivalence at fixed seeds.

use h3dfact::prelude::*;
use resonator::batch::random_batch;

#[test]
fn session_builder_round_trip() {
    let spec = ProblemSpec::new(3, 8, 256);
    let session = Session::builder()
        .spec(spec)
        .backend(BackendKind::Stochastic)
        .seed(7)
        .max_iters(321)
        .build();
    assert_eq!(session.spec(), spec);
    assert_eq!(session.backend_kind(), BackendKind::Stochastic);
    assert_eq!(session.backend_name(), "stochastic-sw");
    assert_eq!(session.seed(), 7);
    assert_eq!(session.max_iters(), 321);
    assert_eq!(session.codebooks().len(), spec.factors);
    assert_eq!(session.codebooks()[0].len(), spec.codebook_size);
    assert_eq!(session.codebooks()[0].dim(), spec.dim);
    assert!(session.last_run_stats().is_none(), "no runs yet");
}

#[test]
fn builder_missing_spec_is_reported() {
    let err = Session::builder().try_build().unwrap_err();
    assert_eq!(err, SessionBuildError::MissingSpec);
    let err = Session::builder()
        .spec(ProblemSpec::new(2, 4, 128))
        .max_iters(0)
        .try_build()
        .unwrap_err();
    assert_eq!(err, SessionBuildError::ZeroIterationBudget);
}

#[test]
fn all_six_engines_dispatch_through_dyn_backend() {
    // One problem, six engines, one trait object type — the acceptance
    // bar of the API redesign.
    let spec = ProblemSpec::new(3, 8, 256);
    let problem = FactorizationProblem::random(spec, &mut rng_from_seed(42));
    let mut names = Vec::new();
    for kind in BackendKind::ALL {
        let mut backend: Box<dyn Backend> =
            kind.instantiate(TargetKind::Functional, spec, 800, 5, None, None);
        let outcome = backend.factorize(&problem);
        assert!(outcome.iterations >= 1, "{} ran no iterations", kind);
        // Every backend must report in the common format after a run.
        let report = backend
            .last_run_stats()
            .unwrap_or_else(|| panic!("{} produced no run report", kind));
        assert_eq!(report.backend, kind.name());
        assert_eq!(report.iterations, outcome.iterations);
        let caps = backend.capabilities();
        assert_eq!(
            report.energy.is_some(),
            caps.energy_model,
            "{}: energy report disagrees with capabilities",
            kind
        );
        assert_eq!(
            report.latency_s.is_some(),
            caps.latency_model,
            "{}: latency report disagrees with capabilities",
            kind
        );
        if let Some(e) = report.energy_j() {
            assert!(e > 0.0, "{}: non-positive energy", kind);
        }
        names.push(backend.name());
    }
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), 6, "backend names must be distinct: {names:?}");
}

#[test]
fn stochastic_backends_solve_through_dyn_dispatch() {
    let spec = ProblemSpec::new(3, 8, 256);
    let problem = FactorizationProblem::random(spec, &mut rng_from_seed(43));
    for kind in [
        BackendKind::H3dFact,
        BackendKind::Hybrid2d,
        BackendKind::Pcm,
        BackendKind::Stochastic,
    ] {
        let mut backend = kind.instantiate(TargetKind::Functional, spec, 2_000, 6, None, None);
        assert!(
            backend.factorize(&problem).solved,
            "{} failed a small problem",
            kind
        );
    }
}

#[test]
fn batch_equals_sequential_at_fixed_seeds() {
    // The default `factorize_batch` must be bitwise identical to looping
    // `factorize_query`, and the native H3DFact batch schedule must not
    // change functional outcomes either — only the cost model.
    let spec = ProblemSpec::new(3, 8, 256);
    for kind in BackendKind::ALL {
        let mut rng = rng_from_seed(77);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (items, _) = random_batch(&books, 4, 55);

        let mut seq = kind.instantiate(TargetKind::Functional, spec, 600, 11, None, None);
        let sequential: Vec<_> = items
            .iter()
            .map(|i| seq.factorize_query(&books, &i.query, i.truth.as_deref()))
            .collect();

        let mut bat = kind.instantiate(TargetKind::Functional, spec, 600, 11, None, None);
        let batch = bat.factorize_batch(&books, &items);

        assert_eq!(batch.len(), sequential.len());
        for (a, b) in batch.outcomes.iter().zip(&sequential) {
            assert_eq!(a.solved, b.solved, "{kind}: solved mismatch");
            assert_eq!(a.iterations, b.iterations, "{kind}: iteration mismatch");
            assert_eq!(a.decoded, b.decoded, "{kind}: decode mismatch");
        }
    }
}

#[test]
fn session_run_and_run_batched_agree_functionally() {
    let spec = ProblemSpec::new(3, 8, 256);
    let build = || {
        Session::builder()
            .spec(spec)
            .backend(BackendKind::H3dFact)
            .seed(31)
            .max_iters(800)
            .build()
    };
    let seq = build().run(3);
    let bat = build().run_batched(3);
    assert_eq!(seq.problems, bat.problems);
    assert_eq!(seq.solved, bat.solved);
    assert_eq!(seq.total_iterations, bat.total_iterations);
    for (a, b) in seq.outcomes.iter().zip(&bat.outcomes) {
        assert_eq!(a.decoded, b.decoded);
    }
    // Both paths carry hardware cost for the native-batch backend, and
    // batch energy is the exact sum of the per-item ledgers (same floats,
    // possibly different addition order).
    let (e_seq, e_bat) = (seq.total_energy_j.unwrap(), bat.total_energy_j.unwrap());
    assert!(e_seq > 0.0);
    assert!(
        (e_seq - e_bat).abs() <= 1e-9 * e_seq,
        "batch energy {e_bat} != sequential sum {e_seq}"
    );
    assert!(seq.total_latency_s.unwrap() > 0.0);
    // The SRAM-buffered batch schedule amortizes cycles: batched modeled
    // latency must not exceed the sequential sum.
    assert!(bat.total_latency_s.unwrap() <= seq.total_latency_s.unwrap() + 1e-12);
}

#[test]
fn sessions_with_same_seed_reproduce() {
    let spec = ProblemSpec::new(3, 8, 256);
    let mk = || {
        Session::builder()
            .spec(spec)
            .backend(BackendKind::H3dFact)
            .seed(13)
            .max_iters(500)
            .build()
    };
    let a = mk().run(3);
    let b = mk().run(3);
    assert_eq!(a.solved, b.solved);
    assert_eq!(a.total_iterations, b.total_iterations);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.decoded, y.decoded);
    }
}

#[test]
fn session_epochs_generate_fresh_problems() {
    let spec = ProblemSpec::new(3, 8, 256);
    let mut session = Session::builder()
        .spec(spec)
        .backend(BackendKind::Baseline)
        .seed(3)
        .max_iters(100)
        .build();
    let first = session.generate(5);
    let second = session.generate(5);
    assert!(
        first.iter().zip(&second).any(|(a, b)| a.query != b.query),
        "consecutive generations must differ"
    );
}

#[test]
fn session_accepts_custom_problems_and_queries() {
    let spec = ProblemSpec::new(2, 8, 256);
    let mut session = Session::builder()
        .spec(spec)
        .backend(BackendKind::Stochastic)
        .seed(21)
        .max_iters(500)
        .build();
    let problem = FactorizationProblem::random(spec, &mut rng_from_seed(9));
    let out = session.solve(&problem);
    assert!(out.solved);
    let noisy = problem.noisy_product(0.05, &mut rng_from_seed(10));
    let out = session.solve_query(problem.codebooks(), &noisy, Some(problem.true_indices()));
    assert!(out.iterations >= 1);
    assert_eq!(session.last_run_stats().unwrap().iterations, out.iterations);
}

#[test]
fn adc_bits_override_reaches_hardware_backends() {
    let spec = ProblemSpec::new(3, 8, 256);
    let mut session = Session::builder()
        .spec(spec)
        .backend(BackendKind::H3dFact)
        .seed(17)
        .max_iters(800)
        .adc_bits(8)
        .build();
    let report = session.run(2);
    assert!(report.accuracy() > 0.0);
    // 8-bit conversions still happen — the knob must not break the path.
    assert!(session.last_run_stats().unwrap().adc_conversions.unwrap() > 0);
}

#[test]
fn adc_bits_override_changes_stochastic_model_behavior() {
    // The algorithm-level backends honor the ADC knob too: at identical
    // seeds, a 2-bit activation quantizes far more coarsely than the
    // 4-bit default, so the (deterministic given seed) trajectories
    // differ.
    let spec = ProblemSpec::new(3, 16, 256);
    let run = |bits: Option<u8>| {
        let mut builder = Session::builder()
            .spec(spec)
            .backend(BackendKind::Stochastic)
            .seed(23)
            .max_iters(1_000);
        if let Some(b) = bits {
            builder = builder.adc_bits(b);
        }
        builder.build().run(4)
    };
    let default_bits = run(None);
    let coarse = run(Some(2));
    assert!(
        default_bits.total_iterations != coarse.total_iterations
            || default_bits
                .outcomes
                .iter()
                .zip(&coarse.outcomes)
                .any(|(a, b)| a.decoded != b.decoded),
        "adc_bits override had no effect on the stochastic model"
    );
}

#[test]
fn run_batched_outcomes_own_exactly_their_length() {
    // Callers keep parts of the outcomes (perfbench keeps every decode),
    // so a batch's outcome vector must not carry spare capacity from an
    // allocation reused for a larger element type.
    for threads in [1, 2] {
        let mut session = Session::builder()
            .spec(ProblemSpec::new(3, 16, 256))
            .backend(BackendKind::Stochastic)
            .seed(43)
            .max_iters(400)
            .threads(threads)
            .build();
        let report = session.run_batched(8);
        assert_eq!(report.outcomes.len(), 8);
        assert_eq!(
            report.outcomes.capacity(),
            report.outcomes.len(),
            "threads({threads})"
        );
    }
}

#[test]
fn threaded_batch_report_is_identical_to_sequential() {
    // The deterministic parallel executor's whole contract: a threads(4)
    // batch run must produce a SessionReport identical to threads(1) at
    // the same seed — per-item factors, aggregate stats, and the exact
    // energy/latency floats — across software and hardware backends.
    let spec = ProblemSpec::new(3, 8, 256);
    for kind in [BackendKind::Stochastic, BackendKind::H3dFact] {
        let mk = |threads: usize| {
            Session::builder()
                .spec(spec)
                .backend(kind)
                .seed(41)
                .max_iters(600)
                .threads(threads)
                .build()
        };
        for batched in [false, true] {
            let run = |mut s: Session| if batched { s.run_batched(8) } else { s.run(8) };
            let seq = run(mk(1));
            let par = run(mk(4));
            assert_eq!(seq.backend, par.backend);
            assert_eq!(seq.problems, par.problems, "{kind}/batched={batched}");
            assert_eq!(seq.solved, par.solved, "{kind}/batched={batched}");
            assert_eq!(
                seq.total_iterations, par.total_iterations,
                "{kind}/batched={batched}"
            );
            assert_eq!(
                seq.total_energy_j, par.total_energy_j,
                "{kind}/batched={batched}: energy must be bit-identical"
            );
            assert_eq!(
                seq.total_latency_s, par.total_latency_s,
                "{kind}/batched={batched}: latency must be bit-identical"
            );
            for (a, b) in seq.outcomes.iter().zip(&par.outcomes) {
                assert_eq!(a.solved, b.solved, "{kind}/batched={batched}");
                assert_eq!(a.iterations, b.iterations, "{kind}/batched={batched}");
                assert_eq!(a.decoded, b.decoded, "{kind}/batched={batched}");
                assert_eq!(a.solved_at, b.solved_at, "{kind}/batched={batched}");
                assert_eq!(
                    a.degenerate_events, b.degenerate_events,
                    "{kind}/batched={batched}"
                );
            }
        }
    }
}

#[test]
fn threaded_session_cursor_survives_mixed_calls() {
    // A parallel run must leave the session where a sequential run would
    // have: a subsequent run() sees the same seed stream either way.
    let spec = ProblemSpec::new(3, 8, 256);
    let mk = |threads: usize| {
        Session::builder()
            .spec(spec)
            .backend(BackendKind::Stochastic)
            .seed(59)
            .max_iters(500)
            .threads(threads)
            .build()
    };
    let mut seq = mk(1);
    let _ = seq.run(3);
    let seq_second = seq.run(3);
    let mut par = mk(2);
    let _ = par.run(3);
    let par_second = par.run(3);
    assert_eq!(seq_second.solved, par_second.solved);
    assert_eq!(seq_second.total_iterations, par_second.total_iterations);
    for (a, b) in seq_second.outcomes.iter().zip(&par_second.outcomes) {
        assert_eq!(a.decoded, b.decoded);
    }
}

#[test]
fn deprecated_factorizer_surface_still_works() {
    // Kernel-level code written against `Factorizer` keeps compiling and
    // running against every backend (Backend is a strict superset).
    fn drive(engine: &mut dyn Factorizer, problem: &FactorizationProblem) -> bool {
        engine.factorize(problem).solved
    }
    let spec = ProblemSpec::new(3, 8, 256);
    let problem = FactorizationProblem::random(spec, &mut rng_from_seed(12));
    let mut backend =
        BackendKind::Stochastic.instantiate(TargetKind::Functional, spec, 800, 2, None, None);
    assert!(drive(backend.as_mut(), &problem));
}
