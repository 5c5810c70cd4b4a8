//! Property-based tests for the resonator loop invariants.

use hdc::rng::rng_from_seed;
use hdc::{FactorizationProblem, ProblemSpec};
use proptest::prelude::*;
use resonator::engine::{Factorizer, UpdateOrder};
use resonator::{Activation, BaselineResonator, LoopConfig, StochasticResonator};

fn arb_spec() -> impl Strategy<Value = ProblemSpec> {
    (
        2usize..=4,
        2usize..=10,
        prop_oneof![Just(128usize), Just(256)],
    )
        .prop_map(|(f, m, d)| ProblemSpec::new(f, m, d))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outcome_invariants_hold(spec in arb_spec(), seed in 0u64..500) {
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let mut eng = StochasticResonator::paper_default(spec, 300, seed);
        let out = eng.factorize(&p);
        // Iterations within budget.
        prop_assert!(out.iterations >= 1 && out.iterations <= 300);
        // Decoded indices are valid.
        prop_assert!(out.decoded.iter().all(|&i| i < spec.codebook_size));
        prop_assert_eq!(out.decoded.len(), spec.factors);
        // solved ⟺ decoded equals truth (the engine was given the truth).
        prop_assert_eq!(out.solved, out.decoded == p.true_indices());
        // solved_at consistent with solved.
        match out.solved_at {
            Some(t) => {
                prop_assert!(out.solved);
                prop_assert_eq!(t, out.iterations);
            }
            None => prop_assert!(!out.solved),
        }
    }

    #[test]
    fn baseline_is_pure(spec in arb_spec(), seed in 0u64..200) {
        // Two fresh baselines on the same problem produce identical runs
        // (wall-clock phase timings excluded — they are measurements, not
        // state).
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let a = BaselineResonator::new(200, seed).factorize(&p);
        let b = BaselineResonator::new(200, seed).factorize(&p);
        prop_assert_eq!(a.solved, b.solved);
        prop_assert_eq!(a.iterations, b.iterations);
        prop_assert_eq!(a.solved_at, b.solved_at);
        prop_assert_eq!(a.decoded, b.decoded);
        prop_assert_eq!(a.cycle, b.cycle);
        prop_assert_eq!(a.revisits, b.revisits);
        prop_assert_eq!(a.degenerate_events, b.degenerate_events);
    }

    #[test]
    fn trajectory_lengths_match(spec in arb_spec(), seed in 0u64..200) {
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let mut cfg = LoopConfig::stochastic(100);
        cfg.record_trajectory = true;
        let mut eng = StochasticResonator::with_parts(
            cfg,
            StochasticResonator::CHIP_CELL_SIGMA * (spec.dim as f64).sqrt(),
            Activation::noise_referenced(4, spec.dim, 3.0),
            seed,
        );
        let out = eng.factorize(&p);
        prop_assert_eq!(out.correct_at().len(), out.iterations);
        prop_assert_eq!(out.cosines().len(), out.iterations);
        for cs in out.cosines() {
            prop_assert_eq!(cs.len(), spec.factors);
            prop_assert!(cs.iter().all(|c| (-1.0..=1.0).contains(c)));
        }
        // The final trace entry agrees with the outcome.
        if let Some(&last) = out.correct_at().last() {
            prop_assert_eq!(last, out.solved);
        }
    }

    #[test]
    fn update_orders_both_solve_small(seed in 0u64..100) {
        let spec = ProblemSpec::new(2, 4, 256);
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        for order in [UpdateOrder::Sequential, UpdateOrder::Synchronous] {
            let mut cfg = LoopConfig::baseline(200);
            cfg.update_order = order;
            let out = BaselineResonator::with_config(cfg, seed).factorize(&p);
            prop_assert!(out.solved, "{order:?} failed a trivial problem");
        }
    }

    #[test]
    fn noiseless_identity_never_degenerates(seed in 0u64..100) {
        // With the identity activation the weight vector is all-zero only
        // if every similarity is exactly zero — measure-zero for random
        // codebooks of odd dot-parity dimension... use D odd-multiple to
        // be safe and assert no degenerate events occur.
        let spec = ProblemSpec::new(3, 6, 129);
        let p = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        let out = BaselineResonator::new(100, seed).factorize(&p);
        prop_assert_eq!(out.degenerate_events, 0);
    }
}
