//! Limit-cycle scenario (paper Fig. 2b): the same problem instance, run
//! deterministically (falls into a cycle) and stochastically (breaks
//! free), with the per-iteration trajectory printed.
//!
//! ```sh
//! cargo run --release --example limit_cycles
//! ```

use h3dfact::prelude::*;
use h3dfact::resonator::engine::{CycleAction, DegeneratePolicy};
use h3dfact::resonator::{Activation, LoopConfig};

fn main() {
    // A shape at the capacity edge, where the noise-free quantized
    // dynamics frequently collapse into an absorbing state.
    let spec = ProblemSpec::new(3, 24, 256);
    let mut found = None;
    for seed in 0..200 {
        let problem = FactorizationProblem::random(spec, &mut rng_from_seed(seed));
        // The noise-free twin of the H3DFact engine: same 4-bit quantized
        // readout, zero device noise, no random exploration.
        let mut cfg = LoopConfig::stochastic(2_000);
        cfg.degenerate = DegeneratePolicy::KeepPrevious;
        cfg.cycle_action = CycleAction::Abort;
        cfg.stop_on_fixed_point = true;
        let mut det = StochasticResonator::with_parts(
            cfg,
            0.0,
            Activation::noise_referenced(4, spec.dim, StochasticResonator::DEFAULT_LSB_SIGMAS),
            seed,
        );
        let out = det.factorize(&problem);
        if !out.solved && (out.cycle.is_some() || out.converged) {
            found = Some((problem, out, seed));
            break;
        }
    }
    let (problem, base_out, seed) = found.expect("a stuck instance exists in the first 200 seeds");

    println!("problem: F=3, M=24, D=256 (seed {seed})");
    match base_out.cycle {
        Some(cycle) => println!(
            "noise-free quantized factorizer: stuck — state first seen at iteration {}, revisited at {}, period {}",
            cycle.first_seen,
            cycle.detected_at,
            cycle.period()
        ),
        None => println!(
            "noise-free quantized factorizer: stuck in a wrong fixed point at iteration {}",
            base_out.iterations
        ),
    }

    // Same instance, stochastic engine, trajectory recorded.
    let mut cfg = LoopConfig::stochastic(4_000);
    cfg.record_trajectory = true;
    let mut stochastic = StochasticResonator::with_parts(
        cfg,
        StochasticResonator::CHIP_CELL_SIGMA * (spec.dim as f64).sqrt(),
        h3dfact::resonator::Activation::noise_referenced(
            4,
            spec.dim,
            StochasticResonator::DEFAULT_LSB_SIGMAS,
        ),
        seed ^ 0x5EED,
    );
    let out = stochastic.factorize(&problem);
    println!(
        "stochastic factorizer: solved={} at iteration {:?} ({} state revisits along the way)",
        out.solved, out.solved_at, out.revisits
    );

    let cosines = out.cosines();
    if !cosines.is_empty() {
        println!("\nper-factor |cosine to truth| along the stochastic trajectory:");
        let n = cosines.len();
        let marks: Vec<usize> = (0..8).map(|i| i * (n - 1).max(1) / 7).collect();
        for &t in &marks {
            let cs = &cosines[t];
            let bars: String = cs
                .iter()
                .map(|c| {
                    let lvl = (c.abs() * 8.0).round() as usize;
                    char::from_u32(0x2581 + lvl.min(7) as u32).unwrap_or('?')
                })
                .collect();
            println!(
                "  iter {:>4}: {}  {:?}",
                t + 1,
                bars,
                cs.iter()
                    .map(|c| (c * 100.0).round() / 100.0)
                    .collect::<Vec<_>>()
            );
        }
    }
}
