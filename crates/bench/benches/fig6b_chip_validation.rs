//! **Fig. 6b — RRAM test-chip validation**: factorization accuracy vs
//! iteration with the chip-calibrated noise statistics and per-cell
//! (highest-fidelity) device simulation, on the perception-scale workload.
//!
//! Paper: with noise parameters extracted from the 40 nm test chips and
//! the readout threshold (`VTGT`) adjusted accordingly, the factorizer
//! reaches >96 % accuracy "at one-shot" and 99 % after ~25 iterations.
//! Interpretation note (recorded in EXPERIMENTS.md): we read "one-shot" as
//! a single factorization run without restarts; the curve below reports
//! accuracy as a function of the iteration budget of that single run.

use cim::crossbar::Fidelity;
use cim::noise::NoiseSpec;
use h3dfact_bench::env;
use h3dfact_core::{H3dFact, H3dFactConfig};
use hdc::{FactorizationProblem, ProblemSpec};
use resonator::engine::Factorizer;
use resonator::metrics::{accuracy_curve, iterations_to_accuracy};

fn main() {
    // Perception-scale problem (RAVEN attribute codebooks are ≤10 wide).
    let spec = ProblemSpec::new(4, 10, 256);
    let trials = env::trials(40);
    let budget = 2_000;

    println!("=== Fig. 6b: chip-noise-validated factorization accuracy ===");
    println!("noise: chip-calibrated 40 nm statistics, per-cell fidelity");
    println!("problem: F=4, M=10, D=256; {trials} trials\n");

    let mut traces: Vec<Vec<bool>> = Vec::with_capacity(trials);
    let mut one_shot_hits = 0usize;
    for t in 0..trials as u64 {
        let p = FactorizationProblem::random(spec, &mut hdc::rng::rng_from_seed(6_600 + t));
        let mut cfg = H3dFactConfig::default_for(spec)
            .with_noise(NoiseSpec::chip_40nm())
            .with_max_iters(budget);
        cfg.fidelity = Fidelity::Cell;
        // Sec. V-D: the readout threshold (VTGT) is adjusted for the
        // workload; 2σ per LSB converges fastest at this codebook size.
        cfg.lsb_sigmas = 2.0;
        cfg.loop_config.record_trajectory = true;
        let mut engine = H3dFact::new(cfg, t);
        let out = engine.factorize(&p);
        if out.solved {
            one_shot_hits += 1;
        }
        traces.push(out.correct_at().to_vec());
    }
    let curve = accuracy_curve(&traces, budget);

    println!("  iter | accuracy");
    for &t in &[1usize, 5, 10, 25, 50, 100, 250, 500, 1000, 2000] {
        if t <= budget {
            println!("  {t:>4} |  {:>5.1} %", 100.0 * curve[t - 1]);
        }
    }
    let t99 = iterations_to_accuracy(&curve, 0.99);
    println!(
        "\nsingle-run (no restart) success within budget: {:.1} %  [paper one-shot: >96 %]",
        100.0 * one_shot_hits as f64 / trials as f64
    );
    println!(
        "iterations to 99 %: {}  [paper: ~25]",
        t99.map(|v| v.to_string())
            .unwrap_or_else(|| "> budget".into())
    );

    // Stress: noise well beyond the chip statistics should eventually hurt
    // (the usable stochasticity window).
    println!("\n=== noise-window stress (accuracy at budget, scaled chip noise) ===");
    for scale in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let mut solved = 0usize;
        let n = trials.min(20);
        for t in 0..n as u64 {
            let p = FactorizationProblem::random(spec, &mut hdc::rng::rng_from_seed(6_600 + t));
            let mut cfg = H3dFactConfig::default_for(spec)
                .with_noise(NoiseSpec::chip_40nm_scaled(scale))
                .with_max_iters(budget);
            cfg.lsb_sigmas = 2.0;
            let mut engine = H3dFact::new(cfg, 31 + t);
            if engine.factorize(&p).solved {
                solved += 1;
            }
        }
        println!("  noise x{scale:<3}: {solved:>2}/{n} solved");
    }
}
