//! **Fig. 6a — convergence vs ADC precision**: low-precision 4-bit readout
//! converges *faster* than 8-bit because coarse quantization sparsifies
//! the similarity vector and adds exploration stochasticity (paper: 99 %
//! at ~10 iterations for 4-bit vs ~30 for 8-bit).

use h3dfact_bench::env;
use h3dfact_core::{H3dFact, H3dFactConfig};
use hdc::{FactorizationProblem, ProblemSpec};
use resonator::engine::Factorizer;
use resonator::metrics::{accuracy_curve, iterations_to_accuracy};

fn run_curve(bits: u8, trials: usize, budget: usize, spec: ProblemSpec) -> Vec<f64> {
    let mut traces: Vec<Vec<bool>> = Vec::with_capacity(trials);
    for t in 0..trials as u64 {
        let p = FactorizationProblem::random(spec, &mut hdc::rng::rng_from_seed(6_100 + t));
        let mut cfg = H3dFactConfig::default_for(spec)
            .with_adc_bits(bits)
            .with_max_iters(budget);
        cfg.loop_config.record_trajectory = true;
        let mut engine = H3dFact::new(cfg, t);
        let out = engine.factorize(&p);
        traces.push(out.correct_at().to_vec());
    }
    accuracy_curve(&traces, budget)
}

fn main() {
    let spec = ProblemSpec::new(3, 16, 256);
    let trials = env::trials(40);
    let budget = 800;

    println!("=== Fig. 6a: factorization accuracy vs iteration, 4-bit vs 8-bit ADC ===");
    println!("problem: F=3, M=16, D=256; {trials} trials; device-accurate engine\n");

    let curve4 = run_curve(4, trials, budget, spec);
    let curve8 = run_curve(8, trials, budget, spec);

    println!("  iter |  4-bit acc |  8-bit acc");
    for &t in &[1usize, 2, 5, 10, 20, 30, 50, 100, 200, 400, 800] {
        if t <= budget {
            println!(
                "  {t:>4} |   {:>6.1} %  |   {:>6.1} %",
                100.0 * curve4[t - 1],
                100.0 * curve8[t - 1]
            );
        }
    }

    let t4 = iterations_to_accuracy(&curve4, 0.99);
    let t8 = iterations_to_accuracy(&curve8, 0.99);
    let show = |t: Option<usize>| {
        t.map(|v| v.to_string())
            .unwrap_or_else(|| "> budget".into())
    };
    println!(
        "\niterations to 99 %: 4-bit {} vs 8-bit {}",
        show(t4),
        show(t8)
    );
    println!("(paper: ~10 vs ~30 — low precision quantization sparsifies + dithers,");
    println!(" so the coarse ADC should reach the accuracy target first)");

    // Secondary check: the 4-bit design costs less area/energy (Table III
    // sensitivity).
    let r4 = arch3d::design::build_report_with(
        arch3d::design::DesignVariant::H3dThreeTier,
        arch3d::ppa::ArchParams {
            adc_bits: 4,
            ..arch3d::ppa::ArchParams::paper()
        },
    );
    let r8 = arch3d::design::build_report_with(
        arch3d::design::DesignVariant::H3dThreeTier,
        arch3d::ppa::ArchParams {
            adc_bits: 8,
            ..arch3d::ppa::ArchParams::paper()
        },
    );
    println!(
        "\nhardware cost of 8-bit readout: area {:+.1} %, energy/iter {:+.1} %",
        100.0 * (r8.total_area_mm2 / r4.total_area_mm2 - 1.0),
        100.0 * (r8.energy_per_iter_j / r4.energy_per_iter_j - 1.0)
    );
}
