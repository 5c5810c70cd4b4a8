//! Pure-software kernel implementations and the two reference engines.
//!
//! [`BaselineResonator`] is the deterministic resonator network of Frady et
//! al. (the paper's "Baseline" column in Table II). [`StochasticResonator`]
//! is the algorithm-level model of H3DFact's stochastic factorizer:
//! Gaussian similarity noise (standing in for memristive readout noise)
//! plus the noise-referenced 4-bit quantized activation. The full
//! device-accurate engine lives in `h3dfact-core`; this one exists so that
//! algorithm studies and capacity sweeps run fast.

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::engine::{
    FactorizationOutcome, Factorizer, LoopConfig, ResonatorKernels, ResonatorLoop,
};
use hdc::rng::{derive_seed, rng_from_seed};
use hdc::{BipolarVector, Codebook, ProblemSpec};

/// Stream namespace separating the stochastic engine's loop seed from its
/// kernel seed (the historical constant of
/// [`StochasticResonator::factorize_query`]).
const STOCHASTIC_LOOP_NS: u64 = 0xD15C;

/// Software kernels over borrowed codebooks.
#[derive(Debug)]
pub struct SoftwareKernels<'a> {
    codebooks: &'a [Codebook],
    /// Gaussian sigma added to each similarity element, in dot-product
    /// units (≈ `cell_sigma · sqrt(D)` to mimic a crossbar column).
    noise_sigma: f64,
    /// Clip negative similarities to zero before the activation — the
    /// standard non-negative readout that removes the resonator's
    /// sign-flip attractors (an even number of negated estimates composes
    /// to the same product vector but decodes wrong). Physically this is
    /// the `VTGT`-referenced sense path passing only positive differential
    /// currents.
    rectify: bool,
    activation: Activation,
    /// Deterministic multiplicative gain on every similarity (fraction of
    /// devices *not* stuck at HRS, times any write-window compression);
    /// `1.0` is the ideal array and is skipped exactly.
    survival: f64,
    rng: StdRng,
}

impl<'a> SoftwareKernels<'a> {
    /// Creates kernels over `codebooks` with the given stochasticity model.
    ///
    /// # Panics
    ///
    /// Panics if `codebooks` is empty or shapes disagree.
    pub fn new(
        codebooks: &'a [Codebook],
        noise_sigma: f64,
        rectify: bool,
        activation: Activation,
        seed: u64,
    ) -> Self {
        assert!(!codebooks.is_empty(), "need at least one codebook");
        let dim = codebooks[0].dim();
        let m = codebooks[0].len();
        assert!(
            codebooks.iter().all(|c| c.dim() == dim && c.len() == m),
            "codebooks must share shape"
        );
        assert!(noise_sigma >= 0.0, "noise sigma must be non-negative");
        Self {
            codebooks,
            noise_sigma,
            rectify,
            activation,
            survival: 1.0,
            rng: rng_from_seed(seed),
        }
    }

    /// Applies a deterministic similarity gain modeling stuck-at-HRS
    /// devices and write-window compression (`survival = (1 − stuck_at) ·
    /// write_gain`, as in the crossbar column model). `1.0` restores the
    /// exact ideal path bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics unless `survival` is in `(0, 1]`.
    pub fn with_survival(mut self, survival: f64) -> Self {
        assert!(
            survival > 0.0 && survival <= 1.0,
            "survival must be in (0, 1]"
        );
        self.survival = survival;
        self
    }
}

impl ResonatorKernels for SoftwareKernels<'_> {
    fn dim(&self) -> usize {
        self.codebooks[0].dim()
    }

    fn factors(&self) -> usize {
        self.codebooks.len()
    }

    fn codebook_size(&self) -> usize {
        self.codebooks[0].len()
    }

    fn unbind_into(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        out.copy_from(product);
        for o in others {
            out.bind_assign(o);
        }
    }

    fn similarity_weights_into(&mut self, factor: usize, query: &BipolarVector, out: &mut [f64]) {
        self.codebooks[factor].similarities_into(query, out);
        if self.survival != 1.0 {
            for w in out.iter_mut() {
                *w *= self.survival;
            }
        }
        self.activation
            .apply_noisy(out, self.noise_sigma, self.rectify, &mut self.rng);
    }

    fn project_into(&mut self, factor: usize, weights: &[f64], out: &mut [f64]) {
        self.codebooks[factor]
            .packed()
            .weighted_sums_into(weights, out);
    }
}

/// Compact record of a software engine's most recent run, mirroring the
/// role `h3dfact_core::RunStats` plays for the hardware engines (software
/// kernels have no energy/latency model, so only loop-level facts exist).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SoftwareRunSummary {
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the run solved the problem.
    pub solved: bool,
    /// Degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// State revisits observed by the cycle detector.
    pub revisits: usize,
}

impl SoftwareRunSummary {
    /// The single definition of how a run outcome condenses into the
    /// summary (the engines' `last_run_summary` bookkeeping).
    pub fn of(outcome: &FactorizationOutcome) -> Self {
        Self {
            iterations: outcome.iterations,
            solved: outcome.solved,
            degenerate_events: outcome.degenerate_events,
            revisits: outcome.revisits,
        }
    }
}

/// The deterministic baseline resonator network ([9] in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineResonator {
    config: LoopConfig,
    seed: u64,
    runs: u64,
    last_run: Option<SoftwareRunSummary>,
}

impl BaselineResonator {
    /// Creates the baseline with an iteration budget.
    pub fn new(max_iters: usize, seed: u64) -> Self {
        Self::with_config(LoopConfig::baseline(max_iters), seed)
    }

    /// Overrides the loop configuration (e.g. to record trajectories).
    pub fn with_config(config: LoopConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            runs: 0,
            last_run: None,
        }
    }

    /// The loop configuration in use.
    pub fn config(&self) -> LoopConfig {
        self.config
    }

    /// Summary of the most recent run.
    pub fn last_run_summary(&self) -> Option<SoftwareRunSummary> {
        self.last_run
    }

    /// How many `factorize*` calls this engine has issued; per-run seeds
    /// derive from `(engine seed, cursor)`.
    pub fn run_cursor(&self) -> u64 {
        self.runs
    }

    /// Repositions the run cursor so the next `factorize*` call draws the
    /// seed stream of run `cursor` (deterministic parallel executors give
    /// each item the cursor it would have had sequentially).
    pub fn set_run_cursor(&mut self, cursor: u64) {
        self.runs = cursor;
    }
}

impl Factorizer for BaselineResonator {
    fn factorize_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let run_seed = derive_seed(self.seed, self.runs);
        self.runs += 1;
        // Identity activation, no rectification: the faithful Frady et al.
        // baseline. Sign-flip attractors are handled at decode time.
        let mut kernels =
            SoftwareKernels::new(codebooks, 0.0, false, Activation::Identity, run_seed);
        let outcome =
            ResonatorLoop::new(self.config).run(&mut kernels, codebooks, query, truth, run_seed);
        self.last_run = Some(SoftwareRunSummary::of(&outcome));
        outcome
    }
}

/// Algorithm-level model of H3DFact's stochastic factorizer: similarity
/// noise + noise-referenced low-precision quantization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StochasticResonator {
    config: LoopConfig,
    /// Per-element similarity noise sigma in dot units.
    noise_sigma: f64,
    activation: Activation,
    seed: u64,
    runs: u64,
    last_run: Option<SoftwareRunSummary>,
}

impl StochasticResonator {
    /// Relative per-cell readout sigma matching `cim::NoiseSpec::chip_40nm`
    /// aggregates (kept numerically in sync by a cross-crate test in the
    /// workspace integration suite).
    pub const CHIP_CELL_SIGMA: f64 = 0.139;

    /// LSB size in noise-floor sigmas used by the paper-default activation.
    pub const DEFAULT_LSB_SIGMAS: f64 = 3.0;

    /// The paper-default stochastic engine for problems of shape `spec`:
    /// chip-calibrated similarity noise and 4-bit noise-referenced ADC
    /// activation.
    pub fn paper_default(spec: ProblemSpec, max_iters: usize, seed: u64) -> Self {
        Self::with_cell_noise(spec, max_iters, Self::CHIP_CELL_SIGMA, 4, seed)
    }

    /// Engine with an explicit **relative per-cell** readout sigma — the
    /// workspace-wide analog noise convention (`NoiseSpec::sigma_total()`
    /// units): the engine itself scales by `sqrt(D)` to the per-dot-product
    /// sigma a `D`-row crossbar column exhibits, exactly as
    /// `PcmEngine::with_cell_sigma` and the device-accurate crossbar models
    /// do. Callers therefore pass the same number to every analog backend
    /// and get the same effective physics.
    pub fn with_cell_noise(
        spec: ProblemSpec,
        max_iters: usize,
        cell_sigma: f64,
        adc_bits: u8,
        seed: u64,
    ) -> Self {
        assert!(cell_sigma >= 0.0, "cell sigma must be non-negative");
        Self::with_parts(
            LoopConfig::stochastic(max_iters),
            cell_sigma * (spec.dim as f64).sqrt(),
            Activation::noise_referenced(adc_bits, spec.dim, Self::DEFAULT_LSB_SIGMAS),
            seed,
        )
    }

    /// Fully explicit constructor.
    pub fn with_parts(
        config: LoopConfig,
        noise_sigma: f64,
        activation: Activation,
        seed: u64,
    ) -> Self {
        Self {
            config,
            noise_sigma,
            activation,
            seed,
            runs: 0,
            last_run: None,
        }
    }

    /// The loop configuration in use.
    pub fn config(&self) -> LoopConfig {
        self.config
    }

    /// Summary of the most recent run.
    pub fn last_run_summary(&self) -> Option<SoftwareRunSummary> {
        self.last_run
    }

    /// The similarity-noise sigma (dot units).
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// The activation in use.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// How many `factorize*` calls this engine has issued; per-run seeds
    /// derive from `(engine seed, cursor)`.
    pub fn run_cursor(&self) -> u64 {
        self.runs
    }

    /// Repositions the run cursor so the next `factorize*` call draws the
    /// seed stream of run `cursor` (deterministic parallel executors give
    /// each item the cursor it would have had sequentially).
    pub fn set_run_cursor(&mut self, cursor: u64) {
        self.runs = cursor;
    }
}

impl Factorizer for StochasticResonator {
    fn factorize_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let run_seed = derive_seed(self.seed, self.runs);
        self.runs += 1;
        let mut kernels =
            SoftwareKernels::new(codebooks, self.noise_sigma, true, self.activation, run_seed);
        let outcome = ResonatorLoop::new(self.config).run(
            &mut kernels,
            codebooks,
            query,
            truth,
            derive_seed(run_seed, STOCHASTIC_LOOP_NS),
        );
        self.last_run = Some(SoftwareRunSummary::of(&outcome));
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;
    use hdc::FactorizationProblem;

    fn problem(f: usize, m: usize, d: usize, seed: u64) -> FactorizationProblem {
        FactorizationProblem::random(ProblemSpec::new(f, m, d), &mut rng_from_seed(seed))
    }

    #[test]
    fn baseline_solves_small_problem() {
        let p = problem(3, 8, 512, 110);
        let mut eng = BaselineResonator::new(100, 1);
        let out = eng.factorize(&p);
        assert!(out.solved, "baseline failed a trivially small problem");
        assert!(out.solved_at.unwrap() <= 20);
        assert_eq!(out.decoded, p.true_indices());
    }

    #[test]
    fn baseline_is_deterministic() {
        let p = problem(3, 16, 512, 111);
        let out1 = BaselineResonator::new(100, 7).factorize(&p);
        let out2 = BaselineResonator::new(100, 7).factorize(&p);
        assert_eq!(out1.solved, out2.solved);
        assert_eq!(out1.iterations, out2.iterations);
        assert_eq!(out1.decoded, out2.decoded);
    }

    #[test]
    fn stochastic_solves_small_problem() {
        let p = problem(3, 8, 512, 112);
        let mut eng = StochasticResonator::paper_default(p.spec(), 200, 2);
        let out = eng.factorize(&p);
        assert!(out.solved, "stochastic failed a trivially small problem");
    }

    #[test]
    fn stochastic_runs_differ_across_calls() {
        // Different internal run seeds → generally different trajectories.
        let p = problem(3, 32, 512, 113);
        let mut eng = StochasticResonator::paper_default(p.spec(), 300, 3);
        let a = eng.factorize(&p);
        let b = eng.factorize(&p);
        // Both should solve, but usually at different iteration counts; we
        // only assert the engine does not get weaker across calls.
        assert!(a.solved && b.solved);
    }

    #[test]
    fn factorize_query_accepts_noisy_input() {
        let p = problem(3, 8, 1024, 114);
        let mut rng = rng_from_seed(115);
        let noisy = p.noisy_product(0.05, &mut rng);
        let mut eng = StochasticResonator::paper_default(p.spec(), 300, 4);
        let out = eng.factorize_query(p.codebooks(), &noisy, Some(p.true_indices()));
        assert!(out.solved, "5 % flip noise should be tolerable");
    }

    #[test]
    fn solved_without_truth_uses_recomposition() {
        let p = problem(2, 8, 512, 116);
        let mut eng = BaselineResonator::new(100, 5);
        let out = eng.factorize_query(p.codebooks(), p.product(), None);
        assert!(out.solved);
        assert_eq!(out.decoded, p.true_indices());
    }

    #[test]
    fn trajectory_recording_captures_progress() {
        let p = problem(3, 8, 512, 117);
        let mut cfg = LoopConfig::baseline(100);
        cfg.record_trajectory = true;
        let mut eng = BaselineResonator::with_config(cfg, 6);
        let out = eng.factorize(&p);
        assert!(out.solved);
        assert_eq!(out.correct_at().len(), out.iterations);
        assert_eq!(out.cosines().len(), out.iterations);
        assert!(*out.correct_at().last().unwrap());
        // At solve time each estimate's strongest codebook alignment is
        // the true factor (up to the global sign symmetry); the magnitude
        // only needs to clear the random-similarity floor ~1/sqrt(D).
        assert!(out.cosines().last().unwrap().iter().all(|&c| c.abs() > 0.1));
    }

    #[test]
    fn baseline_large_problem_hits_cycle_or_fails() {
        // Far beyond baseline capacity at this dimension: expect failure,
        // and with Abort the run terminates early via cycle detection.
        let p = problem(4, 64, 256, 118);
        let mut eng = BaselineResonator::new(500, 8);
        let out = eng.factorize(&p);
        assert!(!out.solved);
        // Deterministic failures normally end in a detected cycle or a
        // wrong fixed point well before the budget; a long transient that
        // exhausts the budget is rare but possible, so only the failure
        // itself is asserted strictly.
        if out.cycle.is_some() || out.converged {
            assert!(out.iterations < 500, "early abort expected");
        }
    }
}
