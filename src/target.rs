//! Execution targets: *what substrate executes the resonator kernels*,
//! orthogonal to *which engine's physics* a backend models.
//!
//! Two targets exist, selected by [`TargetKind`]:
//!
//! - [`TargetKind::Functional`] (the default) — the engines themselves
//!   (`H3dFact`, `Sram2dEngine`, `BaselineResonator`, …), with their
//!   bit-exact packed kernels, lockstep steppers and native batch
//!   schedules. Every golden pins this path.
//! - [`TargetKind::ApproxTiled`] — [`ApproxTiledBackend`], an approximate
//!   hardware co-simulation of the analog crossbar engines: tiled
//!   crossbars with IR drop, rectifying ADC readout, and a lumped-RC
//!   thermal model stepped once per resonator iteration; its
//!   [`RunReport`] carries the per-iteration die-temperature trajectory.
//!
//! Both run the one shared [`ResonatorLoop`]; the substrate changes only
//! the kernels' noise and cost. [`BackendKind::instantiate`] builds either.
//!
//! Backends receive their codebooks per call (`&[Codebook]` slices) and
//! never own them, so they compose transparently with the codebook
//! registry ([`crate::registry`]): the caller resolves its
//! [`CodebookHandle`](crate::registry::CodebookHandle) once per pass and
//! every backend sees the same registry-shared allocation, hot or cold.
//!
//! [`BackendKind::instantiate`]: crate::session::BackendKind::instantiate

use arch3d::design::DesignVariant;
use arch3d::neurosim::ComponentLibrary;
use arch3d::schedule::{IterationSchedule, ScheduleConfig};
use cim::adc::{AdcConfig, SarAdc};
use cim::crossbar::TiledCrossbar;
use cim::energy::{EnergyComponent, EnergyLedger};
use cim::power::PowerMode;
use cim::xnor::XnorUnit;
use h3dfact_core::H3dFactConfig;
use hdc::rng::derive_seed;
use hdc::{BipolarVector, Codebook};
use resonator::engine::{FactorizationOutcome, Factorizer, ResonatorKernels, ResonatorLoop};
use std::fmt;
use thermal::{LumpedStack, Stack};

use crate::backend::{Backend, Capabilities, RunReport};

/// Loop-seed namespace of the analog (crossbar) engines.
const ANALOG_LOOP_NS: u64 = 0xACC;

/// Which hardware target executes the resonator kernels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// The engines' own bit-exact packed-kernel path (the default).
    #[default]
    Functional,
    /// Tiled crossbars + IR drop + per-iteration lumped-RC thermal
    /// coupling, with a temperature trajectory in the run report (analog
    /// crossbar backends only).
    ApproxTiled,
}

impl TargetKind {
    /// The target's stable name.
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Functional => "functional",
            TargetKind::ApproxTiled => "approx-tiled",
        }
    }
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Ambient (and initial) temperature of the thermal model, °C.
const APPROX_AMBIENT_C: f64 = 25.0;
/// Die extent handed to the thermal stack, mm (the paper floorplan).
const APPROX_EXTENT_MM: f64 = 1.0;

/// Approximate hardware co-simulation of an analog crossbar engine:
/// per-factor tiled crossbars with IR drop and rectifying SAR-ADC readout,
/// both RRAM tiers held active (no tier scheduler — the approximation),
/// and a lumped-RC thermal network stepped once per resonator iteration
/// from that iteration's dissipated energy.
///
/// Owns the run-cursor seed discipline of every backend
/// (`run_seed = derive(engine seed, cursor)`), so threads(N) ≡ threads(1)
/// and live ≡ replay hold exactly as for the engines. Each
/// [`RunReport`] carries the mean-die-temperature trajectory and the peak
/// stack temperature; everything is deterministic per run seed.
pub struct ApproxTiledBackend {
    name: &'static str,
    cfg: H3dFactConfig,
    variant: DesignVariant,
    seed: u64,
    runs: u64,
    last: Option<RunReport>,
    lib: ComponentLibrary,
    stack: Stack,
    sim_tier: Vec<TiledCrossbar>,
    proj_tier: Vec<TiledCrossbar>,
    adc: SarAdc,
    xnor: XnorUnit,
    /// Run-cumulative energy.
    ledger: EnergyLedger,
    /// Energy of the iteration in flight (drained at `end_iteration`).
    iter_ledger: EnergyLedger,
    thermal: LumpedStack,
    trajectory: Vec<f64>,
    adc_conversions: u64,
    mvm_scratch: Vec<f64>,
    cycles_per_iter: u64,
    /// Modeled wall time of one iteration, seconds (the thermal step).
    dt_iter_s: f64,
}

impl ApproxTiledBackend {
    /// Builds the approximate tiled backend for an analog design variant.
    ///
    /// # Panics
    ///
    /// Panics for the SRAM 2D variant (digital kernels have no crossbars).
    pub fn new(cfg: H3dFactConfig, variant: DesignVariant, seed: u64) -> Self {
        let name = match variant {
            DesignVariant::H3dThreeTier => "h3dfact-3d+approx",
            DesignVariant::Hybrid2d => "hybrid-2d+approx",
            DesignVariant::Sram2d => {
                panic!("the approximate tiled target models the analog crossbar path")
            }
        };
        cfg.validate();
        let schedule =
            IterationSchedule::compute(&ScheduleConfig::paper(cfg.spec.factors, cfg.batch));
        let dt_iter_s = schedule.cycles as f64 / (variant.frequency_mhz() * 1e6);
        let stack = Stack::paper_h3dfact(APPROX_EXTENT_MM);
        let thermal = LumpedStack::new(&stack, APPROX_AMBIENT_C);
        let adc = SarAdc::ideal(AdcConfig {
            bits: cfg.adc_bits,
            full_scale: cfg.adc_full_scale(),
            offset_sigma: 0.0,
            gain_sigma: 0.0,
        });
        Self {
            name,
            cfg,
            variant,
            seed,
            runs: 0,
            last: None,
            lib: variant.library(),
            stack,
            sim_tier: Vec::new(),
            proj_tier: Vec::new(),
            adc,
            xnor: XnorUnit::new(),
            ledger: EnergyLedger::new(),
            iter_ledger: EnergyLedger::new(),
            thermal,
            trajectory: Vec::new(),
            adc_conversions: 0,
            mvm_scratch: Vec::new(),
            cycles_per_iter: schedule.cycles,
            dt_iter_s,
        }
    }

    /// Prepares one run: programs both crossbar tiers from `codebooks`
    /// with the run's device noise, and resets the ledgers and the
    /// thermal state.
    fn program(&mut self, codebooks: &[Codebook], run_seed: u64) {
        assert_eq!(
            codebooks.len(),
            self.cfg.spec.factors,
            "codebook count != configured factors"
        );
        let program_one = |f: usize, tier: u64| {
            TiledCrossbar::program(
                &codebooks[f],
                self.cfg.subarray_rows,
                self.cfg.noise,
                self.cfg.fidelity,
                derive_seed(run_seed, tier * 1000 + f as u64),
            )
            .with_ir_drop(self.cfg.ir_drop)
        };
        self.sim_tier = (0..codebooks.len()).map(|f| program_one(f, 3)).collect();
        self.proj_tier = (0..codebooks.len()).map(|f| program_one(f, 2)).collect();
        for xb in self.sim_tier.iter_mut().chain(&mut self.proj_tier) {
            xb.set_power_mode(PowerMode::Active);
        }
        self.ledger = EnergyLedger::new();
        self.iter_ledger = EnergyLedger::new();
        // Programming energy lands in the run ledger directly: it happens
        // before the loop, so it does not heat any iteration's step.
        let pulses: u64 = self
            .sim_tier
            .iter()
            .chain(&self.proj_tier)
            .map(|xb| xb.stats().programs)
            .sum();
        self.ledger.add(
            EnergyComponent::RramProgram,
            pulses as f64 * cim::rram::RramDeviceParams::default().program_energy_j,
        );
        self.thermal = LumpedStack::new(&self.stack, APPROX_AMBIENT_C);
        self.trajectory = Vec::new();
        self.adc_conversions = 0;
        self.mvm_scratch = vec![0.0f64; codebooks[0].len()];
    }

    /// Settles the finished run into its report and releases the arrays.
    fn settle(&mut self, outcome: &FactorizationOutcome) -> RunReport {
        let cycles = self.cycles_per_iter * outcome.iterations as u64;
        self.sim_tier.clear();
        self.proj_tier.clear();
        RunReport {
            backend: self.name,
            iterations: outcome.iterations,
            degenerate_events: outcome.degenerate_events,
            cycles: Some(cycles),
            latency_s: Some(cycles as f64 / (self.variant.frequency_mhz() * 1e6)),
            energy: Some(self.ledger.clone()),
            tier_switches: None,
            adc_conversions: Some(self.adc_conversions),
            buffer_peak_bits: None,
            mean_die_temp_c: std::mem::take(&mut self.trajectory),
            peak_temp_c: Some(self.thermal.peak_temp_c()),
        }
    }
}

/// The kernels of the run in flight: shapes are read off the programmed
/// similarity tier, so they match the codebooks of the current run.
impl ResonatorKernels for ApproxTiledBackend {
    fn dim(&self) -> usize {
        self.sim_tier[0].rows()
    }

    fn factors(&self) -> usize {
        self.sim_tier.len()
    }

    fn codebook_size(&self) -> usize {
        self.sim_tier[0].cols()
    }

    fn unbind_into(
        &mut self,
        product: &BipolarVector,
        others: &[&BipolarVector],
        out: &mut BipolarVector,
    ) {
        self.xnor.unbind_all_into(product, others, out);
        self.iter_ledger.add(
            EnergyComponent::Unbind,
            others.len() as f64
                * product.dim() as f64
                * self.lib.e_xnor_gate_j(self.variant.digital_node()),
        );
    }

    fn similarity_weights_into(&mut self, factor: usize, query: &BipolarVector, out: &mut [f64]) {
        let d = query.dim() as f64;
        let m = out.len() as f64;
        self.sim_tier[factor]
            .try_mvm_bipolar_into(query, &mut self.mvm_scratch)
            .expect("similarity tier is held active");
        self.iter_ledger.add(
            EnergyComponent::SimilarityMvm,
            d * m * self.lib.e_mac_rram_j(),
        );
        self.iter_ledger.add(
            EnergyComponent::Control,
            d * self.lib.e_drive_row_j(self.variant.periphery_node()),
        );
        for (w, &c) in out.iter_mut().zip(&self.mvm_scratch) {
            *w = self.adc.convert(c.max(0.0));
        }
        self.adc_conversions += out.len() as u64;
        self.iter_ledger.add(
            EnergyComponent::Adc,
            m * self
                .lib
                .e_adc_j(self.cfg.adc_bits, self.variant.periphery_node()),
        );
    }

    fn project_into(&mut self, factor: usize, weights: &[f64], out: &mut [f64]) {
        let d = out.len() as f64;
        let m = weights.len() as f64;
        self.proj_tier[factor]
            .try_mvm_weighted_into(weights, out)
            .expect("projection tier is held active");
        self.iter_ledger.add(
            EnergyComponent::ProjectionMvm,
            d * m * self.lib.e_mac_rram_j(),
        );
        self.iter_ledger.add(
            EnergyComponent::Activation,
            d * self.lib.e_sense_j(self.variant.periphery_node()),
        );
    }

    fn end_iteration(&mut self) {
        self.iter_ledger.add(
            EnergyComponent::Control,
            self.cycles_per_iter as f64 * self.lib.e_control_cycle_j(self.variant.digital_node()),
        );
        // Split the iteration's dissipation across the three dies
        // (bottom-up: tier-1 digital, tier-2 projection, tier-3
        // similarity) and advance the RC network by one iteration time.
        let e = &self.iter_ledger;
        let p_digital = (e.get(EnergyComponent::Unbind)
            + e.get(EnergyComponent::Adc)
            + e.get(EnergyComponent::Control))
            / self.dt_iter_s;
        let p_proj = (e.get(EnergyComponent::ProjectionMvm) + e.get(EnergyComponent::Activation))
            / self.dt_iter_s;
        let p_sim = e.get(EnergyComponent::SimilarityMvm) / self.dt_iter_s;
        self.thermal
            .step(&[p_digital, p_proj, p_sim], self.dt_iter_s);
        self.trajectory.push(self.thermal.mean_die_temp_c());
        let drained = std::mem::replace(&mut self.iter_ledger, EnergyLedger::new());
        self.ledger.merge(&drained);
    }
}

impl Factorizer for ApproxTiledBackend {
    fn factorize_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let run_seed = derive_seed(self.seed, self.runs);
        self.runs += 1;
        self.program(codebooks, run_seed);
        let outcome = ResonatorLoop::new(self.cfg.loop_config).run(
            self,
            codebooks,
            query,
            truth,
            derive_seed(run_seed, ANALOG_LOOP_NS),
        );
        self.last = Some(self.settle(&outcome));
        outcome
    }
}

impl Backend for ApproxTiledBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: true,
            energy_model: true,
            latency_model: true,
            native_batch: false,
        }
    }

    fn last_run_stats(&self) -> Option<RunReport> {
        self.last.clone()
    }

    fn run_cursor(&self) -> u64 {
        self.runs
    }

    fn seek_run(&mut self, cursor: u64) {
        self.runs = cursor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::BackendKind;
    use hdc::rng::rng_from_seed;
    use hdc::{FactorizationProblem, ProblemSpec};

    fn problem(seed: u64) -> FactorizationProblem {
        FactorizationProblem::random(ProblemSpec::new(3, 8, 256), &mut rng_from_seed(seed))
    }

    #[test]
    fn functional_target_matches_h3dfact_engine() {
        let p = problem(900);
        let mut engine = h3dfact_core::H3dFact::new(
            H3dFactConfig::default_for(p.spec()).with_max_iters(400),
            42,
        );
        let mut target =
            BackendKind::H3dFact.instantiate(TargetKind::Functional, p.spec(), 400, 42, None, None);
        for _ in 0..2 {
            let a = engine.factorize(&p);
            let b = target.factorize(&p);
            assert_eq!(a.solved, b.solved);
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(a.decoded, b.decoded);
        }
        let ea = Backend::last_run_stats(&engine).unwrap();
        let eb = target.last_run_stats().unwrap();
        assert_eq!(ea, eb, "functional run report must match the engine");
    }

    #[test]
    fn approx_tiled_records_thermal_trajectory() {
        let p = problem(902);
        let mut t =
            BackendKind::H3dFact.instantiate(TargetKind::ApproxTiled, p.spec(), 400, 3, None, None);
        let out = t.factorize(&p);
        let report = t.last_run_stats().unwrap();
        assert_eq!(report.mean_die_temp_c.len(), out.iterations);
        assert!(report
            .mean_die_temp_c
            .iter()
            .all(|&c| (APPROX_AMBIENT_C..200.0).contains(&c)));
        assert!(report.peak_temp_c.unwrap() >= APPROX_AMBIENT_C);
        assert!(report.energy.as_ref().unwrap().total() > 0.0);
    }
}
