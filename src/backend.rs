//! The unified engine abstraction: every factorization engine in the
//! workspace — device-accurate hardware simulations and algorithm-level
//! software models alike — is drivable through one object-safe trait.
//!
//! [`Backend`] is a superset of `resonator::engine::Factorizer` (which it
//! keeps as a supertrait so kernel-level code keeps working): on top of
//! `factorize`/`factorize_query` it adds engine identification
//! ([`Backend::name`]), capability discovery ([`Backend::capabilities`]),
//! batched solving ([`Backend::factorize_batch`]) and uniform run
//! reporting ([`Backend::last_run_stats`] returning a common
//! [`RunReport`]).
//!
//! Code rarely calls a `Backend` directly: `Session` drives one per
//! configured [`BackendKind`](crate::session::BackendKind), and the
//! [`Workload`](crate::workload::Workload) layer routes whole experiments
//! through it — anything implementing this trait automatically serves
//! every workload, batched and threaded.
//!
//! The six engines implementing it:
//!
//! | backend | substrate | stochastic | cost model |
//! |---|---|---|---|
//! | [`H3dFact`] | 3-tier RRAM CIM | yes | full (energy+latency) |
//! | [`Hybrid2dEngine`] | monolithic 2D RRAM CIM | yes | full |
//! | [`Sram2dEngine`] | digital SRAM CIM | no | full |
//! | [`PcmEngine`] | two-die PCM CIM | yes | full (package links) |
//! | [`BaselineResonator`] | software | no | none |
//! | [`StochasticResonator`] | software | yes | none |
//!
//! A seventh, [`ApproxTiledBackend`](crate::target::ApproxTiledBackend),
//! runs the analog engines' loop on an approximate tiled co-simulation
//! with thermal stepping ([`TargetKind::ApproxTiled`](crate::target::TargetKind)).

use cim::energy::EnergyLedger;
use h3dfact_core::{H3dFact, Hybrid2dEngine, PcmEngine, RunStats, Sram2dEngine};
use hdc::{BipolarVector, Codebook};
use resonator::batch::{run_batch, BatchItem, BatchOutcome};
use resonator::engine::{FactorizationOutcome, Factorizer};
use resonator::{BaselineResonator, SoftwareRunSummary, StochasticResonator};

/// What a backend models and how it can be driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Relies on stochastic exploration (device noise / sparse activation)
    /// rather than the deterministic baseline dynamics.
    pub stochastic: bool,
    /// Reports per-run energy through [`RunReport::energy`].
    pub energy_model: bool,
    /// Reports per-run cycles/latency through [`RunReport::cycles`] /
    /// [`RunReport::latency_s`].
    pub latency_model: bool,
    /// Has a native batch schedule that amortizes cost across a batch
    /// (otherwise `factorize_batch` is a sequential convenience).
    pub native_batch: bool,
}

/// Uniform statistics of a backend's most recent run (or batch).
///
/// Software engines have no hardware cost model, so the cost fields are
/// `None` for them; the loop-level facts are always present. The thermal
/// fields are filled only by the approximate tiled target.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the backend that produced the report.
    pub backend: &'static str,
    /// Resonator iterations executed.
    pub iterations: usize,
    /// Degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// Total clock cycles, when the backend has a latency model.
    pub cycles: Option<u64>,
    /// Wall latency at the design clock, seconds.
    pub latency_s: Option<f64>,
    /// Energy by component, when the backend has an energy model.
    pub energy: Option<EnergyLedger>,
    /// RRAM tier activation switches (3D designs only).
    pub tier_switches: Option<u64>,
    /// ADC conversions performed (analog designs only).
    pub adc_conversions: Option<u64>,
    /// Peak SRAM buffer occupancy, bits (buffered hardware designs only).
    pub buffer_peak_bits: Option<u64>,
    /// Mean die temperature after each iteration, °C (thermal targets
    /// only; empty otherwise).
    pub mean_die_temp_c: Vec<f64>,
    /// Hottest node in the stack at run end, °C (thermal targets only).
    pub peak_temp_c: Option<f64>,
}

impl RunReport {
    pub(crate) fn from_hardware(backend: &'static str, stats: &RunStats) -> Self {
        Self {
            backend,
            iterations: stats.iterations,
            degenerate_events: stats.degenerate_events,
            cycles: Some(stats.cycles),
            latency_s: Some(stats.latency_s),
            energy: Some(stats.energy.clone()),
            tier_switches: Some(stats.tier_switches),
            adc_conversions: Some(stats.adc_conversions),
            buffer_peak_bits: Some(stats.buffer_peak_bits),
            mean_die_temp_c: Vec::new(),
            peak_temp_c: None,
        }
    }

    pub(crate) fn from_software(backend: &'static str, summary: SoftwareRunSummary) -> Self {
        Self {
            backend,
            iterations: summary.iterations,
            degenerate_events: summary.degenerate_events,
            cycles: None,
            latency_s: None,
            energy: None,
            tier_switches: None,
            adc_conversions: None,
            buffer_peak_bits: None,
            mean_die_temp_c: Vec::new(),
            peak_temp_c: None,
        }
    }

    /// Reconstructs hardware [`RunStats`] from this report (missing cost
    /// fields become zeros/empty), for batch-level roll-ups.
    fn to_run_stats(&self) -> RunStats {
        RunStats {
            iterations: self.iterations,
            cycles: self.cycles.unwrap_or(0),
            latency_s: self.latency_s.unwrap_or(0.0),
            energy: self.energy.clone().unwrap_or_default(),
            tier_switches: self.tier_switches.unwrap_or(0),
            adc_conversions: self.adc_conversions.unwrap_or(0),
            degenerate_events: self.degenerate_events,
            buffer_peak_bits: self.buffer_peak_bits.unwrap_or(0),
        }
    }

    /// Total energy in joules, when an energy model exists.
    pub fn energy_j(&self) -> Option<f64> {
        self.energy.as_ref().map(|e| e.total())
    }
}

/// An order-deterministic accumulator over [`RunReport`]s: the single
/// definition of how per-run statistics roll up into multi-run totals,
/// shared by the service layer's per-tenant and per-shard aggregation.
///
/// Cost fields stay `None` until the first report that carries them (so a
/// software backend's totals honestly report "no cost model" rather than
/// zero joules); folding must happen in a deterministic order (admission
/// order, in the service) for the floating-point sums to be reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunTotals {
    /// Reports folded in.
    pub runs: usize,
    /// Total resonator iterations.
    pub iterations: usize,
    /// Total degenerate (all-zero activation) events.
    pub degenerate_events: usize,
    /// Total clock cycles, when any report carried a latency model.
    pub cycles: Option<u64>,
    /// Total modeled latency, seconds.
    pub latency_s: Option<f64>,
    /// Runs whose report carried a latency model (the denominator of
    /// [`RunTotals::latency_per_run_s`] — a tenant may mix hardware and
    /// software shards, and software runs must not dilute the mean).
    pub latency_runs: usize,
    /// Total energy, joules.
    pub energy_j: Option<f64>,
    /// Runs whose report carried an energy model.
    pub energy_runs: usize,
}

impl RunTotals {
    /// Folds one run's report into the totals.
    pub fn fold(&mut self, report: &RunReport) {
        self.runs += 1;
        self.iterations += report.iterations;
        self.degenerate_events += report.degenerate_events;
        if let Some(c) = report.cycles {
            *self.cycles.get_or_insert(0) += c;
        }
        if let Some(l) = report.latency_s {
            *self.latency_s.get_or_insert(0.0) += l;
            self.latency_runs += 1;
        }
        if let Some(e) = report.energy_j() {
            *self.energy_j.get_or_insert(0.0) += e;
            self.energy_runs += 1;
        }
    }

    /// Mean modeled latency per latency-modeled run, seconds.
    pub fn latency_per_run_s(&self) -> Option<f64> {
        self.latency_s
            .filter(|_| self.latency_runs > 0)
            .map(|l| l / self.latency_runs as f64)
    }

    /// Mean energy per energy-modeled run, joules.
    pub fn energy_per_run_j(&self) -> Option<f64> {
        self.energy_j
            .filter(|_| self.energy_runs > 0)
            .map(|e| e / self.energy_runs as f64)
    }
}

/// One reference-borrowed query of a lockstep batch: what
/// [`Backend::factorize_lockstep`] solves per item.
pub type LockstepQuery<'a> = (&'a BipolarVector, Option<&'a [usize]>);

/// One lockstep-solved item: the outcome plus the per-run report the
/// engine would have produced for the same item via `factorize_query` —
/// bit-identical to the sequential call stream, so executors can fold
/// costs from lockstep batches exactly as they fold per-item solves.
#[derive(Debug, Clone)]
pub struct LockstepSolve {
    /// The item's factorization outcome.
    pub outcome: FactorizationOutcome,
    /// The engine's per-run report for the item, when the engine
    /// produces one.
    pub report: Option<RunReport>,
}

/// Builds the per-item [`LockstepSolve`]s a software engine's lockstep
/// batch implies: each report is exactly what `last_run_stats` would have
/// returned right after the item's sequential solve.
fn software_lockstep_solves(
    backend: &'static str,
    outcomes: Vec<FactorizationOutcome>,
) -> Vec<LockstepSolve> {
    outcomes
        .into_iter()
        .map(|outcome| LockstepSolve {
            report: Some(RunReport::from_software(
                backend,
                SoftwareRunSummary::of(&outcome),
            )),
            outcome,
        })
        .collect()
}

/// The unified, object-safe interface over every factorization engine.
///
/// Extends [`Factorizer`] (so `factorize` and `factorize_query` are
/// available on every `Box<dyn Backend>`) with identification, capability
/// discovery, batching, deterministic run-cursor control, and uniform
/// reporting. `Send` is required so engines can be dispatched to the
/// session's worker threads.
pub trait Backend: Factorizer + Send {
    /// Stable identifier of the engine (used in reports and logs).
    fn name(&self) -> &'static str;

    /// What this engine models.
    fn capabilities(&self) -> Capabilities;

    /// Statistics of the most recent `factorize*` call, in the common
    /// report format. `None` before the first run.
    fn last_run_stats(&self) -> Option<RunReport>;

    /// How many `factorize*` item solves this engine has issued. Every
    /// engine derives the seed of run `k` purely from `(engine seed, k)`,
    /// which is what makes parallel batch execution bit-identical to
    /// sequential execution.
    fn run_cursor(&self) -> u64;

    /// Repositions the run cursor: the next `factorize*` call draws the
    /// seed stream of run `cursor`. The session's parallel executor gives
    /// each batch item the cursor it would have had sequentially.
    fn seek_run(&mut self, cursor: u64);

    /// Solves `queries` as one lockstep batch when the engine has a
    /// batched stepper: item `i` is solved at run cursor
    /// `run_cursor() + i`, the cursor advances past the batch, and
    /// outcomes and reports are **bit-identical** (up to wall-clock
    /// phase times) to the equivalent sequential `factorize_query` call
    /// stream. Returns `None` (the default) when the engine has no
    /// lockstep path — the simulated hardware engines, whose kernels
    /// carry per-run device state — in which case callers fall back to
    /// per-item solving.
    fn factorize_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
    ) -> Option<Vec<LockstepSolve>> {
        let _ = (codebooks, queries);
        None
    }

    /// Factorizes every item against shared codebooks.
    ///
    /// The default implementation routes through the engine's lockstep
    /// batch path when it has one (bitwise identical to per-item calls,
    /// but matrix–matrix in the kernels), chunked at the executor's
    /// lockstep bound so batch scratch stays `O(chunk)` however large the
    /// item set is; engines without a stepper solve sequentially, and
    /// backends with a native batch schedule override the whole method to
    /// amortize hardware cost.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes disagree.
    fn factorize_batch(&mut self, codebooks: &[Codebook], items: &[BatchItem]) -> BatchOutcome {
        assert!(!items.is_empty(), "batch must be non-empty");
        let mut outcomes = Vec::with_capacity(items.len());
        for chunk in items.chunks(crate::executor::LOCKSTEP_CHUNK) {
            let queries: Vec<LockstepQuery<'_>> = chunk
                .iter()
                .map(|item| (&item.query, item.truth.as_deref()))
                .collect();
            match self.factorize_lockstep(codebooks, &queries) {
                Some(solves) => outcomes.extend(solves.into_iter().map(|s| s.outcome)),
                None => {
                    // No stepper: the cursor is exactly where the solved
                    // prefix left it, so the remainder runs per-item.
                    let rest = run_batch(self, codebooks, &items[outcomes.len()..]);
                    outcomes.extend(rest.outcomes);
                    break;
                }
            }
        }
        BatchOutcome::from_outcomes(outcomes)
    }

    /// Folds per-item run reports — produced by an executor that solved a
    /// batch item-by-item at the same run cursors — into this engine's
    /// batch-level report, exactly as its native `factorize_batch` would.
    /// Returns `false` (the default) when the engine has no native batch
    /// roll-up, in which case the last item's report stands.
    fn fold_batch_reports(&mut self, per_item: &[RunReport]) -> bool {
        let _ = per_item;
        false
    }
}

impl Backend for H3dFact {
    fn name(&self) -> &'static str {
        "h3dfact-3d"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: true,
            energy_model: true,
            latency_model: true,
            native_batch: true,
        }
    }

    fn last_run_stats(&self) -> Option<RunReport> {
        H3dFact::last_run_stats(self).map(|s| RunReport::from_hardware(Backend::name(self), s))
    }

    fn run_cursor(&self) -> u64 {
        H3dFact::run_cursor(self)
    }

    fn seek_run(&mut self, cursor: u64) {
        H3dFact::set_run_cursor(self, cursor);
    }

    fn factorize_batch(&mut self, codebooks: &[Codebook], items: &[BatchItem]) -> BatchOutcome {
        // The SRAM-buffered batch schedule of Sec. IV-A.
        H3dFact::factorize_batch(self, codebooks, items)
    }

    fn fold_batch_reports(&mut self, per_item: &[RunReport]) -> bool {
        let stats: Vec<RunStats> = per_item.iter().map(RunReport::to_run_stats).collect();
        self.install_batch_stats(&stats);
        true
    }
}

impl Backend for Hybrid2dEngine {
    fn name(&self) -> &'static str {
        "hybrid-2d"
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
        Hybrid2dEngine::last_run_stats(self)
            .map(|s| RunReport::from_hardware(Backend::name(self), s))
    }
    fn run_cursor(&self) -> u64 {
        Hybrid2dEngine::run_cursor(self)
    }

    fn seek_run(&mut self, cursor: u64) {
        Hybrid2dEngine::set_run_cursor(self, cursor);
    }
}

impl Backend for Sram2dEngine {
    fn name(&self) -> &'static str {
        "sram-2d"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: false,
            energy_model: true,
            latency_model: true,
            native_batch: false,
        }
    }

    fn last_run_stats(&self) -> Option<RunReport> {
        Sram2dEngine::last_run_stats(self).map(|s| RunReport::from_hardware(Backend::name(self), s))
    }
    fn run_cursor(&self) -> u64 {
        Sram2dEngine::run_cursor(self)
    }

    fn seek_run(&mut self, cursor: u64) {
        Sram2dEngine::set_run_cursor(self, cursor);
    }
}

impl Backend for PcmEngine {
    fn name(&self) -> &'static str {
        "pcm-2die"
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
        PcmEngine::last_run_stats(self).map(|s| RunReport::from_hardware(Backend::name(self), s))
    }
    fn run_cursor(&self) -> u64 {
        PcmEngine::run_cursor(self)
    }

    fn seek_run(&mut self, cursor: u64) {
        PcmEngine::set_run_cursor(self, cursor);
    }
}

impl Backend for BaselineResonator {
    fn name(&self) -> &'static str {
        "baseline-sw"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: false,
            energy_model: false,
            latency_model: false,
            native_batch: false,
        }
    }

    fn last_run_stats(&self) -> Option<RunReport> {
        self.last_run_summary()
            .map(|s| RunReport::from_software(Backend::name(self), s))
    }
    fn run_cursor(&self) -> u64 {
        BaselineResonator::run_cursor(self)
    }

    fn seek_run(&mut self, cursor: u64) {
        BaselineResonator::set_run_cursor(self, cursor);
    }

    fn factorize_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
    ) -> Option<Vec<LockstepSolve>> {
        let outcomes = BaselineResonator::factorize_lockstep(self, codebooks, queries);
        Some(software_lockstep_solves(Backend::name(self), outcomes))
    }
}

impl Backend for StochasticResonator {
    fn name(&self) -> &'static str {
        "stochastic-sw"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            stochastic: true,
            energy_model: false,
            latency_model: false,
            native_batch: false,
        }
    }

    fn last_run_stats(&self) -> Option<RunReport> {
        self.last_run_summary()
            .map(|s| RunReport::from_software(Backend::name(self), s))
    }
    fn run_cursor(&self) -> u64 {
        StochasticResonator::run_cursor(self)
    }

    fn seek_run(&mut self, cursor: u64) {
        StochasticResonator::set_run_cursor(self, cursor);
    }

    fn factorize_lockstep(
        &mut self,
        codebooks: &[Codebook],
        queries: &[LockstepQuery<'_>],
    ) -> Option<Vec<LockstepSolve>> {
        let outcomes = StochasticResonator::factorize_lockstep(self, codebooks, queries);
        Some(software_lockstep_solves(Backend::name(self), outcomes))
    }
}
