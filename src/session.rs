//! The top-level entry point: a [`Session`] owns one problem shape, one
//! [`Backend`], problem generation, batched solving with per-problem
//! seeds, and aggregate accuracy/energy/latency reporting.
//!
//! [`BackendKind::instantiate`] is the one constructor of every backend:
//! it builds the kind's engine on a [`TargetKind`] — the engine itself by
//! default, or its crossbar loop on the approximate tiled co-simulation.
//!
//! ```
//! use h3dfact::prelude::*;
//!
//! let spec = ProblemSpec::new(3, 8, 256);
//! let mut session = Session::builder()
//!     .spec(spec)
//!     .backend(BackendKind::Stochastic)
//!     .seed(7)
//!     .max_iters(500)
//!     .build();
//! let report = session.run(4);
//! assert_eq!(report.problems, 4);
//! assert!(report.accuracy() > 0.5);
//! ```

use std::fmt;
use std::sync::Arc;

use arch3d::design::DesignVariant;
use cim::noise::NoiseSpec;
use h3dfact_core::{H3dFact, H3dFactConfig, Hybrid2dEngine, PcmEngine, Sram2dEngine};
use hdc::rng::{derive_seed, stream_rng};
use hdc::{BipolarVector, Codebook, FactorizationProblem, ProblemSpec};
use resonator::batch::{BatchItem, BatchOutcome};
use resonator::engine::FactorizationOutcome;
use resonator::metrics::IterationStats;
use resonator::{BaselineResonator, StochasticResonator};

use crate::backend::{Backend, RunReport};
use crate::executor;
use crate::registry::{CodebookHandle, CodebookRegistry};
use crate::target::{ApproxTiledBackend, TargetKind};
use crate::workload::{Workload, WorkloadReport, WorkloadSet};

/// Stream namespaces for the session's seed-derivation tree. Every family
/// of streams a session draws is namespaced through a **nested**
/// [`derive_seed`] (`derive_seed(derive_seed(seed, NS), k)`) rather than a
/// flat offset (`derive_seed(seed, NS + k)`): flat offsets alias once `k`
/// crosses a namespace boundary, which is exactly the failure mode a
/// long-lived serving shard (billions of issued problems) would hit.
mod ns {
    /// Backend constructor seeds.
    pub const BACKEND: u64 = 0xB4C;
    /// Codebook generation.
    pub const CODEBOOKS: u64 = 0xC0DE;
    /// Per-problem seed streams ([`super::Session::generate`]).
    pub const PROBLEMS: u64 = 0xE90C;
    /// Carved-shard seed lineage ([`super::Session::carve_shard`]).
    pub const SHARDS: u64 = 0x5AAD;
}

/// The six engines a [`Session`] can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The simulated three-tier H3DFact accelerator (device-accurate).
    H3dFact,
    /// The fully digital SRAM-CIM 2D baseline of Table III.
    Sram2d,
    /// The monolithic hybrid (RRAM+SRAM, 40 nm) 2D baseline of Table III.
    Hybrid2d,
    /// The two-die PCM in-memory factorizer comparator of Sec. V-B.
    Pcm,
    /// The deterministic software baseline resonator (Frady et al.).
    Baseline,
    /// The algorithm-level stochastic software model of H3DFact.
    Stochastic,
}

impl BackendKind {
    /// Every backend, in presentation order.
    pub const ALL: [BackendKind; 6] = [
        BackendKind::H3dFact,
        BackendKind::Sram2d,
        BackendKind::Hybrid2d,
        BackendKind::Pcm,
        BackendKind::Baseline,
        BackendKind::Stochastic,
    ];

    /// The backend's stable name (matches `Backend::name`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::H3dFact => "h3dfact-3d",
            BackendKind::Sram2d => "sram-2d",
            BackendKind::Hybrid2d => "hybrid-2d",
            BackendKind::Pcm => "pcm-2die",
            BackendKind::Baseline => "baseline-sw",
            BackendKind::Stochastic => "stochastic-sw",
        }
    }

    /// Instantiates the engine behind this kind on an execution target:
    /// [`TargetKind::Functional`] is the engine itself,
    /// [`TargetKind::ApproxTiled`] its crossbar loop on the approximate
    /// tiled co-simulation.
    ///
    /// # Panics
    ///
    /// Panics for [`TargetKind::ApproxTiled`] on a backend without an
    /// analog crossbar path (anything but `H3dFact` and `Hybrid2d`).
    pub fn instantiate(
        self,
        target: TargetKind,
        spec: ProblemSpec,
        max_iters: usize,
        seed: u64,
        adc_bits: Option<u8>,
        noise: Option<NoiseSpec>,
    ) -> Box<dyn Backend> {
        let hw_config = || {
            let mut cfg = H3dFactConfig::default_for(spec).with_max_iters(max_iters);
            if let Some(bits) = adc_bits {
                cfg = cfg.with_adc_bits(bits);
            }
            if let Some(n) = noise {
                cfg = cfg.with_noise(n);
            }
            cfg
        };
        if target == TargetKind::ApproxTiled {
            let variant = match self {
                BackendKind::H3dFact => DesignVariant::H3dThreeTier,
                BackendKind::Hybrid2d => DesignVariant::Hybrid2d,
                other => panic!(
                    "the approximate tiled target models the analog crossbar path; \
                     {other} has none"
                ),
            };
            return Box::new(ApproxTiledBackend::new(hw_config(), variant, seed));
        }
        match self {
            BackendKind::H3dFact => Box::new(H3dFact::new(hw_config(), seed)),
            BackendKind::Sram2d => Box::new(Sram2dEngine::new(spec, max_iters, seed)),
            BackendKind::Hybrid2d => Box::new(Hybrid2dEngine::new(hw_config(), seed)),
            BackendKind::Pcm => {
                let mut engine = PcmEngine::paper_default(spec, max_iters, seed);
                if let Some(bits) = adc_bits {
                    engine = engine.with_adc_bits(bits);
                }
                if let Some(n) = noise {
                    // Workspace noise convention: the session hands every
                    // analog backend the same *relative per-cell* sigma
                    // (`NoiseSpec::sigma_total()` units) and the engine
                    // owns the `sqrt(D)` column scaling. Fault and write
                    // nonidealities map onto the comparator's survival
                    // model.
                    engine = engine
                        .with_cell_sigma(n.sigma_total())
                        .with_faults(n.stuck_at_rate, n.write_gain());
                }
                Box::new(engine)
            }
            BackendKind::Baseline => Box::new(BaselineResonator::new(max_iters, seed)),
            BackendKind::Stochastic => {
                // The algorithm-level model parameterizes the same knobs
                // as the analog hardware: honor the overrides rather than
                // silently running paper defaults. Same per-cell sigma
                // convention as the PCM arm above.
                let cell_sigma = noise
                    .map(|n| n.sigma_total())
                    .unwrap_or(StochasticResonator::CHIP_CELL_SIGMA);
                let bits = adc_bits.unwrap_or(4);
                Box::new(StochasticResonator::with_cell_noise(
                    spec, max_iters, cell_sigma, bits, seed,
                ))
            }
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why [`SessionBuilder::try_build`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionBuildError {
    /// No problem shape was supplied.
    MissingSpec,
    /// The iteration budget was zero.
    ZeroIterationBudget,
}

impl fmt::Display for SessionBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionBuildError::MissingSpec => {
                write!(f, "Session::builder() needs .spec(ProblemSpec::new(..))")
            }
            SessionBuildError::ZeroIterationBudget => {
                write!(f, "max_iters must be at least 1")
            }
        }
    }
}

impl std::error::Error for SessionBuildError {}

/// Fluent construction of a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    spec: Option<ProblemSpec>,
    backend: BackendKind,
    seed: u64,
    max_iters: usize,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
    threads: usize,
    target: TargetKind,
    registry: Option<Arc<CodebookRegistry>>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self {
            spec: None,
            backend: BackendKind::H3dFact,
            seed: 0,
            max_iters: 2_000,
            adc_bits: None,
            noise: None,
            threads: 1,
            target: TargetKind::Functional,
            registry: None,
        }
    }
}

impl SessionBuilder {
    /// The problem shape the session is provisioned for (required).
    pub fn spec(mut self, spec: ProblemSpec) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Which engine to drive (default: [`BackendKind::H3dFact`]).
    pub fn backend(mut self, kind: BackendKind) -> Self {
        self.backend = kind;
        self
    }

    /// Master seed for codebooks, problems, and engine stochasticity
    /// (default: 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Iteration budget per problem (default: 2000, the paper's budget).
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// ADC resolution override for the analog hardware backends (Fig. 6a
    /// studies). Ignored by software backends.
    pub fn adc_bits(mut self, bits: u8) -> Self {
        self.adc_bits = Some(bits);
        self
    }

    /// Device-noise override for the analog hardware backends. Ignored by
    /// software backends.
    pub fn noise(mut self, noise: NoiseSpec) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Worker threads for batch solving (default: 1, fully sequential).
    /// `0` means "all available cores". With `n > 1`, [`Session::run`] and
    /// [`Session::run_batched`] solve batch items on a deterministic
    /// worker pool whose [`SessionReport`]s are **bit-identical** to the
    /// sequential run at the same seed: each item is solved at the run
    /// cursor it would have had sequentially, and order-sensitive
    /// aggregation (energy sums) happens in item order afterwards.
    ///
    /// Pick `n` up to the physical core count for throughput sweeps;
    /// oversubscribing buys nothing because items are CPU-bound. Single
    /// `solve`/`solve_query` calls are unaffected.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Execution target for the backend's kernels (default:
    /// [`TargetKind::Functional`], the engine itself).
    /// [`TargetKind::ApproxTiled`] trades the engine's exact kernels for a
    /// tiled hardware co-simulation whose run reports carry a thermal
    /// trajectory.
    pub fn target(mut self, target: TargetKind) -> Self {
        self.target = target;
        self
    }

    /// Codebook registry to intern this session's codebooks in (default:
    /// the process-wide [`CodebookRegistry::global`]). Sessions with
    /// content-identical codebooks — e.g. many tenants at one seed —
    /// resolve to **one** shared allocation through the registry, and the
    /// registry's hot/cold hierarchy decides lazily whether the packed
    /// lane-major mirrors are materialized (only for codebook shapes the
    /// similarity kernel's strip walk wins at). Results are bit-identical
    /// in every tier state;
    /// pass a private registry in tests/benches that measure footprint.
    pub fn registry(mut self, registry: Arc<CodebookRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Builds the session.
    pub fn try_build(self) -> Result<Session, SessionBuildError> {
        let spec = self.spec.ok_or(SessionBuildError::MissingSpec)?;
        if self.max_iters == 0 {
            return Err(SessionBuildError::ZeroIterationBudget);
        }
        let backend = self.backend.instantiate(
            self.target,
            spec,
            self.max_iters,
            derive_seed(self.seed, ns::BACKEND),
            self.adc_bits,
            self.noise,
        );
        let registry = self.registry.unwrap_or_else(CodebookRegistry::global);
        let mut rng = stream_rng(self.seed, ns::CODEBOOKS);
        let generated: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let codebook_handle = CodebookRegistry::intern(&registry, generated);
        let codebooks = codebook_handle.resolve();
        Ok(Session {
            spec,
            kind: self.backend,
            seed: self.seed,
            max_iters: self.max_iters,
            adc_bits: self.adc_bits,
            noise: self.noise,
            threads: self.threads,
            target: self.target,
            codebook_handle,
            codebooks,
            backend,
            problem_cursor: 0,
            shards_carved: 0,
            last_report: None,
        })
    }

    /// Builds the session.
    ///
    /// # Panics
    ///
    /// Panics when required parameters are missing; use
    /// [`SessionBuilder::try_build`] to handle that as a `Result`.
    pub fn build(self) -> Session {
        match self.try_build() {
            Ok(session) => session,
            Err(e) => panic!("invalid session: {e}"),
        }
    }
}

/// Aggregate result of a [`Session`] solve pass.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Name of the backend that ran.
    pub backend: &'static str,
    /// Problems attempted.
    pub problems: usize,
    /// Problems solved within budget.
    pub solved: usize,
    /// Iterations across all problems (the pass's work measure).
    pub total_iterations: usize,
    /// Iteration statistics over the solved problems.
    pub iterations: IterationStats,
    /// Total energy, joules — `None` for backends without an energy model.
    pub total_energy_j: Option<f64>,
    /// Total modeled latency, seconds — `None` without a latency model.
    pub total_latency_s: Option<f64>,
    /// Per-problem outcomes, in generation order.
    pub outcomes: Vec<FactorizationOutcome>,
}

impl SessionReport {
    /// Fraction of problems solved.
    pub fn accuracy(&self) -> f64 {
        if self.problems == 0 {
            0.0
        } else {
            self.solved as f64 / self.problems as f64
        }
    }

    /// Mean energy per problem, joules.
    pub fn energy_per_problem_j(&self) -> Option<f64> {
        self.total_energy_j
            .filter(|_| self.problems > 0)
            .map(|e| e / self.problems as f64)
    }

    /// Mean modeled latency per problem, seconds.
    pub fn latency_per_problem_s(&self) -> Option<f64> {
        self.total_latency_s
            .filter(|_| self.problems > 0)
            .map(|l| l / self.problems as f64)
    }

    /// Mean iterations among solved problems.
    pub fn mean_iterations_solved(&self) -> Option<f64> {
        (self.iterations.count() > 0).then(|| self.iterations.mean())
    }
}

/// A configured solving session: one problem shape, one backend, owned
/// codebooks, deterministic per-problem seed streams, and aggregate
/// reporting.
///
/// Construct with [`Session::builder`]. See the module docs for a
/// round-trip example.
pub struct Session {
    spec: ProblemSpec,
    kind: BackendKind,
    seed: u64,
    max_iters: usize,
    adc_bits: Option<u8>,
    noise: Option<NoiseSpec>,
    /// Worker threads for batch solving (`0` = all cores, `1` = sequential).
    threads: usize,
    /// Execution target of the backend's kernels.
    target: TargetKind,
    /// The registry entry this session's codebooks are interned under.
    /// Content-identical sessions (same seed/spec, or any other route to
    /// the same sign words) share one entry — and one allocation —
    /// process-wide.
    codebook_handle: CodebookHandle,
    /// The shared codebooks, as last resolved from the registry: carved
    /// shards and request streams hold the same allocation (`Arc`), so a
    /// pool of N shards stores the codebooks once, not N times. Solve
    /// passes refresh this once per pass ([`Session::refresh_codebooks`])
    /// and run entirely against one `Arc`, so registry touches count
    /// passes, not items.
    codebooks: Arc<[Codebook]>,
    backend: Box<dyn Backend>,
    /// Next problem-stream cursor: problem `k` of this session draws the
    /// seed stream `(seed, PROBLEMS, k)` regardless of how generation
    /// calls are chunked, so an already-issued problem seed is never
    /// re-derived — the property serving shards rely on when they seed
    /// request streams mid-cursor.
    problem_cursor: u64,
    /// Shards carved from this session so far (each gets its own seed
    /// lineage, so carved shards draw disjoint problem streams).
    shards_carved: u64,
    /// Report of the most recent solve through this session (parallel
    /// passes produce it from the final item's worker, so sequential and
    /// parallel sessions observe the same report stream).
    last_report: Option<RunReport>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The problem shape.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// Which backend kind is driving.
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// The backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The iteration budget per problem.
    pub fn max_iters(&self) -> usize {
        self.max_iters
    }

    /// The session's shared codebooks (derived from the master seed).
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// The shared codebook allocation itself, for layers (the service's
    /// request streams) that need an owning handle without copying.
    pub(crate) fn codebooks_shared(&self) -> Arc<[Codebook]> {
        Arc::clone(&self.codebooks)
    }

    /// The registry handle this session's codebooks are interned under.
    /// Resolving it touches the registry's LRU and returns the current
    /// hot-tier `Arc` (value-identical in any tier state).
    pub fn codebook_handle(&self) -> &CodebookHandle {
        &self.codebook_handle
    }

    /// Re-resolves the codebooks through the registry — one LRU touch,
    /// promoting the entry hot if it was demoted — and caches the result
    /// for the coming pass. Called once per solve pass so the whole pass
    /// runs against a single `Arc`.
    pub(crate) fn refresh_codebooks(&mut self) {
        self.codebooks = self.codebook_handle.resolve();
    }

    /// Direct access to the backend for specialized flows (explain-away,
    /// capacity sweeps, custom codebooks).
    pub fn backend_mut(&mut self) -> &mut dyn Backend {
        &mut *self.backend
    }

    /// Configured worker threads (`0` = all cores, `1` = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Statistics of the most recent solve through this session, in the
    /// common format.
    pub fn last_run_stats(&self) -> Option<RunReport> {
        self.last_report.clone()
    }

    /// The configured execution target.
    pub fn target_kind(&self) -> TargetKind {
        self.target
    }

    /// Generates `n` problems over the session codebooks, each from its
    /// own deterministic seed stream, and advances the problem cursor past
    /// them. `n == 0` yields an empty workload.
    ///
    /// Problem `k` of a session's lifetime is a pure function of
    /// `(session seed, k)` — **not** of how the stream was chunked into
    /// `generate` calls: `generate(2)` followed by `generate(3)` yields
    /// exactly the five problems of one `generate(5)`. This is what lets a
    /// serving shard pick its request stream up mid-cursor without ever
    /// re-deriving an already-issued problem seed.
    pub fn generate(&mut self, n: usize) -> Vec<BatchItem> {
        let items = self.generate_at(self.problem_cursor, n);
        self.problem_cursor += n as u64;
        items
    }

    /// Generates the `n` problems at cursors `[cursor, cursor + n)` of
    /// this session's problem stream without moving the session's own
    /// cursor — the random-access view of the stream [`Session::generate`]
    /// walks.
    pub fn generate_at(&self, cursor: u64, n: usize) -> Vec<BatchItem> {
        let master = derive_seed(self.seed, ns::PROBLEMS);
        (0..n)
            .map(|i| {
                let mut rng = stream_rng(master, cursor + i as u64);
                let p = FactorizationProblem::with_codebooks(&self.codebooks, &mut rng);
                BatchItem {
                    query: p.product().clone(),
                    truth: Some(p.true_indices().to_vec()),
                }
            })
            .collect()
    }

    /// The next problem-stream cursor [`Session::generate`] will issue.
    pub fn problem_cursor(&self) -> u64 {
        self.problem_cursor
    }

    /// Repositions the problem stream: the next [`Session::generate`]
    /// call starts at problem `cursor`. Seeking backwards replays the
    /// exact problems already issued at those cursors.
    pub fn seek_problems(&mut self, cursor: u64) {
        self.problem_cursor = cursor;
    }

    /// Carves a warmed shard off this session: a new [`Session`] with the
    /// same shape, knobs, and **shared codebooks** (the same `Arc`
    /// allocation, not a copy) but its own seed lineage — the shard's backend
    /// stochasticity and problem stream are disjoint from the parent's and
    /// from every other shard's, no matter how far any of their cursors
    /// advance. The service layer builds its pre-warmed shard pool this
    /// way; codebook generation is paid once, on the parent.
    pub fn carve_shard(&mut self) -> Session {
        self.carve_shard_as(self.kind)
    }

    /// [`Session::carve_shard`] with a different backend kind: the shard
    /// shares the parent's codebooks and seed lineage discipline but
    /// drives `kind`. Lets one parent warm a heterogeneous shard pool over
    /// identical codebooks.
    pub fn carve_shard_as(&mut self, kind: BackendKind) -> Session {
        let shard_seed = derive_seed(derive_seed(self.seed, ns::SHARDS), self.shards_carved);
        self.shards_carved += 1;
        let backend = kind.instantiate(
            self.target,
            self.spec,
            self.max_iters,
            derive_seed(shard_seed, ns::BACKEND),
            self.adc_bits,
            self.noise,
        );
        Session {
            spec: self.spec,
            kind,
            seed: shard_seed,
            max_iters: self.max_iters,
            adc_bits: self.adc_bits,
            noise: self.noise,
            threads: self.threads,
            target: self.target,
            codebook_handle: self.codebook_handle.clone(),
            codebooks: Arc::clone(&self.codebooks),
            backend,
            problem_cursor: 0,
            shards_carved: 0,
            last_report: None,
        }
    }

    /// Solves one caller-supplied problem (any codebooks of the right
    /// shape), recording stats on the backend.
    pub fn solve(&mut self, problem: &FactorizationProblem) -> FactorizationOutcome {
        let out = self.backend.factorize(problem);
        self.last_report = self.backend.last_run_stats();
        out
    }

    /// Solves an arbitrary (possibly noisy) query over caller-supplied
    /// codebooks.
    pub fn solve_query(
        &mut self,
        codebooks: &[Codebook],
        query: &BipolarVector,
        truth: Option<&[usize]>,
    ) -> FactorizationOutcome {
        let out = self.backend.factorize_query(codebooks, query, truth);
        self.last_report = self.backend.last_run_stats();
        out
    }

    /// Worker threads a batch of `n_items` will actually use.
    fn effective_threads(&self, n_items: usize) -> usize {
        executor::resolve_threads(self.threads).min(n_items.max(1))
    }

    /// A thread-safe constructor of engines identical to this session's
    /// backend (same constructor seed), for the parallel executor's
    /// per-worker engines. The service layer uses the same factories to
    /// give its micro-batch pool engines bit-identical to each shard's
    /// warmed backend.
    pub(crate) fn backend_factory(&self) -> impl Fn() -> Box<dyn Backend> + Send + Sync + 'static {
        let (kind, target, spec, max_iters, seed, adc_bits, noise) = (
            self.kind,
            self.target,
            self.spec,
            self.max_iters,
            derive_seed(self.seed, ns::BACKEND),
            self.adc_bits,
            self.noise,
        );
        move || kind.instantiate(target, spec, max_iters, seed, adc_bits, noise)
    }

    /// Solves `items` on the deterministic worker pool at the backend's
    /// current run cursor, advances the cursor past the batch, and records
    /// the final item's report — leaving the session in exactly the state
    /// a sequential pass over the same items would have left it in.
    fn solve_items_parallel(
        &mut self,
        items: &[BatchItem],
        threads: usize,
    ) -> Vec<executor::IndexedSolve> {
        let base = self.backend.run_cursor();
        let factory = self.backend_factory();
        let solves = executor::solve_indexed(&factory, &self.codebooks, items, base, threads);
        self.backend.seek_run(base + items.len() as u64);
        self.last_report = solves.last().and_then(|s| s.report.clone());
        solves
    }

    /// The workload counterpart of [`Session::solve_items_parallel`]:
    /// same cursor and report bookkeeping, but each item addresses one of
    /// the set's codebook groups.
    fn solve_groups_parallel(
        &mut self,
        groups: &[Vec<Codebook>],
        items: &[crate::workload::WorkloadItem],
        threads: usize,
    ) -> Vec<executor::IndexedSolve> {
        let base = self.backend.run_cursor();
        let factory = self.backend_factory();
        let solves = executor::solve_grouped(&factory, groups, items, base, threads);
        self.backend.seek_run(base + items.len() as u64);
        self.last_report = solves.last().and_then(|s| s.report.clone());
        solves
    }

    /// Sequential solve of `items`, one by one, at the backend's current
    /// run cursor; records the final item's report.
    fn solve_items_sequential(&mut self, items: &[BatchItem]) -> Vec<executor::IndexedSolve> {
        let solves = items
            .iter()
            .map(|item| {
                executor::solve_one(
                    self.backend.as_mut(),
                    &self.codebooks,
                    &item.query,
                    item.truth.as_deref(),
                )
            })
            .collect();
        self.last_report = self.backend.last_run_stats();
        solves
    }

    /// The workload counterpart of [`Session::solve_items_sequential`]:
    /// each item is solved against its own codebook group.
    fn solve_workload_sequential(&mut self, set: &WorkloadSet) -> Vec<executor::IndexedSolve> {
        let solves = set
            .items
            .iter()
            .map(|item| {
                executor::solve_one(
                    self.backend.as_mut(),
                    &set.groups[item.group],
                    &item.query,
                    item.truth.as_deref(),
                )
            })
            .collect();
        self.last_report = self.backend.last_run_stats();
        solves
    }

    /// Accumulates one per-item report's cost into the pass totals — the
    /// single definition of cost folding, shared by every item-order
    /// aggregation path.
    fn fold_cost(report: Option<RunReport>, energy: &mut Option<f64>, latency: &mut Option<f64>) {
        if let Some(report) = report {
            if let Some(e) = report.energy_j() {
                *energy.get_or_insert(0.0) += e;
            }
            if let Some(l) = report.latency_s {
                *latency.get_or_insert(0.0) += l;
            }
        }
    }

    /// Generates `n` fresh problems and solves them one by one,
    /// accumulating per-run cost into the report. The workload is
    /// identical to [`Session::run_batched`] at the same epoch.
    ///
    /// With [`SessionBuilder::threads`] above 1, items are solved on the
    /// deterministic worker pool; the report is bit-identical to the
    /// sequential run (energy/latency are accumulated in item order from
    /// the same per-item reports).
    pub fn run(&mut self, n: usize) -> SessionReport {
        self.refresh_codebooks();
        let items = self.generate(n);
        let threads = self.effective_threads(items.len());
        let mut outcomes = Vec::with_capacity(items.len());
        let mut energy = None;
        let mut latency = None;
        if threads > 1 && !items.is_empty() {
            for solve in self.solve_items_parallel(&items, threads) {
                Self::fold_cost(solve.report, &mut energy, &mut latency);
                outcomes.push(solve.outcome);
            }
        } else {
            for solve in self.solve_items_sequential(&items) {
                Self::fold_cost(solve.report, &mut energy, &mut latency);
                outcomes.push(solve.outcome);
            }
        }
        self.report_from(outcomes, energy, latency)
    }

    /// Generates `n` fresh problems and solves them through the backend's
    /// batch path (natively scheduled where supported). Cost totals come
    /// from the backend's post-batch report when it covers the batch
    /// (`native_batch` capability), otherwise they are omitted.
    ///
    /// With [`SessionBuilder::threads`] above 1, items are solved on the
    /// deterministic worker pool and the per-item reports are folded back
    /// into the backend's native batch roll-up
    /// ([`Backend::fold_batch_reports`]), so the report is bit-identical
    /// to the sequential batched run.
    pub fn run_batched(&mut self, n: usize) -> SessionReport {
        self.refresh_codebooks();
        let items = self.generate(n);
        if items.is_empty() {
            return self.report_from(Vec::new(), None, None);
        }
        let threads = self.effective_threads(items.len());
        let native = self.backend.capabilities().native_batch;
        // Cost totals may only come from a report that covers the WHOLE
        // batch: the sequential native roll-up, or a successful fold of
        // every per-item report. A native backend that cannot fold (no
        // `fold_batch_reports` override, or a worker without a report)
        // must omit cost rather than silently report one item's.
        let (outcomes, batch_report_valid) = if threads > 1 {
            let solves = self.solve_items_parallel(&items, threads);
            let reports: Vec<RunReport> = solves.iter().filter_map(|s| s.report.clone()).collect();
            // Sized up front, as in `run`: collecting straight from the
            // `IndexedSolve` vector would reuse its larger allocation, and
            // callers that keep parts of the outcomes would pin it.
            let mut outcomes = Vec::with_capacity(items.len());
            outcomes.extend(solves.into_iter().map(|s| s.outcome));
            let folded =
                native && reports.len() == items.len() && self.backend.fold_batch_reports(&reports);
            if folded {
                self.last_report = self.backend.last_run_stats();
            }
            (outcomes, folded)
        } else {
            let batch = self.backend.factorize_batch(&self.codebooks, &items);
            self.last_report = self.backend.last_run_stats();
            (batch.outcomes, native)
        };
        let (mut energy, mut latency) = (None, None);
        if batch_report_valid {
            if let Some(report) = &self.last_report {
                energy = report.energy_j();
                latency = report.latency_s;
            }
        }
        self.report_from(outcomes, energy, latency)
    }

    /// Runs `n` units of `workload` through this session's backend and
    /// worker pool: queries are generated up front (deterministically, per
    /// item), solved exactly like a [`Session::run`] batch — bit-identical
    /// between `threads(1)` and `threads(N)` — and handed back to the
    /// workload for scoring. Returns the workload's score on top of the
    /// standard session statistics.
    ///
    /// # Panics
    ///
    /// Panics if the workload's [`Workload::spec`] differs from the
    /// session's, or the generated set is inconsistent.
    pub fn run_workload(&mut self, workload: &mut dyn Workload, n: usize) -> WorkloadReport {
        assert_eq!(
            workload.spec(),
            self.spec,
            "workload shape must match the session spec"
        );
        let set = workload.generate(n);
        set.validate(self.spec);
        let threads = self.effective_threads(set.items.len());
        let mut outcomes = Vec::with_capacity(set.items.len());
        let mut energy = None;
        let mut latency = None;
        if threads > 1 && !set.items.is_empty() {
            for solve in self.solve_groups_parallel(&set.groups, &set.items, threads) {
                Self::fold_cost(solve.report, &mut energy, &mut latency);
                outcomes.push(solve.outcome);
            }
        } else {
            for solve in self.solve_workload_sequential(&set) {
                Self::fold_cost(solve.report, &mut energy, &mut latency);
                outcomes.push(solve.outcome);
            }
        }
        let score = workload.score(&set, &outcomes);
        WorkloadReport {
            workload: workload.name().to_string(),
            units: set.units,
            score: score.score,
            metrics: score.metrics,
            session: self.report_from(outcomes, energy, latency),
        }
    }

    fn report_from(
        &self,
        outcomes: Vec<FactorizationOutcome>,
        total_energy_j: Option<f64>,
        total_latency_s: Option<f64>,
    ) -> SessionReport {
        // One definition of solved-iteration aggregation, shared with
        // every batch path.
        let batch = BatchOutcome::from_outcomes(outcomes);
        SessionReport {
            backend: self.backend.name(),
            problems: batch.len(),
            solved: batch.iterations.count(),
            total_iterations: batch.total_iterations(),
            iterations: batch.iterations,
            total_energy_j,
            total_latency_s,
            outcomes: batch.outcomes,
        }
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("spec", &self.spec)
            .field("backend", &self.kind)
            .field("seed", &self.seed)
            .field("max_iters", &self.max_iters)
            .field("problem_cursor", &self.problem_cursor)
            .finish()
    }
}

/// Steal events of the deterministic parallel executor since process
/// start, across every pass (monotone, process-global). A steal happens
/// when a worker's own item deque drains and it takes the back half of
/// another worker's — the signature of ragged item retirement being
/// rebalanced. Observability only (the bench harness records it next to
/// the per-thread scaling curve); scheduling never reads it, and steal
/// timing cannot reach outcomes — every item re-seeds its engine from
/// its own cursor, so `threads(N) ≡ threads(1)` holds under any
/// interleaving.
pub fn executor_steal_events() -> u64 {
    crate::executor::steal_events()
}
