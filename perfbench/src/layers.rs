//! Per-layer measurement from outside: resonator tallies over the
//! outcomes a run produced, and probes that time calls into each
//! layer's public functions at a workload's shapes after its measured
//! window.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use h3dfact::cim::{Crossbar, Fidelity, NoiseSpec};
use h3dfact::hdc::dispatch;
use h3dfact::prelude::*;
use h3dfact::session::executor_steal_events;
use h3dfact::wire::{decode_body, Frame};

use crate::{digest, Cell, Report, DIGEST_BASIS};

/// Resonator-level facts folded over a run's outcomes.
#[derive(Debug, Default)]
pub struct ResonatorTally {
    solves: u64,
    iterations: u64,
    wasted: u64,
    limit_cycles: u64,
    degenerate: u64,
    unbind: Duration,
    similarity: Duration,
    projection: Duration,
    other: Duration,
}

impl ResonatorTally {
    pub fn add_all<'a>(&mut self, outcomes: impl IntoIterator<Item = &'a FactorizationOutcome>) {
        for o in outcomes {
            self.solves += 1;
            self.iterations += o.iterations as u64;
            if !o.solved {
                self.wasted += o.iterations as u64;
            }
            self.limit_cycles += u64::from(o.cycle.is_some());
            self.degenerate += o.degenerate_events as u64;
            self.unbind += o.times.unbind;
            self.similarity += o.times.similarity;
            self.projection += o.times.projection;
            self.other += o.times.other;
        }
    }

    fn host(&self) -> Duration {
        self.unbind + self.similarity + self.projection + self.other
    }

    pub fn report(&self, report: &mut Report) {
        let host = self.host().as_secs_f64();
        let iters = self.iterations.max(1) as f64;
        report.metric(
            "resonator.iters_per_solve",
            self.iterations as f64 / self.solves.max(1) as f64,
            "count",
        );
        report.metric("resonator.host_us_per_iter", host * 1e6 / iters, "us");
        let shares = [
            ("resonator.unbind_share", self.unbind),
            ("resonator.similarity_share", self.similarity),
            ("resonator.projection_share", self.projection),
            ("resonator.other_share", self.other),
        ];
        let mut sum = 0.0;
        for (name, t) in shares {
            let share = t.as_secs_f64() / host.max(f64::MIN_POSITIVE);
            sum += share;
            report.metric(name, share, "ratio");
        }
        report.check(
            "phase_shares_sum_to_one",
            (sum - 1.0).abs() < 1e-9,
            format!("shares sum to {sum:.12}"),
        );
        report.metric(
            "resonator.wasted_iter_share",
            self.wasted as f64 / iters,
            "ratio",
        );
        report.metric("resonator.limit_cycles", self.limit_cycles as f64, "count");
        report.metric(
            "resonator.degenerate_events",
            self.degenerate as f64,
            "count",
        );
    }

    /// `iters × host time per iteration` must account for the wall time
    /// of a serial pass over the same solves.
    pub fn check_wall(&self, wall_s: f64, report: &mut Report) {
        let ratio = self.host().as_secs_f64() / wall_s.max(f64::MIN_POSITIVE);
        report.check(
            "iters_times_host_per_iter_matches_wall",
            (0.7..=1.02).contains(&ratio),
            format!("phase time / serial wall = {ratio:.3}"),
        );
    }
}

/// Calls `op` until at least `min` has passed; returns ns per call.
fn ns_per_call(min: Duration, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < min {
        for _ in 0..16 {
            op();
        }
        calls += 16;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

const PROBE: Duration = Duration::from_millis(20);

/// Every probe at one cell, as `(metric, value, unit)`.
fn probe_cell(
    cell: &Cell,
    seed: u64,
    report: &mut Report,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut session = cell.session(seed, 1, &Arc::new(CodebookRegistry::new()));
    let books: Vec<Codebook> = session.codebooks().to_vec();
    let item = session.generate(1).pop().expect("one problem");
    let query = item.query.clone();
    let mut out = Vec::new();

    // wire: one request frame of this shape.
    let frame = Frame::Request {
        tag: 1,
        tenant: "tenant-0".into(),
        backend: cell.kind,
        query: query.clone(),
        truth: item
            .truth
            .as_ref()
            .map(|t| t.iter().map(|&i| i as u32).collect()),
        deadline_us: None,
    };
    let bytes = frame.encode();
    out.push((
        "wire.encode_ns",
        ns_per_call(PROBE, || drop(black_box(frame.encode()))),
        "ns",
    ));
    out.push((
        "wire.decode_ns",
        ns_per_call(PROBE, || drop(black_box(decode_body(&bytes[4..])))),
        "ns",
    ));
    out.push(("wire.frame_bytes", bytes.len() as f64, "bytes"));

    // registry: cold intern into a fresh registry, hot resolve.
    let mut interned = 0u32;
    let mut intern_time = Duration::ZERO;
    while intern_time < PROBE {
        let fresh: Vec<_> = (0..16)
            .map(|_| (Arc::new(CodebookRegistry::new()), books.clone()))
            .collect();
        let t = Instant::now();
        for (registry, copy) in fresh {
            black_box(CodebookRegistry::intern(&registry, copy));
        }
        intern_time += t.elapsed();
        interned += 16;
    }
    out.push((
        "registry.intern_us",
        intern_time.as_secs_f64() * 1e6 / f64::from(interned),
        "us",
    ));
    let handle = session.codebook_handle().clone();
    out.push((
        "registry.resolve_ns",
        ns_per_call(PROBE, || drop(black_box(handle.resolve()))),
        "ns",
    ));

    // hdc: the packed kernels on factor 0's codebook.
    let packed = books[0].packed();
    let mut sims = vec![0.0f64; books[0].len()];
    let mut sums = vec![0.0f64; books[0].dim()];
    out.push((
        "hdc.similarity_ns",
        ns_per_call(PROBE, || {
            packed.similarities_into(black_box(&query), &mut sims)
        }),
        "ns",
    ));
    let weights = sims.clone();
    out.push((
        "hdc.projection_ns",
        ns_per_call(PROBE, || {
            packed.weighted_sums_into(black_box(&weights), &mut sums)
        }),
        "ns",
    ));
    let other = books[1].vector(0).clone();
    out.push((
        "hdc.bind_ns",
        ns_per_call(PROBE, || drop(black_box(query.bind(&other)))),
        "ns",
    ));

    // cim: one RRAM crossbar of this codebook, chip-calibrated noise.
    let program_ns = ns_per_call(PROBE, || {
        drop(black_box(Crossbar::program(
            &books[0],
            NoiseSpec::chip_40nm(),
            Fidelity::Column,
            seed,
        )))
    });
    out.push(("cim.program_us", program_ns / 1e3, "us"));
    let mut xbar = Crossbar::program(&books[0], NoiseSpec::chip_40nm(), Fidelity::Column, seed);
    out.push((
        "cim.mvm_bipolar_us",
        ns_per_call(PROBE, || {
            xbar.try_mvm_bipolar_into(&query, &mut sims)
                .expect("crossbar is powered")
        }) / 1e3,
        "us",
    ));
    out.push((
        "cim.mvm_weighted_us",
        ns_per_call(PROBE, || {
            xbar.try_mvm_weighted_into(&weights, &mut sums)
                .expect("crossbar is powered")
        }) / 1e3,
        "us",
    ));

    // backend: serial `Session::solve` calls; their phase times must
    // account for the wall time.
    let mut tally = ResonatorTally::default();
    let (mut wall, mut solves) = (Duration::ZERO, 0u32);
    let mut rng = h3dfact::hdc::rng::rng_from_seed(seed);
    while solves < 8 || (wall < Duration::from_millis(100) && solves < 256) {
        let problem = FactorizationProblem::with_codebooks(&books, &mut rng);
        let t = Instant::now();
        let outcome = session.solve(&problem);
        wall += t.elapsed();
        solves += 1;
        tally.add_all([&outcome]);
    }
    out.push((
        "backend.solve_us",
        wall.as_secs_f64() * 1e6 / f64::from(solves),
        "us",
    ));
    tally.check_wall(wall.as_secs_f64(), report);

    // cim ADC and core cycle counts: the device-accurate engine at this
    // shape, whatever engine the workload itself runs.
    let mut h3d = Cell {
        kind: BackendKind::H3dFact,
        ..*cell
    }
    .session(seed, 1, &Arc::new(CodebookRegistry::new()));
    let (mut adc, mut cycles, mut switches) = (0u64, 0u64, 0u64);
    const H3D_SOLVES: u64 = 4;
    for _ in 0..H3D_SOLVES {
        let problem = FactorizationProblem::with_codebooks(&books, &mut rng);
        h3d.solve(&problem);
        let run = h3d
            .last_run_stats()
            .expect("the H3DFact engine reports every run");
        adc += run.adc_conversions.unwrap_or(0);
        cycles += run.cycles.unwrap_or(0);
        switches += run.tier_switches.unwrap_or(0);
    }
    let per_solve = |n: u64| n as f64 / H3D_SOLVES as f64;
    out.push(("cim.adc_conversions_per_solve", per_solve(adc), "count"));
    out.push(("core.cycles_per_solve", per_solve(cycles), "count"));
    out.push(("core.tier_switches_per_solve", per_solve(switches), "count"));

    // executor: the same batch at threads(2) and threads(1).
    let (t1, d1) = timed_batches(cell, seed, 1);
    let (t2, d2) = timed_batches(cell, seed, 2);
    report.check(
        "executor_threads_invariant",
        d1 == d2,
        format!("{}: threads(2) and threads(1) digests", cell.label()),
    );
    out.push(("executor.speedup_2v1", t1 / t2, "x"));
    out
}

/// Four 16-problem `run_batched` calls at `threads`; wall seconds and
/// the outcome digest.
fn timed_batches(cell: &Cell, seed: u64, threads: usize) -> (f64, u64) {
    let mut s = cell.session(seed, threads, &Arc::new(CodebookRegistry::new()));
    let start = Instant::now();
    let mut h = DIGEST_BASIS;
    for _ in 0..4 {
        for o in s.run_batched(16).outcomes {
            h = digest(
                h,
                o.decoded
                    .iter()
                    .map(|&d| d as u64)
                    .chain([o.iterations as u64]),
            );
        }
    }
    (start.elapsed().as_secs_f64(), h)
}

/// Runs every probe at each cell and reports the mean over cells (the
/// per-cell values go to the info block).
pub fn probe_cells(cells: &[Cell], seed: u64, report: &mut Report) {
    let per_cell: Vec<Vec<(&'static str, f64, &'static str)>> =
        cells.iter().map(|c| probe_cell(c, seed, report)).collect();
    for (k, &(name, _, unit)) in per_cell[0].iter().enumerate() {
        let values: Vec<f64> = per_cell.iter().map(|p| p[k].1).collect();
        report.metric(name, crate::mean(&values), unit);
        if cells.len() > 1 {
            let detail: Vec<String> = cells
                .iter()
                .zip(&values)
                .map(|(c, v)| format!("{}={v:.4}", c.label()))
                .collect();
            report.info(name, detail.join(" "));
        }
    }
    report.info("hdc.dispatch_arm", dispatch::detection().arm.name());
}

/// `session.call_ms` and `executor.steal_events` for the serve
/// workloads, which have no session calls of their own: `run_batched`
/// calls of one micro-batch at the service's thread count.
pub fn session_call_probe(cell: &Cell, seed: u64, report: &mut Report) {
    let mut s = cell.session(seed, 2, &Arc::new(CodebookRegistry::new()));
    let steals = executor_steal_events();
    let mut call_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(300) {
        let t = Instant::now();
        black_box(s.run_batched(8));
        call_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("session.call_ms", crate::mean(&call_ms), "ms");
    report.metric(
        "executor.steal_events",
        (executor_steal_events() - steals) as f64,
        "count",
    );
}
