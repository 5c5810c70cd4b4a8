//! The solve workloads (`batch-grid`, `analog-h3d`): in-process
//! `Session::run_batched` calls of a few problems each, sharing the
//! window equally among the workload's cells at a pinned thread count.
//! No sockets or timers.

use std::sync::Arc;
use std::time::{Duration, Instant};

use h3dfact::prelude::*;
use h3dfact::session::executor_steal_events;

use crate::layers::{self, ResonatorTally};
use crate::{digest, percentile, Args, Cell, Report, SetupTimer, DIGEST_BASIS};

/// Session worker threads (pinned; never derived from the host).
const THREADS: usize = 2;

/// Codebook seed of cell `i`'s fixture. Codebooks are part of the
/// fixture, like the serving fixture's: `--seed` picks the problems and
/// the engines' noise streams, not the codebooks, so a run's speed does
/// not hinge on how hard one random codebook draw happens to be.
fn fixture_seed(i: usize) -> u64 {
    0x5E70 + i as u64
}

/// The measured sessions: fixture codebooks, with the problem stream and
/// the engine run cursor both moved to a `--seed`-owned range.
fn measured_session(
    cell: &Cell,
    i: usize,
    seed: u64,
    threads: usize,
    registry: &Arc<CodebookRegistry>,
) -> Session {
    let mut s = cell.session(fixture_seed(i), threads, registry);
    let cursor = seed << 32;
    s.seek_problems(cursor);
    s.backend_mut().seek_run(cursor);
    s
}

/// One cold set-up: a private registry (so codebooks intern afresh),
/// every cell's session, and one warm-up solve per cell.
fn setup_once(cells: &[Cell]) -> f64 {
    let start = Instant::now();
    let registry = Arc::new(CodebookRegistry::new());
    for (i, cell) in cells.iter().enumerate() {
        let mut s = cell.session(fixture_seed(i), THREADS, &registry);
        std::hint::black_box(s.run_batched(1));
    }
    start.elapsed().as_secs_f64()
}

/// One cell's share of the measured window.
#[derive(Default)]
struct CellRun {
    busy_s: f64,
    call_ms: Vec<f64>,
    problems: usize,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

/// What one `run_batched` call returned, kept for the post-window checks.
/// Each cell's calls are deterministic in order (the cell schedule is
/// not), so digests roll per cell.
struct Call {
    cell: usize,
    cursor: u64,
    decoded: Vec<Vec<usize>>,
    solved: Vec<bool>,
    digest: u64,
}

/// Folds one call's outcomes (and, on the analog engine, its modelled
/// cost totals) into the rolling digest.
fn call_digest(prev: u64, report: &SessionReport) -> u64 {
    let mut h = prev;
    for o in &report.outcomes {
        h = digest(
            h,
            o.decoded
                .iter()
                .map(|&d| d as u64)
                .chain([o.iterations as u64, u64::from(o.solved)]),
        );
    }
    digest(
        h,
        [
            report.total_energy_j.map_or(0, f64::to_bits),
            report.total_latency_s.map_or(0, f64::to_bits),
        ],
    )
}

/// Runs `run_batched(batch)` calls over `cells` for the window.
pub fn run(args: &Args, cells: &[Cell], batch: usize, report: &mut Report) {
    let mut setup = SetupTimer::start(|| setup_once(cells));

    let registry = Arc::new(CodebookRegistry::new());
    let mut sessions: Vec<Session> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| measured_session(c, i, args.seed, THREADS, &registry))
        .collect();

    let mut calls: Vec<Call> = Vec::new();
    let mut per_cell: Vec<CellRun> = cells.iter().map(|_| CellRun::default()).collect();
    let mut tally = ResonatorTally::default();
    let (mut energy_j, mut latency_s, mut modelled) = (0.0f64, 0.0f64, 0usize);
    let mut h = vec![DIGEST_BASIS; cells.len()];
    let steals_before = executor_steal_events();
    let window = args.window();
    let start = Instant::now();
    let mut last_setup = start;
    // Equal time per cell: the next call goes to the cell that has run
    // least so far, so a slow cell cannot crowd the others out. Set-up
    // samples between calls count toward no cell's time.
    while start.elapsed() < window {
        if last_setup.elapsed() >= Duration::from_secs(1) {
            setup.sample();
            last_setup = Instant::now();
        }
        let i = (0..cells.len())
            .min_by(|&a, &b| per_cell[a].busy_s.total_cmp(&per_cell[b].busy_s))
            .expect("at least one cell");
        let s = &mut sessions[i];
        let cursor = s.problem_cursor();
        let t = Instant::now();
        let r = s.run_batched(batch);
        let dt = t.elapsed().as_secs_f64();
        per_cell[i].busy_s += dt;
        per_cell[i].call_ms.push(dt * 1e3);
        per_cell[i].problems += r.problems;
        if let (Some(e), Some(l)) = (r.total_energy_j, r.total_latency_s) {
            energy_j += e;
            latency_s += l;
            modelled += r.problems;
        }
        if args.trace {
            tally.add_all(&r.outcomes);
        }
        h[i] = call_digest(h[i], &r);
        calls.push(Call {
            cell: i,
            cursor,
            solved: r.outcomes.iter().map(|o| o.solved).collect(),
            decoded: r.outcomes.into_iter().map(|o| o.decoded).collect(),
            digest: h[i],
        });
    }
    let steals = executor_steal_events() - steals_before;
    report.metric("peak_rss_mb", crate::peak_rss_mb(), "MB");

    // Ground truth is regenerated from the problem stream (pure in the
    // cursor), outside the measured window.
    let problems = calls.len() * batch;
    // A problem reported solved with a wrong decode is a wrong answer.
    let (mut correct, mut wrong) = (0usize, 0usize);
    for call in &calls {
        let truth = sessions[call.cell].generate_at(call.cursor, batch);
        for ((d, &solved), t) in call.decoded.iter().zip(&call.solved).zip(&truth) {
            let right = t.truth.as_deref() == Some(d.as_slice());
            correct += usize::from(right);
            wrong += usize::from(solved && !right);
        }
    }
    report.attempted = problems as u64;
    report.failed = wrong as u64;
    report.digests = (0..cells.len())
        .map(|i| {
            calls
                .iter()
                .filter(|c| c.cell == i)
                .map(|c| c.digest)
                .collect()
        })
        .collect();

    // Each cell weighs the same: per-cell figures, geometric mean.
    let geo = |f: &dyn Fn(&CellRun) -> f64| geomean(per_cell.iter().map(f));
    report.metric("req_p50_ms", geo(&|c| percentile(&c.call_ms, 500)), "ms");
    report.metric("req_p95_ms", geo(&|c| percentile(&c.call_ms, 950)), "ms");
    report.metric("req_p99_ms", geo(&|c| percentile(&c.call_ms, 990)), "ms");
    report.metric(
        "throughput_rps",
        geo(&|c| c.call_ms.len() as f64 / c.busy_s),
        "1/s",
    );
    report.metric(
        "solves_per_s",
        geo(&|c| c.problems as f64 / c.busy_s),
        "1/s",
    );
    report.metric(
        "solved_rate",
        correct as f64 / problems.max(1) as f64,
        "ratio",
    );
    report.metric("ok_share", 1.0, "ratio");
    if modelled > 0 {
        report.metric(
            "sim_energy_nj_per_solve",
            energy_j * 1e9 / modelled as f64,
            "nJ",
        );
        report.metric(
            "sim_latency_us_per_solve",
            latency_s * 1e6 / modelled as f64,
            "us",
        );
    }
    for (cell, run) in cells.iter().zip(&per_cell) {
        report.info(
            &format!("cell.{}", cell.label()),
            format!(
                "calls {} solves/s {:.1} p50 {:.3} ms p99 {:.3} ms",
                run.call_ms.len(),
                run.problems as f64 / run.busy_s,
                percentile(&run.call_ms, 500),
                percentile(&run.call_ms, 990)
            ),
        );
    }
    report.info("batch", batch);
    report.info("threads", THREADS);

    check_thread_invariance(args, cells, batch, &calls, report);
    setup.finish(report);

    if args.trace {
        let all_ms: Vec<f64> = per_cell
            .iter()
            .flat_map(|c| c.call_ms.iter().copied())
            .collect();
        report.metric("session.call_ms", crate::mean(&all_ms), "ms");
        report.metric("executor.steal_events", steals as f64, "count");
        tally.report(report);
        let reg = registry.stats();
        report.metric("registry.hot_hit_rate", reg.hot_hit_rate(), "ratio");
        report.metric(
            "registry.resident_bytes",
            reg.resident_bytes() as f64,
            "bytes",
        );
        layers::probe_cells(cells, args.seed, report);
        crate::serve::probe(&cells[0], args.seed, report);
    }
}

/// The determinism contract at the benchmark's thread count: the first
/// calls re-run on fresh single-threaded sessions must reproduce the
/// measured digests bit for bit.
fn check_thread_invariance(
    args: &Args,
    cells: &[Cell],
    batch: usize,
    calls: &[Call],
    report: &mut Report,
) {
    let registry = Arc::new(CodebookRegistry::new());
    let mut sessions: Vec<Session> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| measured_session(c, i, args.seed, 1, &registry))
        .collect();
    let budget = Duration::from_secs_f64((args.seconds * 0.05).clamp(0.2, 2.0));
    let start = Instant::now();
    let mut h = vec![DIGEST_BASIS; cells.len()];
    let mut checked = 0usize;
    for call in calls {
        if start.elapsed() >= budget && checked >= cells.len() {
            break;
        }
        let i = call.cell;
        h[i] = call_digest(h[i], &sessions[i].run_batched(batch));
        if h[i] != call.digest {
            report.check(
                "threads_invariant",
                false,
                format!("call {checked} differs between threads({THREADS}) and threads(1)"),
            );
            return;
        }
        checked += 1;
    }
    report.check(
        "threads_invariant",
        checked > 0,
        format!("{checked} calls identical at threads({THREADS}) and threads(1)"),
    );
}
