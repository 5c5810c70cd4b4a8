//! One benchmark process: runs a single workload for a fixed time and
//! prints one JSON line with every metric it measured, the correctness
//! verdict, and provenance. `run.py` drives it (build, traced/untraced
//! pairs, k-run summaries); the binary itself is usable on its own:
//!
//! ```sh
//! perfbench --workload serve-closed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Untraced runs time only what the end-to-end metrics need. Traced runs
//! do the same measured work, additionally fold every call's outcomes and
//! cost reports into per-layer tallies, read the server's STATS, and after
//! the measured window time calls into each layer's public functions at
//! the workload's shapes.

mod layers;
mod serve;
mod solve;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use h3dfact::prelude::*;

/// One problem shape and engine the benchmark solves on.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub spec: ProblemSpec,
    pub kind: BackendKind,
    /// Iteration budget per problem.
    pub budget: usize,
}

impl Cell {
    const fn new(kind: BackendKind, m: usize, budget: usize) -> Self {
        Cell {
            spec: ProblemSpec {
                factors: 3,
                codebook_size: m,
                dim: 256,
            },
            kind,
            budget,
        }
    }

    /// A session of this cell on `registry`.
    pub fn session(&self, seed: u64, threads: usize, registry: &Arc<CodebookRegistry>) -> Session {
        Session::builder()
            .spec(self.spec)
            .backend(self.kind)
            .seed(seed)
            .max_iters(self.budget)
            .threads(threads)
            .registry(Arc::clone(registry))
            .build()
    }

    fn label(&self) -> String {
        format!(
            "{}/{}x{}x{}",
            self.kind.name(),
            self.spec.factors,
            self.spec.codebook_size,
            self.spec.dim
        )
    }
}

/// The standard serving fixture: 3×8×256 on the stochastic software
/// model with the serving budget.
pub const SERVE_CELL: Cell = Cell::new(BackendKind::Stochastic, 8, 500);

/// The paper's Table II grid at the hardware dimension, with the
/// iteration budgets `table2_accuracy` uses.
pub const GRID_CELLS: [Cell; 3] = [
    Cell::new(BackendKind::Stochastic, 16, 3_000),
    Cell::new(BackendKind::Stochastic, 32, 5_000),
    Cell::new(BackendKind::Stochastic, 64, 8_000),
];

/// The device-accurate H3DFact engine at the two smaller grid shapes.
pub const ANALOG_CELLS: [Cell; 2] = [
    Cell::new(BackendKind::H3dFact, 16, 3_000),
    Cell::new(BackendKind::H3dFact, 32, 5_000),
];

/// Cold set-ups timed in each of a run's two set-up rounds; `setup_s`
/// is the median of all its samples.
const SETUP_REPEATS: usize = 8;

/// Set-ups repeated and discarded before the first round: a fresh
/// process's first set-ups run up to 1.6× slower while the CPU ramps up.
const SETUP_WARMUP: Duration = Duration::from_millis(500);

/// Times repeated cold set-ups. A run takes one round before its
/// measured window and one after it, and a solve run one more sample per
/// second inside the window, so `setup_s` does not hang on the host's
/// speed during one few-millisecond stretch (on a shared 2-vCPU host it
/// drifts ±15% over seconds).
pub struct SetupTimer<F: FnMut() -> f64> {
    setup_once: F,
    samples: Vec<f64>,
}

impl<F: FnMut() -> f64> SetupTimer<F> {
    /// Warms up, then takes the first round.
    pub fn start(mut setup_once: F) -> Self {
        let warm = std::time::Instant::now();
        while warm.elapsed() < SETUP_WARMUP {
            setup_once();
        }
        let samples = (0..SETUP_REPEATS).map(|_| setup_once()).collect();
        SetupTimer {
            setup_once,
            samples,
        }
    }

    /// Takes one more sample.
    pub fn sample(&mut self) {
        self.samples.push((self.setup_once)());
    }

    /// Takes the last round and reports `setup_s`.
    pub fn finish(mut self, report: &mut Report) {
        for _ in 0..SETUP_REPEATS {
            self.sample();
        }
        report.metric("setup_s", median(&self.samples), "s");
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => args.trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    checks: Vec<(String, bool, String)>,
    info: Vec<(String, String)>,
    /// Work items attempted in the measured window.
    pub attempted: u64,
    /// Work items that did not produce a correct answer.
    pub failed: u64,
    /// Rolling outcome digests, one list per deterministic call stream
    /// (a solve cell) with one entry per completed call, for the traced ≡
    /// untraced comparison.
    pub digests: Vec<Vec<u64>>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a correctness check; any failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        s.push_str("}, \"checks\": [");
        for (i, (name, ok, detail)) in self.checks.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}{{\"name\": \"{name}\", \"ok\": {ok}, \"detail\": \"{}\"}}",
                json_escape(detail)
            );
        }
        s.push_str("], \"info\": {");
        for (i, (key, value)) in self.info.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{key}\": \"{}\"", json_escape(value));
        }
        s.push_str("}, \"digests\": [");
        for (i, stream) in self.digests.iter().enumerate() {
            s.push_str(if i == 0 { "[" } else { ", [" });
            for (j, d) in stream.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(s, "{sep}\"{d:016x}\"");
            }
            s.push(']');
        }
        s.push_str("]}");
        s
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Nearest-rank percentile (integer per-mille rank) of an unsorted
/// sample; 0 for an empty sample.
pub fn percentile(sample: &[f64], permille: usize) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (permille * sorted.len()).div_ceil(1000).max(1);
    sorted[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 500)
}

/// Mean of a sample; 0 when empty.
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Peak resident set size of this process, MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a step over 64-bit words: the rolling outcome digest.
pub fn digest(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Digest seed (the FNV offset basis).
pub const DIGEST_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn provenance(report: &mut Report, args: &Args) {
    let d = h3dfact::hdc::dispatch::detection();
    report.info("workload", &args.workload);
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", u8::from(args.trace));
    report.info(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    report.info("dispatch_arm", d.arm.name());
    report.info(
        "compiled_features",
        format!(
            "popcnt={} avx2={} avx512f={} avx512vpopcntdq={}",
            cfg!(target_feature = "popcnt"),
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "avx512f"),
            cfg!(target_feature = "avx512vpopcntdq"),
        ),
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    provenance(&mut report, &args);
    match args.workload.as_str() {
        "serve-closed" => serve::closed(&args, &mut report),
        "serve-open" => serve::open(&args, &mut report),
        // Eight problems make two lockstep chunks of four on the software
        // engines. The analog engine has no lockstep path, so two problems
        // (one per thread) keep its calls short and numerous enough for
        // tail percentiles well clear of the rare budget-exhausting solve.
        "batch-grid" => solve::run(&args, &GRID_CELLS, 8, &mut report),
        "analog-h3d" => solve::run(&args, &ANALOG_CELLS, 2, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
