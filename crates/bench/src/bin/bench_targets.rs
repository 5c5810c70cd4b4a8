//! Cross-target cost harness: runs the same problem set through both
//! execution targets — functional (the engines themselves) and the
//! approximate tiled hardware co-simulation (IR drop + per-iteration
//! thermal stepping) — and splices a `"targets"` cost block into
//! `BENCH_kernels.json` so the kernel perf record also carries the
//! cross-target cost picture.
//!
//! ```sh
//! cargo run --release -p h3dfact_bench --bin bench_targets            # full
//! cargo run --release -p h3dfact_bench --bin bench_targets -- --quick # CI smoke
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use h3dfact::prelude::*;

/// One measured (backend, target) pairing.
struct Row {
    backend: &'static str,
    target: &'static str,
    solved: usize,
    iterations: usize,
    energy_j: Option<f64>,
    cycles: Option<u64>,
    wall_s: f64,
    /// Approximate tiled target only.
    peak_temp_c: Option<f64>,
}

fn run_pair(kind: BackendKind, target: TargetKind, n: usize, max_iters: usize) -> Row {
    let mut session = Session::builder()
        .spec(ProblemSpec::new(3, 8, 256))
        .backend(kind)
        .seed(70)
        .max_iters(max_iters)
        .target(target)
        .build();
    let t0 = Instant::now();
    let report = session.run(n);
    let wall_s = t0.elapsed().as_secs_f64();
    let last = session.last_run_stats().expect("sessions report each run");
    Row {
        backend: kind.name(),
        target: target.name(),
        solved: report.solved,
        iterations: report.total_iterations,
        energy_j: report.total_energy_j,
        cycles: last.cycles,
        wall_s,
        peak_temp_c: last.peak_temp_c,
    }
}

/// Splices `block` in as the last top-level key of `BENCH_kernels.json`,
/// replacing any previous `"targets"` block (the file's other keys are
/// owned by `bench_kernels`).
fn splice_into_kernels_json(block: &str) {
    let mut base = std::fs::read_to_string("BENCH_kernels.json")
        .unwrap_or_else(|_| "{\n  \"bench\": \"kernels_packed\"\n}\n".to_string());
    if let Some(i) = base.find(",\n  \"targets\":") {
        base.truncate(i);
        base.push_str("\n}\n");
    }
    let body = base
        .trim_end()
        .strip_suffix('}')
        .expect("BENCH_kernels.json must be a JSON object")
        .trim_end()
        .to_string();
    let mut out = body;
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push('\n');
    out.push_str(block);
    out.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &out).expect("write BENCH_kernels.json");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, max_iters) = if quick { (4, 500) } else { (16, 1_000) };

    // The functional engines next to the approximate tiled co-simulation
    // on the analog pair.
    let pairs = [
        (BackendKind::H3dFact, TargetKind::Functional),
        (BackendKind::H3dFact, TargetKind::ApproxTiled),
        (BackendKind::Hybrid2d, TargetKind::ApproxTiled),
        (BackendKind::Pcm, TargetKind::Functional),
    ];
    let rows: Vec<Row> = pairs
        .iter()
        .map(|&(kind, target)| run_pair(kind, target, n, max_iters))
        .collect();

    let fmt_opt_f = |v: Option<f64>| v.map(|x| format!("{x:.6e}")).unwrap_or("null".into());
    let fmt_opt_u = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or("null".into());
    let mut block = String::new();
    let _ = writeln!(block, "  \"targets\": {{");
    let _ = writeln!(block, "    \"quick\": {quick},");
    let _ = writeln!(
        block,
        "    \"spec\": {{\"factors\": 3, \"codebook_size\": 8, \"dim\": 256}},"
    );
    let _ = writeln!(block, "    \"problems\": {n},");
    // `solved`/`iterations`/`energy_j` aggregate the whole session;
    // `cycles`/`peak_temp_c` are the final run's RunReport.
    let _ = writeln!(
        block,
        "    \"cost_fields_scope\": \"last_run (cycles, peak_temp_c)\","
    );
    let _ = writeln!(block, "    \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let extras = r
            .peak_temp_c
            .map(|t| format!(", \"peak_temp_c\": {t:.3}"))
            .unwrap_or_default();
        let _ = writeln!(
            block,
            "      {{\"backend\": \"{}\", \"target\": \"{}\", \"solved\": {}, \
             \"iterations\": {}, \"energy_j\": {}, \"cycles\": {}, \
             \"wall_s\": {:.4}{extras}}}{comma}",
            r.backend,
            r.target,
            r.solved,
            r.iterations,
            fmt_opt_f(r.energy_j),
            fmt_opt_u(r.cycles),
            r.wall_s
        );
    }
    let _ = writeln!(block, "    ]");
    let _ = writeln!(block, "  }}");

    splice_into_kernels_json(&block);
    println!("{block}");
}
