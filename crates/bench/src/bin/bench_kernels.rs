//! Kernel performance harness: measures the packed-codebook MVM, the
//! dispatch arms, the blocked decode, the allocation-free iteration
//! round-trip, and the parallel batch executor against their
//! pre-optimization baselines,
//! then writes a `BENCH_kernels.json` summary so the perf trajectory is
//! tracked.
//!
//! ```sh
//! cargo run --release -p h3dfact_bench --bin bench_kernels            # full
//! cargo run --release -p h3dfact_bench --bin bench_kernels -- --quick # CI smoke
//! ```
//!
//! The JSON records nanoseconds per operation for each variant, the
//! speedup ratios, and a provenance block (`target-cpu`, architecture,
//! word width, the dispatch arm) without which cross-host numbers are not
//! comparable. The harness **asserts** — in `--quick` CI smoke runs too —
//! that every supported dispatch arm reproduces the scalar arm bit for
//! bit on the per-query kernels, that the blocked decode picks exactly
//! what the row walk picks on every arm, and that the parallel batch
//! report matches the sequential one.

use std::hint::black_box;
use std::time::Instant;

use h3dfact_bench::kernels;

/// Median-of-runs wall time for one repetition of `f`, in nanoseconds.
fn time_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warm-up repetition, then three timed passes; report the median.
    f();
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_nanos() as f64 / reps as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[1]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mvm_reps = if quick { 200 } else { 3_000 };
    let iter_reps = if quick { 50 } else { 1_000 };
    let batch_problems = if quick { 8 } else { 32 };

    let fx = kernels::fixture();

    // --- Provenance: without these, cross-host numbers are noise. ---
    let det = hdc::dispatch::detection();
    let forced = det
        .forced
        .map(|a| format!("\"{a}\""))
        .unwrap_or_else(|| "null".into());
    let provenance = format!(
        "  \"provenance\": {{\n    \"target_cpu\": \"{}\",\n    \"arch\": \"{}\",\n    \
         \"word_bits\": 64,\n    \"csa_block_words\": {},\n    \
         \"simd_dispatch\": {{\n      \
         \"arm\": \"{}\",\n      \
         \"forced\": {forced},\n      \
         \"forced_unsupported\": {},\n      \
         \"detected\": {{ \"popcnt\": {}, \"avx2\": {}, \"avx512f\": {}, \
         \"avx512vpopcntdq\": {} }}\n    }}\n  }},\n",
        env!("H3DFACT_TARGET_CPU"),
        std::env::consts::ARCH,
        hdc::CSA_BLOCK_WORDS,
        det.arm,
        det.forced_unsupported,
        det.popcnt,
        det.avx2,
        det.avx512f,
        det.avx512vpopcntdq,
    );

    // --- Similarity MVM: per-vector baseline vs packed kernel. ---
    let mut out = vec![0.0f64; kernels::M];
    let pervector_ns = time_ns(mvm_reps, || {
        kernels::similarities_pervector(black_box(&fx), &mut out);
        black_box(out[kernels::M - 1]);
    });
    let packed_ns = time_ns(mvm_reps, || {
        kernels::similarities_packed(black_box(&fx), &mut out);
        black_box(out[kernels::M - 1]);
    });
    let mvm_speedup = pervector_ns / packed_ns;

    // --- Runtime dispatch arms: similarity + projection per supported
    //     arm on the per-query kernels, each hard-asserted bit-identical
    //     to the scalar arm (the portable ground truth) before it is
    //     timed. 15/16 of the fixture weights are non-zero, pinning the
    //     dense projection regime the dispatched accumulate exists for. ---
    let packed = fx.book.packed();
    let mut sims_ref = vec![0.0f64; kernels::M];
    let mut proj_ref = vec![0.0f64; kernels::D];
    packed.similarities_into_forced(&fx.query, &mut sims_ref, hdc::SimdArm::Scalar);
    packed.weighted_sums_into_forced(&fx.weights, &mut proj_ref, hdc::SimdArm::Scalar);
    let proj_reps = (mvm_reps / 8).max(8);
    let mut arm_rows = String::new();
    let supported: Vec<hdc::SimdArm> = hdc::SimdArm::ALL
        .into_iter()
        .filter(|a| a.supported())
        .collect();
    for (k, &arm) in supported.iter().enumerate() {
        let mut sims = vec![0.0f64; kernels::M];
        let mut proj = vec![0.0f64; kernels::D];
        packed.similarities_into_forced(&fx.query, &mut sims, arm);
        packed.weighted_sums_into_forced(&fx.weights, &mut proj, arm);
        let identical = sims
            .iter()
            .zip(&sims_ref)
            .chain(proj.iter().zip(&proj_ref))
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(identical, "dispatch arm `{arm}` diverged from scalar");
        let sim_ns = time_ns(mvm_reps, || {
            packed.similarities_into_forced(black_box(&fx.query), &mut sims, arm);
            black_box(sims[kernels::M - 1]);
        });
        let proj_ns = time_ns(proj_reps, || {
            packed.weighted_sums_into_forced(black_box(&fx.weights), &mut proj, arm);
            black_box(proj[kernels::D - 1]);
        });
        arm_rows.push_str(&format!(
            "      {{ \"arm\": \"{arm}\", \"active\": {}, \
             \"sim_ns\": {sim_ns:.1}, \"proj_ns\": {proj_ns:.1}, \
             \"bit_identical_to_scalar\": {identical} }}{}\n",
            arm == det.arm,
            if k + 1 < supported.len() { "," } else { "" }
        ));
    }

    // --- Decode at the batch-grid shapes (3×{16,32,64}×256): the row
    //     walk (`max_by_key` over per-row dots) vs the blocked
    //     `argmax_abs`, for one iteration's three factor estimates. The
    //     blocked pick is hard-asserted identical on every arm first. ---
    let mut decode_rows = String::new();
    for (k, m) in [16usize, 32, 64].into_iter().enumerate() {
        let mut rng = hdc::rng::rng_from_seed(m as u64);
        let books: Vec<hdc::Codebook> = (0..3)
            .map(|_| hdc::Codebook::random(m, 256, &mut rng))
            .collect();
        let estimates: Vec<hdc::BipolarVector> = (0..3)
            .map(|_| hdc::BipolarVector::random(256, &mut rng))
            .collect();
        let row_walk = |p: &hdc::PackedCodebook, q: &hdc::BipolarVector| {
            (0..p.len())
                .map(|j| (j, p.dot_row(j, q)))
                .max_by_key(|&(_, d)| d.abs())
                .expect("codebook is non-empty")
        };
        for (b, q) in books.iter().zip(&estimates) {
            let expect = row_walk(b.packed(), q);
            for &arm in &supported {
                assert_eq!(
                    b.packed().argmax_abs_forced(q, arm),
                    expect,
                    "decode under `{arm}` diverged from the row walk at M={m}"
                );
            }
        }
        let walk_ns = time_ns(mvm_reps, || {
            for (b, q) in books.iter().zip(&estimates) {
                black_box(row_walk(b.packed(), black_box(q)));
            }
        });
        let blocked_ns = time_ns(mvm_reps, || {
            for (b, q) in books.iter().zip(&estimates) {
                black_box(b.packed().argmax_abs(black_box(q)));
            }
        });
        decode_rows.push_str(&format!(
            "      {{ \"m\": {m}, \"row_walk_ns\": {walk_ns:.1}, \"argmax_abs_ns\": {blocked_ns:.1}, \
             \"speedup\": {:.2}, \"identical_on_every_arm\": true }}{}\n",
            walk_ns / blocked_ns,
            if k < 2 { "," } else { "" }
        ));
    }

    // --- Iteration round-trip (similarity + projection + re-sign):
    //     allocating reference vs scratch-buffer path. ---
    let alloc_ns = time_ns(iter_reps, || {
        black_box(kernels::iteration_allocating(black_box(&fx)));
    });
    let mut scratch = kernels::iteration_scratch();
    let allocfree_ns = time_ns(iter_reps, || {
        kernels::iteration_allocfree(black_box(&fx), &mut scratch);
        black_box(scratch.estimate.words()[0]);
    });
    let iter_speedup = alloc_ns / allocfree_ns;

    // --- Work-stealing batch executor: thread-scaling curve, every
    //     thread count asserted bit-identical to sequential. Wall-clock
    //     speedup is only meaningful on multi-core hosts; the identity
    //     contract holds everywhere. ---
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let steals_before = h3dfact::session::executor_steal_events();
    let mut seq = kernels::batch_session(1, 1_000);
    let t0 = Instant::now();
    let seq_report = seq.run(batch_problems);
    let seq_s = t0.elapsed().as_secs_f64();
    let mut identical = true;
    let mut par_s = seq_s;
    let thread_counts = [2usize, 4, 8];
    let mut scaling_rows = format!(
        "      {{ \"threads\": 1, \"wall_s\": {seq_s:.4}, \"speedup\": 1.00, \
         \"bit_identical_to_sequential\": true }},\n"
    );
    for (k, &threads) in thread_counts.iter().enumerate() {
        let mut par = kernels::batch_session(threads, 1_000);
        let t1 = Instant::now();
        let par_report = par.run(batch_problems);
        let wall_s = t1.elapsed().as_secs_f64();
        if threads == 4 {
            par_s = wall_s;
        }
        let same = seq_report.problems == par_report.problems
            && seq_report.solved == par_report.solved
            && seq_report.total_iterations == par_report.total_iterations
            && seq_report.total_energy_j == par_report.total_energy_j
            && seq_report
                .outcomes
                .iter()
                .zip(&par_report.outcomes)
                .all(|(a, b)| a.decoded == b.decoded && a.iterations == b.iterations);
        identical &= same;
        scaling_rows.push_str(&format!(
            "      {{ \"threads\": {threads}, \"wall_s\": {wall_s:.4}, \
             \"speedup\": {:.2}, \"bit_identical_to_sequential\": {same} }}{}\n",
            seq_s / wall_s,
            if k + 1 < thread_counts.len() { "," } else { "" }
        ));
    }
    let steal_events = h3dfact::session::executor_steal_events() - steals_before;
    let batch_speedup = seq_s / par_s;

    let json = format!(
        "{{\n  \"bench\": \"kernels_packed\",\n  \"quick\": {quick},\n  \
         \"host_available_parallelism\": {cores},\n\
         {provenance}  \
         \"similarity_mvm_m256_d1024\": {{\n    \
         \"pervector_ns\": {pervector_ns:.1},\n    \
         \"packed_ns\": {packed_ns:.1},\n    \
         \"speedup\": {mvm_speedup:.2}\n  }},\n  \
         \"dispatch_arms_m256_d1024\": {{\n    \
         \"arms\": [\n{arm_rows}    ],\n    \
         \"note\": \"per runtime-dispatch arm, one query; identity vs the scalar arm is hard-asserted before timing\"\n  }},\n  \
         \"decode_f3_d256\": {{\n    \
         \"shapes\": [\n{decode_rows}    ],\n    \
         \"note\": \"ns per decode of three factor estimates, active arm; (index, dot) identity vs the row walk is hard-asserted on every arm before timing\"\n  }},\n  \
         \"iteration_roundtrip_m256_d1024\": {{\n    \
         \"allocating_ns\": {alloc_ns:.1},\n    \
         \"allocfree_ns\": {allocfree_ns:.1},\n    \
         \"speedup\": {iter_speedup:.2}\n  }},\n  \
         \"batch_executor_f3_m8_d256\": {{\n    \
         \"problems\": {batch_problems},\n    \
         \"sequential_s\": {seq_s:.4},\n    \
         \"threads4_s\": {par_s:.4},\n    \
         \"speedup\": {batch_speedup:.2},\n    \
         \"steal_events\": {steal_events},\n    \
         \"multi_core_host\": {multi_core},\n    \
         \"thread_scaling\": [\n{scaling_rows}    ],\n    \
         \"note\": \"speedup figures are meaningful only when multi_core_host; identity holds regardless\",\n    \
         \"reports_bit_identical\": {identical},\n    \
         \"accuracy\": {:.4}\n  }}\n}}\n",
        seq_report.accuracy(),
        multi_core = cores > 1,
    );
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    print!("{json}");
    assert!(identical, "parallel batch report diverged from sequential");
}
