//! Criterion micro-benchmarks of the computational kernels: VSA algebra,
//! crossbar MVMs at both fidelities, ADC conversion, one resonator
//! iteration (software and device-accurate), and a thermal solve.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use cim::adc::{AdcConfig, SarAdc};
use cim::crossbar::{Crossbar, Fidelity};
use cim::noise::NoiseSpec;
use h3dfact::session::BackendKind;
use h3dfact::target::TargetKind;
use hdc::rng::rng_from_seed;
use hdc::{BipolarVector, Codebook, FactorizationProblem, ProblemSpec};
use thermal::{solve, Stack};

fn bench_vsa(c: &mut Criterion) {
    let mut rng = rng_from_seed(1);
    let a = BipolarVector::random(1024, &mut rng);
    let b = BipolarVector::random(1024, &mut rng);
    c.bench_function("vsa/bind_1024", |bch| {
        bch.iter(|| black_box(&a).bind(black_box(&b)))
    });
    c.bench_function("vsa/dot_1024", |bch| {
        bch.iter(|| black_box(&a).dot(black_box(&b)))
    });
    let book = Codebook::random(256, 1024, &mut rng);
    c.bench_function("vsa/similarities_256x1024", |bch| {
        bch.iter(|| book.similarities(black_box(&a)))
    });
    let weights: Vec<f64> = (0..256).map(|i| (i % 16) as f64).collect();
    c.bench_function("vsa/project_256x1024", |bch| {
        bch.iter(|| book.project(black_box(&weights)))
    });
}

/// The packed-kernel group added with the allocation-free hot path: packed
/// vs per-vector similarity MVM, alloc-free vs allocating iteration
/// round-trip, and parallel vs sequential session batches. The workload
/// bodies live in `h3dfact_bench::kernels`, shared with the
/// `bench_kernels` harness bin.
fn bench_kernels_packed(c: &mut Criterion) {
    use h3dfact_bench::kernels;
    let fx = kernels::fixture();

    c.bench_function("kernels_packed/similarities_pervector_256x1024", |bch| {
        let mut out = vec![0.0f64; kernels::M];
        bch.iter(|| {
            kernels::similarities_pervector(black_box(&fx), &mut out);
            black_box(out[kernels::M - 1])
        })
    });
    c.bench_function("kernels_packed/similarities_packed_256x1024", |bch| {
        let mut out = vec![0.0f64; kernels::M];
        bch.iter(|| {
            kernels::similarities_packed(black_box(&fx), &mut out);
            black_box(out[kernels::M - 1])
        })
    });

    // One similarity→projection round-trip (the resonator inner loop body
    // minus unbind): allocating reference vs the scratch-buffer path.
    c.bench_function("kernels_packed/iteration_allocating_256x1024", |bch| {
        bch.iter(|| kernels::iteration_allocating(black_box(&fx)))
    });
    c.bench_function("kernels_packed/iteration_allocfree_256x1024", |bch| {
        let mut scratch = kernels::iteration_scratch();
        bch.iter(|| {
            kernels::iteration_allocfree(black_box(&fx), &mut scratch);
            black_box(scratch.estimate.words()[0])
        })
    });

    // Session-level batch: sequential vs the deterministic worker pool.
    for (name, threads) in [
        ("kernels_packed/batch8_sequential", 1usize),
        ("kernels_packed/batch8_threads4", 4usize),
    ] {
        c.bench_function(name, |bch| {
            bch.iter_batched(
                || kernels::batch_session(threads, 500),
                |mut session| session.run(8),
                BatchSize::SmallInput,
            )
        });
    }
}

/// The batched bit-GEMM group added with the lockstep batching PR: the
/// matrix–matrix similarity kernel against the per-query loop at both
/// dispatch regimes (cache-resident and streaming), the batched
/// projection, and the lockstep resonator against sequential engine
/// calls. Workload bodies live in `h3dfact_bench::kernels`, shared with
/// the `bench_kernels` harness bin so the two can never drift apart.
fn bench_kernels_batched(c: &mut Criterion) {
    use h3dfact_bench::kernels;
    use resonator::engine::Factorizer;

    for (m, d, label) in [
        (kernels::M, kernels::D, "resident"),
        (kernels::M_STREAMING, kernels::D_STREAMING, "streaming"),
    ] {
        let bfx = kernels::batch_fixture(m, d, 8);
        let mut out = vec![0.0f64; 8 * m];
        c.bench_function(
            &format!("kernels_batched/similarities_perquery8_{label}"),
            |bch| {
                bch.iter(|| {
                    kernels::similarities_perquery_loop(black_box(&bfx), &mut out);
                    black_box(out[8 * m - 1])
                })
            },
        );
        c.bench_function(
            &format!("kernels_batched/similarities_batched8_{label}"),
            |bch| {
                bch.iter(|| {
                    kernels::similarities_batched(black_box(&bfx), &mut out);
                    black_box(out[8 * m - 1])
                })
            },
        );
    }

    let fx = kernels::fixture();
    let weights: Vec<f64> = (0..8).flat_map(|_| fx.weights.clone()).collect();
    let mut sums = vec![0.0f64; 8 * kernels::D];
    c.bench_function("kernels_batched/weighted_sums_batched8_256x1024", |bch| {
        bch.iter(|| {
            fx.book
                .packed()
                .weighted_sums_batch_into(black_box(&weights), &mut sums);
            black_box(sums[8 * kernels::D - 1])
        })
    });

    let (books, items, engine) = kernels::lockstep_fixture(8);
    let queries: Vec<(&hdc::BipolarVector, Option<&[usize]>)> = items
        .iter()
        .map(|i| (&i.query, i.truth.as_deref()))
        .collect();
    c.bench_function("kernels_batched/resonator_sequential8_f3_m8_d256", |bch| {
        let mut eng = engine;
        bch.iter(|| {
            eng.set_run_cursor(0);
            for i in &items {
                black_box(eng.factorize_query(&books, &i.query, i.truth.as_deref()));
            }
        })
    });
    c.bench_function("kernels_batched/resonator_lockstep8_f3_m8_d256", |bch| {
        let mut eng = engine;
        bch.iter(|| {
            eng.set_run_cursor(0);
            black_box(eng.factorize_lockstep(&books, &queries));
        })
    });
}

fn bench_crossbar(c: &mut Criterion) {
    let mut rng = rng_from_seed(2);
    let book = Codebook::random(256, 256, &mut rng);
    let q = BipolarVector::random(256, &mut rng);
    let mut col = Crossbar::program(&book, NoiseSpec::chip_40nm(), Fidelity::Column, 3);
    c.bench_function("crossbar/mvm_column_256x256", |bch| {
        bch.iter(|| col.mvm_bipolar(black_box(&q)))
    });
    let mut cell = Crossbar::program(&book, NoiseSpec::chip_40nm(), Fidelity::Cell, 3);
    c.bench_function("crossbar/mvm_cell_256x256", |bch| {
        bch.iter(|| cell.mvm_bipolar(black_box(&q)))
    });
    let adc = SarAdc::ideal(AdcConfig::paper_4bit(256.0));
    let currents: Vec<f64> = (0..256).map(|i| (i as f64) - 128.0).collect();
    c.bench_function("adc/convert_vector_256", |bch| {
        bch.iter(|| adc.convert_vector(black_box(&currents)))
    });
}

fn bench_engines(c: &mut Criterion) {
    // Every engine through the unified `Box<dyn Backend>` dispatch — the
    // virtual call is nanoseconds against millisecond solves, and one
    // registry keeps the bench honest as engines evolve.
    let spec = ProblemSpec::new(3, 16, 256);
    let problem = FactorizationProblem::random(spec, &mut rng_from_seed(4));
    for (name, kind, budget) in [
        (
            "engine/baseline_solve_f3_m16_d256",
            BackendKind::Baseline,
            500,
        ),
        (
            "engine/stochastic_solve_f3_m16_d256",
            BackendKind::Stochastic,
            2000,
        ),
        (
            "engine/h3dfact_hw_solve_f3_m16_d256",
            BackendKind::H3dFact,
            2000,
        ),
        ("engine/pcm_2die_solve_f3_m16_d256", BackendKind::Pcm, 2000),
    ] {
        c.bench_function(name, |bch| {
            bch.iter_batched(
                || kind.instantiate(TargetKind::Functional, spec, budget, 5, None, None),
                |mut e| e.factorize(black_box(&problem)),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_thermal(c: &mut Criterion) {
    let stack = Stack::paper_h3dfact(0.85);
    let dies = stack.die_layers();
    let (nx, ny) = (12, 12);
    let mut powers = vec![vec![]; stack.layers().len()];
    for &d in &dies {
        powers[d] = vec![0.005 / (nx * ny) as f64; nx * ny];
    }
    c.bench_function("thermal/solve_12x12x10", |bch| {
        bch.iter(|| solve(&stack, nx, ny, black_box(&powers), 25.0, 1e-5, 100_000))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(10);
    targets = bench_vsa, bench_kernels_packed, bench_crossbar, bench_engines, bench_thermal
}
criterion_group! {
    name = kernels_batched;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels_batched
}
criterion_main!(kernels, kernels_batched);
