//! Deterministic parallel batch execution.
//!
//! Every engine derives the seed of its `k`-th solve purely from
//! `(engine seed, k)` — the run *cursor* exposed through
//! [`Backend::run_cursor`] / [`Backend::seek_run`]. That makes batch items
//! embarrassingly parallel without sacrificing reproducibility: a worker
//! pool of independently constructed engines (same constructor seed)
//! claims items dynamically, seeks each engine to the cursor the item
//! would have had sequentially, and solves. Per-item outcomes and reports
//! are therefore **bit-identical** to a sequential pass, and any
//! order-sensitive aggregation (floating-point energy sums) is done
//! afterwards in item order.
//!
//! The pool uses [`std::thread::scope`], so worker lifetimes are tied to
//! the call and the shared codebooks are borrowed, not cloned. There is
//! one pass function, [`solve_each`]: session batches, workloads and the
//! service's multi-threaded micro-batches all run through it.
//!
//! # Work stealing
//!
//! The unit of work is **one item**, scheduled by work stealing over
//! per-worker deques ([`StealPool`]): each worker starts with a
//! contiguous span of items and, when its own deque drains, steals the
//! back half of the first non-empty victim's deque. Items retire
//! raggedly — a problem that converges in a few iterations finishes long
//! before one that runs to the iteration budget — and under a fixed
//! claim order a worker that drew only easy items went idle while
//! another serialized the hard ones. Stealing rebalances those tails.
//! Scheduling is invisible to results by construction: *which worker*
//! solves an item affects nothing, because every item seeks its engine
//! to the item's own cursor before solving — so `threads(N) ≡
//! threads(1)` holds under any steal interleaving, and
//! [`steal_events`] only feeds observability (bench scaling tables),
//! never control flow.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hdc::{BipolarVector, Codebook};
use resonator::batch::BatchItem;
use resonator::engine::FactorizationOutcome;

use crate::backend::{Backend, RunReport};
use crate::workload::WorkloadItem;

/// Steal events since process start, across every pass (monotone,
/// process-global). Observability only — exposed to the bench harness
/// through [`crate::session::executor_steal_events`]; nothing reads it on
/// a decision path.
static STEAL_EVENTS: AtomicU64 = AtomicU64::new(0);

/// See [`STEAL_EVENTS`].
pub(crate) fn steal_events() -> u64 {
    STEAL_EVENTS.load(Ordering::Relaxed)
}

/// Work-stealing item scheduler: one `Mutex<VecDeque>` of item indices
/// per worker, seeded with contiguous spans (so initial claims preserve
/// the front-to-back sweep), drained own-front-first with back-half
/// stealing on empty.
///
/// Items leave the pool exactly once (a pop under the owner's lock or a
/// `split_off` under the victim's), so a worker observing every deque
/// empty can safely exit: any item it did not see is already in some
/// worker's hands and will be solved there. Which worker runs an item is
/// irrelevant to results — every item re-seeds its engine from its own
/// cursor — so steal timing never reaches outcomes.
struct StealPool {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealPool {
    /// Distributes `n_items` item indices over `workers` deques as
    /// contiguous spans (worker `w` owns `[w·n/W, (w+1)·n/W)`).
    fn new(n_items: usize, workers: usize) -> Self {
        let deques = (0..workers.max(1))
            .map(|w| {
                let lo = w * n_items / workers.max(1);
                let hi = (w + 1) * n_items / workers.max(1);
                Mutex::new((lo..hi).collect::<VecDeque<usize>>())
            })
            .collect();
        Self { deques }
    }

    /// Next item for worker `w`: own deque front, else sweep victims
    /// cyclically from `w + 1`, stealing the back half (at least one
    /// item) of the first non-empty deque — the remainder of the loot
    /// refills `w`'s own deque. Returns `None` when every deque was
    /// empty at inspection (remaining items, if any, are in-flight in
    /// other workers' hands).
    fn next(&self, w: usize) -> Option<usize> {
        if let Some(c) = self.deques[w]
            .lock()
            .expect("steal deque poisoned")
            .pop_front()
        {
            return Some(c);
        }
        let n = self.deques.len();
        for off in 1..n {
            let v = (w + off) % n;
            let mut victim = self.deques[v].lock().expect("steal deque poisoned");
            let vn = victim.len();
            if vn == 0 {
                continue;
            }
            // Back half (ceil), leaving the front — the span the victim
            // is working toward — in place.
            let mut loot = victim.split_off(vn / 2);
            drop(victim);
            STEAL_EVENTS.fetch_add(1, Ordering::Relaxed);
            let first = loot.pop_front().expect("stolen loot is non-empty");
            if !loot.is_empty() {
                self.deques[w]
                    .lock()
                    .expect("steal deque poisoned")
                    .extend(loot);
            }
            return Some(first);
        }
        None
    }
}

/// One item's result from a parallel pass: the functional outcome plus the
/// engine's per-run report (for cost aggregation in item order).
pub(crate) struct IndexedSolve {
    /// The factorization outcome of this item.
    pub outcome: FactorizationOutcome,
    /// The engine's report for this item, when the engine produces one.
    pub report: Option<RunReport>,
}

/// Solves one query on `engine` at its current run cursor and captures
/// the engine's report — the per-item step every solve path shares.
pub(crate) fn solve_one(
    engine: &mut dyn Backend,
    codebooks: &[Codebook],
    query: &BipolarVector,
    truth: Option<&[usize]>,
) -> IndexedSolve {
    let outcome = engine.factorize_query(codebooks, query, truth);
    let report = engine.last_run_stats();
    IndexedSolve { outcome, report }
}

/// Solves `n_items` queries across a scoped worker pool and returns
/// results in item order. `factory` constructs one engine per worker (all
/// with the same constructor seed); `fetch(i)` yields item `i`'s codebooks,
/// query, and optional ground truth; item `i` is solved at run cursor
/// `base_cursor + i`, exactly as a single sequential engine would have.
///
/// # Panics
///
/// Panics if `threads == 0`, `n_items == 0`, or a worker panics.
pub(crate) fn solve_each<'a, F>(
    factory: &(dyn Fn() -> Box<dyn Backend> + Sync),
    n_items: usize,
    fetch: F,
    base_cursor: u64,
    threads: usize,
) -> Vec<IndexedSolve>
where
    F: Fn(usize) -> (&'a [Codebook], &'a BipolarVector, Option<&'a [usize]>) + Sync,
{
    assert!(threads > 0, "worker pool needs at least one thread");
    assert!(n_items > 0, "batch must be non-empty");
    let workers = threads.min(n_items);
    let pool = StealPool::new(n_items, workers);
    // One slot per item: workers write disjoint slots, so per-slot locks
    // never contend beyond their own writer.
    let slots: Vec<Mutex<Option<IndexedSolve>>> = (0..n_items).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let pool = &pool;
            let slots = &slots;
            let fetch = &fetch;
            scope.spawn(move || {
                let mut engine = factory();
                while let Some(i) = pool.next(w) {
                    let (codebooks, query, truth) = fetch(i);
                    engine.seek_run(base_cursor + i as u64);
                    let solve = solve_one(engine.as_mut(), codebooks, query, truth);
                    *slots[i].lock().expect("result slot poisoned") = Some(solve);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item solved by the pool")
        })
        .collect()
}

/// Solves a batch of items sharing one set of codebooks (the
/// [`crate::session::Session::run`] shape). See [`solve_each`].
///
/// # Panics
///
/// Panics if `threads == 0`, `items` is empty, or a worker panics.
pub(crate) fn solve_indexed(
    factory: &(dyn Fn() -> Box<dyn Backend> + Sync),
    codebooks: &[Codebook],
    items: &[BatchItem],
    base_cursor: u64,
    threads: usize,
) -> Vec<IndexedSolve> {
    solve_each(
        factory,
        items.len(),
        |i| (codebooks, &items[i].query, items[i].truth.as_deref()),
        base_cursor,
        threads,
    )
}

/// Solves workload items, each addressing one of several codebook groups
/// (fresh-codebook workloads like capacity sweeps need a group per trial;
/// most workloads have exactly one). See [`solve_each`].
///
/// # Panics
///
/// Panics if `threads == 0`, `items` is empty, a group index is out of
/// range, or a worker panics.
pub(crate) fn solve_grouped(
    factory: &(dyn Fn() -> Box<dyn Backend> + Sync),
    groups: &[Vec<Codebook>],
    items: &[WorkloadItem],
    base_cursor: u64,
    threads: usize,
) -> Vec<IndexedSolve> {
    solve_each(
        factory,
        items.len(),
        |i| {
            let item = &items[i];
            (
                groups[item.group].as_slice(),
                &item.query,
                item.truth.as_deref(),
            )
        },
        base_cursor,
        threads,
    )
}

/// Resolves a configured thread count: `0` means "all available cores".
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::BackendKind;
    use crate::target::TargetKind;
    use hdc::rng::rng_from_seed;
    use hdc::ProblemSpec;
    use resonator::batch::random_batch;

    /// Strips the wall-clock profile (the only non-deterministic field)
    /// before comparing outcomes bit-for-bit.
    fn functional(outcome: &FactorizationOutcome) -> FactorizationOutcome {
        let mut o = outcome.clone();
        o.times = Default::default();
        o
    }

    #[test]
    fn parallel_items_match_sequential_items() {
        let spec = ProblemSpec::new(3, 8, 256);
        let mut rng = rng_from_seed(500);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (items, _) = random_batch(&books, 6, 501);

        let factory = || {
            BackendKind::Stochastic.instantiate(TargetKind::Functional, spec, 400, 9, None, None)
        };
        let mut sequential = factory();
        let expected: Vec<FactorizationOutcome> = items
            .iter()
            .map(|i| sequential.factorize_query(&books, &i.query, i.truth.as_deref()))
            .collect();

        let parallel = solve_indexed(&factory, &books, &items, 0, 3);
        assert_eq!(parallel.len(), expected.len());
        for (p, e) in parallel.iter().zip(&expected) {
            assert_eq!(
                functional(&p.outcome),
                functional(e),
                "parallel item diverged from sequential"
            );
        }
    }

    #[test]
    fn base_cursor_offsets_the_seed_stream() {
        let spec = ProblemSpec::new(2, 8, 256);
        let mut rng = rng_from_seed(502);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (items, _) = random_batch(&books, 3, 503);
        let factory = || {
            BackendKind::Stochastic.instantiate(TargetKind::Functional, spec, 400, 10, None, None)
        };

        // Sequential engine that has already issued 5 runs.
        let mut warmed = factory();
        warmed.seek_run(5);
        let expected: Vec<FactorizationOutcome> = items
            .iter()
            .map(|i| warmed.factorize_query(&books, &i.query, i.truth.as_deref()))
            .collect();

        let parallel = solve_indexed(&factory, &books, &items, 5, 2);
        for (p, e) in parallel.iter().zip(&expected) {
            assert_eq!(functional(&p.outcome), functional(e));
        }
    }

    #[test]
    fn zero_threads_resolve_to_available_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn steal_pool_claims_every_chunk_exactly_once() {
        // Deterministic single-threaded drive of the scheduler itself:
        // 3 workers, 8 items → contiguous spans [0,2), [2,5), [5,8).
        let pool = StealPool::new(8, 3);
        // Own-deque claims are FIFO within the span.
        assert_eq!(pool.next(0), Some(0));
        assert_eq!(pool.next(0), Some(1));
        // Worker 0's deque is now empty: it must steal the back half of
        // the first non-empty victim (worker 1 holds [2, 3, 4] → keeps
        // [2], loot [3, 4]) and run the loot front-first.
        assert_eq!(pool.next(0), Some(3));
        assert_eq!(pool.next(0), Some(4));
        // Victim kept the front of its span.
        assert_eq!(pool.next(1), Some(2));
        // Worker 2 drains its own span untouched.
        assert_eq!(pool.next(2), Some(5));
        assert_eq!(pool.next(2), Some(6));
        assert_eq!(pool.next(2), Some(7));
        // All deques empty: every worker observes exhaustion.
        assert_eq!(pool.next(0), None);
        assert_eq!(pool.next(1), None);
        assert_eq!(pool.next(2), None);

        // Concurrent drive at pass scale: four threads drain a
        // 1,000-item pool, stealing as their spans run dry; every item
        // index is claimed by exactly one worker.
        let pool = StealPool::new(1_000, 4);
        let claims: Vec<Vec<usize>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let pool = &pool;
                    scope.spawn(move || std::iter::from_fn(|| pool.next(w)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        let mut all: Vec<usize> = claims.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn steal_pool_steals_a_single_remaining_chunk() {
        // A one-item victim deque must be stolen whole (back "half"
        // rounds up), or a pass with fewer items than workers could
        // strand its last item behind one busy worker.
        let pool = StealPool::new(1, 4);
        assert_eq!(pool.next(3), Some(0), "sole item stolen from worker 0");
        for w in 0..4 {
            assert_eq!(pool.next(w), None);
        }
    }

    #[test]
    fn steal_events_counter_is_monotone() {
        let before = steal_events();
        let pool = StealPool::new(2, 2);
        assert_eq!(pool.next(1), Some(1));
        assert_eq!(pool.next(1), Some(0), "second claim steals from worker 0");
        // Other tests run in parallel and also bump the global counter,
        // so assert monotone growth rather than an exact delta.
        assert!(steal_events() > before);
    }

    #[test]
    fn adversarial_early_retirement_is_thread_count_invariant() {
        // The work-stealing determinism contract under the worst item
        // mix: the first quarter of the pass is hard (random noise
        // queries with no truth, which run the full iteration budget)
        // and the rest is easy (true product vectors, which converge in
        // a handful of iterations). Under threads(4) the hard items are
        // exactly worker 0's initial span, so the other workers drain
        // theirs and steal from it. Outcomes and reports must stay
        // bit-identical to threads(1) regardless.
        let spec = ProblemSpec::new(3, 8, 256);
        let mut rng = rng_from_seed(520);
        let books: Vec<Codebook> = (0..spec.factors)
            .map(|_| Codebook::random(spec.codebook_size, spec.dim, &mut rng))
            .collect();
        let (easy, _) = random_batch(&books, 24, 521);
        let items: Vec<BatchItem> = easy
            .into_iter()
            .enumerate()
            .map(|(i, mut item)| {
                if i < 6 {
                    item.query = BipolarVector::random(spec.dim, &mut rng);
                    item.truth = None;
                }
                item
            })
            .collect();
        let factory = || {
            BackendKind::Stochastic.instantiate(TargetKind::Functional, spec, 300, 11, None, None)
        };
        let sequential = solve_indexed(&factory, &books, &items, 0, 1);
        assert!(sequential[..6].iter().all(|s| s.outcome.iterations == 300));
        for threads in [2, 4] {
            let parallel = solve_indexed(&factory, &books, &items, 0, threads);
            assert_eq!(sequential.len(), parallel.len());
            for (i, (p, e)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    functional(&p.outcome),
                    functional(&e.outcome),
                    "item {i} diverged between threads({threads}) and threads(1)"
                );
                assert_eq!(p.report, e.report, "item {i} report, threads({threads})");
            }
        }
    }
}
