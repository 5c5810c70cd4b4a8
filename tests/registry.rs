//! Registry integration contracts: content-addressed interning across
//! sessions and threads, hot/cold tier transitions under byte-budget
//! pressure, and bit-identity of every result in any tier state.

use std::sync::Arc;

use h3dfact::prelude::*;
use h3dfact::registry::DEFAULT_HOT_BUDGET_BYTES;

fn session_on(registry: &Arc<CodebookRegistry>, seed: u64, threads: usize) -> Session {
    Session::builder()
        .spec(ProblemSpec::new(3, 8, 256))
        .backend(BackendKind::Stochastic)
        .seed(seed)
        .max_iters(400)
        .threads(threads)
        .registry(Arc::clone(registry))
        .build()
}

/// A problem shape whose codebooks the row walk wins at (128×4096 rows:
/// 64 KiB, past L1d, with 64-word rows), so the registry gives them no
/// lane mirror.
fn wide_session_on(registry: &Arc<CodebookRegistry>, seed: u64) -> Session {
    Session::builder()
        .spec(ProblemSpec::new(2, 128, 4096))
        .backend(BackendKind::Baseline)
        .seed(seed)
        .max_iters(30)
        .registry(Arc::clone(registry))
        .build()
}

#[test]
fn same_seed_sessions_share_one_interned_allocation() {
    let reg = Arc::new(CodebookRegistry::new());
    let a = session_on(&reg, 7, 1);
    let b = session_on(&reg, 7, 1);
    // Content-identical codebooks resolve to pointer-equal Arcs: two
    // tenants, one allocation.
    assert!(Arc::ptr_eq(
        &a.codebook_handle().resolve(),
        &b.codebook_handle().resolve()
    ));
    let stats = reg.stats();
    assert_eq!(stats.interned_sets, 1);
    assert_eq!(stats.dedup_hits, 1);
    // And a different seed interns a second, distinct set.
    let c = session_on(&reg, 8, 1);
    assert!(!Arc::ptr_eq(
        &a.codebook_handle().resolve(),
        &c.codebook_handle().resolve()
    ));
    assert_eq!(reg.stats().interned_sets, 2);
}

#[test]
fn tenant_footprint_is_flat_in_shared_tenant_count() {
    let reg = Arc::new(CodebookRegistry::new());
    let _first = session_on(&reg, 42, 1);
    let single_tenant_bytes = reg.stats().resident_bytes();
    assert!(single_tenant_bytes > 0);
    let _rest: Vec<Session> = (0..63).map(|_| session_on(&reg, 42, 1)).collect();
    // 64 tenants over one codebook set cost exactly one set — well
    // inside the ≤1.1× acceptance bound, since interning dedups to the
    // same entry.
    assert_eq!(reg.stats().resident_bytes(), single_tenant_bytes);
    assert_eq!(reg.stats().interned_sets, 1);
    assert_eq!(reg.stats().dedup_hits, 63);
}

#[test]
fn interning_from_two_threads_resolves_pointer_equal() {
    let reg = Arc::new(CodebookRegistry::new());
    let resolved: Vec<_> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let reg = Arc::clone(&reg);
                scope.spawn(move || session_on(&reg, 11, 1).codebook_handle().resolve())
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert!(Arc::ptr_eq(&resolved[0], &resolved[1]));
    assert_eq!(reg.stats().interned_sets, 1);
}

#[test]
fn results_are_bit_identical_across_registry_instances_and_threads() {
    // One session on a private registry, one on another, one parallel:
    // registry choice and tier state must never leak into outcomes.
    let reg_a = Arc::new(CodebookRegistry::new());
    let reg_b = Arc::new(CodebookRegistry::with_hot_budget(0));
    let mut a = session_on(&reg_a, 19, 1);
    let mut b = session_on(&reg_b, 19, 1);
    let mut c = session_on(&reg_a, 19, 4);
    let (ra, rb, rc) = (a.run(12), b.run(12), c.run(12));
    for (x, y) in ra.outcomes.iter().zip(&rb.outcomes) {
        assert_eq!(x.decoded, y.decoded);
        assert_eq!(x.iterations, y.iterations);
        assert_eq!(x.solved, y.solved);
    }
    for (x, y) in ra.outcomes.iter().zip(&rc.outcomes) {
        assert_eq!(x.decoded, y.decoded);
        assert_eq!(x.iterations, y.iterations);
    }
    assert_eq!(ra.total_iterations, rb.total_iterations);
    assert_eq!(ra.total_iterations, rc.total_iterations);
}

#[test]
fn lru_demotion_and_rematerialization_round_trip_bit_identically() {
    // Budget fits one set's lane mirrors (3 × 256 B per 3×8×256 set), so
    // two sessions evict each other's hot entries on every pass.
    let one_set_mirrors = 3 * 8 * 256 / 8;
    let pressured = Arc::new(CodebookRegistry::with_hot_budget(one_set_mirrors));
    let mut p1 = session_on(&pressured, 1, 1);
    let mut p2 = session_on(&pressured, 2, 1);
    let mut thrash = Vec::new();
    for _ in 0..3 {
        thrash.push(p1.run(1));
        thrash.push(p2.run(1));
    }
    let stats = pressured.stats();
    assert!(
        stats.demotions >= 4,
        "alternating passes must thrash the hot tier (saw {} demotions)",
        stats.demotions
    );
    // Demotion is member-granular: evicting one of these 3-member sets
    // counts 3 demotions, while the rebuild that follows is a single
    // materialization pass covering every mirror.
    assert!(stats.demotions <= 3 * stats.materializations);
    assert!(stats.materializations > 0);
    assert!(stats.hot_bytes as usize <= one_set_mirrors);

    // The same passes under no pressure (everything stays hot).
    let roomy = Arc::new(CodebookRegistry::with_hot_budget(DEFAULT_HOT_BUDGET_BYTES));
    let mut r1 = session_on(&roomy, 1, 1);
    let mut r2 = session_on(&roomy, 2, 1);
    let mut calm = Vec::new();
    for _ in 0..3 {
        calm.push(r1.run(1));
        calm.push(r2.run(1));
    }
    assert_eq!(roomy.stats().demotions, 0);

    // Demote → rebuild → solve is bit-identical to always-hot.
    for (t, c) in thrash.iter().zip(&calm) {
        assert_eq!(t.outcomes.len(), c.outcomes.len());
        for (x, y) in t.outcomes.iter().zip(&c.outcomes) {
            assert_eq!(x.decoded, y.decoded);
            assert_eq!(x.iterations, y.iterations);
            assert_eq!(x.solved, y.solved);
        }
    }
}

#[test]
fn small_sets_promote_hot_and_wide_sets_alias_cold() {
    let reg = Arc::new(CodebookRegistry::new());
    let small = session_on(&reg, 5, 1);
    let wide = wide_session_on(&reg, 5);
    let small_books = small.codebook_handle().resolve();
    // 8×256 rows (256 B) are where the strip walk wins most: promotion
    // materialized the mirrors.
    assert!(small_books.iter().all(|b| b.has_lane_mirror()));
    assert_eq!(reg.stats().hot_bytes, 3 * 8 * 256 / 8);
    // 128×4096 rows take the row walk: no lane mirror, no hot bytes added.
    let wide_books = wide.codebook_handle().resolve();
    assert!(wide_books.iter().all(|b| !b.has_lane_mirror()));
    assert_eq!(reg.stats().hot_bytes, 3 * 8 * 256 / 8);
}

#[test]
fn service_replays_bit_identically_on_a_private_registry() {
    let reg = Arc::new(CodebookRegistry::new());
    let mut svc = FactorizationService::builder()
        .spec(ProblemSpec::new(3, 8, 256))
        .backends(&[(BackendKind::Stochastic, 2)])
        .seed(50)
        .max_iters(300)
        .batch_size(4)
        .registry(Arc::clone(&reg))
        .build();
    let mut stream = svc.request_stream("tenant", BackendKind::Stochastic, 0);
    for _ in 0..10 {
        let req = stream.next_request();
        svc.submit(req);
    }
    let mut live = svc.drain();
    live.sort_by_key(|r| r.id);
    let mut replayed = svc.replay(svc.trace());
    replayed.sort_by_key(|r| r.id);
    assert_eq!(live.len(), replayed.len());
    for (l, r) in live.iter().zip(&replayed) {
        assert_eq!(l.outcome.decoded, r.outcome.decoded);
        assert_eq!(l.outcome.iterations, r.outcome.iterations);
        assert_eq!(l.cursor, r.cursor);
    }
    // The serving path resolves once per micro-batch + once per replay:
    // the registry observed the traffic.
    let stats = reg.stats();
    assert!(stats.resolves > 0);
    assert_eq!(stats.interned_sets, 1);
}
