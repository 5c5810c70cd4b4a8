//! Regression tests for the session's problem-stream cursor semantics
//! and shard carving: request streams seeded mid-cursor never re-derive
//! an already-issued problem seed, and shards carved from one session
//! draw disjoint problem and noise streams.

use h3dfact::prelude::*;

fn session(seed: u64) -> Session {
    Session::builder()
        .spec(ProblemSpec::new(3, 8, 256))
        .backend(BackendKind::Stochastic)
        .seed(seed)
        .max_iters(300)
        .build()
}

#[test]
fn generation_is_chunk_invariant() {
    // The serving-shard property: a problem stream is addressed by
    // cursor, not by generation-call boundaries. generate(2) + generate(3)
    // must equal one generate(5) — the old epoch-based scheme failed
    // this, making results depend on how a stream was micro-batched.
    let mut chunked = session(17);
    let mut whole = session(17);
    let mut items = chunked.generate(2);
    items.extend(chunked.generate(3));
    let expected = whole.generate(5);
    assert_eq!(items.len(), 5);
    for (a, b) in items.iter().zip(&expected) {
        assert_eq!(a.query, b.query, "chunked stream diverged");
        assert_eq!(a.truth, b.truth);
    }
    assert_eq!(chunked.problem_cursor(), 5);
    assert_eq!(whole.problem_cursor(), 5);
}

#[test]
fn mid_cursor_seeding_never_reissues_a_problem_seed() {
    let mut s = session(18);
    let first = s.generate(6);
    // Continuing from the live cursor extends the stream without overlap.
    let next = s.generate(6);
    for (i, a) in first.iter().enumerate() {
        for (j, b) in next.iter().enumerate() {
            assert_ne!(
                a.query, b.query,
                "problem {i} re-issued as continuation problem {j}"
            );
        }
    }
    // Random access agrees with the walked stream.
    let replayed = s.generate_at(0, 12);
    for (walked, ra) in first.iter().chain(&next).zip(&replayed) {
        assert_eq!(walked.query, ra.query);
    }
    // Seeking backwards replays exactly; seeking forward skips cleanly.
    s.seek_problems(3);
    let again = s.generate(3);
    for (a, b) in again.iter().zip(&replayed[3..6]) {
        assert_eq!(a.query, b.query);
    }
}

#[test]
fn carved_shards_draw_disjoint_problem_streams() {
    let mut parent = session(19);
    let mut shard_a = parent.carve_shard();
    let mut shard_b = parent.carve_shard();

    // Shards share the parent's codebooks (generated once)...
    assert_eq!(parent.codebooks(), shard_a.codebooks());
    assert_eq!(parent.codebooks(), shard_b.codebooks());

    // ...but their problem streams are pairwise disjoint with the parent
    // and each other, even at identical cursors.
    let p = parent.generate(8);
    let a = shard_a.generate(8);
    let b = shard_b.generate(8);
    for (name, xs, ys) in [("parent/a", &p, &a), ("parent/b", &p, &b), ("a/b", &a, &b)] {
        for (i, x) in xs.iter().enumerate() {
            for (j, y) in ys.iter().enumerate() {
                assert_ne!(x.query, y.query, "{name}: problem {i} equals problem {j}");
            }
        }
    }
}

#[test]
fn carved_shards_have_disjoint_engine_stochasticity() {
    // Two shards solving the *same* query at the *same* run cursor must
    // draw different stochastic exploration streams — otherwise a shard
    // pool is N copies of one engine, not N independent servers.
    let mut parent = session(20);
    let mut shard_a = parent.carve_shard();
    let mut shard_b = parent.carve_shard();
    let items = parent.generate(6);
    let mut diverged = 0;
    for item in &items {
        let oa = shard_a.solve_query(parent.codebooks(), &item.query, item.truth.as_deref());
        let ob = shard_b.solve_query(parent.codebooks(), &item.query, item.truth.as_deref());
        if oa.iterations != ob.iterations || oa.cosines() != ob.cosines() {
            diverged += 1;
        }
    }
    assert!(
        diverged > 0,
        "shards reproduced identical stochastic trajectories on all {} queries",
        items.len()
    );
}

#[test]
fn carving_is_deterministic_and_ordered() {
    // Carving the same session twice (fresh parents) yields the same
    // shard lineages; the i-th carve is a pure function of (seed, i).
    let mut p1 = session(21);
    let mut p2 = session(21);
    let mut a1 = p1.carve_shard();
    let mut b1 = p1.carve_shard();
    let mut a2 = p2.carve_shard();
    let mut b2 = p2.carve_shard();
    assert_eq!(a1.generate(4), a2.generate(4));
    assert_eq!(b1.generate(4), b2.generate(4));
    assert_eq!(a1.seed(), a2.seed());
    assert_ne!(a1.seed(), b1.seed());
}

#[test]
fn heterogeneous_carve_preserves_codebooks_across_kinds() {
    let mut parent = session(22);
    let hw = parent.carve_shard_as(BackendKind::H3dFact);
    assert_eq!(hw.backend_kind(), BackendKind::H3dFact);
    assert_eq!(hw.codebooks(), parent.codebooks());
}
