//! Property-based tests for the VSA algebra invariants.

use hdc::rng::rng_from_seed;
use hdc::{bind_all, bundle, BipolarVector, Codebook, PackedCodebook, TieBreak};
use proptest::prelude::*;
use rand::Rng;

fn arb_dim() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=4, 60usize..=68, 120usize..=130, Just(256)]
}

fn arb_vector(dim: usize) -> impl Strategy<Value = BipolarVector> {
    proptest::collection::vec(prop_oneof![Just(1i8), Just(-1i8)], dim)
        .prop_map(|signs| BipolarVector::from_signs(&signs))
}

proptest! {
    #[test]
    fn bind_commutes(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
    }

    #[test]
    fn bind_associates(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        let c = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
    }

    #[test]
    fn bind_self_is_identity_vector(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&a), BipolarVector::ones(dim));
    }

    #[test]
    fn unbind_recovers_factor(dim in arb_dim(), seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let xs: Vec<_> = (0..3).map(|_| BipolarVector::random(dim, &mut rng)).collect();
        let product = bind_all(&xs);
        prop_assert_eq!(product.bind(&xs[1]).bind(&xs[2]), xs[0].clone());
    }

    #[test]
    fn dot_is_symmetric_and_bounded(v in arb_dim().prop_flat_map(|d| (arb_vector(d), arb_vector(d)))) {
        let (a, b) = v;
        prop_assert_eq!(a.dot(&b), b.dot(&a));
        prop_assert!(a.dot(&b).abs() <= a.dim() as i64);
        // Parity: dot ≡ dim (mod 2).
        prop_assert_eq!((a.dot(&b) - a.dim() as i64) % 2, 0);
    }

    #[test]
    fn dot_hamming_relation(v in arb_dim().prop_flat_map(|d| (arb_vector(d), arb_vector(d)))) {
        let (a, b) = v;
        prop_assert_eq!(a.dot(&b), a.dim() as i64 - 2 * a.hamming(&b) as i64);
    }

    #[test]
    fn binding_preserves_dot(dim in arb_dim(), seed in 0u64..1000) {
        // Binding by a common vector is an isometry of the dot product.
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        let k = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&k).dot(&b.bind(&k)), a.dot(&b));
    }

    #[test]
    fn permutation_is_bijective(dim in arb_dim(), k in 0usize..512, seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.permuted(k).inverse_permuted(k), a.clone());
        // Permutation preserves the number of +1 elements.
        prop_assert_eq!(a.permuted(k).count_positive(), a.count_positive());
    }

    #[test]
    fn permutation_distributes_over_bind(dim in arb_dim(), k in 0usize..64, seed in 0u64..1000) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let b = BipolarVector::random(dim, &mut rng);
        prop_assert_eq!(a.bind(&b).permuted(k), a.permuted(k).bind(&b.permuted(k)));
    }

    #[test]
    fn bundle_of_identical_is_identity(dim in arb_dim(), seed in 0u64..1000, n in 1usize..5) {
        let mut rng = rng_from_seed(seed);
        let a = BipolarVector::random(dim, &mut rng);
        let copies = vec![a.clone(); n];
        prop_assert_eq!(bundle(&copies, TieBreak::Parity), a);
    }

    #[test]
    fn cleanup_of_member_is_exact(m in 2usize..12, seed in 0u64..500) {
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, 256, &mut rng);
        for i in 0..m {
            prop_assert_eq!(cb.cleanup(cb.vector(i)).index, i);
        }
    }

    #[test]
    fn signs_roundtrip(v in arb_dim().prop_flat_map(arb_vector)) {
        prop_assert_eq!(BipolarVector::from_signs(&v.to_signs()), v);
    }

    #[test]
    fn reals_sign_roundtrip_through_words(v in arb_dim().prop_flat_map(arb_vector)) {
        // to_signs → reals → from_reals_sign reproduces the vector exactly
        // (all values non-zero, so no parity tie-breaking is involved),
        // covering the word-walk encoder/decoder pair including tails with
        // dim not a multiple of 64.
        let reals: Vec<f64> = v.to_signs().iter().map(|&s| s as f64).collect();
        prop_assert_eq!(BipolarVector::from_reals_sign(&reals), v.clone());
        let mut reused = BipolarVector::ones(v.dim());
        reused.assign_signs_of_reals(&reals);
        prop_assert_eq!(reused, v);
    }

    #[test]
    fn packed_similarity_mvm_equals_naive_dot_loop(
        m in 1usize..24,
        dim in arb_dim(),
        seed in 0u64..500,
    ) {
        // The packed popcount MVM must agree with one-vector-at-a-time
        // dots for every shape, including non-multiple-of-64 dimension
        // tails and row counts that defeat the lane-block fast path.
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, dim, &mut rng);
        let q = BipolarVector::random(dim, &mut rng);
        let naive: Vec<i64> = cb.vectors().iter().map(|v| v.dot(&q)).collect();
        prop_assert_eq!(cb.similarities(&q), naive.clone());
        let mut out = vec![0.0f64; m];
        cb.similarities_into(&q, &mut out);
        for (j, &n) in naive.iter().enumerate() {
            prop_assert_eq!(out[j], n as f64);
            prop_assert_eq!(cb.packed().dot_row(j, &q), n);
        }
    }

    #[test]
    fn packed_projection_matches_sign_loop(
        m in 1usize..12,
        dim in arb_dim(),
        seed in 0u64..500,
    ) {
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, dim, &mut rng);
        // Integer weights keep both accumulation orders exact in f64.
        let weights: Vec<f64> = (0..m).map(|j| (j % 5) as f64 - 2.0).collect();
        let mut sums = vec![0.0f64; dim];
        cb.packed().weighted_sums_into(&weights, &mut sums);
        for (i, &s) in sums.iter().enumerate() {
            let expect: f64 = cb
                .vectors()
                .iter()
                .zip(&weights)
                .map(|(v, &w)| w * v.sign(i) as f64)
                .sum();
            prop_assert_eq!(s, expect);
        }
    }

    #[test]
    fn packed_projection_densities_agree_at_edge_dimensions(
        m in 9usize..24,
        dim in arb_dim(),
        seed in 0u64..500,
        dense in prop_oneof![Just(false), Just(true)],
    ) {
        // One active row and all rows active both go through the
        // dispatched bit-unpack accumulate; both must equal the naive
        // sign loop at every dimension shape — D < 64, ragged tails, and
        // exact multiples alike — and so must the unpacked
        // `ops::weighted_sums_into` twin.
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(m, dim, &mut rng);
        let weights: Vec<f64> = if dense {
            (0..m).map(|j| (j % 7) as f64 - 3.0).collect()
        } else {
            let mut w = vec![0.0; m];
            w[m / 2] = 2.0;
            w
        };
        let mut packed_out = vec![0.0f64; dim];
        cb.packed().weighted_sums_into(&weights, &mut packed_out);
        let mut unpacked_out = vec![0.0f64; dim];
        hdc::ops::weighted_sums_into(cb.vectors(), &weights, &mut unpacked_out);
        for i in 0..dim {
            let expect: f64 = cb
                .vectors()
                .iter()
                .zip(&weights)
                .map(|(v, &w)| w * v.sign(i) as f64)
                .sum();
            prop_assert_eq!(packed_out[i], expect, "packed dense={} element {}", dense, i);
            prop_assert_eq!(unpacked_out[i], expect, "unpacked dense={} element {}", dense, i);
        }
    }

    #[test]
    fn single_row_packed_codebook_matches_naive(
        dim in arb_dim(),
        seed in 0u64..500,
        w in -4i8..=4,
    ) {
        // M = 1 defeats the lane-block similarity fast path entirely and
        // makes every projection dense (8·active > 1): the degenerate
        // codebook a service shard sees for a one-item attribute.
        let mut rng = rng_from_seed(seed);
        let cb = Codebook::random(1, dim, &mut rng);
        let q = BipolarVector::random(dim, &mut rng);
        let mut sims = vec![0.0f64; 1];
        cb.similarities_into(&q, &mut sims);
        prop_assert_eq!(sims[0], cb.vector(0).dot(&q) as f64);
        let mut sums = vec![0.0f64; dim];
        cb.packed().weighted_sums_into(&[w as f64], &mut sums);
        for (i, &s) in sums.iter().enumerate() {
            prop_assert_eq!(s, w as f64 * cb.vector(0).sign(i) as f64);
        }
    }

    #[test]
    fn copy_bit_range_roundtrips_at_ragged_boundaries(
        src_dim in 65usize..200,
        start_word in 0usize..2,
        ragged in 0usize..64,
        seed in 0u64..500,
    ) {
        // Extracting [start, start+d) must reproduce the source bits for
        // word-aligned starts (the fast word-copy path) and ragged starts
        // (the per-bit path) alike, with the destination's padding tail
        // kept masked so algebra on the slice stays exact.
        let mut rng = rng_from_seed(seed);
        let src = BipolarVector::random(src_dim, &mut rng);
        let start = (start_word * 64 + ragged).min(src_dim - 1);
        let d = src_dim - start;
        for slice_dim in [1usize, d / 2, d].into_iter().filter(|&n| n > 0) {
            let mut dst = BipolarVector::ones(slice_dim);
            dst.copy_bit_range_from(&src, start);
            for i in 0..slice_dim {
                prop_assert_eq!(
                    dst.sign(i),
                    src.sign(start + i),
                    "start {} slice_dim {} bit {}",
                    start,
                    slice_dim,
                    i
                );
            }
            // Tail discipline: the extracted slice must behave as a
            // first-class vector (binding with itself yields identity,
            // which fails if padding bits leak).
            prop_assert_eq!(dst.bind(&dst), BipolarVector::ones(slice_dim));
        }
        // The full-range aligned copy is an exact clone.
        let mut whole = BipolarVector::ones(src_dim);
        whole.copy_bit_range_from(&src, 0);
        prop_assert_eq!(whole, src);
    }

    #[test]
    fn every_dispatch_arm_is_bit_identical_to_naive_reference(
        m in prop_oneof![1usize..=3, 7usize..=9, Just(16), Just(33)],
        dim in prop_oneof![1usize..=4, 60usize..=68, 1000usize..=1030, Just(1024), Just(2048)],
        b in prop_oneof![Just(1usize), 2usize..=5, Just(17)],
        seed in 0u64..500,
    ) {
        // The runtime-dispatch contract: every arm this host can execute
        // (forced scalar / AVX2 CSA / AVX-512 vector-popcount) must
        // reproduce the naive i64 dot loop exactly, and match the scalar
        // arm's projection bit for bit, over ragged shapes — D < 64,
        // non-word tails, partial strips — for `b` queries per case.
        // Unsupported arms are skipped (their identity is CI-enforced on
        // hosts that have them).
        let mut rng = rng_from_seed(seed);
        let book = Codebook::random(m, dim, &mut rng);
        let queries: Vec<BipolarVector> =
            (0..b).map(|_| BipolarVector::random(dim, &mut rng)).collect();
        for (bi, q) in queries.iter().enumerate() {
            let weights: Vec<f64> = (0..m).map(|j| (((bi * m + j) % 5) as f64) - 2.0).collect();
            let mut proj_scalar = vec![0.0f64; dim];
            book.packed()
                .weighted_sums_into_forced(&weights, &mut proj_scalar, hdc::SimdArm::Scalar);
            for arm in hdc::SimdArm::ALL {
                if !arm.supported() {
                    continue;
                }
                let mut sims = vec![0.0f64; m];
                book.packed().similarities_into_forced(q, &mut sims, arm);
                for (j, &sim) in sims.iter().enumerate() {
                    let naive: i64 = book
                        .vector(j)
                        .to_signs()
                        .iter()
                        .zip(q.to_signs())
                        .map(|(&x, y)| (x as i64) * (y as i64))
                        .sum();
                    prop_assert_eq!(
                        sim,
                        naive as f64,
                        "arm {} m {} dim {} query {} row {}",
                        arm, m, dim, bi, j
                    );
                }
                let mut proj = vec![0.0f64; dim];
                book.packed().weighted_sums_into_forced(&weights, &mut proj, arm);
                for (i, (x, y)) in proj.iter().zip(&proj_scalar).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "arm {} proj m {} dim {} query {} element {}",
                        arm, m, dim, bi, i
                    );
                }
            }
        }
    }

    #[test]
    fn argmax_abs_equals_the_row_walk_max_by_key(
        m in prop_oneof![Just(1usize), Just(7), Just(8), Just(9), Just(17), Just(64)],
        dim in prop_oneof![Just(64usize), Just(100), Just(256), Just(1000)],
        seed in 0u64..500,
    ) {
        // The blocked decode must pick exactly what `max_by_key` over the
        // per-row dots picks, ties included (the last row with the largest
        // key wins), on every arm, with and without the lane mirror.
        // Duplicated and negated rows force ties in |dot|; a query equal
        // to a row (or its negation) makes the tied rows the maximum.
        let mut rng = rng_from_seed(seed);
        let mut rows: Vec<BipolarVector> =
            (0..m).map(|_| BipolarVector::random(dim, &mut rng)).collect();
        for j in 0..m {
            let src = rng.gen_range(0..m);
            match rng.gen_range(0..4) {
                0 => rows[j] = rows[src].clone(),
                1 => rows[j] = rows[src].negated(),
                _ => {}
            }
        }
        let row_query = rows[rng.gen_range(0..m)].clone();
        let queries = [
            BipolarVector::random(dim, &mut rng),
            row_query.negated(),
            row_query,
        ];
        let full = PackedCodebook::from_vectors(&rows);
        let rows_only = PackedCodebook::from_vectors_row_major(&rows);
        let book = Codebook::from_vectors(rows);
        for q in &queries {
            let dots: Vec<(usize, i64)> = (0..m).map(|j| (j, full.dot_row(j, q))).collect();
            let by_abs = *dots.iter().max_by_key(|&&(_, d)| d.abs()).unwrap();
            let signed = *dots.iter().max_by_key(|&&(_, d)| d).unwrap();
            for packed in [&full, &rows_only] {
                prop_assert_eq!(packed.argmax_abs(q), by_abs);
                for arm in hdc::SimdArm::ALL.into_iter().filter(|a| a.supported()) {
                    prop_assert_eq!(
                        packed.argmax_abs_forced(q, arm),
                        by_abs,
                        "arm {} m {} dim {} mirror {}",
                        arm, m, dim, packed.has_lane_mirror()
                    );
                }
            }
            let hit = book.cleanup_abs(q);
            prop_assert_eq!((hit.index, hit.dot), by_abs);
            let hit = book.cleanup(q);
            prop_assert_eq!((hit.index, hit.dot), signed);
        }
    }
}
