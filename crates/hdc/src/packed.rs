//! Packed codebook matrix kernels: the cache-friendly hot path behind the
//! resonator's two MVMs.
//!
//! A [`crate::Codebook`] stores its item vectors as separate
//! [`BipolarVector`]s — convenient for the algebra, but every similarity
//! MVM then chases `M` separate heap allocations. [`PackedCodebook`] lays
//! all `M` codevectors' `u64` words out **row-major in one contiguous
//! buffer**, so the similarity MVM (`a = Xᵀ q`) streams memory linearly and
//! the projection MVM (`r = X a`) unpacks each active row exactly once.
//!
//! # Kernel contract
//!
//! All kernels write into caller-provided output slices and allocate
//! nothing. Callers own the scratch:
//!
//! - [`PackedCodebook::similarities_into`] / `similarities_i64_into` —
//!   `out.len() == len()` (`M` dot products).
//! - [`PackedCodebook::weighted_sums_into`] — `out.len() == dim()` (`D`
//!   pre-sign projection sums).
//!
//! # Blocking
//!
//! The similarity MVM processes rows in lane-major blocks of eight
//! ([`LANE_BLOCK`]): each query word is broadcast against one contiguous
//! load of eight rows' words, and the eight partial counts accumulate in
//! independent SIMD lanes with no horizontal reduction inside the loop.
//! The projection MVM skips zero-weight rows entirely (the common case
//! after the sparsifying ADC activation) and unpacks every active row
//! through the dispatched masked accumulate, recovering the signed sum as
//! `2·(Σ_{set} w) − Σ w` per element.
//!
//! Both MVMs reduce through the runtime kernel table of
//! [`crate::dispatch`] — explicit AVX-512 `vpopcntq` strips or an AVX2
//! Harley–Seal carry-save tree when the host has them, the portable
//! scalar kernels otherwise. Every arm is exact-integer and bit-identical
//! (see the dispatch module docs for the contract), so the selection
//! affects latency only. The `*_forced` kernel variants pin a specific
//! [`SimdArm`] for tests and benches.

use serde::{Deserialize, Serialize};

use crate::bipolar::BipolarVector;
use crate::dispatch::{self, KernelTable, SimdArm, STRIP_LANES};

/// Number of elements packed into one storage word.
const WORD_BITS: usize = 64;

/// How many codevector rows share one SIMD accumulation block in the
/// lane-major similarity kernel (one dispatch-table strip).
const LANE_BLOCK: usize = STRIP_LANES;

/// All `M` codevectors of one codebook in contiguous word buffers, with
/// allocation-free popcount MVM kernels.
///
/// Up to two mirrors of the same bits are kept:
///
/// - **row-major** (`words[j·W .. (j+1)·W]` is row `j`) — always present;
///   used by [`PackedCodebook::row`], per-row dots, and the projection
///   kernel;
/// - **lane-major** (`lane_words[i·M + j]` is word `i` of row `j`) — used
///   by the similarity MVM so that eight consecutive rows' partial counts
///   accumulate in independent SIMD lanes with a single contiguous load
///   per word position and no horizontal reductions inside the loop.
///
/// The lane-major mirror is **optional**: [`Self::from_vectors`] builds
/// both mirrors, [`Self::from_vectors_row_major`] only the row-major
/// one, and [`Self::drop_lane_mirror`] /
/// [`Self::materialize_lane_mirror`] move between the two states (the
/// codebook registry's cold and hot tiers). Every kernel is
/// **value-identical** in either state — all similarity outputs are
/// exact integers in `[-D, D]` with a unique `f64` representation, so
/// the per-row fallback taken when the mirror is absent produces the
/// same bits as the lane-major walk, just without its locality.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedCodebook {
    len: usize,
    dim: usize,
    words_per_row: usize,
    words: Vec<u64>,
    lane_words: Vec<u64>,
}

impl PackedCodebook {
    /// Packs `vectors` (all of one dimension) into both contiguous
    /// layouts (row-major + lane-major).
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or dimensions disagree.
    pub fn from_vectors(vectors: &[BipolarVector]) -> Self {
        let mut packed = Self::from_vectors_row_major(vectors);
        packed.materialize_lane_mirror();
        packed
    }

    /// Packs `vectors` row-major only, leaving the lane-major mirror
    /// unmaterialized — the cold-tier representation of the codebook
    /// registry. Every kernel stays available and value-identical; the
    /// similarity paths take the per-row walk until
    /// [`Self::materialize_lane_mirror`] builds the mirror.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or dimensions disagree.
    pub fn from_vectors_row_major(vectors: &[BipolarVector]) -> Self {
        assert!(!vectors.is_empty(), "packed codebook must be non-empty");
        let dim = vectors[0].dim();
        let words_per_row = dim.div_ceil(WORD_BITS);
        let m = vectors.len();
        let mut words = Vec::with_capacity(m * words_per_row);
        for v in vectors {
            assert_eq!(v.dim(), dim, "packed codebook vectors must share dim");
            words.extend_from_slice(v.words());
        }
        Self {
            len: m,
            dim,
            words_per_row,
            words,
            lane_words: Vec::new(),
        }
    }

    /// Builds the lane-major mirror from the row-major words (no-op when
    /// already present). This is the hot-tier promotion step of the
    /// codebook registry; kernel outputs are bit-identical before and
    /// after.
    pub fn materialize_lane_mirror(&mut self) {
        if !self.lane_words.is_empty() {
            return;
        }
        let m = self.len;
        let mut lane_words = vec![0u64; m * self.words_per_row];
        for j in 0..m {
            for (i, &w) in self.row(j).iter().enumerate() {
                lane_words[i * m + j] = w;
            }
        }
        self.lane_words = lane_words;
    }

    /// Drops the lane-major mirror, keeping only the row-major words —
    /// the hot→cold demotion step of the codebook registry. Kernel
    /// outputs are bit-identical before and after; the similarity paths
    /// fall back to the per-row walk until the mirror is rebuilt.
    pub fn drop_lane_mirror(&mut self) {
        self.lane_words = Vec::new();
    }

    /// True when the lane-major mirror is materialized.
    pub fn has_lane_mirror(&self) -> bool {
        !self.lane_words.is_empty()
    }

    /// Bytes held by the row-major words (always resident).
    pub fn row_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Bytes currently held by the lane-major mirror (0 when absent;
    /// equal to [`Self::row_bytes`] when materialized).
    pub fn lane_mirror_bytes(&self) -> usize {
        self.lane_words.len() * std::mem::size_of::<u64>()
    }

    /// Number of rows (codevectors) `M`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false: packed codebooks are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hypervector dimension `D`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Words per packed row (`ceil(D / 64)`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Borrows the packed words of row `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()`.
    #[inline]
    pub fn row(&self, j: usize) -> &[u64] {
        &self.words[j * self.words_per_row..(j + 1) * self.words_per_row]
    }

    /// Dot product of row `j` with `query` (exact, via XOR-popcount).
    ///
    /// # Panics
    ///
    /// Panics if `j >= len()` or the query dimension differs.
    #[inline]
    pub fn dot_row(&self, j: usize, query: &BipolarVector) -> i64 {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let k = dispatch::active();
        self.dim as i64 - 2 * (k.disagreement)(self.row(j), query.words()) as i64
    }

    /// Similarity MVM `a = Xᵀ q` into `out` as `f64` (values are exact
    /// integers in `[-D, D]`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != len()` or the query dimension differs.
    pub fn similarities_into(&self, query: &BipolarVector, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "similarity output length mismatch");
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        self.similarities_words_into(query.words(), out, dispatch::active());
    }

    /// [`PackedCodebook::similarities_into`] pinned to one dispatch arm —
    /// the per-arm bit-identity probe used by tests and the bench
    /// harness.
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm` (callers filter with
    /// [`SimdArm::supported`]), plus the usual shape panics.
    pub fn similarities_into_forced(&self, query: &BipolarVector, out: &mut [f64], arm: SimdArm) {
        assert_eq!(out.len(), self.len, "similarity output length mismatch");
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        self.similarities_words_into(query.words(), out, forced_table(arm));
    }

    /// The similarity kernel over raw packed words, behind both
    /// [`PackedCodebook::similarities_into`] and its forced-arm variant.
    fn similarities_words_into(&self, q: &[u64], out: &mut [f64], k: &KernelTable) {
        let d = self.dim as i64;
        let m = self.len;
        if self.lane_words.is_empty() {
            // Cold (row-major-only) codebooks: the per-row walk over the
            // same packed bits. Every similarity is the same exact
            // integer either way, so this fallback is bit-identical to
            // the lane-major path — it only trades the blocked locality.
            for (j, o) in out.iter_mut().enumerate() {
                *o = (d - 2 * (k.disagreement)(self.row(j), q) as i64) as f64;
            }
            return;
        }
        let mut j = 0;
        // Lane-major blocks: each pass keeps LANE_BLOCK row counters in
        // independent lanes; every word position contributes one
        // contiguous LANE_BLOCK-wide load XOR'd against the broadcast
        // query word — no horizontal reduction until the block finishes.
        while j + LANE_BLOCK <= m {
            let counts = (k.strip8)(&self.lane_words, m, q.len(), j, q);
            for (o, &c) in out[j..j + LANE_BLOCK].iter_mut().zip(&counts) {
                *o = (d - 2 * c as i64) as f64;
            }
            j += LANE_BLOCK;
        }
        while j < m {
            out[j] = (d - 2 * (k.disagreement)(self.row(j), q) as i64) as f64;
            j += 1;
        }
    }

    /// The decode: the row with the largest `|dot|` against `query`, as
    /// `(index, dot)` with the dot's sign kept. Ties go to the **last**
    /// such row, as with `max_by_key` over the per-row dots. One
    /// allocation-free pass over the lane-major strips (the row walk
    /// without a mirror), so it costs one similarity MVM and no buffer.
    ///
    /// # Panics
    ///
    /// Panics if the query dimension differs.
    pub fn argmax_abs(&self, query: &BipolarVector) -> (usize, i64) {
        self.argmax_by_key(query, dispatch::active(), i64::abs)
    }

    /// [`PackedCodebook::argmax_abs`] pinned to one dispatch arm (see
    /// [`PackedCodebook::similarities_into_forced`]).
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm`, or the query dimension
    /// differs.
    pub fn argmax_abs_forced(&self, query: &BipolarVector, arm: SimdArm) -> (usize, i64) {
        self.argmax_by_key(query, forced_table(arm), i64::abs)
    }

    /// The row maximizing `key(dot)`, the last one on ties; behind both
    /// decodes ([`PackedCodebook::argmax_abs`] and the signed
    /// [`crate::Codebook::cleanup`]).
    pub(crate) fn argmax_by_key(
        &self,
        query: &BipolarVector,
        k: &KernelTable,
        key: impl Fn(i64) -> i64,
    ) -> (usize, i64) {
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let q = query.words();
        let d = self.dim as i64;
        let m = self.len;
        let (mut best, mut best_key) = ((0, 0), i64::MIN);
        let mut offer = |j: usize, dot: i64| {
            let kd = key(dot);
            if kd >= best_key {
                best = (j, dot);
                best_key = kd;
            }
        };
        // The similarity kernel's walk (lane strips, then the row tail),
        // with each dot offered to the running maximum instead of stored.
        let mut j = 0;
        if !self.lane_words.is_empty() {
            while j + LANE_BLOCK <= m {
                let counts = (k.strip8)(&self.lane_words, m, q.len(), j, q);
                for (l, &c) in counts.iter().enumerate() {
                    offer(j + l, d - 2 * c as i64);
                }
                j += LANE_BLOCK;
            }
        }
        while j < m {
            offer(j, d - 2 * (k.disagreement)(self.row(j), q) as i64);
            j += 1;
        }
        best
    }

    /// Similarity MVM `a = Xᵀ q` into `out` as `i64`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != len()` or the query dimension differs.
    pub fn similarities_i64_into(&self, query: &BipolarVector, out: &mut [i64]) {
        assert_eq!(out.len(), self.len, "similarity output length mismatch");
        assert_eq!(query.dim(), self.dim, "query dimension mismatch");
        let k = dispatch::active();
        let q = query.words();
        let d = self.dim as i64;
        for (j, o) in out.iter_mut().enumerate() {
            *o = d - 2 * (k.disagreement)(self.row(j), q) as i64;
        }
    }

    /// Projection MVM `r = X a` into `out`: `out[i] = Σ_j w_j · x_{j,i}`.
    ///
    /// Zero-weight rows are skipped (free sparsity after the quantizing
    /// activation: about `M/8` rows are active in a stochastic run);
    /// every active row goes through the dispatched bit-unpack
    /// accumulate, adding `w` on its set bits only, and the signed sum is
    /// recovered as `2·acc − Σ w` per element.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != dim()` or `weights.len() != len()`.
    pub fn weighted_sums_into(&self, weights: &[f64], out: &mut [f64]) {
        self.weighted_sums_into_k(weights, out, dispatch::active());
    }

    /// [`PackedCodebook::weighted_sums_into`] pinned to one dispatch arm
    /// (see [`PackedCodebook::similarities_into_forced`]).
    ///
    /// # Panics
    ///
    /// Panics if this host cannot execute `arm`, plus the usual shape
    /// panics.
    pub fn weighted_sums_into_forced(&self, weights: &[f64], out: &mut [f64], arm: SimdArm) {
        self.weighted_sums_into_k(weights, out, forced_table(arm));
    }

    fn weighted_sums_into_k(&self, weights: &[f64], out: &mut [f64], k: &KernelTable) {
        assert_eq!(out.len(), self.dim, "projection output length mismatch");
        assert_eq!(weights.len(), self.len, "weight count mismatch");
        out.fill(0.0);
        let mut total = 0.0f64;
        // Masked SIMD adds on the explicit arms, the branchless select on
        // the scalar arm. Every arm accumulates element-wise identically
        // for finite weights (adding a masked `wj` vs `wj·1`, nothing vs
        // `wj·0`), so the arm choice cannot move outputs.
        for (j, &wj) in weights.iter().enumerate() {
            total += wj;
            if wj == 0.0 {
                continue;
            }
            (k.dense_accum)(self.row(j), wj, out);
        }
        for o in out.iter_mut() {
            *o = 2.0 * *o - total;
        }
    }
}

/// Resolves the kernel table of a caller-pinned arm, panicking with a
/// actionable message when the host cannot run it (the `*_forced`
/// variants' contract; callers filter with [`SimdArm::supported`]).
fn forced_table(arm: SimdArm) -> &'static KernelTable {
    dispatch::table(arm)
        .unwrap_or_else(|| panic!("dispatch arm `{arm}` is not supported on this host"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    fn vectors(m: usize, d: usize, seed: u64) -> Vec<BipolarVector> {
        let mut rng = rng_from_seed(seed);
        (0..m).map(|_| BipolarVector::random(d, &mut rng)).collect()
    }

    #[test]
    fn similarities_match_naive_dots() {
        for (m, d) in [(1, 64), (5, 100), (8, 256), (13, 1000)] {
            let vs = vectors(m, d, 31);
            let packed = PackedCodebook::from_vectors(&vs);
            let q = BipolarVector::random(d, &mut rng_from_seed(32));
            let mut out = vec![0.0; m];
            packed.similarities_into(&q, &mut out);
            let mut out_i = vec![0i64; m];
            packed.similarities_i64_into(&q, &mut out_i);
            for (j, v) in vs.iter().enumerate() {
                assert_eq!(out[j], v.dot(&q) as f64, "m={m} d={d} row {j}");
                assert_eq!(out_i[j], v.dot(&q), "m={m} d={d} row {j}");
                assert_eq!(packed.dot_row(j, &q), v.dot(&q));
            }
        }
    }

    #[test]
    fn weighted_sums_match_reference() {
        let (m, d) = (9, 130);
        let vs = vectors(m, d, 33);
        let packed = PackedCodebook::from_vectors(&vs);
        let weights: Vec<f64> = (0..m).map(|j| (j as f64) - 3.0).collect();
        let mut out = vec![0.0; d];
        packed.weighted_sums_into(&weights, &mut out);
        for (i, &o) in out.iter().enumerate() {
            let expect: f64 = vs
                .iter()
                .zip(&weights)
                .map(|(v, &w)| w * v.sign(i) as f64)
                .sum();
            assert!((o - expect).abs() < 1e-9, "element {i}");
        }
    }

    #[test]
    fn weighted_sums_skip_zero_rows_exactly() {
        let vs = vectors(3, 256, 34);
        let packed = PackedCodebook::from_vectors(&vs);
        let mut out = vec![0.0; 256];
        packed.weighted_sums_into(&[0.0, 1.0, 0.0], &mut out);
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, vs[1].sign(i) as f64);
        }
    }

    #[test]
    fn layout_is_contiguous_row_major() {
        let vs = vectors(4, 200, 35);
        let packed = PackedCodebook::from_vectors(&vs);
        assert_eq!(packed.len(), 4);
        assert_eq!(packed.dim(), 200);
        assert_eq!(packed.words_per_row(), 4);
        for (j, v) in vs.iter().enumerate() {
            assert_eq!(packed.row(j), v.words());
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        let _ = PackedCodebook::from_vectors(&[]);
    }

    #[test]
    fn row_major_only_kernels_match_full_mirrors_bitwise() {
        // The cold-tier representation must be kernel-for-kernel
        // value-identical: similarities over shapes with no full strip,
        // one strip, CSA-eligible rows, and a streaming-sized codebook.
        for (m, d, b) in [(1, 48, 1), (8, 256, 4), (24, 2048, 5), (512, 2048, 3)] {
            let vs = vectors(m, d, 70);
            let full = PackedCodebook::from_vectors(&vs);
            let cold = PackedCodebook::from_vectors_row_major(&vs);
            assert!(full.has_lane_mirror());
            assert!(!cold.has_lane_mirror());
            assert_eq!(cold.lane_mirror_bytes(), 0);
            assert_eq!(full.lane_mirror_bytes(), full.row_bytes());
            let mut rng = rng_from_seed(71);
            let queries: Vec<BipolarVector> =
                (0..b).map(|_| BipolarVector::random(d, &mut rng)).collect();
            let (mut a, mut c) = (vec![0.0f64; m], vec![0.0f64; m]);
            for q in &queries {
                full.similarities_into(q, &mut a);
                cold.similarities_into(q, &mut c);
                for j in 0..m {
                    assert_eq!(a[j].to_bits(), c[j].to_bits(), "m={m} d={d} row {j}");
                }
            }
        }
    }

    #[test]
    fn lane_mirror_round_trips_exactly() {
        let vs = vectors(13, 1000, 72);
        let full = PackedCodebook::from_vectors(&vs);
        let mut cycled = full.clone();
        cycled.drop_lane_mirror();
        assert!(!cycled.has_lane_mirror());
        assert_ne!(cycled, full, "mirror presence is part of derived equality");
        cycled.materialize_lane_mirror();
        assert_eq!(cycled, full, "drop + rematerialize must be lossless");
        // Re-materializing a hot codebook is a no-op.
        cycled.materialize_lane_mirror();
        assert_eq!(cycled, full);
    }

    #[test]
    fn forced_arms_match_scalar_bitwise_across_kernels() {
        // Every host-supported dispatch arm must reproduce the scalar
        // arm bit-for-bit on both forced kernels, over shapes straddling
        // every boundary (D < 64, ragged tails, partial strips, CSA
        // blocks, a streaming-sized codebook). The per-strip kernels
        // themselves are pinned against the naive reference in
        // `dispatch::tests`; this covers the full kernel plumbing per arm.
        for (m, d, b) in [
            (1, 48, 1),
            (5, 100, 3),
            (13, 1000, 7),
            (24, 2048, 5),
            (512, 2048, 3),
        ] {
            let vs = vectors(m, d, 80);
            let packed = PackedCodebook::from_vectors(&vs);
            let mut rng = rng_from_seed(81);
            for bi in 0..b {
                let q = BipolarVector::random(d, &mut rng);
                let weights: Vec<f64> = (0..m).map(|j| (((bi + j) % 7) as f64) - 3.0).collect();
                let (mut sim_ref, mut proj_ref) = (vec![0.0f64; m], vec![0.0f64; d]);
                packed.similarities_into_forced(&q, &mut sim_ref, SimdArm::Scalar);
                packed.weighted_sums_into_forced(&weights, &mut proj_ref, SimdArm::Scalar);
                for arm in SimdArm::ALL {
                    if !arm.supported() {
                        continue;
                    }
                    let (mut sim, mut proj) = (vec![0.0f64; m], vec![0.0f64; d]);
                    packed.similarities_into_forced(&q, &mut sim, arm);
                    packed.weighted_sums_into_forced(&weights, &mut proj, arm);
                    for (j, (x, y)) in sim.iter().zip(&sim_ref).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{arm} sim m={m} d={d} q={bi} row {j}"
                        );
                    }
                    for (i, (x, y)) in proj.iter().zip(&proj_ref).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{arm} proj m={m} d={d} q={bi} elt {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not supported")]
    fn forcing_an_unsupported_arm_panics() {
        let arm = SimdArm::ALL
            .into_iter()
            .find(|a| !a.supported())
            .unwrap_or_else(|| panic!("all arms supported — simulate: not supported on this host"));
        let vs = vectors(2, 64, 82);
        let packed = PackedCodebook::from_vectors(&vs);
        let q = BipolarVector::random(64, &mut rng_from_seed(83));
        let mut out = vec![0.0; 2];
        packed.similarities_into_forced(&q, &mut out, arm);
    }
}
