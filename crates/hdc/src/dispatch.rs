//! Runtime-dispatched SIMD kernels for the packed-codebook hot path.
//!
//! The popcount kernels in [`crate::packed`] used to pick their reduction
//! at **compile time** (`cfg!(target_feature = "avx512vpopcntdq")`), so a
//! portable build (`RUSTFLAGS=""`) never saw a vector unit even on a host
//! that has one — `u64::count_ones` lowers to a ~5-op nibble emulation on
//! the x86-64 baseline target. This module moves the choice to **startup**:
//! CPU features are detected once with `is_x86_feature_detected!`, a
//! [`KernelTable`] of plain function pointers is cached in a `OnceLock`,
//! and every kernel call dispatches through it. Portable builds get the
//! explicit-SIMD path at runtime; `target-cpu=native` builds lose nothing.
//!
//! # Dispatch arms
//!
//! | arm | requires | similarity reduction |
//! |---|---|---|
//! | [`SimdArm::Scalar`] | nothing | portable `count_ones` tiles (the pre-dispatch code, autovectorized at best) |
//! | [`SimdArm::Avx2Csa`] | `avx2`, `popcnt` | explicit AVX2 Harley–Seal carry-save tree, hardware-`popcnt` drains |
//! | [`SimdArm::Avx512Popcnt`] | `avx512f`, `avx512vpopcntdq`, `popcnt` | explicit per-word `vpopcntq` tile |
//!
//! The best supported arm is chosen automatically; the `H3DFACT_SIMD`
//! environment variable (`scalar` / `csa` / `vpopcnt`, read once at first
//! dispatch) forces an arm for CI and benchmarking. Forcing an arm the
//! host cannot run falls back to auto-detection and is recorded in
//! [`Detection::forced_unsupported`] — it never selects an illegal arm.
//!
//! # Bit-identity contract
//!
//! Every arm computes **exact integer** popcount reductions and
//! **element-wise identical** floating-point accumulations, so all arms
//! produce bit-for-bit identical outputs for every kernel — pinned by the
//! in-crate unit tests below, the property suite in `tests/properties.rs`
//! (which forces each supported arm against the naive reference), and the
//! bench harness asserts. Tier promotion, thread count, and host CPU can
//! therefore never change a result, only its latency.
//!
//! # Safety
//!
//! This is the only module in the crate allowed `unsafe` (the crate-level
//! lint is `deny(unsafe_code)` with a targeted allow in `lib.rs`). The
//! unsafe surface is exactly: `#[target_feature]`-gated intrinsic bodies
//! plus the aligned-width loads inside them. Each body is reachable only
//! through its safe wrapper, each wrapper asserts the slice bounds the
//! pointer arithmetic relies on, and each wrapper is only ever published
//! through a [`KernelTable`] whose construction verified the CPU features
//! at runtime ([`SimdArm::supported`]).

use std::sync::OnceLock;

/// Words reduced per Harley–Seal carry-save-adder block: 15 CSA steps
/// compress 16 XORed words into five carry-tier words
/// (`ones`/`twos`/`fours`/`eights`/`sixteens`), so the hot loop issues
/// five `count_ones` per block instead of sixteen — a ~3× reduction in
/// popcount traffic. Rows shorter than one block (`D < 1024`) reduce
/// through the per-word tail instead.
pub const CSA_BLOCK_WORDS: usize = 16;

/// Row lanes per strip of the lane-major similarity kernel: 8 × `u64` =
/// one 512-bit vector (or two 256-bit halves on AVX2).
pub(crate) const STRIP_LANES: usize = 8;

/// True when the *build target* counts bits in hardware vector units
/// (AVX-512 `VPOPCNTDQ` enabled at compile time, e.g. by
/// `target-cpu=native` on recent x86 servers). Only the [`SimdArm::Scalar`]
/// arm consults this: with native vector popcount its portable per-word
/// tile is already optimal, without it the portable Harley–Seal tree wins.
/// The explicit arms carry their own feature proofs.
const NATIVE_VECTOR_POPCOUNT: bool = cfg!(target_feature = "avx512vpopcntdq");

/// One runtime-selectable kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdArm {
    /// Portable fallback: the pre-dispatch `count_ones` kernels, exactly
    /// as compiled for the build target (autovectorized under
    /// `target-cpu=native`, nibble-emulated popcounts on the baseline).
    Scalar,
    /// Explicit AVX2 Harley–Seal carry-save-adder tree over 256-bit
    /// lanes with hardware-`popcnt` tier drains.
    Avx2Csa,
    /// Explicit AVX-512 per-word `vpopcntq` tile (one vector popcount
    /// per eight row-words).
    Avx512Popcnt,
}

impl SimdArm {
    /// Every arm, best first — the auto-detection preference order.
    pub const ALL: [SimdArm; 3] = [SimdArm::Avx512Popcnt, SimdArm::Avx2Csa, SimdArm::Scalar];

    /// Stable lowercase name (used in bench provenance and accepted by
    /// the `H3DFACT_SIMD` override).
    pub fn name(self) -> &'static str {
        match self {
            SimdArm::Scalar => "scalar",
            SimdArm::Avx2Csa => "csa",
            SimdArm::Avx512Popcnt => "vpopcnt",
        }
    }

    /// Parses an override spelling (`H3DFACT_SIMD`); aliases accepted.
    pub fn parse(s: &str) -> Option<SimdArm> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" | "portable" => Some(SimdArm::Scalar),
            "csa" | "avx2" | "avx2-csa" | "harley-seal" => Some(SimdArm::Avx2Csa),
            "vpopcnt" | "avx512" | "avx512-vpopcnt" | "vpopcntdq" => Some(SimdArm::Avx512Popcnt),
            _ => None,
        }
    }

    /// True when this host can execute the arm (checked with
    /// `is_x86_feature_detected!`; non-x86 hosts support only
    /// [`SimdArm::Scalar`]).
    pub fn supported(self) -> bool {
        match self {
            SimdArm::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdArm::Avx2Csa => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "x86_64")]
            SimdArm::Avx512Popcnt => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for SimdArm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Signature of the one-query 8-row strip reduction:
/// `(lane_words, m, w, j0, q) -> counts[8]` where lane `l` reduces
/// `Σ_i popcount(lane_words[i·m + j0 + l] ^ q[i])`.
pub type Strip8Fn = fn(&[u64], usize, usize, usize, &[u64]) -> [u64; STRIP_LANES];

/// The dispatched kernel entry points of one arm. All function pointers
/// are plain safe `fn`s (wrappers asserting bounds around the gated
/// intrinsic bodies); a table for an arm the host cannot run is never
/// handed out ([`table`] returns `None`).
pub struct KernelTable {
    /// Which arm this table implements.
    pub arm: SimdArm,
    /// Number of disagreeing bit positions between two equal-length
    /// packed rows (the XOR-popcount behind every dot product).
    pub disagreement: fn(&[u64], &[u64]) -> u64,
    /// XOR-popcounts of one 8-row lane-major strip against one query.
    pub strip8: Strip8Fn,
    /// Dense projection accumulate: `out[i] += wj · bit_i(words)` for
    /// every unpacked bit, element-wise identical to the scalar
    /// reference (`out.len() ≤ 64·words.len()`; trailing bits ignored).
    pub dense_accum: fn(&[u64], f64, &mut [f64]),
}

impl std::fmt::Debug for KernelTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelTable")
            .field("arm", &self.arm)
            .finish()
    }
}

/// What startup detection saw and chose — recorded in bench provenance so
/// numbers from different hosts (or forced-arm CI runs) stay comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// The arm every undirected kernel call dispatches to.
    pub arm: SimdArm,
    /// The arm `H3DFACT_SIMD` asked for, when set and parsable.
    pub forced: Option<SimdArm>,
    /// True when `H3DFACT_SIMD` named an arm this host cannot run (the
    /// choice fell back to auto-detection).
    pub forced_unsupported: bool,
    /// Hardware scalar popcount detected.
    pub popcnt: bool,
    /// AVX2 detected.
    pub avx2: bool,
    /// AVX-512 foundation detected.
    pub avx512f: bool,
    /// AVX-512 `VPOPCNTDQ` detected.
    pub avx512vpopcntdq: bool,
}

/// The startup detection result (computed once, then cached).
pub fn detection() -> Detection {
    static DETECTION: OnceLock<Detection> = OnceLock::new();
    *DETECTION.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let (popcnt, avx2, avx512f, avx512vpopcntdq) = (
            std::arch::is_x86_feature_detected!("popcnt"),
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("avx512f"),
            std::arch::is_x86_feature_detected!("avx512vpopcntdq"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (popcnt, avx2, avx512f, avx512vpopcntdq) = (false, false, false, false);
        let forced = std::env::var("H3DFACT_SIMD")
            .ok()
            .and_then(|v| SimdArm::parse(&v));
        let auto = SimdArm::ALL
            .into_iter()
            .find(|a| a.supported())
            .unwrap_or(SimdArm::Scalar);
        let (arm, forced_unsupported) = match forced {
            Some(f) if f.supported() => (f, false),
            Some(_) => (auto, true),
            None => (auto, false),
        };
        Detection {
            arm,
            forced,
            forced_unsupported,
            popcnt,
            avx2,
            avx512f,
            avx512vpopcntdq,
        }
    })
}

/// The kernel table every undirected call dispatches through (the arm
/// chosen by [`detection`]).
#[inline]
pub fn active() -> &'static KernelTable {
    static ACTIVE: OnceLock<&'static KernelTable> = OnceLock::new();
    ACTIVE.get_or_init(|| table(detection().arm).expect("detected arm is supported"))
}

/// The kernel table of a specific arm, or `None` when this host cannot
/// execute it. Tests and the bench harness use this to force each arm
/// against the scalar reference.
pub fn table(arm: SimdArm) -> Option<&'static KernelTable> {
    if !arm.supported() {
        return None;
    }
    Some(match arm {
        SimdArm::Scalar => &SCALAR_TABLE,
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2Csa => &AVX2_TABLE,
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx512Popcnt => &AVX512_TABLE,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("non-scalar arms are never supported off x86_64"),
    })
}

/// Validates the bounds every strip kernel's pointer walk relies on:
/// `q` covers `w` words and the last strip load
/// (`(w−1)·m + j0 + 8`) stays inside `lane_words`.
#[inline]
fn check_strip(lane_words: &[u64], m: usize, w: usize, j0: usize, q: &[u64]) {
    assert!(q.len() >= w, "query words underrun the strip walk");
    assert!(
        w == 0 || (w - 1) * m + j0 + STRIP_LANES <= lane_words.len(),
        "lane strip underrun"
    );
}

// ─── Scalar arm (the portable reference) ────────────────────────────────

static SCALAR_TABLE: KernelTable = KernelTable {
    arm: SimdArm::Scalar,
    disagreement: disagreement_scalar,
    strip8: strip8_scalar,
    dense_accum: dense_accum_scalar,
};

/// Number of disagreeing elements between two packed bit patterns — the
/// portable reference every other arm is pinned against.
pub(crate) fn disagreement_scalar(row: &[u64], query: &[u64]) -> u64 {
    let mut chunks_r = row.chunks_exact(4);
    let mut chunks_q = query.chunks_exact(4);
    let (mut c0, mut c1, mut c2, mut c3) = (0u64, 0u64, 0u64, 0u64);
    for (r, q) in (&mut chunks_r).zip(&mut chunks_q) {
        c0 += (r[0] ^ q[0]).count_ones() as u64;
        c1 += (r[1] ^ q[1]).count_ones() as u64;
        c2 += (r[2] ^ q[2]).count_ones() as u64;
        c3 += (r[3] ^ q[3]).count_ones() as u64;
    }
    for (r, q) in chunks_r.remainder().iter().zip(chunks_q.remainder()) {
        c0 += (r ^ q).count_ones() as u64;
    }
    c0 + c1 + c2 + c3
}

/// Scalar strip reduction. For the scalar arm the per-word tile and the
/// CSA tree are both portable code; the tree is dispatched when the
/// target's `count_ones` is an emulation (see [`NATIVE_VECTOR_POPCOUNT`]).
fn strip8_scalar(
    lane_words: &[u64],
    m: usize,
    w: usize,
    j0: usize,
    q: &[u64],
) -> [u64; STRIP_LANES] {
    check_strip(lane_words, m, w, j0, q);
    if NATIVE_VECTOR_POPCOUNT || w < CSA_BLOCK_WORDS {
        strip_counts_tile::<STRIP_LANES>(lane_words, m, w, j0, q)
    } else {
        strip_counts_csa::<STRIP_LANES>(lane_words, m, w, j0, q)
    }
}

/// The scalar dense projection accumulate — **byte-for-byte** the loop
/// the pre-dispatch kernels ran, so golden outputs cannot move.
fn dense_accum_scalar(words: &[u64], wj: f64, out: &mut [f64]) {
    let full = out.len() / 64;
    for (wi, &word) in words.iter().enumerate().take(full) {
        let chunk = &mut out[wi * 64..(wi + 1) * 64];
        for (b, o) in chunk.iter_mut().enumerate() {
            *o += wj * ((word >> b) & 1) as f64;
        }
    }
    if full * 64 < out.len() {
        let word = words[full];
        for (b, o) in out[full * 64..].iter_mut().enumerate() {
            *o += wj * ((word >> b) & 1) as f64;
        }
    }
}

/// XOR-popcounts of one `L`-row lane-major strip against one query with
/// per-word popcounts: the proven auto-vectorizing tile (one vector load
/// of the strip per word position).
#[inline(always)]
fn strip_counts_tile<const L: usize>(
    lane_words: &[u64],
    m: usize,
    w: usize,
    j0: usize,
    q: &[u64],
) -> [u64; L] {
    let mut counts = [0u64; L];
    // An exact-length reslice lets the optimizer prove `q[i]` in bounds
    // for the whole walk (the per-word checks otherwise dominate small-D
    // strips).
    let q = &q[..w];
    for (i, &qw) in q.iter().enumerate() {
        let lanes: &[u64; L] = lane_words[i * m + j0..][..L]
            .try_into()
            .expect("lane strip underrun");
        for (c, &rw) in counts.iter_mut().zip(lanes) {
            *c += (rw ^ qw).count_ones() as u64;
        }
    }
    counts
}

/// XOR-popcounts of one `L`-row lane-major strip against a single query
/// column, reduced through the portable Harley–Seal CSA tree: per
/// [`CSA_BLOCK_WORDS`]-word block, 15 carry-save adds compress the
/// sixteen XORed words into five carry-tier words, so five `count_ones`
/// per lane replace sixteen. Words past the last full block fall back to
/// per-word popcounts. All `L` lanes advance in lockstep in SSA form so
/// the tree vectorizes as `L`-wide SIMD under `target-cpu=native`.
#[inline(always)]
fn strip_counts_csa<const L: usize>(
    lane_words: &[u64],
    m: usize,
    w: usize,
    j0: usize,
    q: &[u64],
) -> [u64; L] {
    let zero = [0u64; L];
    let mut counts = [0u64; L];
    let blocks = w / CSA_BLOCK_WORDS;
    for blk in 0..blocks {
        let i0 = blk * CSA_BLOCK_WORDS;
        let ld = |k: usize| -> [u64; L] {
            let lanes: &[u64; L] = lane_words[(i0 + k) * m + j0..][..L]
                .try_into()
                .expect("lane strip underrun");
            let qw = q[i0 + k];
            let mut d = [0u64; L];
            for l in 0..L {
                d[l] = lanes[l] ^ qw;
            }
            d
        };
        let (t_a, o1) = csa_lanes(zero, ld(0), ld(1));
        let (t_b, o2) = csa_lanes(o1, ld(2), ld(3));
        let (f_a, tw1) = csa_lanes(zero, t_a, t_b);
        let (t_c, o3) = csa_lanes(o2, ld(4), ld(5));
        let (t_d, o4) = csa_lanes(o3, ld(6), ld(7));
        let (f_b, tw2) = csa_lanes(tw1, t_c, t_d);
        let (e_a, f1) = csa_lanes(zero, f_a, f_b);
        let (t_e, o5) = csa_lanes(o4, ld(8), ld(9));
        let (t_f, o6) = csa_lanes(o5, ld(10), ld(11));
        let (f_c, tw3) = csa_lanes(tw2, t_e, t_f);
        let (t_g, o7) = csa_lanes(o6, ld(12), ld(13));
        let (t_h, o8) = csa_lanes(o7, ld(14), ld(15));
        let (f_d, tw4) = csa_lanes(tw3, t_g, t_h);
        let (e_b, f2) = csa_lanes(f1, f_c, f_d);
        let (s, e1) = csa_lanes(zero, e_a, e_b);
        for l in 0..L {
            counts[l] += 16 * s[l].count_ones() as u64
                + 8 * e1[l].count_ones() as u64
                + 4 * f2[l].count_ones() as u64
                + 2 * tw4[l].count_ones() as u64
                + o8[l].count_ones() as u64;
        }
    }
    for i in blocks * CSA_BLOCK_WORDS..w {
        let lanes: &[u64; L] = lane_words[i * m + j0..][..L]
            .try_into()
            .expect("lane strip underrun");
        let qw = q[i];
        for (c, &rw) in counts.iter_mut().zip(lanes) {
            *c += (rw ^ qw).count_ones() as u64;
        }
    }
    counts
}

/// One carry-save-adder step over `L` independent lanes: compresses
/// three addends (`c` carried in, `a`, `b`) into `(carry, sum)` per
/// lane. The by-value SSA form is what LLVM's SLP vectorizer reliably
/// turns into `L`-wide SIMD; on AVX-512 hosts each boolean form lowers
/// to `vpternlogq`.
#[inline(always)]
fn csa_lanes<const L: usize>(c: [u64; L], a: [u64; L], b: [u64; L]) -> ([u64; L], [u64; L]) {
    let mut carry = [0u64; L];
    let mut sum = [0u64; L];
    for l in 0..L {
        // Written as two *independent* three-input booleans (no shared
        // subexpression): parity and majority each lower to one
        // `vpternlogq` on AVX-512, where the factored
        // `(a&b) | ((a^b)&c)` form costs three instructions because the
        // shared `a^b` blocks the second fusion.
        sum[l] = a[l] ^ b[l] ^ c[l];
        carry[l] = (a[l] & b[l]) | (a[l] & c[l]) | (b[l] & c[l]);
    }
    (carry, sum)
}

// ─── AVX2 arm: Harley–Seal CSA tree over 256-bit lanes ──────────────────

#[cfg(target_arch = "x86_64")]
static AVX2_TABLE: KernelTable = KernelTable {
    arm: SimdArm::Avx2Csa,
    disagreement: avx2::disagreement,
    strip8: avx2::strip8,
    dense_accum: avx2::dense_accum,
};

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Safe wrappers + `#[target_feature(enable = "avx2,popcnt")]` bodies.
    //! Every wrapper is only published through [`super::AVX2_TABLE`],
    //! which [`super::table`] hands out after verifying the features at
    //! runtime.

    use super::{check_strip, CSA_BLOCK_WORDS, STRIP_LANES};
    use std::arch::x86_64::*;

    pub(super) fn disagreement(row: &[u64], query: &[u64]) -> u64 {
        // SAFETY: AVX2_TABLE is only reachable when avx2+popcnt were
        // detected at runtime.
        unsafe { disagreement_impl(row, query) }
    }

    pub(super) fn strip8(
        lane_words: &[u64],
        m: usize,
        w: usize,
        j0: usize,
        q: &[u64],
    ) -> [u64; STRIP_LANES] {
        check_strip(lane_words, m, w, j0, q);
        // SAFETY: features verified at table construction; bounds by
        // check_strip.
        unsafe { strip8_impl(lane_words, m, w, j0, q) }
    }

    pub(super) fn dense_accum(words: &[u64], wj: f64, out: &mut [f64]) {
        // SAFETY: features verified at table construction.
        unsafe { dense_accum_impl(words, wj, out) }
    }

    /// Sums the four `u64` lanes of `v` by hardware popcount.
    #[inline(always)]
    unsafe fn popcnt_lanes(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes.iter().map(|&l| l.count_ones() as u64).sum()
    }

    /// Drains a carry-tier word into the four per-lane accumulators with
    /// the tier's weight (the CSA tree keeps lanes independent, so the
    /// per-row split survives the whole reduction).
    #[inline(always)]
    unsafe fn drain_lanes(acc: &mut [u64; 4], v: __m256i, weight: u64) {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        for (a, &l) in acc.iter_mut().zip(&lanes) {
            *a += weight * l.count_ones() as u64;
        }
    }

    /// One CSA step on 256-bit lanes (see [`super::csa_lanes`]).
    #[inline(always)]
    unsafe fn csa(c: __m256i, a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let sum = _mm256_xor_si256(_mm256_xor_si256(a, b), c);
        let carry = _mm256_or_si256(
            _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
            _mm256_and_si256(b, c),
        );
        (carry, sum)
    }

    /// Row-vs-query disagreement: XOR four words at a time in a 256-bit
    /// lane, drain with hardware popcount (the `popcnt` feature makes
    /// the scalar `count_ones` drains single instructions even in
    /// portable builds).
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn disagreement_impl(row: &[u64], query: &[u64]) -> u64 {
        let n = row.len().min(query.len());
        let mut total = 0u64;
        let mut i = 0;
        while i + 4 <= n {
            let r = _mm256_loadu_si256(row.as_ptr().add(i) as *const __m256i);
            let q = _mm256_loadu_si256(query.as_ptr().add(i) as *const __m256i);
            total += popcnt_lanes(_mm256_xor_si256(r, q));
            i += 4;
        }
        while i < n {
            total += (row[i] ^ query[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    /// The Harley–Seal strip reduction: two 256-bit halves of the 8-lane
    /// strip advance through the 15-step CSA tree per 16-word block,
    /// draining five popcounts per half per block; sub-block tails count
    /// per word with hardware popcount.
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn strip8_impl(
        lane_words: &[u64],
        m: usize,
        w: usize,
        j0: usize,
        q: &[u64],
    ) -> [u64; STRIP_LANES] {
        let mut counts = [0u64; STRIP_LANES];
        let blocks = w / CSA_BLOCK_WORDS;
        for half in 0..2 {
            let base = j0 + 4 * half;
            let mut acc = [0u64; 4];
            let zero = _mm256_setzero_si256();
            // Each carry-tier word keeps its four u64 lanes independent,
            // so weighted per-lane drains preserve the per-row split the
            // strip contract requires.
            for blk in 0..blocks {
                let i0 = blk * CSA_BLOCK_WORDS;
                let ld = |k: usize| -> __m256i {
                    let p = lane_words.as_ptr().add((i0 + k) * m + base) as *const __m256i;
                    _mm256_xor_si256(_mm256_loadu_si256(p), _mm256_set1_epi64x(q[i0 + k] as i64))
                };
                let (t_a, o1) = csa(zero, ld(0), ld(1));
                let (t_b, o2) = csa(o1, ld(2), ld(3));
                let (f_a, tw1) = csa(zero, t_a, t_b);
                let (t_c, o3) = csa(o2, ld(4), ld(5));
                let (t_d, o4) = csa(o3, ld(6), ld(7));
                let (f_b, tw2) = csa(tw1, t_c, t_d);
                let (e_a, f1) = csa(zero, f_a, f_b);
                let (t_e, o5) = csa(o4, ld(8), ld(9));
                let (t_f, o6) = csa(o5, ld(10), ld(11));
                let (f_c, tw3) = csa(tw2, t_e, t_f);
                let (t_g, o7) = csa(o6, ld(12), ld(13));
                let (t_h, o8) = csa(o7, ld(14), ld(15));
                let (f_d, tw4) = csa(tw3, t_g, t_h);
                let (e_b, f2) = csa(f1, f_c, f_d);
                let (s, e1) = csa(zero, e_a, e_b);
                drain_lanes(&mut acc, s, 16);
                drain_lanes(&mut acc, e1, 8);
                drain_lanes(&mut acc, f2, 4);
                drain_lanes(&mut acc, tw4, 2);
                drain_lanes(&mut acc, o8, 1);
            }
            for (i, &qi) in q.iter().enumerate().take(w).skip(blocks * CSA_BLOCK_WORDS) {
                let p = lane_words.as_ptr().add(i * m + base) as *const __m256i;
                let x = _mm256_xor_si256(_mm256_loadu_si256(p), _mm256_set1_epi64x(qi as i64));
                drain_lanes(&mut acc, x, 1);
            }
            counts[4 * half..4 * half + 4].copy_from_slice(&acc);
        }
        counts
    }

    /// Bit-unpack dense projection accumulate on 256-bit lanes: per
    /// word, sixteen 4-lane groups test their selector bits and add the
    /// broadcast weight under the mask — element-wise identical to the
    /// scalar reference (adding a masked `wj` vs `wj·1`, and nothing vs
    /// `wj·0`, produce the same bits for every finite weight).
    #[target_feature(enable = "avx2,popcnt")]
    unsafe fn dense_accum_impl(words: &[u64], wj: f64, out: &mut [f64]) {
        let wv = _mm256_set1_pd(wj);
        let full = out.len() / 64;
        for (wi, &word) in words.iter().enumerate().take(full) {
            let bw = _mm256_set1_epi64x(word as i64);
            let op = out.as_mut_ptr().add(wi * 64);
            for g in 0..16 {
                let b0 = 4 * g;
                let sel = _mm256_set_epi64x(
                    1i64 << (b0 + 3),
                    1i64 << (b0 + 2),
                    1i64 << (b0 + 1),
                    1i64 << b0,
                );
                let hit = _mm256_cmpeq_epi64(_mm256_and_si256(bw, sel), sel);
                let add = _mm256_and_pd(_mm256_castsi256_pd(hit), wv);
                let p = op.add(b0);
                _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), add));
            }
        }
        if full * 64 < out.len() {
            let word = words[full];
            for (b, o) in out[full * 64..].iter_mut().enumerate() {
                *o += wj * ((word >> b) & 1) as f64;
            }
        }
    }
}

// ─── AVX-512 arm: per-word vpopcntq tile ────────────────────────────────

#[cfg(target_arch = "x86_64")]
static AVX512_TABLE: KernelTable = KernelTable {
    arm: SimdArm::Avx512Popcnt,
    disagreement: avx512::disagreement,
    strip8: avx512::strip8,
    dense_accum: avx512::dense_accum,
};

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Safe wrappers + `#[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]`
    //! bodies, published only through [`super::AVX512_TABLE`].

    use super::{check_strip, STRIP_LANES};
    use std::arch::x86_64::*;

    pub(super) fn disagreement(row: &[u64], query: &[u64]) -> u64 {
        // SAFETY: features verified at table construction.
        unsafe { disagreement_impl(row, query) }
    }

    pub(super) fn strip8(
        lane_words: &[u64],
        m: usize,
        w: usize,
        j0: usize,
        q: &[u64],
    ) -> [u64; STRIP_LANES] {
        check_strip(lane_words, m, w, j0, q);
        // SAFETY: features verified at table construction; bounds by
        // check_strip.
        unsafe { strip8_impl(lane_words, m, w, j0, q) }
    }

    pub(super) fn dense_accum(words: &[u64], wj: f64, out: &mut [f64]) {
        // SAFETY: features verified at table construction.
        unsafe { dense_accum_impl(words, wj, out) }
    }

    #[inline(always)]
    unsafe fn store8(v: __m512i) -> [u64; 8] {
        let mut lanes = [0u64; 8];
        _mm512_storeu_si512(lanes.as_mut_ptr() as *mut __m512i, v);
        lanes
    }

    /// Row-vs-query disagreement: one `vpopcntq` per eight words.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn disagreement_impl(row: &[u64], query: &[u64]) -> u64 {
        let n = row.len().min(query.len());
        let mut acc = _mm512_setzero_si512();
        let mut i = 0;
        while i + 8 <= n {
            let r = _mm512_loadu_si512(row.as_ptr().add(i) as *const __m512i);
            let q = _mm512_loadu_si512(query.as_ptr().add(i) as *const __m512i);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(r, q)));
            i += 8;
        }
        let mut total: u64 = store8(acc).iter().sum();
        while i < n {
            total += (row[i] ^ query[i]).count_ones() as u64;
            i += 1;
        }
        total
    }

    /// The per-word popcount tile: the whole 8-lane strip is one zmm
    /// register; each word position costs one load, one xor, one
    /// `vpopcntq`, one add.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn strip8_impl(
        lane_words: &[u64],
        m: usize,
        w: usize,
        j0: usize,
        q: &[u64],
    ) -> [u64; STRIP_LANES] {
        let mut acc = _mm512_setzero_si512();
        for (i, &qi) in q.iter().enumerate().take(w) {
            let lanes = _mm512_loadu_si512(lane_words.as_ptr().add(i * m + j0) as *const __m512i);
            let x = _mm512_xor_si512(lanes, _mm512_set1_epi64(qi as i64));
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
        }
        store8(acc)
    }

    /// Bit-unpack dense projection accumulate on 512-bit lanes: per
    /// word, eight 8-lane groups turn their selector-bit tests into a
    /// mask register and add the broadcast weight under it.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    unsafe fn dense_accum_impl(words: &[u64], wj: f64, out: &mut [f64]) {
        let wv = _mm512_set1_pd(wj);
        let full = out.len() / 64;
        for (wi, &word) in words.iter().enumerate().take(full) {
            let bw = _mm512_set1_epi64(word as i64);
            let op = out.as_mut_ptr().add(wi * 64);
            for g in 0..8 {
                let b0 = 8 * g;
                let sel = _mm512_set_epi64(
                    1i64 << (b0 + 7),
                    1i64 << (b0 + 6),
                    1i64 << (b0 + 5),
                    1i64 << (b0 + 4),
                    1i64 << (b0 + 3),
                    1i64 << (b0 + 2),
                    1i64 << (b0 + 1),
                    1i64 << b0,
                );
                let hit = _mm512_test_epi64_mask(bw, sel);
                let p = op.add(b0);
                let cur = _mm512_loadu_pd(p);
                _mm512_storeu_pd(p, _mm512_mask_add_pd(cur, hit, cur, wv));
            }
        }
        if full * 64 < out.len() {
            let word = words[full];
            for (b, o) in out[full * 64..].iter_mut().enumerate() {
                *o += wj * ((word >> b) & 1) as f64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use rand::Rng;

    /// Every arm the host can run (always includes Scalar).
    fn supported_arms() -> Vec<&'static KernelTable> {
        SimdArm::ALL
            .into_iter()
            .filter(|a| a.supported())
            .map(|a| table(a).expect("supported arm has a table"))
            .collect()
    }

    #[test]
    fn detection_is_coherent() {
        let det = detection();
        assert!(det.arm.supported(), "chosen arm must be executable");
        assert!(SimdArm::Scalar.supported());
        let act = active();
        assert_eq!(act.arm, det.arm);
        // Forcing semantics: a parsable override either is the chosen
        // arm or was unsupported and recorded as such.
        if let Some(f) = det.forced {
            assert!(det.arm == f || det.forced_unsupported);
        }
    }

    #[test]
    fn arm_names_round_trip_through_parse() {
        for arm in SimdArm::ALL {
            assert_eq!(SimdArm::parse(arm.name()), Some(arm), "{arm}");
        }
        assert_eq!(SimdArm::parse("AVX2"), Some(SimdArm::Avx2Csa));
        assert_eq!(SimdArm::parse(" vpopcntdq "), Some(SimdArm::Avx512Popcnt));
        assert_eq!(SimdArm::parse("mmx"), None);
    }

    #[test]
    fn every_arm_disagreement_matches_naive() {
        let mut rng = rng_from_seed(90);
        for n in [0usize, 1, 3, 4, 7, 8, 16, 31, 129] {
            let row: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let q: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let naive: u64 = row
                .iter()
                .zip(&q)
                .map(|(r, x)| (r ^ x).count_ones() as u64)
                .sum();
            for k in supported_arms() {
                assert_eq!((k.disagreement)(&row, &q), naive, "{} n={n}", k.arm);
            }
        }
    }

    #[test]
    fn every_arm_strip8_matches_naive_popcount() {
        // Full CSA blocks, multi-block rows, and ragged sub-block tails,
        // with the strip at a non-zero lane offset.
        let mut rng = rng_from_seed(91);
        for w in [1usize, 7, 16, 19, 32, 48] {
            for (m, j0) in [(8usize, 0usize), (24, 8)] {
                let lane_words: Vec<u64> = (0..w * m).map(|_| rng.gen()).collect();
                let q: Vec<u64> = (0..w).map(|_| rng.gen()).collect();
                let naive = |l: usize| -> u64 {
                    (0..w)
                        .map(|i| (lane_words[i * m + j0 + l] ^ q[i]).count_ones() as u64)
                        .sum()
                };
                for k in supported_arms() {
                    let counts = (k.strip8)(&lane_words, m, w, j0, &q);
                    for (l, &c) in counts.iter().enumerate() {
                        assert_eq!(c, naive(l), "{} w={w} m={m} j0={j0} lane {l}", k.arm);
                    }
                }
            }
        }
    }

    #[test]
    fn every_arm_dense_accum_matches_scalar_bitwise() {
        // Ragged output lengths (sub-word tails) and negative / fractional
        // weights; accumulators pre-seeded so masked adds must preserve
        // existing bits exactly.
        let mut rng = rng_from_seed(93);
        for out_len in [1usize, 63, 64, 65, 130, 512, 523] {
            let words: Vec<u64> = (0..out_len.div_ceil(64)).map(|_| rng.gen()).collect();
            let seed: Vec<f64> = (0..out_len).map(|i| (i as f64) * 0.25 - 3.0).collect();
            for wj in [1.0f64, -2.5, 0.125, 1e-3] {
                let mut reference = seed.clone();
                dense_accum_scalar(&words, wj, &mut reference);
                for k in supported_arms() {
                    let mut out = seed.clone();
                    (k.dense_accum)(&words, wj, &mut out);
                    for (i, (x, y)) in out.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{} out_len={out_len} wj={wj} elt {i}",
                            k.arm
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_csa_tree_matches_naive_popcount() {
        // The portable Harley–Seal tree is only dispatched on targets
        // without native vector popcount — pin it against the naive
        // reduction on every build regardless.
        let mut rng = rng_from_seed(94);
        for w in [16usize, 32, 48, 19, 7] {
            let m = 8;
            let lane_words: Vec<u64> = (0..w * m).map(|_| rng.gen()).collect();
            let q: Vec<u64> = (0..w).map(|_| rng.gen()).collect();
            let counts = strip_counts_csa::<8>(&lane_words, m, w, 0, &q);
            for l in 0..m {
                let naive: u64 = (0..w)
                    .map(|i| (lane_words[i * m + l] ^ q[i]).count_ones() as u64)
                    .sum();
                assert_eq!(counts[l], naive, "w={w} lane {l}");
            }
        }
    }

    #[test]
    fn scalar_word_tile_matches_naive_popcount() {
        // The portable per-word tile is only dispatched on targets with
        // native vector popcount (or for rows shorter than one CSA
        // block) — pin it against the naive reduction on every build.
        let mut rng = rng_from_seed(95);
        let (m, w) = (8usize, 21usize);
        let lane_words: Vec<u64> = (0..w * m).map(|_| rng.gen()).collect();
        let q: Vec<u64> = (0..w).map(|_| rng.gen()).collect();
        let counts = strip_counts_tile::<8>(&lane_words, m, w, 0, &q);
        for l in 0..m {
            let naive: u64 = (0..w)
                .map(|i| (lane_words[i * m + l] ^ q[i]).count_ones() as u64)
                .sum();
            assert_eq!(counts[l], naive, "lane {l}");
        }
    }
}
