//! Similarity activation functions `g(·)`.
//!
//! The activation sits between the similarity MVM and the projection MVM.
//! The baseline resonator uses the identity (all similarity mass projects
//! back). H3DFact's hardware realizes `g` with a low-precision ADC whose
//! full-scale is tuned relative to the random-similarity noise floor
//! (`VTGT` adjustment, paper Sec. V-D): similarities below about half an
//! LSB collapse to zero, sparsifying the search, while device noise decides
//! the fate of borderline candidates — the stochastic exploration that
//! breaks limit cycles.
//!
//! # The fused noisy ADC kernel
//!
//! [`Activation::apply_noisy`] is the one implementation of the software
//! kernels' noise → rectify → activation sequence
//! ([`crate::software::SoftwareKernels`]). For the
//! stochastic model (Gaussian noise, rectification, quantized activation)
//! only the ADC code each noisy similarity rounds to reaches the output,
//! so the kernel evaluates the noise with the vectorized
//! [`hdc::stats::box_muller_fast`] instead of libm and recomputes an
//! element with libm only when its value lies within [`CODE_MARGIN`] code
//! units of a rounding boundary. Outside that margin the fast and the
//! libm value provably round to the same code (the rounding analysis is
//! on `Activation::apply_noisy_with_margin`), so outputs and the RNG
//! state are bit-identical to the plain sequence by construction.

use hdc::stats::{box_muller, box_muller_fast, normal, uniform_pair, FAST_BOX_MULLER_MAX_ERR};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Distance, in ADC code units, from a rounding boundary (a half-integer
/// code) inside which [`Activation::apply_noisy`] recomputes an element
/// with libm. The fast path's worst-case code error is kept below half of
/// it.
pub const CODE_MARGIN: f64 = 1e-9;

/// Noise pairs drawn and evaluated per vectorized pass of the fused
/// kernel (stack scratch; the stochastic model's `M` fits in one pass).
const NOISE_BLOCK: usize = 64;

/// Upper bound on `|box_muller_fast(u1, u2)|` for any drawable pair
/// (`√(−2 ln 2⁻⁵³) ≈ 8.58`).
const Z_MAX: f64 = 9.0;

/// The quantizer of one element: the single definition of the code a
/// value rounds to and the level it reconstructs.
#[inline]
fn quantize(v: f64, step: f64, max_code: f64) -> f64 {
    (v / step).round().clamp(-max_code, max_code) * step
}

/// Activation applied to the raw (possibly noisy) similarity vector.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Pass similarities through unchanged (baseline resonator).
    #[default]
    Identity,
    /// Mid-tread uniform quantizer with `bits` resolution saturating at
    /// `±full_scale` — the algorithm-level model of the SAR ADC readout.
    Quantized {
        /// Resolution in bits (sign included); the paper uses 4.
        bits: u8,
        /// Saturation magnitude in dot-product units.
        full_scale: f64,
    },
    /// Hard threshold: values with `|a| < theta` become zero, others pass
    /// unchanged (the in-memory-factorizer style nonlinearity of [15]).
    Threshold {
        /// Zeroing threshold in dot-product units.
        theta: f64,
    },
}

impl Activation {
    /// The paper's 4-bit ADC activation with the full scale referenced to
    /// the random-similarity noise floor `sqrt(D)`: one LSB spans
    /// `lsb_sigmas · sqrt(dim)` dot-product units.
    ///
    /// With the default `lsb_sigmas = 3`, random cross-talk (σ = √D) rarely
    /// crosses the first code boundary on its own, but device noise pushes
    /// borderline candidates over — sparse stochastic exploration.
    pub fn noise_referenced(bits: u8, dim: usize, lsb_sigmas: f64) -> Self {
        assert!(bits >= 2, "need at least 2 bits");
        assert!(lsb_sigmas > 0.0, "lsb_sigmas must be positive");
        let max_code = ((1u32 << (bits - 1)) - 1) as f64;
        Activation::Quantized {
            bits,
            full_scale: lsb_sigmas * (dim as f64).sqrt() * max_code,
        }
    }

    /// Applies the activation element-wise in place.
    pub fn apply(&self, values: &mut [f64]) {
        match *self {
            Activation::Identity => {}
            Activation::Quantized { bits, full_scale } => {
                let max_code = ((1u32 << (bits - 1)) - 1) as f64;
                let step = full_scale / max_code;
                for v in values.iter_mut() {
                    *v = quantize(*v, step, max_code);
                }
            }
            Activation::Threshold { theta } => {
                for v in values.iter_mut() {
                    if v.abs() < theta {
                        *v = 0.0;
                    }
                }
            }
        }
    }

    /// Adds `N(0, noise_sigma²)` to every element (one [`uniform_pair`]
    /// per element, in order, from `rng`; skipped when `noise_sigma` is
    /// 0), clips negatives to zero when `rectify` is set, then applies
    /// the activation — bit-identical to doing those three steps one
    /// after another with [`hdc::stats::normal`], including the state
    /// `rng` is left in. Returns how many elements took the exact libm
    /// fallback.
    pub fn apply_noisy<R: Rng + ?Sized>(
        &self,
        values: &mut [f64],
        noise_sigma: f64,
        rectify: bool,
        rng: &mut R,
    ) -> usize {
        self.apply_noisy_with_margin(values, noise_sigma, rectify, rng, CODE_MARGIN)
    }

    /// [`Activation::apply_noisy`] with an explicit fallback margin in code
    /// units (`f64::INFINITY` recomputes every element with libm).
    ///
    /// The fast path covers a rectified quantizer with `noise_sigma > 0`.
    /// Per element it forms `w' = sim + σ·z'` with the fast sample `z'`
    /// and the code `round(max(w', 0)/step)`. Writing `ε` for
    /// `f64::EPSILON` and `E` for [`FAST_BOX_MULLER_MAX_ERR`], the
    /// rounding analysis of those three operations bounds the distance
    /// between the fast and the libm quotient by
    /// `σ·(E + ε·|z'|)/step + 2ε·|w'|/step` (to first order). The kernel
    /// takes the fast path only when `σ·(E + 9ε)/step ≤ margin/4`, and
    /// takes an element's fast code only when `|w'| ≤ step·margin/(8ε)`
    /// and its quotient lies at least `margin` from a half-integer; the
    /// bound is then below `margin/2`, so both quotients round to the same
    /// code. Every other element (exact zeros and non-finite values
    /// included) is recomputed from its stored uniform pair with libm.
    /// Other configurations run the plain sequence.
    pub(crate) fn apply_noisy_with_margin<R: Rng + ?Sized>(
        &self,
        values: &mut [f64],
        noise_sigma: f64,
        rectify: bool,
        rng: &mut R,
        margin: f64,
    ) -> usize {
        let (step, max_code) = match (*self, self.step()) {
            (Activation::Quantized { bits, .. }, Some(step)) if rectify && noise_sigma > 0.0 => {
                (step, ((1u32 << (bits - 1)) - 1) as f64)
            }
            _ => return self.apply_noisy_exact(values, noise_sigma, rectify, rng),
        };
        let fast_error = noise_sigma * (FAST_BOX_MULLER_MAX_ERR + Z_MAX * f64::EPSILON) / step;
        if !(step > 0.0 && fast_error <= margin / 4.0) {
            return self.apply_noisy_exact(values, noise_sigma, rectify, rng);
        }
        let span_limit = step * margin / (8.0 * f64::EPSILON);
        let exact_element = |sim: f64, u1: f64, u2: f64| {
            // `*w += normal(0.0, σ, rng)`, rectify, quantize — operation
            // for operation.
            let w = sim + (0.0 + noise_sigma * box_muller(u1, u2));
            quantize(if w < 0.0 { 0.0 } else { w }, step, max_code)
        };
        let mut u1 = [0.0f64; NOISE_BLOCK];
        let mut u2 = [0.0f64; NOISE_BLOCK];
        let mut out = [0.0f64; NOISE_BLOCK];
        let mut exact = [false; NOISE_BLOCK];
        let mut fallbacks = 0;
        for block in values.chunks_mut(NOISE_BLOCK) {
            let n = block.len();
            for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
                (*a, *b) = uniform_pair(rng);
            }
            let mut block_fallbacks = 0;
            for k in 0..n {
                let w = block[k] + noise_sigma * box_muller_fast(u1[k], u2[k]);
                let x = if w < 0.0 { 0.0 } else { w } / step;
                let code = x.round();
                let safe = 0.5 - (x - code).abs() >= margin && w.abs() <= span_limit && w != 0.0;
                out[k] = code.min(max_code) * step;
                exact[k] = !safe;
                block_fallbacks += usize::from(!safe);
            }
            if block_fallbacks > 0 {
                for k in (0..n).filter(|&k| exact[k]) {
                    out[k] = exact_element(block[k], u1[k], u2[k]);
                }
                fallbacks += block_fallbacks;
            }
            block.copy_from_slice(&out[..n]);
        }
        fallbacks
    }

    /// The plain noise → rectify → activation sequence.
    fn apply_noisy_exact<R: Rng + ?Sized>(
        &self,
        values: &mut [f64],
        noise_sigma: f64,
        rectify: bool,
        rng: &mut R,
    ) -> usize {
        if noise_sigma > 0.0 {
            for w in values.iter_mut() {
                *w += normal(0.0, noise_sigma, rng);
            }
        }
        if rectify {
            for w in values.iter_mut() {
                if *w < 0.0 {
                    *w = 0.0;
                }
            }
        }
        self.apply(values);
        0
    }

    /// True when the activation can output an all-zero vector for non-zero
    /// input (i.e. the loop must handle the degenerate case).
    pub fn can_zero(&self) -> bool {
        !matches!(self, Activation::Identity)
    }

    /// The quantization step (LSB) if this is a quantized activation.
    pub fn step(&self) -> Option<f64> {
        match *self {
            Activation::Quantized { bits, full_scale } => {
                let max_code = ((1u32 << (bits - 1)) - 1) as f64;
                Some(full_scale / max_code)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_from_seed;
    use rand::rngs::StdRng;
    use rand::RngCore;

    /// The three steps one after another, as the software kernels ran
    /// them before the fused kernel existed.
    fn reference(
        act: Activation,
        sims: &[f64],
        sigma: f64,
        rectify: bool,
        rng: &mut StdRng,
    ) -> Vec<f64> {
        let mut v = sims.to_vec();
        if sigma > 0.0 {
            for w in v.iter_mut() {
                *w += normal(0.0, sigma, rng);
            }
        }
        if rectify {
            for w in v.iter_mut() {
                if *w < 0.0 {
                    *w = 0.0;
                }
            }
        }
        act.apply(&mut v);
        v
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random stochastic-model row: integer similarities of a `dim`-bit
    /// codebook (optionally scaled by a survival gain), sigma and step.
    fn random_row(rng: &mut StdRng) -> (Vec<f64>, f64, Activation) {
        let dim = [64usize, 256, 1024][rng.gen_range(0..3usize)];
        let m = rng.gen_range(1..150usize);
        let gain = if rng.gen_bool(0.5) {
            1.0
        } else {
            rng.gen_range(0.5..1.0)
        };
        let sims = (0..m)
            .map(|_| (rng.gen_range(0..=2 * dim) as f64 - dim as f64) * gain)
            .collect();
        let sigma = rng.gen_range(0.01..0.5) * (dim as f64).sqrt();
        let act = Activation::noise_referenced(rng.gen_range(2..9u8), dim, rng.gen_range(0.5..4.0));
        (sims, sigma, act)
    }

    #[test]
    fn fused_kernel_is_bit_identical_to_the_exact_sequence() {
        let mut params = rng_from_seed(90);
        for case in 0..400 {
            let (sims, sigma, act) = random_row(&mut params);
            let seed = params.next_u64();
            let mut fast = sims.clone();
            let mut fast_rng = rng_from_seed(seed);
            act.apply_noisy(&mut fast, sigma, true, &mut fast_rng);
            // Margin forced to infinity: every element recomputed exactly.
            let mut exact = sims.clone();
            let mut exact_rng = rng_from_seed(seed);
            let fallbacks =
                act.apply_noisy_with_margin(&mut exact, sigma, true, &mut exact_rng, f64::INFINITY);
            assert_eq!(fallbacks, sims.len(), "case {case}");
            let mut ref_rng = rng_from_seed(seed);
            let expect = reference(act, &sims, sigma, true, &mut ref_rng);
            assert_eq!(bits(&fast), bits(&exact), "case {case}");
            assert_eq!(bits(&fast), bits(&expect), "case {case}");
            let next = ref_rng.next_u64();
            assert_eq!(fast_rng.next_u64(), next, "rng state, case {case}");
            assert_eq!(exact_rng.next_u64(), next, "rng state, case {case}");
        }
    }

    #[test]
    fn uncovered_configurations_run_the_exact_sequence() {
        let mut params = rng_from_seed(91);
        let (sims, sigma, quantized) = random_row(&mut params);
        for (act, sigma, rectify) in [
            (quantized, sigma, false),
            (quantized, 0.0, true),
            (Activation::Identity, sigma, true),
            (Activation::Threshold { theta: 10.0 }, sigma, true),
        ] {
            let mut got = sims.clone();
            let mut rng = rng_from_seed(92);
            assert_eq!(act.apply_noisy(&mut got, sigma, rectify, &mut rng), 0);
            let mut ref_rng = rng_from_seed(92);
            let expect = reference(act, &sims, sigma, rectify, &mut ref_rng);
            assert_eq!(
                bits(&got),
                bits(&expect),
                "{act:?} sigma={sigma} rectify={rectify}"
            );
            assert_eq!(rng.next_u64(), ref_rng.next_u64());
        }
    }

    #[test]
    fn value_on_a_rounding_boundary_takes_the_libm_fallback() {
        // Step 1, sigma 1: find a draw whose fast sample sits below the
        // libm one, and a similarity that puts the libm value exactly on
        // the 2.5 boundary (which rounds up, to 3) while the fast value
        // lands just under it (which would round down, to 2).
        let act = Activation::Quantized {
            bits: 4,
            full_scale: 7.0,
        };
        let (seed, sim) = (0u64..)
            .find_map(|seed| {
                let (u1, u2) = uniform_pair(&mut rng_from_seed(seed));
                let (z, z_fast) = (box_muller(u1, u2), box_muller_fast(u1, u2));
                let sim = 2.5 - z;
                (z_fast < z && sim + (0.0 + z) == 2.5 && sim + z_fast < 2.5).then_some((seed, sim))
            })
            .expect("a boundary draw exists");
        let mut got = vec![sim];
        let mut rng = rng_from_seed(seed);
        assert_eq!(act.apply_noisy(&mut got, 1.0, true, &mut rng), 1);
        assert_eq!(got, vec![3.0], "the libm value rounds half away from zero");
        let expect = reference(act, &[sim], 1.0, true, &mut rng_from_seed(seed));
        assert_eq!(bits(&got), bits(&expect));
    }

    #[test]
    fn ordinary_rows_never_fall_back() {
        // A noisy quotient lands within the margin of a boundary with
        // probability about 2·CODE_MARGIN per element: never, in ~15k
        // elements.
        let mut params = rng_from_seed(93);
        let mut fallbacks = 0;
        for _ in 0..200 {
            let (mut sims, sigma, act) = random_row(&mut params);
            fallbacks += act.apply_noisy(&mut sims, sigma, true, &mut params);
        }
        assert_eq!(fallbacks, 0);
    }

    #[test]
    fn identity_is_noop() {
        let mut v = vec![1.5, -3.0, 0.0];
        Activation::Identity.apply(&mut v);
        assert_eq!(v, vec![1.5, -3.0, 0.0]);
        assert!(!Activation::Identity.can_zero());
    }

    #[test]
    fn quantizer_zeroes_small_values() {
        let a = Activation::Quantized {
            bits: 4,
            full_scale: 70.0,
        };
        let step = a.step().unwrap();
        assert!((step - 10.0).abs() < 1e-12);
        let mut v = vec![4.9, -4.9, 5.1, 70.0, 1e9, -1e9];
        a.apply(&mut v);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2], 10.0);
        assert_eq!(v[3], 70.0);
        assert_eq!(v[4], 70.0, "saturates high");
        assert_eq!(v[5], -70.0, "saturates low");
    }

    #[test]
    fn threshold_zeroes_below_theta() {
        let a = Activation::Threshold { theta: 5.0 };
        let mut v = vec![4.0, -4.0, 6.0, -6.0];
        a.apply(&mut v);
        assert_eq!(v, vec![0.0, 0.0, 6.0, -6.0]);
    }

    #[test]
    fn noise_referenced_scaling() {
        let a = Activation::noise_referenced(4, 1024, 3.0);
        // LSB = 3 · sqrt(1024) = 96.
        assert!((a.step().unwrap() - 96.0).abs() < 1e-9);
        if let Activation::Quantized { full_scale, .. } = a {
            assert!((full_scale - 96.0 * 7.0).abs() < 1e-9);
        } else {
            panic!("expected quantized activation");
        }
    }

    #[test]
    fn more_bits_means_finer_step() {
        let a4 = Activation::noise_referenced(4, 1024, 3.0);
        // Same full scale, higher resolution.
        let fs = match a4 {
            Activation::Quantized { full_scale, .. } => full_scale,
            _ => unreachable!(),
        };
        let a8 = Activation::Quantized {
            bits: 8,
            full_scale: fs,
        };
        assert!(a8.step().unwrap() < a4.step().unwrap());
    }
}
