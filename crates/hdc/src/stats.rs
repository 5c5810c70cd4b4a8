//! Small statistics toolkit shared by the device and algorithm crates.
//!
//! The offline dependency set has no `rand_distr`, so Gaussian and
//! log-normal sampling are implemented here (Box–Muller transform), along
//! with summary-statistics helpers used by the experiment harnesses.
//!
//! # Two evaluations of one Box–Muller sample
//!
//! Every Gaussian sample is a pure function of one uniform pair
//! ([`uniform_pair`]). [`box_muller`] evaluates it with libm `ln` and
//! `cos` — the definition every noise stream in the workspace is pinned
//! to. [`box_muller_fast`] evaluates the same function branch-free and
//! without libm calls, so a loop over a block of pairs auto-vectorizes:
//!
//! - `ln u1` splits `u1 = 2^e · m` with `m ∈ [√½, √2)` by bit
//!   manipulation and evaluates `ln m = 2·atanh((m − 1)/(m + 1))` as an
//!   odd series (|s| ≤ 0.172, so eleven terms reach full precision);
//! - `cos(2π·u2)` reduces `4·u2` to its nearest quadrant `q` and a
//!   remainder `|r| ≤ ½` (both exact), then evaluates the cosine or sine
//!   Taylor polynomial on `|r·π/2| ≤ π/4` and picks and signs it by `q`.
//!
//! The two agree to within [`FAST_BOX_MULLER_MAX_ERR`] (the measured
//! worst case is a few 1e-15 — the rounding of libm's own `2π·u2`
//! argument dominates). The fast form is not a new sampler: callers that
//! need libm's bits, such as the stochastic resonator's fused ADC kernel,
//! use it only where the difference provably cannot change their output
//! and fall back to [`box_muller`] everywhere else.

use rand::Rng;

/// Draws the uniform pair of one Box–Muller sample, in stream order:
/// `u1 ∈ (0, 1]` (so `ln u1` is finite), then `u2 ∈ [0, 1)`.
#[inline]
pub fn uniform_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (u1, u2)
}

/// The Box–Muller transform of one uniform pair, evaluated with libm.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Largest `|box_muller_fast(u1, u2) − box_muller(u1, u2)|` over every
/// pair [`uniform_pair`] can draw. The bound carries a safety factor of
/// over 100 on the measured worst case; the error-sweep tests assert it.
pub const FAST_BOX_MULLER_MAX_ERR: f64 = 1e-12;

/// [`box_muller`] evaluated branch-free without libm (see the module
/// docs), within [`FAST_BOX_MULLER_MAX_ERR`] of it for `u1 ∈ (0, 1]`
/// normal and `u2 ∈ [0, 1)`.
#[inline]
pub fn box_muller_fast(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_fast(u1)).sqrt() * cos_2pi_fast(u2)
}

/// `ln 2` split so that `e · LN_2_HI` is exact for every exponent `e`
/// (the high part has its low 32 mantissa bits clear; fdlibm's split).
const LN_2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN_2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// Odd-series coefficients of `atanh(s)/s = Σ s^(2k)/(2k + 1)`, k = 0..=10.
const ATANH_SERIES: [f64; 11] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
];

/// Taylor coefficients of `cos x` in powers of `x²`, through `x^16/16!`.
const COS_SERIES: [f64; 9] = [
    1.0,
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

/// Taylor coefficients of `sin x / x` in powers of `x²`, through `x^17/17!`.
const SIN_SERIES: [f64; 9] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
    1.0 / 355_687_428_096_000.0,
];

/// Evaluates `Σ c[k] · x^k` by Horner's rule (unrolled for const arrays).
#[inline(always)]
fn horner<const N: usize>(x: f64, c: &[f64; N]) -> f64 {
    c.iter().rev().fold(0.0, |acc, &k| acc * x + k)
}

/// Natural log of a positive normal `u` (exponent split + atanh series).
#[inline(always)]
fn ln_fast(u: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    // `2^52 + k` for the biased exponent `k`, read back as a float, is
    // exact: subtracting `2^52 + 1023` leaves the unbiased exponent
    // without an integer-to-float conversion.
    const EXP_MAGIC: u64 = 0x4330_0000_0000_0000;
    const EXP_BIAS: f64 = 4_503_599_627_371_519.0;
    let bits = u.to_bits();
    let mant = f64::from_bits((bits & MANTISSA) | 1.0f64.to_bits());
    let exp = f64::from_bits(EXP_MAGIC | (bits >> 52)) - EXP_BIAS;
    let high = mant > std::f64::consts::SQRT_2;
    let m = if high { 0.5 * mant } else { mant };
    let e = if high { exp + 1.0 } else { exp };
    let s = (m - 1.0) / (m + 1.0);
    let series = 2.0 * s * horner(s * s, &ATANH_SERIES);
    e * LN_2_HI + (e * LN_2_LO + series)
}

/// `cos(2π·u)` for `u ∈ [0, 1)` (quadrant reduction + Taylor polynomials).
#[inline(always)]
fn cos_2pi_fast(u: f64) -> f64 {
    // Adding 1.5·2^52 rounds `t` to the nearest integer `q`, which then
    // sits in the low mantissa bits; `t − q` is exact.
    const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
    let t = 4.0 * u;
    let big = t + ROUND_MAGIC;
    let q = big.to_bits();
    let x = (t - (big - ROUND_MAGIC)) * std::f64::consts::FRAC_PI_2;
    let x2 = x * x;
    let cos = horner(x2, &COS_SERIES);
    let sin = x * horner(x2, &SIN_SERIES);
    // cos(qπ/2 + x) is cos x, −sin x, −cos x, sin x for q mod 4 = 0..3.
    let v = if q & 1 == 0 { cos } else { sin };
    f64::from_bits(v.to_bits() ^ ((q.wrapping_add(1) & 2) << 62))
}

/// Draws one standard-normal sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let (u1, u2) = uniform_pair(rng);
    box_muller(u1, u2)
}

/// Draws `N(mean, sigma²)`.
pub fn normal<R: Rng + ?Sized>(mean: f64, sigma: f64, rng: &mut R) -> f64 {
    mean + sigma * standard_normal(rng)
}

/// Draws a log-normal sample whose *underlying* normal has the given mean
/// and sigma (i.e. `exp(N(mu, sigma²))`). Used for RRAM conductance
/// programming variability, which is well described as log-normal
/// (Yu et al., IEEE TED 2012).
pub fn log_normal<R: Rng + ?Sized>(mu: f64, sigma: f64, rng: &mut R) -> f64 {
    normal(mu, sigma, rng).exp()
}

/// Running mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample standard deviation (0 with fewer than 2 samples).
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Self::new();
        s.extend(iter);
        s
    }
}

/// Wilson score interval half-width for a binomial proportion at ~95 %
/// confidence; used when reporting factorization accuracies over trials.
pub fn wilson_half_width(successes: u64, trials: u64) -> f64 {
    if trials == 0 {
        return 0.0;
    }
    let z = 1.96f64;
    let n = trials as f64;
    let p = successes as f64 / n;
    z * (p * (1.0 - p) / n + z * z / (4.0 * n * n)).sqrt() / (1.0 + z * z / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    /// Largest `|fast − libm|` over the given pairs.
    fn max_fast_error(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
        pairs
            .map(|(u1, u2)| (box_muller_fast(u1, u2) - box_muller(u1, u2)).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fast_box_muller_matches_libm_over_a_seeded_sweep() {
        let mut rng = rng_from_seed(43);
        let err = max_fast_error((0..1_000_000).map(|_| uniform_pair(&mut rng)));
        assert!(err <= FAST_BOX_MULLER_MAX_ERR, "max error {err:e}");
    }

    #[test]
    fn fast_box_muller_matches_libm_at_edge_cases() {
        let ulp = f64::EPSILON / 2.0;
        let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
        // u1: the smallest draw, 1, the exponent-split boundaries (√½
        // and its neighbours, powers of two) and values just below 1.
        let mut u1s = vec![ulp, 2.0 * ulp, 0.5, 0.25, 1.0, 1.0 - ulp, 1.0 - 2.0 * ulp];
        for k in -4i64..=4 {
            let bits = sqrt_half.to_bits() as i64 + k;
            u1s.push(f64::from_bits(bits as u64));
            u1s.push(2.0 * f64::from_bits(bits as u64));
        }
        u1s.retain(|&u| u > 0.0 && u <= 1.0);
        // u2: every quadrant boundary and octant midpoint, their
        // neighbours, and the largest draw.
        let mut u2s = vec![0.0, 1.0 - ulp];
        for k in 0..8 {
            let b = k as f64 / 8.0;
            u2s.extend([b, b + ulp, b + 2.0 * ulp, (b - ulp).max(0.0)]);
        }
        let pairs = u1s
            .iter()
            .flat_map(|&u1| u2s.iter().map(move |&u2| (u1, u2)));
        let err = max_fast_error(pairs);
        assert!(err <= FAST_BOX_MULLER_MAX_ERR, "max error {err:e}");
        // The extremes themselves: the largest magnitude, and exact zero.
        assert!((box_muller_fast(ulp, 0.0) - (-2.0 * ulp.ln()).sqrt()).abs() < 1e-14);
        assert_eq!(box_muller_fast(1.0, 0.3), 0.0);
    }

    #[test]
    fn standard_normal_is_box_muller_of_the_drawn_pair() {
        let (mut a, mut b) = (rng_from_seed(44), rng_from_seed(44));
        for _ in 0..100 {
            let (u1, u2) = uniform_pair(&mut b);
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                box_muller(u1, u2).to_bits()
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = rng_from_seed(40);
        let s: Summary = (0..20_000).map(|_| normal(3.0, 2.0, &mut rng)).collect();
        assert!((s.mean() - 3.0).abs() < 0.06, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.06, "std {}", s.std_dev());
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = rng_from_seed(41);
        assert!((0..1000).all(|_| log_normal(0.0, 0.5, &mut rng) > 0.0));
    }

    #[test]
    fn log_normal_median() {
        let mut rng = rng_from_seed(42);
        let mut xs: Vec<f64> = (0..9_999).map(|_| log_normal(1.0, 0.7, &mut rng)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of exp(N(mu, s^2)) is exp(mu) = e.
        assert!((median - 1.0f64.exp()).abs() < 0.15, "median {median}");
    }

    #[test]
    fn summary_tracks_min_max_count() {
        let s: Summary = [1.0, 5.0, 3.0].into_iter().collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn wilson_shrinks_with_trials() {
        let w10 = wilson_half_width(9, 10);
        let w1000 = wilson_half_width(900, 1000);
        assert!(w1000 < w10);
        assert_eq!(wilson_half_width(0, 0), 0.0);
    }
}
