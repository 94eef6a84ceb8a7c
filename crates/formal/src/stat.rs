//! Statistical model checking: probability estimation over sampled runs.
//!
//! §IV anticipates "stochastic processes or uncertainty quantification
//! techniques" and "statistical testing". For properties of the full
//! simulated system (too large for exhaustive checking), the framework runs
//! N independent seeded simulations, monitors the property on each trace,
//! and reports the satisfaction probability with confidence bounds — plus a
//! sequential probability ratio test (SPRT) for threshold queries
//! ("is P(recovery within 10 s) ≥ 0.95?").
//!
//! riot-lint: allow-file(P1, reason = "fixed polynomial coefficient tables indexed by literal constants (inverse-normal approximation)")

/// A probability estimate with a confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Number of samples.
    pub n: usize,
    /// Number of successes.
    pub successes: usize,
    /// Point estimate `successes / n`.
    pub mean: f64,
    /// Lower bound of the Wilson score interval.
    pub lo: f64,
    /// Upper bound of the Wilson score interval.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub confidence: f64,
}

/// Approximate two-sided normal quantile for common confidence levels,
/// with a rational approximation fallback (Beasley–Springer–Moro is
/// overkill here; Acklam's simplified inverse works to ~1e-4).
fn z_for(confidence: f64) -> f64 {
    match confidence {
        c if (c - 0.90).abs() < 1e-9 => 1.6449,
        c if (c - 0.95).abs() < 1e-9 => 1.9600,
        c if (c - 0.99).abs() < 1e-9 => 2.5758,
        c => inverse_normal_cdf(0.5 + c.clamp(0.0, 0.9999) / 2.0),
    }
}

/// Acklam-style inverse normal CDF approximation.
fn inverse_normal_cdf(p: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&p));
    // Coefficients for the central region approximation.
    const A: [f64; 6] = [
        -39.696830,
        220.946098,
        -275.928510,
        138.357751,
        -30.664798,
        2.506628,
    ];
    const B: [f64; 5] = [-54.476098, 161.585836, -155.698979, 66.801311, -13.280681];
    const C: [f64; 6] = [
        -0.007784894002,
        -0.32239645,
        -2.400758,
        -2.549732,
        4.374664,
        2.938163,
    ];
    const D: [f64; 4] = [0.007784695709, 0.32246712, 2.445134, 3.754408];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Estimates `P(success)` by running `n` Bernoulli trials.
///
/// # Panics
///
/// Panics if `n == 0` or `confidence` is outside `(0, 1)`.
///
/// # Examples
///
/// ```
/// use riot_formal::estimate_probability;
///
/// let mut flip = 0u32;
/// let est = estimate_probability(1000, 0.95, |_| {
///     flip += 1;
///     flip % 4 != 0 // 75% success
/// });
/// assert!((est.mean - 0.75).abs() < 0.05);
/// assert!(est.lo <= est.mean && est.mean <= est.hi);
/// ```
pub fn estimate_probability(
    n: usize,
    confidence: f64,
    mut trial: impl FnMut(usize) -> bool,
) -> Estimate {
    assert!(n > 0, "need at least one sample");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1)"
    );
    let successes = (0..n).filter(|i| trial(*i)).count();
    wilson(successes, n, confidence)
}

/// The Wilson score interval for `successes` out of `n`.
///
/// # Panics
///
/// Panics if `n == 0` or `successes > n`.
pub(crate) fn wilson(successes: usize, n: usize, confidence: f64) -> Estimate {
    assert!(n > 0 && successes <= n, "bad counts {successes}/{n}");
    let z = z_for(confidence);
    let nf = n as f64;
    let p = successes as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = (p + z2 / (2.0 * nf)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).sqrt();
    Estimate {
        n,
        successes,
        mean: p,
        lo: (center - half).max(0.0),
        hi: (center + half).min(1.0),
        confidence,
    }
}

/// Outcome of a sequential probability ratio test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SprtDecision {
    /// Accept `H1: p >= p1` (the property holds with high probability).
    AcceptH1,
    /// Accept `H0: p <= p0`.
    AcceptH0,
    /// Still undecided (only returned by [`Sprt::decision`] mid-stream).
    Undecided,
}

/// Wald's sequential probability ratio test between `H0: p = p0` and
/// `H1: p = p1` (`p0 < p1`), with error bounds `alpha` (false H1) and
/// `beta` (false H0).
///
/// # Examples
///
/// ```
/// use riot_formal::{Sprt, SprtDecision};
///
/// let mut sprt = Sprt::new(0.5, 0.9, 0.01, 0.01);
/// // Feed clearly-H1 data.
/// let mut decision = SprtDecision::Undecided;
/// for _ in 0..200 {
///     decision = sprt.observe(true);
///     if decision != SprtDecision::Undecided {
///         break;
///     }
/// }
/// assert_eq!(decision, SprtDecision::AcceptH1);
/// ```
#[derive(Debug, Clone)]
pub struct Sprt {
    log_a: f64,
    log_b: f64,
    llr: f64,
    log_ratio_success: f64,
    log_ratio_failure: f64,
    observations: usize,
}

impl Sprt {
    /// Creates a test.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p0 < p1 < 1` and `alpha`, `beta` in `(0, 1)`.
    pub fn new(p0: f64, p1: f64, alpha: f64, beta: f64) -> Self {
        assert!(0.0 < p0 && p0 < p1 && p1 < 1.0, "need 0 < p0 < p1 < 1");
        assert!(
            alpha > 0.0 && alpha < 1.0 && beta > 0.0 && beta < 1.0,
            "bad error bounds"
        );
        Sprt {
            log_a: ((1.0 - beta) / alpha).ln(),
            log_b: (beta / (1.0 - alpha)).ln(),
            llr: 0.0,
            log_ratio_success: (p1 / p0).ln(),
            log_ratio_failure: ((1.0 - p1) / (1.0 - p0)).ln(),
            observations: 0,
        }
    }

    /// Feeds one Bernoulli observation; returns the (possibly still
    /// undecided) decision.
    pub fn observe(&mut self, success: bool) -> SprtDecision {
        self.observations += 1;
        self.llr += if success {
            self.log_ratio_success
        } else {
            self.log_ratio_failure
        };
        self.decision()
    }

    /// The current decision.
    pub fn decision(&self) -> SprtDecision {
        if self.llr >= self.log_a {
            SprtDecision::AcceptH1
        } else if self.llr <= self.log_b {
            SprtDecision::AcceptH0
        } else {
            SprtDecision::Undecided
        }
    }

    /// Number of observations consumed.
    pub fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riot_sim::SimRng;

    #[test]
    fn wilson_interval_basic_properties() {
        let e = wilson(75, 100, 0.95);
        assert_eq!(e.mean, 0.75);
        assert!(e.lo < 0.75 && 0.75 < e.hi);
        assert!(
            e.lo > 0.6 && e.hi < 0.9,
            "interval is reasonably tight: [{}, {}]",
            e.lo,
            e.hi
        );
        // Degenerate counts stay in [0,1].
        let e = wilson(0, 10, 0.95);
        assert_eq!(e.lo, 0.0);
        assert!(e.hi > 0.0);
        let e = wilson(10, 10, 0.95);
        assert_eq!(e.hi, 1.0);
        assert!(e.lo < 1.0);
    }

    #[test]
    fn wilson_narrows_with_samples() {
        let small = wilson(50, 100, 0.95);
        let large = wilson(5_000, 10_000, 0.95);
        assert!((large.hi - large.lo) < (small.hi - small.lo));
    }

    #[test]
    fn wilson_widens_with_confidence() {
        let lo_conf = wilson(50, 100, 0.90);
        let hi_conf = wilson(50, 100, 0.99);
        assert!((hi_conf.hi - hi_conf.lo) > (lo_conf.hi - lo_conf.lo));
    }

    #[test]
    fn estimate_probability_covers_truth() {
        let mut rng = SimRng::seed_from(8);
        let est = estimate_probability(2_000, 0.95, |_| rng.chance(0.3));
        assert!(
            est.lo <= 0.3 && 0.3 <= est.hi,
            "interval [{}, {}] misses 0.3",
            est.lo,
            est.hi
        );
    }

    #[test]
    fn inverse_normal_cdf_sane() {
        assert!((inverse_normal_cdf(0.975) - 1.96).abs() < 0.01);
        assert!((inverse_normal_cdf(0.5)).abs() < 0.01);
        assert!((inverse_normal_cdf(0.025) + 1.96).abs() < 0.01);
        // Custom confidence goes through the approximation.
        let e = wilson(50, 100, 0.975);
        assert!(e.lo < 0.5 && e.hi > 0.5);
    }

    #[test]
    fn sprt_accepts_h1_on_good_data_h0_on_bad() {
        let mut rng = SimRng::seed_from(21);
        let mut sprt = Sprt::new(0.5, 0.9, 0.01, 0.01);
        let mut d = SprtDecision::Undecided;
        for _ in 0..10_000 {
            d = sprt.observe(rng.chance(0.95));
            if d != SprtDecision::Undecided {
                break;
            }
        }
        assert_eq!(d, SprtDecision::AcceptH1);
        assert!(
            sprt.observations() < 200,
            "sequential test should stop early"
        );

        let mut sprt = Sprt::new(0.5, 0.9, 0.01, 0.01);
        let mut d = SprtDecision::Undecided;
        for _ in 0..10_000 {
            d = sprt.observe(rng.chance(0.3));
            if d != SprtDecision::Undecided {
                break;
            }
        }
        assert_eq!(d, SprtDecision::AcceptH0);
    }

    #[test]
    #[should_panic(expected = "need 0 < p0 < p1 < 1")]
    fn sprt_rejects_inverted_hypotheses() {
        let _ = Sprt::new(0.9, 0.5, 0.01, 0.01);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn estimate_needs_samples() {
        let _ = estimate_probability(0, 0.95, |_| true);
    }
}
