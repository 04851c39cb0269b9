//! Batched exponentials for the kernel-panel engine.
//!
//! Every squared-exponential kernel entry ends in `exp(sq_dist · scale)`,
//! and at archive scale those exponentials dominate the GP-predict span.
//! This module provides the one primitive the panel engine needs —
//! [`exp_slice`], an elementwise in-place exponential over a finished
//! panel row segment — in two modes selected by [`KernelExpMode`]:
//!
//! * [`KernelExpMode::Exact`] calls [`f64::exp`] per element, preserving
//!   the legacy kernels bit for bit (this is the default, and what every
//!   golden fingerprint pins).
//! * [`KernelExpMode::Fast`] uses [`fast_exp`], an in-repo Cody–Waite
//!   range reduction + degree-13 polynomial with no `libm` calls in the
//!   inner loop, so the compiler can unroll and vectorize the whole
//!   slice. Accuracy is property-tested to a ≤4-ULP elementwise bound
//!   against `f64::exp` over the kernel's argument domain.
//!
//! # Error analysis of [`fast_exp`]
//!
//! With `n = round(x / ln 2)` and `r = x − n·ln 2` split Cody–Waite
//! style (`ln 2 = LN2_HI + LN2_LO`, where `LN2_HI` carries 21 trailing
//! zero bits so `n·LN2_HI` is exact for `|n| < 2^21`), the reduced
//! argument satisfies `|r| ≤ ln(2)/2 ≈ 0.3466` and
//! `exp(x) = 2^n · exp(r)`. The degree-13 Taylor polynomial of `exp`
//! truncates at `r^14/14! ≤ 0.3466^14/14! ≈ 4·10⁻¹⁸` (< 0.02 ULP);
//! Horner evaluation adds a few rounding errors of at most 1 ULP each,
//! and the final `2^n` scaling is a pair of exact power-of-two
//! multiplies. The observed worst case sits well inside the 4-ULP bound
//! the property suite enforces.

use autopilot_obs as obs;

/// Environment variable selecting the kernel exponential mode for the
/// GP surrogates. Accepted values:
///
/// | value                                   | meaning                        |
/// |-----------------------------------------|--------------------------------|
/// | *(unset)*, `0`, `off`, `false`, `exact` | default: [`f64::exp`] kernels  |
/// | `1`, `on`, `true`, `fast`               | batched [`fast_exp`] kernels   |
pub const GP_FASTEXP_ENV: &str = "AUTOPILOT_GP_FASTEXP";

/// How the kernel-panel engine evaluates the exponential at the heart of
/// every squared-exponential kernel entry.
///
/// `Exact` is bit-identical legacy behaviour and the default; `Fast`
/// trades ≤4 ULP per kernel entry for a vectorizable inner loop. The
/// mode is frozen into each fitted GP so a surrogate never mixes kernels
/// from both evaluators across its factorizations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelExpMode {
    /// Per-element [`f64::exp`] — bit-identical to the scalar legacy
    /// kernels pinned by the golden fingerprints.
    #[default]
    Exact,
    /// Batched in-repo exponential ([`fast_exp`]): Cody–Waite range
    /// reduction plus a degree-13 polynomial, ≤4 ULP vs [`f64::exp`].
    Fast,
}

impl KernelExpMode {
    /// Reads the mode from [`GP_FASTEXP_ENV`]; unset or unparsable
    /// values fall back to [`KernelExpMode::Exact`] (with a warn-level
    /// obs event for the unparsable case).
    ///
    /// The variable is captured **once per process** (via
    /// [`autopilot_obs::env_once`]); later env mutations warn once and
    /// are otherwise ignored. Only the core crate's `JobConfig::from_env`
    /// calls this; optimizers take their mode explicitly
    /// ([`SmsEgoOptimizer::with_exp_mode`]).
    ///
    /// [`SmsEgoOptimizer::with_exp_mode`]: crate::SmsEgoOptimizer::with_exp_mode
    pub fn from_env() -> KernelExpMode {
        static CACHED: std::sync::OnceLock<KernelExpMode> = std::sync::OnceLock::new();
        // env_once re-checks the live environment for drift (warning
        // once) while pinning the value used for parsing.
        let raw = obs::env_once(GP_FASTEXP_ENV);
        *CACHED.get_or_init(|| {
            let raw = match raw {
                Some(v) => v,
                None => return KernelExpMode::Exact,
            };
            match KernelExpMode::parse(&raw) {
                Some(mode) => mode,
                None => {
                    obs::obs_warn!(
                        "gp: {GP_FASTEXP_ENV}={raw:?} is not a recognized kernel exp mode; \
                         using exact kernels"
                    );
                    KernelExpMode::Exact
                }
            }
        })
    }

    /// Parses the [`GP_FASTEXP_ENV`] grammar; `None` for unrecognized
    /// input.
    pub fn parse(raw: &str) -> Option<KernelExpMode> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "" | "0" | "off" | "false" | "exact" => Some(KernelExpMode::Exact),
            "1" | "on" | "true" | "fast" => Some(KernelExpMode::Fast),
            _ => None,
        }
    }

    /// Stable lowercase identifier (`"exact"` / `"fast"`), used by the
    /// timing probes and serve job validation messages.
    pub fn id(self) -> &'static str {
        match self {
            KernelExpMode::Exact => "exact",
            KernelExpMode::Fast => "fast",
        }
    }
}

/// In-place elementwise exponential over a slice — the panel engine's
/// fused second pass over each finished row segment.
///
/// `Exact` mode applies [`f64::exp`] per element (bit-identical to the
/// scalar kernels); `Fast` mode applies [`fast_exp`] in a branch-free
/// loop the compiler can vectorize.
pub fn exp_slice(values: &mut [f64], mode: KernelExpMode) {
    match mode {
        KernelExpMode::Exact => {
            for v in values {
                *v = v.exp();
            }
        }
        KernelExpMode::Fast => {
            for v in values {
                *v = fast_exp(*v);
            }
        }
    }
}

/// `log2(e)`, the reduction constant `n = round(x · INV_LN2)`.
const INV_LN2: f64 = std::f64::consts::LOG2_E;
/// High part of `ln 2` with 21 trailing zero mantissa bits
/// (`0x3FE62E42FEE00000`), so `n · LN2_HI` is exact for every
/// `|n| < 2^21` (the fdlibm split).
const LN2_HI: f64 = 0.693_147_180_369_123_8;
/// Low part of the split (`0x3DEA39EF35793C76`): `LN2_HI + LN2_LO`
/// matches `ln 2` to ~2⁻⁸⁹.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Below this argument the true exponential rounds to zero; the clamp
/// keeps the `2^n` exponent arithmetic in range while agreeing with
/// `f64::exp` at the limit.
const ARG_MIN: f64 = -746.0;
/// Above this argument the true exponential overflows to infinity.
const ARG_MAX: f64 = 710.0;
/// `1.5 · 2^52`: adding it snaps any `|v| ≤ 2^51` to an integer in the
/// magic's own binade (round-to-nearest-even), giving branch-free,
/// libm-free rounding on SSE2-only baselines.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Scalar core of the `Fast` kernel exponential: Cody–Waite range
/// reduction plus a degree-13 Taylor polynomial, no `libm` calls.
///
/// Within `[-708, 709]` the result is within 4 ULP of [`f64::exp`]
/// (property-tested); outside, arguments clamp to [`ARG_MIN`] /
/// [`ARG_MAX`] so deep underflow rounds to `0.0` and overflow saturates
/// to `+∞`, matching the limits of the exact exponential. `NaN`
/// propagates.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    // Taylor coefficients 1/k! for k = 2..=13 (k = 0, 1 are exact 1.0).
    const C2: f64 = 1.0 / 2.0;
    const C3: f64 = 1.0 / 6.0;
    const C4: f64 = 1.0 / 24.0;
    const C5: f64 = 1.0 / 120.0;
    const C6: f64 = 1.0 / 720.0;
    const C7: f64 = 1.0 / 5040.0;
    const C8: f64 = 1.0 / 40_320.0;
    const C9: f64 = 1.0 / 362_880.0;
    const C10: f64 = 1.0 / 3_628_800.0;
    const C11: f64 = 1.0 / 39_916_800.0;
    const C12: f64 = 1.0 / 479_001_600.0;
    const C13: f64 = 1.0 / 6_227_020_800.0;

    // The clamp propagates NaN and pins ±∞ to the saturating limits.
    let x = x.clamp(ARG_MIN, ARG_MAX);
    // Round-to-nearest via the 1.5·2^52 magic constant: for |v| ≤ 2^51
    // the add snaps v into the magic's binade, so the low mantissa bits
    // of `t` hold round(v) exactly and the subtraction recovers it as a
    // float. Unlike `f64::round` this needs no libm call on baseline
    // x86-64 (SSE2 has no round instruction), so the slice loop stays
    // vectorizable. Ties land on even rather than away from zero, which
    // only shifts `r` by ∓ln(2)/2 — still inside the polynomial's range.
    let t = x * INV_LN2 + ROUND_MAGIC;
    let n = t - ROUND_MAGIC;
    // Exact high-part subtraction (n·LN2_HI is exact and cancels
    // against x), then the low-part correction: |r| ≤ ln(2)/2.
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let mut p = C13;
    p = p * r + C12;
    p = p * r + C11;
    p = p * r + C10;
    p = p * r + C9;
    p = p * r + C8;
    p = p * r + C7;
    p = p * r + C6;
    p = p * r + C5;
    p = p * r + C4;
    p = p * r + C3;
    p = p * r + C2;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // 2^n via two exact power-of-two factors: n ∈ [-1076, 1024] after
    // the clamp, so both half-exponents fit the normal range, and the
    // left-to-right product avoids spurious overflow just under the
    // f64 maximum (p < 1 can pull 2^1024 back into range). The integer
    // exponent falls straight out of the magic-rounding bits: `t` and
    // the magic share a binade, so their bit patterns differ by exactly
    // the integer part.
    let k = (t.to_bits() as i64).wrapping_sub(ROUND_MAGIC.to_bits() as i64);
    let k_half = k / 2;
    let s1 = pow2(k - k_half);
    let s2 = pow2(k_half);
    p * s1 * s2
}

/// `2^e` for exponents within the normal range, by direct construction
/// of the IEEE-754 exponent field.
#[inline]
fn pow2(e: i64) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// Units-in-the-last-place distance between two floats, over the usual
/// monotone integer mapping of IEEE-754 bit patterns (so the distance
/// between `0.0` and the smallest subnormal is 1). `NaN` against
/// anything is `u64::MAX`; equal values (including `+0 == -0` and
/// `∞ == ∞`) are 0. Exposed for the fast-exp property suite and the
/// `gp_fastexp` bench group.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() { 0 } else { u64::MAX };
    }
    // Map bit patterns onto a single monotone integer line: positive
    // floats keep their bits, negative floats mirror below zero.
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            -(bits & i64::MAX)
        } else {
            bits
        }
    }
    ordered(a).abs_diff(ordered(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopilot_rng::Rng;

    #[test]
    fn exp_mode_grammar() {
        use KernelExpMode::*;
        assert_eq!(KernelExpMode::parse(""), Some(Exact));
        assert_eq!(KernelExpMode::parse("0"), Some(Exact));
        assert_eq!(KernelExpMode::parse("off"), Some(Exact));
        assert_eq!(KernelExpMode::parse("false"), Some(Exact));
        assert_eq!(KernelExpMode::parse("exact"), Some(Exact));
        assert_eq!(KernelExpMode::parse("1"), Some(Fast));
        assert_eq!(KernelExpMode::parse("on"), Some(Fast));
        assert_eq!(KernelExpMode::parse("true"), Some(Fast));
        assert_eq!(KernelExpMode::parse("fast"), Some(Fast));
        assert_eq!(KernelExpMode::parse(" Fast "), Some(Fast));
        assert_eq!(KernelExpMode::parse("banana"), None);
        assert_eq!(KernelExpMode::parse("2"), None);
        assert_eq!(KernelExpMode::default(), Exact);
        assert_eq!(Exact.id(), "exact");
        assert_eq!(Fast.id(), "fast");
    }

    #[test]
    fn exact_slice_is_bit_identical_to_scalar_exp() {
        let mut rng = Rng::seed_from_u64(11);
        let vals: Vec<f64> = (0..512).map(|_| -60.0 * rng.next_f64()).collect();
        let mut batched = vals.clone();
        exp_slice(&mut batched, KernelExpMode::Exact);
        for (v, b) in vals.iter().zip(&batched) {
            assert_eq!(v.exp().to_bits(), b.to_bits());
        }
    }

    /// The ≤4-ULP property suite: seeded random arguments over the
    /// kernel domain (non-positive, where every `sq_dist · scale`
    /// lands) and the positive range up to the overflow knee.
    #[test]
    fn fast_exp_within_4_ulp_of_exact() {
        let mut rng = Rng::seed_from_u64(20_260_808);
        let mut worst = 0u64;
        for i in 0..200_000 {
            // Log-uniform magnitudes from 2⁻⁴⁰ up to ~709, spanning the
            // non-positive kernel domain (3 draws in 4) and the positive
            // range up to the overflow knee.
            let mag = (-40.0 + 49.4 * rng.next_f64()).exp2();
            let x = if i % 4 == 0 { mag.min(709.0) } else { -mag.min(708.0) };
            let got = fast_exp(x);
            let want = x.exp();
            let d = ulp_distance(got, want);
            worst = worst.max(d);
            assert!(d <= 4, "fast_exp({x:e}) = {got:e} vs exp = {want:e}: {d} ULP");
        }
        // The bound must not be vacuous: the sweep has to exercise
        // arguments large enough that reduction actually engages.
        assert!(worst <= 4);
    }

    #[test]
    fn fast_exp_dense_uniform_sweep_within_4_ulp() {
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..200_000 {
            let x = -708.0 + 1417.0 * rng.next_f64(); // uniform on [-708, 709]
            let d = ulp_distance(fast_exp(x), x.exp());
            assert!(d <= 4, "fast_exp({x}) off by {d} ULP");
        }
    }

    #[test]
    fn fast_exp_structured_points() {
        // Exact identities and reduction boundaries.
        assert_eq!(fast_exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(fast_exp(-0.0).to_bits(), 1.0f64.to_bits());
        for x in [
            std::f64::consts::LN_2 / 2.0,
            -std::f64::consts::LN_2 / 2.0,
            std::f64::consts::LN_2,
            -std::f64::consts::LN_2,
            1.0,
            -1.0,
            -1e-300,
            1e-300,
            -700.0,
            700.0,
            709.0,
            -708.0,
        ] {
            let d = ulp_distance(fast_exp(x), x.exp());
            assert!(d <= 4, "fast_exp({x}) off by {d} ULP");
        }
        // Near-integer multiples of ln 2 stress the Cody–Waite split.
        for k in -1020i32..=1020 {
            let x = k as f64 * std::f64::consts::LN_2;
            if !(-708.0..=709.0).contains(&x) {
                continue;
            }
            let d = ulp_distance(fast_exp(x), x.exp());
            assert!(d <= 4, "fast_exp({x}) at k={k} off by {d} ULP");
        }
    }

    #[test]
    fn fast_exp_limits_and_specials() {
        // Saturation matches the exact exponential's limits.
        assert_eq!(fast_exp(-800.0), 0.0);
        assert_eq!(fast_exp(-1e9), 0.0);
        assert_eq!(fast_exp(f64::NEG_INFINITY), 0.0);
        assert_eq!(fast_exp(800.0), f64::INFINITY);
        assert_eq!(fast_exp(f64::INFINITY), f64::INFINITY);
        assert!(fast_exp(f64::NAN).is_nan());
        // Monotone hand-off into the clamp region: no upward jump at
        // the boundary.
        assert!(fast_exp(-745.9) <= fast_exp(-745.0));
    }

    #[test]
    fn fast_slice_matches_scalar_fast_exp() {
        let mut rng = Rng::seed_from_u64(3);
        let vals: Vec<f64> = (0..777).map(|_| -50.0 * rng.next_f64()).collect();
        let mut batched = vals.clone();
        exp_slice(&mut batched, KernelExpMode::Fast);
        for (v, b) in vals.iter().zip(&batched) {
            assert_eq!(fast_exp(*v).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, 1.0 + f64::EPSILON), 1);
        assert_eq!(ulp_distance(0.0, f64::from_bits(1)), 1);
        assert_eq!(ulp_distance(f64::from_bits(1), -f64::from_bits(1)), 2);
        assert_eq!(ulp_distance(f64::INFINITY, f64::INFINITY), 0);
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
    }
}
