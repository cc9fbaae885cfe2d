//! Delayed-normalization accumulator with extended exponent range.
//!
//! §A.2/§A.3.1: the MAC keeps `C` in a wide accumulator and normalizes only
//! when the value is read out.  Adding **one extra exponent bit** doubles the
//! representable exponent range, so the sum of squares in a vector norm
//! (`Σ xᵢ²` with `|xᵢ|` up to ~1e308 ⇒ squares up to ~1e616) cannot overflow,
//! eliminating the software scaling pass (Table 6.1 / Figure A.1).
//!
//! We model the wide register as a pair `(mantissa: f64, exp2: i32)` with the
//! mantissa kept in `[1, 2) ∪ {0}` (sign carried by the mantissa) — a
//! software "big exponent" float. Products are formed exactly in this
//! representation before being accumulated, so intermediate overflow is
//! impossible for any finite inputs.
//!
//! Only the extension-on datapath keeps its accumulator in this form.
//! Without the extension the accumulator is a plain binary64 (see
//! [`crate::MacUnit`]), and [`crate::MacUnit::acc_wide`] builds this view
//! from it on demand with [`ExtendedAccumulator::from_f64`]. That view
//! reads back the same value, except that a signalling NaN reads back
//! quiet: every read-out multiplies by a power of two, and the multiply
//! quiets it.
//!
//! Scaling uses [`pow2i`], which builds a power of two from its exponent
//! bits, rather than `f64::powi`, a multiply loop about 20× slower.

/// `2^k` built from its exponent bits, equal bit for bit to what
/// `f64::powi` returns at run time for base 2 and every `k`: exact for
/// `k ∈ [−1022, 1023]`, the subnormal `2^−1023` for `k = −1023`, `+∞`
/// above 1023, and `0.0` below −1023 (where `powi` forms `1/2^|k|` and
/// `2^|k|` overflows).
#[inline]
pub fn pow2i(k: i32) -> f64 {
    if k > 1023 {
        f64::INFINITY
    } else if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else if k == -1023 {
        f64::from_bits(1 << 51)
    } else {
        0.0
    }
}

/// Wide accumulator: value = `mantissa × 2^exp2`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtendedAccumulator {
    mantissa: f64,
    exp2: i32,
}

fn split(x: f64) -> (f64, i32) {
    if x == 0.0 || !x.is_finite() {
        return (x, 0);
    }
    // frexp: x = m * 2^e with |m| in [0.5, 1)
    let bits = x.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        // subnormal: scale up by 2^64 first
        let scaled = x * pow2i(64);
        let (m, e) = split(scaled);
        return (m, e - 64);
    }
    let e = raw_exp - 1022; // exponent such that |m| in [0.5,1)
    let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
    (m, e)
}

fn assemble(m: f64, e: i32) -> f64 {
    // May overflow/underflow to inf/0 — that is the *normalization* step.
    // Apply the exponent in chunks: `pow2i` itself saturates past ±1023.
    if m == 0.0 {
        return m;
    }
    let mut v = m;
    let mut e = e;
    while e > 1000 {
        v *= pow2i(1000);
        e -= 1000;
        if v.is_infinite() {
            return v;
        }
    }
    while e < -1000 {
        v *= pow2i(-1000);
        e += 1000;
        if v == 0.0 {
            return v;
        }
    }
    v * pow2i(e)
}

impl ExtendedAccumulator {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Initialize from an ordinary double (the `C` preload).
    pub fn from_f64(x: f64) -> Self {
        let (m, e) = split(x);
        Self {
            mantissa: m,
            exp2: e,
        }
    }

    /// Current value normalized back to `f64` (the read-out step; may
    /// overflow to `±inf` if the true value exceeds binary64 range).
    pub fn normalize(&self) -> f64 {
        assemble(self.mantissa, self.exp2)
    }

    /// True value's base-2 exponent (for range assertions in tests).
    pub fn exponent(&self) -> i32 {
        self.exp2
    }

    /// Fused accumulate: `acc += a * b`, formed without intermediate
    /// overflow for any finite `a`, `b`.
    pub fn mac(&mut self, a: f64, b: f64) {
        let (ma, ea) = split(a);
        let (mb, eb) = split(b);
        let mp = ma * mb; // |mp| in [0.25, 1): exactly representable
        if mp == 0.0 {
            return;
        }
        let ep = ea + eb;
        self.add_parts(mp, ep);
    }

    /// Merge another wide accumulator into this one (the wide-datapath
    /// reduction used when partial sums cross PEs in extended format).
    pub fn add_wide(&mut self, other: &ExtendedAccumulator) {
        if other.mantissa != 0.0 {
            self.add_parts(other.mantissa, other.exp2);
        }
    }

    /// Square root in the wide space: `√(m·2^e) = √(m·2^(e-2h))·2^h`.
    pub fn sqrt_wide(&self) -> f64 {
        if self.mantissa == 0.0 {
            return 0.0;
        }
        let h = self.exp2.div_euclid(2);
        let m = assemble(self.mantissa, self.exp2 - 2 * h);
        m.sqrt() * pow2i(h)
    }

    /// Plain add of an ordinary double.
    pub fn add(&mut self, x: f64) {
        let (m, e) = split(x);
        if m == 0.0 {
            return;
        }
        self.add_parts(m, e);
    }

    fn add_parts(&mut self, m: f64, e: i32) {
        if self.mantissa == 0.0 {
            self.mantissa = m;
            self.exp2 = e;
            return;
        }
        // Align to the larger exponent; differences beyond 128 bits make the
        // smaller addend vanish (same as hardware alignment shifters).
        let (mut hi_m, hi_e, lo_m, lo_e) = if self.exp2 >= e {
            (self.mantissa, self.exp2, m, e)
        } else {
            (m, e, self.mantissa, self.exp2)
        };
        let de = hi_e - lo_e;
        if de < 1080 {
            hi_m += lo_m * pow2i(-de);
        }
        // renormalize mantissa into [0.5, 1)
        let (nm, ne) = split(hi_m);
        if nm == 0.0 {
            self.mantissa = 0.0;
            self.exp2 = 0;
        } else {
            self.mantissa = nm;
            self.exp2 = hi_e + ne;
        }
    }
}

impl ExtendedAccumulator {
    /// Normalize after shifting the exponent by `shift` — the hardware
    /// "read out with exponent adjustment" used when a norm's square root
    /// halves the exponent (§A.2).
    pub fn normalize_with_exp_shift(&self, shift: i32) -> f64 {
        assemble(self.mantissa, self.exp2 + shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_assemble_roundtrip() {
        for &x in &[1.0, -3.5, 1e-300, 1e300, 0.1, -0.0, 12345.678] {
            let (m, e) = split(x);
            assert_eq!(assemble(m, e), x, "x={x}");
            if x != 0.0 {
                assert!((0.5..1.0).contains(&m.abs()), "mantissa range for {x}: {m}");
            }
        }
    }

    #[test]
    fn mac_matches_f64_in_normal_range() {
        let mut acc = ExtendedAccumulator::from_f64(0.5);
        let mut refv = 0.5f64;
        let xs = [1.5, -2.25, 0.125, 3.0, -0.75];
        let ys = [2.0, 1.25, -4.0, 0.5, 8.0];
        for (x, y) in xs.iter().zip(&ys) {
            acc.mac(*x, *y);
            refv += x * y;
        }
        assert!((acc.normalize() - refv).abs() < 1e-12);
    }

    #[test]
    fn sum_of_squares_beyond_f64_range() {
        // Σ xᵢ² with xᵢ = 1e200: squares are 1e400, far beyond f64 max.
        let mut acc = ExtendedAccumulator::new();
        for _ in 0..4 {
            acc.mac(1e200, 1e200);
        }
        // value = 4e400 = 2^2 * 1e400; exponent ≈ log2(4e400) ≈ 1330
        assert!(acc.exponent() > 1300, "exponent tracked beyond IEEE range");
        // normalize overflows (as hardware would when writing back)...
        assert!(acc.normalize().is_infinite());
        // ...but sqrt in extended space is fine: ‖x‖ = 2e200.
        let half_exp = acc.exponent() / 2;
        let m = acc.normalize_with_exp_shift(-2 * half_exp);
        let norm = m.sqrt() * 2f64.powi(half_exp);
        assert!((norm / 2e200 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn underflow_products_preserved() {
        let mut acc = ExtendedAccumulator::new();
        acc.mac(1e-200, 1e-200); // 1e-400 underflows in f64
        assert!(acc.exponent() < -1300);
        let v = acc.normalize_with_exp_shift(1340);
        assert!(v.is_finite() && v > 0.0);
    }

    #[test]
    fn cancellation() {
        let mut acc = ExtendedAccumulator::from_f64(1.0);
        acc.add(-1.0);
        assert_eq!(acc.normalize(), 0.0);
        acc.mac(2.0, 3.0);
        assert_eq!(acc.normalize(), 6.0);
    }

    #[test]
    fn subnormal_inputs() {
        let tiny = f64::MIN_POSITIVE / 8.0; // subnormal
        let mut acc = ExtendedAccumulator::from_f64(tiny);
        assert!((acc.normalize() - tiny).abs() == 0.0);
        acc.add(tiny);
        assert_eq!(acc.normalize(), 2.0 * tiny);
    }
}
