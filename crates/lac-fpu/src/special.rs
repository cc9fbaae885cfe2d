//! Divide / reciprocal / square-root / inverse-square-root support
//! (§6.1.4, §A.3.2, Figure A.2, Table A.1).
//!
//! Three architecture options from Appendix A are modeled:
//!
//! * [`DivSqrtImpl::Software`] — microcoded Goldschmidt iterations on the
//!   PE's existing MAC unit (no extra hardware; occupies the MAC for the
//!   whole operation).
//! * [`DivSqrtImpl::Isolated`] — one dedicated SFU per core with minimax
//!   lookup logic \[113\] (the Figure 1.1 "SFU"); operands travel over the
//!   buses.
//! * [`DivSqrtImpl::DiagonalPes`] — the diagonal PEs' MAC units extended
//!   with the lookup + control overhead so the reciprocal is produced where
//!   Cholesky/LU need it, with no extra bus trips.
//!
//! Functionally all three compute the same multiplicative approximations; we
//! implement table-seeded Newton–Raphson (reciprocal, rsqrt) and Goldschmidt
//! (divide) and test convergence to < 1 ulp after the modeled iteration
//! counts.

use crate::accumulator::pow2i;

/// Which special function is requested.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivSqrtOp {
    /// `1/x`
    Reciprocal,
    /// `a/b`
    Divide,
    /// `√x`
    Sqrt,
    /// `1/√x`
    InvSqrt,
}

/// Architecture option for divide/square-root (Appendix A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DivSqrtImpl {
    /// Goldschmidt on the PE MAC (microprogrammed; blocks the MAC).
    Software,
    /// Dedicated per-core SFU with minimax table logic.
    Isolated,
    /// Extended MAC units on the diagonal PEs.
    DiagonalPes,
}

impl Default for DivSqrtImpl {
    /// The dissertation's canonical design point (an isolated per-core SFU).
    fn default() -> Self {
        Self::Isolated
    }
}

impl DivSqrtImpl {
    /// Latency in cycles for `op` under this implementation.
    ///
    /// Modeled from Appendix A's description: the software path executes
    /// ~3 Goldschmidt iterations of 2 dependent MACs each through a 5-stage
    /// pipeline plus setup; the isolated minimax unit and the extended
    /// diagonal MAC retire an operation in roughly a pipeline-and-a-half.
    pub fn latency(self, op: DivSqrtOp) -> usize {
        let base = match self {
            DivSqrtImpl::Software => 30,
            DivSqrtImpl::Isolated => 13,
            DivSqrtImpl::DiagonalPes => 9,
        };
        match op {
            DivSqrtOp::Reciprocal => base,
            DivSqrtOp::Divide => base + 2, // extra back-multiply
            DivSqrtOp::Sqrt => base + 3,   // rsqrt then ×x
            DivSqrtOp::InvSqrt => base,
        }
    }

    /// Whether the operation monopolizes the issuing PE's MAC while running.
    pub fn blocks_mac(self) -> bool {
        matches!(self, DivSqrtImpl::Software)
    }

    /// Whether operands must travel over the broadcast buses to reach the
    /// unit (isolated SFU) or are produced in place (diagonal PEs, software).
    pub fn needs_bus_round_trip(self) -> bool {
        matches!(self, DivSqrtImpl::Isolated)
    }
}

/// 2^7-entry reciprocal seed table (the minimax lookup of \[113\]): indexed
/// by the top 7 mantissa bits, returns an initial `1/m` estimate good to
/// ~2^-8.
fn recip_seed(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    // Normalize mantissa into [1, 2).
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mant = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52)); // [1,2)
    let idx = ((mant - 1.0) * 128.0) as usize; // 7-bit index
    let mid = 1.0 + (idx as f64 + 0.5) / 128.0;
    let seed_m = 1.0 / mid; // table entry (precomputable)
    seed_m * pow2i(-exp as i32)
}

/// rsqrt seed: top mantissa bits + exponent parity, good to ~2^-7.
fn rsqrt_seed(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
    let mant = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    let (m, e) = if exp % 2 == 0 {
        (mant, exp)
    } else {
        (mant * 2.0, exp - 1)
    };
    let idx = ((m - 1.0) * 64.0) as usize; // over [1,4): 6-bit per octave
    let mid = 1.0 + (idx as f64 + 0.5) / 64.0;
    let seed_m = 1.0 / mid.sqrt(); // table entry (precomputable)
    seed_m * pow2i((-e / 2) as i32)
}

/// Reciprocal via table seed + `iters` Newton–Raphson steps
/// (`y ← y (2 - x y)`): each step doubles the number of correct bits.
pub fn recip_newton_raphson(x: f64, iters: usize) -> f64 {
    assert!(x != 0.0, "reciprocal of zero");
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let ax = x.abs();
    let mut y = recip_seed(ax);
    for _ in 0..iters {
        y *= 2.0 - ax * y;
    }
    sign * y
}

/// Inverse square root via table seed + `iters` Newton–Raphson steps
/// (`y ← y (3 - x y²) / 2`).
pub fn rsqrt_newton_raphson(x: f64, iters: usize) -> f64 {
    assert!(x > 0.0, "rsqrt needs a positive argument");
    let mut y = rsqrt_seed(x);
    for _ in 0..iters {
        y *= 0.5 * (3.0 - x * y * y);
    }
    y
}

/// `√x = x · (1/√x)` — how the MAC-based units produce square roots.
pub fn sqrt_via_rsqrt(x: f64, iters: usize) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    x * rsqrt_newton_raphson(x, iters)
}

/// Goldschmidt division `a/b`: both numerator and denominator are repeatedly
/// multiplied by the correction factor; converges quadratically.
pub fn div_goldschmidt(a: f64, b: f64, iters: usize) -> f64 {
    assert!(b != 0.0, "division by zero");
    let sign = if b < 0.0 { -1.0 } else { 1.0 };
    let ab = b.abs();
    let f0 = recip_seed(ab);
    let mut n = a * f0;
    let mut d = ab * f0;
    for _ in 0..iters {
        let f = 2.0 - d;
        n *= f;
        d *= f;
    }
    sign * n
}

/// Default Newton–Raphson iteration count used by the kernels: 3 doublings
/// from an 8-bit seed exceed the 53-bit double-precision mantissa.
pub const DEFAULT_NR_ITERS: usize = 3;

/// The functional result of `op` on `(a, b)` at the modeled iteration
/// counts — exactly what [`SpecialFnUnit::issue`] latches. `b` is ignored
/// except for [`DivSqrtOp::Divide`]. Exposed so the decode-once compiled
/// backend in `lac-sim` can produce bit-identical SFU results without
/// driving the latency model.
pub fn compute(op: DivSqrtOp, a: f64, b: f64) -> f64 {
    match op {
        DivSqrtOp::Reciprocal => recip_newton_raphson(a, DEFAULT_NR_ITERS),
        DivSqrtOp::Divide => div_goldschmidt(a, b, DEFAULT_NR_ITERS),
        DivSqrtOp::Sqrt => sqrt_via_rsqrt(a, DEFAULT_NR_ITERS),
        DivSqrtOp::InvSqrt => rsqrt_newton_raphson(a, DEFAULT_NR_ITERS),
    }
}

/// A latency-modeled special-function unit: issue an op, result retires
/// after [`DivSqrtImpl::latency`] cycles. Single outstanding op (the
/// dissertation's SFU is unpipelined).
#[derive(Clone, Debug)]
pub struct SpecialFnUnit {
    imp: DivSqrtImpl,
    busy_until: Option<(usize, f64)>, // (remaining cycles, result)
    pub ops_issued: u64,
}

impl SpecialFnUnit {
    pub fn new(imp: DivSqrtImpl) -> Self {
        Self {
            imp,
            busy_until: None,
            ops_issued: 0,
        }
    }

    pub fn implementation(&self) -> DivSqrtImpl {
        self.imp
    }

    /// Issue `op` on operand(s); `b` is ignored except for Divide.
    /// Errors if the unit is busy.
    pub fn issue(&mut self, op: DivSqrtOp, a: f64, b: f64) -> Result<(), ()> {
        let result = compute(op, a, b);
        self.issue_precomputed(op, result)
    }

    /// Issue with an externally computed result — used when the operand
    /// arrives in a non-IEEE form (the wide-accumulator square root of the
    /// vector-norm kernel, §A.2), where the datapath, not this model,
    /// prepares the mantissa/exponent pair.
    pub fn issue_precomputed(&mut self, op: DivSqrtOp, result: f64) -> Result<(), ()> {
        if self.busy_until.is_some() {
            return Err(());
        }
        self.busy_until = Some((self.imp.latency(op), result));
        self.ops_issued += 1;
        Ok(())
    }

    /// Advance one cycle; returns the result on the retiring cycle.
    pub fn step(&mut self) -> Option<f64> {
        match self.busy_until.take() {
            None => None,
            Some((1, r)) => Some(r),
            Some((n, r)) => {
                self.busy_until = Some((n - 1, r));
                None
            }
        }
    }

    pub fn idle(&self) -> bool {
        self.busy_until.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ulps(a: f64, b: f64) -> i64 {
        (a.to_bits() as i64 - b.to_bits() as i64).abs()
    }

    #[test]
    fn recip_converges_to_ulps() {
        for &x in &[1.0, 1.5, 2.0, 3.0, 0.1, 123456.789, 1e-10, 1e10, -7.5] {
            let y = recip_newton_raphson(x, DEFAULT_NR_ITERS);
            assert!(ulps(y, 1.0 / x) <= 4, "x={x}: got {y}, want {}", 1.0 / x);
        }
    }

    #[test]
    fn rsqrt_converges() {
        for &x in &[1.0, 2.0, 3.0, 4.0, 0.25, 1e-6, 1e6, 987654.321] {
            let y = rsqrt_newton_raphson(x, DEFAULT_NR_ITERS);
            assert!(ulps(y, 1.0 / x.sqrt()) <= 4, "x={x}");
        }
    }

    #[test]
    fn sqrt_and_div_converge() {
        for &x in &[1.0, 2.0, 9.0, 1e-8, 1e8] {
            assert!(
                ulps(sqrt_via_rsqrt(x, DEFAULT_NR_ITERS), x.sqrt()) <= 4,
                "sqrt {x}"
            );
        }
        for &(a, b) in &[(1.0, 3.0), (10.0, 7.0), (-4.0, 2.5), (1e10, -3e-5)] {
            assert!(
                ulps(div_goldschmidt(a, b, DEFAULT_NR_ITERS), a / b) <= 4,
                "{a}/{b}"
            );
        }
    }

    #[test]
    fn seed_accuracy_bounds() {
        // Seeds must be good enough that 3 doublings reach 53 bits:
        // need initial relative error < 2^-7.
        for i in 0..1000 {
            let x = 1.0 + i as f64 / 1000.0; // [1, 2)
            let rel = (recip_seed(x) - 1.0 / x).abs() * x;
            assert!(rel < 1.0 / 128.0, "recip seed err {rel} at {x}");
            let rel2 = (rsqrt_seed(x) - 1.0 / x.sqrt()).abs() * x.sqrt();
            assert!(rel2 < 1.0 / 32.0, "rsqrt seed err {rel2} at {x}");
        }
    }

    #[test]
    fn quadratic_convergence_visible() {
        let x = 1.7;
        let e0 = (recip_newton_raphson(x, 0) - 1.0 / x).abs();
        let e1 = (recip_newton_raphson(x, 1) - 1.0 / x).abs();
        assert!(e1 < e0 * e0 * x * 2.0, "error squares per step");
    }

    #[test]
    fn sfu_latency_model() {
        let mut sfu = SpecialFnUnit::new(DivSqrtImpl::Isolated);
        sfu.issue(DivSqrtOp::Reciprocal, 4.0, 0.0).unwrap();
        assert!(sfu.issue(DivSqrtOp::Reciprocal, 2.0, 0.0).is_err(), "busy");
        let lat = DivSqrtImpl::Isolated.latency(DivSqrtOp::Reciprocal);
        for _ in 0..lat - 1 {
            assert_eq!(sfu.step(), None);
        }
        let r = sfu.step().unwrap();
        assert!((r - 0.25).abs() < 1e-12);
        assert!(sfu.idle());
    }

    #[test]
    fn impl_latency_ordering() {
        // Software slowest, diagonal fastest — the Appendix A conclusion.
        for &op in &[
            DivSqrtOp::Reciprocal,
            DivSqrtOp::Sqrt,
            DivSqrtOp::Divide,
            DivSqrtOp::InvSqrt,
        ] {
            assert!(DivSqrtImpl::Software.latency(op) > DivSqrtImpl::Isolated.latency(op));
            assert!(DivSqrtImpl::Isolated.latency(op) > DivSqrtImpl::DiagonalPes.latency(op));
        }
    }

    #[test]
    fn exponent_edge_cases() {
        // powers of two and values near exponent boundaries
        for &x in &[
            0.5,
            0.25,
            2.0,
            4.0,
            8.0,
            1.999999,
            2.000001,
            f64::MIN_POSITIVE * 1e10,
        ] {
            let y = recip_newton_raphson(x, DEFAULT_NR_ITERS);
            assert!(ulps(y, 1.0 / x) <= 8, "x={x}");
        }
    }
}
