//! The PE's fused multiply-accumulate unit (§3.2, §A.3.1).
//!
//! The accumulator register takes one of two forms, fixed by
//! [`FpuConfig::exponent_extension`]. With the extension it is an
//! [`ExtendedAccumulator`], the wide (mantissa, exponent) pair of §A.2.
//! Without it, it is a plain binary64, and a MAC retire is
//! `acc = round(acc + a·b)` with two roundings, as binary64 arithmetic
//! rounds. [`MacUnit::acc_wide`] and [`MacUnit::read_acc_sqrt`] build the
//! wide view from it on demand.
//!
//! **NaN rule.** The narrow register holds a value exactly as the wide
//! register would read it back. Reading back multiplies by a power of two,
//! which returns every value unchanged except a signalling NaN: that comes
//! back quiet, with its sign and payload kept. So [`MacUnit::load_acc`]
//! stores a signalling NaN quiet. A retire needs no such step, because
//! arithmetic never yields a signalling NaN.

use crate::accumulator::{pow2i, ExtendedAccumulator};
use crate::pipeline::Pipeline;

/// Arithmetic precision of the datapath. The same FMAC hardware is assumed
/// reconfigurable between the two (the paper cites \[132\]); single precision
/// rounds every operation through `f32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    Single,
    Double,
}

impl Precision {
    /// Operand width in bytes (drives bandwidth numbers in the models).
    pub fn bytes(self) -> usize {
        match self {
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }
}

/// Static configuration of the PE floating-point datapath.
#[derive(Clone, Copy, Debug)]
pub struct FpuConfig {
    /// MAC pipeline depth `p` (the paper uses 5–9; TRSM stacking assumes 8).
    pub pipeline_depth: usize,
    /// SFU (divide/square-root) latency `q` in cycles.
    pub sfu_latency: usize,
    pub precision: Precision,
    /// Extended-exponent accumulator (§A.2) present?
    pub exponent_extension: bool,
}

impl Default for FpuConfig {
    fn default() -> Self {
        Self {
            pipeline_depth: 5,
            sfu_latency: 13,
            precision: Precision::Double,
            exponent_extension: false,
        }
    }
}

/// One in-flight multiply-accumulate: `acc += a * b` (or an externally
/// supplied addend `c + a*b` when `into_acc` is false).
#[derive(Clone, Copy, Debug)]
struct MacOp {
    a: f64,
    b: f64,
    /// `None` ⇒ accumulate into the local accumulator;
    /// `Some(c)` ⇒ produce `c ± a·b` to the result latch.
    addend: Option<f64>,
    /// When true the product is subtracted (`c - a·b`, or `acc -= a·b`).
    negate: bool,
}

/// The accumulator register (see the module docs).
#[derive(Clone, Copy, Debug)]
enum Acc {
    /// Without the exponent extension: the binary64 value, never a
    /// signalling NaN.
    Narrow(f64),
    /// With the exponent extension.
    Wide(ExtendedAccumulator),
}

/// Quiet a signalling NaN the way a binary64 multiply does: set the quiet
/// bit, keep sign and payload. Every other value passes unchanged.
fn quiet(x: f64) -> f64 {
    if x.is_nan() {
        f64::from_bits(x.to_bits() | 1 << 51)
    } else {
        x
    }
}

/// Timing- and range-accurate FMAC model with a local accumulator.
///
/// Semantics follow the paper: throughput one MAC per cycle, results
/// *visible in the accumulator* the cycle after retiring from the `p`-stage
/// pipeline, and accumulation chained without intermediate normalization.
#[derive(Clone, Debug)]
pub struct MacUnit {
    cfg: FpuConfig,
    pipe: Pipeline<MacOp>,
    acc: Acc,
    /// Result latch for non-accumulator ops (`c + a·b`).
    result: Option<f64>,
    /// Lifetime op count (feeds the energy model).
    pub ops_issued: u64,
}

impl MacUnit {
    pub fn new(cfg: FpuConfig) -> Self {
        Self {
            pipe: Pipeline::new(cfg.pipeline_depth),
            cfg,
            acc: if cfg.exponent_extension {
                Acc::Wide(ExtendedAccumulator::new())
            } else {
                Acc::Narrow(0.0)
            },
            result: None,
            ops_issued: 0,
        }
    }

    pub fn config(&self) -> &FpuConfig {
        &self.cfg
    }

    fn round(&self, x: f64) -> f64 {
        match self.cfg.precision {
            Precision::Single => x as f32 as f64,
            Precision::Double => x,
        }
    }

    /// Load the accumulator (the `C` preload over the column bus).
    pub fn load_acc(&mut self, v: f64) {
        let v = self.round(v);
        self.acc = match self.acc {
            Acc::Narrow(_) => Acc::Narrow(quiet(v)),
            Acc::Wide(_) => Acc::Wide(ExtendedAccumulator::from_f64(v)),
        };
    }

    /// Read the accumulator, normalizing (the stream-out step).
    pub fn read_acc(&self) -> f64 {
        self.round(match &self.acc {
            Acc::Narrow(x) => *x,
            Acc::Wide(w) => w.normalize(),
        })
    }

    /// The wide accumulator (the extended-format read port the §A.2
    /// datapath exposes to the sequencer). Without the exponent extension
    /// it is built from the binary64 register on each call.
    pub fn acc_wide(&self) -> ExtendedAccumulator {
        match self.acc {
            Acc::Narrow(x) => ExtendedAccumulator::from_f64(x),
            Acc::Wide(w) => w,
        }
    }

    /// Square root of the accumulator computed in the *wide* exponent space
    /// (§A.2): `√(m·2^e) = √(m·2^(e−2h))·2^h` with `h = ⌊e/2⌋`, so a sum of
    /// squares that exceeds binary64 range still yields a finite norm. Only
    /// meaningful with the exponent extension; without it this equals
    /// `read_acc().sqrt()`.
    pub fn read_acc_sqrt(&self) -> f64 {
        let acc = self.acc_wide();
        let h = acc.exponent().div_euclid(2);
        let m = acc.normalize_with_exp_shift(-2 * h);
        self.round(m.sqrt() * pow2i(h))
    }

    /// Issue `acc += a*b` this cycle. Err on double-issue.
    pub fn issue_mac(&mut self, a: f64, b: f64) -> Result<(), ()> {
        self.issue_mac_signed(a, b, false)
    }

    /// Issue `acc ±= a*b` (negate ⇒ subtract the product).
    pub fn issue_mac_signed(&mut self, a: f64, b: f64, negate: bool) -> Result<(), ()> {
        self.pipe
            .issue(MacOp {
                a: self.round(a),
                b: self.round(b),
                addend: None,
                negate,
            })
            .map_err(|_| ())?;
        self.ops_issued += 1;
        Ok(())
    }

    /// Issue a free-standing fused op `c + a*b`; the result appears in the
    /// result latch (`take_result`) after `p` cycles.
    pub fn issue_fma(&mut self, a: f64, b: f64, c: f64) -> Result<(), ()> {
        self.issue_fma_signed(a, b, c, false)
    }

    /// Issue `c ± a*b` (negate ⇒ fused multiply-subtract `c - a·b`).
    pub fn issue_fma_signed(&mut self, a: f64, b: f64, c: f64, negate: bool) -> Result<(), ()> {
        self.pipe
            .issue(MacOp {
                a: self.round(a),
                b: self.round(b),
                addend: Some(self.round(c)),
                negate,
            })
            .map_err(|_| ())?;
        self.ops_issued += 1;
        Ok(())
    }

    /// Advance one cycle; retire at most one op.
    pub fn step(&mut self) {
        if let Some(op) = self.pipe.step() {
            let a = if op.negate { -op.a } else { op.a };
            match op.addend {
                None => self.apply_retired_mac(a, op.b),
                Some(c) => self.result = Some(self.apply_retired_fma(a, op.b, c)),
            }
        }
    }

    /// Apply the retirement arithmetic of an accumulating MAC directly:
    /// `acc += a_signed * b`, with the same wide/narrow accumulator
    /// behavior as [`MacUnit::step`]. Operands must already be rounded to
    /// the configured precision and carry the product sign (the pipeline
    /// rounds at issue and signs at retire; the two commute because
    /// negation is exact). This is the retire door the decode-once
    /// compiled backend in `lac-sim` uses to skip the pipeline queue while
    /// staying bit-identical to the interpreter.
    #[inline]
    pub fn apply_retired_mac(&mut self, a_signed: f64, b: f64) {
        self.acc = match self.acc {
            // Narrow accumulator: plain binary64, so overflow behaves
            // like plain f64 (the baseline the extension fixes).
            Acc::Narrow(x) => Acc::Narrow(self.round(x + a_signed * b)),
            Acc::Wide(mut w) => {
                w.mac(a_signed, b);
                Acc::Wide(w)
            }
        };
    }

    /// The retirement arithmetic of a free-standing FMA: `c + a_signed*b`
    /// rounded to the configured precision. Same contract as
    /// [`MacUnit::apply_retired_mac`]: operands pre-rounded, sign
    /// pre-applied.
    #[inline]
    pub fn apply_retired_fma(&self, a_signed: f64, b: f64, c: f64) -> f64 {
        self.round(c + a_signed * b)
    }

    /// Drain the pipeline (advance until empty), returning cycles spent.
    pub fn drain(&mut self) -> usize {
        let mut cycles = 0;
        while !self.pipe.is_empty() {
            self.step();
            cycles += 1;
        }
        cycles
    }

    /// Take the latched non-accumulator result, if one has retired.
    pub fn take_result(&mut self) -> Option<f64> {
        self.result.take()
    }

    /// True if no work is in flight.
    pub fn idle(&self) -> bool {
        self.pipe.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_dot_product() {
        let mut mac = MacUnit::new(FpuConfig::default());
        mac.load_acc(0.0);
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [5.0, 6.0, 7.0, 8.0];
        for (x, y) in xs.iter().zip(&ys) {
            mac.issue_mac(*x, *y).unwrap();
            mac.step();
        }
        mac.drain();
        assert_eq!(mac.read_acc(), 70.0);
        assert_eq!(mac.ops_issued, 4);
    }

    #[test]
    fn pipeline_latency_respected() {
        let cfg = FpuConfig {
            pipeline_depth: 4,
            ..Default::default()
        };
        let mut mac = MacUnit::new(cfg);
        mac.load_acc(0.0);
        mac.issue_mac(2.0, 3.0).unwrap();
        for _ in 0..3 {
            mac.step();
            assert_eq!(mac.read_acc(), 0.0, "not yet retired");
        }
        mac.step();
        assert_eq!(mac.read_acc(), 6.0);
    }

    #[test]
    fn fma_result_latch() {
        let mut mac = MacUnit::new(FpuConfig {
            pipeline_depth: 2,
            ..Default::default()
        });
        mac.issue_fma(3.0, 4.0, 1.0).unwrap();
        mac.step();
        assert!(mac.take_result().is_none());
        mac.step();
        assert_eq!(mac.take_result(), Some(13.0));
        assert!(mac.take_result().is_none(), "latch cleared after take");
    }

    #[test]
    fn single_precision_rounds() {
        let cfg = FpuConfig {
            precision: Precision::Single,
            ..Default::default()
        };
        let mut mac = MacUnit::new(cfg);
        mac.load_acc(0.0);
        mac.issue_mac(1.0e-8, 1.0).unwrap();
        mac.drain();
        mac.issue_mac(1.0, 1.0).unwrap();
        mac.drain();
        // 1 + 1e-8 rounds to 1 in f32
        assert_eq!(mac.read_acc(), 1.0);
    }

    #[test]
    fn exponent_extension_survives_square_overflow() {
        let base = FpuConfig {
            exponent_extension: false,
            ..Default::default()
        };
        let ext = FpuConfig {
            exponent_extension: true,
            ..Default::default()
        };
        // Without extension: 1e200² overflows the accumulator.
        let mut m1 = MacUnit::new(base);
        m1.load_acc(0.0);
        m1.issue_mac(1e200, 1e200).unwrap();
        m1.drain();
        assert!(m1.read_acc().is_infinite());
        // With extension the wide accumulator holds it; read_acc only
        // overflows at final normalization, which the norm kernel avoids by
        // halving the exponent before the square root.
        let mut m2 = MacUnit::new(ext);
        m2.load_acc(0.0);
        m2.issue_mac(1e200, 1e200).unwrap();
        m2.drain();
        assert!(m2.acc_wide().exponent() > 1000);
    }

    #[test]
    fn double_issue_rejected() {
        let mut mac = MacUnit::new(FpuConfig::default());
        mac.issue_mac(1.0, 1.0).unwrap();
        assert!(mac.issue_mac(1.0, 1.0).is_err());
    }
}
