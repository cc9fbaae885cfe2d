//! Bit-identity of the FPU model's fast paths against the formulas they
//! replace.
//!
//! - [`pow2i`] against `2f64.powi`, evaluated at run time.
//! - The narrow (extension-off) [`MacUnit`], which holds its accumulator
//!   as a plain binary64, against the former model of that register: a
//!   (mantissa, exponent) pair written with `split` and read with
//!   `assemble`, whose scaling uses `powi`. Those formulas are kept below,
//!   verbatim, as the oracle.

use lac_fpu::{pow2i, FpuConfig, MacUnit, Precision};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hint::black_box;

/// `2f64.powi(k)` as the compiled code evaluates it (not constant-folded).
fn powi2(k: i32) -> f64 {
    black_box(2f64).powi(black_box(k))
}

#[test]
fn pow2i_matches_powi_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x9e37);
    let random = (0..100_000).map(|_| rng.next_u64() as i32);
    let edges = [i32::MIN, i32::MIN + 1, i32::MAX, i32::MAX - 1];
    for k in (-70_000..=70_000).chain(edges).chain(random) {
        assert_eq!(
            pow2i(k).to_bits(),
            powi2(k).to_bits(),
            "k = {k}: pow2i {:e} vs powi {:e}",
            pow2i(k),
            powi2(k)
        );
    }
}

// ---------------------------------------------------------------------------
// The oracle: the former narrow accumulator, formula for formula.
// ---------------------------------------------------------------------------

fn split(x: f64) -> (f64, i32) {
    if x == 0.0 || !x.is_finite() {
        return (x, 0);
    }
    let bits = x.to_bits();
    let raw_exp = ((bits >> 52) & 0x7ff) as i32;
    if raw_exp == 0 {
        let scaled = x * powi2(64);
        let (m, e) = split(scaled);
        return (m, e - 64);
    }
    let e = raw_exp - 1022;
    let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
    (m, e)
}

fn assemble(m: f64, e: i32) -> f64 {
    if m == 0.0 {
        return m;
    }
    let mut v = m;
    let mut e = e;
    while e > 1000 {
        v *= powi2(1000);
        e -= 1000;
        if v.is_infinite() {
            return v;
        }
    }
    while e < -1000 {
        v *= powi2(-1000);
        e += 1000;
        if v == 0.0 {
            return v;
        }
    }
    v * powi2(e)
}

/// The former extension-off MAC register: `(mantissa, exponent)`.
struct Oracle {
    single: bool,
    m: f64,
    e: i32,
}

impl Oracle {
    fn new(precision: Precision) -> Self {
        Self {
            single: precision == Precision::Single,
            m: 0.0,
            e: 0,
        }
    }

    fn round(&self, x: f64) -> f64 {
        if self.single {
            x as f32 as f64
        } else {
            x
        }
    }

    fn set(&mut self, v: f64) {
        (self.m, self.e) = split(v);
    }

    fn load(&mut self, v: f64) {
        self.set(self.round(v));
    }

    fn normalize(&self) -> f64 {
        assemble(self.m, self.e)
    }

    fn read(&self) -> f64 {
        self.round(self.normalize())
    }

    /// Retire `acc += a_signed * b` (operands already rounded and signed).
    fn retire(&mut self, a_signed: f64, b: f64) {
        self.set(self.round(self.normalize() + a_signed * b));
    }

    fn read_sqrt(&self) -> f64 {
        let h = self.e.div_euclid(2);
        let m = assemble(self.m, self.e - 2 * h);
        self.round(m.sqrt() * powi2(h))
    }
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

const QNAN: u64 = 0x7ff8_0000_0000_1234;
const QNAN_NEG: u64 = 0xfff8_0000_dead_beef;
const SNAN: u64 = 0x7ff0_0000_0000_0001;
const SNAN_NEG: u64 = 0xfff4_0000_0000_abcd;
/// A signalling NaN whose payload survives the narrowing to binary32.
const SNAN_WIDE_PAYLOAD: u64 = 0x7ff1_2345_6000_0000;

fn specials() -> Vec<f64> {
    let mut v: Vec<f64> = [QNAN, QNAN_NEG, SNAN, SNAN_NEG, SNAN_WIDE_PAYLOAD]
        .iter()
        .map(|&b| f64::from_bits(b))
        .collect();
    v.extend([
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(0x000f_ffff_ffff_ffff),
        f64::MIN_POSITIVE / 8.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        -f64::MAX,
        f64::MAX / 2.0,
        1.0,
        -1.5,
        1e300,
        -1e-300,
        f32::MAX as f64,
        2.0 * f32::MAX as f64,
        f32::MIN_POSITIVE as f64,
        1e-45,
        1e-40,
    ]);
    v
}

/// A mix of special values, raw bit patterns (every exponent, the odd
/// NaN) and moderate magnitudes whose sums stay finite.
fn draw(rng: &mut StdRng, specials: &[f64]) -> f64 {
    match rng.gen_range(0u32..10) {
        0 => specials[rng.gen_range(0..specials.len())],
        1 | 2 => f64::from_bits(rng.next_u64()),
        _ => rng.gen_range(-4.0..4.0) * pow2i(rng.gen_range(-40..40)),
    }
}

fn same(what: &str, step: usize, new: f64, old: f64) {
    assert_eq!(
        new.to_bits(),
        old.to_bits(),
        "step {step}: {what}: {new:e} ({:#018x}) vs oracle {old:e} ({:#018x})",
        new.to_bits(),
        old.to_bits()
    );
}

fn observe(step: usize, mac: &MacUnit, oracle: &Oracle) {
    same("read_acc", step, mac.read_acc(), oracle.read());
    let wide = mac.acc_wide();
    same(
        "acc_wide().normalize()",
        step,
        wide.normalize(),
        oracle.normalize(),
    );
    assert_eq!(
        wide.exponent(),
        oracle.e,
        "step {step}: acc_wide().exponent()"
    );
    same(
        "read_acc_sqrt",
        step,
        mac.read_acc_sqrt(),
        oracle.read_sqrt(),
    );
}

fn narrow(precision: Precision) -> (MacUnit, Oracle) {
    let cfg = FpuConfig {
        pipeline_depth: 2,
        precision,
        exponent_extension: false,
        ..FpuConfig::default()
    };
    (MacUnit::new(cfg), Oracle::new(precision))
}

/// IEEE 754 leaves open which payload an operation with two NaN operands
/// returns, and the compiler may order a commutative operation's operands
/// either way, so such retires have no single expected payload.
fn two_nans(acc: f64, a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || (acc.is_nan() && (a * b).is_nan())
}

// ---------------------------------------------------------------------------
// The narrow MacUnit against the oracle.
// ---------------------------------------------------------------------------

#[test]
fn narrow_loads_and_reads_match_on_special_values() {
    for precision in [Precision::Double, Precision::Single] {
        let (mut mac, mut oracle) = narrow(precision);
        observe(0, &mac, &oracle);
        for (step, &v) in specials().iter().enumerate() {
            mac.load_acc(v);
            oracle.load(v);
            observe(step, &mac, &oracle);
        }
    }
}

#[test]
fn narrow_quiets_a_loaded_signalling_nan_keeping_its_payload() {
    let (mut mac, _) = narrow(Precision::Double);
    mac.load_acc(f64::from_bits(SNAN_NEG));
    assert_eq!(mac.read_acc().to_bits(), SNAN_NEG | 1 << 51);
    // A finite product added to it keeps the (now quiet) payload.
    mac.apply_retired_mac(2.0, 3.0);
    assert_eq!(mac.read_acc().to_bits(), SNAN_NEG | 1 << 51);
}

#[test]
fn narrow_retires_match_on_special_values() {
    let specials = specials();
    for precision in [Precision::Double, Precision::Single] {
        let (mut mac, mut oracle) = narrow(precision);
        let mut step = 0;
        for &c in &specials {
            for &a in &specials {
                for &b in &[1.0, -0.5, f64::MAX, 0.0, f64::from_bits(1), f64::INFINITY] {
                    mac.load_acc(c);
                    oracle.load(c);
                    let (a_r, b_r) = (oracle.round(a), oracle.round(b));
                    if two_nans(oracle.normalize(), a_r, b_r) {
                        continue;
                    }
                    mac.apply_retired_mac(a_r, b_r);
                    oracle.retire(a_r, b_r);
                    observe(step, &mac, &oracle);
                    step += 1;
                }
            }
        }
    }
}

#[test]
fn narrow_random_sequences_match() {
    let specials = specials();
    for (seed, precision) in [
        (1u64, Precision::Double),
        (2, Precision::Double),
        (3, Precision::Single),
        (4, Precision::Single),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut mac, mut oracle) = narrow(precision);
        for step in 0..20_000 {
            let a = draw(&mut rng, &specials);
            let b = draw(&mut rng, &specials);
            let negate = rng.gen_bool(0.5);
            match rng.gen_range(0u32..8) {
                // Preload.
                0 => {
                    mac.load_acc(a);
                    oracle.load(a);
                }
                // Through the pipeline: rounded at issue, signed at retire.
                1..=3 => {
                    let (a_r, b_r) = (oracle.round(a), oracle.round(b));
                    let a_s = if negate { -a_r } else { a_r };
                    if two_nans(oracle.normalize(), a_s, b_r) {
                        continue;
                    }
                    mac.issue_mac_signed(a, b, negate).unwrap();
                    mac.drain();
                    oracle.retire(a_s, b_r);
                }
                // The compiled backend's retire door.
                _ => {
                    let (a_r, b_r) = (oracle.round(a), oracle.round(b));
                    if two_nans(oracle.normalize(), a_r, b_r) {
                        continue;
                    }
                    mac.apply_retired_mac(a_r, b_r);
                    oracle.retire(a_r, b_r);
                }
            }
            observe(step, &mac, &oracle);
        }
    }
}

#[test]
fn narrow_overflow_reads_infinite_like_the_oracle() {
    for precision in [Precision::Double, Precision::Single] {
        let (mut mac, mut oracle) = narrow(precision);
        mac.load_acc(f64::MAX);
        oracle.load(f64::MAX);
        for (a, b) in [
            (f64::MAX, 2.0),
            (-1.0, 1.0),
            (1e200, 1e200),
            (-f64::MAX, 4.0),
        ] {
            let (a, b) = (oracle.round(a), oracle.round(b));
            mac.apply_retired_mac(a, b);
            oracle.retire(a, b);
            observe(0, &mac, &oracle);
        }
        assert!(mac.read_acc().is_nan(), "inf + -inf");
    }
}
