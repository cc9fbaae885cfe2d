//! Floating-point unit models for the Linear Algebra Core.
//!
//! The dissertation's PE datapath is built around a pipelined **fused
//! multiply-accumulate (FMAC)** unit with a *local accumulator* and *delayed
//! normalization* (one accumulation per cycle, normalize only when the value
//! leaves the accumulator), plus the Appendix-A extensions:
//!
//! - a **comparator** riding on the MAC for LU pivot search,
//! - an **extended exponent bit** in the accumulator so `Σ xᵢ²` cannot
//!   overflow during vector norms,
//! - **divide / reciprocal / square-root / inverse-square-root** support in
//!   one of three forms: software Goldschmidt iterations on the existing MAC,
//!   an isolated special-function unit (SFU) with minimax lookup logic, or
//!   MAC-extended *diagonal* PEs.
//!
//! Everything here is a *software model*: functional results use `f64`
//! arithmetic (checked against closed forms in tests), while latency and
//! energy are explicit metadata consumed by `lac-sim` and `lac-power`.

// The FPU issue ports signal structural back-pressure ("unit busy this
// cycle") with a unit error; a dedicated error type would carry no data.
#![allow(clippy::result_unit_err)]

pub mod accumulator;
pub mod comparator;
pub mod mac;
pub mod pipeline;
pub mod special;

pub use accumulator::{pow2i, ExtendedAccumulator};
pub use comparator::{magnitude_ge, magnitude_max_index};
pub use mac::{FpuConfig, MacUnit, Precision};
pub use pipeline::Pipeline;
pub use special::{
    compute as divsqrt_compute, div_goldschmidt, recip_newton_raphson, rsqrt_newton_raphson,
    sqrt_via_rsqrt, DivSqrtImpl, DivSqrtOp, SpecialFnUnit,
};
