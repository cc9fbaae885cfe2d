//! The repository benchmark: three workloads that each load one layer of
//! the LAC serving stack, end-to-end metrics on the host and simulated
//! clocks, and per-layer spans recorded from outside the library. See
//! `README.md` next to this package for the workloads, the metrics and
//! how to run it.

pub mod closed;
pub mod open;
pub mod spans;
pub mod summary;
