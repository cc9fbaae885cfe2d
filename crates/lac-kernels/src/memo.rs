//! Shape-keyed memoization of kernel microprograms.
//!
//! Kernel generators are pure functions of the problem *shape* (mesh
//! dimension, pipeline depth, SFU latency, block sizes) — the data flows
//! through external memory at run time. Rebuilding the identical
//! [`Program`] on every call wastes exactly the work the compiled
//! backend's [`lac_sim::ProgramCache`] is designed to skip: a fresh
//! `Program` has an empty structural-hash memo, so every run would
//! re-hash the whole instruction stream just to discover it is a cache
//! hit. This module keeps one `Arc<Program>` per `(kernel, shape)`
//! process-wide; repeated runs share the instance, its hash memoizes
//! once, and every compile-cache lookup after the first is O(1).
//!
//! The table is never evicted — a simulation campaign touches a handful
//! of shapes, each worth a few MB at most.

use lac_sim::Program;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Kernel name → shape → program. Keyed in two levels so a hit looks up
/// by the borrowed `&[u64]` shape and allocates nothing.
type Table = HashMap<&'static str, HashMap<Vec<u64>, Arc<Program>>>;

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

/// One `Arc<Program>` per `(kernel, shape)`, built on first use.
///
/// `shape` must encode *every* input the generator reads — two calls
/// with equal keys get the same program back verbatim.
pub(crate) fn program(
    kernel: &'static str,
    shape: &[u64],
    build: impl FnOnce() -> Program,
) -> Arc<Program> {
    if let Some(p) = table()
        .lock()
        .unwrap()
        .get(kernel)
        .and_then(|shapes| shapes.get(shape))
    {
        return Arc::clone(p);
    }
    // Build outside the lock (generators can be sizable). If two threads
    // race, the first insert wins and the loser's build is dropped.
    let built = Arc::new(build());
    let mut table = table().lock().unwrap();
    let shapes = table.entry(kernel).or_default();
    Arc::clone(shapes.entry(shape.to_vec()).or_insert(built))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_sim::ProgramBuilder;

    #[test]
    fn same_shape_shares_the_instance() {
        let build = || {
            let mut b = ProgramBuilder::new(2);
            b.idle(3);
            b.build()
        };
        let a = program("memo-test", &[2, 3], build);
        let b = program("memo-test", &[2, 3], build);
        assert!(Arc::ptr_eq(&a, &b));
        // The shared instance memoizes its structural hash once.
        assert_eq!(a.structural_hash(), b.structural_hash());
        let c = program("memo-test", &[2, 4], || {
            let mut b = ProgramBuilder::new(2);
            b.idle(4);
            b.build()
        });
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
