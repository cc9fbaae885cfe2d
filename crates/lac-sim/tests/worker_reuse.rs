//! The worker pool reuses its threads across runs: after a warm-up run,
//! many short rounds on a 2-chip × 1-core cluster execute on at most two
//! distinct worker threads — one per engine — instead of a fresh thread
//! per engine per round.
//!
//! This file holds exactly one test, so no other test in its process
//! checks workers out of the process-wide idle cache concurrently.

use lac_sim::{
    ChipConfig, ChipJob, ClusterConfig, JobGraph, LacCluster, LacConfig, LacEngine, Scheduler,
    SimError,
};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

/// A job that records the thread it ran on.
struct WhereAmI<'a>(&'a Mutex<HashSet<ThreadId>>);

impl ChipJob for WhereAmI<'_> {
    type Output = ();

    fn run_on(&self, _eng: &mut LacEngine) -> Result<(), SimError> {
        self.0.lock().unwrap().insert(std::thread::current().id());
        Ok(())
    }
}

#[test]
fn rounds_reuse_one_worker_thread_per_engine() {
    let seen = Mutex::new(HashSet::new());
    let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(1, LacConfig::default()));
    let mut cluster: LacCluster<WhereAmI> = LacCluster::new(cfg);
    let round = || -> JobGraph<WhereAmI> { (0..4).map(|_| WhereAmI(&seen)).collect() };
    cluster.run_graph(&round(), Scheduler::Fifo).unwrap();
    seen.lock().unwrap().clear();
    for _ in 0..500 {
        cluster.run_graph(&round(), Scheduler::Fifo).unwrap();
    }
    let threads = seen.lock().unwrap().len();
    assert!(
        (1..=2).contains(&threads),
        "500 rounds ran on {threads} distinct worker threads"
    );
}
