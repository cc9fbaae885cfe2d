//! The worker pool hands a batch to worker threads only when the batch
//! is worth the hand-off. A batch of one job — however costly — runs on
//! the calling thread, as does any batch whose summed cost hint is at
//! most `INLINE_COST`; a costlier batch that spans several engines keeps
//! the first-dispatched engine's jobs on the calling thread and runs the
//! rest on workers.
//!
//! This file holds exactly one test, so no other test in its process
//! checks workers out of the process-wide idle cache concurrently.

use lac_sim::{
    ChipConfig, ChipJob, ClusterConfig, JobGraph, LacChip, LacCluster, LacConfig, LacEngine,
    Partitioner, Scheduler, SimError, SimMode, INLINE_COST,
};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

/// A job with a chosen cost hint that records the thread it ran on.
struct WhereAmI<'a> {
    seen: &'a Mutex<HashSet<ThreadId>>,
    cost: u64,
}

impl ChipJob for WhereAmI<'_> {
    type Output = ();

    fn cost_hint(&self) -> u64 {
        self.cost
    }

    fn run_on(&self, _eng: &mut LacEngine) -> Result<(), SimError> {
        self.seen
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        Ok(())
    }
}

#[test]
fn one_job_batches_stay_inline_and_costly_waves_fan_out() {
    let me = std::thread::current().id();
    let seen = Mutex::new(HashSet::new());

    // Event mode on 2 chips × 1 core, a chain striped across both chips:
    // every batch holds one job, so even jobs far above the threshold
    // run on the calling thread, on both engines in turn.
    let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(1, LacConfig::default()))
        .with_sim_mode(SimMode::Event);
    let mut cluster: LacCluster<WhereAmI> =
        LacCluster::new(cfg).with_partitioner(Partitioner::Striped);
    let mut chain = JobGraph::new();
    let mut last = chain.add(WhereAmI {
        seen: &seen,
        cost: 10 * INLINE_COST,
    });
    for _ in 1..64 {
        let job = WhereAmI {
            seen: &seen,
            cost: 10 * INLINE_COST,
        };
        last = chain.add_after(job, &[last]);
    }
    let run = cluster.run_graph(&chain, Scheduler::Fifo).unwrap();
    let chips: HashSet<usize> = run.assignment.iter().map(|&(chip, _)| chip).collect();
    assert_eq!(chips.len(), 2, "the chain visits both chips");
    assert_eq!(*seen.lock().unwrap(), HashSet::from([me]));

    // A 2-core chip's wave of jobs each costlier than the threshold: core
    // 0's bucket stays on the calling thread, core 1's goes to a worker.
    seen.lock().unwrap().clear();
    let mut chip = LacChip::new(ChipConfig::new(2, LacConfig::default()));
    let wave: JobGraph<WhereAmI> = (0..8)
        .map(|_| WhereAmI {
            seen: &seen,
            cost: INLINE_COST + 1,
        })
        .collect();
    chip.run_graph(&wave, Scheduler::Fifo).unwrap();
    let threads = seen.lock().unwrap();
    assert!(
        threads.contains(&me),
        "the calling thread runs core 0's jobs"
    );
    assert!(
        threads.len() >= 2,
        "a costly wave runs on {} thread(s)",
        threads.len()
    );
}
