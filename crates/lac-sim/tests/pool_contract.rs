//! Complexity contract of the time core and its worker pool, measured
//! through the public cluster door: host µs per job may grow at most 2×
//! from 1k to 32k jobs under either release rule, and the event rule may
//! cost at most 2× the barrier rule per job. The workload is a layered,
//! 64-wide DAG of one-step `ProgramJob`s on 2 chips × 2 cores under
//! `CriticalPath` — short jobs, so the host time is the coordinator's
//! and the pool's, not the simulation's. Every job borrows one shared
//! job, so the graph's own footprint stays small: 32k cloned programs
//! would stream tens of MB through the cache and time the memory system
//! instead. Ratios of one machine's timings are machine-independent;
//! each point is the best of 3 runs.
//!
//! Timed, so it runs in release only, with few test threads (CI pins
//! `--release -- --test-threads 2`); a debug build times unoptimized
//! code, not the contract.

use lac_sim::{
    ChipConfig, ClusterConfig, JobGraph, LacCluster, LacConfig, ProgramBuilder, ProgramJob,
    Scheduler, SimMode,
};
use std::time::Instant;

const WIDTH: usize = 64;

/// `jobs / WIDTH` layers of `WIDTH` borrows of `job`; job `k` of a layer
/// waits on jobs `k` and `k + 1` (mod `WIDTH`) of the layer before.
fn layered(job: &ProgramJob, jobs: usize) -> JobGraph<&ProgramJob> {
    let mut g = JobGraph::new();
    let mut prev: Vec<_> = (0..WIDTH).map(|_| g.add(job)).collect();
    for _ in 1..jobs / WIDTH {
        prev = (0..WIDTH)
            .map(|k| g.add_after(job, &[prev[k], prev[(k + 1) % WIDTH]]))
            .collect();
    }
    g
}

/// Best-of-3 host µs per job of one run of `graph` under `mode`.
fn us_per_job(graph: &JobGraph<&ProgramJob>, mode: SimMode) -> f64 {
    let cfg =
        ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default())).with_sim_mode(mode);
    let mut cluster: LacCluster<&ProgramJob> = LacCluster::new(cfg);
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let run = cluster.run_graph(graph, Scheduler::CriticalPath).unwrap();
            let us = start.elapsed().as_secs_f64() * 1e6;
            assert_eq!(run.outputs.len(), graph.len());
            us / graph.len() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timed: run with --release")]
fn per_job_host_cost_is_flat_and_the_event_rule_is_not_dearer() {
    let mut b = ProgramBuilder::new(LacConfig::default().nr);
    b.push_step();
    let job = ProgramJob::new(b.build());
    let (small, large) = (layered(&job, 1 << 10), layered(&job, 1 << 15));
    let mut per_mode = Vec::new();
    for mode in [SimMode::Wave, SimMode::Event] {
        let (s, l) = (us_per_job(&small, mode), us_per_job(&large, mode));
        eprintln!("{mode:?}: {s:.2} µs/job at 1k jobs, {l:.2} at 32k");
        assert!(
            l <= 2.0 * s,
            "{mode:?}: µs/job grows {:.2}x from 1k to 32k jobs",
            l / s
        );
        per_mode.push((s, l));
    }
    let [(wave_s, wave_l), (event_s, event_l)] = per_mode[..] else {
        unreachable!()
    };
    for (size, event, wave) in [("1k", event_s, wave_s), ("32k", event_l, wave_l)] {
        assert!(
            event <= 2.0 * wave,
            "at {size} jobs the event rule costs {:.2}x the barrier rule per job",
            event / wave
        );
    }
}
