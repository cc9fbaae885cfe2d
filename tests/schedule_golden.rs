//! Golden schedule digests: the simulated behaviour of every coordinator
//! path, pinned to recorded values.
//!
//! Each section drives a fixed, seeded sweep of [`random_sized_dag`]
//! graphs through one public door under both [`SimMode`]s and folds the
//! `Debug` rendering of everything the runs leave observable into one
//! FNV-1a-64 digest per mode:
//!
//! * **cluster graph runs** — all four [`Scheduler`]s on 1–3 chips × 1–3
//!   cores, both [`Partitioner`]s, with and without mid-run chip kills,
//!   through [`LacCluster::run_graph`] twice per cluster (the second run
//!   starts on a later session clock with the dead chips still dead).
//!   Each run's result — outputs, partition, assignment, `wave_of`,
//!   `wave_end_cycles`, `idle_per_core`, transfers, stats and event log,
//!   or the typed error — and the final [`ClusterSession`] are hashed;
//! * **tenant rounds** — three weighted, budgeted tenants on 1–3 chips,
//!   several `FairShare` rounds with SLO boosts through
//!   [`LacCluster::run_admitted_boosted`], with and without a kill
//!   landing inside a round, on both partitioners. Each round, the admission verdicts, the
//!   final [`ClusterSession`] and every [`TenantSession`] are hashed;
//! * **the chip door** — [`LacChip::run_graph`] on 1–3 cores under every
//!   policy.
//!
//! The digests are the behavioural spec of the time core: a refactor of
//! it must reproduce every clock, meter, trace event and error
//! bit-for-bit. A digest mismatch prints the value the code now
//! produces; re-recording one is a behaviour change and needs a reason
//! of its own.

mod common;

use common::{random_sized_dag, SizedJob};
use lap::lac_sim::{
    ChipConfig, ClusterConfig, FaultPlan, JobGraph, LacChip, LacCluster, LacConfig, Partitioner,
    Scheduler, SimMode, TenantConfig,
};
use std::fmt::Write;

/// FNV-1a, 64-bit: folds everything written into it, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

const SCHEDULERS: [Scheduler; 4] = [
    Scheduler::Fifo,
    Scheduler::LeastLoaded,
    Scheduler::CriticalPath,
    Scheduler::FairShare,
];

const MODES: [SimMode; 2] = [SimMode::Wave, SimMode::Event];

/// SplitMix64: the sweep's only source of randomness, so the recorded
/// graphs never depend on a generator outside this file.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded random DAG of `2..2 + spread` sized jobs.
fn seeded_dag(seed: u64, spread: u64) -> JobGraph<SizedJob> {
    let mut s = seed;
    let n = 2 + (splitmix(&mut s) % spread) as usize;
    let extras: Vec<usize> = (0..n).map(|_| (splitmix(&mut s) % 10) as usize).collect();
    let seeds: Vec<u64> = (0..6).map(|_| splitmix(&mut s)).collect();
    random_sized_dag(&extras, &seeds)
}

fn cluster_cfg(chips: usize, cores: usize, mode: SimMode) -> ClusterConfig {
    ClusterConfig::homogeneous(chips, ChipConfig::new(cores, LacConfig::default()))
        .with_link(2, 30)
        .with_sim_mode(mode)
}

/// The kill schedules swept for a run whose fault-free makespan is
/// `makespan`: none, one kill mid-run, and — on three chips — two kills
/// on different chips at a third and two thirds of the run.
fn fault_plans(chips: usize, makespan: u64, seed: u64) -> Vec<FaultPlan> {
    let victim = seed as usize % chips;
    let mut plans = vec![
        FaultPlan::new(),
        FaultPlan::new().kill(victim, makespan / 2),
    ];
    if chips == 3 {
        plans.push(
            FaultPlan::new()
                .kill(victim, makespan / 3)
                .kill((victim + 1) % chips, 2 * makespan / 3),
        );
    }
    plans
}

fn cluster_graph_digest(mode: SimMode) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..4u64 {
        let graph = seeded_dag(seed, 18);
        for chips in 1..=3 {
            for cores in 1..=3 {
                for sched in SCHEDULERS {
                    for part in [Partitioner::CostBins, Partitioner::Striped] {
                        let build = || {
                            LacCluster::<SizedJob>::new(cluster_cfg(chips, cores, mode))
                                .with_partitioner(part)
                        };
                        let makespan = build()
                            .run_graph(&graph, sched)
                            .expect("fault-free run")
                            .stats
                            .makespan_cycles;
                        for plan in fault_plans(chips, makespan, seed) {
                            let mut cluster = build().with_fault_plan(plan);
                            for _ in 0..2 {
                                let run = cluster.run_graph(&graph, sched);
                                write!(h, "{run:?}").unwrap();
                            }
                            write!(h, "{:?}{:?}", cluster.session(), cluster.dead_chips()).unwrap();
                        }
                    }
                }
            }
        }
    }
    h.0
}

fn tenant_round_digest(mode: SimMode) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..3u64 {
        for chips in 1..=3 {
            for kill in [None, Some(seed as usize % chips)] {
                // Odd seeds stripe the pool, so rounds pay cut-edge transfers.
                let part = [Partitioner::CostBins, Partitioner::Striped][seed as usize % 2];
                let mut cluster: LacCluster<SizedJob> =
                    LacCluster::new(cluster_cfg(chips, 2, mode)).with_partitioner(part);
                if let Some(chip) = kill {
                    // Lands inside the first round on every shape swept here.
                    cluster.inject_faults(FaultPlan::new().kill(chip, 40 + seed * 13));
                }
                let tenants = [
                    cluster.add_tenant(TenantConfig::new("a")),
                    cluster.add_tenant(TenantConfig::new("b").with_weight(2)),
                    cluster.add_tenant(
                        TenantConfig::new("c")
                            .with_weight(3)
                            .with_admission_budget(60),
                    ),
                ];
                let mut s = seed.wrapping_mul(0x51_7cc1_b727_220a) ^ chips as u64;
                for round in 0..4u64 {
                    for k in 0..5u64 {
                        let t = tenants[(splitmix(&mut s) % 3) as usize];
                        let graph = seeded_dag(seed * 1000 + round * 10 + k, 8);
                        let verdict = cluster.enqueue(t, graph).map_err(|r| r.inflight_cost);
                        write!(h, "{verdict:?}").unwrap();
                    }
                    let boost = [
                        u64::MAX,
                        [u64::MAX, 0, 7][(round % 3) as usize],
                        [50, u64::MAX][(round % 2) as usize],
                    ];
                    let result = cluster.run_admitted_boosted(Scheduler::FairShare, &boost);
                    write!(h, "{result:?}").unwrap();
                    cluster.advance_idle(round * 5);
                }
                write!(h, "{:?}", cluster.session()).unwrap();
                for t in tenants {
                    write!(h, "{:?}", cluster.tenant_session(t)).unwrap();
                }
            }
        }
    }
    h.0
}

fn chip_door_digest(mode: SimMode) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..4u64 {
        let graph = seeded_dag(seed + 100, 18);
        for cores in 1..=3 {
            for sched in SCHEDULERS {
                let mut chip =
                    LacChip::new(ChipConfig::new(cores, LacConfig::default()).with_sim_mode(mode));
                let run = chip.run_graph(&graph, sched);
                write!(h, "{run:?}").unwrap();
            }
        }
    }
    h.0
}

/// Assert one section's digests, printing every mismatch at once.
fn check(section: &str, digest: fn(SimMode) -> u64, recorded: [u64; 2]) {
    let got: Vec<u64> = MODES.iter().map(|&m| digest(m)).collect();
    let report: Vec<String> = MODES
        .iter()
        .zip(&got)
        .map(|(m, d)| format!("{m:?}: {d:#018x}"))
        .collect();
    assert_eq!(
        got,
        recorded.to_vec(),
        "{section} digests moved; now {}",
        report.join(", ")
    );
}

#[test]
fn cluster_graph_runs_match_the_recorded_schedules() {
    check(
        "cluster graph runs",
        cluster_graph_digest,
        [0xb516_da8d_9d76_834f, 0xa744_515e_c191_048d],
    );
}

#[test]
fn tenant_rounds_match_the_recorded_schedules() {
    check(
        "tenant rounds",
        tenant_round_digest,
        [0x6900_a81d_0cf7_2689, 0x5efb_2593_4160_7e5c],
    );
}

#[test]
fn chip_door_runs_match_the_recorded_schedules() {
    check(
        "chip door runs",
        chip_door_digest,
        [0xa515_6b57_bd69_2458, 0x77a3_05f3_772f_ee25],
    );
}
