//! Property tests (vendored proptest) for the open-loop traffic layer:
//! whatever the seeds, process shapes and recorded samples —
//!
//! * histogram percentiles are monotone (p50 ≤ p99 ≤ p999), every
//!   reported percentile is an upper bound within the 12.5 % bucket
//!   granularity, and min ≤ p50, p999 ≤ max;
//! * histogram merge is exact (equals recording the union directly),
//!   commutative and associative;
//! * histograms are bit-deterministic: the same samples in any order
//!   produce identical state, and whole open-loop replays produce
//!   identical per-tenant histograms across reruns — with identical
//!   output bits across scheduler policies;
//! * arrival traces are bit-identical for a fixed seed and respect the
//!   configured mean rate within tolerance;
//! * the fixed-graph replay equals the dynamic replay of the same graphs
//!   lifted by `DynamicGraph::fixed`, request by request, meter by meter,
//!   on every backend and under admission pressure.

use lap::lac_sim::{
    ChipConfig, ClusterConfig, DynamicGraph, ExecStats, JobGraph, LacCluster, LacConfig,
    LacService, ProgramBuilder, ProgramJob, Scheduler, SimMode, TenantConfig,
};
use lap::lac_traffic::{
    run_open_loop, run_open_loop_dynamic, Arrival, ArrivalProcess, ArrivalTrace, CompletedRequest,
    LatencyHistogram, OpenLoopBackend, OpenLoopConfig, OpenLoopError, OpenLoopReport,
};
use proptest::prelude::*;

fn hist_of(samples: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

/// A tiny two-job chain whose shape is salted by the arrival identity.
fn request(a: &Arrival) -> JobGraph<ProgramJob> {
    let job = |extra: usize, cost: u64| {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        b.idle(4 + extra);
        let mut j = ProgramJob::new(b.build());
        j.cost = cost;
        j
    };
    let mut g = JobGraph::new();
    let first = g.add(job((a.index as usize) % 3, 30 + 20 * a.tenant as u64));
    g.add_after(job((a.tenant + 1) % 3, 25), &[first]);
    g
}

type Replay = Result<OpenLoopReport<ExecStats>, OpenLoopError>;

/// Replay `trace` through both drivers, each on a fresh backend with a
/// deadline tenant and a budget-bounded tenant, and project the dynamic
/// report onto the fixed report's shape (every request must take exactly
/// one segment).
fn both_drivers<B: OpenLoopBackend<ProgramJob>>(
    make_backend: impl Fn() -> B,
    add_tenant: impl Fn(&mut B, TenantConfig) -> lap::lac_sim::TenantId,
    trace: &ArrivalTrace,
    budget: u64,
    cfg: OpenLoopConfig,
) -> (Replay, Replay) {
    let tenants = |b: &mut B| {
        vec![
            add_tenant(b, TenantConfig::new("interactive").with_deadline(40)),
            add_tenant(b, TenantConfig::new("batch").with_admission_budget(budget)),
        ]
    };
    let mut fixed_backend = make_backend();
    let ids = tenants(&mut fixed_backend);
    let fixed = run_open_loop(&mut fixed_backend, trace, &ids, request, cfg);

    let mut dyn_backend = make_backend();
    let ids = tenants(&mut dyn_backend);
    let dynamic = run_open_loop_dynamic(
        &mut dyn_backend,
        trace,
        &ids,
        |a| DynamicGraph::fixed(request(a)),
        cfg,
    )
    .map(|r| OpenLoopReport {
        completed: r
            .completed
            .into_iter()
            .map(|c| {
                let mut segments = c.outcome.segments;
                assert_eq!(segments.len(), 1, "a fixed request is one segment");
                CompletedRequest {
                    arrival: c.arrival,
                    completion_tick: c.completion_tick,
                    sojourn_cycles: c.sojourn_cycles,
                    outputs: segments.pop().unwrap(),
                }
            })
            .collect(),
        per_tenant: r.per_tenant,
        rounds: r.rounds,
        final_clock: r.final_clock,
        events: r.events,
    });
    (fixed, dynamic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The fixed-graph driver is the one-segment case of the dynamic one:
    // completed arrivals, completion ticks, sojourns, outputs, per-tenant
    // histograms and deadline misses, rounds, final clock and the merged
    // event log all agree — and so does a typed error (a budget below one
    // request's cost deadlocks both the same way).
    #[test]
    fn fixed_replay_equals_the_dynamic_replay_of_fixed_graphs(
        seed in any::<u64>(),
        mean_gap in 3.0f64..40.0,
        backend in 0usize..3,
        event in any::<bool>(),
        which in any::<u8>(),
        slo_boost in any::<bool>(),
        capped in any::<bool>(),
        quantum in 40u64..400,
        budget in 60u64..320,
    ) {
        let trace = ArrivalTrace::generate(
            seed,
            3_000,
            &[
                ArrivalProcess::Poisson { mean_gap },
                ArrivalProcess::OnOff {
                    mean_gap_on: 15.0,
                    mean_burst: 4.0,
                    mean_gap_off: mean_gap * 3.0,
                },
            ],
        );
        let cfg = OpenLoopConfig {
            sched: [
                Scheduler::Fifo,
                Scheduler::LeastLoaded,
                Scheduler::CriticalPath,
                Scheduler::FairShare,
            ][which as usize % 4],
            slo_boost,
            max_round_cost: capped.then_some(quantum),
        };
        let mode = if event { SimMode::Event } else { SimMode::Wave };
        let chip = ChipConfig::new(2, LacConfig::default()).with_sim_mode(mode);
        let (fixed, dynamic) = match backend {
            0 => both_drivers(
                || LacService::<ProgramJob>::new(chip),
                |b, t| b.add_tenant(t),
                &trace,
                budget,
                cfg,
            ),
            chips => both_drivers(
                || LacCluster::<ProgramJob>::new(ClusterConfig::homogeneous(chips, chip)),
                |b, t| b.add_tenant(t),
                &trace,
                budget,
                cfg,
            ),
        };
        prop_assert_eq!(fixed, dynamic);
    }

    #[test]
    fn percentiles_are_monotone_and_bound_the_samples(
        samples in prop::collection::vec(0u64..2_000_000, 1..400),
    ) {
        let h = hist_of(&samples);
        let (p50, p99, p999) = (h.p50(), h.p99(), h.p999());
        prop_assert!(p50 <= p99 && p99 <= p999, "p50 {p50} p99 {p99} p999 {p999}");
        prop_assert!(h.min() <= p50);
        prop_assert!(p999 <= h.max());

        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for (q, got) in [(0.50, p50), (0.99, p99), (0.999, p999)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            // Upper bound within the 1/8 bucket width (+1 for unit buckets).
            prop_assert!(got >= exact, "q={q}: {got} below exact {exact}");
            prop_assert!(got <= exact + exact / 8 + 1, "q={q}: {got} too far above {exact}");
        }
    }

    #[test]
    fn merge_is_exact_commutative_and_associative(
        a in prop::collection::vec(0u64..1_000_000, 0..200),
        b in prop::collection::vec(0u64..1_000_000, 0..200),
        c in prop::collection::vec(0u64..1_000_000, 0..200),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // Exact: merging equals recording the union directly.
        let union: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let mut merged = ha.clone();
        merged.merge(&hb);
        merged.merge(&hc);
        prop_assert_eq!(&merged, &hist_of(&union));

        // Commutative + associative: any merge tree lands on the same bits.
        let mut cba = hc.clone();
        cba.merge(&hb);
        cba.merge(&ha);
        prop_assert_eq!(&merged, &cba);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&merged, &a_bc);
    }

    #[test]
    fn histograms_are_order_independent_and_deterministic(
        mut samples in prop::collection::vec(0u64..10_000_000, 1..300),
    ) {
        let forward = hist_of(&samples);
        prop_assert_eq!(&forward, &hist_of(&samples));
        samples.reverse();
        prop_assert_eq!(&forward, &hist_of(&samples));
    }

    #[test]
    fn traces_are_bit_identical_for_a_seed(
        seed in any::<u64>(),
        mean_gap in 2.0f64..500.0,
        horizon in 1_000u64..60_000,
    ) {
        let procs = [
            ArrivalProcess::Poisson { mean_gap },
            ArrivalProcess::OnOff {
                mean_gap_on: 3.0,
                mean_burst: 5.0,
                mean_gap_off: mean_gap * 4.0,
            },
            ArrivalProcess::Diurnal { mean_gap, period: horizon / 2 + 1, depth: 0.7 },
        ];
        let a = ArrivalTrace::generate(seed, horizon, &procs);
        prop_assert_eq!(&a, &ArrivalTrace::generate(seed, horizon, &procs));
        // And a different seed moves at least something (overwhelmingly
        // likely at these horizons; the exceptional empty-trace draw is
        // excluded).
        if !a.is_empty() {
            let b = ArrivalTrace::generate(seed ^ 0x5bd1_e995, horizon, &procs);
            prop_assert!(a != b || b.is_empty());
        }
    }

    #[test]
    fn poisson_traces_respect_the_mean_rate(
        seed in any::<u64>(),
        mean_gap in 20.0f64..200.0,
    ) {
        // Long horizon so the law of large numbers has room: ~5000 gaps.
        let horizon = (mean_gap * 5_000.0) as u64;
        let trace = ArrivalTrace::generate(seed, horizon, &[ArrivalProcess::Poisson { mean_gap }]);
        let expected = horizon as f64 / mean_gap;
        let got = trace.len() as f64;
        prop_assert!(
            (got - expected).abs() < 0.10 * expected,
            "seed {seed}: {got} arrivals vs ~{expected} expected"
        );
    }
}

/// Open-loop replays are bit-deterministic across reruns, and their
/// output bits are identical across scheduler policies (only the
/// latencies move). Driven over a fixed grid rather than proptest cases:
/// each replay runs a real service.
#[test]
fn open_loop_replays_are_deterministic_across_policies() {
    for seed in [1u64, 77, 901] {
        let trace = ArrivalTrace::generate(
            seed,
            12_000,
            &[
                ArrivalProcess::Poisson { mean_gap: 300.0 },
                ArrivalProcess::OnOff {
                    mean_gap_on: 20.0,
                    mean_burst: 4.0,
                    mean_gap_off: 1_500.0,
                },
            ],
        );
        let replay = |sched: Scheduler, slo_boost: bool| {
            let mut svc: LacService<ProgramJob> =
                LacService::new(ChipConfig::new(2, LacConfig::default()));
            let ids = vec![
                svc.add_tenant(TenantConfig::new("deadline").with_deadline(1_500)),
                svc.add_tenant(TenantConfig::new("batch")),
            ];
            run_open_loop(
                &mut svc,
                &trace,
                &ids,
                request,
                OpenLoopConfig {
                    sched,
                    slo_boost,
                    ..OpenLoopConfig::default()
                },
            )
            .unwrap()
        };

        let base = replay(Scheduler::FairShare, false);
        assert_eq!(base.completed.len(), trace.len());
        // Rerun: the whole report — histograms included — is bit-identical.
        assert_eq!(
            base,
            replay(Scheduler::FairShare, false),
            "seed {seed}: rerun diverged"
        );

        // Across policies and SLO boosting, output bits never move.
        let bits = |r: &lap::lac_traffic::OpenLoopReport<lap::lac_sim::ExecStats>| {
            let mut v: Vec<_> = r
                .completed
                .iter()
                .map(|c| (c.arrival, c.outputs.clone()))
                .collect();
            v.sort_by_key(|(a, _)| (a.tenant, a.index));
            v
        };
        for (sched, slo) in [
            (Scheduler::FairShare, true),
            (Scheduler::CriticalPath, false),
            (Scheduler::Fifo, false),
            (Scheduler::LeastLoaded, false),
        ] {
            let other = replay(sched, slo);
            assert_eq!(
                bits(&base),
                bits(&other),
                "seed {seed}: outputs diverged under {sched:?} (slo={slo})"
            );
        }
    }
}
