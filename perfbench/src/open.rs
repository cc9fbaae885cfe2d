//! The open-loop workload: `run_open_loop` replays two Poisson tenants,
//! "batch" and "interactive" (with a deadline SLO), against a 2-chip ×
//! 1-core `LacCluster` under fair share with the SLO boost.

use crate::spans::{Layer, SpanTree, Timed, Tracer};
use crate::summary::{enough_setups, nearest_rank, process_cpu_s, SimStats, Tally};
use lac_kernels::{KernelReport, SolverJob, SolverLoopParams, SolverStream};
use lac_sim::{
    CacheStats, ChipConfig, ChipJob, ChipStats, ClusterConfig, ClusterStats, ExecStats,
    GraphTicket, JobGraph, LacChip, LacCluster, LacConfig, Rejected, Scheduler, SimError,
    TenantConfig, TenantId,
};
use lac_traffic::{
    run_open_loop, ArrivalProcess, ArrivalTrace, LatencyHistogram, OpenLoopBackend, OpenLoopConfig,
    OpenLoopError, OpenLoopReport, RoundOutcome,
};
use std::sync::Arc;
use std::time::Instant;

/// Fewest replays a run measures, however long they take.
const MIN_REPLAYS: usize = 2;
/// Tenant names, in registration (trace stream) order.
const TENANTS: [&str; 2] = ["batch", "interactive"];
/// The backlog-stability bound: the median sojourn of the last quarter of
/// arrivals may be at most this multiple of the first quarter's.
const MAX_BACKLOG_GROWTH: f64 = 2.0;
/// Fewest samples the exact p99 must have beyond it.
const MIN_BEYOND_P99: usize = 10;

/// The open-loop workload's parameters.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpec {
    /// Shape of every request's solver chain; `salt` comes from the seed.
    pub stream: SolverLoopParams,
    /// Expected arrivals per replay.
    pub requests: u64,
    /// Offered load as a share of the cluster's capacity.
    pub load: f64,
    /// Share of the arrivals that belong to the interactive tenant.
    pub interactive_share: f64,
    /// The interactive deadline, in units of one request's service time.
    pub deadline_units: u64,
    /// Seed of the arrival trace.
    pub seed: u64,
}

impl OpenSpec {
    /// Chips (1 core each) behind the door.
    pub fn chips(&self) -> usize {
        2
    }

    /// Jobs per request.
    pub fn jobs_per_request(&self) -> u64 {
        (self.stream.rounds * (1 + 2 * self.stream.panels)) as u64
    }
}

fn cluster<J: ChipJob>(spec: &OpenSpec) -> LacCluster<J> {
    LacCluster::new(ClusterConfig::homogeneous(
        spec.chips(),
        ChipConfig::new(1, LacConfig::default()),
    ))
}

/// Everything a replay needs, built during set-up.
struct Setup<J: ChipJob> {
    door: LacCluster<J>,
    trace: ArrivalTrace,
    tenants: Vec<TenantId>,
    /// One request's simulated service time on one core, cycles.
    unit: u64,
    /// The cold warm-up run on the shared cache, seconds.
    cold_s: f64,
    /// The same run again on the now-warm cache, seconds.
    warm_s: f64,
}

/// Build the door, warm its compile cache through a separate chip that
/// shares the cache handle (so the door's clock does not move), measure
/// one request's service time, and generate the trace from it.
fn setup<J: ChipJob>(
    spec: &OpenSpec,
    stream: &SolverStream,
    tally: &mut Tally,
) -> Result<Setup<J>, SimError> {
    let mut door = cluster::<J>(spec);
    let mut chip = LacChip::with_program_cache(
        ChipConfig::new(1, LacConfig::default()),
        door.program_cache().clone(),
    );
    let probe = stream.request(0, 0);
    let t = Instant::now();
    let cold = chip.run_graph(&probe.graph().graph, Scheduler::CriticalPath)?;
    let cold_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let warm = chip.run_graph(&probe.graph().graph, Scheduler::CriticalPath)?;
    let warm_s = t.elapsed().as_secs_f64();
    let tc = Instant::now();
    for (run, what) in [(&cold, "cold"), (&warm, "warm")] {
        tally.attempted += 1;
        if let Err(e) = probe.check_graph(&run.outputs) {
            tally.fail(1, format!("{what} capacity probe: {e}"));
        }
    }
    tally.check_s += tc.elapsed().as_secs_f64();
    let unit = cold.stats.makespan_cycles;
    // Capacity: one request per `unit` cycles per chip.
    let rate = spec.load * spec.chips() as f64 / unit as f64;
    let horizon = (spec.requests as f64 / rate).ceil() as u64;
    let gap = |share: f64| ArrivalProcess::Poisson {
        mean_gap: 1.0 / (rate * share),
    };
    let trace = ArrivalTrace::generate(
        spec.seed,
        horizon,
        &[
            gap(1.0 - spec.interactive_share),
            gap(spec.interactive_share),
        ],
    );
    let tenants = vec![
        door.add_tenant(TenantConfig::new(TENANTS[0])),
        door.add_tenant(TenantConfig::new(TENANTS[1]).with_deadline(spec.deadline_units * unit)),
    ];
    Ok(Setup {
        door,
        trace,
        tenants,
        unit,
        cold_s,
        warm_s,
    })
}

/// The simulated outcome of one replay; repetitions must compare equal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpenSim {
    /// Whole-session simulated summary (makespan = session clock).
    pub sim: SimStats,
    /// Requests served.
    pub served: u64,
    /// Serving rounds.
    pub rounds: u64,
    /// Exact p50 sojourn over every request, cycles.
    pub p50: u64,
    /// Exact p99 sojourn over every request, cycles.
    pub p99: u64,
    /// Requests with a sojourn above the exact p99.
    pub beyond_p99: u64,
    /// Exact p99 per tenant, cycles.
    pub tenant_p99: Vec<u64>,
    /// Requests per tenant.
    pub tenant_served: Vec<u64>,
    /// Deadline misses (interactive tenant).
    pub deadline_misses: u64,
    /// Median sojourn of the last quarter of arrivals over the first's.
    pub backlog_growth: f64,
}

impl OpenSim {
    /// Interactive deadline misses over interactive requests served.
    pub fn slo_miss_frac(&self) -> f64 {
        self.deadline_misses as f64 / self.tenant_served[1].max(1) as f64
    }
}

/// The largest value of `v`'s bucket in a `LatencyHistogram` (8 linear
/// sub-buckets per octave) — what its percentiles report — for
/// cross-checking its p99 against the exact one.
pub fn bucket_upper_of(v: u64) -> u64 {
    const SUB_BITS: u32 = 3;
    if v < 1 << SUB_BITS {
        return v;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((v >> shift) + 1) << shift) - 1
}

/// Summarize a replay and run its checks: every request against
/// `linalg-ref`, every arrival served, enough samples beyond the exact
/// p99, the histogram's p99 in the exact p99's bucket, and no growing
/// backlog.
fn summarize<J: ChipJob>(
    spec: &OpenSpec,
    stream: &SolverStream,
    s: &Setup<J>,
    report: &OpenLoopReport<KernelReport>,
    tally: &mut Tally,
    what: &str,
) -> OpenSim {
    let t = Instant::now();
    tally.attempted += s.trace.len() as u64;
    let missing = s.trace.len() as u64 - report.completed.len() as u64;
    if missing > 0 {
        tally.fail(missing, format!("{what}: {missing} arrivals never served"));
    }
    for c in &report.completed {
        let w = stream.request(c.arrival.tenant, c.arrival.index);
        if let Err(e) = w.check_graph(&c.outputs) {
            tally.fail(1, format!("{what}: request {:?}: {e}", c.arrival));
        }
    }
    tally.check_s += t.elapsed().as_secs_f64();

    let mut all: Vec<u64> = report.completed.iter().map(|c| c.sojourn_cycles).collect();
    all.sort_unstable();
    let p50 = nearest_rank(&all, 0.50);
    let p99 = nearest_rank(&all, 0.99);
    let beyond_p99 = all.iter().filter(|&&v| v > p99).count();
    if beyond_p99 < MIN_BEYOND_P99 {
        tally.problem(format!(
            "{what}: only {beyond_p99} samples beyond p99 (need {MIN_BEYOND_P99})"
        ));
    }
    let mut hist = LatencyHistogram::new();
    for t in &report.per_tenant {
        hist.merge(&t.hist);
    }
    let hist_p99 = bucket_upper_of(p99).min(hist.max());
    if hist.p99() != hist_p99 {
        tally.problem(format!(
            "{what}: histogram p99 {} is not the bucket of the exact p99 {p99} (expected {hist_p99})",
            hist.p99()
        ));
    }
    let mut tenant_p99 = Vec::new();
    let mut tenant_served = Vec::new();
    for k in 0..TENANTS.len() {
        let mut v: Vec<u64> = report
            .completed
            .iter()
            .filter(|c| c.arrival.tenant == k)
            .map(|c| c.sojourn_cycles)
            .collect();
        v.sort_unstable();
        tenant_p99.push(nearest_rank(&v, 0.99));
        tenant_served.push(v.len() as u64);
    }

    let mut by_arrival: Vec<(u64, usize, u64, u64)> = report
        .completed
        .iter()
        .map(|c| {
            (
                c.arrival.tick,
                c.arrival.tenant,
                c.arrival.index,
                c.sojourn_cycles,
            )
        })
        .collect();
    by_arrival.sort_unstable();
    let quarter = (by_arrival.len() / 4).max(1);
    let quarter_p50 = |part: &[(u64, usize, u64, u64)]| {
        let mut v: Vec<u64> = part.iter().map(|x| x.3).collect();
        v.sort_unstable();
        nearest_rank(&v, 0.50).max(1) as f64
    };
    let backlog_growth = if by_arrival.is_empty() {
        0.0
    } else {
        quarter_p50(&by_arrival[by_arrival.len() - quarter..]) / quarter_p50(&by_arrival[..quarter])
    };
    if backlog_growth > MAX_BACKLOG_GROWTH {
        tally.problem(format!(
            "{what}: backlog grows: last-quarter median sojourn is {backlog_growth:.2}x the first \
             quarter's (bound {MAX_BACKLOG_GROWTH}x)"
        ));
    }

    let mut sim = session_stats(&s.door, report.final_clock);
    sim.jobs = report.completed.len() as u64 * spec.jobs_per_request();
    OpenSim {
        sim,
        served: report.completed.len() as u64,
        rounds: report.rounds,
        p50,
        p99,
        beyond_p99: beyond_p99 as u64,
        tenant_p99,
        tenant_served,
        deadline_misses: report.per_tenant[1].deadline_misses,
        backlog_growth,
    }
}

/// The door's whole session as one cluster run whose makespan is the
/// session clock (idle gaps between arrivals included), from the chips'
/// lifetime shard meters.
fn session_stats<J: ChipJob>(door: &LacCluster<J>, clock: u64) -> SimStats {
    let per_chip: Vec<ChipStats> = (0..door.num_chips())
        .map(|c| {
            let chip = door.chip(c);
            let per_core: Vec<ExecStats> = (0..chip.num_cores())
                .map(|k| *chip.shard(k).session_stats())
                .collect();
            let mut aggregate = ExecStats::default();
            per_core.iter().for_each(|s| aggregate.merge(s));
            ChipStats {
                jobs_per_core: vec![0; per_core.len()],
                per_core,
                makespan_cycles: clock,
                aggregate,
            }
        })
        .collect();
    let mut aggregate = ExecStats::default();
    per_chip.iter().for_each(|c| aggregate.merge(&c.aggregate));
    let session = door.session();
    let cores = per_chip
        .iter()
        .map(|c| c.per_core.len() as u64)
        .sum::<u64>();
    let idle = cores * clock - aggregate.cycles;
    SimStats::of_cluster(
        &ClusterStats {
            per_chip,
            makespan_cycles: clock,
            transferred_words: session.transferred_words,
            transfer_cycles: session.transfer_cycles,
            transfer_stall_cycles: 0,
            aggregate,
        },
        idle,
    )
}

/// Host timings of the untraced run.
#[derive(Debug, Default)]
pub struct OpenHost {
    /// Each set-up: trace + door + cold cache warm-up, seconds.
    pub setup_s: Vec<f64>,
    /// Each replay, seconds.
    pub replay_s: Vec<f64>,
    /// Each replay, process CPU seconds.
    pub replay_cpu_s: Vec<f64>,
    /// The capacity probe on a cold and on a warm cache, seconds.
    pub cold_s: Vec<f64>,
    /// See `cold_s`.
    pub warm_s: Vec<f64>,
    /// Jobs per replay.
    pub jobs: u64,
    /// One request's service time, cycles.
    pub unit: u64,
    /// Arrivals per replay.
    pub arrivals: u64,
    /// The first replay's simulated outcome; every other replay, traced
    /// ones included, must equal it.
    pub sim: Option<OpenSim>,
}

fn failed_replay(tally: &mut Tally, arrivals: usize, e: impl std::fmt::Display, what: &str) {
    tally.attempted += arrivals as u64;
    tally.fail(arrivals as u64, format!("{what}: {e}"));
}

/// The untraced run: set-up and replay, repeated for `seconds` (at least
/// `MIN_REPLAYS` times), each on a fresh door; set-up alone is repeated
/// until there are enough set-ups.
pub fn run(spec: &OpenSpec, seconds: f64, tally: &mut Tally) -> OpenHost {
    let stream = SolverStream::new(spec.stream);
    let cfg = OpenLoopConfig::default();
    let mut host = OpenHost::default();
    let start = Instant::now();
    let mut i = 0;
    loop {
        let replay = i < MIN_REPLAYS || start.elapsed().as_secs_f64() < seconds;
        if !replay && enough_setups(&host.setup_s) {
            break;
        }
        let what = format!("replay {i}");
        let t0 = Instant::now();
        let mut s = match setup::<SolverJob>(spec, &stream, tally) {
            Ok(s) => s,
            Err(e) => {
                tally.fail(1, format!("{what}: set-up: {e}"));
                break;
            }
        };
        // The second, warm probe run only feeds `compile.cold_s`.
        host.setup_s.push(t0.elapsed().as_secs_f64() - s.warm_s);
        host.cold_s.push(s.cold_s);
        host.warm_s.push(s.warm_s);
        host.unit = s.unit;
        host.arrivals = s.trace.len() as u64;
        host.jobs = host.arrivals * spec.jobs_per_request();
        if !replay {
            continue;
        }
        i += 1;
        let (t1, cpu) = (Instant::now(), process_cpu_s());
        let result = run_open_loop(
            &mut s.door,
            &s.trace,
            &s.tenants,
            |a| stream.request(a.tenant, a.index).graph().graph,
            cfg,
        );
        let (t2, dcpu) = (Instant::now(), process_cpu_s() - cpu);
        match result {
            Ok(report) => {
                host.replay_s.push((t2 - t1).as_secs_f64());
                host.replay_cpu_s.push(dcpu);
                let sim = summarize(spec, &stream, &s, &report, tally, &what);
                tally.same_sim(&mut host.sim, &sim, host.arrivals, &what);
            }
            Err(e) => {
                failed_replay(tally, s.trace.len(), e, &what);
                break;
            }
        }
    }
    host
}

/// An [`OpenLoopBackend`] over a cluster of [`Timed`] jobs that records a
/// span around each call the driver makes, and counts admission outcomes.
struct TracedDoor<'a, J: ChipJob> {
    inner: &'a mut LacCluster<Timed<J>>,
    tracer: &'a Tracer,
    offers: u64,
    bounces: u64,
    stall_cycles: u64,
}

impl<J: ChipJob> OpenLoopBackend<Timed<J>> for TracedDoor<'_, J> {
    fn enqueue(
        &mut self,
        t: TenantId,
        graph: JobGraph<Timed<J>>,
    ) -> Result<GraphTicket, Rejected<Timed<J>>> {
        let out = self
            .tracer
            .scope(Layer::Enqueue, || self.inner.enqueue(t, graph));
        self.offers += 1;
        self.bounces += u64::from(out.is_err());
        out
    }

    fn run_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<RoundOutcome<J::Output>, SimError> {
        let round = self.tracer.scope(Layer::Round, || {
            self.inner.run_admitted_boosted(sched, boost)
        })?;
        self.stall_cycles += round.stats.transfer_stall_cycles;
        Ok(RoundOutcome {
            completions: round.graphs,
            wave_end_cycles: round.wave_end_cycles,
            events: round.events,
        })
    }

    fn clock(&self) -> u64 {
        self.inner.session().clock_cycles
    }

    fn advance_idle(&mut self, cycles: u64) {
        self.tracer
            .scope(Layer::Idle, || self.inner.advance_idle(cycles));
    }

    fn deadline_of(&self, t: TenantId) -> Option<u64> {
        self.inner.tenant_config(t).deadline_cycles
    }

    fn num_tenants(&self) -> usize {
        self.inner.num_tenants()
    }
}

/// Per-layer numbers of the traced pass.
#[derive(Default)]
pub struct OpenTrace {
    /// The `run_open_loop` span, seconds.
    pub replay_s: f64,
    /// Request graph generation inside the replay, seconds.
    pub gen_s: f64,
    /// `enqueue` spans, seconds total.
    pub enqueue_s: f64,
    /// Admission offers and bounces.
    pub offers: u64,
    /// See `offers`.
    pub bounces: u64,
    /// `run_boosted` spans, seconds each.
    pub round_s: Vec<f64>,
    /// Round time not covered by any job span, seconds total.
    pub round_self_s: f64,
    /// Job spans, seconds total.
    pub job_s: f64,
    /// Job span lengths, µs, ascending.
    pub job_us: Vec<f64>,
    /// Replay time outside generation, admission, rounds and idle
    /// fast-forwards: the driver's own work, seconds.
    pub traffic_self_s: f64,
    /// Transfer stall cycles summed over rounds.
    pub stall_cycles: u64,
    /// The door's compile cache after the replay.
    pub cache: CacheStats,
    /// The traced spans, for the trace file.
    pub tree: Option<SpanTree>,
}

/// The traced pass: one set-up and replay on a door of [`Timed`] jobs,
/// checked and compared with the untraced run's simulated outcome.
pub fn trace(spec: &OpenSpec, reference: &mut Option<OpenSim>, tally: &mut Tally) -> OpenTrace {
    let stream = SolverStream::new(spec.stream);
    let tracer = Arc::new(Tracer::new());
    let mut out = OpenTrace::default();
    let mut s = match setup::<Timed<SolverJob>>(spec, &stream, tally) {
        Ok(s) => s,
        Err(e) => {
            tally.fail(1, format!("traced set-up: {e}"));
            return out;
        }
    };
    let mut door = TracedDoor {
        inner: &mut s.door,
        tracer: &tracer,
        offers: 0,
        bounces: 0,
        stall_cycles: 0,
    };
    let result: Result<_, OpenLoopError> = tracer.scope(Layer::Replay, || {
        run_open_loop(
            &mut door,
            &s.trace,
            &s.tenants,
            |a| {
                let g = tracer.scope(Layer::Gen, || {
                    stream.request(a.tenant, a.index).graph().graph
                });
                g.map(|j| Timed::new(j, Arc::clone(&tracer)))
            },
            OpenLoopConfig::default(),
        )
    });
    out.offers = door.offers;
    out.bounces = door.bounces;
    out.stall_cycles = door.stall_cycles;
    match result {
        Ok(report) => {
            let sim = summarize(spec, &stream, &s, &report, tally, "traced replay");
            tally.same_sim(reference, &sim, s.trace.len() as u64, "traced replay");
        }
        Err(e) => failed_replay(tally, s.trace.len(), e, "traced replay"),
    }
    out.cache = s.door.program_cache().stats();

    let tree = SpanTree::new(tracer.spans());
    let secs = |layer: Layer| -> f64 { tree.of(layer).iter().map(|x| x.len() as f64 / 1e9).sum() };
    out.replay_s = secs(Layer::Replay);
    out.gen_s = secs(Layer::Gen);
    out.enqueue_s = secs(Layer::Enqueue);
    out.traffic_self_s = tree
        .of(Layer::Replay)
        .iter()
        .map(|r| tree.self_ns(r) as f64 / 1e9)
        .sum();
    for round in tree.of(Layer::Round) {
        out.round_s.push(round.len() as f64 / 1e9);
        out.round_self_s += tree.self_ns(&round) as f64 / 1e9;
    }
    for job in tree.of(Layer::Job) {
        out.job_s += job.len() as f64 / 1e9;
        out.job_us.push(job.len() as f64 / 1e3);
    }
    out.job_us.sort_by(f64::total_cmp);
    out.tree = Some(tree);
    out
}
