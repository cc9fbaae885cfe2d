//! The two closed-loop workloads: one fused `SolverFleet` submitted back
//! to back, on a 2-core `LacService` (`solver_fleet`) or on a 2-chip ×
//! 1-core event-mode `LacCluster` with striped placement (`event_fleet`).

use crate::spans::{Layer, SpanTree, Timed, Tracer};
use crate::summary::{enough_setups, median, process_cpu_s, SimStats, Tally};
use lac_kernels::{KernelReport, SolverFleet, SolverJob, SolverLoopParams};
use lac_sim::{
    CacheStats, ChipConfig, ChipJob, ClusterConfig, JobGraph, LacCluster, LacConfig, LacService,
    Partitioner, Scheduler, SimError, SimMode,
};
use std::sync::Arc;
use std::time::Instant;

/// Fewest warm submissions a run measures, however long they take.
const MIN_WARM: usize = 3;
/// Warm submissions the traced pass measures (after its own cold one).
const TRACED_WARM: usize = 2;

/// Which door a fleet is submitted through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetDoor {
    /// A 2-core `LacService`, wave mode, compiled backend.
    Service,
    /// A 2-chip × 1-core `LacCluster`, event mode, striped placement.
    EventCluster,
}

/// One closed-loop workload.
#[derive(Clone, Copy, Debug)]
pub struct FleetSpec {
    /// Shape of every member loop; `salt` comes from the seed.
    pub params: SolverLoopParams,
    /// Member loops fused into one submission.
    pub loops: usize,
    /// The door they are submitted through.
    pub door: FleetDoor,
}

impl FleetSpec {
    /// Simulated cores behind the door.
    pub fn cores(&self) -> usize {
        2
    }

    /// Jobs per submission.
    pub fn jobs(&self) -> usize {
        self.loops * self.params.rounds * (1 + 2 * self.params.panels)
    }
}

/// A closed-loop door: run one graph to completion.
trait ClosedDoor<J: ChipJob> {
    /// Run `graph` under the critical-path policy.
    fn run(&mut self, graph: JobGraph<J>) -> Result<(Vec<J::Output>, SimStats), SimError>;
    /// The door's compile cache counters.
    fn cache_stats(&self) -> CacheStats;
}

impl<J: ChipJob + 'static> ClosedDoor<J> for LacService<J> {
    fn run(&mut self, graph: JobGraph<J>) -> Result<(Vec<J::Output>, SimStats), SimError> {
        let run = self.submit(graph, Scheduler::CriticalPath)?;
        Ok((
            run.outputs,
            SimStats::of_chip(&run.stats, run.idle_per_core.iter().sum()),
        ))
    }

    fn cache_stats(&self) -> CacheStats {
        self.program_cache().stats()
    }
}

impl<J: ChipJob> ClosedDoor<J> for LacCluster<J> {
    fn run(&mut self, graph: JobGraph<J>) -> Result<(Vec<J::Output>, SimStats), SimError> {
        let run = self.run_graph(&graph, Scheduler::CriticalPath)?;
        Ok((
            run.outputs,
            SimStats::of_cluster(&run.stats, run.idle_per_core.iter().flatten().sum()),
        ))
    }

    fn cache_stats(&self) -> CacheStats {
        self.program_cache().stats()
    }
}

fn open_door<J: ChipJob + 'static>(door: FleetDoor) -> Box<dyn ClosedDoor<J>> {
    match door {
        FleetDoor::Service => Box::new(LacService::new(ChipConfig::new(2, LacConfig::default()))),
        FleetDoor::EventCluster => Box::new(
            LacCluster::new(
                ClusterConfig::homogeneous(2, ChipConfig::new(1, LacConfig::default()))
                    .with_sim_mode(SimMode::Event),
            )
            .with_partitioner(Partitioner::Striped),
        ),
    }
}

/// Build the fleet and hand back its graph separately (a `SolverJob`
/// graph runs once, so every submission needs a fresh one).
fn fleet(spec: &FleetSpec) -> (SolverFleet, JobGraph<SolverJob>) {
    let mut f = SolverFleet::new(spec.params, spec.loops);
    let graph = std::mem::take(&mut f.graph);
    (f, graph)
}

/// Check a submission: every member chain against `linalg-ref`, and the
/// simulated summary against the first submission's.
fn check(
    tally: &mut Tally,
    reference: &mut Option<SimStats>,
    fleet: &SolverFleet,
    result: &Result<(Vec<KernelReport>, SimStats), SimError>,
    what: &str,
) {
    let t = Instant::now();
    let chains = fleet.loops.len() as u64;
    tally.attempted += chains;
    match result {
        Err(e) => tally.fail(chains, format!("{what}: door error: {e}")),
        Ok((outputs, sim)) => {
            for (m, (w, ids)) in fleet.loops.iter().zip(&fleet.members).enumerate() {
                let start = ids.first().map_or(0, |id| id.index());
                let verdict = outputs
                    .get(start..start + ids.len())
                    .ok_or_else(|| "missing outputs".to_string())
                    .and_then(|out| w.check_graph(out));
                if let Err(e) = verdict {
                    tally.fail(1, format!("{what}: member {m}: {e}"));
                }
            }
            tally.same_sim(reference, sim, chains, what);
        }
    }
    tally.check_s += t.elapsed().as_secs_f64();
}

/// Host timings of the untraced run.
#[derive(Debug, Default)]
pub struct ClosedHost {
    /// Each set-up: fleet + door + cold submission, seconds.
    pub setup_s: Vec<f64>,
    /// The cold submission alone, seconds.
    pub cold_s: Vec<f64>,
    /// Each warm submission, seconds.
    pub warm_s: Vec<f64>,
    /// Each warm submission, process CPU seconds.
    pub warm_cpu_s: Vec<f64>,
    /// The first submission's simulated summary; every other submission,
    /// traced ones included, must equal it.
    pub sim: Option<SimStats>,
}

/// The untraced run: cold set-ups until there are enough of them, then warm
/// submissions on the last door for `seconds` (at least `MIN_WARM`).
pub fn run(spec: &FleetSpec, seconds: f64, tally: &mut Tally) -> ClosedHost {
    let mut host = ClosedHost::default();
    let mut door = None;
    let mut i = 0;
    while !enough_setups(&host.setup_s) {
        let t0 = Instant::now();
        let (f, graph) = fleet(spec);
        let mut d = open_door::<SolverJob>(spec.door);
        let t1 = Instant::now();
        let result = d.run(graph);
        let t2 = Instant::now();
        host.setup_s.push((t2 - t0).as_secs_f64());
        host.cold_s.push((t2 - t1).as_secs_f64());
        check(
            tally,
            &mut host.sim,
            &f,
            &result,
            &format!("cold set-up {i}"),
        );
        door = Some(d);
        i += 1;
    }
    let mut door = door.expect("at least one set-up");
    let start = Instant::now();
    let mut i = 0;
    while host.warm_s.len() < MIN_WARM || start.elapsed().as_secs_f64() < seconds {
        let (f, graph) = fleet(spec);
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let result = door.run(graph);
        let (dt, dcpu) = (t.elapsed().as_secs_f64(), process_cpu_s() - cpu);
        if result.is_ok() {
            host.warm_s.push(dt);
            host.warm_cpu_s.push(dcpu);
        }
        check(
            tally,
            &mut host.sim,
            &f,
            &result,
            &format!("warm submission {i}"),
        );
        i += 1;
        if result.is_err() && i >= MIN_WARM {
            break;
        }
    }
    host
}

/// Per-layer numbers of the traced pass.
#[derive(Default)]
pub struct ClosedTrace {
    /// Median fleet generation, seconds.
    pub gen_s: f64,
    /// Warm door spans, seconds each.
    pub door_s: Vec<f64>,
    /// Job spans inside warm doors, seconds total.
    pub job_s: f64,
    /// Job span lengths inside warm doors, µs, ascending.
    pub job_us: Vec<f64>,
    /// Door time not covered by any job span, seconds total.
    pub self_s: f64,
    /// Median direct `Partitioner::partition` call, seconds (event
    /// cluster only).
    pub partition_s: f64,
    /// The traced door's compile cache after its cold and warm
    /// submissions.
    pub cache: CacheStats,
    /// The traced spans, for the trace file.
    pub tree: Option<SpanTree>,
}

/// The traced pass: a fresh door of [`Timed`] jobs, one cold and
/// `TRACED_WARM` warm submissions, each checked and compared with the
/// untraced run's simulated summary.
pub fn trace(spec: &FleetSpec, reference: &mut Option<SimStats>, tally: &mut Tally) -> ClosedTrace {
    let tracer = Arc::new(Tracer::new());
    let mut door = open_door::<Timed<SolverJob>>(spec.door);
    for i in 0..=TRACED_WARM {
        let (f, graph) = tracer.scope(Layer::Gen, || fleet(spec));
        let graph = graph.map(|j| Timed::new(j, Arc::clone(&tracer)));
        let result = tracer.scope(Layer::Door, || door.run(graph));
        check(
            tally,
            reference,
            &f,
            &result,
            &format!("traced submission {i}"),
        );
    }
    let mut out = ClosedTrace {
        cache: door.cache_stats(),
        ..ClosedTrace::default()
    };
    drop(door);
    if spec.door == FleetDoor::EventCluster {
        let (_, graph) = fleet(spec);
        for _ in 0..3 {
            tracer.scope(Layer::Partition, || {
                std::hint::black_box(Partitioner::Striped.partition(&graph, spec.cores()))
            });
        }
    }
    let tree = SpanTree::new(tracer.spans());
    let median_s = |layer| {
        let secs: Vec<f64> = tree
            .of(layer)
            .iter()
            .map(|s| s.len() as f64 / 1e9)
            .collect();
        median(&secs)
    };
    out.gen_s = median_s(Layer::Gen);
    out.partition_s = median_s(Layer::Partition);
    // The first door span is the cold submission; the rest are warm.
    for door in tree.of(Layer::Door).iter().skip(1) {
        out.door_s.push(door.len() as f64 / 1e9);
        out.self_s += tree.self_ns(door) as f64 / 1e9;
        for job in tree.children(door) {
            out.job_s += job.len() as f64 / 1e9;
            out.job_us.push(job.len() as f64 / 1e3);
        }
    }
    out.job_us.sort_by(f64::total_cmp);
    out.tree = Some(tree);
    out
}
