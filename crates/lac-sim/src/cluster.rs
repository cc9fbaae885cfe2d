//! Multi-chip sharded deployment: a [`LacCluster`] shards [`JobGraph`]s
//! across N [`LacChip`]s with explicitly modeled inter-chip transfer
//! costs — the next rung above the single-chip [`crate::service`] layer
//! on the road from one core to a datacenter-scale fleet.
//!
//! The single-chip layers assume every dependency edge is free: a child
//! job reads its parents' outputs out of the same on-chip memory. Once a
//! graph no longer fits one chip, that assumption breaks — a dependency
//! whose endpoints land on *different* chips must move its payload over a
//! chip-to-chip link that is orders of magnitude narrower than the
//! on-chip fabric. This is the same decomposition-with-communication
//! trade-off that drives blocked-panel scheduling inside one core (the
//! source dissertation's Chapter 4) and round-structured interior-point
//! workloads across nodes (PAPERS.md: IP-PMM, interior-point DDP): *where
//! you cut the graph decides how much you pay in transfers.*
//!
//! The module has three pieces:
//!
//! * **[`ClusterConfig`]** — N per-chip [`ChipConfig`]s (chips may differ
//!   in core count and bandwidth budget) plus the inter-chip link model:
//!   a bandwidth in words/cycle and a fixed per-hop latency. A cross-chip
//!   edge carrying `w` words costs `hop_latency + ⌈w / link_bandwidth⌉`
//!   simulated cycles ([`ClusterConfig::transfer_cycles`]).
//! * **[`Partitioner`]** — the deterministic graph partitioner. The
//!   default [`Partitioner::CostBins`] keeps weakly-connected components
//!   whole (a component's internal edges never pay transfer cost) and
//!   greedily bin-packs components onto chips in descending cost-hint
//!   order; [`Partitioner::Striped`] scatters individual jobs round-robin
//!   and exists to stress the transfer model. Partitioning is a pure
//!   function of the graph's cost hints and edges — never of host timing
//!   — which is what keeps cluster runs reproducible bit-for-bit.
//! * **[`LacCluster`]** — owns the chips, partitions each pool over the
//!   alive ones, lends its cores' engines to the one worker pool and
//!   runs the pool on the one time core every door shares
//!   (`crate::event::run_pool`). The
//!   time core adds transfer-aware readiness to the schedulers: a child
//!   whose parent completed on another chip becomes ready only after the
//!   modeled transfer elapses on the simulated clock, and when every core
//!   would idle waiting on a link the clock jumps to the next arrival,
//!   the gap accounted as [`ClusterStats::transfer_stall_cycles`].
//!   [`ClusterConfig::sim_mode`] picks its release rule: lock-step waves
//!   planned per chip ([`crate::service::plan_wave`]) or discrete events.
//!
//! The cluster's run path *is* the single-chip one: [`LacChip::run_graph`]
//! and [`crate::service::LacService`] run their graphs as a one-chip
//! cluster, where there are no cross-chip edges and every transfer
//! charge vanishes — so an N=1 [`LacCluster`] is bit-identical to the
//! chip and service doors, outputs, stats, rounds and tenant meters alike
//! (a property-tested invariant, see `tests/cluster_props.rs`).
//!
//! The multi-tenant front door is [`crate::service::LacService`]'s own,
//! because a service *is* a one-chip [`LacCluster`]. Tenants registered
//! with [`LacCluster::add_tenant`] hold *cluster-wide* admission budgets
//! ([`LacCluster::enqueue`] charges the same cost-hint currency whether
//! the graph later lands on one chip or five), and
//! [`LacCluster::run_admitted`] fuses every admitted graph into one pool,
//! partitions the pool, and interleaves it across all chips under the
//! chosen [`Scheduler`] policy.
//!
//! Energy: feed a run's [`ClusterStats`] to
//! `lac_power::ClusterEnergyModel`, which prices each chip with the
//! per-chip model over the shared cluster wall clock and adds the
//! interconnect's per-word and static link energy on top.

use crate::chip::{ChipConfig, ChipJob, ChipStats, LacChip, Scheduler};
use crate::compile::ProgramCache;
use crate::coord::{scoped_workers, with_graph_pool, CoordRun, Placement, PoolView, TenantShare};
use crate::error::SimError;
use crate::event::{run_pool, SimMode};
use crate::fault::FaultPlan;
use crate::service::{
    FusedPool, GraphCompletion, GraphTicket, JobGraph, JobId, Rejected, Tenancy, TenantConfig,
    TenantId, TenantSession,
};
use crate::stats::ExecStats;
use crate::trace::EventLog;

/// Static configuration of a cluster: N chips plus the inter-chip link
/// model.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-chip configurations, in chip-id order. Chips may differ in
    /// core count, bandwidth budget, and memory size.
    pub chips: Vec<ChipConfig>,
    /// Inter-chip link bandwidth in words per simulated cycle. Every
    /// cross-chip dependency edge serializes its payload through this
    /// rate. Under [`SimMode::Wave`] links are contention-free (each
    /// transfer sees the full bandwidth); under [`SimMode::Event`]
    /// transfers over the same directed link queue behind each other.
    pub link_words_per_cycle: u64,
    /// Fixed latency of one chip-to-chip hop, in simulated cycles, paid
    /// by every cross-chip edge regardless of payload size.
    pub hop_latency_cycles: u64,
    /// The time core's release rule for cluster runs: lock-step waves
    /// (the default, the compatibility mode) or discrete events (see
    /// [`crate::event`]), which overlap cut-edge transfers with compute
    /// and model per-link contention. Outputs are bit-identical either
    /// way; clocks may differ.
    pub sim_mode: SimMode,
}

impl ClusterConfig {
    /// A cluster of `chips` identical chips with the default link model
    /// (4 words/cycle, 200-cycle hop — a PCIe-class link next to an
    /// on-chip fabric). The release rule is inherited from the chip
    /// config.
    pub fn homogeneous(chips: usize, chip: ChipConfig) -> Self {
        assert!(chips >= 1, "a cluster has at least one chip");
        Self {
            sim_mode: chip.sim_mode,
            chips: vec![chip; chips],
            link_words_per_cycle: 4,
            hop_latency_cycles: 200,
        }
    }

    /// Override the inter-chip link model.
    pub fn with_link(mut self, words_per_cycle: u64, hop_latency_cycles: u64) -> Self {
        assert!(words_per_cycle >= 1, "a link moves at least one word/cycle");
        self.link_words_per_cycle = words_per_cycle;
        self.hop_latency_cycles = hop_latency_cycles;
        self
    }

    /// Select the release rule ([`SimMode::Wave`] is the default).
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// Number of chips in the cluster.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// Total cores across every chip.
    pub fn total_cores(&self) -> usize {
        self.chips.iter().map(|c| c.cores).sum()
    }

    /// Modeled cost of moving `words` across one inter-chip hop:
    /// `hop_latency + ⌈words / link_bandwidth⌉` cycles.
    pub fn transfer_cycles(&self, words: u64) -> u64 {
        self.hop_latency_cycles + words.div_ceil(self.link_words_per_cycle.max(1))
    }

    /// First global core index of each chip: the time core lays every
    /// chip's cores end to end in chip order.
    pub(crate) fn chip_base(&self) -> Vec<usize> {
        let mut base = Vec::with_capacity(self.chips.len());
        let mut next = 0;
        for chip in &self.chips {
            base.push(next);
            next += chip.cores;
        }
        base
    }

    /// Split a flat per-global-core vector into per-chip vectors.
    pub(crate) fn by_chip<X: Clone>(&self, flat: &[X]) -> Vec<Vec<X>> {
        self.chip_base()
            .iter()
            .zip(&self.chips)
            .map(|(&base, chip)| flat[base..base + chip.cores].to_vec())
            .collect()
    }
}

/// Deterministic job → chip placement policies. Like the wave planners,
/// partitioning is a pure function of the graph (cost hints + edges), so
/// reruns shard identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Partitioner {
    /// Component-aware cost bins (the default): the graph's
    /// weakly-connected components are kept whole — internal edges never
    /// pay transfer cost — and greedily bin-packed onto the least-loaded
    /// chip in descending total-cost order (ties: lower smallest job id,
    /// then lower chip index). Independent submissions (e.g. a fleet of
    /// solver loops fused by [`JobGraph::append`]) shard with *zero*
    /// cross-chip edges; a single connected graph lands whole on one
    /// chip rather than paying links for nothing.
    #[default]
    CostBins,
    /// Stripe individual jobs round-robin by job id, ignoring edges —
    /// maximal cross-chip traffic. Exists to exercise and stress the
    /// transfer model (every inter-chip edge pays), not for production
    /// placement.
    Striped,
}

/// The partitioner's verdict for one graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// `chip_of[j]` — the chip that runs job `j` (by submission index).
    pub chip_of: Vec<usize>,
    /// Every dependency edge whose endpoints landed on different chips,
    /// as `(parent, child)` in child-id order (the order the edges were
    /// added for equal children). Each of these is charged exactly one
    /// [`Transfer`] when its parent completes.
    pub cut_edges: Vec<(JobId, JobId)>,
    /// Total cost hint placed on each chip (the bin-packing load).
    pub chip_cost: Vec<u64>,
}

impl Partitioner {
    /// Shard `graph` across `chips` chips. Pure and deterministic: the
    /// same graph always produces the same partition.
    pub fn partition<J: ChipJob>(self, graph: &JobGraph<J>, chips: usize) -> Partition {
        let costs: Vec<u64> = graph.jobs.iter().map(|j| j.cost_hint().max(1)).collect();
        partition_costs(self, &costs, &graph.parents, chips)
    }
}

/// The partitioner over raw fused-pool slices (shared by the public
/// [`Partitioner::partition`] door and the cluster's round fusion).
pub(crate) fn partition_costs(
    p: Partitioner,
    costs: &[u64],
    parents: &[Vec<usize>],
    chips: usize,
) -> Partition {
    assert!(chips >= 1, "a cluster has at least one chip");
    let n = costs.len();
    let mut chip_of = vec![0usize; n];
    match p {
        Partitioner::Striped => {
            for (j, c) in chip_of.iter_mut().enumerate() {
                *c = j % chips;
            }
        }
        Partitioner::CostBins => {
            // Union-find over the undirected edges: weakly-connected
            // components, root = smallest member id (path compression
            // with union-by-min keeps that invariant).
            let mut root: Vec<usize> = (0..n).collect();
            fn find(root: &mut [usize], mut j: usize) -> usize {
                while root[j] != j {
                    root[j] = root[root[j]];
                    j = root[j];
                }
                j
            }
            for (child, ps) in parents.iter().enumerate() {
                for &parent in ps {
                    let (a, b) = (find(&mut root, parent), find(&mut root, child));
                    let (lo, hi) = (a.min(b), a.max(b));
                    root[hi] = lo;
                }
            }
            // Components in id order: (total cost, members).
            let mut comp_cost = vec![0u64; n];
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (j, &cost) in costs.iter().enumerate() {
                let r = find(&mut root, j);
                comp_cost[r] += cost;
                members[r].push(j);
            }
            // Greedy bin packing: heaviest component first (ties to the
            // smaller root id), onto the least-loaded chip (ties to the
            // lower chip index).
            let mut comps: Vec<usize> = (0..n).filter(|&r| !members[r].is_empty()).collect();
            comps.sort_by_key(|&r| (std::cmp::Reverse(comp_cost[r]), r));
            let mut load = vec![0u64; chips];
            for r in comps {
                let chip = (0..chips).min_by_key(|&c| (load[c], c)).unwrap();
                load[chip] += comp_cost[r];
                for &j in &members[r] {
                    chip_of[j] = chip;
                }
            }
        }
    }
    let mut chip_cost = vec![0u64; chips];
    for j in 0..n {
        chip_cost[chip_of[j]] += costs[j];
    }
    let cut_edges = parents
        .iter()
        .enumerate()
        .flat_map(|(child, ps)| ps.iter().map(move |&parent| (parent, child)))
        .filter(|&(p, c)| chip_of[p] != chip_of[c])
        .map(|(p, c)| (JobId::from_index(p), JobId::from_index(c)))
        .collect();
    Partition {
        chip_of,
        cut_edges,
        chip_cost,
    }
}

/// One modeled inter-chip payload movement: the charge for one cut edge,
/// recorded when the parent completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// The producing job.
    pub parent: JobId,
    /// The consuming job (on another chip).
    pub child: JobId,
    /// Chip the parent ran on.
    pub from_chip: usize,
    /// Chip the child runs on.
    pub to_chip: usize,
    /// Payload size, words ([`ChipJob::transfer_words`] of the parent).
    pub words: u64,
    /// Modeled cycles ([`ClusterConfig::transfer_cycles`] of `words`)
    /// between the parent's completion and the child's earliest
    /// readiness.
    pub cycles: u64,
}

/// Merged result of one cluster run: per-chip [`ChipStats`] plus the
/// interconnect traffic — the shape `lac_power::ClusterEnergyModel`
/// prices.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterStats {
    /// Each chip's stats delta over this run, in chip order. Every chip's
    /// `makespan_cycles` is the *cluster* makespan — chips power through
    /// the whole run whether or not their cores are busy.
    pub per_chip: Vec<ChipStats>,
    /// Simulated cluster makespan, transfer stalls included.
    pub makespan_cycles: u64,
    /// Words moved across inter-chip links (sum over [`Transfer`]s).
    pub transferred_words: u64,
    /// Modeled link cycles charged across all transfers (latency-side
    /// total; overlapping transfers each count in full).
    pub transfer_cycles: u64,
    /// Cycles the simulated clock advanced with *every* core idle,
    /// waiting on in-flight transfers — the makespan share the
    /// interconnect alone is responsible for.
    pub transfer_stall_cycles: u64,
    /// Sum of every core's counters on every chip.
    pub aggregate: ExecStats,
}

impl ClusterStats {
    /// Package a run's flat per-global-core meters per chip — the time
    /// core's one per-chip split. Every chip reports the cluster
    /// makespan: chips power through the whole run.
    pub(crate) fn from_cores(
        cfg: &ClusterConfig,
        per_core: &[ExecStats],
        jobs_per_core: &[u64],
        makespan_cycles: u64,
        transferred_words: u64,
        transfer_cycles: u64,
        transfer_stall_cycles: u64,
    ) -> Self {
        let per_chip: Vec<ChipStats> = cfg
            .by_chip(per_core)
            .into_iter()
            .zip(cfg.by_chip(jobs_per_core))
            .map(|(per_core, jobs_per_core)| {
                let mut aggregate = ExecStats::default();
                for s in &per_core {
                    aggregate.merge(s);
                }
                ChipStats {
                    per_core,
                    jobs_per_core,
                    makespan_cycles,
                    aggregate,
                }
            })
            .collect();
        let mut aggregate = ExecStats::default();
        for chip in &per_chip {
            aggregate.merge(&chip.aggregate);
        }
        Self {
            per_chip,
            makespan_cycles,
            transferred_words,
            transfer_cycles,
            transfer_stall_cycles,
            aggregate,
        }
    }

    /// Total jobs dispatched in this run.
    pub fn jobs(&self) -> u64 {
        self.per_chip.iter().map(|c| c.jobs()).sum()
    }

    /// Floating-point operations across the whole cluster.
    pub fn flops(&self) -> u64 {
        self.aggregate.flops()
    }

    /// Total cores across every chip.
    pub fn total_cores(&self) -> usize {
        self.per_chip.iter().map(|c| c.per_core.len()).sum()
    }

    /// Cluster-wide MAC-slot utilization: executed MACs against the peak
    /// of every core on every chip over the cluster makespan. Transfer
    /// stalls count against the cluster, exactly as dependency stalls
    /// count against a chip.
    pub fn utilization(&self, nr: usize) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        let peak = self.makespan_cycles as f64 * self.total_cores() as f64 * (nr * nr) as f64;
        (self.aggregate.mac_ops + self.aggregate.fma_ops) as f64 / peak
    }

    /// Parallel speedup of this run against the same work serialized on
    /// one core: aggregate busy cycles / makespan.
    pub fn speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.aggregate.cycles as f64 / self.makespan_cycles as f64
    }
}

/// Everything one cluster graph run produces.
#[derive(Clone, Debug)]
pub struct ClusterRun<T> {
    /// One output per job, indexed by [`JobId::index`] (submission
    /// order) — placement never changes outputs.
    pub outputs: Vec<T>,
    /// How the partitioner sharded the graph.
    pub partition: Partition,
    /// Which `(chip, core-within-chip)` ran each job.
    pub assignment: Vec<(usize, usize)>,
    /// Each job's wave (0-based). Under [`SimMode::Wave`] that is the
    /// dependency wave that dispatched it; under [`SimMode::Event`] it is
    /// the rank of the job's completion tick among the run's distinct
    /// completion ticks.
    pub wave_of: Vec<usize>,
    /// Waves the run took: dependency waves under [`SimMode::Wave`]
    /// (transfer-stall gaps between waves are not waves — no job
    /// dispatches during a stall), distinct completion ticks under
    /// [`SimMode::Event`].
    pub waves: usize,
    /// Shared simulated clock at the end of each wave, relative to the
    /// start of the run: `wave_end_cycles[wave_of[j]]` is job `j`'s
    /// completion tick. Under [`SimMode::Wave`], transfer-stall
    /// fast-forwards that precede a wave are included in its end clock.
    pub wave_end_cycles: Vec<u64>,
    /// Per chip, per core: simulated cycles spent idle. Under
    /// [`SimMode::Wave`] that is wave imbalance, dependency stalls and
    /// transfer stalls, so `busy + idle = makespan` for every core; under
    /// [`SimMode::Event`] all-idle stalls are left out, so
    /// `busy + idle + stats.transfer_stall_cycles = makespan`.
    pub idle_per_core: Vec<Vec<u64>>,
    /// Every cross-chip payload movement, in completion order. One entry
    /// per cut edge, exactly, on the fault-free path; a fault's requeue
    /// may re-charge an edge to move a durable output to a job's new
    /// home.
    pub transfers: Vec<Transfer>,
    /// Per-chip and cluster-wide meters.
    pub stats: ClusterStats,
    /// The run's observability log: job spans, transfers, faults,
    /// requeues and idle fast-forwards, on the run-relative simulated
    /// clock (export with [`EventLog::to_chrome_trace`]).
    pub events: EventLog,
}

/// Everything one multi-tenant cluster round produces: per-graph
/// completions in admission order plus the round-wide schedule meters
/// (the cluster counterpart of [`crate::service::ServiceRound`]).
#[derive(Clone, Debug)]
pub struct ClusterRound<T> {
    /// Completed graphs, in admission (ticket) order. Each completion's
    /// `assignment` holds *global* core indices (chips laid end to end in
    /// chip order).
    pub graphs: Vec<GraphCompletion<T>>,
    /// How the partitioner sharded the fused round pool (`chip_of` is
    /// indexed by fused job id, i.e. graphs laid end to end in admission
    /// order).
    pub partition: Partition,
    /// Waves the interleaved round took: dependency waves under
    /// [`SimMode::Wave`], distinct completion ticks under
    /// [`SimMode::Event`] (see [`ClusterRun::waves`]).
    pub waves: usize,
    /// Shared simulated clock at the end of each wave, relative to the
    /// start of the round: a graph completes at
    /// `wave_end_cycles[max(wave_of)]` past the round's start — the
    /// sojourn-time anchor the open-loop traffic layer reads.
    pub wave_end_cycles: Vec<u64>,
    /// Every cross-chip payload movement of the round.
    pub transfers: Vec<Transfer>,
    /// Per-chip and cluster-wide meters.
    pub stats: ClusterStats,
    /// The round's observability log, on the round-relative simulated
    /// clock (the open-loop driver rebases and merges these — see
    /// [`EventLog::shift`]).
    pub events: EventLog,
}

/// Lifetime meters of a [`LacCluster`], accumulated across every
/// completed run since construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterSession {
    /// The cluster clock: completed runs' makespans summed, plus explicit
    /// [`LacCluster::advance_idle`] gaps between rounds.
    pub clock_cycles: u64,
    /// Completed graph submissions (a round counts every admitted graph).
    pub graphs_run: u64,
    /// Inter-chip words moved over the lifetime.
    pub transferred_words: u64,
    /// Modeled link cycles charged over the lifetime.
    pub transfer_cycles: u64,
}

impl ClusterSession {
    /// Fold one completed run of `graphs` graphs into the lifetime meters.
    fn record(&mut self, stats: &ClusterStats, graphs: u64) {
        self.clock_cycles += stats.makespan_cycles;
        self.graphs_run += graphs;
        self.transferred_words += stats.transferred_words;
        self.transfer_cycles += stats.transfer_cycles;
    }
}

/// A multi-chip deployment: N [`LacChip`]s behind one deterministic
/// partition-and-coordinate front door, with cluster-wide multi-tenant
/// admission.
///
/// Like [`LacChip`], a cluster borrows the calling thread and the one
/// worker pool per run: every core's [`crate::engine::LacEngine`] runs
/// its jobs on the calling thread, or on a pooled worker for a batch
/// worth the hand-off (see [`crate::INLINE_COST`]).
/// Shard state and session meters persist across runs — the chips are
/// owned, not rebuilt. [`crate::service::LacService`] is a one-chip
/// cluster.
///
/// ```
/// use lac_sim::{ChipConfig, ClusterConfig, JobGraph, LacCluster, LacConfig, Scheduler};
/// use lac_sim::{ProgramJob, ProgramBuilder};
///
/// // Two 2-core chips joined by a 4-words/cycle, 200-cycle-hop link.
/// let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
/// let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg);
///
/// // Two independent 1-job graphs fused into one submission: the
/// // CostBins partitioner gives each component its own chip.
/// let mut graph = JobGraph::new();
/// for _ in 0..2 {
///     let mut b = ProgramBuilder::new(LacConfig::default().nr);
///     b.idle(8);
///     graph.add(ProgramJob::new(b.build()));
/// }
/// let run = cluster.run_graph(&graph, Scheduler::CriticalPath).unwrap();
/// assert_eq!(run.outputs.len(), 2);
/// assert_eq!(run.partition.chip_of, vec![0, 1]);
/// assert!(run.transfers.is_empty(), "no edges were cut");
/// ```
pub struct LacCluster<J: ChipJob> {
    fleet: Fleet,
    tenancy: Tenancy<J>,
    session: ClusterSession,
    program_cache: ProgramCache,
}

/// A tenancy round before its projection: the fused pool, its partition
/// and the coordinated run.
type RoundRun<J> = (FusedPool<J>, Partition, CoordRun<<J as ChipJob>::Output>);

/// The hardware side of a [`LacCluster`]: everything a run touches
/// besides the tenants, which the shared tenancy round owns.
struct Fleet {
    cfg: ClusterConfig,
    partitioner: Partitioner,
    chips: Vec<LacChip>,
    fault_plan: FaultPlan,
    dead: Vec<bool>,
}

impl Fleet {
    /// Partition over the *alive* chips only, then remap onto real chip
    /// indices — a dead chip never receives new work. Errors with
    /// [`crate::error::HazardKind::AllChipsDead`] (at session tick
    /// `clock`) when jobs need placing and no chip survives.
    fn partition_alive(
        &self,
        clock: u64,
        costs: &[u64],
        parents: &[Vec<usize>],
    ) -> Result<Partition, SimError> {
        let chips = self.chips.len();
        let alive: Vec<usize> = (0..chips).filter(|&c| !self.dead[c]).collect();
        if alive.is_empty() && !costs.is_empty() {
            return Err(SimError::all_chips_dead(clock, chips));
        }
        let part = partition_costs(self.partitioner, costs, parents, alive.len().max(1));
        if alive.len() == chips {
            return Ok(part);
        }
        let mut chip_cost = vec![0u64; chips];
        for (&chip, &cost) in alive.iter().zip(&part.chip_cost) {
            chip_cost[chip] = cost;
        }
        Ok(Partition {
            chip_of: part.chip_of.iter().map(|&c| alive[c]).collect(),
            cut_edges: part.cut_edges,
            chip_cost,
        })
    }

    /// Partition a job pool over the alive chips, lend every core's
    /// engine to the worker pool, and run the pool on the time core. `base` is the
    /// session clock at run start; `job_of` resolves a pool index to the
    /// job to run (identity for [`LacCluster::run_graph`], the owner map
    /// for rounds). Chips killed during the run stay marked dead for
    /// every later run.
    fn run<'j, J: ChipJob + 'j>(
        &mut self,
        base: u64,
        job_of: impl Fn(usize) -> &'j J + Sync,
        pool: PoolView<'_>,
        share: TenantShare<'_>,
        sched: Scheduler,
    ) -> Result<(Partition, CoordRun<J::Output>), SimError> {
        let hints: Vec<u64> = pool.costs.iter().map(|&c| c.max(1)).collect();
        let partition = self.partition_alive(base, &hints, pool.parents)?;
        let mut chip_of = partition.chip_of.clone();
        let Fleet {
            cfg,
            chips,
            fault_plan,
            dead,
            ..
        } = self;
        let place = Placement {
            chip_of: &mut chip_of,
            dead,
            faults: fault_plan.kills(),
            base,
        };
        let engines = chips.iter_mut().flat_map(|c| c.shards_mut().iter_mut());
        let run = scoped_workers(engines, job_of, |dispatch, collect| {
            run_pool(cfg, pool, share, sched, place, dispatch, collect)
        })?;
        Ok((partition, run))
    }
}

impl<J: ChipJob> LacCluster<J> {
    /// Build every chip of `cfg` (each chip's bandwidth budget splits
    /// across its cores per [`ChipConfig::shard_config`]) with the
    /// default [`Partitioner::CostBins`]. Every core of every chip joins
    /// one cluster-wide compile cache, so a program replicated across the
    /// whole fleet compiles once (see [`LacCluster::program_cache`]).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(!cfg.chips.is_empty(), "a cluster has at least one chip");
        let program_cache = ProgramCache::new();
        let chips: Vec<LacChip> = cfg
            .chips
            .iter()
            .map(|&c| LacChip::with_program_cache(c, program_cache.clone()))
            .collect();
        let dead = vec![false; chips.len()];
        Self {
            fleet: Fleet {
                cfg,
                partitioner: Partitioner::CostBins,
                chips,
                fault_plan: FaultPlan::new(),
                dead,
            },
            tenancy: Tenancy::default(),
            session: ClusterSession::default(),
            program_cache,
        }
    }

    /// The compile cache shared by every core of every chip.
    pub fn program_cache(&self) -> &ProgramCache {
        &self.program_cache
    }

    /// Override the placement policy (see [`Partitioner`]).
    pub fn with_partitioner(mut self, p: Partitioner) -> Self {
        self.fleet.partitioner = p;
        self
    }

    /// Install a fault-injection schedule, builder-style (see
    /// [`LacCluster::inject_faults`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.inject_faults(plan);
        self
    }

    /// Merge `plan`'s scheduled kills into the cluster's fault plan.
    /// Ticks are on the session clock ([`ClusterSession::clock_cycles`]).
    /// Under [`SimMode::Wave`] each kill fires at the first wave boundary
    /// at or after its tick; under [`SimMode::Event`] it fires at its
    /// exact tick. Either way it persists — a dead chip stays dead across
    /// rounds. See [`FaultPlan`] for the full fault model.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        for k in plan.kills() {
            assert!(
                k.chip < self.fleet.chips.len(),
                "fault plan kills chip {} of a {}-chip cluster",
                k.chip,
                self.fleet.chips.len()
            );
        }
        self.fleet.fault_plan.merge(plan);
    }

    /// The installed fault schedule (applied kills included).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fleet.fault_plan
    }

    /// Which chips have died so far, by chip index.
    pub fn dead_chips(&self) -> &[bool] {
        &self.fleet.dead
    }

    /// Chips still alive (new rounds are partitioned over these only).
    pub fn alive_chips(&self) -> usize {
        self.fleet.dead.iter().filter(|&&d| !d).count()
    }

    /// The cluster's static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.fleet.cfg
    }

    /// The active placement policy.
    pub fn partitioner(&self) -> Partitioner {
        self.fleet.partitioner
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        self.fleet.chips.len()
    }

    /// One chip (its shards' session meters survive cluster runs).
    pub fn chip(&self, i: usize) -> &LacChip {
        &self.fleet.chips[i]
    }

    /// Lifetime meters across every completed run since construction.
    pub fn session(&self) -> &ClusterSession {
        &self.session
    }

    /// Run a dependency graph sharded across the cluster's chips under
    /// `sched`.
    ///
    /// The graph is partitioned first (see [`Partitioner`]), then run on
    /// the time core under the release rule [`ClusterConfig::sim_mode`]
    /// selects — in wave mode each chip plans its own ready bucket per
    /// wave from cost hints, cross-chip edges delay children by the
    /// modeled transfer, and the shared simulated clock advances by the
    /// slowest bucket anywhere. Outputs come back in submission order
    /// regardless of placement, bit-identical across reruns, policies and
    /// host interleavings (the same guarantee as [`LacChip::run_graph`],
    /// which an N=1 cluster reproduces exactly).
    ///
    /// Error semantics match [`LacChip::run_graph`]: the observed failure
    /// dispatched earliest is returned (a job panic wins over a hazard;
    /// in wave mode dispatch order is global core index, then bucket
    /// position), peers stop at their next job boundary, and work that
    /// already simulated stays metered in the shard sessions.
    pub fn run_graph(
        &mut self,
        graph: &JobGraph<J>,
        sched: Scheduler,
    ) -> Result<ClusterRun<J::Output>, SimError> {
        let (partition, run) = self.run_graph_coord(graph, sched)?;
        Ok(ClusterRun {
            outputs: run.outputs,
            partition,
            assignment: run.assignment,
            wave_of: run.wave_of,
            waves: run.wave_ends.len(),
            wave_end_cycles: run.wave_ends,
            idle_per_core: self.fleet.cfg.by_chip(&run.idle_per_core),
            transfers: run.transfers,
            stats: run.stats,
            events: run.events,
        })
    }

    /// [`LacCluster::run_graph`] before its projection: the partition and
    /// the coordinated run, already folded into the cluster session. The
    /// one-chip [`crate::service::LacService`] projects its
    /// [`crate::service::GraphRun`] from this.
    pub(crate) fn run_graph_coord(
        &mut self,
        graph: &JobGraph<J>,
        sched: Scheduler,
    ) -> Result<(Partition, CoordRun<J::Output>), SimError> {
        let (fleet, base) = (&mut self.fleet, self.session.clock_cycles);
        let (partition, run) = with_graph_pool(graph, |pool, share| {
            fleet.run(base, |job| &graph.jobs[job], pool, share, sched)
        })?;
        self.session.record(&run.stats, 1);
        Ok((partition, run))
    }

    /// Register a tenant on the cluster-wide multi-tenant door. The
    /// tenant's admission budget and fair-share weight span every chip —
    /// one budget, however many chips its graphs land on.
    pub fn add_tenant(&mut self, cfg: TenantConfig) -> TenantId {
        self.tenancy.add_tenant(cfg)
    }

    /// Number of registered tenants.
    pub fn num_tenants(&self) -> usize {
        self.tenancy.num_tenants()
    }

    /// The policy knobs tenant `t` registered with.
    pub fn tenant_config(&self, t: TenantId) -> &TenantConfig {
        self.tenancy.config(t)
    }

    /// The tenant's lifetime meters (updated only by completed rounds).
    pub fn tenant_session(&self, t: TenantId) -> &TenantSession {
        self.tenancy.session(t)
    }

    /// Model a gap between rounds: every chip sits powered but idle for
    /// `cycles`. Only the cluster clock advances — the open-loop door the
    /// traffic layer uses to fast-forward to the next arrival (the
    /// cluster counterpart of
    /// [`crate::service::LacService::advance_idle`]).
    pub fn advance_idle(&mut self, cycles: u64) {
        self.session.clock_cycles += cycles;
    }

    /// Graphs admitted and waiting for the next
    /// [`LacCluster::run_admitted`].
    pub fn pending_graphs(&self) -> usize {
        self.tenancy.pending_graphs()
    }

    /// Submit a graph through tenant `t`'s cluster-wide admission door —
    /// identical deterministic-backpressure semantics to
    /// [`crate::service::LacService::enqueue`] (both doors share one
    /// tenancy implementation), with one budget covering all chips.
    pub fn enqueue(&mut self, t: TenantId, graph: JobGraph<J>) -> Result<GraphTicket, Rejected<J>> {
        self.tenancy.enqueue(t, graph)
    }

    /// Run every admitted graph in one interleaved, sharded round: the
    /// graphs fuse into a single pool (edges never cross graphs), the
    /// pool is partitioned across chips, and execution interleaves
    /// wave-by-wave under `sched` with the same fair-share deficits,
    /// banked-credit cap and failure semantics as
    /// [`crate::service::LacService::run_admitted`] — both doors run the
    /// same tenancy round. On success the round folds into the cluster
    /// session and each tenant's [`TenantSession`]; on error (a job
    /// panic is [`crate::error::HazardKind::JobPanicked`]) the round's
    /// graphs are dropped and their in-flight cost drains.
    pub fn run_admitted(&mut self, sched: Scheduler) -> Result<ClusterRound<J::Output>, SimError> {
        let boost = vec![u64::MAX; self.num_tenants()];
        self.run_admitted_boosted(sched, &boost)
    }

    /// [`LacCluster::run_admitted`] with a per-tenant SLO boost —
    /// identical semantics to
    /// [`crate::service::LacService::run_admitted_boosted`]: `boost[t]` is
    /// tenant `t`'s deadline slack in simulated cycles (`u64::MAX` =
    /// unboosted), served least-slack-first by the fair-share planner on
    /// every chip, without preemption and without changing any output
    /// bits.
    pub fn run_admitted_boosted(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<ClusterRound<J::Output>, SimError> {
        let (pool, partition, run) = self.run_round_coord(sched, boost)?;
        // Completions carry global core indices (chips laid end to end).
        let cores = run.global_cores(&self.fleet.cfg);
        Ok(ClusterRound {
            graphs: pool.completions(run.outputs, &cores, &run.wave_of),
            partition,
            waves: run.wave_ends.len(),
            wave_end_cycles: run.wave_ends,
            transfers: run.transfers,
            stats: run.stats,
            events: run.events,
        })
    }

    /// [`LacCluster::run_admitted_boosted`] before its projection: the
    /// round's fused pool, partition and coordinated run, already folded
    /// into the cluster and tenant sessions. The one-chip
    /// [`crate::service::LacService`] projects its
    /// [`crate::service::ServiceRound`] from this.
    pub(crate) fn run_round_coord(
        &mut self,
        sched: Scheduler,
        boost: &[u64],
    ) -> Result<RoundRun<J>, SimError> {
        let (fleet, base) = (&mut self.fleet, self.session.clock_cycles);
        let (pool, partition, run) = self.tenancy.run_round(boost, |pool, weights, usage| {
            let view = PoolView {
                costs: &pool.costs,
                transfer_words: &pool.transfer_words,
                parents: &pool.parents,
                children: &pool.children,
                tenant_of: &pool.tenant_of,
            };
            let share = TenantShare {
                weights,
                usage,
                boost,
            };
            let job_of = |job: usize| {
                let (g, local) = pool.owner[job];
                &pool.graphs[g].jobs[local]
            };
            fleet.run(base, job_of, view, share, sched)
        })?;
        self.session.record(&run.stats, pool.graphs.len() as u64);
        Ok((pool, partition, run))
    }

    /// The shared tenancy: registered tenants and their admitted graphs.
    pub(crate) fn tenancy(&self) -> &Tenancy<J> {
        &self.tenancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ProgramJob;
    use crate::config::LacConfig;
    use crate::isa::{ExtOp, ProgramBuilder, Source};
    use crate::trace::TraceEvent;

    /// One external load + one MAC + `extra` idle cycles, with a chosen
    /// scheduler cost.
    fn job(extra: usize, cost: u64) -> ProgramJob {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(cfg.fpu.pipeline_depth + extra);
        let mut j = ProgramJob::new(b.build());
        j.cost = cost;
        j
    }

    /// `count` independent diamond components (1 → {2} → 1 jobs each).
    fn diamonds(count: usize) -> JobGraph<ProgramJob> {
        let mut g = JobGraph::new();
        for k in 0..count {
            let a = g.add(job(k, 4));
            let b = g.add_after(job(k + 1, 2), &[a]);
            let c = g.add_after(job(k + 2, 2), &[a]);
            g.add_after(job(k, 1), &[b, c]);
        }
        g
    }

    #[test]
    fn cost_bins_keep_components_whole_and_balance_load() {
        let g = diamonds(4);
        let part = Partitioner::CostBins.partition(&g, 2);
        assert_eq!(part.chip_of.len(), 16);
        // Components stay whole: all four jobs of a diamond share a chip.
        for k in 0..4 {
            let chips: Vec<usize> = (4 * k..4 * k + 4).map(|j| part.chip_of[j]).collect();
            assert!(
                chips.windows(2).all(|w| w[0] == w[1]),
                "component {k} split"
            );
        }
        assert!(part.cut_edges.is_empty(), "no component edges were cut");
        // Equal-cost components split two per chip.
        assert_eq!(part.chip_cost, vec![18, 18]);
    }

    #[test]
    fn striped_partition_cuts_edges_and_charges_each_once() {
        let g = diamonds(2);
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()))
            .with_link(2, 50);
        let part = Partitioner::Striped.partition(&g, 2);
        assert!(!part.cut_edges.is_empty());
        let mut cluster: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_partitioner(Partitioner::Striped);
        let run = cluster.run_graph(&g, Scheduler::CriticalPath).unwrap();
        // Exactly one transfer per cut edge, each edge exactly once.
        assert_eq!(run.transfers.len(), part.cut_edges.len());
        let mut charged: Vec<(JobId, JobId)> =
            run.transfers.iter().map(|t| (t.parent, t.child)).collect();
        charged.sort();
        let mut cut = part.cut_edges.clone();
        cut.sort();
        assert_eq!(charged, cut);
        // ProgramJob's default transfer hint is 1 word: every charge is
        // hop + ceil(1/2) cycles, and the totals add up.
        for t in &run.transfers {
            assert_eq!(t.words, 1);
            assert_eq!(t.cycles, 50 + 1);
            assert_ne!(t.from_chip, t.to_chip);
        }
        assert_eq!(run.stats.transferred_words, run.transfers.len() as u64);
        assert_eq!(
            run.stats.transfer_cycles,
            run.transfers.iter().map(|t| t.cycles).sum::<u64>()
        );
        // Cross-chip latency showed up on the clock.
        assert!(run.stats.transfer_stall_cycles > 0);
        assert!(run.stats.makespan_cycles > run.stats.aggregate.cycles / 4);
    }

    #[test]
    fn single_chip_cluster_is_bit_identical_to_the_chip_door() {
        let cfg = ChipConfig::new(3, LacConfig::default()).with_bandwidth_budget(12);
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
            Scheduler::FairShare,
        ] {
            let mut cluster: LacCluster<ProgramJob> =
                LacCluster::new(ClusterConfig::homogeneous(1, cfg));
            let via_cluster = cluster.run_graph(&diamonds(3), sched).unwrap();
            let mut chip = LacChip::new(cfg);
            let via_chip = chip.run_graph(&diamonds(3), sched).unwrap();
            assert_eq!(via_cluster.outputs, via_chip.outputs, "{sched:?}");
            assert_eq!(
                via_cluster.stats.per_chip[0].per_core,
                via_chip.stats.per_core
            );
            assert_eq!(
                via_cluster.stats.makespan_cycles,
                via_chip.stats.makespan_cycles
            );
            assert_eq!(via_cluster.waves, via_chip.waves);
            assert_eq!(via_cluster.stats.transferred_words, 0);
            assert_eq!(via_cluster.stats.transfer_stall_cycles, 0);
            // (chip, core) assignment collapses to the chip's core picks.
            let cores: Vec<usize> = via_cluster.assignment.iter().map(|&(_, c)| c).collect();
            assert_eq!(cores, via_chip.assignment);
        }
    }

    #[test]
    fn reruns_and_policies_are_bit_identical() {
        let cfg = ClusterConfig::homogeneous(3, ChipConfig::new(2, LacConfig::default()));
        let mut baseline: Option<Vec<ExecStats>> = None;
        for sched in [
            Scheduler::Fifo,
            Scheduler::LeastLoaded,
            Scheduler::CriticalPath,
        ] {
            let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg.clone());
            let first = cluster.run_graph(&diamonds(5), sched).unwrap();
            let second = cluster.run_graph(&diamonds(5), sched).unwrap();
            assert_eq!(first.outputs, second.outputs, "{sched:?}: rerun diverged");
            assert_eq!(first.stats, second.stats, "{sched:?}: rerun stats diverged");
            assert_eq!(first.transfers, second.transfers);
            match &baseline {
                None => baseline = Some(first.outputs),
                Some(b) => assert_eq!(b, &first.outputs, "{sched:?} changed results"),
            }
        }
    }

    #[test]
    fn sharding_independent_work_beats_one_chip() {
        let chip = ChipConfig::new(2, LacConfig::default());
        let mut solo: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(1, chip));
        let solo_run = solo
            .run_graph(&diamonds(8), Scheduler::CriticalPath)
            .unwrap();
        let mut quad: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(4, chip));
        let quad_run = quad
            .run_graph(&diamonds(8), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(solo_run.outputs, quad_run.outputs, "placement-free outputs");
        assert!(
            quad_run.stats.makespan_cycles * 2 < solo_run.stats.makespan_cycles,
            "4 chips must halve the makespan on embarrassingly shardable work \
             ({} vs {})",
            quad_run.stats.makespan_cycles,
            solo_run.stats.makespan_cycles
        );
        assert!(quad_run.transfers.is_empty());
    }

    #[test]
    fn cluster_tenants_share_one_budget_across_chips() {
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg);
        let t = cluster.add_tenant(TenantConfig::new("bounded").with_admission_budget(20));
        let free = cluster.add_tenant(TenantConfig::new("free"));
        let flat = |cost: u64| -> JobGraph<ProgramJob> { (0..4).map(|i| job(i, cost)).collect() };
        cluster.enqueue(t, flat(4)).unwrap(); // 16 in flight
        let rejected = cluster.enqueue(t, flat(2)).unwrap_err();
        assert_eq!(rejected.inflight_cost, 16);
        assert_eq!(rejected.budget, 20);
        cluster.enqueue(free, flat(3)).unwrap();
        assert_eq!(cluster.pending_graphs(), 2);

        let round = cluster.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round.graphs.len(), 2);
        assert_eq!(cluster.tenant_session(t).inflight_cost, 0);
        assert_eq!(cluster.tenant_session(t).graphs_completed, 1);
        assert_eq!(cluster.tenant_session(free).jobs_run, 4);
        // The budget drained: the bounced graph now fits.
        cluster.enqueue(t, rejected.graph).unwrap();
        let round2 = cluster.run_admitted(Scheduler::FairShare).unwrap();
        assert_eq!(round2.graphs.len(), 1);
        // Session meters accumulated both rounds.
        assert_eq!(cluster.session().graphs_run, 3);
        assert_eq!(
            cluster.session().clock_cycles,
            round.stats.makespan_cycles + round2.stats.makespan_cycles
        );
    }

    #[test]
    fn heterogeneous_chips_lay_cores_end_to_end() {
        let cfg = ClusterConfig {
            chips: vec![
                ChipConfig::new(1, LacConfig::default()),
                ChipConfig::new(3, LacConfig::default()),
            ],
            link_words_per_cycle: 4,
            hop_latency_cycles: 10,
            sim_mode: SimMode::Wave,
        };
        assert_eq!(cfg.total_cores(), 4);
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(cfg);
        let run = cluster
            .run_graph(&diamonds(4), Scheduler::LeastLoaded)
            .unwrap();
        assert_eq!(run.outputs.len(), 16);
        assert_eq!(run.idle_per_core[0].len(), 1);
        assert_eq!(run.idle_per_core[1].len(), 3);
        for (chip, core) in &run.assignment {
            assert!(*core < cluster.chip(*chip).num_cores());
        }
        // Busy + idle reconstructs the makespan on every core.
        for chip in 0..2 {
            for core in 0..run.idle_per_core[chip].len() {
                assert_eq!(
                    run.stats.per_chip[chip].per_core[core].cycles + run.idle_per_core[chip][core],
                    run.stats.makespan_cycles,
                    "chip {chip} core {core}"
                );
            }
        }
    }

    #[test]
    fn failing_job_aborts_the_cluster_run() {
        let bad = {
            let mut b = ProgramBuilder::new(LacConfig::default().nr);
            let t = b.push_step();
            b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
            ProgramJob::new(b.build())
        };
        let mut g = JobGraph::new();
        let a = g.add(job(0, 1));
        g.add_after(bad, &[a]);
        let mut cluster: LacCluster<ProgramJob> = LacCluster::new(ClusterConfig::homogeneous(
            2,
            ChipConfig::new(2, LacConfig::default()),
        ));
        let err = cluster.run_graph(&g, Scheduler::Fifo).unwrap_err();
        assert_eq!(err.cycle, 0);
        assert_eq!(cluster.session().graphs_run, 0, "failed runs do not count");
        // The cluster recovers: the next run completes.
        let run = cluster.run_graph(&diamonds(2), Scheduler::Fifo).unwrap();
        assert_eq!(run.outputs.len(), 8);
        assert_eq!(cluster.session().graphs_run, 1);
    }

    #[test]
    fn chip_loss_preserves_output_bits() {
        use crate::fault::FaultPlan;
        let cfg = ClusterConfig::homogeneous(3, ChipConfig::new(2, LacConfig::default()));
        let mut healthy: LacCluster<ProgramJob> = LacCluster::new(cfg.clone());
        let baseline = healthy
            .run_graph(&diamonds(6), Scheduler::CriticalPath)
            .unwrap();

        let mut faulty: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(1, 1));
        let run = faulty
            .run_graph(&diamonds(6), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(
            run.outputs, baseline.outputs,
            "chip loss must never change output bits"
        );
        assert!(
            run.stats.makespan_cycles >= baseline.stats.makespan_cycles,
            "losing a chip cannot speed the run up"
        );
        assert!(faulty.dead_chips()[1]);
        assert_eq!(faulty.alive_chips(), 2);
        // The log tells the story: exactly one fault, at least one requeue,
        // and no job ever lands on the dead chip after its fault tick.
        let ev = run.events.events();
        let fault_tick = ev
            .iter()
            .find_map(|e| match *e {
                TraceEvent::Fault { chip, tick } => {
                    assert_eq!(chip, 1);
                    Some(tick)
                }
                _ => None,
            })
            .expect("fault recorded");
        assert_eq!(
            run.events.count(|e| matches!(e, TraceEvent::Fault { .. })),
            1
        );
        assert!(
            run.events
                .count(|e| matches!(e, TraceEvent::Requeue { .. }))
                > 0
        );
        for e in ev {
            if let TraceEvent::Job {
                chip,
                start,
                discarded,
                ..
            } = *e
            {
                if chip == 1 && !discarded {
                    assert!(start < fault_tick, "dead chip ran a job after dying");
                }
            }
        }
        // A later run still works, on survivors only.
        let run2 = faulty
            .run_graph(&diamonds(6), Scheduler::CriticalPath)
            .unwrap();
        assert_eq!(run2.outputs, baseline.outputs);
        assert!(run2.events.count(|e| matches!(e, TraceEvent::Fault { .. })) == 0);
        for &(chip, _) in &run2.assignment {
            assert_ne!(chip, 1, "dead chip must not receive new work");
        }
    }

    #[test]
    fn exactly_once_and_metering_under_chip_loss() {
        use crate::fault::FaultPlan;
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(2, LacConfig::default()));
        let mut cluster: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(0, 1));
        let run = cluster
            .run_graph(&diamonds(5), Scheduler::CriticalPath)
            .unwrap();
        // Exactly once: every job has exactly one non-discarded Job event.
        let n = 5 * 4;
        let mut runs = vec![0usize; n];
        let mut discarded = vec![0usize; n];
        for e in run.events.events() {
            if let TraceEvent::Job {
                job, discarded: d, ..
            } = *e
            {
                if d {
                    discarded[job] += 1;
                } else {
                    runs[job] += 1;
                }
            }
        }
        assert!(
            runs.iter().all(|&r| r == 1),
            "each job retires exactly once"
        );
        assert!(
            discarded.iter().sum::<usize>() > 0,
            "the kill at tick 1 lands mid-wave and revokes work"
        );
        // Revoked work stays metered: per-core busy + idle still
        // reconstructs the makespan on every core, dead or alive.
        for chip in 0..2 {
            for core in 0..run.idle_per_core[chip].len() {
                assert_eq!(
                    run.stats.per_chip[chip].per_core[core].cycles + run.idle_per_core[chip][core],
                    run.stats.makespan_cycles,
                    "chip {chip} core {core}"
                );
            }
        }
    }

    #[test]
    fn killing_every_chip_is_a_hard_error() {
        use crate::error::HazardKind;
        use crate::fault::FaultPlan;
        let cfg = ClusterConfig::homogeneous(2, ChipConfig::new(1, LacConfig::default()));
        let mut cluster: LacCluster<ProgramJob> =
            LacCluster::new(cfg).with_fault_plan(FaultPlan::new().kill(0, 0).kill(1, 0));
        let err = cluster
            .run_graph(&diamonds(2), Scheduler::Fifo)
            .unwrap_err();
        assert_eq!(err.kind, HazardKind::AllChipsDead { chips: 2 });
        // With both chips dead, even a fresh graph cannot be placed.
        let err2 = cluster
            .run_graph(&diamonds(1), Scheduler::Fifo)
            .unwrap_err();
        assert_eq!(err2.kind, HazardKind::AllChipsDead { chips: 2 });
    }

    #[test]
    fn panicking_round_releases_admitted_cost() {
        // A job panic fails the round with a typed error; the tenant's
        // admitted cost must still drain, or every later enqueue bounces
        // off the budget for good — on one chip and across two.
        struct MaybePanic(bool, ProgramJob);
        impl ChipJob for MaybePanic {
            type Output = ExecStats;
            fn cost_hint(&self) -> u64 {
                self.1.cost_hint()
            }
            fn run_on(&self, eng: &mut crate::engine::LacEngine) -> Result<ExecStats, SimError> {
                assert!(!self.0, "bad operand");
                self.1.run_on(eng)
            }
        }
        for (chips, mode) in [(1, SimMode::Wave), (2, SimMode::Wave), (2, SimMode::Event)] {
            let chip = ChipConfig::new(2, LacConfig::default()).with_sim_mode(mode);
            let mut cluster: LacCluster<MaybePanic> =
                LacCluster::new(ClusterConfig::homogeneous(chips, chip));
            let t = cluster.add_tenant(TenantConfig::new("unlucky").with_admission_budget(15));
            let bad: JobGraph<MaybePanic> = [MaybePanic(true, job(0, 10))].into_iter().collect();
            cluster.enqueue(t, bad).unwrap();
            let err = cluster.run_admitted(Scheduler::FairShare).unwrap_err();
            assert!(
                matches!(err.kind, crate::error::HazardKind::JobPanicked { .. }),
                "{chips} chips: {err:?}"
            );
            assert_eq!(cluster.tenant_session(t).inflight_cost, 0, "{chips} chips");
            let ok: JobGraph<MaybePanic> = [MaybePanic(false, job(0, 10))].into_iter().collect();
            cluster.enqueue(t, ok).expect("the budget was released");
            let round = cluster.run_admitted(Scheduler::FairShare).unwrap();
            assert_eq!(round.graphs.len(), 1);
            assert_eq!(cluster.session().graphs_run, 1);
        }
    }
}
