//! The one time core. Every coordinated run — a chip's graph, a service's
//! or a cluster's tenancy round — advances simulated time in `run_pool`,
//! under one of two *release rules* that [`SimMode`] picks once per run:
//!
//! * the **barrier rule** ([`SimMode::Wave`], the default) advances one
//!   wave at a time: every alive chip plans its whole ready set with the
//!   wave planners ([`crate::service::plan_wave`],
//!   [`crate::service::plan_wave_tenanted_slo`]), the wave is dispatched
//!   and collected, the clock jumps by the slowest bucket anywhere, and
//!   only then do faults fire and children — and cut-edge transfers —
//!   move. The barrier is what makes a cross-chip transfer cost a whole
//!   wave of latency and forces all-idle gaps to be fast-forwarded as
//!   [`crate::cluster::ClusterStats::transfer_stall_cycles`];
//! * the **event rule** ([`SimMode::Event`]) is a discrete-event loop over
//!   components with independent clocks: a **core** takes a new job the
//!   tick its last one retires; a directed inter-chip **link** serializes
//!   the transfers it carries (per-hop contention) while other links, and
//!   compute on both endpoint chips, proceed concurrently; a **chip**
//!   carries its [`crate::fault::FaultPlan`] kills, which fire at their
//!   exact tick.
//!
//! Both rules run on one run state and share every primitive on it: the
//! per-chip `ReadyQueues`, dispatch with tenant metering, batch
//! collection with its one error rule (a panic beats a simulation error,
//! then the earliest dispatch wins), transfer charging and trace
//! logging, chip kill with least-loaded requeue, child release, and the
//! assembly of the run result. Only *when* jobs are released, dispatched
//! and retired differs, and that lives in the barrier step and the event
//! step alone.
//!
//! Pending events live in one min-heap ordered by `(tick, component,
//! sequence number)`. Chips order before links before cores, so a fault
//! due at tick `t` revokes a job completing at the same tick, and the
//! sequence number (stamped at push, which only happens at deterministic
//! points) breaks the remaining ties. Under the barrier rule the heap
//! holds only the fault schedule. Worker reports are buffered per
//! dispatch batch and folded in job-id order, so host thread
//! interleavings never reach the run state and runs are bit-identical
//! across reruns, core counts and machines.
//!
//! A job enters its chip's `ReadyQueues` the tick its last parent is
//! released, so dispatch never scans the graph: the event rule pops one
//! job per free core and a run costs O(n log n) in its job count; the
//! barrier rule drains a chip's ready set for the planners. Unit tests
//! check every pick and every drained ready set against a scan of the
//! whole graph.
//!
//! **Equivalence contract** (property-tested in `tests/event_props.rs`):
//! outputs are bit-identical between the two rules on every graph — job
//! outputs are placement-independent, and both rules dispatch a child
//! only after all its parents completed. Only *clocks* differ: the event
//! rule overlaps transfers with compute, so on cut-edge graphs its
//! makespan is typically well below the barrier rule's.
//! `tests/schedule_golden.rs` pins both rules' schedules.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::chip::Scheduler;
use crate::cluster::{ClusterConfig, ClusterStats, Transfer};
use crate::coord::{CoordRun, Placement, PoolView, TenantShare};
use crate::error::SimError;
use crate::fault::FaultEvent;
use crate::service::{
    critical_paths, plan_wave, plan_wave_tenanted_slo, Done, JobId, JobOutcome, TenantDelta,
};
use crate::stats::ExecStats;
use crate::trace::{EventLog, TraceEvent};

/// Which release rule the time core runs a chip's, service's or
/// cluster's graphs under.
///
/// The knob lives on [`crate::chip::ChipConfig`] and
/// [`crate::cluster::ClusterConfig`]; both default to the barrier rule,
/// the compatibility mode every pre-existing clock and baseline was
/// recorded under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimMode {
    /// Lock-step waves (the default): plan a wave, advance the shared
    /// clock by the slowest bucket, fire due faults, release children.
    #[default]
    Wave,
    /// Discrete-event release: per-component clocks, eager dispatch the
    /// tick a core frees, cut-edge transfers overlapping with compute
    /// and queueing on their link, kills at their exact tick. Outputs
    /// are bit-identical to [`SimMode::Wave`]; makespans are usually
    /// shorter on graphs with cross-chip edges.
    Event,
}

/// A simulated component owning a clock on the event heap. The derived
/// order — chips, then links, then cores — is part of the determinism
/// contract: at equal ticks, faults fire before transfer arrivals fire
/// before job completions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum ComponentId {
    /// A whole chip; carries that chip's fault ticks.
    Chip(usize),
    /// The directed link `(from, to)`; carries transfer arrivals.
    Link(usize, usize),
    /// A global core index; carries job completions.
    Core(usize),
}

/// What happens when an event fires. `(tick, component, seq)` is unique
/// per event, so the payload never decides heap order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    /// `faults[idx]` is due: kill its chip.
    Fault(usize),
    /// A cross-chip payload landed; the clock tick is the information
    /// (readiness is tracked in `ready_at`), so no payload is needed.
    TransferArrive,
    /// The job running on a core retired.
    JobDone { core: usize, job: usize },
}

/// One heap entry: `(tick, component, seq)` is the total order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    tick: u64,
    comp: ComponentId,
    seq: u64,
    kind: EventKind,
}

/// Where a job is in its life. Dispatch takes only `Queued` jobs, a kill
/// requeues only `Blocked` and `Queued` ones, and the requeue load counts
/// every job not yet `Folded` or `Done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Waiting on a parent.
    Blocked,
    /// In its chip's queues.
    Queued,
    /// Dispatched, not retired.
    Running,
    /// Running on a chip that died (event rule): retires discarded.
    Revoked,
    /// Retired in the wave just folded (barrier rule), not yet released.
    Folded,
    /// Retired and released.
    Done,
}

/// A min-heap entry in a chip's ready set: `(Reverse(rank), id)`.
type ReadyKey = Reverse<(Reverse<u64>, usize)>;

/// The per-chip dispatch queues of one run (see the module doc). Entries
/// are never removed eagerly: a pick or a drain pops and re-validates
/// them against the run's `stage`/`chip_of`/`ready_at` state.
struct ReadyQueues {
    /// Ready heap each job joins: its tenant under `FairShare`, else 0.
    class: Vec<usize>,
    /// Heap rank of each job: its critical path under `CriticalPath` and
    /// `FairShare`, 0 (pure id order) under `Fifo` and `LeastLoaded`. It
    /// doubles as the wave planners' priority, which only those two
    /// policies read.
    rank: Vec<u64>,
    /// `ready[chip][class]`: queued jobs whose inputs are on `chip`.
    ready: Vec<Vec<BinaryHeap<ReadyKey>>>,
    /// `waiting[chip]`: queued jobs with a transfer still in flight, on
    /// `(ready_at, id)`.
    waiting: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
}

impl ReadyQueues {
    fn new(sched: Scheduler, chips: usize, pool: PoolView<'_>, tenants: usize) -> Self {
        let n = pool.costs.len();
        let (class, classes) = match sched {
            Scheduler::FairShare => (pool.tenant_of.to_vec(), tenants),
            _ => (vec![0; n], 1),
        };
        let rank = match sched {
            Scheduler::Fifo | Scheduler::LeastLoaded => vec![0; n],
            Scheduler::CriticalPath | Scheduler::FairShare => {
                critical_paths(pool.costs, pool.children)
            }
        };
        Self {
            class,
            rank,
            ready: (0..chips)
                .map(|_| vec![BinaryHeap::new(); classes])
                .collect(),
            waiting: vec![BinaryHeap::new(); chips],
        }
    }

    /// Queue job `j` on `chip`: ready now, or waiting until `ready_at`.
    fn push(&mut self, j: usize, chip: usize, ready_at: u64, now: u64) {
        if ready_at <= now {
            self.ready[chip][self.class[j]].push(Reverse((Reverse(self.rank[j]), j)));
        } else {
            self.waiting[chip].push(Reverse((ready_at, j)));
        }
    }
}

/// Run a job pool to completion under the release rule `cfg.sim_mode`
/// selects — the only place a [`SimMode`] is decided. Every door calls
/// this, a chip through `crate::coord::coordinate_graph` and a cluster or
/// service through the cluster's fleet. `place` and `share` are updated
/// in place (requeues, fair-share usage). `dispatch(core, job)` hands a
/// job to a global core's engine and `collect` returns one report, with
/// the job's measured [`ExecStats`] delta, per dispatched job; every
/// batch is drained before the next is dispatched and the simulated
/// clock moves.
pub(crate) fn run_pool<T>(
    cfg: &ClusterConfig,
    pool: PoolView<'_>,
    share: TenantShare<'_>,
    sched: Scheduler,
    place: Placement<'_>,
    mut dispatch: impl FnMut(usize, usize),
    mut collect: impl FnMut() -> Done<T>,
) -> Result<CoordRun<T>, SimError> {
    let mut run = Run::new(cfg, pool, share, sched, place);
    // Idle under the barrier rule includes stalls (busy + idle =
    // makespan); the event rule leaves them out (busy + idle + stall =
    // makespan).
    let (waves, idle_excluded) = match cfg.sim_mode {
        SimMode::Wave => (run.barrier_loop(&mut dispatch, &mut collect)?, 0),
        SimMode::Event => (
            run.event_loop(&mut dispatch, &mut collect)?,
            run.stall_cycles,
        ),
    };
    Ok(run.finish(waves, idle_excluded))
}

/// The state of one run, shared by both release rules.
struct Run<'a, T> {
    cfg: &'a ClusterConfig,
    pool: PoolView<'a>,
    share: TenantShare<'a>,
    sched: Scheduler,
    chip_of: &'a mut [usize],
    dead: &'a mut [bool],
    /// Scheduled kills, sorted by `(tick, chip)` on the session clock.
    faults: &'a [FaultEvent],
    /// Session clock at run start: error ticks are reported on it.
    base: u64,
    /// First global core of each chip.
    chip_base: Vec<usize>,
    /// The run-relative simulated clock.
    now: u64,

    stage: Vec<Stage>,
    /// Parents not yet released, per job.
    indegree: Vec<usize>,
    /// Earliest tick each job's inputs are all on its chip.
    ready_at: Vec<u64>,
    queues: ReadyQueues,
    /// Uncompleted cost placed on each chip — the requeue rule's load,
    /// exact for every alive chip (a dead chip's entry is never read).
    remaining: Vec<u64>,
    outputs: Vec<Option<T>>,
    /// `(chip, core-within-chip)` of each job's latest dispatch.
    assignment: Vec<(usize, usize)>,
    /// Dispatch order of each job's latest dispatch: the error rule's key.
    dispatch_seq: Vec<usize>,
    dispatched: usize,
    /// Each job's latest measured busy cycles.
    job_cycles: Vec<u64>,
    completion_tick: Vec<u64>,
    completed: usize,

    per_core: Vec<ExecStats>,
    jobs_per_core: Vec<u64>,
    per_tenant: Vec<TenantDelta>,
    events: EventLog,
    transfers: Vec<Transfer>,
    transferred_words: u64,
    transfer_cycles: u64,
    stall_cycles: u64,

    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    /// The event rule's link components: when each directed link
    /// `from * chips + to` finishes its last serialization window.
    /// `None` under the barrier rule, whose links do not queue.
    link_free: Option<Vec<u64>>,
}

impl<'a, T> Run<'a, T> {
    fn new(
        cfg: &'a ClusterConfig,
        pool: PoolView<'a>,
        share: TenantShare<'a>,
        sched: Scheduler,
        place: Placement<'a>,
    ) -> Self {
        let (n, chips, total_cores) = (pool.costs.len(), cfg.chips.len(), cfg.total_cores());
        let mut run = Self {
            cfg,
            pool,
            sched,
            chip_of: place.chip_of,
            dead: place.dead,
            faults: place.faults,
            base: place.base,
            chip_base: cfg.chip_base(),
            now: 0,
            stage: vec![Stage::Blocked; n],
            indegree: pool.parents.iter().map(|p| p.len()).collect(),
            ready_at: vec![0; n],
            queues: ReadyQueues::new(sched, chips, pool, share.weights.len()),
            remaining: vec![0; chips],
            outputs: (0..n).map(|_| None).collect(),
            assignment: vec![(0, 0); n],
            dispatch_seq: vec![0; n],
            dispatched: 0,
            job_cycles: vec![0; n],
            completion_tick: vec![0; n],
            completed: 0,
            per_core: vec![ExecStats::default(); total_cores],
            jobs_per_core: vec![0; total_cores],
            per_tenant: vec![TenantDelta::default(); share.weights.len()],
            share,
            events: EventLog::new(),
            transfers: Vec::new(),
            transferred_words: 0,
            transfer_cycles: 0,
            stall_cycles: 0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            link_free: None,
        };
        for j in 0..n {
            if run.indegree[j] == 0 {
                run.stage[j] = Stage::Queued;
                run.queues.push(j, run.chip_of[j], 0, 0);
            }
            run.remaining[run.chip_of[j]] += pool.costs[j].max(1);
        }
        // Faults are ordinary events from the start; kills already due at
        // run start fire at tick 0, before anything dispatches.
        for (i, f) in run.faults.iter().enumerate() {
            let tick = f.tick.saturating_sub(run.base);
            run.schedule(tick, ComponentId::Chip(f.chip), EventKind::Fault(i));
        }
        run
    }

    /// Schedule an event, stamping the next sequence number — pushes only
    /// happen at deterministic points, so the stamp (the final heap
    /// tie-break) is itself deterministic.
    fn schedule(&mut self, tick: u64, comp: ComponentId, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event {
            tick,
            comp,
            seq,
            kind,
        }));
    }

    fn alive_chips(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.dead.len()).filter(|&c| !self.dead[c])
    }

    /// Move `chip`'s waiting jobs whose transfers landed by now onto its
    /// ready heaps.
    fn promote(&mut self, chip: usize) {
        while let Some(tick) = self.next_waiting(chip).filter(|&t| t <= self.now) {
            let Reverse((_, j)) = self.queues.waiting[chip].pop().expect("peeked");
            self.queues.push(j, chip, tick, self.now);
        }
    }

    /// The earliest transfer arrival `chip`'s queued jobs wait on,
    /// dropping stale entries on the way.
    fn next_waiting(&mut self, chip: usize) -> Option<u64> {
        while let Some(&Reverse((tick, j))) = self.queues.waiting[chip].peek() {
            if self.stage[j] == Stage::Queued && self.chip_of[j] == chip && self.ready_at[j] == tick
            {
                return Some(tick);
            }
            self.queues.waiting[chip].pop();
        }
        None
    }

    /// Pop `chip`'s best ready job under the run's policy (the event
    /// rule's pick). With one ready heap that is its top; under
    /// `FairShare` the tenants' tops are compared by boost, then the
    /// `usage × weight` cross-product (the live counters), then the heap
    /// key — the scan's comparator.
    fn pick(&mut self, chip: usize) -> Option<usize> {
        self.promote(chip);
        let (weights, usage, boost) = (self.share.weights, &self.share.usage, self.share.boost);
        let mut best: Option<(usize, ReadyKey)> = None;
        for (c, heap) in self.queues.ready[chip].iter_mut().enumerate() {
            while let Some(&Reverse((_, j))) = heap.peek() {
                if self.stage[j] == Stage::Queued && self.chip_of[j] == chip {
                    break;
                }
                heap.pop();
            }
            let Some(&key) = heap.peek() else { continue };
            let better = best.is_none_or(|(b, bkey)| {
                let uc = usage[c] as u128 * weights[b].max(1) as u128;
                let ub = usage[b] as u128 * weights[c].max(1) as u128;
                boost[c]
                    .cmp(&boost[b])
                    .then(uc.cmp(&ub))
                    .then(bkey.cmp(&key))
                    .is_lt()
            });
            if better {
                best = Some((c, key));
            }
        }
        let pick = best.and_then(|(c, _)| self.queues.ready[chip][c].pop());
        let pick = pick.map(|Reverse((_, j))| j);
        #[cfg(test)]
        self.check_pick(chip, pick);
        pick
    }

    /// Drain `chip`'s whole ready set, in id order (the barrier rule's
    /// planner input). The jobs stay `Queued` until dispatched.
    fn take_ready(&mut self, chip: usize) -> Vec<usize> {
        self.promote(chip);
        let mut ready = Vec::new();
        for heap in &mut self.queues.ready[chip] {
            for Reverse((_, j)) in heap.drain() {
                if self.stage[j] == Stage::Queued && self.chip_of[j] == chip {
                    ready.push(j);
                }
            }
        }
        ready.sort_unstable();
        #[cfg(test)]
        self.check_ready(chip, &ready);
        ready
    }

    /// Hand job `j` to core `core` of `chip`: stamp its dispatch and
    /// meter its tenant's wait and fair-share usage.
    fn dispatch_job(
        &mut self,
        chip: usize,
        core: usize,
        j: usize,
        dispatch: impl FnOnce(usize, usize),
    ) {
        self.stage[j] = Stage::Running;
        self.assignment[j] = (chip, core);
        self.dispatch_seq[j] = self.dispatched;
        self.dispatched += 1;
        let t = self.pool.tenant_of[j];
        let cost = self.pool.costs[j].max(1);
        self.per_tenant[t].wait_cycles += self.now - self.ready_at[j];
        self.per_tenant[t].cost_dispatched += cost;
        self.share.usage[t] += cost;
        dispatch(self.chip_base[chip] + core, j);
    }

    /// Collect `count` reports and fold the completed ones into the
    /// per-core and per-tenant meters and `outputs`; returns the completed
    /// jobs in id order. Among failures, a panic
    /// (a job bug, reported as `JobPanicked` at the current session tick)
    /// beats a simulation error, and within each kind the earliest
    /// dispatch wins, whatever order the host delivered the reports in.
    /// Nothing is in flight afterwards, so the backend stays usable.
    fn collect_batch(
        &mut self,
        count: usize,
        mut collect: impl FnMut() -> Done<T>,
    ) -> Result<Vec<usize>, SimError> {
        let mut done: Vec<(usize, usize, T, ExecStats)> = Vec::with_capacity(count);
        // The first failure by (is a simulation error, dispatch seq).
        let mut first: Option<((bool, usize), SimError)> = None;
        for _ in 0..count {
            let report = collect();
            let seq = self.dispatch_seq[report.job];
            let failure = match report.outcome {
                JobOutcome::Completed(out, delta) => {
                    done.push((report.job, report.core, out, delta));
                    continue;
                }
                JobOutcome::Failed(e) => ((true, seq), e),
                JobOutcome::Panicked(msg) => {
                    let at = self.base + self.now;
                    ((false, seq), SimError::job_panicked(at, report.core, msg))
                }
            };
            if first.as_ref().is_none_or(|(key, _)| failure.0 < *key) {
                first = Some(failure);
            }
        }
        if let Some((_, e)) = first {
            return Err(e);
        }
        done.sort_by_key(|&(j, ..)| j);
        Ok(done
            .into_iter()
            .map(|(j, core, out, delta)| {
                self.per_core[core].merge(&delta);
                self.jobs_per_core[core] += 1;
                let t = self.pool.tenant_of[j];
                self.per_tenant[t].busy.merge(&delta);
                self.per_tenant[t].jobs += 1;
                self.outputs[j] = Some(out);
                self.job_cycles[j] = delta.cycles;
                j
            })
            .collect())
    }

    /// Charge the modeled movement of `parent`'s output to `child` on
    /// chip `to`, and return its arrival tick. Under the event rule the
    /// serialization queues behind whatever the link already carries and
    /// the arrival is a heap event; under the barrier rule links do not
    /// queue. The pipelined hop latency is added on top either way,
    /// without occupying the link.
    fn charge_transfer(&mut self, parent: usize, child: usize, to: usize) -> u64 {
        let (chips, now) = (self.dead.len(), self.now);
        let from = self.chip_of[parent];
        let words = self.pool.transfer_words[parent].max(1);
        let ser = words.div_ceil(self.cfg.link_words_per_cycle.max(1));
        let start = self.link_free.as_mut().map_or(now, |free| {
            let busy_until = &mut free[from * chips + to];
            *busy_until = now.max(*busy_until) + ser;
            *busy_until - ser
        });
        let arrival = start + ser + self.cfg.hop_latency_cycles;
        self.transfers.push(Transfer {
            parent: JobId::from_index(parent),
            child: JobId::from_index(child),
            from_chip: from,
            to_chip: to,
            words,
            cycles: arrival - self.now,
        });
        self.transferred_words += words;
        self.transfer_cycles += arrival - self.now;
        self.events.push(TraceEvent::Transfer {
            parent,
            child,
            from_chip: from,
            to_chip: to,
            words,
            start: self.now,
            end: arrival,
        });
        if self.link_free.is_some() {
            let link = ComponentId::Link(from, to);
            self.schedule(arrival, link, EventKind::TransferArrive);
        }
        arrival
    }

    /// Release a retired job: keep its output and free its children, a
    /// cross-chip child waiting for the modeled transfer (charged exactly
    /// once per cut edge on the fault-free path — a job is released
    /// exactly once; requeues may re-charge an edge to a new home).
    fn release(&mut self, j: usize) {
        self.stage[j] = Stage::Done;
        self.completed += 1;
        self.completion_tick[j] = self.now;
        let children = self.pool.children;
        for &child in &children[j] {
            self.indegree[child] -= 1;
            let to = self.chip_of[child];
            let arrival = if to != self.chip_of[j] {
                self.charge_transfer(j, child, to)
            } else {
                self.now
            };
            self.ready_at[child] = self.ready_at[child].max(arrival);
            if self.indegree[child] == 0 {
                self.stage[child] = Stage::Queued;
                self.queues.push(child, to, self.ready_at[child], self.now);
            }
        }
    }

    /// Log job `j`'s span on its assigned core, retiring at `end`.
    fn log_job(&mut self, j: usize, end: u64, discarded: bool) {
        let (chip, core) = self.assignment[j];
        let start = end - self.job_cycles[j];
        self.events.push(TraceEvent::Job {
            job: j,
            tenant: self.pool.tenant_of[j],
            chip,
            core,
            start,
            end,
            discarded,
        });
    }

    /// Kill `chip` (a no-op when it is already dead) and requeue, in id
    /// order, every job it still owns and has not started — the caller
    /// has already revoked what it had in flight. Errors with
    /// `AllChipsDead` when no chip survives.
    fn kill(&mut self, chip: usize, ready_floor: u64) -> Result<(), SimError> {
        if self.dead[chip] {
            return Ok(());
        }
        self.dead[chip] = true;
        self.events.push(TraceEvent::Fault {
            chip,
            tick: self.now,
        });
        if self.dead.iter().all(|&d| d) {
            let at = self.base + self.now;
            return Err(SimError::all_chips_dead(at, self.dead.len()));
        }
        for j in 0..self.stage.len() {
            if self.chip_of[j] == chip && matches!(self.stage[j], Stage::Blocked | Stage::Queued) {
                self.requeue(j, chip, ready_floor);
            }
        }
        Ok(())
    }

    /// Move job `j` off the dead chip `from` onto the surviving chip with
    /// the least remaining (uncompleted) cost, ties to the lower index.
    /// Completed parents on other chips pay one fresh modeled transfer to
    /// the job's new home; the job's readiness is raised to at least
    /// `ready_floor` (the event rule meters its wait from the requeue, the
    /// barrier rule from its first readiness). A queued job joins its new
    /// chip's queues.
    fn requeue(&mut self, j: usize, from: usize, ready_floor: u64) {
        #[cfg(test)]
        self.check_remaining();
        let target = self
            .alive_chips()
            .min_by_key(|&c| (self.remaining[c], c))
            .expect("a survivor exists (checked at the kill)");
        self.remaining[target] += self.pool.costs[j].max(1); // `from` is dead: never read again
        self.events.push(TraceEvent::Requeue {
            job: j,
            from_chip: from,
            to_chip: target,
            tick: self.now,
        });
        self.chip_of[j] = target;
        self.ready_at[j] = self.ready_at[j].max(ready_floor);
        let parents = self.pool.parents;
        for &p in &parents[j] {
            if self.stage[p] == Stage::Done && self.chip_of[p] != target {
                let arrival = self.charge_transfer(p, j, target);
                self.ready_at[j] = self.ready_at[j].max(arrival);
            }
        }
        if self.stage[j] == Stage::Queued {
            self.queues.push(j, target, self.ready_at[j], self.now);
        }
    }

    /// Jump the clock to `to` with every core idle: a stall.
    fn fast_forward(&mut self, to: u64) {
        self.events.push(TraceEvent::IdleFastForward {
            start: self.now,
            end: to,
        });
        self.stall_cycles += to - self.now;
        self.now = to;
    }

    /// The barrier rule ([`SimMode::Wave`]); returns each job's wave and
    /// each wave's end clock. A wave plans every alive chip's ready set in
    /// chip order — `FairShare` usage is charged as each chip's buckets
    /// dispatch, so later chips see earlier chips' picks — and dispatches
    /// every bucket before the first collect. It folds at its slowest
    /// bucket; a core runs its bucket in order, so job spans are prefix
    /// sums. Faults fire only at barriers: before planning, and after the
    /// fold but before any child is released. A barrier with nothing
    /// ready fast-forwards to the next transfer arrival or live fault.
    fn barrier_loop(
        &mut self,
        dispatch: &mut impl FnMut(usize, usize),
        collect: &mut impl FnMut() -> Done<T>,
    ) -> Result<(Vec<usize>, Vec<u64>), SimError> {
        let n = self.stage.len();
        let chips = self.dead.len();
        let total_cores = self.per_core.len();
        let mut wave_of = vec![0usize; n];
        let mut wave_ends: Vec<u64> = Vec::new();
        while self.completed < n {
            // Faults due before the wave (at run start, or during a
            // fast-forward gap): nothing is in flight to revoke.
            self.fire_barrier_faults(&mut Vec::new(), self.events.len())?;

            // A dead chip owns no queued job, so its ready set is empty.
            let ready: Vec<Vec<usize>> = (0..chips).map(|chip| self.take_ready(chip)).collect();
            if ready.iter().all(Vec::is_empty) {
                // Every queued job waits on a transfer: jump to the
                // earliest arrival, clamped to the next live fault so a
                // kill inside the gap fires at its own barrier.
                let live_fault = self.heap.iter().map(|Reverse(e)| e).filter(
                    |e| matches!(e.kind, EventKind::Fault(i) if !self.dead[self.faults[i].chip]),
                );
                let fault = live_fault.map(|e| e.tick).min().unwrap_or(u64::MAX);
                let alive: Vec<usize> = self.alive_chips().collect();
                let arrival = alive.into_iter().filter_map(|c| self.next_waiting(c)).min();
                self.fast_forward(fault.min(arrival.expect("a queued job waits on a transfer")));
                continue;
            }

            let wave = wave_ends.len();
            let mut by_core: Vec<Vec<usize>> = vec![Vec::new(); total_cores];
            let mut count = 0;
            for (chip, chip_ready) in ready.iter().enumerate() {
                if chip_ready.is_empty() {
                    continue;
                }
                let cores = self.cfg.chips[chip].cores;
                let buckets = match self.sched {
                    Scheduler::FairShare => plan_wave_tenanted_slo(
                        chip_ready,
                        self.pool.costs,
                        &self.queues.rank,
                        self.pool.tenant_of,
                        self.share.usage,
                        self.share.weights,
                        self.share.boost,
                        cores,
                    ),
                    sched => {
                        plan_wave(sched, chip_ready, self.pool.costs, &self.queues.rank, cores)
                    }
                };
                for (core, bucket) in buckets.iter().enumerate() {
                    for &j in bucket {
                        self.dispatch_job(chip, core, j, &mut *dispatch);
                        wave_of[j] = wave;
                        by_core[self.chip_base[chip] + core].push(j);
                        count += 1;
                    }
                }
                // A quantum-capped plan's leftovers stay queued.
                for &j in chip_ready {
                    if self.stage[j] == Stage::Queued {
                        self.queues.push(j, chip, self.ready_at[j], self.now);
                    }
                }
            }

            let mut folded = self.collect_batch(count, &mut *collect)?;
            let (start, log_start) = (self.now, self.events.len());
            for bucket in &by_core {
                let mut t = start;
                for &j in bucket {
                    t += self.job_cycles[j];
                    self.log_job(j, t, false);
                }
                self.now = self.now.max(t);
            }
            wave_ends.push(self.now);
            for &j in &folded {
                self.stage[j] = Stage::Folded;
                self.remaining[self.chip_of[j]] -= self.pool.costs[j].max(1);
            }

            // A kill whose tick fell inside this wave fires now, at the
            // barrier: it discards the dying chip's slice of the wave and
            // requeues its jobs before any child is released.
            self.fire_barrier_faults(&mut folded, log_start)?;
            for j in folded {
                self.release(j);
            }
        }
        Ok((wave_of, wave_ends))
    }

    /// Fire every fault due by the barrier at `now`, in `(tick, chip)`
    /// order. A kill revokes the dying chip's jobs in `folded` — their
    /// work stays metered, their outputs are discarded, their job events
    /// from `log_start` on are marked discarded and their children are
    /// not released — then requeues every job the chip still owns. A
    /// requeued job keeps its first readiness, and only parents released
    /// in earlier waves are re-charged to its new home: parents folded in
    /// this wave charge their edge through the release that follows,
    /// against the updated placement.
    fn fire_barrier_faults(
        &mut self,
        folded: &mut Vec<usize>,
        log_start: usize,
    ) -> Result<(), SimError> {
        while let Some(&Reverse(e)) = self.heap.peek() {
            if e.tick > self.now {
                break;
            }
            self.heap.pop();
            let EventKind::Fault(i) = e.kind else {
                unreachable!("the barrier rule schedules only faults")
            };
            // A dead chip has nothing folded: revoking first is safe.
            let chip = self.faults[i].chip;
            folded.retain(|&j| {
                if self.assignment[j].0 != chip {
                    return true;
                }
                self.outputs[j] = None;
                self.stage[j] = Stage::Queued;
                false
            });
            for ev in &mut self.events.events_mut()[log_start..] {
                if let TraceEvent::Job {
                    chip: c, discarded, ..
                } = ev
                {
                    *discarded |= *c == chip;
                }
            }
            self.kill(chip, 0)?;
        }
        Ok(())
    }

    /// The event rule ([`SimMode::Event`]): fire every event due at the
    /// current tick, dispatch every free core, collect the batch, hop to
    /// the next event. A kill fires at its exact tick and revokes
    /// whatever runs on the dying chip at that tick. Returns each job's
    /// wave — the rank of its completion tick among the run's distinct
    /// completion ticks — and those ticks.
    fn event_loop(
        &mut self,
        dispatch: &mut impl FnMut(usize, usize),
        collect: &mut impl FnMut() -> Done<T>,
    ) -> Result<(Vec<usize>, Vec<u64>), SimError> {
        let (n, chips) = (self.stage.len(), self.dead.len());
        self.link_free = Some(vec![0; chips * chips]);
        let mut core_job: Vec<Option<usize>> = vec![None; self.per_core.len()];
        while self.completed < n {
            // Fire every event due at the current tick, in (component,
            // seq) order — faults first, then arrivals, then completions.
            while let Some(&Reverse(e)) = self.heap.peek() {
                if e.tick > self.now {
                    break;
                }
                self.heap.pop();
                match e.kind {
                    EventKind::Fault(idx) => {
                        // Executions in flight on the dying chip are
                        // revoked at their completion tick (the work
                        // stays metered); a dead chip runs nothing.
                        let chip = self.faults[idx].chip;
                        let cores =
                            self.chip_base[chip]..self.chip_base[chip] + self.cfg.chips[chip].cores;
                        for &j in core_job[cores].iter().flatten() {
                            self.stage[j] = Stage::Revoked;
                        }
                        self.kill(chip, self.now)?;
                    }
                    EventKind::TransferArrive => {} // the tick was the point
                    EventKind::JobDone { core, job } => {
                        core_job[core] = None;
                        let revoked = self.stage[job] == Stage::Revoked;
                        self.log_job(job, self.now, revoked);
                        let chip = self.assignment[job].0;
                        if revoked {
                            self.outputs[job] = None;
                            self.stage[job] = Stage::Queued;
                            self.requeue(job, chip, self.now);
                        } else {
                            self.remaining[chip] -= self.pool.costs[job].max(1);
                            self.release(job);
                        }
                    }
                }
            }
            if self.completed == n {
                break;
            }

            // Eager dispatch: every free core on every alive chip takes
            // the policy's best ready job, chips and cores in index order
            // (the deterministic tie-break).
            let mut batch = 0usize;
            for chip in 0..chips {
                if self.dead[chip] {
                    continue;
                }
                for core in 0..self.cfg.chips[chip].cores {
                    let g = self.chip_base[chip] + core;
                    if core_job[g].is_some() {
                        continue;
                    }
                    let Some(j) = self.pick(chip) else {
                        break; // nothing ready on this chip for any free core
                    };
                    core_job[g] = Some(j);
                    self.dispatch_job(chip, core, j, &mut *dispatch);
                    batch += 1;
                }
            }

            // Drain the whole batch before the clock moves: the jobs'
            // measured durations become completion events, scheduled in
            // job-id order so the heap (and the seq counter) stays
            // deterministic.
            for job in self.collect_batch(batch, &mut *collect)? {
                let (chip, core) = self.assignment[job];
                let core = self.chip_base[chip] + core;
                let tick = self.now + self.job_cycles[job];
                let kind = EventKind::JobDone { core, job };
                self.schedule(tick, ComponentId::Core(core), kind);
            }

            // Hop to the next event horizon. A gap with every core idle
            // is a stall (a transfer or fault wait).
            let Some(&Reverse(next)) = self.heap.peek() else {
                break; // nothing running, nothing scheduled: dangling parents
            };
            if next.tick > self.now {
                if core_job.iter().all(Option::is_none) {
                    self.fast_forward(next.tick);
                } else {
                    self.now = next.tick;
                }
            }
        }
        let mut ends = self.completion_tick.clone();
        ends.sort_unstable();
        ends.dedup();
        let wave_of = self
            .completion_tick
            .iter()
            .map(|t| ends.binary_search(t).expect("own completion tick"))
            .collect();
        Ok((wave_of, ends))
    }

    /// Assemble the run's result. Per-core idle is the makespan minus the
    /// core's busy cycles and `idle_excluded` (the stall cycles the event
    /// rule accounts apart).
    fn finish(
        self,
        (wave_of, wave_ends): (Vec<usize>, Vec<u64>),
        idle_excluded: u64,
    ) -> CoordRun<T> {
        let makespan = self.now;
        let idle_per_core = self
            .per_core
            .iter()
            .map(|s| makespan.saturating_sub(s.cycles + idle_excluded))
            .collect();
        let outputs = self
            .outputs
            .into_iter()
            .enumerate()
            .map(|(j, o)| {
                o.unwrap_or_else(|| panic!("job {j} never became ready (dangling parent?)"))
            })
            .collect();
        CoordRun {
            outputs,
            assignment: self.assignment,
            wave_of,
            wave_ends,
            idle_per_core,
            transfers: self.transfers,
            stats: ClusterStats::from_cores(
                self.cfg,
                &self.per_core,
                &self.jobs_per_core,
                makespan,
                self.transferred_words,
                self.transfer_cycles,
                self.stall_cycles,
            ),
            per_tenant: self.per_tenant,
            events: self.events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::config::LacConfig;
    use crate::error::HazardKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::time::Instant;

    thread_local! {
        /// Whether the time core checks every queue pick (event rule)
        /// and every drained ready set (barrier rule) against the
        /// `scan_pick`/`scan_ready` oracles. On by default; the timing
        /// test turns it off on its own thread, since the scan is the
        /// quadratic cost it measures away.
        pub(super) static CHECK_PICKS: Cell<bool> = const { Cell::new(true) };
    }

    /// The test oracles the time core checks itself against while
    /// `CHECK_PICKS` is on.
    impl<T> Run<'_, T> {
        /// The test oracle for `Run::take_ready`: `chip`'s ready set by a
        /// scan over every job, in id order.
        fn scan_ready(&self, chip: usize) -> impl Iterator<Item = usize> + '_ {
            (0..self.stage.len()).filter(move |&j| {
                self.stage[j] == Stage::Queued
                    && self.chip_of[j] == chip
                    && self.ready_at[j] <= self.now
            })
        }

        /// The test oracle for `Run::pick`: the event rule's pick as a
        /// linear scan over `chip`'s ready set. It is the event-mode
        /// reading of the wave planners, one job at a time:
        /// `Fifo`/`LeastLoaded` take the lowest ready id (placement, their
        /// wave-mode difference, is now the free core itself);
        /// `CriticalPath` takes the longest remaining path; `FairShare`
        /// replays the streaming tenant comparator of
        /// [`crate::service::plan_wave_tenanted_slo`] against the live
        /// usage counters.
        fn scan_pick(&self, chip: usize) -> Option<usize> {
            let priority = &self.queues.rank;
            let tenant_of = self.pool.tenant_of;
            let (weights, usage, boost) = (self.share.weights, &self.share.usage, self.share.boost);
            let mut candidates = self.scan_ready(chip);
            match self.sched {
                Scheduler::Fifo | Scheduler::LeastLoaded => candidates.next(),
                Scheduler::CriticalPath => candidates.min_by_key(|&j| (Reverse(priority[j]), j)),
                Scheduler::FairShare => candidates.min_by(|&a, &b| {
                    let (ta, tb) = (tenant_of[a], tenant_of[b]);
                    let ua = usage[ta] as u128 * weights[tb].max(1) as u128;
                    let ub = usage[tb] as u128 * weights[ta].max(1) as u128;
                    boost[ta]
                        .cmp(&boost[tb])
                        .then_with(|| ua.cmp(&ub))
                        .then_with(|| priority[b].cmp(&priority[a]))
                        .then_with(|| a.cmp(&b))
                }),
            }
        }

        /// Every alive chip's `remaining` load equals a scan of the jobs
        /// placed on it that are neither folded nor done.
        pub(super) fn check_remaining(&self) {
            for c in self.alive_chips() {
                let scan: u64 = (0..self.stage.len())
                    .filter(|&k| {
                        self.chip_of[k] == c
                            && !matches!(self.stage[k], Stage::Folded | Stage::Done)
                    })
                    .map(|k| self.pool.costs[k].max(1))
                    .sum();
                let now = self.now;
                assert_eq!(
                    self.remaining[c], scan,
                    "chip {c}'s remaining load at tick {now}"
                );
            }
        }

        /// The barrier rule's drained ready set matches the scan.
        pub(super) fn check_ready(&self, chip: usize, ready: &[usize]) {
            if CHECK_PICKS.with(Cell::get) {
                let scan: Vec<usize> = self.scan_ready(chip).collect();
                assert_eq!(ready, scan, "chip {chip} at tick {}: ready set", self.now);
            }
        }

        /// The event rule's queue pick matches the scan.
        pub(super) fn check_pick(&self, chip: usize, pick: Option<usize>) {
            if CHECK_PICKS.with(Cell::get) {
                let scan = self.scan_pick(chip);
                assert_eq!(
                    pick, scan,
                    "chip {chip} at tick {}: queue pick vs scan",
                    self.now
                );
            }
        }
    }

    /// A pure in-memory backend: `dispatch` queues `(core, job)`,
    /// `collect` pops and reports the job's cost hint as its measured
    /// duration, the job id as its output. Lets the event loop be tested
    /// without engines or threads.
    #[allow(clippy::type_complexity)]
    fn fake_backend(
        costs: Vec<u64>,
    ) -> (
        std::rc::Rc<std::cell::RefCell<VecDeque<(usize, usize)>>>,
        impl FnMut(usize, usize),
        impl FnMut() -> Done<usize>,
    ) {
        let q = std::rc::Rc::new(std::cell::RefCell::new(VecDeque::new()));
        let qd = std::rc::Rc::clone(&q);
        let qc = std::rc::Rc::clone(&q);
        (
            q,
            move |core, job| qd.borrow_mut().push_back((core, job)),
            move || {
                let (core, job) = qc.borrow_mut().pop_front().expect("a dispatched job");
                Done {
                    core,
                    job,
                    outcome: JobOutcome::Completed(
                        job,
                        ExecStats {
                            cycles: costs[job],
                            ..Default::default()
                        },
                    ),
                }
            },
        )
    }

    fn chain_graph(costs: &[u64]) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
        let n = costs.len();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for j in 1..n {
            parents[j].push(j - 1);
            children[j - 1].push(j);
        }
        (parents, children)
    }

    /// Chips with the given core counts joined by a `bw`-words/cycle,
    /// `hop`-cycle link.
    fn topo(cores: &[usize], bw: u64, hop: u64) -> ClusterConfig {
        ClusterConfig {
            chips: cores
                .iter()
                .map(|&c| ChipConfig::new(c, LacConfig::default()))
                .collect(),
            link_words_per_cycle: bw,
            hop_latency_cycles: hop,
            sim_mode: SimMode::Event,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        topo: &ClusterConfig,
        costs: &[u64],
        words: &[u64],
        parents: &[Vec<usize>],
        children: &[Vec<usize>],
        chip_of: &mut [usize],
        faults: &[FaultEvent],
        dead_chips: usize,
    ) -> CoordRun<usize> {
        let n = costs.len();
        let (_q, dispatch, collect) = fake_backend(costs.to_vec());
        let mut dead = vec![false; dead_chips];
        let mut usage = vec![0u64];
        run_pool(
            topo,
            PoolView {
                costs,
                transfer_words: words,
                parents,
                children,
                tenant_of: &vec![0usize; n],
            },
            TenantShare {
                weights: &[1],
                usage: &mut usage,
                boost: &[u64::MAX],
            },
            Scheduler::Fifo,
            Placement {
                chip_of,
                dead: &mut dead,
                faults,
                base: 0,
            },
            dispatch,
            collect,
        )
        .expect("event run")
    }

    /// Everything one `run_pool` call reads, so a run can be replayed.
    struct Scenario {
        topo: ClusterConfig,
        costs: Vec<u64>,
        words: Vec<u64>,
        parents: Vec<Vec<usize>>,
        children: Vec<Vec<usize>>,
        chip_of: Vec<usize>,
        faults: Vec<FaultEvent>,
        tenant_of: Vec<usize>,
        weights: Vec<u64>,
        usage: Vec<u64>,
        boost: Vec<u64>,
        sched: Scheduler,
    }

    impl Scenario {
        /// Run the scenario on fresh copies of its mutable state; returns
        /// the run, the final placement and the final usage counters.
        fn run(&self) -> (Result<CoordRun<usize>, SimError>, Vec<usize>, Vec<u64>) {
            let (_q, dispatch, collect) = fake_backend(self.costs.clone());
            let mut chip_of = self.chip_of.clone();
            let mut dead = vec![false; self.topo.chips.len()];
            let mut usage = self.usage.clone();
            let r = run_pool(
                &self.topo,
                PoolView {
                    costs: &self.costs,
                    transfer_words: &self.words,
                    parents: &self.parents,
                    children: &self.children,
                    tenant_of: &self.tenant_of,
                },
                TenantShare {
                    weights: &self.weights,
                    usage: &mut usage,
                    boost: &self.boost,
                },
                self.sched,
                Placement {
                    chip_of: &mut chip_of,
                    dead: &mut dead,
                    faults: &self.faults,
                    base: 0,
                },
                dispatch,
                collect,
            );
            (r, chip_of, usage)
        }
    }

    /// A random DAG (ids in topological order) on 1–3 chips of 1–3 cores
    /// each, 1–3 tenants with random weights, boosts and starting usage, a
    /// random link (slow links make `ready_at > now` common) and up to
    /// `chips - 1` kills, timed to land while jobs run.
    fn random_scenario(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..48usize);
        let chips = rng.gen_range(1..=3usize);
        let cores: Vec<usize> = (0..chips).map(|_| rng.gen_range(1..=3usize)).collect();
        let tenants = rng.gen_range(1..=3usize);
        let costs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..20u64)).collect();
        let words: Vec<u64> = (0..n).map(|_| rng.gen_range(1..16u64)).collect();
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for (j, ps) in parents.iter_mut().enumerate().skip(1) {
            for _ in 0..rng.gen_range(0..=2usize) {
                let p = rng.gen_range(0..j);
                if !ps.contains(&p) {
                    ps.push(p);
                    children[p].push(j);
                }
            }
        }
        let horizon = costs.iter().sum::<u64>() / cores.iter().sum::<usize>() as u64 + 1;
        let faults = (0..rng.gen_range(0..chips))
            .map(|_| FaultEvent {
                tick: rng.gen_range(0..horizon),
                chip: rng.gen_range(0..chips),
            })
            .collect();
        Scenario {
            topo: topo(&cores, rng.gen_range(1..=4u64), rng.gen_range(0..40u64)),
            chip_of: (0..n).map(|_| rng.gen_range(0..chips)).collect(),
            tenant_of: (0..n).map(|_| rng.gen_range(0..tenants)).collect(),
            weights: (0..tenants).map(|_| rng.gen_range(0..4u64)).collect(),
            usage: (0..tenants).map(|_| rng.gen_range(0..30u64)).collect(),
            boost: (0..tenants)
                .map(|_| [0, 1, u64::MAX][rng.gen_range(0..3usize)])
                .collect(),
            sched: [
                Scheduler::Fifo,
                Scheduler::LeastLoaded,
                Scheduler::CriticalPath,
                Scheduler::FairShare,
            ][rng.gen_range(0..4usize)],
            costs,
            words,
            parents,
            children,
            faults,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        // Under both release rules, every pick (event rule) and every
        // drained ready set (barrier rule) inside these runs is asserted
        // equal to the linear scan's (`CHECK_PICKS` is on), and so is
        // every chip's remaining load at each requeue; a rerun
        // reproduces the whole `CoordRun` — outputs, assignment, events,
        // stats.
        #[test]
        fn queue_picks_match_the_scan_and_reruns_are_identical(seed in any::<u64>()) {
            let mut sc = random_scenario(seed);
            for mode in [SimMode::Wave, SimMode::Event] {
                sc.topo.sim_mode = mode;
                let (first, chip_of, usage) = sc.run();
                let (second, chip_of2, usage2) = sc.run();
                prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));
                prop_assert_eq!(chip_of, chip_of2);
                prop_assert_eq!(usage, usage2);
                if let Ok(r) = first {
                    prop_assert_eq!(r.outputs, (0..sc.costs.len()).collect::<Vec<_>>());
                }
            }
        }
    }

    /// A layered DAG, `WIDTH` jobs per layer, each job fed by two jobs of
    /// the layer above, placed round-robin over 2 chips × 2 cores, so
    /// most edges cross chips and pay a transfer.
    fn layered_scenario(jobs: usize, sched: Scheduler) -> Scenario {
        const WIDTH: usize = 64;
        let mut parents = vec![Vec::new(); jobs];
        let mut children = vec![Vec::new(); jobs];
        for (j, ps) in parents.iter_mut().enumerate().skip(WIDTH) {
            let (layer, i) = (j / WIDTH, j % WIDTH);
            for p in [i, (i + 1) % WIDTH].map(|k| (layer - 1) * WIDTH + k) {
                ps.push(p);
                children[p].push(j);
            }
        }
        Scenario {
            topo: topo(&[2, 2], 4, 8),
            costs: (0..jobs).map(|j| 1 + (j as u64 * 7) % 13).collect(),
            words: vec![16; jobs],
            parents,
            children,
            chip_of: (0..jobs).map(|j| j % 2).collect(),
            faults: Vec::new(),
            tenant_of: (0..jobs).map(|j| j % 3).collect(),
            weights: vec![1, 2, 3],
            usage: vec![0; 3],
            boost: vec![u64::MAX; 3],
            sched,
        }
    }

    // The complexity contract of the dispatch path, under both release
    // rules: host time per job may grow at most 4x from 1k to 32k jobs
    // (a per-pick scan of the graph grows it ~30x). Best of 3 runs, no
    // threads, oracle off.
    #[test]
    fn event_dispatch_scales_near_linearly() {
        CHECK_PICKS.with(|c| c.set(false));
        let us_per_job = |jobs: usize, sched: Scheduler, mode: SimMode| {
            let mut sc = layered_scenario(jobs, sched);
            sc.topo.sim_mode = mode;
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let (r, ..) = sc.run();
                    let secs = t.elapsed().as_secs_f64();
                    assert_eq!(r.expect("layered run").outputs.len(), jobs);
                    secs * 1e6 / jobs as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        for mode in [SimMode::Wave, SimMode::Event] {
            for sched in [Scheduler::CriticalPath, Scheduler::FairShare] {
                let small = us_per_job(1 << 10, sched, mode);
                let large = us_per_job(1 << 15, sched, mode);
                let growth = large / small;
                assert!(
                    growth <= 4.0,
                    "{mode:?} {sched:?}: {small:.2} us/job at 1k, {large:.2} us/job at 32k \
                     ({growth:.2}x)"
                );
            }
        }
    }

    #[test]
    fn transfers_overlap_with_compute_on_both_chips() {
        // Chip 0 runs job 0 then feeds job 2 on chip 1 while chip 0's
        // independent job 1 and the transfer overlap: event-mode
        // makespan is compute-bound, not barrier-bound.
        let topo = topo(&[1, 1], 1, 100);
        let costs = [10, 110, 10];
        let words = [4, 1, 1];
        let mut parents = vec![Vec::new(); 3];
        let mut children = vec![Vec::new(); 3];
        parents[2].push(0);
        children[0].push(2);
        let mut chip_of = vec![0, 0, 1];
        let r = run(
            &topo,
            &costs,
            &words,
            &parents,
            &children,
            &mut chip_of,
            &[],
            2,
        );
        // Job 0 retires at 10; transfer lands at 10 + 4 + 100 = 114;
        // job 2 runs 114..124 on chip 1 while chip 0 still runs job 1
        // (10..120) — the transfer fully overlaps with compute.
        assert_eq!(r.outputs, vec![0, 1, 2]);
        assert_eq!(r.stats.makespan_cycles, 124);
        assert_eq!(r.stats.transferred_words, 4);
        assert_eq!(r.stats.transfer_cycles, 104);
        // Nothing ever went fully idle: job 1 covers the transfer window.
        assert_eq!(r.stats.transfer_stall_cycles, 0);
        // busy + idle + stall = makespan on every core.
        let per_core = r.stats.per_chip.iter().flat_map(|c| &c.per_core);
        for (s, idle) in per_core.zip(&r.idle_per_core) {
            assert_eq!(
                s.cycles + idle + r.stats.transfer_stall_cycles,
                r.stats.makespan_cycles
            );
        }
    }

    #[test]
    fn same_link_transfers_queue_behind_each_other() {
        // Two cut edges over the same (0 -> 1) link at the same tick:
        // the second serialization window queues behind the first.
        let topo = topo(&[2, 1], 1, 10);
        let costs = [5, 5, 1, 1];
        let words = [8, 8, 1, 1];
        let mut parents = vec![Vec::new(); 4];
        let mut children = vec![Vec::new(); 4];
        parents[2].push(0);
        children[0].push(2);
        parents[3].push(1);
        children[1].push(3);
        let mut chip_of = vec![0, 0, 1, 1];
        let r = run(
            &topo,
            &costs,
            &words,
            &parents,
            &children,
            &mut chip_of,
            &[],
            2,
        );
        // Both parents retire at 5. First transfer occupies the link
        // 5..13 (arrives 23); the second queues 13..21 (arrives 31).
        let ends: Vec<u64> = r
            .events
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Transfer { end, .. } => Some(*end),
                _ => None,
            })
            .collect();
        assert_eq!(ends, vec![23, 31]);
        assert_eq!(r.stats.makespan_cycles, 32);
        // Two all-idle gaps: 5..23 (waiting on the first arrival) and
        // 24..31 (chip 1 retired job 2, waiting on the queued arrival).
        assert_eq!(r.stats.transfer_stall_cycles, 18 + 7);
    }

    #[test]
    fn fault_revokes_in_flight_work_and_requeues_deterministically() {
        // One chain on chip 1; chip 1 dies mid-job. The running job is
        // revoked at its completion, requeued to chip 0, and rerun —
        // metered twice, output delivered once.
        let topo = topo(&[1, 1], 1, 0);
        let costs = [10, 10];
        let words = [1, 1];
        let (parents, children) = chain_graph(&costs);
        let mut chip_of = vec![1, 1];
        let r = run(
            &topo,
            &costs,
            &words,
            &parents,
            &children,
            &mut chip_of,
            &[FaultEvent { tick: 5, chip: 1 }],
            2,
        );
        assert_eq!(r.outputs, vec![0, 1]);
        assert_eq!(chip_of, vec![0, 0]);
        let discarded = r.events.count(|e| {
            matches!(
                e,
                TraceEvent::Job {
                    discarded: true,
                    ..
                }
            )
        });
        assert_eq!(discarded, 1);
        // Revoked attempt 0..10 on chip 1, rerun 10..20, chain 20..30.
        assert_eq!(r.stats.makespan_cycles, 30);
        assert_eq!(r.stats.jobs(), 3);
    }

    #[test]
    fn all_dead_is_a_hard_error_and_empty_graphs_are_free() {
        let topo = topo(&[1], 1, 0);
        let (_q, dispatch, collect) = fake_backend(vec![4]);
        let mut dead = vec![false];
        let mut usage = vec![0u64];
        let err = run_pool(
            &topo,
            PoolView {
                costs: &[4],
                transfer_words: &[1],
                parents: &[vec![]],
                children: &[vec![]],
                tenant_of: &[0],
            },
            TenantShare {
                weights: &[1],
                usage: &mut usage,
                boost: &[u64::MAX],
            },
            Scheduler::Fifo,
            Placement {
                chip_of: &mut [0],
                dead: &mut dead,
                faults: &[FaultEvent { tick: 0, chip: 0 }],
                base: 0,
            },
            dispatch,
            collect,
        )
        .unwrap_err();
        assert_eq!(err.kind, HazardKind::AllChipsDead { chips: 1 });

        let empty = run(&topo, &[], &[], &[], &[], &mut [], &[], 1);
        assert_eq!(empty.stats.makespan_cycles, 0);
        assert!(empty.outputs.is_empty());
    }
}
