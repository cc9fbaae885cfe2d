//! Discrete-event simulation core: the event-driven alternative to the
//! lock-step wave coordinator, selected per run by [`SimMode`].
//!
//! Both coordinators sit behind one entry point, `crate::coord::coordinate`,
//! which every door calls — a chip or a service is a one-chip cluster, so
//! this core and the wave loop each exist exactly once. The wave loop
//! (in [`crate::cluster`]) advances one *wave* at a time: every chip plans
//! its ready set, the shared clock jumps by the slowest bucket anywhere,
//! and only then do children — and cut-edge transfers — move. That
//! barrier is what makes a cross-chip transfer cost an entire wave of
//! latency and what forces all-idle gaps to be fast-forwarded as
//! [`crate::cluster::ClusterStats::transfer_stall_cycles`].
//!
//! This module replaces the barrier with a classic discrete-event loop
//! over *components with independent clocks*:
//!
//! * every **core** is a component that is busy exactly while a job runs
//!   on it and is eligible for a new dispatch the tick the job retires;
//! * every directed **inter-chip link** is a component whose busy
//!   intervals are the serialization windows of the transfers it carries
//!   — two transfers over the same link queue behind each other
//!   (per-hop link contention), while transfers on *different* links,
//!   and compute on both endpoint chips, proceed concurrently;
//! * every **chip** is a component whose only events are its scheduled
//!   [`crate::fault::FaultPlan`] kills.
//!
//! Pending events live in one min-heap ordered by the total
//! `(tick, component id, sequence number)` key. Component ids order
//! chips before links before cores, so a fault due at tick `t` revokes
//! a job completing at the same tick — exactly the wave coordinator's
//! conservative revocation — and the sequence number (assigned at push,
//! which only happens at deterministic points) breaks all remaining
//! ties. Host thread interleavings never reach the heap: worker results
//! are buffered per dispatch batch and folded in job-id order, so event
//! runs are bit-identical across reruns, core counts and machines, like
//! everything else in this stack.
//!
//! Idle fast-forward falls out of the heap for free: when no core is
//! busy, the loop pops the next event — a transfer arrival or a fault
//! tick — and jumps the clock there, accounting the gap as a stall.
//!
//! **Dispatch** serves each free core from its chip's `ReadyQueues`
//! rather than a scan of the whole graph, so a run costs O(n log n) in
//! its job count, not O(n²). A job enters its chip's queues the tick its
//! last parent retires: a *ready* min-heap keyed by the policy
//! (`(Reverse(critical path), id)`, or `id` alone for `Fifo` and
//! `LeastLoaded`) once its inputs are on chip, or a *waiting* min-heap on
//! `(ready_at, id)` until a cut-edge transfer lands. `FairShare` keeps one
//! ready heap per tenant and compares the tenants' best jobs under the
//! streaming tenant comparator, so a pick is O(tenants) on top of the heap
//! pop. Entries a fault strands on a dead chip are never read (dead chips
//! take no dispatch), and every popped entry is re-validated before use.
//! The pick is the linear scan's pick exactly; unit tests assert that on
//! every dispatch against the scan kept as a test oracle.
//!
//! **Equivalence contract** (property-tested in `tests/event_props.rs`):
//! outputs are bit-identical between [`SimMode::Wave`] and
//! [`SimMode::Event`] on every graph — job outputs are
//! placement-independent by the determinism contract, and both
//! coordinators only dispatch a child after all its parents completed.
//! Only *clocks* may differ: event mode overlaps transfers with compute,
//! so on cut-edge graphs its makespan is typically well below wave
//! mode's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::chip::Scheduler;
use crate::cluster::{ClusterConfig, ClusterStats, Transfer};
use crate::coord::CoordRun;
use crate::error::{HazardKind, SimError};
use crate::fault::FaultEvent;
use crate::service::{critical_paths, Done, JobId, JobOutcome, TenantDelta};
use crate::stats::ExecStats;
use crate::trace::{EventLog, TraceEvent};

/// Which coordinator a chip, service or cluster drives its graphs with.
///
/// The knob lives on [`crate::chip::ChipConfig`] and
/// [`crate::cluster::ClusterConfig`]; both default to the wave
/// coordinator, the compatibility mode every pre-existing clock and
/// baseline was recorded under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimMode {
    /// Lock-step wave coordination (the default): plan a wave, advance
    /// the shared clock by the slowest bucket, release children. Clocks
    /// and stats are bit-identical to the pre-event-core coordinator.
    #[default]
    Wave,
    /// Discrete-event coordination (this module): per-component clocks,
    /// eager dispatch the tick a core frees, cut-edge transfers
    /// overlapping with compute and queueing on their link. Outputs are
    /// bit-identical to [`SimMode::Wave`]; makespans are usually
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

/// What happens when an event fires. The payload never participates in
/// heap ordering.
#[derive(Clone, Copy, Debug)]
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
#[derive(Clone, Copy, Debug)]
struct Event {
    tick: u64,
    comp: ComponentId,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.tick, self.comp, self.seq) == (other.tick, other.comp, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.tick, self.comp, self.seq).cmp(&(other.tick, other.comp, other.seq))
    }
}

/// A min-heap entry in a chip's ready set: `(Reverse(rank), id)`.
type ReadyKey = Reverse<(Reverse<u64>, usize)>;

/// The per-chip dispatch queues of one event run (see the module doc).
/// Entries are never removed eagerly: a pick pops and re-validates them
/// against the run's `queued`/`chip_of`/`ready_at` state.
struct ReadyQueues {
    /// Ready heap each job joins: its tenant under `FairShare`, else 0.
    class: Vec<usize>,
    /// Heap rank of each job: its critical path under `CriticalPath` and
    /// `FairShare`, 0 (pure id order) under `Fifo` and `LeastLoaded`.
    rank: Vec<u64>,
    /// `ready[chip][class]`: queued jobs whose inputs are on `chip`.
    ready: Vec<Vec<BinaryHeap<ReadyKey>>>,
    /// `waiting[chip]`: queued jobs with a transfer still in flight, on
    /// `(ready_at, id)`.
    waiting: Vec<BinaryHeap<Reverse<(u64, usize)>>>,
}

impl ReadyQueues {
    fn new(
        sched: Scheduler,
        chips: usize,
        costs: &[u64],
        children: &[Vec<usize>],
        tenant_of: &[usize],
        tenants: usize,
    ) -> Self {
        let n = costs.len();
        let (class, classes) = match sched {
            Scheduler::FairShare => (tenant_of.to_vec(), tenants),
            _ => (vec![0; n], 1),
        };
        let rank = match sched {
            Scheduler::Fifo | Scheduler::LeastLoaded => vec![0; n],
            Scheduler::CriticalPath | Scheduler::FairShare => critical_paths(costs, children),
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

    /// Pop `chip`'s best ready job at `now` under the run's policy. With
    /// one ready heap that is its top; under `FairShare` the tenants' tops
    /// are compared by boost, then the `usage × weight` cross-product (the
    /// live counters), then the heap key — the scan's comparator.
    #[allow(clippy::too_many_arguments)] // the full deterministic pick context
    fn pick(
        &mut self,
        chip: usize,
        now: u64,
        queued: &[bool],
        chip_of: &[usize],
        ready_at: &[u64],
        usage: &[u64],
        weights: &[u64],
        boost: &[u64],
    ) -> Option<usize> {
        while let Some(&Reverse((tick, j))) = self.waiting[chip].peek() {
            if tick > now {
                break;
            }
            self.waiting[chip].pop();
            if queued[j] && chip_of[j] == chip && ready_at[j] == tick {
                self.push(j, chip, tick, now);
            }
        }
        let mut best: Option<(usize, ReadyKey)> = None;
        for (c, heap) in self.ready[chip].iter_mut().enumerate() {
            while let Some(&Reverse((_, j))) = heap.peek() {
                if queued[j] && chip_of[j] == chip {
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
        let (c, _) = best?;
        self.ready[chip][c].pop().map(|Reverse((_, j))| j)
    }
}

/// Schedule an event, stamping the next sequence number — pushes only
/// happen at deterministic points, so the stamp (the final heap
/// tie-break) is itself deterministic.
fn push_event(
    heap: &mut BinaryHeap<Reverse<Event>>,
    next_seq: &mut u64,
    tick: u64,
    comp: ComponentId,
    kind: EventKind,
) {
    heap.push(Reverse(Event {
        tick,
        comp,
        seq: *next_seq,
        kind,
    }));
    *next_seq += 1;
}

/// The deterministic event-driven coordinator (the [`SimMode::Event`]
/// counterpart of the cluster's wave loop). Same backend-agnostic
/// `dispatch`/`collect` door and result shape as the wave loop: workers
/// report real measured [`ExecStats`] deltas, and every dispatch batch is
/// drained before the simulated clock moves, so job durations are known
/// by the time their completion events are scheduled.
///
/// Fault model, requeue rules and metering match the wave coordinator
/// (see [`crate::fault`]) with one refinement: a kill fires at its exact
/// tick rather than the next wave boundary, revoking whatever runs on
/// the dying chip at that tick.
#[allow(clippy::too_many_arguments)] // the coordinator's full context is the point
pub(crate) fn drive_event<T>(
    cfg: &ClusterConfig,
    costs: &[u64],
    transfer_words: &[u64],
    parents: &[Vec<usize>],
    children: &[Vec<usize>],
    chip_of: &mut [usize],
    dead: &mut [bool],
    faults: &[FaultEvent],
    base: u64,
    tenant_of: &[usize],
    weights: &[u64],
    usage: &mut [u64],
    boost: &[u64],
    sched: Scheduler,
    mut dispatch: impl FnMut(usize, usize),
    mut collect: impl FnMut() -> Done<T>,
) -> Result<CoordRun<T>, SimError> {
    let n = costs.len();
    let chips = cfg.chips.len();
    let chip_base = cfg.chip_base();
    let total_cores = cfg.total_cores();

    let mut per_core = vec![ExecStats::default(); total_cores];
    let mut jobs_per_core = vec![0u64; total_cores];
    let mut per_tenant = vec![TenantDelta::default(); weights.len()];
    let mut events = EventLog::new();

    let mut indegree: Vec<usize> = parents.iter().map(|p| p.len()).collect();
    let mut ready_at = vec![0u64; n];
    // In the dispatchable pool: all parents done, not running/completed.
    let mut queued: Vec<bool> = indegree.iter().map(|&d| d == 0).collect();
    let mut queues = ReadyQueues::new(sched, chips, costs, children, tenant_of, weights.len());
    for j in (0..n).filter(|&j| queued[j]) {
        queues.push(j, chip_of[j], 0, 0);
    }
    // Uncompleted cost placed on each chip — the requeue rule's load,
    // exact for every alive chip (a dead chip's entry is never read).
    let mut remaining = vec![0u64; chips];
    for j in 0..n {
        remaining[chip_of[j]] += costs[j].max(1);
    }
    let mut running = vec![false; n];
    let mut completed_mask = vec![false; n];
    let mut revoked = vec![false; n];
    let mut outputs: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut assignment = vec![(0usize, 0usize); n];
    let mut completion_tick = vec![0u64; n];
    let mut dispatch_tick = vec![0u64; n];
    let mut dispatch_seq_of = vec![0usize; n];

    // Core and link occupancy.
    let mut core_job: Vec<Option<usize>> = vec![None; total_cores];
    let mut link_free = vec![0u64; chips * chips];
    let mut busy_cores = 0usize;

    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut next_seq = 0u64;
    // Faults are ordinary events from the start; kills already due at
    // run start fire at tick 0, before anything dispatches.
    for (i, f) in faults.iter().enumerate() {
        push_event(
            &mut heap,
            &mut next_seq,
            f.tick.saturating_sub(base),
            ComponentId::Chip(f.chip),
            EventKind::Fault(i),
        );
    }

    let mut now = 0u64;
    let mut completed_count = 0usize;
    let mut stall_cycles = 0u64;
    let mut transfers: Vec<Transfer> = Vec::new();
    let mut transferred_words = 0u64;
    let mut transfer_cycles = 0u64;
    let mut dispatch_counter = 0usize;

    // Charge the modeled movement of `parent`'s output to `child`'s chip
    // through the link's own clock: serialization queues behind whatever
    // the link already carries; the pipelined hop latency is added on
    // top without occupying the link.
    macro_rules! charge_transfer {
        ($parent:expr, $child:expr, $to:expr) => {{
            let p = $parent;
            let from = chip_of[p];
            let to = $to;
            let words = transfer_words[p].max(1);
            let ser = words.div_ceil(cfg.link_words_per_cycle.max(1));
            let link = from * chips + to;
            let start = now.max(link_free[link]);
            link_free[link] = start + ser;
            let arrival = start + ser + cfg.hop_latency_cycles;
            transfers.push(Transfer {
                parent: JobId::from_index(p),
                child: JobId::from_index($child),
                from_chip: from,
                to_chip: to,
                words,
                cycles: arrival - now,
            });
            transferred_words += words;
            transfer_cycles += arrival - now;
            events.push(TraceEvent::Transfer {
                parent: p,
                child: $child,
                from_chip: from,
                to_chip: to,
                words,
                start: now,
                end: arrival,
            });
            push_event(
                &mut heap,
                &mut next_seq,
                arrival,
                ComponentId::Link(from, to),
                EventKind::TransferArrive,
            );
            arrival
        }};
    }

    // Move job `j` off the dead chip `from` onto the surviving chip with
    // the least remaining (uncompleted) cost, ties to the lower index —
    // the wave coordinator's requeue rule. Completed parents on other
    // chips pay one fresh modeled transfer to the job's new home. A job
    // already queued joins its new chip's queues.
    macro_rules! requeue {
        ($j:expr, $from:expr) => {{
            let j = $j;
            #[cfg(test)]
            for c in (0..chips).filter(|&c| !dead[c]) {
                let scan: u64 = (0..n)
                    .filter(|&k| !completed_mask[k] && chip_of[k] == c)
                    .map(|k| costs[k].max(1))
                    .sum();
                assert_eq!(
                    remaining[c], scan,
                    "chip {c}'s remaining load at tick {now}"
                );
            }
            let target = (0..chips)
                .filter(|&c| !dead[c])
                .min_by_key(|&c| (remaining[c], c))
                .expect("a survivor exists (checked at the kill)");
            remaining[target] += costs[j].max(1); // `$from` is dead: never read again
            events.push(TraceEvent::Requeue {
                job: j,
                from_chip: $from,
                to_chip: target,
                tick: now,
            });
            chip_of[j] = target;
            ready_at[j] = ready_at[j].max(now);
            for &p in &parents[j] {
                if completed_mask[p] && chip_of[p] != target {
                    let arrival = charge_transfer!(p, j, target);
                    ready_at[j] = ready_at[j].max(arrival);
                }
            }
            if queued[j] {
                queues.push(j, target, ready_at[j], now);
            }
        }};
    }

    while completed_count < n {
        // Phase 1: fire every event due at the current tick, in
        // (component, seq) order — faults first, then arrivals, then
        // completions.
        while heap.peek().is_some_and(|Reverse(e)| e.tick <= now) {
            let Reverse(e) = heap.pop().expect("peeked");
            match e.kind {
                EventKind::Fault(idx) => {
                    let f = &faults[idx];
                    if dead[f.chip] {
                        continue; // killing a dead chip is a no-op
                    }
                    dead[f.chip] = true;
                    events.push(TraceEvent::Fault {
                        chip: f.chip,
                        tick: now,
                    });
                    if dead.iter().all(|&d| d) {
                        return Err(SimError {
                            cycle: (base + now) as usize,
                            pe: None,
                            kind: HazardKind::AllChipsDead { chips },
                        });
                    }
                    // Executions in flight on the dying chip are revoked
                    // at their completion tick (the work stays metered).
                    let range = chip_base[f.chip]..chip_base[f.chip] + cfg.chips[f.chip].cores;
                    for g in range {
                        if let Some(j) = core_job[g] {
                            revoked[j] = true;
                        }
                    }
                    // Everything else the chip owned requeues now,
                    // least-remaining-load-first, jobs in id order.
                    for j in 0..n {
                        if chip_of[j] == f.chip && !completed_mask[j] && !running[j] {
                            requeue!(j, f.chip);
                        }
                    }
                }
                EventKind::TransferArrive => {} // the tick was the point
                EventKind::JobDone { core, job } => {
                    core_job[core] = None;
                    busy_cores -= 1;
                    running[job] = false;
                    let (chip, c) = assignment[job];
                    if revoked[job] {
                        revoked[job] = false;
                        outputs[job] = None;
                        events.push(TraceEvent::Job {
                            job,
                            tenant: tenant_of[job],
                            chip,
                            core: c,
                            start: dispatch_tick[job],
                            end: now,
                            discarded: true,
                        });
                        queued[job] = true;
                        requeue!(job, chip);
                    } else {
                        completed_mask[job] = true;
                        remaining[chip] -= costs[job].max(1);
                        completed_count += 1;
                        completion_tick[job] = now;
                        events.push(TraceEvent::Job {
                            job,
                            tenant: tenant_of[job],
                            chip,
                            core: c,
                            start: dispatch_tick[job],
                            end: now,
                            discarded: false,
                        });
                        for &child in &children[job] {
                            indegree[child] -= 1;
                            let arrival = if chip_of[child] != chip_of[job] {
                                charge_transfer!(job, child, chip_of[child])
                            } else {
                                now
                            };
                            ready_at[child] = ready_at[child].max(arrival);
                            if indegree[child] == 0 {
                                queued[child] = true;
                                queues.push(child, chip_of[child], ready_at[child], now);
                            }
                        }
                    }
                }
            }
        }
        if completed_count == n {
            break;
        }

        // Phase 2: eager dispatch — every free core on every alive chip
        // takes the policy's best ready job, chips and cores in index
        // order (the deterministic tie-break).
        let mut batch = 0usize;
        for chip in 0..chips {
            if dead[chip] {
                continue;
            }
            for core in 0..cfg.chips[chip].cores {
                let g = chip_base[chip] + core;
                if core_job[g].is_some() {
                    continue;
                }
                let pick = queues.pick(
                    chip, now, &queued, chip_of, &ready_at, usage, weights, boost,
                );
                #[cfg(test)]
                if tests::CHECK_PICKS.with(std::cell::Cell::get) {
                    let scan = pick_ready(
                        sched,
                        &queued,
                        chip_of,
                        &ready_at,
                        now,
                        chip,
                        &queues.rank,
                        tenant_of,
                        usage,
                        weights,
                        boost,
                    );
                    assert_eq!(pick, scan, "chip {chip} at tick {now}: queue pick vs scan");
                }
                let Some(j) = pick else {
                    break; // nothing ready on this chip for any free core
                };
                queued[j] = false;
                running[j] = true;
                core_job[g] = Some(j);
                busy_cores += 1;
                assignment[j] = (chip, core);
                dispatch_tick[j] = now;
                dispatch_seq_of[j] = dispatch_counter;
                dispatch_counter += 1;
                let t = tenant_of[j];
                per_tenant[t].wait_cycles += now - ready_at[j];
                per_tenant[t].cost_dispatched += costs[j].max(1);
                usage[t] += costs[j].max(1);
                dispatch(g, j);
                batch += 1;
            }
        }

        // Phase 3: drain the whole batch before the clock moves — the
        // workers' measured durations become completion events. Reports
        // arrive in host order; buffering and folding them in job-id
        // order keeps the heap (and the seq counter) deterministic.
        if batch > 0 {
            let mut done_batch: Vec<(usize, usize, T, ExecStats)> = Vec::with_capacity(batch);
            let mut first_err: Option<(usize, SimError)> = None;
            let mut first_panic: Option<(usize, usize, String)> = None;
            for _ in 0..batch {
                let done = collect();
                let slot = dispatch_seq_of[done.job];
                match done.outcome {
                    JobOutcome::Completed(out, delta) => {
                        done_batch.push((done.job, done.core, out, delta));
                    }
                    JobOutcome::Skipped => {}
                    JobOutcome::Failed(e) => {
                        if first_err.as_ref().is_none_or(|(s, _)| slot < *s) {
                            first_err = Some((slot, e));
                        }
                    }
                    JobOutcome::Panicked(msg) => {
                        if first_panic.as_ref().is_none_or(|(s, ..)| slot < *s) {
                            first_panic = Some((slot, done.core, msg));
                        }
                    }
                }
            }
            if let Some((_, core, message)) = first_panic {
                return Err(SimError::job_panicked(base + now, core, message));
            }
            if let Some((_, e)) = first_err {
                return Err(e);
            }
            done_batch.sort_by_key(|&(j, ..)| j);
            for (j, core, out, delta) in done_batch {
                per_core[core].merge(&delta);
                jobs_per_core[core] += 1;
                let t = tenant_of[j];
                per_tenant[t].busy.merge(&delta);
                per_tenant[t].jobs += 1;
                outputs[j] = Some(out);
                push_event(
                    &mut heap,
                    &mut next_seq,
                    now + delta.cycles,
                    ComponentId::Core(core),
                    EventKind::JobDone { core, job: j },
                );
            }
        }

        // Phase 4: hop to the next event horizon. A gap with every core
        // idle is a stall (a transfer or fault wait) — the event-mode
        // reading of the wave coordinator's idle fast-forward.
        let Some(Reverse(next)) = heap.peek() else {
            break; // nothing running, nothing scheduled: dangling parents
        };
        if next.tick > now {
            if busy_cores == 0 {
                events.push(TraceEvent::IdleFastForward {
                    start: now,
                    end: next.tick,
                });
                stall_cycles += next.tick - now;
            }
            now = next.tick;
        }
    }

    let makespan = now;
    // A core's busy intervals never intersect an all-idle stall window,
    // so `busy + stall <= makespan` holds per core and the remainder is
    // its dependency idle: `busy + idle + stall = makespan`.
    let idle_per_core: Vec<u64> = per_core
        .iter()
        .map(|s| makespan.saturating_sub(s.cycles + stall_cycles))
        .collect();
    let outputs: Vec<T> = outputs
        .into_iter()
        .enumerate()
        .map(|(j, o)| o.unwrap_or_else(|| panic!("job {j} never became ready (dangling parent?)")))
        .collect();
    let mut wave_ends: Vec<u64> = completion_tick.clone();
    wave_ends.sort_unstable();
    wave_ends.dedup();
    let wave_of: Vec<usize> = completion_tick
        .iter()
        .map(|t| wave_ends.binary_search(t).expect("own completion tick"))
        .collect();

    Ok(CoordRun {
        outputs,
        assignment,
        wave_of,
        wave_ends,
        idle_per_core,
        transfers,
        stats: ClusterStats::from_cores(
            cfg,
            &per_core,
            &jobs_per_core,
            makespan,
            transferred_words,
            transfer_cycles,
            stall_cycles,
        ),
        per_tenant,
        events,
    })
}

/// The dispatch pick as a linear scan over every job — the reference
/// `ReadyQueues::pick` must match on every dispatch, kept as a test
/// oracle. It is the event-mode reading of the wave planners, one job at
/// a time: `Fifo`/`LeastLoaded` take the lowest ready id (placement,
/// their wave-mode difference, is now the free core itself);
/// `CriticalPath` takes the longest remaining path; `FairShare` replays
/// the streaming tenant comparator of
/// [`crate::service::plan_wave_tenanted_slo`] against the live usage
/// counters.
#[cfg(test)]
#[allow(clippy::too_many_arguments)] // the full deterministic pick context
fn pick_ready(
    sched: Scheduler,
    queued: &[bool],
    chip_of: &[usize],
    ready_at: &[u64],
    now: u64,
    chip: usize,
    priority: &[u64],
    tenant_of: &[usize],
    usage: &[u64],
    weights: &[u64],
    boost: &[u64],
) -> Option<usize> {
    let candidates =
        (0..queued.len()).filter(|&j| queued[j] && chip_of[j] == chip && ready_at[j] <= now);
    match sched {
        Scheduler::Fifo | Scheduler::LeastLoaded => candidates.min(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::config::LacConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::time::Instant;

    thread_local! {
        /// Whether `drive_event` checks every queue pick against the
        /// `pick_ready` scan. On by default; the timing test turns it off
        /// on its own thread, since the scan is the quadratic cost it
        /// measures away.
        pub(super) static CHECK_PICKS: Cell<bool> = const { Cell::new(true) };
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
        drive_event(
            topo,
            costs,
            words,
            parents,
            children,
            chip_of,
            &mut dead,
            faults,
            0,
            &vec![0usize; n],
            &[1],
            &mut usage,
            &[u64::MAX],
            Scheduler::Fifo,
            dispatch,
            collect,
        )
        .expect("event run")
    }

    /// Everything one `drive_event` call reads, so a run can be replayed.
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
            let r = drive_event(
                &self.topo,
                &self.costs,
                &self.words,
                &self.parents,
                &self.children,
                &mut chip_of,
                &mut dead,
                &self.faults,
                0,
                &self.tenant_of,
                &self.weights,
                &mut usage,
                &self.boost,
                self.sched,
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

        // Every pick inside these runs is asserted equal to the linear
        // scan's (`CHECK_PICKS` is on); a rerun reproduces the whole
        // `CoordRun` — outputs, assignment, events, stats.
        #[test]
        fn queue_picks_match_the_scan_and_reruns_are_identical(seed in any::<u64>()) {
            let sc = random_scenario(seed);
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

    // The complexity contract of the dispatch path: host time per job
    // may grow at most 4x from 1k to 32k jobs (a per-pick scan of the
    // graph grows it ~30x). Best of 3 runs, no threads, oracle off.
    #[test]
    fn event_dispatch_scales_near_linearly() {
        CHECK_PICKS.with(|c| c.set(false));
        let us_per_job = |jobs: usize, sched: Scheduler| {
            let sc = layered_scenario(jobs, sched);
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
        for sched in [Scheduler::CriticalPath, Scheduler::FairShare] {
            let (small, large) = (us_per_job(1 << 10, sched), us_per_job(1 << 15, sched));
            let growth = large / small;
            assert!(
                growth <= 4.0,
                "{sched:?}: {small:.2} us/job at 1k, {large:.2} us/job at 32k ({growth:.2}x)"
            );
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
        let err = drive_event(
            &topo,
            &[4],
            &[1],
            &[vec![]],
            &[vec![]],
            &mut [0],
            &mut dead,
            &[FaultEvent { tick: 0, chip: 0 }],
            0,
            &[0],
            &[1],
            &mut usage,
            &[u64::MAX],
            Scheduler::Fifo,
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
