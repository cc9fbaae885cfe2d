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

    let priority = critical_paths(costs, children);
    let mut indegree: Vec<usize> = parents.iter().map(|p| p.len()).collect();
    let mut ready_at = vec![0u64; n];
    // In the dispatchable pool: all parents done, not running/completed.
    let mut queued: Vec<bool> = indegree.iter().map(|&d| d == 0).collect();
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
    // chips pay one fresh modeled transfer to the job's new home.
    macro_rules! requeue {
        ($j:expr, $from:expr, $load:expr) => {{
            let j = $j;
            let target = (0..chips)
                .filter(|&c| !dead[c])
                .min_by_key(|&c| ($load[c], c))
                .expect("a survivor exists (checked at the kill)");
            $load[target] += costs[j].max(1);
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
                    let mut load = vec![0u64; chips];
                    for j in 0..n {
                        if !completed_mask[j] && !dead[chip_of[j]] {
                            load[chip_of[j]] += costs[j].max(1);
                        }
                    }
                    for j in 0..n {
                        if chip_of[j] == f.chip && !completed_mask[j] && !running[j] {
                            requeue!(j, f.chip, load);
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
                        let mut load = vec![0u64; chips];
                        for j in 0..n {
                            if !completed_mask[j] && !dead[chip_of[j]] {
                                load[chip_of[j]] += costs[j].max(1);
                            }
                        }
                        requeue!(job, chip, load);
                        queued[job] = true;
                    } else {
                        completed_mask[job] = true;
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
                let Some(j) = pick_ready(
                    sched, &queued, chip_of, &ready_at, now, chip, &priority, tenant_of, usage,
                    weights, boost,
                ) else {
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
            let mut first_panic: Option<(usize, String)> = None;
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
                        if first_panic.as_ref().is_none_or(|(s, _)| slot < *s) {
                            first_panic = Some((slot, msg));
                        }
                    }
                }
            }
            if let Some((_, msg)) = first_panic {
                panic!("job panicked in event mode: {msg}");
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

/// The per-core dispatch pick: the event-mode reading of the wave
/// planners, one job at a time. `Fifo`/`LeastLoaded` take the lowest
/// ready id (placement, their wave-mode difference, is now the free core
/// itself); `CriticalPath` takes the longest remaining path;
/// `FairShare` replays the streaming tenant comparator of
/// [`crate::service::plan_wave_tenanted_slo`] against the live usage
/// counters.
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
    use std::collections::VecDeque;

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
