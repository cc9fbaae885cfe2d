//! What goes into and comes out of the one time core, and the one worker
//! pool it runs jobs on. Every door — [`crate::chip::LacChip`],
//! [`crate::service::LacService`] and [`crate::cluster::LacCluster`] —
//! describes its hardware as a [`ClusterConfig`] (a chip is a one-chip
//! cluster) and hands `crate::event::run_pool` one [`PoolView`], a
//! [`TenantShare`] and a [`Placement`]; under either release rule it gets
//! back one [`CoordRun`] shape.
//!
//! The module also holds the one worker pool ([`scoped_workers`]), where
//! every door's jobs run. The coordinator thread owns a run's engines and
//! runs each dispatch batch itself unless the batch is worth a hand-off
//! ([`INLINE_COST`]); then it lends each other engine, with that engine's
//! jobs of the batch, to a worker thread and gets the engine back with
//! the last report. Workers are checked out of a process-wide idle cache
//! on a run's first hand-off and returned when the run ends, so threads
//! are reused across runs, spawned only when the cache runs short, and
//! never taken by a run that keeps every batch inline. The pool is the
//! only place the crate spawns threads or uses channels, and the only
//! place it uses `unsafe`: a hand-off carries a borrowed engine and job
//! resolver with their lifetimes erased. An end-of-run barrier makes that
//! sound — on return and on unwind, the run waits until every worker it
//! checked out has finished its hand-offs and dropped everything the run
//! lent it.

use crate::chip::{ChipConfig, ChipJob, Scheduler};
use crate::cluster::{ClusterConfig, ClusterStats, Transfer};
use crate::engine::LacEngine;
use crate::error::SimError;
use crate::event::run_pool;
use crate::fault::FaultEvent;
use crate::service::{Done, GraphRun, JobGraph, JobOutcome, TenantDelta};
use crate::trace::EventLog;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Mutex, PoisonError};

/// Everything one coordinated run produces, under either release rule.
/// Per-core vectors are flat (chips laid end to end in chip order); the
/// per-chip view is `stats.per_chip`, split once by the time core.
#[derive(Debug)]
pub(crate) struct CoordRun<T> {
    /// One output per job, pool order.
    pub(crate) outputs: Vec<T>,
    /// `(chip, core-within-chip)` that ran each job (its last, non-revoked
    /// execution).
    pub(crate) assignment: Vec<(usize, usize)>,
    /// The wave that dispatched each job (event mode: the rank of its
    /// completion tick).
    pub(crate) wave_of: Vec<usize>,
    /// Simulated clock at the end of each wave, run-relative:
    /// `wave_ends[wave_of[j]]` is job `j`'s completion anchor.
    pub(crate) wave_ends: Vec<u64>,
    /// Idle cycles per global core. Wave mode: `busy + idle = makespan`.
    /// Event mode leaves all-idle stalls out: `busy + idle + stall =
    /// makespan`, stall being `stats.transfer_stall_cycles`.
    pub(crate) idle_per_core: Vec<u64>,
    /// Every modeled cross-chip payload movement, in charge order.
    pub(crate) transfers: Vec<Transfer>,
    /// Per-chip and run-wide meters.
    pub(crate) stats: ClusterStats,
    /// Per-tenant meter deltas, indexed like the `weights` passed in.
    pub(crate) per_tenant: Vec<TenantDelta>,
    /// The run's observability log, on the run-relative clock.
    pub(crate) events: EventLog,
}

impl<T> CoordRun<T> {
    /// Global core index of each job's `(chip, core)` assignment.
    pub(crate) fn global_cores(&self, cfg: &ClusterConfig) -> Vec<usize> {
        let base = cfg.chip_base();
        self.assignment
            .iter()
            .map(|&(chip, core)| base[chip] + core)
            .collect()
    }

    /// The one-chip view the chip and service doors return.
    pub(crate) fn into_graph_run(mut self) -> GraphRun<T> {
        GraphRun {
            outputs: self.outputs,
            assignment: self.assignment.iter().map(|&(_, core)| core).collect(),
            wave_of: self.wave_of,
            waves: self.wave_ends.len(),
            wave_end_cycles: self.wave_ends,
            idle_per_core: self.idle_per_core,
            stats: self.stats.per_chip.swap_remove(0),
            events: self.events,
        }
    }
}

/// A job pool as the time core reads it: per-job cost hints, transfer
/// sizes, edges and tenant tags, all indexed by pool position. Borrowed
/// once from the door's pool and handed down whole.
#[derive(Clone, Copy)]
pub(crate) struct PoolView<'a> {
    /// Scheduler cost hint of each job.
    pub(crate) costs: &'a [u64],
    /// Words a job's output moves over a cut edge.
    pub(crate) transfer_words: &'a [u64],
    /// Each job's parents (always earlier pool positions).
    pub(crate) parents: &'a [Vec<usize>],
    /// Each job's children.
    pub(crate) children: &'a [Vec<usize>],
    /// Each job's tenant (0 for the single-tenant doors).
    pub(crate) tenant_of: &'a [usize],
}

/// The fair-share account of one run, indexed by tenant: weights, the
/// live usage deficits (charged in place as jobs dispatch) and SLO boost
/// slacks (`u64::MAX` = unboosted).
pub(crate) struct TenantShare<'a> {
    pub(crate) weights: &'a [u64],
    pub(crate) usage: &'a mut [u64],
    pub(crate) boost: &'a [u64],
}

/// Where a pool runs: each job's chip (updated in place when a kill
/// requeues work), which chips are dead, and the scheduled kills on the
/// session clock, `base` being the session clock at run start.
pub(crate) struct Placement<'a> {
    pub(crate) chip_of: &'a mut [usize],
    pub(crate) dead: &'a mut [bool],
    pub(crate) faults: &'a [FaultEvent],
    pub(crate) base: u64,
}

/// Hand one graph to `run` as the pool of a single anonymous tenant —
/// what the graph doors ([`crate::chip::LacChip::run_graph`],
/// [`crate::cluster::LacCluster::run_graph`]) run.
pub(crate) fn with_graph_pool<J: ChipJob, R>(
    graph: &JobGraph<J>,
    run: impl FnOnce(PoolView<'_>, TenantShare<'_>) -> R,
) -> R {
    let costs: Vec<u64> = graph.jobs.iter().map(|j| j.cost_hint()).collect();
    let transfer_words: Vec<u64> = graph.jobs.iter().map(|j| j.transfer_words()).collect();
    let pool = PoolView {
        costs: &costs,
        transfer_words: &transfer_words,
        parents: &graph.parents,
        children: &graph.children,
        tenant_of: &vec![0; graph.len()],
    };
    let share = TenantShare {
        weights: &[1],
        usage: &mut [0],
        boost: &[u64::MAX],
    };
    run(pool, share)
}

/// Run one graph on one fault-free chip on the time core — what
/// [`crate::chip::LacChip::run_graph`] drives.
pub(crate) fn coordinate_graph<J: ChipJob>(
    chip: &ChipConfig,
    graph: &JobGraph<J>,
    sched: Scheduler,
    dispatch: impl FnMut(usize, usize),
    collect: impl FnMut() -> Done<J::Output>,
) -> Result<GraphRun<J::Output>, SimError> {
    let cfg = ClusterConfig::homogeneous(1, *chip);
    let place = Placement {
        chip_of: &mut vec![0; graph.len()],
        dead: &mut [false],
        faults: &[],
        base: 0,
    };
    with_graph_pool(graph, |pool, share| {
        run_pool(&cfg, pool, share, sched, place, dispatch, collect)
    })
    .map(CoordRun::into_graph_run)
}

/// A dispatch batch whose summed [`ChipJob::cost_hint`] is at most this
/// runs whole on the coordinator thread; a costlier batch hands its
/// jobs on every engine but the first-dispatched one to worker threads.
///
/// A hand-off costs the host more than its channel send and wake-ups:
/// the engine's state also migrates to another CPU's cache. A sweep of
/// fused solver-loop fleets on a 2-core chip, every batch inline against
/// every batch handed off (`docs/PERFORMANCE.md`, "Host cost of the
/// event core"), puts the crossover between wave costs of about 2,500
/// and 4,600 (hint units are about flops: 0.03–0.045 host µs each), so
/// the threshold sits between them. The short-job benchmark workloads
/// batch at most about 1,000 and run inline; the medium solver loops'
/// waves cost 65,000 and more and keep the second CPU. Only host time
/// depends on this value: which thread runs a job never reaches a
/// simulated number, an output or an error.
pub const INLINE_COST: u64 = 3_000;

/// One hand-off: one engine's jobs of one batch, run in dispatch order
/// on a worker. It holds the lent engine, borrows the run's `job_of`
/// resolver and abort flag, and owns a clone of the run's report sender;
/// the engine goes back with the report of its last job.
type Task<'r> = Box<dyn FnOnce() + Send + 'r>;

/// What a worker receives, in FIFO order: a run's hand-offs, then `End`.
enum Msg {
    /// One hand-off to run now, lifetime-erased to `'static`. Sound only
    /// under the [`Checkout`] barrier.
    Task(Task<'static>),
    /// The run is over: ack.
    End,
}

/// One job's report as it crosses back from a worker: the [`Done`] the
/// time core collects and, with a hand-off's last report, the lent
/// engine.
struct Report<'e, T> {
    done: Done<T>,
    engine: Option<&'e mut LacEngine>,
}

/// An idle worker thread: its inbox, and the ack channel it owns and
/// answers each `End` on.
struct Worker {
    inbox: Sender<Msg>,
    ack: Receiver<()>,
}

/// The process-wide idle-worker cache. A run checks workers out on its
/// first hand-off, spawning only when the cache runs short, and returns
/// them after its barrier; no worker keeps state between runs.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

impl Worker {
    fn spawn() -> Self {
        let (inbox, rx) = channel();
        let (ack_tx, ack) = channel();
        std::thread::Builder::new()
            .name("lac-worker".into())
            .spawn(move || worker_loop(rx, ack_tx))
            .expect("failed to spawn a worker thread");
        Self { inbox, ack }
    }
}

/// A worker thread's body: run each hand-off in arrival order and ack
/// each `End`. A hand-off drops everything the run lent it (engine
/// borrow, resolver, abort flag, report sender) when it returns, so the
/// ack follows the worker's last touch of the run's data.
fn worker_loop(inbox: Receiver<Msg>, ack: Sender<()>) {
    while let Ok(msg) = inbox.recv() {
        match msg {
            Msg::Task(task) => task(),
            Msg::End => {
                if ack.send(()).is_err() {
                    return;
                }
            }
        }
    }
}

/// The workers one run has checked out — none until its first hand-off.
/// Its `Drop` is the end-of-run barrier and runs on return *and* on
/// unwind: it raises the run's abort flag (so hand-offs still queued
/// after an unwind stop at their next job), sends every worker `End`,
/// and blocks on each worker's ack. FIFO order puts the ack after the
/// worker has finished every hand-off of the run and dropped it, so once
/// `drop` returns no worker touches run-borrowed data again. Only acked
/// workers go back to [`IDLE`]; a worker whose thread died is discarded.
struct Checkout<'a> {
    workers: Vec<Worker>,
    abort: &'a AtomicBool,
}

impl Checkout<'_> {
    /// Hold at least `n` workers: take the shortfall from [`IDLE`],
    /// spawning only when the cache runs short.
    fn reserve(&mut self, n: usize) {
        let short = n.saturating_sub(self.workers.len());
        if short > 0 {
            let mut idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner);
            let keep = idle.len().saturating_sub(short);
            self.workers.extend(idle.drain(keep..));
            drop(idle);
            self.workers.resize_with(n, Worker::spawn);
        }
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        self.abort.store(true, Ordering::Relaxed);
        for w in &self.workers {
            // A send error means the thread is gone; its ack recv fails too.
            let _ = w.inbox.send(Msg::End);
        }
        let acked: Vec<Worker> = self
            .workers
            .drain(..)
            .filter(|w| w.ack.recv().is_ok())
            .collect();
        IDLE.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(acked);
    }
}

/// The one worker pool, where every door's jobs run —
/// [`crate::chip::LacChip`] directly, [`crate::cluster::LacCluster`] and
/// the one-chip [`crate::service::LacService`] through the cluster's run
/// path. `job_of` resolves a dispatched pool index to its job; `drive`
/// receives the `dispatch`/`collect` door pair (global core = the
/// engine's position in `engines`) and runs the time core, which
/// dispatches a batch, then collects one report per job of it before it
/// dispatches the next.
///
/// `dispatch` only records. The batch's first `collect` runs it: if its
/// summed [`ChipJob::cost_hint`] is at most [`INLINE_COST`] the calling
/// thread runs it whole; otherwise each engine but the first-dispatched
/// one lends its jobs to a worker thread, and the calling thread runs
/// the first-dispatched engine's jobs meanwhile. Either way an engine
/// runs its jobs of a batch in dispatch order on one thread, and every
/// job runs to completion whatever its peers do, so no report depends on
/// which thread ran it. Workers are checked out of a process-wide idle
/// cache on the run's first hand-off and go back when it ends: a run
/// that never hands off, such as every run of a one-core door, takes
/// none.
///
/// Barrier invariant: no worker touches the engines, `job_of`, the abort
/// flag or the run's report channel after this function returns or
/// unwinds. The [`Checkout`] guard enforces it: when `drive` returns —
/// or unwinds — it ends the run on every checked-out worker and waits
/// for each ack.
pub(crate) fn scoped_workers<'e, 'j, J: ChipJob + 'j, R>(
    engines: impl IntoIterator<Item = &'e mut LacEngine>,
    job_of: impl Fn(usize) -> &'j J + Sync,
    drive: impl FnOnce(&mut dyn FnMut(usize, usize), &mut dyn FnMut() -> Done<J::Output>) -> R,
) -> R {
    const DRAINED: &str = "a batch dispatched before the previous one drained";
    // Declared before the guard, so they outlive its barrier.
    let abort = AtomicBool::new(false);
    let (report_tx, reports) = channel::<Report<'e, J::Output>>();
    // An engine is home unless a worker holds it for a hand-off.
    let mut home: Vec<Option<&'e mut LacEngine>> = engines.into_iter().map(Some).collect();
    let mut pool = Checkout {
        workers: Vec::new(),
        abort: &abort,
    };
    // `(core, job)` in dispatch order, since the last collect.
    let batch = RefCell::new(Vec::new());
    // Reports of jobs this thread ran, not yet collected.
    let mut ran_here: Vec<Done<J::Output>> = Vec::new();
    let out = drive(
        &mut |core, job| batch.borrow_mut().push((core, job)),
        &mut || {
            let mut batch = batch.borrow_mut();
            if let Some(&(first, _)) = batch.first() {
                let cost = batch
                    .iter()
                    .map(|&(_, job)| job_of(job).cost_hint())
                    .fold(0, u64::saturating_add);
                if cost > INLINE_COST {
                    let mut lanes = vec![Vec::new(); home.len()];
                    for &(core, job) in batch.iter().filter(|&&(core, _)| core != first) {
                        lanes[core].push(job);
                    }
                    batch.retain(|&(core, _)| core == first);
                    let lent: Vec<(usize, Vec<usize>)> = lanes
                        .into_iter()
                        .enumerate()
                        .filter(|(_, jobs)| !jobs.is_empty())
                        .collect();
                    pool.reserve(lent.len());
                    for ((core, jobs), worker) in lent.into_iter().zip(&pool.workers) {
                        let eng = home[core].take().expect(DRAINED);
                        let (job_of, abort, tx) = (&job_of, &abort, report_tx.clone());
                        let task: Task<'_> =
                            Box::new(move || run_lent(core, &jobs, eng, job_of, abort, &tx));
                        // SAFETY: `task` borrows this call's `job_of` and
                        // abort flag, owns a sender on this call's report
                        // channel, and holds engine `core`'s `&mut`, taken
                        // out of `home` so nothing else reaches the engine
                        // until the task's last report brings it back.
                        // Erasing its lifetime is sound because of the
                        // `pool` barrier: `pool` is dropped before any of
                        // those borrows end (on return and on unwind), and
                        // its `Drop` blocks until this worker has acked
                        // `End`, which the worker sends only after it has
                        // run and dropped every task sent before it.
                        let task = unsafe { std::mem::transmute::<Task<'_>, Task<'static>>(task) };
                        worker
                            .inbox
                            .send(Msg::Task(task))
                            .expect("pooled worker hung up");
                    }
                }
                for (core, job) in batch.drain(..) {
                    let eng = home[core].as_deref_mut().expect(DRAINED);
                    let outcome = run_one(eng, job_of(job));
                    ran_here.push(Done { core, job, outcome });
                }
            }
            if let Some(done) = ran_here.pop() {
                return done;
            }
            let report = reports.recv().expect("pooled worker hung up");
            if let Some(eng) = report.engine {
                home[report.done.core] = Some(eng);
            }
            report.done
        },
    );
    drop(pool);
    out
}

/// A hand-off's body on a worker: run `jobs` in order on engine `core`
/// and report each, sending the engine home with the last report. Stops
/// at the next job once the run's abort flag is up — the run is
/// unwinding and nobody collects the reports.
fn run_lent<'e, 'j, J: ChipJob + 'j>(
    core: usize,
    jobs: &[usize],
    eng: &'e mut LacEngine,
    job_of: &impl Fn(usize) -> &'j J,
    abort: &AtomicBool,
    tx: &Sender<Report<'e, J::Output>>,
) {
    let mut eng = Some(eng);
    for (i, &job) in jobs.iter().enumerate() {
        if abort.load(Ordering::Relaxed) {
            return;
        }
        let outcome = run_one(eng.as_deref_mut().expect("lent"), job_of(job));
        let engine = if i + 1 == jobs.len() {
            eng.take()
        } else {
            None
        };
        // A closed channel means the run is unwinding.
        let _ = tx.send(Report {
            done: Done { core, job, outcome },
            engine,
        });
    }
}

/// Run one job on an engine and measure its session delta — the body of
/// every [`scoped_workers`] job, on whichever thread runs it. Never
/// unwinds: every dispatched job must produce a report, or the time core
/// would wait forever.
fn run_one<J: ChipJob>(eng: &mut LacEngine, job: &J) -> JobOutcome<J::Output> {
    let before = *eng.session_stats();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_on(eng))) {
        Ok(Ok(out)) => JobOutcome::Completed(out, eng.session_stats().since(&before)),
        Ok(Err(e)) => JobOutcome::Failed(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            JobOutcome::Panicked(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::{ChipStats, LacChip, ProgramJob};
    use crate::config::LacConfig;
    use crate::isa::{ExtOp, ProgramBuilder, Source};
    use crate::stats::ExecStats;

    /// One external load + one MAC + `extra` idle cycles.
    fn job(extra: usize) -> ProgramJob {
        let cfg = LacConfig::default();
        let mut b = ProgramBuilder::new(cfg.nr);
        let t = b.push_step();
        b.ext(t, ExtOp::Load { col: 0, addr: 0 });
        b.pe_mut(t, 0, 0).reg_write = Some((0, Source::ColBus));
        let t = b.push_step();
        b.pe_mut(t, 0, 0).mac = Some((Source::Reg(0), Source::Reg(0)));
        b.idle(cfg.fpu.pipeline_depth + extra);
        ProgramJob::new(b.build())
    }

    /// A two-level graph: `n` roots, then one child per root pair.
    fn graph(n: usize, salt: usize) -> JobGraph<ProgramJob> {
        let mut g = JobGraph::new();
        let roots: Vec<_> = (0..n).map(|i| g.add(job((i * 7 + salt) % 13))).collect();
        for pair in roots.chunks(2) {
            g.add_after(job(salt % 5 + pair.len()), pair);
        }
        g
    }

    /// Everything a run leaves observable: outputs, placement, the
    /// chip's meters, and each shard's session meters afterwards.
    fn observe(
        chip: &LacChip,
        run: GraphRun<ExecStats>,
    ) -> (Vec<ExecStats>, Vec<usize>, ChipStats, Vec<ExecStats>) {
        let sessions = (0..chip.num_cores()).map(|i| *chip.shard(i).session_stats());
        (run.outputs, run.assignment, run.stats, sessions.collect())
    }

    #[test]
    fn a_drive_that_unwinds_still_drains_its_workers() {
        let mut chip = LacChip::new(ChipConfig::new(2, LacConfig::default()));
        // Costly enough that the batch's first collect hands core 1's 32
        // jobs to a worker while the calling thread runs core 0's.
        let jobs: Vec<ProgramJob> = (0..64)
            .map(|i| ProgramJob {
                cost: INLINE_COST,
                ..job(i % 9)
            })
            .collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped_workers(
                chip.shards_mut().iter_mut(),
                |j| &jobs[j],
                |dispatch, collect| {
                    for j in 0..jobs.len() {
                        dispatch(j % 2, j);
                    }
                    collect();
                    panic!("coordinator gave up mid-batch");
                },
            )
        }));
        assert!(caught.is_err(), "the drive's panic propagates");
        // The barrier returned, so no straggler can still meter into the
        // shards: after a reset they behave exactly like a fresh chip's.
        for eng in chip.shards_mut() {
            eng.reset_session();
        }
        let mut fresh = LacChip::new(ChipConfig::new(2, LacConfig::default()));
        let g = graph(12, 3);
        let reused = chip.run_graph(&g, Scheduler::CriticalPath).unwrap();
        let reference = fresh.run_graph(&g, Scheduler::CriticalPath).unwrap();
        assert_eq!(observe(&chip, reused), observe(&fresh, reference));
    }

    #[test]
    fn concurrent_doors_match_a_sequential_reference() {
        const ROUNDS: usize = 100;
        let drive = |door: usize| {
            let mut chip = LacChip::new(ChipConfig::new(2, LacConfig::default()));
            let runs: Vec<_> = (0..ROUNDS)
                .map(|r| {
                    let g = graph(2 + (door + r) % 5, door * 31 + r);
                    let run = chip.run_graph(&g, Scheduler::CriticalPath).unwrap();
                    observe(&chip, run)
                })
                .collect();
            runs
        };
        let sequential: Vec<_> = (0..4).map(drive).collect();
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|door| s.spawn(move || drive(door))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(concurrent, sequential);
    }
}
