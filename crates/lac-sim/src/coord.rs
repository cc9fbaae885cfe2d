//! What goes into and comes out of the one time core, and the one worker
//! pool it runs jobs on. Every door — [`crate::chip::LacChip`],
//! [`crate::service::LacService`] and [`crate::cluster::LacCluster`] —
//! describes its hardware as a [`ClusterConfig`] (a chip is a one-chip
//! cluster) and hands `crate::event::run_pool` one [`PoolView`], a
//! [`TenantShare`] and a [`Placement`]; under either release rule it gets
//! back one [`CoordRun`] shape.
//!
//! The module also holds the one worker pool ([`scoped_workers`]): one
//! worker thread per engine for one run, checked out of a process-wide
//! idle-worker cache and returned to it when the run ends. Threads are
//! reused across runs and spawned only when the cache runs short. The
//! chip uses the pool directly; the service runs as a one-chip cluster,
//! so every door's jobs execute on it. It is the only place the crate
//! spawns threads or uses channels, and the only place it uses `unsafe`:
//! a worker receives each run's borrowed engine and job resolver with
//! their lifetimes erased. An end-of-run barrier makes that sound — on
//! return and on unwind, the run waits until every worker has finished
//! its jobs and dropped everything the run lent it.

use crate::chip::{ChipConfig, ChipJob, Scheduler};
use crate::cluster::{ClusterConfig, ClusterStats, Transfer};
use crate::engine::LacEngine;
use crate::error::SimError;
use crate::event::run_pool;
use crate::fault::FaultEvent;
use crate::service::{Done, GraphRun, JobGraph, JobOutcome, TenantDelta};
use crate::trace::EventLog;
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

/// One run's work on one worker: run pool index `job` on the engine the
/// worker was handed for this run and report it on the run's `Done`
/// channel. It borrows the run's engine, `job_of` resolver and abort
/// flag, and owns a clone of the run's `Done` sender.
type RunJob<'r> = Box<dyn FnMut(usize) + Send + 'r>;

/// What a worker receives, in FIFO order per run: one `Run`, that run's
/// `Job`s, then `End`.
enum Msg {
    /// The run's job closure, lifetime-erased to `'static`. Sound only
    /// under the [`Checkout`] barrier.
    Run(RunJob<'static>),
    /// A pool index to run with the current `Run` closure.
    Job(usize),
    /// The run is over: drop the `Run` closure, then ack.
    End,
}

/// An idle worker thread: its inbox, and the ack channel it owns and
/// answers each `End` on.
struct Worker {
    inbox: Sender<Msg>,
    ack: Receiver<()>,
}

/// The process-wide idle-worker cache. A run checks out one worker per
/// engine, spawning only when the cache runs short, and returns them
/// after its barrier; no worker keeps state between runs.
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

/// A worker thread's body: run each run's jobs in arrival order, and on
/// `End` drop everything the run lent (engine borrow, resolver, abort
/// flag, `Done` sender) *before* acking, so the ack is the last thing
/// the worker does for that run.
fn worker_loop(inbox: Receiver<Msg>, ack: Sender<()>) {
    let mut run: Option<RunJob<'static>> = None;
    while let Ok(msg) = inbox.recv() {
        match msg {
            Msg::Run(f) => run = Some(f),
            Msg::Job(job) => (run.as_mut().expect("a job outside a run"))(job),
            Msg::End => {
                run = None;
                if ack.send(()).is_err() {
                    return;
                }
            }
        }
    }
}

/// The workers one run checked out — worker `g` holds engine `g`. Its
/// `Drop` is the end-of-run barrier and runs on return *and* on unwind:
/// it raises the run's abort flag (so jobs still queued after an unwind
/// skip), sends every worker `End`, and blocks on each worker's ack.
/// FIFO order puts the ack after the worker has finished every job of
/// the run and dropped the run's closure, so once `drop` returns no
/// worker touches run-borrowed data again. Only acked workers go back to
/// [`IDLE`]; a worker whose thread died is discarded.
struct Checkout<'a> {
    workers: Vec<Worker>,
    abort: &'a AtomicBool,
}

impl<'a> Checkout<'a> {
    fn take(n: usize, abort: &'a AtomicBool) -> Self {
        let mut idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner);
        let keep = idle.len().saturating_sub(n);
        let mut workers = idle.split_off(keep);
        drop(idle);
        workers.resize_with(n, Worker::spawn);
        Self { workers, abort }
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
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

/// The one worker pool: one worker thread per engine for one run, taken
/// from a process-wide idle cache and returned to it afterwards, so a
/// run spawns threads only when the cache runs short. Every door
/// executes its jobs here — [`crate::chip::LacChip`] directly,
/// [`crate::cluster::LacCluster`] and the one-chip
/// [`crate::service::LacService`] through the cluster's run path.
/// `job_of` resolves a dispatched pool index to its job; `drive`
/// receives the `dispatch`/`collect` door pair (global core = the
/// engine's position in `engines`) and runs the time core. Engine `g`
/// goes only to worker `g`, which runs its jobs in dispatch order.
///
/// Barrier invariant: no worker touches the engines, `job_of`, the abort
/// flag or the run's `Done` channel after this function returns or
/// unwinds. The [`Checkout`] guard enforces it: when `drive` returns —
/// or unwinds — it ends the run on every worker and waits for each ack.
pub(crate) fn scoped_workers<'e, 'j, J: ChipJob + 'j, R>(
    engines: impl IntoIterator<Item = &'e mut LacEngine>,
    job_of: impl Fn(usize) -> &'j J + Sync,
    drive: impl FnOnce(&mut dyn FnMut(usize, usize), &mut dyn FnMut() -> Done<J::Output>) -> R,
) -> R {
    // Declared before the guard, so they outlive its barrier.
    let abort = AtomicBool::new(false);
    let (done_tx, done_rx) = channel::<Done<J::Output>>();
    let engines: Vec<&mut LacEngine> = engines.into_iter().collect();
    let pool = Checkout::take(engines.len(), &abort);
    for ((core, eng), worker) in engines.into_iter().enumerate().zip(&pool.workers) {
        let (abort, job_of, done_tx) = (&abort, &job_of, done_tx.clone());
        let run: RunJob<'_> = Box::new(move |job| {
            let outcome = run_one(eng, job_of(job), abort);
            // A closed channel means the run is unwinding: the report is moot.
            let _ = done_tx.send(Done { core, job, outcome });
        });
        // SAFETY: `run` borrows this call's engine, `job_of` and abort
        // flag and owns a sender on this call's `Done` channel. Erasing
        // its lifetime is sound because of the `pool` barrier: `pool` is
        // dropped before any of those borrows end (on return and on
        // unwind), and its `Drop` blocks until this worker has acked
        // `End`, which the worker sends only after it has run every job
        // of this run and dropped `run`. Engine `core` is lent to this
        // one worker only, so the `&mut` stays exclusive.
        let run = unsafe { std::mem::transmute::<RunJob<'_>, RunJob<'static>>(run) };
        worker
            .inbox
            .send(Msg::Run(run))
            .expect("pooled worker hung up");
    }
    let out = drive(
        &mut |core, job| {
            pool.workers[core]
                .inbox
                .send(Msg::Job(job))
                .expect("pooled worker hung up")
        },
        &mut || done_rx.recv().expect("pooled worker hung up"),
    );
    drop(pool);
    out
}

/// Run one job on a worker's engine, honoring the run's abort flag and
/// measuring the session delta — the body of every [`scoped_workers`]
/// worker. Never unwinds: every dispatched job must produce a report, or
/// the time core would wait forever.
fn run_one<J: ChipJob>(eng: &mut LacEngine, job: &J, abort: &AtomicBool) -> JobOutcome<J::Output> {
    if abort.load(Ordering::Relaxed) {
        return JobOutcome::Skipped;
    }
    let before = *eng.session_stats();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_on(eng))) {
        Ok(Ok(out)) => JobOutcome::Completed(out, eng.session_stats().since(&before)),
        Ok(Err(e)) => {
            abort.store(true, Ordering::Relaxed);
            JobOutcome::Failed(e)
        }
        Err(payload) => {
            abort.store(true, Ordering::Relaxed);
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
        let jobs: Vec<ProgramJob> = (0..64).map(|i| job(i % 9)).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped_workers(
                chip.shards_mut().iter_mut(),
                |j| &jobs[j],
                |dispatch, _collect| {
                    for j in 0..jobs.len() {
                        dispatch(j % 2, j);
                    }
                    panic!("coordinator gave up before collecting");
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
