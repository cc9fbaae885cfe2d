//! The one coordinator entry. Every door — [`crate::chip::LacChip`],
//! [`crate::service::LacService`] and [`crate::cluster::LacCluster`] —
//! describes its hardware as a [`ClusterConfig`] (a chip is a one-chip
//! cluster) and runs its jobs through [`coordinate`], the only place a
//! [`SimMode`] is matched. The wave loop (`crate::cluster::drive_cluster`)
//! and the discrete-event core (`crate::event::drive_event`) therefore
//! each exist once, and both hand back one [`CoordRun`] shape.
//!
//! The module also holds the one worker pool ([`scoped_workers`]): scoped
//! threads, one per engine, borrowed for one run. The chip borrows it
//! directly; the service runs as a one-chip cluster, so every door's jobs
//! execute on it. It is the only place the crate spawns threads.

use crate::chip::{ChipConfig, ChipJob, Scheduler};
use crate::cluster::{drive_cluster, ClusterConfig, ClusterStats, Transfer};
use crate::engine::LacEngine;
use crate::error::SimError;
use crate::event::{drive_event, SimMode};
use crate::fault::FaultEvent;
use crate::service::{Done, GraphRun, JobGraph, JobOutcome, TenantDelta};
use crate::trace::EventLog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;

/// Everything one coordinated run produces, whichever coordinator ran it.
/// Per-core vectors are flat (chips laid end to end in chip order); the
/// per-chip view is `stats.per_chip`, split once by the coordinator.
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
        }
    }
}

/// Run a job pool to completion under the coordinator `cfg.sim_mode`
/// selects. `chip_of` places each job (updated in place when a fault
/// requeues work), `dead` marks killed chips, and `faults` are kills on
/// the session clock, `base` being the session clock at run start.
/// `tenant_of` maps jobs to tenants; `usage` is the fair-share deficit
/// account, charged in place as jobs dispatch. `dispatch(core, job)`
/// hands a job to a global core's worker and `collect` returns one
/// report per dispatched job.
#[allow(clippy::too_many_arguments)] // the coordinator's full context is the point
pub(crate) fn coordinate<T>(
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
    dispatch: impl FnMut(usize, usize),
    collect: impl FnMut() -> Done<T>,
) -> Result<CoordRun<T>, SimError> {
    match cfg.sim_mode {
        SimMode::Wave => drive_cluster(
            cfg,
            costs,
            transfer_words,
            parents,
            children,
            chip_of,
            dead,
            faults,
            base,
            tenant_of,
            weights,
            usage,
            boost,
            sched,
            dispatch,
            collect,
        ),
        SimMode::Event => drive_event(
            cfg,
            costs,
            transfer_words,
            parents,
            children,
            chip_of,
            dead,
            faults,
            base,
            tenant_of,
            weights,
            usage,
            boost,
            sched,
            dispatch,
            collect,
        ),
    }
}

/// [`coordinate`] one graph on one fault-free chip as a single anonymous
/// tenant — what [`crate::chip::LacChip::run_graph`] drives.
pub(crate) fn coordinate_graph<J: ChipJob>(
    chip: &ChipConfig,
    graph: &JobGraph<J>,
    sched: Scheduler,
    dispatch: impl FnMut(usize, usize),
    collect: impl FnMut() -> Done<J::Output>,
) -> Result<GraphRun<J::Output>, SimError> {
    let n = graph.len();
    let costs: Vec<u64> = graph.jobs.iter().map(|j| j.cost_hint()).collect();
    let transfer_words: Vec<u64> = graph.jobs.iter().map(|j| j.transfer_words()).collect();
    coordinate(
        &ClusterConfig::homogeneous(1, *chip),
        &costs,
        &transfer_words,
        &graph.parents,
        &graph.children,
        &mut vec![0; n],
        &mut [false],
        &[],
        0,
        &vec![0; n],
        &[1],
        &mut [0],
        &[u64::MAX],
        sched,
        dispatch,
        collect,
    )
    .map(CoordRun::into_graph_run)
}

/// The one worker pool: one scoped worker thread per engine, spawned for
/// one run. Every door executes its jobs here — [`crate::chip::LacChip`]
/// directly, [`crate::cluster::LacCluster`] and the one-chip
/// [`crate::service::LacService`] through the cluster's run path.
/// `job_of` resolves a dispatched pool index to its job; `drive`
/// receives the `dispatch`/`collect` door pair (global core = the
/// engine's position in `engines`) and runs the coordinator. When `drive`
/// returns — or unwinds — the submission channels close, the workers
/// drain, and the scope joins them.
pub(crate) fn scoped_workers<'e, 'j, J: ChipJob + 'j, R>(
    engines: impl IntoIterator<Item = &'e mut LacEngine>,
    job_of: impl Fn(usize) -> &'j J + Sync,
    drive: impl FnOnce(&mut dyn FnMut(usize, usize), &mut dyn FnMut() -> Done<J::Output>) -> R,
) -> R {
    let abort = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let (done_tx, done_rx) = channel::<Done<J::Output>>();
        let mut txs = Vec::new();
        for (core, eng) in engines.into_iter().enumerate() {
            let (tx, rx) = channel::<usize>();
            txs.push(tx);
            let done_tx = done_tx.clone();
            let (abort, job_of) = (&abort, &job_of);
            scope.spawn(move || {
                while let Ok(job) = rx.recv() {
                    let outcome = run_one(eng, job_of(job), abort);
                    if done_tx.send(Done { core, job, outcome }).is_err() {
                        break;
                    }
                }
            });
        }
        drive(
            &mut |core, job| txs[core].send(job).expect("scoped worker hung up"),
            &mut || done_rx.recv().expect("scoped worker hung up"),
        )
    })
}

/// Run one job on a worker's engine, honoring the run's abort flag and
/// measuring the session delta — the body of every [`scoped_workers`]
/// thread. Never unwinds: every dispatched job must produce a report, or
/// the coordinator would wait forever.
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
