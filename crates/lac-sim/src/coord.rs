//! The one coordinator entry. Every door — [`crate::chip::LacChip`],
//! [`crate::service::LacService`] and [`crate::cluster::LacCluster`] —
//! describes its hardware as a [`ClusterConfig`] (a chip is a one-chip
//! cluster) and runs its jobs through [`coordinate`], the only place a
//! [`SimMode`] is matched. The wave loop (`crate::cluster::drive_cluster`)
//! and the discrete-event core (`crate::event::drive_event`) therefore
//! each exist once, and both hand back one [`CoordRun`] shape.
//!
//! The module also holds the one scoped worker pool
//! ([`scoped_workers`]) that the chip and the cluster borrow per run; the
//! service keeps its persistent workers, because the coordinator only
//! ever sees a `dispatch`/`collect` door pair.

use crate::chip::{ChipConfig, ChipJob, Scheduler};
use crate::cluster::{drive_cluster, ClusterConfig, ClusterStats, Transfer};
use crate::engine::LacEngine;
use crate::error::SimError;
use crate::event::{drive_event, SimMode};
use crate::fault::FaultEvent;
use crate::service::{run_one, Done, GraphRun, JobGraph, TenantDelta};
use crate::trace::EventLog;
use std::sync::atomic::AtomicBool;
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
    fn into_graph_run(mut self) -> GraphRun<T> {
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
/// tenant — what [`crate::chip::LacChip::run_graph`] and
/// [`crate::service::LacService::submit`] drive.
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

/// The scoped worker pool: one worker thread per engine, borrowed for one
/// run. `job_of` resolves a dispatched pool index to its job; `drive`
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
