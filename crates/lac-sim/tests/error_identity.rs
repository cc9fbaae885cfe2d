//! Which error a failed run reports is part of the determinism contract.
//! Every job of a dispatched batch runs to completion, whatever its peers
//! do, and the time core picks the batch's error by one rule: a job panic
//! beats a simulation error, then the earliest dispatch wins. So the
//! reported `SimError` — and what each shard ran before it — is the same
//! on every rerun, and the same whether the pool ran the batch on the
//! calling thread (cheap cost hints) or handed it to workers (costly
//! ones).

use lac_sim::error::HazardKind;
use lac_sim::{
    ChipConfig, ChipJob, ExecStats, JobGraph, LacChip, LacConfig, LacEngine, ProgramBuilder,
    Scheduler, SimError, SimMode, Source, INLINE_COST,
};
use std::collections::HashSet;
use std::sync::{Mutex, Once};
use std::thread::ThreadId;

const PANIC_MSG: &str = "probe job panicked";

/// What a probe does when it runs.
#[derive(Clone, Copy)]
enum Act {
    /// Run `extra + 1` empty steps and complete.
    Ok(usize),
    /// Fail with a simulation error at cycle `at`.
    Fail(usize),
    /// Panic.
    Panic,
}

/// A job with a chosen behaviour and cost hint that records the thread
/// it ran on.
struct Probe<'a> {
    act: Act,
    cost: u64,
    threads: &'a Mutex<HashSet<ThreadId>>,
}

impl ChipJob for Probe<'_> {
    type Output = ExecStats;

    fn cost_hint(&self) -> u64 {
        self.cost
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<ExecStats, SimError> {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        let mut b = ProgramBuilder::new(eng.config().nr);
        match self.act {
            Act::Ok(extra) => b.idle(extra + 1),
            Act::Fail(at) => {
                b.idle(at);
                // Reading an undriven row bus is a hard error at this step.
                let t = b.push_step();
                b.pe_mut(t, 0, 0).mac = Some((Source::RowBus, Source::Const(1.0)));
            }
            Act::Panic => std::panic::panic_any(PANIC_MSG),
        }
        eng.run_program(&b.build())
    }
}

/// Keep the default panic report for everything but the probes' own
/// (expected) panics.
fn quiet_probe_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&PANIC_MSG) {
                default(info);
            }
        }));
    });
}

/// Run `acts` as a flat graph (Fifo on 2 cores: job `i` on core `i % 2`,
/// core 0's bucket dispatched first) with every cost hint set to `cost`.
/// Returns the error, each shard's completed-program count, and the
/// threads that ran jobs.
fn fail(acts: &[Act], cost: u64, mode: SimMode) -> ((SimError, [u64; 2]), HashSet<ThreadId>) {
    let threads = Mutex::new(HashSet::new());
    let graph: JobGraph<Probe> = acts
        .iter()
        .map(|&act| Probe {
            act,
            cost,
            threads: &threads,
        })
        .collect();
    let cfg = ChipConfig::new(2, LacConfig::default()).with_sim_mode(mode);
    let mut chip = LacChip::new(cfg);
    let err = chip.run_graph(&graph, Scheduler::Fifo).unwrap_err();
    let ran = [chip.shard(0).programs_run(), chip.shard(1).programs_run()];
    drop(graph);
    ((err, ran), threads.into_inner().unwrap())
}

#[test]
fn the_reported_error_is_the_same_on_every_rerun_and_every_thread() {
    quiet_probe_panics();
    let me = std::thread::current().id();
    // Dispatch order of a 6-job wave: jobs 0, 2, 4 (core 0), then 1, 3, 5.
    let error_then_panic = [
        Act::Fail(3),
        Act::Ok(1),
        Act::Ok(2),
        Act::Ok(3),
        Act::Ok(4),
        Act::Panic,
    ];
    let two_errors = [
        Act::Ok(0),
        Act::Ok(1),
        Act::Ok(2),
        Act::Fail(7),
        Act::Fail(2),
        Act::Ok(5),
    ];
    for mode in [SimMode::Wave, SimMode::Event] {
        for acts in [&error_then_panic[..], &two_errors[..]] {
            let (cheap, cheap_threads) = fail(acts, 1, mode);
            let (costly, costly_threads) = fail(acts, INLINE_COST, mode);
            assert_eq!(
                cheap_threads,
                HashSet::from([me]),
                "a cheap batch runs inline"
            );
            assert!(
                costly_threads.contains(&me) && costly_threads.len() == 2,
                "a costly batch keeps core 0 and hands core 1 to a worker"
            );
            assert_eq!(cheap, costly, "{mode:?}: inline and handed-off runs agree");
            for _ in 0..100 {
                assert_eq!(fail(acts, 1, mode).0, cheap, "{mode:?}: inline rerun");
                assert_eq!(
                    fail(acts, INLINE_COST, mode).0,
                    cheap,
                    "{mode:?}: hand-off rerun"
                );
            }
        }
    }

    // The rule itself, in wave mode, where all six jobs share one batch
    // and every one of them runs.
    let ((err, ran), _) = fail(&error_then_panic, INLINE_COST, SimMode::Wave);
    assert!(
        matches!(&err.kind, HazardKind::JobPanicked { message, .. } if message == PANIC_MSG),
        "the panic of the last-dispatched job beats the earliest error: {err:?}"
    );
    assert_eq!(ran, [2, 2], "both peers of each failure ran to completion");
    let ((err, ran), _) = fail(&two_errors, INLINE_COST, SimMode::Wave);
    assert_eq!(err.cycle, 2, "job 4 (dispatch 2) beats job 3 (dispatch 4)");
    assert_eq!(ran, [2, 2]);
}
