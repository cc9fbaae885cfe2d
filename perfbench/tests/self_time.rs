//! The self-time arithmetic behind `coord.self_s` and `traffic.self_s`,
//! and the span tree the traced pass builds it from.

use lac_sim::{ChipConfig, JobGraph, LacConfig, LacService, ProgramBuilder, ProgramJob, Scheduler};
use lac_traffic::LatencyHistogram;
use perfbench::open::bucket_upper_of;
use perfbench::spans::{covered, self_time, Layer, SpanTree, Timed, Tracer};
use std::sync::Arc;

#[test]
fn overlapping_children_from_two_workers_count_once() {
    // Worker A runs [10, 40) and [50, 70); worker B runs [30, 60) at the
    // same time. The union is [10, 70): 60 ns, not the 80 ns sum.
    let kids = [(10, 40), (50, 70), (30, 60)];
    assert_eq!(covered(0, 100, &kids), 60);
    assert_eq!(self_time(0, 100, &kids), 40);
}

#[test]
fn a_door_with_no_children_is_all_self_time() {
    assert_eq!(covered(5, 25, &[]), 0);
    assert_eq!(self_time(5, 25, &[]), 20);
}

#[test]
fn children_touching_the_door_edges_cover_it_exactly() {
    // Back-to-back children from the opening to the closing edge.
    assert_eq!(self_time(100, 200, &[(100, 150), (150, 200)]), 0);
    // A child that touches only one edge, and zero-length children at
    // both edges.
    assert_eq!(
        self_time(100, 200, &[(100, 130), (200, 200), (100, 100)]),
        70
    );
    // Children that spill past the edges are clipped to the door.
    assert_eq!(covered(100, 200, &[(90, 110), (190, 210)]), 20);
    // Identical and nested children from both workers.
    assert_eq!(covered(0, 50, &[(10, 20), (10, 20), (12, 18)]), 10);
}

#[test]
fn job_spans_attach_to_the_door_that_ran_them() {
    let tracer = Arc::new(Tracer::new());
    let mut svc: LacService<Timed<ProgramJob>> =
        LacService::new(ChipConfig::new(2, LacConfig::default()));
    let graph = || -> JobGraph<Timed<ProgramJob>> {
        (1..=6)
            .map(|i| {
                let mut b = ProgramBuilder::new(LacConfig::default().nr);
                b.idle(50 * i);
                Timed::new(ProgramJob::new(b.build()), Arc::clone(&tracer))
            })
            .collect()
    };
    for _ in 0..2 {
        let g = graph();
        tracer
            .scope(Layer::Door, || svc.submit(g, Scheduler::CriticalPath))
            .expect("idle programs run");
    }
    tracer.scope(Layer::Gen, || ());

    let tree = SpanTree::new(tracer.spans());
    let doors = tree.of(Layer::Door);
    assert_eq!(doors.len(), 2);
    for door in &doors {
        let jobs = tree.children(door);
        assert_eq!(jobs.len(), 6);
        assert!(jobs.iter().all(|j| j.layer == Layer::Job));
        assert!(jobs
            .iter()
            .all(|j| j.start >= door.start && j.end <= door.end));
        let busy: u64 = jobs.iter().map(|j| j.len()).sum();
        // Self time is never negative and never more than the door.
        assert!(tree.self_ns(door) <= door.len());
        assert!(door.len() - tree.self_ns(door) <= busy);
    }
    // A span opened after the doors closed has no parent.
    assert_eq!(tree.of(Layer::Gen)[0].parent, 0);
}

#[test]
fn replicated_bucket_bounds_match_the_latency_histogram() {
    let huge = 1u64 << 50;
    let mut values: Vec<u64> = (0..5000).collect();
    values.extend((0..40).map(|k| (1u64 << k) + 12_345 % (1u64 << k).max(1)));
    for v in values {
        let mut h = LatencyHistogram::new();
        h.record(v);
        h.record(huge);
        assert_eq!(h.percentile(0.5), bucket_upper_of(v), "value {v}");
    }
}
