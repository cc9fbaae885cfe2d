//! In-memory span recording around calls into the library's public doors,
//! and the interval arithmetic that turns spans into self time.
//!
//! Spans are recorded from outside the program: the main thread wraps a
//! door call in [`Tracer::scope`], and worker threads record one span per
//! job through [`Timed`], a [`ChipJob`] that wraps the real job. Every
//! span carries the id of the span that was open on the main thread when
//! it started (its parent), so a door's children are its job spans and a
//! replay's children are its generation, admission, round and idle spans.

use lac_sim::{ChipJob, LacEngine, SimError};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `lac_kernels` fleet or request graph generation.
    Gen,
    /// One closed-loop door call (`LacService::submit`, `LacCluster::run_graph`).
    Door,
    /// One `ChipJob::run_on` on a worker core.
    Job,
    /// One `OpenLoopBackend::run_boosted` round.
    Round,
    /// One `OpenLoopBackend::enqueue` admission offer.
    Enqueue,
    /// One `OpenLoopBackend::advance_idle` fast-forward.
    Idle,
    /// One whole `run_open_loop` replay.
    Replay,
    /// One direct `Partitioner::partition` call.
    Partition,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "kernels.gen",
            Layer::Door => "door",
            Layer::Job => "engine.job",
            Layer::Round => "cluster.round",
            Layer::Enqueue => "service.enqueue",
            Layer::Idle => "traffic.advance_idle",
            Layer::Replay => "traffic.run_open_loop",
            Layer::Partition => "cluster.partition",
        }
    }
}

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u32,
    /// The main-thread span open when this one started (0 = none).
    pub parent: u32,
    /// The boundary it was recorded at.
    pub layer: Layer,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

impl Span {
    /// Length in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True for a zero-length span.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Collects spans in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    /// Id of the innermost open main-thread span. Only the main thread
    /// writes it, and only between door calls; workers read it inside a
    /// door call, after the channel send or thread spawn that handed them
    /// the job, which orders the write before the read. It publishes no
    /// other data, so `Relaxed` suffices.
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Run `f` on the main thread inside a span of `layer`; spans started
    /// while `f` runs become its children.
    pub fn scope<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::Relaxed);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current.store(parent, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            layer,
            start,
            end,
        });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// A job that records a [`Layer::Job`] span around the wrapped job's
/// `run_on`, and otherwise behaves exactly like it.
pub struct Timed<J> {
    job: J,
    tracer: Arc<Tracer>,
}

impl<J> Timed<J> {
    /// Wrap `job`, recording into `tracer`.
    pub fn new(job: J, tracer: Arc<Tracer>) -> Self {
        Self { job, tracer }
    }
}

impl<J: ChipJob> ChipJob for Timed<J> {
    type Output = J::Output;

    fn cost_hint(&self) -> u64 {
        self.job.cost_hint()
    }

    fn transfer_words(&self) -> u64 {
        self.job.transfer_words()
    }

    fn run_on(&self, eng: &mut LacEngine) -> Result<Self::Output, SimError> {
        let t = &self.tracer;
        let id = t.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = t.current.load(Ordering::Relaxed);
        let start = t.now();
        let out = self.job.run_on(eng);
        let end = t.now();
        t.push(Span {
            id,
            parent,
            layer: Layer::Job,
            start,
            end,
        });
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval). Overlapping children, as from two
/// workers running at once, count once.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + run.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its length minus the part its children cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

/// Per-parent view of a span list: the children of each span.
pub struct SpanTree {
    spans: Vec<Span>,
    children: std::collections::HashMap<u32, Vec<usize>>,
}

impl SpanTree {
    /// Index `spans` by parent.
    pub fn new(spans: Vec<Span>) -> Self {
        let mut children: std::collections::HashMap<u32, Vec<usize>> = Default::default();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        Self { spans, children }
    }

    /// Every span of `layer`, in start order.
    pub fn of(&self, layer: Layer) -> Vec<Span> {
        let mut v: Vec<Span> = self
            .spans
            .iter()
            .copied()
            .filter(|s| s.layer == layer)
            .collect();
        v.sort_by_key(|s| s.start);
        v
    }

    /// The direct children of `span`.
    pub fn children(&self, span: &Span) -> Vec<Span> {
        self.children
            .get(&span.id)
            .map(|ix| ix.iter().map(|&i| self.spans[i]).collect())
            .unwrap_or_default()
    }

    /// `span`'s self time in nanoseconds.
    pub fn self_ns(&self, span: &Span) -> u64 {
        let kids: Vec<(u64, u64)> = self
            .children(span)
            .iter()
            .map(|c| (c.start, c.end))
            .collect();
        self_time(span.start, span.end, &kids)
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
