//! In-memory spans and counters for the traced run.
//!
//! A span records a name, start, end, the span that caused it and the
//! operation it belongs to. Spans stay in memory while the run measures and
//! are written out as JSON lines when it ends. A span's name is
//! `<layer>.<call>`, the layer being the module the wrapped call lives in.
//!
//! A layer's self time comes from [`self_times`]: the measured time of the
//! calls made inside operations, split among layers. Replays (inner public
//! functions driven again over the same inputs) only split that time; they
//! never add to it.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// How a span's time relates to the operations of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A call made inside an operation. It lies within its parent's
    /// interval, and the part of the parent it covers is the call's time.
    Call,
    /// The same inputs driven again through an inner public function after
    /// the operation, to estimate the share of its parent's time that the
    /// inner layer takes. Replays split their parent's time: where they sum
    /// to more than it, they are scaled down to fit. A replay without a
    /// parent, or under an [`Kind::Outside`] span, stands on its own.
    Replay,
    /// Not part of any operation's latency: a span around a whole parallel
    /// operation or campaign, a call made between operations, or a call
    /// timed only for its own per-call metric. It has no self time.
    Outside,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Call => "call",
            Kind::Replay => "replay",
            Kind::Outside => "outside",
        }
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The operation the span belongs to.
    pub op: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// How its time counts.
    pub kind: Kind,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and event counts from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer; span times count from now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    /// `instant` as nanoseconds since the tracer was created (0 before).
    pub fn ns_of(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated `id`.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// The id of the most recently recorded span named `name`.
    pub fn last(&self, name: &str) -> Option<u64> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans.iter().rev().find(|s| s.name == name).map(|s| s.id)
    }

    /// Runs `f` inside a [`Kind::Call`] span; `f` receives the span's id so
    /// that calls it makes can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.timed(Kind::Call, name, parent, op, f)
    }

    /// Runs `f` inside a [`Kind::Replay`] span under `parent`.
    pub fn replay<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        self.timed(Kind::Replay, name, parent, op, f)
    }

    /// Runs `f` inside a [`Kind::Outside`] span.
    pub fn outside<R>(&self, name: &'static str, op: u64, f: impl FnOnce(u64) -> R) -> R {
        self.timed(Kind::Outside, name, None, op, f)
    }

    fn timed<R>(
        &self,
        kind: Kind,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id();
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name,
            op,
            start_ns,
            end_ns,
            kind,
        });
        result
    }

    /// Adds `delta` to the event count `name`.
    pub fn count(&self, name: &'static str, delta: f64) {
        *self
            .counts
            .lock()
            .expect("count map poisoned")
            .entry(name)
            .or_insert(0.0) += delta;
    }

    /// Sets the gauge `name` to `value`, replacing what it held.
    pub fn set(&self, name: &'static str, value: f64) {
        self.counts
            .lock()
            .expect("count map poisoned")
            .insert(name, value);
    }

    /// The event count or gauge `name` (0 when never set).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("count map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Each span's self time, ns: the time it spent in its own layer.
///
/// A span's time is its duration, or for a replay the share of its parent's
/// time it was given. From that, the part of its interval that its
/// [`Kind::Call`] children cover is taken out (overlapping children count
/// once), and then the time given to its [`Kind::Replay`] children: their
/// durations, scaled as their parent was (a replay and the replays under it
/// ran at one speed), and scaled down together when they would still exceed
/// what is left. So the self times of a span and everything under it sum to
/// its own time, never more. [`Kind::Outside`] spans get their duration minus their
/// children's, but are not part of any operation's time.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let parent: Vec<Option<usize>> = spans
        .iter()
        .map(|s| s.parent.and_then(|p| index.get(&p).copied()))
        .collect();
    let mut calls: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut replays: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        match (s.kind, parent[i]) {
            (Kind::Call, Some(p)) => calls[p].push((s.start_ns, s.end_ns)),
            (Kind::Replay, Some(p)) => replays[p].push(i),
            _ => {}
        }
    }
    // Parents before children, so that a replay's time is known before it
    // is split among its own replays.
    let depth = |mut i: usize| {
        let mut d = 0;
        while let Some(p) = parent[i] {
            d += 1;
            i = p;
        }
        d
    };
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| depth(i));
    let mut time: Vec<f64> = spans.iter().map(|s| s.duration_ns() as f64).collect();
    let mut own = vec![0.0; spans.len()];
    for i in order {
        let s = &spans[i];
        let left = (time[i] - covered(s, &mut calls[i]) as f64).max(0.0);
        let speed = match s.duration_ns() {
            0 => 1.0,
            d => time[i] / d as f64,
        };
        let wanted: f64 = replays[i]
            .iter()
            .map(|&c| spans[c].duration_ns() as f64 * speed)
            .sum();
        let scale = if s.kind != Kind::Outside && wanted > left {
            speed * left / wanted
        } else {
            speed
        };
        for &c in &replays[i] {
            time[c] = spans[c].duration_ns() as f64 * scale;
        }
        own[i] = (left - replays[i].iter().map(|&c| time[c]).sum::<f64>()).max(0.0);
    }
    own
}

/// How much of `span`'s interval the intervals `kids` cover, counting
/// overlaps once and clipping to the span.
fn covered(span: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for &(start, end) in kids.iter() {
        let start = start.max(reach);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// I/O failures.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"kind\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.name,
            s.kind.as_str(),
            s.op,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "layer.call",
            op: 0,
            start_ns,
            end_ns,
            kind: Kind::Call,
        }
    }

    fn replay(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind: Kind::Replay,
            ..span(id, parent, start_ns, end_ns)
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70.0, 20.0, 10.0]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children on two threads overlap over 20..30; together they cover
        // 10..40, 30 ns of the parent.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
        ];
        assert_eq!(self_times(&spans)[0], 70.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(1, None, 10, 50),
            span(2, Some(1), 0, 20),
            span(3, Some(1), 40, 90),
        ];
        assert_eq!(self_times(&spans)[0], 20.0);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 50),
            span(3, Some(2), 0, 40),
        ];
        assert_eq!(self_times(&spans), vec![50.0, 10.0, 40.0]);
    }

    #[test]
    fn replays_split_their_parent_after_its_calls() {
        // A 100 ns operation with a 20 ns call inside; replays after it
        // estimate 30 and 20 ns of what is left.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            replay(3, Some(1), 200, 230),
            replay(4, Some(1), 230, 250),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 20.0, 30.0, 20.0]);
    }

    #[test]
    fn replays_longer_than_their_parent_are_scaled_to_fit() {
        // 80 ns left after the call; replays of 120 and 40 ns are halved,
        // and the 90 ns replay under the first is halved with it.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 0, 20),
            replay(3, Some(1), 200, 320),
            replay(4, Some(1), 320, 360),
            replay(5, Some(3), 400, 490),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![0.0, 20.0, 15.0, 20.0, 45.0]);
        assert_eq!(own.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn self_times_never_sum_to_more_than_the_root() {
        let spans = [
            span(1, None, 0, 1000),
            span(2, Some(1), 100, 400),
            span(3, Some(2), 150, 200),
            replay(4, Some(2), 2000, 2600),
            replay(5, Some(4), 3000, 3100),
            replay(6, Some(1), 4000, 4500),
            replay(7, Some(1), 5000, 5400),
        ];
        let sum: f64 = self_times(&spans).iter().sum();
        assert!(sum <= 1000.0 + 1e-9, "{sum}");
    }

    #[test]
    fn replays_under_outside_spans_stand_alone() {
        let spans = [
            Span {
                kind: Kind::Outside,
                ..span(1, None, 0, 100)
            },
            replay(2, Some(1), 200, 500),
            replay(3, None, 600, 650),
        ];
        assert_eq!(self_times(&spans)[1..], [300.0, 50.0]);
    }

    #[test]
    fn tracer_nests_spans_and_counts() {
        let t = Tracer::new();
        t.outside("orchestrator.campaign", 7, |id| {
            t.span("store.append", Some(id), 7, |_| ());
        });
        t.replay("runner.measure", t.last("store.append"), 7, |_| ());
        t.count("runner.retries", 2.0);
        t.count("runner.retries", 1.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].name, "orchestrator.campaign");
        assert_eq!(spans[1].kind, Kind::Outside);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].layer(), "store");
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert_eq!(spans[2].kind, Kind::Replay);
        assert_eq!(t.last("nothing"), None);
        assert_eq!(t.counted("runner.retries"), 3.0);
        assert_eq!(t.counted("never"), 0.0);
    }
}
