//! Per-event tracing: thread-local ring-buffer recorders behind the
//! `AUTOPILOT_TRACE` gate, with Chrome trace-event JSON export.
//!
//! Where the metrics registry aggregates (a span name maps to count /
//! total / min / max), tracing records *every* span begin and end as a
//! timestamped event so a run can be replayed as a timeline in
//! Perfetto / `chrome://tracing` or collapsed into a flamegraph by the
//! `trace_report` bin.
//!
//! ## Design
//!
//! * **Gating.** `AUTOPILOT_TRACE` unset / `0` / `off` / `false` means
//!   off; anything else means on. Like the metrics gate, the off path
//!   is one relaxed atomic load and an untaken branch per span.
//! * **Recording.** Each thread owns a private ring buffer of
//!   [`DEFAULT_RING_EVENTS`] events. Recording an event is a
//!   thread-local borrow plus a vector write — no locks, no allocation
//!   once the ring has grown to capacity; when full, the oldest events
//!   are overwritten and counted as dropped.
//! * **Identity.** Every span gets a process-unique id from one atomic
//!   counter; events carry `(name, kind, ts_ns, tid, id, parent)`.
//!   Timestamps are nanoseconds from a process-wide monotonic epoch.
//! * **Flow linkage.** A parent thread captures a [`FlowHandle`] naming
//!   its innermost live span; a worker thread [`adopt`]s it so the
//!   worker's root spans parent back across the thread boundary (this is
//!   how `dse_opt::par` worker chunks attach to the SMS-EGO iteration
//!   that spawned them).
//! * **Collection.** When a thread exits, its ring is flushed into a
//!   bounded global pool. [`take`] drains the pool plus the calling
//!   thread's ring into a [`Trace`], which exports Chrome trace-event
//!   JSON via [`Trace::to_chrome_json`] and pairs begin/end events via
//!   [`Trace::pair`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::Value;

/// Environment variable gating per-event trace recording.
pub const TRACE_ENV: &str = "AUTOPILOT_TRACE";

/// Per-thread ring capacity in events (~4 MiB per busy thread at 32
/// bytes/event; workers that record little stay small because the ring
/// grows lazily up to capacity).
pub const DEFAULT_RING_EVENTS: usize = 131_072;

// Finished-thread pool cap: rings from exited threads are kept until
// `take` up to this many events in total, oldest evicted first.
const POOL_EVENT_CAP: usize = 4 * DEFAULT_RING_EVENTS;

// Cached gate: 0 = uninitialized, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);
// Ring capacity; only the wraparound test changes it.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_EVENTS);
// Process-unique span ids; 0 means "no parent", so ids start at 1.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
// Small sequential trace thread ids (stable within a process run,
// friendlier in trace UIs than OS thread ids).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

fn init_from_env() -> bool {
    let raw = std::env::var(TRACE_ENV).unwrap_or_default();
    let on = !matches!(raw.trim().to_ascii_lowercase().as_str(), "" | "0" | "off" | "false");
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// True when trace recording is active. One relaxed atomic load on the
/// fast path; the environment is parsed once, lazily.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Overrides the `AUTOPILOT_TRACE` gate for this process (tests and the
/// trace smoke probe).
pub fn force_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Overrides the ring capacity (events) for recorders created after the
/// call, and re-caps the calling thread's recorder immediately (its
/// buffered events are flushed to the finished pool first), so the
/// wraparound test need not record hundreds of thousands of spans.
#[cfg(test)]
fn set_capacity(cap: usize) {
    CAPACITY.store(cap, Ordering::Relaxed);
    RECORDER.with(|cell| {
        if let Some(r) = cell.0.borrow_mut().as_mut() {
            let (events, dropped) = r.drain();
            pool_push(events, dropped);
            r.capacity = cap;
        }
    });
}

/// Which side of a span an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The span opened.
    Begin,
    /// The span closed.
    End,
}

/// One recorded span boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (the leaf name passed to [`crate::span`], not the
    /// `/`-joined metrics path — ancestry lives in `parent` links).
    pub name: &'static str,
    /// Begin or end.
    pub kind: EventKind,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Sequential trace thread id (1-based).
    pub tid: u64,
    /// Process-unique span id (shared by the begin/end pair).
    pub id: u64,
    /// Id of the enclosing span at begin time (0 = root). Crosses
    /// threads when the opening thread adopted a [`FlowHandle`].
    pub parent: u64,
}

struct Recorder {
    tid: u64,
    capacity: usize,
    ring: Vec<TraceEvent>,
    // Next overwrite position once the ring is full (= index of the
    // oldest event).
    head: usize,
    dropped: u64,
    // Live spans on this thread: (id, parent).
    stack: Vec<(u64, u64)>,
    // Cross-thread parents adopted via `adopt` (a stack, so nested
    // adoption restores correctly).
    adopted: Vec<u64>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            capacity: capacity(),
            ring: Vec::new(),
            head: 0,
            dropped: 0,
            stack: Vec::new(),
            adopted: Vec::new(),
        }
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Innermost live span id, falling back to the adopted cross-thread
    /// parent, then to 0 (root).
    fn current_parent(&self) -> u64 {
        self.stack.last().map(|&(id, _)| id).or_else(|| self.adopted.last().copied()).unwrap_or(0)
    }

    /// Removes and returns the buffered events in record order plus the
    /// dropped count, leaving the live stack / tid intact.
    fn drain(&mut self) -> (Vec<TraceEvent>, u64) {
        let head = self.head;
        let mut events = std::mem::take(&mut self.ring);
        events.rotate_left(head);
        self.head = 0;
        (events, std::mem::take(&mut self.dropped))
    }
}

// Flushes the recorder into the global pool when the thread exits.
struct RecorderCell(RefCell<Option<Recorder>>);

impl Drop for RecorderCell {
    fn drop(&mut self) {
        if let Some(mut r) = self.0.borrow_mut().take() {
            let (events, dropped) = r.drain();
            pool_push(events, dropped);
        }
    }
}

thread_local! {
    static RECORDER: RecorderCell = const { RecorderCell(RefCell::new(None)) };
}

#[derive(Default)]
struct Pool {
    buffers: Vec<Vec<TraceEvent>>,
    total_events: usize,
    dropped: u64,
}

fn pool() -> &'static Mutex<Pool> {
    static POOL: OnceLock<Mutex<Pool>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Pool::default()))
}

fn pool_push(events: Vec<TraceEvent>, dropped: u64) {
    if events.is_empty() && dropped == 0 {
        return;
    }
    let mut pool = pool().lock().unwrap_or_else(PoisonError::into_inner);
    pool.total_events += events.len();
    pool.dropped += dropped;
    if !events.is_empty() {
        pool.buffers.push(events);
    }
    // Bound memory held for exited threads: evict oldest buffers.
    let mut evict = 0usize;
    while pool.total_events > POOL_EVENT_CAP && evict < pool.buffers.len() {
        let len = pool.buffers[evict].len();
        // Never evict down to nothing just because one buffer is huge.
        if pool.total_events - len < POOL_EVENT_CAP / 2 {
            break;
        }
        pool.total_events -= len;
        pool.dropped += len as u64;
        evict += 1;
    }
    if evict > 0 {
        pool.buffers.drain(..evict);
    }
}

/// Records a span begin on the calling thread. Returns `true` when an
/// event was recorded (so the matching [`end`] must be called), `false`
/// when tracing is off.
#[inline]
pub(crate) fn begin(name: &'static str) -> bool {
    if !enabled() {
        return false;
    }
    RECORDER.with(|cell| {
        let mut slot = cell.0.borrow_mut();
        let r = slot.get_or_insert_with(Recorder::new);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = r.current_parent();
        let tid = r.tid;
        r.stack.push((id, parent));
        r.push(TraceEvent { name, kind: EventKind::Begin, ts_ns: now_ns(), tid, id, parent });
    });
    true
}

/// Records the span end matching the most recent [`begin`] on this
/// thread. Runs even when tracing was disabled mid-span so the live
/// stack stays balanced.
#[inline]
pub(crate) fn end(name: &'static str) {
    RECORDER.with(|cell| {
        let mut slot = cell.0.borrow_mut();
        let Some(r) = slot.as_mut() else { return };
        let Some((id, parent)) = r.stack.pop() else { return };
        let tid = r.tid;
        r.push(TraceEvent { name, kind: EventKind::End, ts_ns: now_ns(), tid, id, parent });
    });
}

/// A copyable token naming the calling thread's innermost live span,
/// for parenting work that continues on another thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowHandle {
    parent: u64,
}

impl FlowHandle {
    /// True when the handle carries a parent span (tracing was on and a
    /// span was live when it was captured).
    pub fn is_linked(&self) -> bool {
        self.parent != 0
    }
}

/// Captures a [`FlowHandle`] for the calling thread's innermost live
/// span. Returns an unlinked handle when tracing is off or no span is
/// live.
pub fn flow_handle() -> FlowHandle {
    if !enabled() {
        return FlowHandle::default();
    }
    RECORDER.with(|cell| FlowHandle {
        parent: cell.0.borrow().as_ref().map(|r| r.current_parent()).unwrap_or(0),
    })
}

/// Guard restoring the previous cross-thread parent when dropped. Not
/// `Send` — adoption is a property of the adopting thread.
#[derive(Debug)]
pub struct AdoptGuard {
    active: bool,
    _not_send: PhantomData<*const ()>,
}

/// Adopts `handle` as the calling thread's root parent: spans opened
/// while the guard lives (and before any other span is live) parent to
/// the handle's span, linking worker timelines back to the spawning
/// thread. Inert when the handle is unlinked.
pub fn adopt(handle: FlowHandle) -> AdoptGuard {
    if handle.parent == 0 || !enabled() {
        return AdoptGuard { active: false, _not_send: PhantomData };
    }
    RECORDER.with(|cell| {
        cell.0.borrow_mut().get_or_insert_with(Recorder::new).adopted.push(handle.parent);
    });
    AdoptGuard { active: true, _not_send: PhantomData }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if self.active {
            RECORDER.with(|cell| {
                if let Some(r) = cell.0.borrow_mut().as_mut() {
                    r.adopted.pop();
                }
            });
        }
    }
}

/// Flushes the calling thread's buffered events into the global pool
/// (the live span stack and thread id stay intact). Rings also flush
/// automatically when a thread exits, but `std::thread::scope` only
/// guarantees the spawned *closure* has finished when the scope
/// returns — the thread-exit flush can still be pending — so worker
/// closures that must be visible to a following [`take`] should call
/// this as their last trace action.
pub fn flush_thread() {
    RECORDER.with(|cell| {
        if let Some(r) = cell.0.borrow_mut().as_mut() {
            let (events, dropped) = r.drain();
            pool_push(events, dropped);
        }
    });
}

/// Drains every buffered event — the calling thread's ring plus rings
/// flushed by exited threads — into one [`Trace`] sorted by timestamp.
/// Spans still live on the calling thread keep recording into a fresh
/// ring (their begin events leave with this trace, so their ends will
/// show up unmatched in the next one).
pub fn take() -> Trace {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    {
        let mut pool = pool().lock().unwrap_or_else(PoisonError::into_inner);
        for buf in pool.buffers.drain(..) {
            events.extend(buf);
        }
        pool.total_events = 0;
        dropped += std::mem::take(&mut pool.dropped);
    }
    RECORDER.with(|cell| {
        if let Some(r) = cell.0.borrow_mut().as_mut() {
            let (own, own_dropped) = r.drain();
            events.extend(own);
            dropped += own_dropped;
        }
    });
    events.sort_by_key(|e| (e.ts_ns, e.id));
    Trace { events, dropped }
}

/// Discards every buffered event (tests start from a clean slate).
pub fn clear() {
    let _ = take();
}

/// A drained event stream.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events sorted by timestamp.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wraparound or pool eviction.
    pub dropped: u64,
}

/// A begin/end pair matched by span id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteSpan {
    /// Span name.
    pub name: &'static str,
    /// Trace thread id the span ran on.
    pub tid: u64,
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Begin timestamp, ns since the trace epoch.
    pub start_ns: u64,
    /// End timestamp, ns since the trace epoch.
    pub end_ns: u64,
}

/// The result of pairing a trace's begin/end events.
#[derive(Debug, Clone, Default)]
pub struct PairedTrace {
    /// Matched spans, sorted by start time then id.
    pub spans: Vec<CompleteSpan>,
    /// Begin events with no end (spans still live at [`take`]).
    pub unmatched_begins: u64,
    /// End events with no begin (the begin was overwritten or left in a
    /// previous [`take`]).
    pub unmatched_ends: u64,
}

impl Trace {
    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Matches begin/end events by span id into [`CompleteSpan`]s.
    pub fn pair(&self) -> PairedTrace {
        let mut open: BTreeMap<u64, &TraceEvent> = BTreeMap::new();
        let mut spans = Vec::new();
        let mut unmatched_ends = 0u64;
        for ev in &self.events {
            match ev.kind {
                EventKind::Begin => {
                    open.insert(ev.id, ev);
                }
                EventKind::End => match open.remove(&ev.id) {
                    Some(b) => spans.push(CompleteSpan {
                        name: b.name,
                        tid: b.tid,
                        id: b.id,
                        parent: b.parent,
                        start_ns: b.ts_ns,
                        end_ns: ev.ts_ns.max(b.ts_ns),
                    }),
                    None => unmatched_ends += 1,
                },
            }
        }
        let unmatched_begins = open.len() as u64;
        spans.sort_by_key(|s| (s.start_ns, s.id));
        PairedTrace { spans, unmatched_begins, unmatched_ends }
    }

    /// Renders the trace as Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` load): one `"X"` complete event
    /// per matched span plus `"s"`/`"f"` flow events linking spans whose
    /// parent ran on another thread. Unmatched events are dropped from
    /// the timeline and counted in `otherData`.
    pub fn to_chrome_json(&self) -> String {
        let paired = self.pair();
        let by_id: BTreeMap<u64, &CompleteSpan> = paired.spans.iter().map(|s| (s.id, s)).collect();
        let mut events: Vec<Value> = Vec::with_capacity(paired.spans.len());
        for s in &paired.spans {
            events.push(Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str("span".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(s.tid as f64)),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("id".into(), Value::Num(s.id as f64)),
                        ("parent".into(), Value::Num(s.parent as f64)),
                    ]),
                ),
            ]));
        }
        // Flow arrows for cross-thread parent links: one "s" (start) on
        // the parent's track per parent span, one "f" (finish) per
        // cross-thread child. The flow id is the parent span id.
        let mut flow_started: BTreeMap<u64, ()> = BTreeMap::new();
        for s in &paired.spans {
            let Some(p) = (s.parent != 0).then(|| by_id.get(&s.parent)).flatten() else {
                continue;
            };
            if p.tid == s.tid {
                continue;
            }
            if flow_started.insert(p.id, ()).is_none() {
                events.push(flow_event("s", p.tid, p.start_ns, p.id));
            }
            events.push(flow_event("f", s.tid, s.start_ns.max(p.start_ns), p.id));
        }
        Value::Obj(vec![
            ("traceEvents".into(), Value::Arr(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
            (
                "otherData".into(),
                Value::Obj(vec![
                    ("dropped_events".into(), Value::Num(self.dropped as f64)),
                    ("unmatched_begins".into(), Value::Num(paired.unmatched_begins as f64)),
                    ("unmatched_ends".into(), Value::Num(paired.unmatched_ends as f64)),
                ]),
            ),
        ])
        .to_json()
    }
}

fn flow_event(ph: &str, tid: u64, ts_ns: u64, flow_id: u64) -> Value {
    let mut fields = vec![
        ("name".into(), Value::Str("flow".into())),
        ("cat".into(), Value::Str("flow".into())),
        ("ph".into(), Value::Str(ph.into())),
        ("ts".into(), Value::Num(ts_ns as f64 / 1e3)),
        ("pid".into(), Value::Num(1.0)),
        ("tid".into(), Value::Num(tid as f64)),
        ("id".into(), Value::Num(flow_id as f64)),
    ];
    if ph == "f" {
        // Bind the arrow to the enclosing slice's begin.
        fields.push(("bp".into(), Value::Str("e".into())));
    }
    Value::Obj(fields)
}

/// A span parsed back from Chrome trace-event JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Span name.
    pub name: String,
    /// Trace thread id.
    pub tid: u64,
    /// Process-unique span id (from `args.id`).
    pub id: u64,
    /// Parent span id (from `args.parent`; 0 = root).
    pub parent: u64,
    /// Start timestamp in microseconds.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// A Chrome trace-event document parsed back into spans.
#[derive(Debug, Clone, Default)]
pub struct ParsedTrace {
    /// `"X"` complete events, in file order.
    pub spans: Vec<ParsedSpan>,
    /// `otherData.dropped_events` when present.
    pub dropped_events: u64,
}

/// Parses a Chrome trace-event JSON document produced by
/// [`Trace::to_chrome_json`] (flow and other non-`"X"` events are
/// skipped).
///
/// # Errors
///
/// Returns a message when the text is not JSON or lacks the
/// `traceEvents` array, or when an `"X"` event is missing a required
/// field.
pub fn parse_chrome_trace(text: &str) -> Result<ParsedTrace, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| "missing traceEvents array".to_owned())?;
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let field = |key: &str| -> Result<&Value, String> {
            ev.get(key).ok_or_else(|| format!("event {i}: missing {key:?}"))
        };
        let num = |key: &str| -> Result<f64, String> {
            field(key)?.as_f64().ok_or_else(|| format!("event {i}: non-numeric {key:?}"))
        };
        let args = ev.get("args");
        let arg_u64 = |key: &str| -> u64 {
            args.and_then(|a| a.get(key)).and_then(Value::as_u64).unwrap_or(0)
        };
        spans.push(ParsedSpan {
            name: field("name")?
                .as_str()
                .ok_or_else(|| format!("event {i}: non-string name"))?
                .to_owned(),
            tid: num("tid")? as u64,
            id: arg_u64("id"),
            parent: arg_u64("parent"),
            start_us: num("ts")?,
            dur_us: num("dur")?,
        });
    }
    let dropped_events = doc
        .get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    Ok(ParsedTrace { spans, dropped_events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_guard;

    #[test]
    fn disabled_trace_records_nothing() {
        let _guard = test_guard();
        force_enabled(false);
        clear();
        {
            let _s = crate::span("trace_off_span");
        }
        assert!(take().is_empty());
    }

    #[test]
    fn spans_record_begin_end_pairs_with_parents() {
        let _guard = test_guard();
        force_enabled(true);
        clear();
        {
            let _a = crate::span("trace_outer");
            let _b = crate::span("trace_inner");
        }
        force_enabled(false);
        let trace = take();
        assert_eq!(trace.events.len(), 4);
        assert_eq!(trace.dropped, 0);
        let paired = trace.pair();
        assert_eq!(paired.spans.len(), 2);
        assert_eq!(paired.unmatched_begins, 0);
        assert_eq!(paired.unmatched_ends, 0);
        let outer = paired.spans.iter().find(|s| s.name == "trace_outer").expect("outer");
        let inner = paired.spans.iter().find(|s| s.name == "trace_inner").expect("inner");
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tid, outer.tid);
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn wraparound_drops_oldest_and_keeps_pairing_well_formed() {
        let _guard = test_guard();
        force_enabled(true);
        clear();
        set_capacity(16);
        for _ in 0..40 {
            let _s = crate::span("trace_wrap");
        }
        force_enabled(false);
        let trace = take();
        set_capacity(DEFAULT_RING_EVENTS);
        assert_eq!(trace.events.len(), 16);
        assert_eq!(trace.dropped, 64);
        let paired = trace.pair();
        // Every surviving end either pairs with its begin or its begin
        // was dropped; pairs that survive are well formed.
        assert_eq!(paired.unmatched_begins, 0);
        assert!(paired.unmatched_ends <= trace.dropped);
        assert_eq!(paired.spans.len() as u64 * 2 + paired.unmatched_ends, 16);
        for s in &paired.spans {
            assert_eq!(s.name, "trace_wrap");
            assert!(s.start_ns <= s.end_ns);
        }
    }

    #[test]
    fn flow_adoption_parents_across_threads() {
        let _guard = test_guard();
        force_enabled(true);
        clear();
        let parent_id;
        {
            let _root = crate::span("trace_flow_root");
            let handle = flow_handle();
            assert!(handle.is_linked());
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    {
                        let _adopt = adopt(handle);
                        let _w = crate::span("trace_flow_worker");
                    }
                    flush_thread();
                });
            });
            parent_id = handle.parent;
        }
        force_enabled(false);
        let paired = take().pair();
        let root = paired.spans.iter().find(|s| s.name == "trace_flow_root").expect("root");
        let worker = paired.spans.iter().find(|s| s.name == "trace_flow_worker").expect("worker");
        assert_eq!(root.id, parent_id);
        assert_eq!(worker.parent, root.id);
        assert_ne!(worker.tid, root.tid);
    }

    #[test]
    fn unlinked_handles_are_inert() {
        let _guard = test_guard();
        force_enabled(true);
        clear();
        let handle = flow_handle(); // no span live
        assert!(!handle.is_linked());
        {
            let _adopt = adopt(handle);
            let _s = crate::span("trace_unlinked");
        }
        force_enabled(false);
        let paired = take().pair();
        let s = paired.spans.iter().find(|s| s.name == "trace_unlinked").expect("span");
        assert_eq!(s.parent, 0);
    }

    #[test]
    fn chrome_export_round_trips_through_the_parser() {
        let _guard = test_guard();
        force_enabled(true);
        clear();
        {
            let _a = crate::span("trace_rt_outer");
            let handle = flow_handle();
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    {
                        let _adopt = adopt(handle);
                        let _w = crate::span("trace_rt_worker");
                    }
                    flush_thread();
                });
            });
            let _b = crate::span("trace_rt_inner");
        }
        force_enabled(false);
        let trace = take();
        let json = trace.to_chrome_json();
        let parsed = parse_chrome_trace(&json).expect("parse");
        let original = trace.pair();
        assert_eq!(parsed.spans.len(), original.spans.len());
        assert_eq!(parsed.dropped_events, 0);
        for o in &original.spans {
            let p = parsed.spans.iter().find(|p| p.id == o.id).expect("span survives");
            assert_eq!(p.name, o.name);
            assert_eq!(p.tid, o.tid);
            assert_eq!(p.parent, o.parent);
            let dur_us = (o.end_ns - o.start_ns) as f64 / 1e3;
            assert!((p.dur_us - dur_us).abs() < 1e-9);
        }
        // The cross-thread worker contributes an s/f flow pair.
        let doc = Value::parse(&json).expect("json");
        let phases: Vec<&str> = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events")
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "s").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "f").count(), 1);
    }

    #[test]
    fn take_preserves_live_spans_stack() {
        let _guard = test_guard();
        force_enabled(true);
        clear();
        let live = crate::span("trace_live");
        let first = take();
        assert_eq!(first.pair().unmatched_begins, 1);
        {
            let _child = crate::span("trace_live_child");
        }
        drop(live);
        force_enabled(false);
        let second = take();
        let paired = second.pair();
        // The child still parents to the live span even though its
        // begin event left with the first take.
        let child = paired.spans.iter().find(|s| s.name == "trace_live_child").expect("child");
        assert_ne!(child.parent, 0);
        assert_eq!(paired.unmatched_ends, 1);
    }
}
