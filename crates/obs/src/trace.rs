//! Hierarchical span tracing: a thread-local span stack, monotonic
//! timings, and a bounded ring-buffer event log.
//!
//! Tracing is **off by default** and gated on one relaxed atomic load:
//! with it off, [`span`] constructs a disarmed guard and the drop does
//! one branch — cheap enough to leave in every hot path (the figures
//! harness asserts the disabled overhead stays under 2% of the
//! annotation microbench). With it on, each span records its start on
//! the process-wide monotonic clock, its thread id (small integers
//! assigned on first use, stable for the thread's lifetime) and its
//! depth on that thread's span stack; the completed span is pushed
//! into the global ring buffer and folded into per-name aggregates.
//!
//! The ring buffer is bounded: at capacity it drops the *oldest* event
//! and counts the drop, never reordering survivors — a long run keeps
//! the most recent window instead of failing or growing without bound.
//!
//! Request-scoped tracing rides on a [`TraceContext`] — a 128-bit
//! trace id plus the minting span's id — stored in a thread-local slot
//! while a request is being handled ([`enter`]). Every span and
//! instant recorded while a context is entered carries its trace id,
//! so one id links the client-side send, the server-side decode and
//! admission, the engine's `serve.*` spans, and the durable
//! `wal.commit` fsync for the same request, across threads (and, via
//! the wire frame, across processes).

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::mix::{splitmix64, GOLDEN_GAMMA};

/// Capacity of the global event ring buffer.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static BUFFER: OnceLock<TraceBuffer> = OnceLock::new();
static STATS: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// This thread's trace id; 0 until assigned.
    static TID: Cell<u64> = const { Cell::new(0) };
    /// Depth of the live span stack on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// The request context entered on this thread (0 = none).
    static CONTEXT: Cell<(u128, u64)> = const { Cell::new((0, 0)) };
}

/// Entropy pool for [`TraceContext::mint`]: seeded once from the wall
/// clock, then advanced by a relaxed fetch-add so concurrent minters
/// draw distinct splitmix streams.
static MINT_STATE: AtomicU64 = AtomicU64::new(0);

/// A request-scoped trace context: a 128-bit trace id shared by every
/// span of one logical request, plus the id of the span that minted it
/// (the parent for any remote continuation).
///
/// Contexts are minted client-side, serialized into the wire frame as
/// three big-endian `u64`s, and re-entered server-side with [`enter`];
/// a zero `trace_id` means "no context" and is never minted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// 128-bit trace id, nonzero for every minted context.
    pub trace_id: u128,
    /// Id of the span that minted (or last owned) this context.
    pub span_id: u64,
}

impl TraceContext {
    /// Mint a fresh context with a random nonzero trace id.
    pub fn mint() -> TraceContext {
        // First mint folds the wall clock into the pool so separate
        // processes (client vs server binaries) draw distinct streams.
        if MINT_STATE.load(Ordering::Relaxed) == 0 {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0x5EED);
            let _ = MINT_STATE.compare_exchange(
                0,
                nanos | 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
        let mut s = MINT_STATE.fetch_add(GOLDEN_GAMMA, Ordering::Relaxed);
        loop {
            let hi = splitmix64(&mut s);
            let lo = splitmix64(&mut s);
            let span_id = splitmix64(&mut s);
            let trace_id = ((hi as u128) << 64) | lo as u128;
            if trace_id != 0 {
                return TraceContext { trace_id, span_id };
            }
        }
    }

    /// The trace id as 32 lowercase hex digits — the spelling used by
    /// exemplars, flight records and Chrome-trace flow event ids.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.trace_id)
    }
}

/// Render any 128-bit trace id the way [`TraceContext::trace_id_hex`]
/// does.
pub fn trace_id_hex(trace_id: u128) -> String {
    format!("{trace_id:032x}")
}

/// Enter `ctx` on this thread: spans and instants recorded until the
/// returned guard drops carry `ctx.trace_id`. Nests — the guard
/// restores the previously entered context.
pub fn enter(ctx: TraceContext) -> ContextGuard {
    let prev = CONTEXT.with(|c| c.replace((ctx.trace_id, ctx.span_id)));
    ContextGuard { prev }
}

/// The context currently entered on this thread, if any.
pub fn current() -> Option<TraceContext> {
    let (trace_id, span_id) = CONTEXT.with(|c| c.get());
    if trace_id == 0 {
        None
    } else {
        Some(TraceContext { trace_id, span_id })
    }
}

/// RAII guard restoring the previously entered [`TraceContext`].
#[must_use = "dropping the guard immediately exits the context"]
pub struct ContextGuard {
    prev: (u128, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.set(self.prev));
    }
}

fn current_trace_id() -> u128 {
    CONTEXT.with(|c| c.get().0)
}

/// Nanoseconds since the process trace epoch (first trace activity).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn buffer() -> &'static TraceBuffer {
    BUFFER.get_or_init(|| TraceBuffer::with_capacity(DEFAULT_EVENT_CAPACITY))
}

fn thread_id() -> u64 {
    TID.with(|c| {
        if c.get() == 0 {
            c.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

fn unpoison<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Turn tracing on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether tracing is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A completed span (has a duration).
    Span,
    /// A point event (fault firings, ladder rungs).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span or instant name.
    pub name: String,
    /// Span or instant.
    pub kind: TraceKind,
    /// Trace-local thread id (small integers from 1).
    pub tid: u64,
    /// Span-stack depth at the event (0 = top level).
    pub depth: u32,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Global push order, assigned by the buffer — survivors of a
    /// capacity drop keep strictly increasing `seq`.
    pub seq: u64,
    /// The [`TraceContext`] trace id entered when the event was
    /// recorded; 0 when no request context was active.
    pub trace_id: u128,
}

/// A bounded MPSC-ish event log: concurrent pushes, oldest-first drops
/// at capacity, drained in push order. The global tracer uses one with
/// [`DEFAULT_EVENT_CAPACITY`]; tests build small ones directly.
pub struct TraceBuffer {
    cap: usize,
    inner: Mutex<BufferInner>,
}

struct BufferInner {
    events: VecDeque<TraceEvent>,
    dropped: u64,
    next_seq: u64,
}

impl TraceBuffer {
    /// A buffer holding at most `cap` events (minimum 1).
    pub fn with_capacity(cap: usize) -> TraceBuffer {
        TraceBuffer {
            cap: cap.max(1),
            inner: Mutex::new(BufferInner {
                events: VecDeque::new(),
                dropped: 0,
                next_seq: 0,
            }),
        }
    }

    /// Append an event, stamping its `seq`; at capacity the oldest
    /// event is dropped first and the drop counted.
    pub fn push(&self, mut event: TraceEvent) {
        let mut inner = unpoison(&self.inner);
        event.seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Remove and return all buffered events, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        unpoison(&self.inner).events.drain(..).collect()
    }

    /// Events dropped at capacity so far.
    pub fn dropped(&self) -> u64 {
        unpoison(&self.inner).dropped
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        unpoison(&self.inner).events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Clear events and the drop counter (`seq` keeps counting, so
    /// post-reset events still sort after pre-reset ones).
    pub fn reset(&self) {
        let mut inner = unpoison(&self.inner);
        inner.events.clear();
        inner.dropped = 0;
    }
}

/// RAII guard for one span: created by [`span`], records on drop.
#[must_use = "a span measures the scope that holds its guard"]
pub struct SpanGuard {
    name: &'static str,
    start_ns: u64,
    tid: u64,
    depth: u32,
    armed: bool,
}

/// Open a span named `name`. When tracing is off this is one relaxed
/// atomic load and a disarmed guard; when on, the guard records a
/// [`TraceEvent`] and folds into [`span_stats`] as it drops.
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard { name, start_ns: 0, tid: 0, depth: 0, armed: false };
    }
    let tid = thread_id();
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard { name, start_ns: now_ns(), tid, depth, armed: true }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        {
            let mut stats = unpoison(&STATS);
            let entry = stats.entry(self.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(dur_ns);
        }
        buffer().push(TraceEvent {
            name: self.name.to_string(),
            kind: TraceKind::Span,
            tid: self.tid,
            depth: self.depth,
            start_ns: self.start_ns,
            dur_ns,
            seq: 0,
            trace_id: current_trace_id(),
        });
    }
}

/// Record a point event (e.g. a fault firing) at the current thread
/// and depth. No-op while tracing is off.
pub fn instant(name: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    buffer().push(TraceEvent {
        name: name.to_string(),
        kind: TraceKind::Instant,
        tid: thread_id(),
        depth: DEPTH.with(|d| d.get()),
        start_ns: now_ns(),
        dur_ns: 0,
        seq: 0,
        trace_id: current_trace_id(),
    });
}

/// Record an already-measured span that *ends now* and lasted `dur` —
/// for phases whose trace context only becomes known after the work
/// (e.g. the server decoding the very frame that carries the context:
/// decode is timed with a plain clock, the context is entered, then
/// the span is backfilled so it still carries the request's trace id).
/// No-op while tracing is off.
pub fn record_span(name: &'static str, dur: Duration) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let dur_ns = dur.as_nanos() as u64;
    let end = now_ns();
    {
        let mut stats = unpoison(&STATS);
        let entry = stats.entry(name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 = entry.1.saturating_add(dur_ns);
    }
    buffer().push(TraceEvent {
        name: name.to_string(),
        kind: TraceKind::Span,
        tid: thread_id(),
        depth: DEPTH.with(|d| d.get()),
        start_ns: end.saturating_sub(dur_ns),
        dur_ns,
        seq: 0,
        trace_id: current_trace_id(),
    });
}

/// Drain the global event buffer (push order, oldest first).
pub fn take_events() -> Vec<TraceEvent> {
    buffer().drain()
}

/// Events dropped from the global buffer at capacity so far.
pub fn dropped_events() -> u64 {
    buffer().dropped()
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// The span name.
    pub name: &'static str,
    /// Completed spans recorded under the name.
    pub count: u64,
    /// Saturating sum of their durations, nanoseconds.
    pub total_ns: u64,
}

/// Per-name span aggregates accumulated while tracing was on, sorted
/// by name.
pub fn span_stats() -> Vec<SpanStat> {
    unpoison(&STATS)
        .iter()
        .map(|(&name, &(count, total_ns))| SpanStat { name, count, total_ns })
        .collect()
}

/// Clear the event buffer (and its drop counter) and the span
/// aggregates. Registry metrics are monotone and are *not* touched.
pub fn reset() {
    buffer().reset();
    unpoison(&STATS).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            kind: TraceKind::Span,
            tid: 1,
            depth: 0,
            start_ns: 0,
            dur_ns: 0,
            seq: 0,
            trace_id: 0,
        }
    }

    #[test]
    fn minted_contexts_are_distinct_and_nonzero() {
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        assert_ne!(a.trace_id, 0);
        assert_ne!(b.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id, "two mints must not collide");
        assert_eq!(a.trace_id_hex().len(), 32);
        assert_eq!(trace_id_hex(a.trace_id), a.trace_id_hex());
    }

    #[test]
    fn enter_nests_and_restores() {
        assert!(current().is_none());
        let a = TraceContext::mint();
        let b = TraceContext::mint();
        {
            let _ga = enter(a);
            assert_eq!(current(), Some(a));
            {
                let _gb = enter(b);
                assert_eq!(current(), Some(b));
            }
            assert_eq!(current(), Some(a), "inner exit restores the outer context");
        }
        assert!(current().is_none());
    }

    #[test]
    fn ring_buffer_drops_oldest_first_without_reordering() {
        let buf = TraceBuffer::with_capacity(8);
        for i in 0..20 {
            buf.push(event(&format!("e{i}")));
        }
        assert_eq!(buf.len(), 8);
        assert_eq!(buf.dropped(), 12);
        let survivors = buf.drain();
        let names: Vec<&str> = survivors.iter().map(|e| e.name.as_str()).collect();
        // The 12 oldest were dropped; the newest 8 survive, in push order.
        assert_eq!(names, ["e12", "e13", "e14", "e15", "e16", "e17", "e18", "e19"]);
        for w in survivors.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1, "survivors keep contiguous push order");
        }
        assert!(buf.is_empty());
    }

    #[test]
    fn buffer_reset_clears_events_and_drop_count() {
        let buf = TraceBuffer::with_capacity(2);
        for i in 0..5 {
            buf.push(event(&format!("e{i}")));
        }
        assert_eq!(buf.dropped(), 3);
        buf.reset();
        assert_eq!(buf.dropped(), 0);
        assert!(buf.is_empty());
        buf.push(event("after"));
        assert_eq!(buf.drain().len(), 1);
    }

    #[test]
    fn disabled_span_records_nothing() {
        // Tracing is off by default in a fresh process; these tests never
        // enable it, so the global buffer must stay silent.
        assert!(!enabled());
        {
            let _g = span("quiet");
        }
        instant("quiet too");
        assert!(span_stats().iter().all(|s| s.name != "quiet"));
    }
}
