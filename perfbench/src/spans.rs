//! Host-time spans recorded by the benchmark around calls into each layer,
//! and the timing [`Timed`] transport that records one span per transport
//! operation.
//!
//! A [`SpanLog`] belongs to one thread. Spans nest strictly (each call
//! returns before its caller does), so an open-span stack gives every span
//! its parent and its self time (duration minus the time its children
//! cover). Per-name aggregates are kept for every span; individual spans
//! are retained up to a cap and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use cards_net::{
    FaultEvents, Fetched, NetError, NetStats, ObjKey, TraceContext, Transport, WireTap,
};

/// Spans retained per log for the span file; aggregates cover all spans.
const KEEP_SPANS: usize = 100_000;

/// One finished span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique within its log.
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Program, application run or request the span belongs to.
    pub group: u64,
    /// Layer-qualified call name, e.g. `net.fetch`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Finished spans of this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
}

impl Agg {
    /// Mean duration of one call in milliseconds (0 with no calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64 / 1e6
        }
    }

    fn merge(&mut self, o: &Agg) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }
}

/// Everything a log recorded; `Send`, so worker threads can hand it back.
#[derive(Clone, Debug, Default)]
pub struct SpanDump {
    /// Per-name aggregates.
    pub agg: BTreeMap<&'static str, Agg>,
    /// Retained spans, in finish order.
    pub spans: Vec<Span>,
    /// Spans finished past the retention cap.
    pub dropped: u64,
}

impl SpanDump {
    /// Fold another dump in. Span ids stay unique: each thread's log counts
    /// from its own id base.
    pub fn merge(&mut self, other: SpanDump) {
        for (k, v) in &other.agg {
            self.agg.entry(k).or_default().merge(v);
        }
        let room = KEEP_SPANS.saturating_sub(self.spans.len());
        let kept = other.spans.len().min(room);
        self.dropped += other.dropped + (other.spans.len() - kept) as u64;
        self.spans.extend_from_slice(&other.spans[..kept]);
    }

    /// Aggregate for `name` (zero when never recorded).
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Write retained spans as JSON lines.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Inner {
    epoch: Instant,
    next_id: u64,
    group: u64,
    stack: Vec<Open>,
    dump: SpanDump,
}

/// A thread's span recorder. A disabled log records nothing and costs one
/// branch per call.
#[derive(Clone)]
pub struct SpanLog(Option<Rc<RefCell<Inner>>>);

impl SpanLog {
    /// A log that records nothing.
    pub fn disabled() -> Self {
        SpanLog(None)
    }

    /// A recording log whose timestamps count from `epoch`. `id_base`
    /// keeps span ids of different threads' logs apart.
    pub fn recording(epoch: Instant, id_base: u64) -> Self {
        SpanLog(Some(Rc::new(RefCell::new(Inner {
            epoch,
            next_id: id_base + 1,
            group: 0,
            stack: Vec::new(),
            dump: SpanDump::default(),
        }))))
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Tag every span that starts from now on with `group`.
    pub fn set_group(&self, group: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().group = group;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.0 else {
            return f();
        };
        {
            let mut g = inner.borrow_mut();
            let id = g.next_id;
            g.next_id += 1;
            let start_ns = g.epoch.elapsed().as_nanos() as u64;
            g.stack.push(Open {
                id,
                name,
                start_ns,
                child_ns: 0,
            });
        }
        let r = f();
        let mut g = inner.borrow_mut();
        let end_ns = g.epoch.elapsed().as_nanos() as u64;
        let open = g.stack.pop().expect("span stack underflow");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match g.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let group = g.group;
        let a = g.dump.agg.entry(open.name).or_default();
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if g.dump.spans.len() < KEEP_SPANS {
            g.dump.spans.push(Span {
                id: open.id,
                parent,
                group,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            g.dump.dropped += 1;
        }
        r
    }

    /// Take everything recorded so far (empty for a disabled log).
    pub fn take(&self) -> SpanDump {
        match &self.0 {
            Some(inner) => std::mem::take(&mut inner.borrow_mut().dump),
            None => SpanDump::default(),
        }
    }
}

/// A transparent timing wrapper: forwards every [`Transport`] method to the
/// wrapped transport and records a span around each data-moving operation.
/// Cheap accessors (`rtt_cost`, `contains`, `stats`, ...) are forwarded
/// without a span.
pub struct Timed<T> {
    inner: T,
    log: SpanLog,
}

impl<T: Transport> Timed<T> {
    /// Wrap `inner`, recording into `log`.
    pub fn new(inner: T, log: SpanLog) -> Self {
        Timed { inner, log }
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn fetch(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        let inner = &mut self.inner;
        self.log.span("net.fetch", || inner.fetch(key))
    }

    fn fetch_batched(&mut self, key: ObjKey) -> Result<Fetched, NetError> {
        let inner = &mut self.inner;
        self.log
            .span("net.fetch_batched", || inner.fetch_batched(key))
    }

    fn rtt_cost(&self) -> u64 {
        self.inner.rtt_cost()
    }

    fn put(&mut self, key: ObjKey, data: &[u8]) -> Result<u64, NetError> {
        let inner = &mut self.inner;
        self.log.span("net.put", || inner.put(key, data))
    }

    fn remove(&mut self, key: ObjKey) -> Result<u64, NetError> {
        let inner = &mut self.inner;
        self.log.span("net.remove", || inner.remove(key))
    }

    fn flush(&mut self) -> Result<u64, NetError> {
        let inner = &mut self.inner;
        self.log.span("net.flush", || inner.flush())
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn contains(&self, key: ObjKey) -> bool {
        self.inner.contains(key)
    }

    fn stats(&self) -> NetStats {
        self.inner.stats()
    }

    fn remote_bytes(&self) -> u64 {
        self.inner.remote_bytes()
    }

    fn take_fault_events(&mut self) -> FaultEvents {
        self.inner.take_fault_events()
    }

    fn set_trace_context(&mut self, ctx: TraceContext) {
        self.inner.set_trace_context(ctx)
    }

    fn trace_context(&self) -> TraceContext {
        self.inner.trace_context()
    }

    fn wire_tap(&self) -> Option<&WireTap> {
        self.inner.wire_tap()
    }
}
