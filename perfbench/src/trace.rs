//! In-memory spans around the calls into each layer, written once at the
//! end as a Chrome `trace_event` file (the object form that probe's
//! `chrome.rs` writes, so it loads in Perfetto and `chrome://tracing`).
//!
//! Every timed operation takes its `Instant`s whether or not tracing is
//! on; a disabled tracer just drops them, so the traced and untraced
//! runs execute the same calls and their difference is the cost of
//! storing spans.

use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `farm-router.submit`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Id of this span (unique within one run).
    pub id: u64,
    /// Id of the span that caused it; 0 for a root.
    pub parent: u64,
    /// Request id shared by the spans of one job or sweep.
    pub req: u64,
    /// Recording thread (Chrome `tid`).
    pub tid: u32,
}

/// Per-thread span recorder. Threads of one run share the epoch and
/// take disjoint id ranges, and their spans are merged afterwards.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    next_id: u64,
    spans: Vec<Span>,
}

/// Spans one recorder keeps at most; later spans are dropped, so a long
/// traced run cannot exhaust memory.
const MAX_SPANS: usize = 400_000;

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            tid,
            next_id: (tid as u64) << 40 | 1,
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, tid: u32) -> Tracer {
        Tracer::new(self.on, self.epoch, tid)
    }

    /// Take an id for a span recorded later (a parent whose children
    /// finish first); 0 when tracing is off.
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next_id += 1;
        self.next_id - 1
    }

    /// Record a span from `start` to `end`; returns its id (0 when
    /// tracing is off).
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) -> u64 {
        let id = self.reserve();
        self.span_as(id, name, start, end, parent, req);
        id
    }

    /// Record a span under an id taken with [`Tracer::reserve`].
    pub fn span_as(
        &mut self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u64,
        req: u64,
    ) {
        if !self.on || self.spans.len() >= MAX_SPANS {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            id,
            parent,
            req,
            tid: self.tid,
        });
    }

    /// Move another recorder's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations in ms of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON: one complete (`"ph":"X"`) event per
    /// span, microsecond `ts`/`dur`, with id, parent and request id in
    /// `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + 160 * self.spans.len());
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"perfbench\"}}",
        );
        for s in &self.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.tid,
                s.id,
                s.parent,
                s.req
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(false, t0, 1);
        assert_eq!(tr.span("a", t0, t0 + Duration::from_millis(1), 0, 1), 0);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn spans_link_parents_and_export_as_json() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(true, t0, 1);
        let root = tr.span("job", t0, t0 + Duration::from_micros(30), 0, 7);
        tr.span(
            "farm-router.submit",
            t0,
            t0 + Duration::from_micros(10),
            root,
            7,
        );
        let mut other = tr.fork(2);
        other.span(
            "farm-router.submit",
            t0,
            t0 + Duration::from_micros(20),
            0,
            8,
        );
        tr.absorb(other);
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[1].parent, root);
        assert_eq!(tr.durations_ms("farm-router.submit"), vec![0.01, 0.02]);
        assert_eq!(tr.durations_ms("job"), vec![0.03]);
        let ids: std::collections::BTreeSet<u64> = tr.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3, "forked recorders take disjoint ids");
        let json = tr.chrome_json();
        let v = bfly_farmd::json::parse(&json).expect("trace is JSON");
        let events = v
            .get("traceEvents")
            .and_then(bfly_farmd::Value::as_arr)
            .unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1].get("ph").and_then(bfly_farmd::Value::as_str),
            Some("X")
        );
    }
}
