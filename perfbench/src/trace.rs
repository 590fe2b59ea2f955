//! Spans recorded by the benchmark around its own calls into the `vm`
//! and `core` layers, kept in memory and written out when the run ends.
//! The program itself is not instrumented: an op's child spans are laid
//! out from the stage durations its public report already returns.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its episode's list.
pub type SpanId = u32;

/// The parent of a root span.
pub const ROOT: SpanId = u32::MAX;

/// One timed call: `[start, start + dur)` relative to the recorder's
/// origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `vm.run_for` or `criu.dump`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Request id or op id shared by every span of one request or op
    /// (0 for pump slices serving whatever is in flight).
    pub id: u32,
}

/// An in-memory span recorder. Off, it records nothing and costs one
/// branch per call site.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The recorded spans.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its id ([`ROOT`] when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u32,
        start: Instant,
        dur: Duration,
    ) -> SpanId {
        if !self.on {
            return ROOT;
        }
        let span = Span {
            name,
            start_ns: self.offset(start),
            dur_ns: dur.as_nanos() as u64,
            parent,
            id,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as SpanId
    }

    /// Times `call` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u32,
        call: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.record(name, parent, id, start, start.elapsed());
        out
    }

    /// Opens a span whose end is not known yet (a request whose client
    /// calls are its children); [`Recorder::close`] sets the end.
    pub fn open(&mut self, name: &'static str, parent: SpanId, id: u32, start: Instant) -> SpanId {
        self.record(name, parent, id, start, Duration::ZERO)
    }

    /// Ends a span opened with [`Recorder::open`] at `end`.
    pub fn close(&mut self, span: SpanId, end: Instant) {
        if span == ROOT {
            return;
        }
        let end_ns = self.offset(end);
        let span = &mut self.spans[span as usize];
        span.dur_ns = end_ns.saturating_sub(span.start_ns);
    }

    /// Summed duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.dur_ns)
            .sum()
    }

    /// Drops every span, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// The spans as Chrome trace-event JSON (`"ph": "X"` complete
    /// events, microsecond timestamps), viewable in any trace viewer.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push_str(",\n");
            }
            let parent = if span.parent == ROOT {
                -1
            } else {
                i64::from(span.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{index},\"parent\":{parent},\"id\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.dur_ns as f64 / 1e3,
                span.id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.time("vm.run_for", ROOT, 0, || 7), 7);
        let open = rec.open("request", ROOT, 1, Instant::now());
        rec.close(open, Instant::now());
        assert!(rec.spans().is_empty());
        assert_eq!(open, ROOT);
    }

    #[test]
    fn open_close_nests_children() {
        let mut rec = Recorder::new(true);
        let start = Instant::now();
        let request = rec.open("request", ROOT, 3, start);
        rec.time("vm.client_send", request, 3, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        rec.close(request, Instant::now());
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        assert!(spans[1].dur_ns >= 1_000_000);
        assert_eq!(rec.total_ns("vm.client_send"), spans[1].dur_ns);
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"vm.client_send\""));
        assert!(json.contains("\"parent\":0"));
    }
}
