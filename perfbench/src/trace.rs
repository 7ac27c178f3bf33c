//! Host-time spans recorded around the public calls the benchmark makes
//! into each layer, kept in memory and written out as a chrome trace.
//!
//! A disabled recorder still times every call (the untraced run needs the
//! host time spent inside the system) but stores nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call enters, e.g. `serve.batcher`.
    pub layer: &'static str,
    /// The public call, e.g. `MicroBatcher::submit`.
    pub call: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id on the serving workloads.
    pub request: Option<u64>,
}

/// In-memory span recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses later ones until [`Tracer::close`].
    pub fn open(&mut self, layer: &'static str, call: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            call,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` as one call into `layer`, returning its result and the host
    /// seconds it took. The span is recorded only when tracing is on.
    pub fn call<T>(
        &mut self,
        layer: &'static str,
        call: &'static str,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        if self.enabled {
            let start_ns = t0.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                layer,
                call,
                start_ns,
                end_ns: start_ns + (secs * 1e9) as u64,
                parent: self.open.last().copied(),
                request,
            });
        }
        (out, secs)
    }

    /// Per `(layer, call)`: call count, total host seconds, and self
    /// seconds (duration minus the part covered by child spans).
    pub fn self_times(&self) -> BTreeMap<(&'static str, &'static str), (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry((s.layer, s.call)).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 / 1e9;
        }
        out
    }

    /// The spans as a chrome://tracing JSON document.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                s.call,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
