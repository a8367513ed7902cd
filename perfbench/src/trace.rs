//! Spans recorded by the benchmark around its own calls into the
//! program's layers. Spans stay in memory and are written out when the
//! run ends; nothing is recorded inside the program itself.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `name` is the layer function called, `op` the
/// operation (protocol run, request, launch) it served, `parent` the
/// index of the enclosing span in the same recorder, `None` for an
/// operation's root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A span recorder. When off, [`Tracer::op`] and [`Tracer::span`] only
/// call their closure, so the untraced pass pays nothing for it.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next_op: u64,
    stack: Vec<(usize, u64)>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, t0: Instant) -> Self {
        Tracer {
            on,
            t0,
            next_op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` as a new operation with the next free op id.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.next_op;
        self.op_as(name, id, f)
    }

    /// Run `f` as operation `id` (a request's index, say), so spans of
    /// the same request recorded in different passes share their id.
    pub fn op_as<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.next_op = self.next_op.max(id + 1);
        self.record(name, None, id, f)
    }

    /// Run `f` as a call into a layer, inside the current operation.
    ///
    /// # Panics
    ///
    /// Panics when tracing is on and no operation is open: every span
    /// must belong to an operation.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let &(parent, op) = self
            .stack
            .last()
            .expect("a layer span must be opened inside an operation");
        self.record(name, Some(parent), op, f)
    }

    /// [`Tracer::span`], also returning the call's wall time in µs
    /// (measured whether or not tracing is on).
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let start = Instant::now();
        let out = self.span(name, f);
        (out, start.elapsed().as_secs_f64() * 1e6)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: start_us,
        });
        self.stack.push((index, op));
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_us = self.now_us();
        out
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another recorder's spans (a client thread's), shifting
    /// their parent indices past this recorder's own.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.next_op = self.next_op.max(other.next_op);
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    /// Durations in µs of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}{}",
                s.name,
                s.op,
                s.start_us,
                s.end_us,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}
