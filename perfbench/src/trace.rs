//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the library's public functions
//! (the library itself is not instrumented). Every span carries its
//! parent and the id of the end-to-end operation it belongs to; a
//! layer's self time is its span minus the time its child spans cover.
//! When tracing is off, `begin`/`end` record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    op: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

/// Handle returned by [`Tracer::begin`]; `usize::MAX` when tracing is off.
#[derive(Clone, Copy)]
pub struct Open(usize);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Starts a root span: a new end-to-end operation.
    pub fn begin_op(&mut self, name: &'static str) -> Open {
        if self.on {
            self.next_op += 1;
        }
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.stack.last().copied(),
            op: self.next_op,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if open.0 == usize::MAX {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close innermost first");
        self.spans[open.0].end = self.epoch.elapsed().as_secs_f64();
    }

    /// Times `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open);
        r
    }

    /// Per span: its duration minus the durations of its direct children.
    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.secs() - c)
            .collect()
    }

    /// Per operation whose root span is named `root`: the self times of
    /// the spans under the root, summed by name.
    pub fn ops(&self, root: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let selfs = self.self_times();
        let mut by_op: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_none() && s.name == root {
                by_op.insert(s.op, BTreeMap::new());
            }
        }
        for (s, own) in self.spans.iter().zip(&selfs) {
            if s.parent.is_some() {
                if let Some(layers) = by_op.get_mut(&s.op) {
                    *layers.entry(s.name).or_default() += own;
                }
            }
        }
        by_op.into_values().collect()
    }

    /// Median over operations named `root` of the self time of layer
    /// `name` (summed within each operation).
    pub fn layer(&self, root: &str, name: &str) -> f64 {
        let v: Vec<f64> = self
            .ops(root)
            .iter()
            .map(|l| l.get(name).copied().unwrap_or(0.0))
            .collect();
        crate::median(&v)
    }

    /// Median over operations named `root` of all layer self times.
    pub fn covered(&self, root: &str) -> f64 {
        let v: Vec<f64> = self.ops(root).iter().map(|l| l.values().sum()).collect();
        crate::median(&v)
    }

    /// Over operations named `root`: the median time the root span spends
    /// outside every layer span, and the median duration of the root.
    pub fn unattributed(&self, root: &str) -> (f64, f64) {
        let selfs = self.self_times();
        let (outside, duration): (Vec<f64>, Vec<f64>) = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.parent.is_none() && s.name == root)
            .map(|(s, own)| (*own, s.secs()))
            .unzip();
        (crate::median(&outside), crate::median(&duration))
    }

    /// The layer with the largest self time summed over operations named
    /// `root`.
    pub fn largest(&self, root: &str) -> String {
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        for l in &self.ops(root) {
            for (k, v) in l {
                *sums.entry(k).or_default() += v;
            }
        }
        sums.into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or_else(|| "none".to_owned(), |(k, _)| k.to_owned())
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// The spans as JSON lines: name, start and end in µs since the
    /// tracer was created, parent index, operation id.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                parent,
                s.op
            );
        }
        out
    }
}
