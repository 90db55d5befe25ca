//! Bench-owned spans around the calls into each layer.
//!
//! The traced run wraps every call it makes into a layer's public
//! functions in a span (name, layer, operation id, parent, start,
//! end), keeps the spans in memory and writes them out at exit. A
//! layer's number is the *self time* of its spans: a span's duration
//! minus the part its child spans cover. The spans live in the bench,
//! not in the program, so the untraced runs pay nothing for them.

use std::io::Write;
use std::time::Instant;

/// The workspace crates a traced operation can spend time in, plus
/// the bench itself (root spans: the re-enactment's own bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Bench,
    Servetier,
    Policy,
    Engine,
    Sparsemat,
    Reorder,
    Spmv,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Bench,
        Layer::Servetier,
        Layer::Policy,
        Layer::Engine,
        Layer::Sparsemat,
        Layer::Reorder,
        Layer::Spmv,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Servetier => "servetier",
            Layer::Policy => "policy",
            Layer::Engine => "engine",
            Layer::Sparsemat => "sparsemat",
            Layer::Reorder => "reorder",
            Layer::Spmv => "spmv",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    /// Index of the operation within its slice: the identifier the
    /// spans of one request share.
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Self time per layer, nanoseconds, indexed like [`Layer::ALL`].
pub type LayerNs = [u64; Layer::ALL.len()];

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// A disabled tracer records nothing: `span` is a plain call. The
    /// traced run replays with both to price its own spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Subsequent spans belong to operation `op`.
    pub fn begin_op(&mut self, op: u32) {
        debug_assert!(self.open.is_empty(), "operation begun inside a span");
        self.op = op;
    }

    /// Run `f` inside a span; spans `f` opens become its children.
    pub fn span<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        result
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drop the recorded spans (the next slice starts empty).
    pub fn clear(&mut self) {
        debug_assert!(self.open.is_empty(), "cleared inside a span");
        self.spans.clear();
    }

    /// Self time of every span, in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let covered = s.end_ns - s.start_ns;
                own[p as usize] = own[p as usize].saturating_sub(covered);
            }
        }
        own
    }

    /// Self time summed by layer.
    pub fn layer_self_ns(&self) -> LayerNs {
        let mut sums = [0u64; Layer::ALL.len()];
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            sums[span.layer as usize] += own;
        }
        sums
    }

    /// Total duration of the root spans.
    #[cfg(test)]
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// One JSON object per span, as an array.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]")
    }
}

/// A tracer over a sequence of replayed slices: per-layer self time of
/// every slice, and the first slice's spans kept for the trace file.
pub struct SliceTracer {
    pub tracer: Tracer,
    /// Self time per layer of every replayed slice, nanoseconds.
    pub layer_ns: Vec<LayerNs>,
    pub first_slice: Option<Tracer>,
}

impl SliceTracer {
    /// With `enabled` false the spans are plain calls and nothing is
    /// kept: the span-overhead baseline.
    pub fn new(enabled: bool) -> SliceTracer {
        SliceTracer {
            tracer: Tracer::new(enabled),
            layer_ns: Vec::new(),
            first_slice: None,
        }
    }

    pub fn begin_slice(&mut self) {
        self.tracer.clear();
    }

    pub fn end_slice(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        self.layer_ns.push(self.tracer.layer_self_ns());
        if self.first_slice.is_none() {
            self.first_slice = Some(std::mem::replace(&mut self.tracer, Tracer::new(true)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t0 = Instant::now();
        while (t0.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    fn sample_trace() -> Tracer {
        let mut t = Tracer::new(true);
        for op in 0..3 {
            t.begin_op(op);
            t.span(Layer::Bench, "request", |t| {
                t.span(Layer::Policy, "decide", |_| busy(2_000));
                t.span(Layer::Engine, "submit", |t| {
                    busy(1_000);
                    t.span(Layer::Reorder, "compute", |_| busy(3_000));
                });
                t.span(Layer::Spmv, "execute", |_| busy(2_000));
            });
        }
        t
    }

    #[test]
    fn self_times_sum_to_the_roots() {
        let t = sample_trace();
        assert_eq!(t.spans().len(), 15);
        let own: u64 = t.self_ns().iter().sum();
        assert_eq!(own, t.root_ns());
        assert_eq!(t.layer_self_ns().iter().sum::<u64>(), t.root_ns());
        // The engine span's self time excludes the reorder child.
        let by_layer = t.layer_self_ns();
        assert!(by_layer[Layer::Reorder as usize] >= 9_000);
        assert!(by_layer[Layer::Engine as usize] >= 3_000);
        assert!(by_layer[Layer::Engine as usize] < by_layer[Layer::Reorder as usize]);
    }

    #[test]
    fn spans_carry_parent_and_operation() {
        let t = sample_trace();
        let s = &t.spans()[8];
        assert_eq!((s.name, s.op, s.parent), ("compute", 1, Some(7)));
        assert!(t.spans()[5].parent.is_none());
    }

    #[test]
    fn trace_file_is_valid_json() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_json(&mut buf).unwrap();
        let parsed = serde_json::from_str(std::str::from_utf8(&buf).unwrap()).unwrap();
        let spans = parsed.as_array().unwrap();
        assert_eq!(spans.len(), 15);
        assert_eq!(spans[3]["layer"].as_str(), Some("reorder"));
        assert!(spans[0]["parent"].is_null());
        assert_eq!(spans[3]["parent"].as_u64(), Some(2));
    }
}
