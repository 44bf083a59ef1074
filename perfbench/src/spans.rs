//! In-memory spans around the calls the replay loop makes into each layer.
//!
//! Spans are recorded from outside the program, one per public call: a
//! layer's self time is the time spent inside its calls. Every layer span
//! is a child of the `bench.step` span of the schedule step that caused it;
//! the step span's self time (loop control, bookkeeping, answering
//! retransmits) and the time between steps make up `bench.unattributed`.
//! The untraced passes use [`NoTrace`], whose calls compile to nothing.

use std::io::Write;
use std::time::Instant;

/// A layer (or harness) boundary the replay loop records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One schedule step: the root of every other span.
    Step,
    /// `FrameDecoder::feed` / `next_message`.
    Decode,
    /// `StreamReceiver::receive` / `poll`.
    Session,
    /// The front door's `submit`.
    Submit,
    /// The front door's `heartbeat`.
    Heartbeat,
    /// The front door's `tick`.
    Tick,
    /// The front door's `take_emitted`.
    Drain,
    /// The front door's `flush`.
    Flush,
    /// `ShardedSequencer::drive`.
    Drive,
}

impl Layer {
    /// Every layer below the step root.
    pub const SYSTEM: [Layer; 8] = [
        Layer::Decode,
        Layer::Session,
        Layer::Submit,
        Layer::Heartbeat,
        Layer::Tick,
        Layer::Drain,
        Layer::Flush,
        Layer::Drive,
    ];

    /// The span's module-style name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Step => "bench.step",
            Layer::Decode => "wire.decode",
            Layer::Session => "wire.session",
            Layer::Submit => "core.online.submit",
            Layer::Heartbeat => "core.online.heartbeat",
            Layer::Tick => "core.online.tick",
            Layer::Drain => "core.online.drain",
            Layer::Flush => "core.online.flush",
            Layer::Drive => "core.sharded.drive",
        }
    }
}

/// Records spans, or does nothing.
pub trait Tracer {
    /// What `begin` hands to `end`.
    type Mark: Copy;
    /// Drop anything recorded so far and measure from `base` (the timer
    /// starts).
    fn restart(&mut self, base: Instant);
    /// Open a step root caused by schedule event `cause`.
    fn begin_step(&mut self, cause: u64) -> Self::Mark;
    /// Close a step root.
    fn end_step(&mut self, mark: Self::Mark);
    /// Open a layer span.
    fn begin(&mut self) -> Self::Mark;
    /// Close a layer span caused by frame or message `cause`.
    fn end(&mut self, mark: Self::Mark, layer: Layer, cause: u64);
}

/// The tracer of untraced passes.
pub struct NoTrace;

impl Tracer for NoTrace {
    type Mark = ();
    #[inline(always)]
    fn restart(&mut self, _base: Instant) {}
    #[inline(always)]
    fn begin_step(&mut self, _cause: u64) {}
    #[inline(always)]
    fn end_step(&mut self, _mark: ()) {}
    #[inline(always)]
    fn begin(&mut self) {}
    #[inline(always)]
    fn end(&mut self, _mark: (), _layer: Layer, _cause: u64) {}
}

/// One recorded span. Times are ns since the pass started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// The frame ordinal, message id or step index that caused it.
    pub cause: u64,
    /// Index of the parent span; `u32::MAX` for a step root.
    pub parent: u32,
    /// The layer.
    pub layer: Layer,
}

const ROOT: u32 = u32::MAX;

/// The tracer of the traced pass: spans in a preallocated vector.
pub struct Trace {
    base: Instant,
    spans: Vec<Span>,
    current_step: u32,
}

impl Trace {
    /// A tracer whose clock starts now, with room for `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Trace {
            base: Instant::now(),
            spans: Vec::with_capacity(capacity),
            current_step: ROOT,
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Tracer for Trace {
    type Mark = u64;

    fn restart(&mut self, base: Instant) {
        self.spans.clear();
        self.current_step = ROOT;
        self.base = base;
    }

    #[inline(always)]
    fn begin_step(&mut self, cause: u64) -> u64 {
        let start = self.now();
        self.current_step = self.spans.len() as u32;
        self.spans.push(Span {
            start,
            end: start,
            cause,
            parent: ROOT,
            layer: Layer::Step,
        });
        start
    }

    #[inline(always)]
    fn end_step(&mut self, _mark: u64) {
        let end = self.now();
        self.spans[self.current_step as usize].end = end;
        self.current_step = ROOT;
    }

    #[inline(always)]
    fn begin(&mut self) -> u64 {
        self.now()
    }

    #[inline(always)]
    fn end(&mut self, start: u64, layer: Layer, cause: u64) {
        let end = self.now();
        self.spans.push(Span {
            start,
            end,
            cause,
            parent: self.current_step,
            layer,
        });
    }
}

/// Per-layer self times of one traced loop.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Self time per system layer, in [`Layer::SYSTEM`] order (ns).
    pub self_ns: [u64; 8],
    /// Loop total minus every system layer's self time (ns).
    pub unattributed_ns: u64,
    /// The loop total (ns).
    pub loop_ns: u64,
}

impl Attribution {
    /// Self time of `layer` in ms.
    pub fn ms(&self, layer: Layer) -> f64 {
        let i = Layer::SYSTEM
            .iter()
            .position(|&l| l == layer)
            .expect("a system layer");
        self.self_ns[i] as f64 / 1e6
    }
}

/// Split `loop_ns` into per-layer self times and the unattributed rest.
///
/// Checks the span tree on the way: every layer span has a step parent and
/// lies inside it, siblings do not overlap, and step roots do not overlap
/// each other or run past the loop. The unattributed time is then computed
/// from the tree itself (step self times plus the gaps between steps), and
/// the split must add up to the loop total exactly.
pub fn attribute(spans: &[Span], loop_ns: u64) -> Result<Attribution, String> {
    let mut out = Attribution {
        loop_ns,
        ..Attribution::default()
    };
    let mut child_ns = vec![0u64; spans.len()];
    let mut last_end = vec![0u64; spans.len()];
    let mut roots_ns = 0u64;
    let mut prev_root_end = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ends before it starts"));
        }
        if s.parent == ROOT {
            if s.layer != Layer::Step || s.start < prev_root_end || s.end > loop_ns {
                return Err(format!(
                    "step span {i} overlaps its neighbours or the loop end"
                ));
            }
            prev_root_end = s.end;
            roots_ns += s.end - s.start;
            continue;
        }
        let p = s.parent as usize;
        let parent = spans
            .get(p)
            .ok_or_else(|| format!("span {i} has no parent"))?;
        if parent.layer != Layer::Step {
            return Err(format!("span {i} is not a child of a step"));
        }
        // The parent's end is filled in after its children are pushed, so
        // a child only has to start after the parent starts; the end check
        // runs below once every end is known.
        if s.start < parent.start || s.start < last_end[p] {
            return Err(format!("span {i} overlaps its parent's start or a sibling"));
        }
        last_end[p] = s.end;
        child_ns[p] += s.end - s.start;
        let k = Layer::SYSTEM
            .iter()
            .position(|&l| l == s.layer)
            .expect("a system layer");
        out.self_ns[k] += s.end - s.start;
    }
    let mut step_self = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.parent == ROOT {
            if last_end[i] > s.end {
                return Err(format!("a child of step span {i} outlives it"));
            }
            step_self += s.end - s.start - child_ns[i];
        }
    }
    out.unattributed_ns = step_self + (loop_ns - roots_ns);
    let total: u64 = out.self_ns.iter().sum::<u64>() + out.unattributed_ns;
    if total != loop_ns {
        return Err(format!(
            "self times add up to {total} ns, loop took {loop_ns} ns"
        ));
    }
    Ok(out)
}

/// Write up to `limit` spans as tab-separated lines (index, parent, layer,
/// cause, start ns, end ns).
pub fn write_spans(path: &std::path::Path, spans: &[Span], limit: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tparent\tlayer\tcause\tstart_ns\tend_ns")?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = if s.parent == ROOT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}",
            s.layer.name(),
            s.cause,
            s.start,
            s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u32, layer: Layer) -> Span {
        Span {
            start,
            end,
            cause: 0,
            parent,
            layer,
        }
    }

    #[test]
    fn self_times_and_unattributed_add_up() {
        let spans = vec![
            span(10, 50, ROOT, Layer::Step),
            span(12, 20, 0, Layer::Decode),
            span(20, 45, 0, Layer::Submit),
            span(60, 70, ROOT, Layer::Step),
            span(61, 69, 3, Layer::Tick),
        ];
        let a = attribute(&spans, 100).unwrap();
        assert_eq!(a.self_ns[0], 8);
        assert_eq!(a.self_ns[2], 25);
        assert_eq!(a.self_ns[4], 8);
        // Step self: 40 - 33 + 10 - 8 = 9; gaps: 100 - 50 = 50.
        assert_eq!(a.unattributed_ns, 59);
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let spans = vec![
            span(0, 50, ROOT, Layer::Step),
            span(5, 30, 0, Layer::Decode),
            span(20, 40, 0, Layer::Submit),
        ];
        assert!(attribute(&spans, 60).is_err());
    }

    #[test]
    fn child_outliving_its_step_is_rejected() {
        let spans = vec![
            span(0, 10, ROOT, Layer::Step),
            span(5, 30, 0, Layer::Decode),
        ];
        assert!(attribute(&spans, 60).is_err());
    }
}
