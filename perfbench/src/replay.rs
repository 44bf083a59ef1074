//! The replay loop: schedule bytes → `FrameDecoder` → `StreamReceiver` →
//! front door → `take_emitted`.
//!
//! One pass builds a fresh front door, decoder and receiver, then walks the
//! workload's schedule. In a closed-loop pass the steps run back to back;
//! in an open-loop pass each step waits for its wall due time, which maps
//! sim time linearly onto wall time. Everything the pass records for later
//! checks goes into vectors reserved before the timer starts, so the
//! harness adds nothing to the heap peak.

use crate::alloc;
use crate::spans::{Layer, Tracer};
use crate::workload::{StepKind, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use tommy_core::error::CoreError;
use tommy_core::message::{ClientId, Message};
use tommy_core::sequencer::online::{EmittedBatch, OnlineSequencer, OnlineStats};
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_core::session::SessionCounters;
use tommy_wire::frame::{encode_frame, FrameDecoder};
use tommy_wire::{StreamReceiver, WireMessage};

/// Counters read through accessors only `OnlineSequencer` exposes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    /// Registry probability queries, including the sparse engine's lazy
    /// evaluations.
    pub queries: u64,
    /// `FairOrderCounters::boundary_evals`.
    pub boundary_evals: u64,
    /// `FairOrderCounters::batch_splits`.
    pub splits: u64,
    /// `FairOrderCounters::batch_merges`.
    pub merges: u64,
    /// `IncrementalTournament::local_repairs`.
    pub local_repairs: u64,
    /// `IncrementalTournament::full_rebuilds`.
    pub full_rebuilds: u64,
}

/// The calls the replay loop makes on a front door.
pub trait FrontDoor: Sized {
    /// Whether the loop must call [`drive`](Self::drive) after each step.
    const DRIVES: bool;
    /// Construct and register every client of `w`.
    fn setup(w: &Workload) -> Self;
    /// Submit a released message; `false` if it was rejected.
    fn submit(&mut self, message: Message, at: f64) -> bool;
    /// Record a heartbeat; `false` if it was rejected.
    fn heartbeat(&mut self, client: ClientId, timestamp: f64, at: f64) -> bool;
    /// Advance the clock.
    fn tick(&mut self, at: f64);
    /// Apply queued events (sharded only).
    fn drive(&mut self, at: f64);
    /// Emit everything still pending.
    fn flush(&mut self);
    /// Drain emitted batches.
    fn take_emitted(&mut self) -> Vec<EmittedBatch>;
    /// Rejections that surfaced after submission.
    fn late_rejections(&mut self) -> usize;
    /// The front door's counters.
    fn stats(&self) -> OnlineStats;
    /// Engine counters, where the front door exposes them.
    fn engine_counts(&self) -> EngineCounts;
    /// Ids tracked for duplicate detection, where an accessor exists.
    fn tracked_ids(&self) -> Option<usize>;
    /// After a run: how many of `messages` are still rejected as
    /// duplicates, i.e. still tracked.
    fn probe_tracked(&mut self, messages: &[Message]) -> usize;
}

impl FrontDoor for OnlineSequencer {
    const DRIVES: bool = false;

    fn setup(w: &Workload) -> Self {
        let mut seq = OnlineSequencer::new(w.config);
        for (client, dist) in &w.offsets {
            seq.register_client(*client, dist.clone());
        }
        seq
    }

    fn submit(&mut self, message: Message, at: f64) -> bool {
        OnlineSequencer::submit(self, message, at).is_ok()
    }

    fn heartbeat(&mut self, client: ClientId, timestamp: f64, at: f64) -> bool {
        OnlineSequencer::heartbeat(self, client, timestamp, at).is_ok()
    }

    fn tick(&mut self, at: f64) {
        OnlineSequencer::tick(self, at);
    }

    fn drive(&mut self, _at: f64) {}

    fn flush(&mut self) {
        OnlineSequencer::flush(self);
    }

    fn take_emitted(&mut self) -> Vec<EmittedBatch> {
        OnlineSequencer::take_emitted(self)
    }

    fn late_rejections(&mut self) -> usize {
        0
    }

    fn stats(&self) -> OnlineStats {
        OnlineSequencer::stats(self)
    }

    fn engine_counts(&self) -> EngineCounts {
        let fair = self.fair_order_counters();
        EngineCounts {
            queries: self.registry().query_count(),
            boundary_evals: fair.boundary_evals,
            splits: fair.batch_splits,
            merges: fair.batch_merges,
            local_repairs: self.tournament().local_repairs(),
            full_rebuilds: self.tournament().full_rebuilds(),
        }
    }

    fn tracked_ids(&self) -> Option<usize> {
        Some(OnlineSequencer::tracked_ids(self))
    }

    fn probe_tracked(&mut self, _messages: &[Message]) -> usize {
        OnlineSequencer::tracked_ids(self)
    }
}

impl FrontDoor for ShardedSequencer {
    const DRIVES: bool = true;

    fn setup(w: &Workload) -> Self {
        let mut seq = ShardedSequencer::new(w.config);
        for (client, dist) in &w.offsets {
            seq.register_client(*client, dist.clone());
        }
        seq
    }

    fn submit(&mut self, message: Message, at: f64) -> bool {
        ShardedSequencer::submit(self, message, at).is_ok()
    }

    fn heartbeat(&mut self, client: ClientId, timestamp: f64, at: f64) -> bool {
        ShardedSequencer::heartbeat(self, client, timestamp, at).is_ok()
    }

    fn tick(&mut self, at: f64) {
        ShardedSequencer::tick(self, at);
    }

    fn drive(&mut self, at: f64) {
        ShardedSequencer::drive(self, at);
    }

    fn flush(&mut self) {
        ShardedSequencer::flush(self);
    }

    fn take_emitted(&mut self) -> Vec<EmittedBatch> {
        ShardedSequencer::take_emitted(self)
    }

    fn late_rejections(&mut self) -> usize {
        self.take_rejections().len()
    }

    fn stats(&self) -> OnlineStats {
        ShardedSequencer::stats(self)
    }

    fn engine_counts(&self) -> EngineCounts {
        EngineCounts::default()
    }

    fn tracked_ids(&self) -> Option<usize> {
        None
    }

    fn probe_tracked(&mut self, messages: &[Message]) -> usize {
        messages
            .iter()
            .filter(|m| {
                let probe = Message::new(m.id, m.client, m.timestamp);
                matches!(
                    ShardedSequencer::submit(self, probe, f64::MAX),
                    Err(CoreError::DuplicateMessage(_))
                )
            })
            .count()
    }
}

/// One emitted message, as the front door returned it.
#[derive(Debug, Clone, Copy)]
pub struct Emit {
    /// Message id.
    pub id: u64,
    /// Timestamp carried by the emitted message.
    pub timestamp: f64,
    /// Client carried by the emitted message.
    pub client: u32,
}

/// One emitted batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchRec {
    /// Rank the front door assigned.
    pub rank: usize,
    /// Sim time of emission.
    pub emitted_at: f64,
    /// Its first message in [`Pass::emits`].
    pub first: usize,
    /// Number of messages.
    pub len: usize,
    /// Wall ns since the timer started at which `take_emitted` returned
    /// it (open-loop passes only; 0 during warm-up).
    pub drained_ns: u64,
}

/// Calls made and frames seen during a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calls {
    /// Frames decoded, each handed to the receiver.
    pub frames: u64,
    /// Messages the receiver released.
    pub released: u64,
    /// Front-door submits.
    pub submits: u64,
    /// Front-door heartbeats.
    pub heartbeats: u64,
    /// Drives (sharded).
    pub drives: u64,
}

/// Everything one pass produced.
pub struct Pass {
    /// Wall ns from the first timed step to the end of the final drain.
    pub loop_ns: u64,
    /// Emitted messages, in emission order.
    pub emits: Vec<Emit>,
    /// Emitted batches, in emission order.
    pub batches: Vec<BatchRec>,
    /// Per message id: whether the session layer released it.
    pub released: Vec<bool>,
    /// Submissions and heartbeats the front door rejected.
    pub rejected: usize,
    /// Open loop: per step, ns it started after its due time.
    pub lateness_ns: Vec<u64>,
    /// Peak live heap while the timer ran, above the harness's own
    /// allocations (taken before the front door was built).
    pub peak_heap: usize,
    /// Front-door counters.
    pub stats: OnlineStats,
    /// Session-layer counters.
    pub session: SessionCounters,
    /// Engine counters.
    pub engine: EngineCounts,
    /// Calls and frames.
    pub calls: Calls,
    /// Largest tracked-id count sampled after each step (traced passes on
    /// a front door with an accessor), else the post-run probe.
    pub peak_tracked: usize,
    /// `graph::fas` exhaustive passes on this thread during the pass.
    pub exhaustive_passes: u64,
    /// Wall ns of the untimed warm-up steps.
    pub warmup_ns: u64,
    /// Messages emitted while the timer ran.
    pub timed_emitted: usize,
    /// Frames decoded while the timer ran.
    pub timed_frames: u64,
}

impl Pass {
    /// Messages emitted.
    pub fn emitted(&self) -> usize {
        self.emits.len()
    }

    /// Messages emitted while the timer ran, per wall second.
    pub fn capacity(&self) -> f64 {
        self.timed_emitted as f64 / (self.loop_ns as f64 / 1e9)
    }
}

/// How a pass paces its steps.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Back to back.
    Closed,
    /// Each step waits for its due time; the value is wall ns per sim unit.
    Open(f64),
}

/// A retransmitted frame on its way back.
struct Answer {
    at: f64,
    order: u64,
    bytes: Vec<u8>,
}

impl PartialEq for Answer {
    fn eq(&self, other: &Self) -> bool {
        self.at.total_cmp(&other.at).is_eq() && self.order == other.order
    }
}
impl Eq for Answer {}
impl PartialOrd for Answer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Answer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then(self.order.cmp(&other.order))
    }
}

/// The state of one pass.
struct Run<'w, F, T> {
    w: &'w Workload,
    front: F,
    decoder: FrameDecoder,
    rx: StreamReceiver,
    tracer: T,
    calls: Calls,
    rejected: usize,
    released: Vec<bool>,
    emits: Vec<Emit>,
    batches: Vec<BatchRec>,
    answers: BinaryHeap<Reverse<Answer>>,
    answer_order: u64,
    start: Instant,
    open: bool,
}

impl<F: FrontDoor, T: Tracer> Run<'_, F, T> {
    /// Decode every frame of one read and pass it up the stack.
    fn read(&mut self, bytes: &[u8], at: f64) {
        let mark = self.tracer.begin();
        self.decoder.feed(bytes);
        self.tracer.end(mark, Layer::Decode, self.calls.frames);
        loop {
            let mark = self.tracer.begin();
            let next = self.decoder.next_message();
            self.tracer.end(mark, Layer::Decode, self.calls.frames);
            let Some(message) = next.expect("schedule frames are well formed") else {
                break;
            };
            let frame = self.calls.frames;
            self.calls.frames += 1;
            let mark = self.tracer.begin();
            let released = self.rx.receive(message, at);
            self.tracer.end(mark, Layer::Session, frame);
            self.apply_all(released, at, frame);
        }
    }

    /// Hand released messages to the front door; `cause` is the frame or
    /// step that released them.
    fn apply_all(&mut self, released: Vec<WireMessage>, at: f64, cause: u64) {
        self.calls.released += released.len() as u64;
        for message in released {
            self.apply(message, at, cause);
        }
    }

    /// Hand one released message to the front door.
    fn apply(&mut self, message: WireMessage, at: f64, cause: u64) {
        match message {
            WireMessage::Submit {
                id,
                client,
                timestamp,
            } => {
                self.released[id.0 as usize] = true;
                let mark = self.tracer.begin();
                let ok = self.front.submit(Message::new(id, client, timestamp), at);
                self.tracer.end(mark, Layer::Submit, id.0);
                self.calls.submits += 1;
                self.rejected += usize::from(!ok);
            }
            WireMessage::Heartbeat { client, timestamp } => {
                let mark = self.tracer.begin();
                let ok = self.front.heartbeat(client, timestamp, at);
                self.tracer.end(mark, Layer::Heartbeat, cause);
                self.calls.heartbeats += 1;
                self.rejected += usize::from(!ok);
            }
            other => panic!("the schedule holds no {other:?}"),
        }
    }

    /// Run the session layer's recovery timer and answer retransmit
    /// requests from sender history, one round trip later.
    fn poll(&mut self, at: f64, cause: u64) {
        let mark = self.tracer.begin();
        let poll = self.rx.poll(at);
        self.tracer.end(mark, Layer::Session, cause);
        self.apply_all(poll.released, at, cause);
        for request in poll.retransmits {
            let frame = self.w.senders[&request.sender]
                .frame(request.sequence)
                .expect("sender history holds every sent frame");
            self.answer_order += 1;
            self.answers.push(Reverse(Answer {
                at: at + 2.0 * self.w.delay_of(request.sender),
                order: self.answer_order,
                bytes: encode_frame(frame).to_vec(),
            }));
        }
    }

    /// Drain emitted batches into the pass log.
    fn drain(&mut self, cause: u64) {
        let mark = self.tracer.begin();
        let out = self.front.take_emitted();
        self.tracer.end(mark, Layer::Drain, cause);
        if out.is_empty() {
            return;
        }
        let drained_ns = if self.open {
            self.start.elapsed().as_nanos() as u64
        } else {
            0
        };
        for batch in out {
            self.batches.push(BatchRec {
                rank: batch.rank,
                emitted_at: batch.emitted_at,
                first: self.emits.len(),
                len: batch.messages.len(),
                drained_ns,
            });
            for m in batch.messages {
                self.emits.push(Emit {
                    id: m.id.0,
                    timestamp: m.timestamp,
                    client: m.client.0,
                });
            }
        }
    }
}

/// Spin until `due_ns` after `start`; returns the wall ns at which the
/// wait ended.
fn wait_until(start: Instant, due_ns: u64) -> u64 {
    loop {
        let now = start.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Run one pass of `w` through front door `F`.
///
/// The first [`Workload::warmup_steps`] steps run untimed and back to
/// back, so caches the front door fills lazily (the registry's per-pair
/// difference distributions above all) are warm when the timer starts.
/// The timer, the heap peak and the tracer all start at the first timed
/// step; an open-loop pass schedules due times from there.
pub fn run_pass<F: FrontDoor, T: Tracer>(
    w: &Workload,
    pace: Pace,
    tracer: T,
    sample_tracked: bool,
) -> (Pass, T) {
    let n = w.messages.len();
    let released = vec![false; n];
    let emits = Vec::with_capacity(n);
    let batches = Vec::with_capacity(n);
    let mut lateness_ns = Vec::with_capacity(match pace {
        Pace::Open(_) => w.steps.len() + w.frames_sent,
        Pace::Closed => 0,
    });
    // Everything allocated from here on belongs to the system (or to the
    // retransmit queue, which stays small).
    let baseline = alloc::live();
    let mut run = Run {
        w,
        front: F::setup(w),
        decoder: FrameDecoder::new(),
        rx: StreamReceiver::new(w.policy),
        tracer,
        calls: Calls::default(),
        rejected: 0,
        released,
        emits,
        batches,
        answers: BinaryHeap::new(),
        answer_order: 0,
        start: Instant::now(),
        open: matches!(pace, Pace::Open(_)),
    };
    let mut peak_tracked = 0usize;
    let fas_before = tommy_core::graph::fas::exhaustive_passes();
    let warmup_start = Instant::now();
    let mut warmup_ns = 0u64;
    let mut timed = false;
    let mut timed_emit_base = 0usize;
    let mut timed_frame_base = 0u64;
    let mut next = 0usize;
    let mut cause = 0u64;
    loop {
        if !timed && next >= w.warmup_steps {
            timed = true;
            warmup_ns = warmup_start.elapsed().as_nanos() as u64;
            timed_emit_base = run.emits.len();
            timed_frame_base = run.calls.frames;
            alloc::reset_peak();
            run.start = Instant::now();
            run.tracer.restart(run.start);
        }
        let answer_first = match (w.steps.get(next), run.answers.peek()) {
            (None, None) => break,
            (Some(step), Some(Reverse(answer))) => answer.at < step.at,
            (None, Some(_)) => true,
            (Some(_), None) => false,
        };
        let at = if answer_first {
            run.answers.peek().expect("peeked").0.at
        } else {
            w.steps[next].at
        };
        if let (true, Pace::Open(ns_per_unit)) = (timed, pace) {
            let due = ((at - w.timed_t0).max(0.0) * ns_per_unit) as u64;
            let started = wait_until(run.start, due);
            lateness_ns.push(started - due);
        }
        let root = run.tracer.begin_step(cause);
        if answer_first {
            let Reverse(answer) = run.answers.pop().expect("peeked");
            run.read(&answer.bytes, at);
        } else {
            match w.steps[next].kind {
                StepKind::Chunk { start, end } => run.read(&w.bytes[start..end], at),
                StepKind::Tick => {
                    let mark = run.tracer.begin();
                    run.front.tick(at);
                    run.tracer.end(mark, Layer::Tick, cause);
                }
            }
            next += 1;
        }
        if w.streamed {
            run.poll(at, cause);
        }
        if F::DRIVES {
            let mark = run.tracer.begin();
            run.front.drive(at);
            run.tracer.end(mark, Layer::Drive, cause);
            run.calls.drives += 1;
        }
        run.drain(cause);
        if sample_tracked {
            if let Some(tracked) = run.front.tracked_ids() {
                peak_tracked = peak_tracked.max(tracked);
            }
        }
        run.tracer.end_step(root);
        cause += 1;
    }
    let root = run.tracer.begin_step(cause);
    let mark = run.tracer.begin();
    run.front.flush();
    run.tracer.end(mark, Layer::Flush, cause);
    run.drain(cause);
    run.tracer.end_step(root);
    let loop_ns = run.start.elapsed().as_nanos() as u64;
    let peak_heap = alloc::peak().saturating_sub(baseline);

    let exhaustive_passes = tommy_core::graph::fas::exhaustive_passes() - fas_before;
    let rejected = run.rejected + run.front.late_rejections();
    let stats = run.front.stats();
    let engine = run.front.engine_counts();
    if sample_tracked && run.front.tracked_ids().is_none() {
        peak_tracked = run.front.probe_tracked(&w.messages);
    }
    let timed_emitted = run.emits.len() - timed_emit_base;
    let pass = Pass {
        loop_ns,
        emits: run.emits,
        batches: run.batches,
        released: run.released,
        rejected,
        lateness_ns,
        peak_heap,
        stats,
        session: run.rx.counters(),
        engine,
        calls: run.calls,
        peak_tracked,
        exhaustive_passes,
        warmup_ns,
        timed_emitted,
        timed_frames: run.calls.frames - timed_frame_base,
    };
    (pass, run.tracer)
}

/// Time `reps` back-to-back set-ups of the front door, decoder and
/// receiver; returns the seconds one took on average.
pub fn time_setups<F: FrontDoor>(w: &Workload, reps: usize) -> f64 {
    let mut built = Vec::with_capacity(reps);
    let start = Instant::now();
    for _ in 0..reps {
        built.push((
            F::setup(w),
            FrameDecoder::new(),
            StreamReceiver::new(w.policy),
        ));
    }
    let secs = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(built));
    secs / reps as f64
}
