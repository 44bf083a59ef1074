//! The Tommy sequencers.
//!
//! * [`core`] — [`SequencingCore`], the pipeline tail both sequencers share:
//!   linear order ([`crate::tournament::IncrementalTournament`]) → fair
//!   order (threshold batching, maintained incrementally by
//!   [`crate::batching::IncrementalFairOrder`]) → the candidate/outcome
//!   accessors the emission schedule is derived from. The online sequencer
//!   maintains one core incrementally across arrivals and emissions; the
//!   offline sequencer loads a prebuilt matrix into the same core one-shot,
//!   so both produce their fair order through one code path.
//! * [`offline`] — the batch-mode sequencer of §3.4: all messages are present
//!   before sequencing begins (this is the mode the paper evaluates in §4).
//! * [`online`] — the streaming sequencer of §3.5: messages arrive over time,
//!   and a batch is emitted only once its safe-emission time has passed and
//!   per-client watermarks prove that no message that belongs in (or before)
//!   the batch can still be in flight.
//! * [`sharded`] — `K` online engines behind a watermark-driven cross-shard
//!   merge. [`StreamEngine`] is the driving surface both online front doors
//!   share, so stream drivers and differential tests run either one through
//!   the same code.
//! * [`emission`] — safe-emission time computation (`T^F_i`, `T_b`).
//! * [`watermark`] — per-client completeness tracking via messages and
//!   heartbeats over ordered channels.
//! * `sparse` (private) — the sub-quadratic Gaussian fast path: when every
//!   registered client has a closed-form kernel, the online sequencer keeps
//!   its order in an order-statistics treap keyed by margin-adjusted
//!   timestamps and evaluates probabilities lazily, never materializing a
//!   dense matrix column (see `ARCHITECTURE.md`, "Sparse fast path").

pub mod core;
pub mod emission;
pub mod offline;
pub mod online;
pub mod sharded;
mod sparse;
pub mod watermark;

pub use self::core::{SequencingCore, SequencingOutcome};
pub use emission::{batch_emission_time, batch_emission_time_over, safe_emission_time};
pub use offline::TommySequencer;
pub use online::{CandidateStatus, EmittedBatch, OnlineSequencer, OnlineStats};
pub use sharded::ShardedSequencer;
pub use watermark::WatermarkTracker;

use crate::config::SequencerConfig;
use crate::error::CoreError;
use crate::message::{ClientId, Message};
use crate::session::SessionCounters;
use tommy_stats::distribution::OffsetDistribution;

/// The common driving surface of the online engines: submit/heartbeat with
/// an arrival clock, advance time, close out, and drain emitted batches.
///
/// [`OnlineSequencer`] applies every event eagerly, so [`pump`](Self::pump)
/// is a no-op; [`ShardedSequencer`] queues events per shard, so `pump`
/// drives the queues through the cross-shard merge. Drivers call `pump`
/// after every submission and get the right behavior from both.
pub trait StreamEngine {
    /// Create an engine with no registered clients.
    fn from_config(config: SequencerConfig) -> Self
    where
        Self: Sized;
    /// Register (or re-register) a client's claimed offset distribution.
    fn register(&mut self, client: ClientId, dist: OffsetDistribution);
    /// Submit a message observed at `arrival` on the sequencer's clock.
    fn submit_at(&mut self, message: Message, arrival: f64) -> Result<(), CoreError>;
    /// Record a client heartbeat observed at `arrival`.
    fn heartbeat_at(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival: f64,
    ) -> Result<(), CoreError>;
    /// Apply any queued work up to `now` (no-op for eager engines).
    fn pump(&mut self, now: f64);
    /// Advance the sequencer clock to `now`, releasing what became safe.
    fn tick_at(&mut self, now: f64);
    /// Force out everything still pending, watermarks notwithstanding.
    fn flush_all(&mut self);
    /// Drain the emitted-batch buffer.
    fn drain(&mut self) -> Vec<EmittedBatch>;
    /// Batches emitted and not yet drained.
    fn undrained(&self) -> usize;
    /// Message ids currently tracked for duplicate detection.
    fn tracked_ids(&self) -> usize;
    /// The run's counters.
    fn stats(&self) -> OnlineStats;
    /// Record the delivery layer's cumulative session counters onto
    /// [`stats`](Self::stats).
    fn record_session_counters(&mut self, counters: SessionCounters);
    /// Rejections that surfaced while applying queued events (eager engines
    /// return every error synchronously, so theirs is always empty).
    fn take_rejections(&mut self) -> Vec<CoreError> {
        Vec::new()
    }
}

impl StreamEngine for OnlineSequencer {
    fn from_config(config: SequencerConfig) -> Self {
        OnlineSequencer::new(config)
    }
    fn register(&mut self, client: ClientId, dist: OffsetDistribution) {
        self.register_client(client, dist);
    }
    fn submit_at(&mut self, message: Message, arrival: f64) -> Result<(), CoreError> {
        self.submit(message, arrival).map(|_| ())
    }
    fn heartbeat_at(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival: f64,
    ) -> Result<(), CoreError> {
        self.heartbeat(client, timestamp, arrival).map(|_| ())
    }
    fn pump(&mut self, _now: f64) {}
    fn tick_at(&mut self, now: f64) {
        self.tick(now);
    }
    fn flush_all(&mut self) {
        self.flush();
    }
    fn drain(&mut self) -> Vec<EmittedBatch> {
        self.take_emitted()
    }
    fn undrained(&self) -> usize {
        self.emitted().len()
    }
    fn tracked_ids(&self) -> usize {
        OnlineSequencer::tracked_ids(self)
    }
    fn stats(&self) -> OnlineStats {
        OnlineSequencer::stats(self)
    }
    fn record_session_counters(&mut self, counters: SessionCounters) {
        OnlineSequencer::record_session_counters(self, counters);
    }
}

impl StreamEngine for ShardedSequencer {
    fn from_config(config: SequencerConfig) -> Self {
        ShardedSequencer::new(config)
    }
    fn register(&mut self, client: ClientId, dist: OffsetDistribution) {
        self.register_client(client, dist);
    }
    fn submit_at(&mut self, message: Message, arrival: f64) -> Result<(), CoreError> {
        self.submit(message, arrival)
    }
    fn heartbeat_at(
        &mut self,
        client: ClientId,
        timestamp: f64,
        arrival: f64,
    ) -> Result<(), CoreError> {
        self.heartbeat(client, timestamp, arrival)
    }
    fn pump(&mut self, now: f64) {
        self.drive(now);
    }
    fn tick_at(&mut self, now: f64) {
        self.tick(now);
    }
    fn flush_all(&mut self) {
        self.flush();
    }
    fn drain(&mut self) -> Vec<EmittedBatch> {
        self.take_emitted()
    }
    fn undrained(&self) -> usize {
        self.emitted().len()
    }
    fn tracked_ids(&self) -> usize {
        ShardedSequencer::tracked_ids(self)
    }
    fn stats(&self) -> OnlineStats {
        ShardedSequencer::stats(self)
    }
    fn record_session_counters(&mut self, counters: SessionCounters) {
        ShardedSequencer::record_session_counters(self, counters);
    }
    fn take_rejections(&mut self) -> Vec<CoreError> {
        ShardedSequencer::take_rejections(self)
    }
}
