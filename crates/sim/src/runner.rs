//! Scenario runners: the offline comparison and the streaming driver.
//!
//! An offline run follows the paper's §4 evaluation exactly: seed every
//! client with a Gaussian clock-offset distribution, generate ground-truth
//! events with a controlled inter-message gap, tag each with `T = t + ε`,
//! hand the full message set to each sequencer (Tommy, TrueTime, WFO), and
//! score every output against the omniscient observer with the Rank
//! Agreement Score.
//!
//! A streaming run ([`run_stream`]) follows §3.5's online discipline and is
//! built from four shared parts: one `schedule` (true-time order, the
//! heartbeat fan-out, the monotone clamp), one `stream_config`, one
//! engine side generic over [`StreamEngine`] (apply, drain after every
//! submission, score), and two [`Delivery`] paths that consume the same
//! schedule — `Direct` (constant delay) and `Wire` (the fault-injected
//! network of [`crate::faults`]).

use crate::faults::{WireReport, FAULT_STALENESS_DEADLINE};
use crate::scenario::ScenarioConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use tommy_core::baselines::{TrueTimeSequencer, WfoSequencer};
use tommy_core::batching::FairOrder;
use tommy_core::config::{LivenessConfig, SequencerConfig};
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::registry::DistributionRegistry;
use tommy_core::sequencer::offline::TommySequencer;
use tommy_core::sequencer::online::OnlineStats;
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_core::sequencer::StreamEngine;
use tommy_metrics::batchstats::BatchStats;
use tommy_metrics::ras::{
    partitioned_rank_agreement_score, rank_agreement_score, PartitionedRas, RasScore,
};
use tommy_netsim::FaultPlan;
use tommy_stats::distribution::OffsetDistribution;
use tommy_wire::{RecoveryPolicy, WireMessage};
use tommy_workload::intransitive::IntransitiveWorkload;
use tommy_workload::population::ClockPopulation;
use tommy_workload::tagging::tag_messages;
use tommy_workload::uniform::UniformWorkload;

/// The scored output of one scenario for all compared sequencers.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonResult {
    /// RAS of the Tommy offline sequencer.
    pub tommy: RasScore,
    /// RAS of the TrueTime-style baseline.
    pub truetime: RasScore,
    /// RAS of the WaitsForOne baseline (timestamp sort).
    pub wfo: RasScore,
    /// Batch statistics of Tommy's output.
    pub tommy_batches: BatchStats,
    /// Batch statistics of TrueTime's output.
    pub truetime_batches: BatchStats,
    /// Whether Tommy's tournament was transitive (expected `true` for
    /// Gaussian offsets, Appendix A).
    pub transitive: bool,
}

/// The intransitive workload a scenario resolves to, when its
/// [`ScenarioConfig::cyclic_fraction`] is non-zero: the scenario's honest
/// population (same client count, σ, and spacing) plus the three Condorcet
/// clients whose bursts make up `cyclic_fraction` of the stream. The dice
/// scale tracks the clock error so cycle margins stay well resolved.
pub fn scenario_workload(config: &ScenarioConfig) -> Option<IntransitiveWorkload> {
    if config.cyclic_fraction <= 0.0 {
        return None;
    }
    Some(
        IntransitiveWorkload::new(config.clients, config.messages, config.cyclic_fraction)
            .with_scale(10.0 * config.clock_std_dev.max(1.0))
            .with_honest_std_dev(config.clock_std_dev.max(1e-3))
            .with_spacing(config.inter_message_gap.max(1e-3)),
    )
}

/// The per-client offset distributions of a scenario — the seeds every
/// sequencer registers (§4's oracle assumption). All-Gaussian for the
/// default transitive setting; dice + honest for cyclic scenarios.
pub fn scenario_offsets(config: &ScenarioConfig) -> Vec<(ClientId, OffsetDistribution)> {
    match scenario_workload(config) {
        Some(workload) => workload.offsets(),
        None => (0..config.clients as u32)
            .map(|c| {
                (
                    ClientId(c),
                    OffsetDistribution::gaussian(0.0, config.clock_std_dev),
                )
            })
            .collect(),
    }
}

/// The distributions the sequencers are *told*: the truth
/// ([`scenario_offsets`]) for honest scenarios, a composed lie for the
/// misreporting attackers of an adversarial misreport scenario (deflated σ
/// and a stale mean; see `tommy_workload::adversarial`). Drift and collusion
/// plans claim the truth — those attacks live in the timestamps.
pub fn scenario_claimed_offsets(config: &ScenarioConfig) -> Vec<(ClientId, OffsetDistribution)> {
    let truth = scenario_offsets(config);
    match &config.adversarial {
        Some(plan) => plan.claimed_offsets(&truth),
        None => truth,
    }
}

/// Generate the messages of a scenario (shared by the offline comparison and
/// the online experiments).
///
/// Inter-message gaps are exponentially distributed with mean
/// `inter_message_gap` (a Poisson-like auction burst), so adjacent gaps span
/// a range of values instead of being all identical — the same spread the
/// paper's workload exhibits and what gives Figure 5 its smooth shape.
/// Scenarios with a non-zero [`ScenarioConfig::cyclic_fraction`] delegate to
/// the Condorcet-burst generator ([`scenario_workload`]) instead.
pub fn generate_messages(config: &ScenarioConfig, rng: &mut StdRng) -> Vec<Message> {
    let honest = generate_honest_messages(config, rng);
    match &config.adversarial {
        // The distortion is deterministic, so seeded adversarial scenarios
        // are exactly as reproducible as their honest generator.
        Some(plan) => plan.apply(&honest),
        None => honest,
    }
}

/// The honest stream of a scenario, before any adversarial distortion.
fn generate_honest_messages(config: &ScenarioConfig, rng: &mut StdRng) -> Vec<Message> {
    if let Some(workload) = scenario_workload(config) {
        return workload.generate(rng);
    }
    let population = ClockPopulation::gaussian(config.clock_std_dev);
    let clocks = population.build(config.clients, rng);
    let events = if config.inter_message_gap > 0.0 {
        let gap_dist = OffsetDistribution::shifted_exponential(0.0, 1.0 / config.inter_message_gap);
        let mut t = 0.0;
        (0..config.messages)
            .map(|_| {
                use tommy_stats::distribution::Distribution as _;
                t += gap_dist.sample(rng);
                let client = ClientId(rand::Rng::random_range(rng, 0..config.clients as u32));
                tommy_workload::events::GenerationEvent::new(client, t)
            })
            .collect()
    } else {
        let workload =
            UniformWorkload::new(config.clients, config.messages, config.inter_message_gap)
                .with_shuffled_clients();
        workload.generate(rng)
    };
    tag_messages(&events, &clocks, 0, rng)
}

/// Build a registry seeded with the distributions the sequencers are told —
/// the oracle truth for honest scenarios (the §4 setting: "we seed the
/// clients with clock offsets distributions, instead of clients learning
/// such distributions"), the misreporters' claims under attack.
pub fn oracle_registry(config: &ScenarioConfig) -> DistributionRegistry {
    let mut registry = DistributionRegistry::new();
    for (client, dist) in scenario_claimed_offsets(config) {
        registry.register(client, dist);
    }
    registry
}

/// Run one offline comparison scenario.
pub fn run_offline_comparison(config: &ScenarioConfig) -> ComparisonResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let messages = generate_messages(config, &mut rng);

    // Tommy.
    let seq_config = SequencerConfig::default()
        .with_threshold(config.threshold)
        .with_parallelism(config.parallelism);
    let mut tommy = TommySequencer::new(seq_config);
    let offsets = scenario_claimed_offsets(config);
    for (client, dist) in &offsets {
        tommy.register_client(*client, dist.clone());
    }
    let outcome = tommy
        .sequence_detailed(&messages)
        .expect("all clients registered");

    // TrueTime baseline.
    let registry = oracle_registry(config);
    let truetime_order = TrueTimeSequencer::new(&registry)
        .sequence(&messages)
        .expect("all clients registered");

    // WFO baseline (assumes negligible clock error; here it just sorts by
    // the noisy timestamps).
    let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
    let wfo_order =
        WfoSequencer::sequence_offline(&clients, &messages).expect("all clients registered");

    ComparisonResult {
        tommy: rank_agreement_score(&outcome.order, &messages),
        truetime: rank_agreement_score(&truetime_order, &messages),
        wfo: rank_agreement_score(&wfo_order, &messages),
        tommy_batches: BatchStats::from_order(&outcome.order),
        truetime_batches: BatchStats::from_order(&truetime_order),
        transitive: outcome.transitive,
    }
}

/// Nominal one-way delivery delay of the simulated network: the direct
/// path's constant, and the fault-free schedule the wire path's faults
/// perturb.
pub const NETWORK_DELAY: f64 = 1.0;

/// A scenario's stream schedule, shared by every delivery path.
pub(crate) struct Schedule {
    /// The distributions the sequencer is told, in registration order.
    pub(crate) claimed: Vec<(ClientId, OffsetDistribution)>,
    /// `(send_time, frame)` in send order (see [`schedule`]).
    pub(crate) frames: Vec<(f64, WireMessage)>,
    /// Ground-truth generation time of every message.
    pub(crate) truths: HashMap<MessageId, f64>,
    /// True times of the first and last message (`0.0` for an empty
    /// stream).
    pub(crate) span: (f64, f64),
    /// Largest submitted (clamped) timestamp; `−∞` for an empty stream.
    pub(crate) max_timestamp: f64,
}

impl Schedule {
    /// The registered clients, in registration order.
    pub(crate) fn clients(&self) -> impl Iterator<Item = ClientId> + '_ {
        self.claimed.iter().map(|(client, _)| *client)
    }
}

/// Build a scenario's stream schedule: generate the messages, deliver them
/// in true-time order, and send alongside each submission a heartbeat from
/// every *other* client carrying its reading of the current true time, so
/// watermarks advance. Every frame is stamped with the true time of the
/// submission it accompanies. Per-client timestamps — messages and
/// heartbeats alike — are clamped monotone (the paper's ordered-channel
/// assumption); a clamped message keeps its clamped timestamp for scoring.
pub(crate) fn schedule(config: &ScenarioConfig) -> Schedule {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut deliveries = generate_messages(config, &mut rng);
    let truth = |m: &Message| m.true_time.expect("generated messages carry true times");
    deliveries.sort_by(|a, b| truth(a).partial_cmp(&truth(b)).expect("finite true times"));
    let claimed = scenario_claimed_offsets(config);

    let mut last_ts: HashMap<ClientId, f64> = HashMap::new();
    let mut clamp = |client: ClientId, ts: f64| {
        let floor = last_ts.get(&client).copied().unwrap_or(f64::NEG_INFINITY);
        let ts = ts.max(floor);
        last_ts.insert(client, ts);
        ts
    };
    let mut frames = Vec::with_capacity(deliveries.len() * claimed.len());
    let mut max_timestamp = f64::NEG_INFINITY;
    for delivery in &deliveries {
        let t = truth(delivery);
        for &(client, _) in &claimed {
            if client != delivery.client {
                let timestamp = clamp(client, t);
                frames.push((t, WireMessage::Heartbeat { client, timestamp }));
            }
        }
        let timestamp = clamp(delivery.client, delivery.timestamp);
        max_timestamp = max_timestamp.max(timestamp);
        frames.push((
            t,
            WireMessage::Submit {
                id: delivery.id,
                client: delivery.client,
                timestamp,
            },
        ));
    }
    Schedule {
        span: (
            deliveries.first().map_or(0.0, truth),
            deliveries.last().map_or(0.0, truth),
        ),
        truths: deliveries.iter().map(|m| (m.id, truth(m))).collect(),
        claimed,
        frames,
        max_timestamp,
    }
}

/// The far-future padding both stream closes put past the last timestamp.
pub(crate) fn horizon_pad(config: &ScenarioConfig) -> f64 {
    1_000.0 * config.clock_std_dev.max(1.0)
}

/// The online sequencer configuration of a stream run: the scenario's
/// threshold and shard count, `p_safe`, bounded memory (no retained
/// history) and — for defended scenarios — the defense. The wire path adds
/// liveness on top.
pub(crate) fn stream_config(config: &ScenarioConfig, p_safe: f64) -> SequencerConfig {
    let seq_config = SequencerConfig::default()
        .with_threshold(config.threshold)
        .with_p_safe(p_safe)
        .with_retain_history(false)
        .with_shards(config.shards);
    if !config.defended {
        return seq_config;
    }
    // Small windows so the defense reaches a verdict within the short
    // streams the sweeps use. Residuals are measured against the
    // sequencer's *online* per-client delay estimate, not a configured
    // constant: the runner does not leak the delay it simulates into the
    // defense, so defended runs stay honest when links are heterogeneous
    // (a fixed expected delay would bias every residual by the per-link
    // delta and mis-flag honest clients; see `tests/collusion_defense.rs`).
    seq_config.with_defense(
        DefenseConfig::enabled()
            .with_window(24)
            .with_min_samples(12)
            .with_check_interval(4)
            .with_expected_delay(ExpectedDelay::Online),
    )
}

/// How a stream schedule's frames reach the sequencer.
#[derive(Debug, Clone, Copy)]
pub enum Delivery<'a> {
    /// Every frame arrives [`NETWORK_DELAY`] after it was sent, in send
    /// order. Closes with horizon heartbeats, a tick and a flush.
    Direct,
    /// Every frame rides the fault-injected wire path ([`crate::faults`]);
    /// `plans` compose with [`ScenarioConfig::fault`], and the stream
    /// receiver recovers per `policy`.
    Wire {
        /// Fault plans applied on top of the scenario's own.
        plans: &'a [FaultPlan],
        /// The session layer's recovery policy.
        policy: RecoveryPolicy,
    },
}

/// The engine side of a stream run: applies delivered frames and drains
/// emitted batches after every submission.
pub(crate) struct Sink<E> {
    pub(crate) engine: E,
    truths: HashMap<MessageId, f64>,
    order: FairOrder,
    submitted: Vec<Message>,
    max_undrained: usize,
    max_tracked_ids: usize,
}

impl<E: StreamEngine> Sink<E> {
    /// Apply one delivered frame at sequencer time `now`.
    pub(crate) fn apply(&mut self, frame: WireMessage, now: f64) {
        match frame {
            WireMessage::Submit {
                id,
                client,
                timestamp,
            } => {
                let message = Message::with_true_time(id, client, timestamp, self.truths[&id]);
                self.submitted.push(message.clone());
                self.engine
                    .submit_at(message, now)
                    .expect("valid submission");
                self.engine.pump(now);
                self.max_undrained = self.max_undrained.max(self.engine.undrained());
                self.max_tracked_ids = self.max_tracked_ids.max(self.engine.tracked_ids());
                self.drain();
            }
            WireMessage::Heartbeat { client, timestamp } => {
                self.engine
                    .heartbeat_at(client, timestamp, now)
                    .expect("registered client heartbeat");
            }
            other => panic!("unexpected stream frame {other:?}"),
        }
    }

    /// Move every emitted batch into the drained order.
    pub(crate) fn drain(&mut self) {
        for batch in self.engine.drain() {
            self.order.push_batch(batch.message_ids());
        }
    }
}

/// The output of one stream run, for either engine and delivery path.
///
/// Counters are read from the closed engine itself — `engine.stats()`,
/// `engine.tournament()`, `engine.registry().query_count()`, … — never
/// copied into fields here.
#[derive(Debug)]
pub struct StreamResult<E> {
    /// The closed front door.
    pub engine: E,
    /// The drained emission order.
    pub order: FairOrder,
    /// Every submitted message (clamped timestamp and ground truth), in
    /// submission order.
    pub submitted: Vec<Message>,
    /// Messages the workload generated; more than were submitted when a
    /// wire policy gave up on losses.
    pub generated: usize,
    /// Largest number of undrained batches ever buffered inside the engine.
    /// The runner drains after every submission, so this stays O(1)
    /// regardless of stream length.
    pub max_undrained: usize,
    /// Largest number of message ids the engine tracked at any point. With
    /// history retention off this is bounded by the pending set, not by the
    /// stream length.
    pub max_tracked_ids: usize,
    /// Exhaustive superlinear greedy FAS passes over the run (the
    /// thread-local `graph::fas::exhaustive_passes` delta, so a sharded
    /// run's worker threads are not counted): the per-cyclic-component cost
    /// both FAS paths share. Zero on Gaussian workloads.
    pub fas_exhaustive_passes: u64,
    /// Frame accounting and the delivery trace of the wire path; `None` on
    /// the direct path.
    pub wire: Option<WireReport>,
}

impl<E: StreamEngine> StreamResult<E> {
    /// RAS of the emitted order against the ground truth of every submitted
    /// message.
    pub fn ras(&self) -> RasScore {
        rank_agreement_score(&self.order, &self.submitted)
    }

    /// The engine's counters (including the session layer's, on the wire
    /// path).
    pub fn stats(&self) -> OnlineStats {
        self.engine.stats()
    }

    /// The wire path's report.
    ///
    /// # Panics
    ///
    /// Panics for a [`Delivery::Direct`] run.
    pub fn wire(&self) -> &WireReport {
        self.wire.as_ref().expect("a wire-delivery run")
    }
}

impl StreamResult<ShardedSequencer> {
    /// The RAS split into intra-shard pairs (decided by a single engine)
    /// and cross-shard pairs (decided by the combiner's merge watermark) —
    /// the decomposition that isolates what sharding costs.
    pub fn partitioned_ras(&self) -> PartitionedRas {
        partitioned_rank_agreement_score(&self.order, &self.submitted, |client| {
            self.engine.shard_of(client).expect("registered client")
        })
    }
}

/// Run a scenario's stream through an online engine `E` over `delivery`:
/// an [`OnlineSequencer`](tommy_core::sequencer::OnlineSequencer), or a
/// [`ShardedSequencer`] with [`ScenarioConfig::shards`] shards.
///
/// The schedule, configuration and engine side are shared; each delivery
/// path keeps its own stream close. With one shard the sharded wrapper is a
/// bit-identical passthrough, so both engines emit the same order.
pub fn run_stream<E: StreamEngine>(
    config: &ScenarioConfig,
    p_safe: f64,
    delivery: Delivery,
) -> StreamResult<E> {
    let mut schedule = schedule(config);
    let exhaustive_before = tommy_core::graph::fas::exhaustive_passes();
    let mut seq_config = stream_config(config, p_safe);
    if let Delivery::Wire { .. } = delivery {
        seq_config = seq_config.with_liveness(LivenessConfig::enabled(FAULT_STALENESS_DEADLINE));
    }
    let mut engine = E::from_config(seq_config);
    for (client, dist) in &schedule.claimed {
        engine.register(*client, dist.clone());
    }
    let generated = schedule.truths.len();
    let mut sink = Sink {
        engine,
        truths: std::mem::take(&mut schedule.truths),
        order: FairOrder::default(),
        submitted: Vec::with_capacity(generated),
        max_undrained: 0,
        max_tracked_ids: 0,
    };
    let wire = match delivery {
        Delivery::Direct => {
            deliver_direct(config, schedule, &mut sink);
            None
        }
        Delivery::Wire { plans, policy } => Some(crate::faults::deliver_wire(
            config, schedule, plans, policy, &mut sink,
        )),
    };
    let rejections = sink.engine.take_rejections();
    assert!(
        rejections.is_empty(),
        "monotone-clamped schedule must not be rejected: {rejections:?}"
    );
    StreamResult {
        engine: sink.engine,
        order: sink.order,
        submitted: sink.submitted,
        generated,
        max_undrained: sink.max_undrained,
        max_tracked_ids: sink.max_tracked_ids,
        fas_exhaustive_passes: tommy_core::graph::fas::exhaustive_passes() - exhaustive_before,
        wire,
    }
}

/// The direct path: every frame arrives [`NETWORK_DELAY`] after it was
/// sent. The close heartbeats every client far past every pending horizon,
/// advances the clock past every safe-emission time, then forces out the
/// stragglers.
fn deliver_direct<E: StreamEngine>(
    config: &ScenarioConfig,
    schedule: Schedule,
    sink: &mut Sink<E>,
) {
    let clients: Vec<ClientId> = schedule.clients().collect();
    let horizon = schedule.max_timestamp.max(0.0) + horizon_pad(config);
    for (sent, frame) in schedule.frames {
        sink.apply(frame, sent + NETWORK_DELAY);
    }
    for client in clients {
        sink.engine
            .heartbeat_at(client, horizon, horizon)
            .expect("registered client heartbeat");
    }
    sink.engine.tick_at(horizon);
    sink.engine.flush_all();
    sink.drain();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tommy_core::sequencer::online::OnlineSequencer;

    fn online_stream(config: &ScenarioConfig, p_safe: f64) -> StreamResult<OnlineSequencer> {
        run_stream(config, p_safe, Delivery::Direct)
    }

    fn parallel_stream(config: &ScenarioConfig, p_safe: f64) -> StreamResult<ShardedSequencer> {
        run_stream(config, p_safe, Delivery::Direct)
    }

    fn small(sigma: f64, gap: f64) -> ScenarioConfig {
        ScenarioConfig::default()
            .with_size(40, 80)
            .with_clock_std_dev(sigma)
            .with_gap(gap)
            .with_seed(7)
    }

    #[test]
    fn perfect_clocks_give_perfect_scores() {
        let result = run_offline_comparison(&small(0.0, 1.0));
        assert!(result.tommy.normalized() > 0.99, "{:?}", result.tommy);
        assert!(result.truetime.normalized() > 0.99);
        assert!(result.wfo.normalized() > 0.99);
        assert!(result.transitive);
    }

    #[test]
    fn tommy_beats_truetime_under_large_clock_error() {
        // Figure 5's headline: when the clock error is large relative to the
        // inter-message gap, TrueTime collapses to indifference (score ~0)
        // while Tommy still orders many pairs correctly.
        let result = run_offline_comparison(&small(50.0, 1.0));
        assert!(
            result.tommy.score() > result.truetime.score(),
            "tommy {:?} vs truetime {:?}",
            result.tommy,
            result.truetime
        );
        assert!(result.truetime.normalized() >= 0.0);
        assert!(result.tommy_batches.batches >= result.truetime_batches.batches);
    }

    #[test]
    fn truetime_never_scores_negative() {
        for sigma in [5.0, 20.0, 80.0] {
            let result = run_offline_comparison(&small(sigma, 0.5));
            assert!(
                result.truetime.score() >= 0,
                "sigma {sigma}: {:?}",
                result.truetime
            );
        }
    }

    #[test]
    fn gaussian_population_is_always_transitive() {
        for seed in 0..5 {
            let cfg = small(30.0, 1.0).with_seed(seed);
            assert!(run_offline_comparison(&cfg).transitive);
        }
    }

    #[test]
    fn results_are_deterministic_per_seed() {
        let a = run_offline_comparison(&small(25.0, 1.0));
        let b = run_offline_comparison(&small(25.0, 1.0));
        assert_eq!(a.tommy.score(), b.tommy.score());
        assert_eq!(a.truetime.score(), b.truetime.score());
        assert_eq!(a.wfo.score(), b.wfo.score());
    }

    /// The parallel matrix build is bit-identical, so scenario scores do not
    /// depend on the parallelism knob.
    #[test]
    fn parallelism_does_not_change_scores() {
        let serial = run_offline_comparison(&small(25.0, 1.0));
        for threads in [0usize, 2, 4] {
            let parallel = run_offline_comparison(&small(25.0, 1.0).with_parallelism(threads));
            assert_eq!(
                serial.tommy.score(),
                parallel.tommy.score(),
                "threads {threads}"
            );
            assert_eq!(serial.tommy_batches.batches, parallel.tommy_batches.batches);
        }
    }

    #[test]
    fn wider_gap_improves_everyone() {
        let tight = run_offline_comparison(&small(20.0, 0.5));
        let wide = run_offline_comparison(&small(20.0, 50.0));
        assert!(wide.tommy.normalized() > tight.tommy.normalized());
        assert!(wide.truetime.normalized() >= tight.truetime.normalized());
    }

    #[test]
    fn online_stream_sequences_every_message() {
        let cfg = small(3.0, 5.0);
        let result = online_stream(&cfg, 0.99);
        assert_eq!(result.stats().messages_emitted, cfg.messages);
        assert_eq!(result.ras().pairs(), cfg.messages * (cfg.messages - 1) / 2);
        assert!(result.order.num_batches() >= 1);
        // Arrivals pay O(pending) evaluations each and nothing else does, so
        // the run's total is bounded by max_pending per message.
        assert!(result.engine.registry().query_count() > 0);
        assert!(
            result.engine.registry().query_count()
                <= (cfg.messages * result.stats().max_pending) as u64,
            "queries {} vs bound {}",
            result.engine.registry().query_count(),
            cfg.messages * result.stats().max_pending
        );
        // The batch-boundary engine re-evaluates at most two adjacencies per
        // arrival plus one seam per removed run on emission (each removed
        // message opens at most one run).
        assert!(result.engine.fair_order_counters().boundary_evals > 0);
        assert!(
            result.engine.fair_order_counters().boundary_evals <= (3 * cfg.messages) as u64,
            "boundary evals {} vs bound {}",
            result.engine.fair_order_counters().boundary_evals,
            3 * cfg.messages
        );
    }

    #[test]
    fn online_stream_memory_stays_bounded_by_pending_set() {
        let cfg = small(2.0, 10.0);
        let result = online_stream(&cfg, 0.9);
        // Draining after every event keeps the output buffer tiny and the
        // id-tracking proportional to max_pending, not to the stream length.
        assert!(
            result.max_undrained <= result.stats().max_pending + 1,
            "undrained {} vs max pending {}",
            result.max_undrained,
            result.stats().max_pending
        );
        assert!(
            result.max_tracked_ids <= result.stats().max_pending + 1,
            "tracked {} vs max pending {}",
            result.max_tracked_ids,
            result.stats().max_pending
        );
        assert!(result.stats().max_pending < cfg.messages);
    }

    /// The sparse fast path engages automatically on an all-Gaussian census
    /// and never materializes a dense column, while a cyclic scenario (dice
    /// clients: non-closed-form) routes through the dense machinery with the
    /// fast-path counters pinned at zero.
    #[test]
    fn mode_split_matches_the_census() {
        let gaussian = online_stream(&small(3.0, 5.0), 0.99);
        assert_eq!(gaussian.stats().messages_emitted, 80);
        assert_eq!(
            gaussian.stats().dense_columns_avoided,
            80,
            "{:?}",
            gaussian.stats()
        );
        assert!(gaussian.stats().lazy_evals > 0, "{:?}", gaussian.stats());
        assert_eq!(
            gaussian.stats().peak_matrix_bytes,
            0,
            "an all-Gaussian run must never allocate the dense matrix"
        );
        assert!(
            gaussian.stats().peak_index_bytes > 0,
            "{:?}",
            gaussian.stats()
        );
        assert_eq!(gaussian.stats().mode_switches, 0, "{:?}", gaussian.stats());

        let cyclic = online_stream(&small(2.0, 1.0).with_cyclic_fraction(0.3), 0.99);
        assert_eq!(cyclic.stats().lazy_evals, 0, "{:?}", cyclic.stats());
        assert_eq!(
            cyclic.stats().dense_columns_avoided,
            0,
            "{:?}",
            cyclic.stats()
        );
        assert!(cyclic.stats().peak_matrix_bytes > 0, "{:?}", cyclic.stats());
        assert_eq!(cyclic.stats().peak_index_bytes, 0, "{:?}", cyclic.stats());
        // The census settles to dense on the first dice-client registration
        // (pending is still empty, so the switch is free) and never changes
        // again mid-stream.
        assert_eq!(cyclic.stats().mode_switches, 1, "{:?}", cyclic.stats());
    }

    /// Satellite regression: a pure-Gaussian stream performs **zero** FAS
    /// work of any kind — no local repairs, no exhaustive passes, no full
    /// rebuilds (Appendix A: Gaussian offsets are always transitive).
    #[test]
    fn gaussian_stream_performs_zero_fas_work() {
        let result = online_stream(&small(20.0, 1.0), 0.99);
        assert!(result.stats().messages_emitted > 0);
        assert_eq!(
            result.engine.tournament().local_repairs(),
            0,
            "no SCC repairs on Gaussian streams"
        );
        assert_eq!(
            result.fas_exhaustive_passes, 0,
            "no exhaustive passes on Gaussian streams"
        );
        assert_eq!(
            result.engine.tournament().full_rebuilds(),
            0,
            "no rebuilds on Gaussian streams"
        );
    }

    /// The tentpole behaviour: Condorcet bursts force tournament cycles,
    /// which the incremental FAS engine absorbs with SCC-scoped local
    /// repairs — never a full rebuild — while still emitting every message.
    #[test]
    fn cyclic_scenario_repairs_locally_without_full_rebuilds() {
        let cfg = small(2.0, 1.0).with_cyclic_fraction(0.3);
        let result = online_stream(&cfg, 0.99);
        assert_eq!(result.stats().messages_emitted, cfg.messages);
        assert!(
            result.engine.tournament().local_repairs() > 0,
            "bursts must trigger local repairs: {:?}",
            result.stats()
        );
        assert!(result.fas_exhaustive_passes > 0);
        assert_eq!(
            result.engine.tournament().full_rebuilds(),
            0,
            "a cyclic arrival must no longer be an automatic full rebuild"
        );
    }

    /// Cyclic scenarios flow through the offline pipeline too, and are
    /// reported as intransitive.
    #[test]
    fn cyclic_offline_comparison_reports_intransitivity() {
        let cfg = small(5.0, 1.0).with_cyclic_fraction(0.4);
        let result = run_offline_comparison(&cfg);
        assert!(!result.transitive, "bursts must make the tournament cyclic");
        // The all-Gaussian control stays transitive on the same seed.
        assert!(run_offline_comparison(&small(5.0, 1.0)).transitive);
    }

    fn adversarial(
        sigma: f64,
        family: tommy_workload::AttackFamily,
        intensity: f64,
    ) -> ScenarioConfig {
        use tommy_workload::AttackPlan;
        ScenarioConfig::default()
            .with_size(6, 240)
            .with_clock_std_dev(sigma)
            .with_gap(8.0)
            .with_seed(21)
            .with_adversarial(AttackPlan::new(family, intensity).with_scale(sigma))
    }

    /// Satellite regression: adversarial scenarios stay bit-stable per seed —
    /// the attack distortion is deterministic, so two runs of the same config
    /// agree on the stream and on every counter.
    #[test]
    fn adversarial_scenarios_are_seed_stable() {
        use tommy_workload::AttackFamily;
        for family in AttackFamily::ALL {
            let cfg = adversarial(3.0, family, 0.6).with_defended(true);
            let mut rng_a = StdRng::seed_from_u64(cfg.seed);
            let mut rng_b = StdRng::seed_from_u64(cfg.seed);
            assert_eq!(
                generate_messages(&cfg, &mut rng_a),
                generate_messages(&cfg, &mut rng_b),
                "{family:?} stream must be seed-stable"
            );
            let a = online_stream(&cfg, 0.99);
            let b = online_stream(&cfg, 0.99);
            assert_eq!(a.ras().score(), b.ras().score(), "{family:?}");
            assert_eq!(a.stats(), b.stats(), "{family:?}");
        }
    }

    /// A zero-intensity plan is the identity: same stream, same claims.
    #[test]
    fn zero_intensity_attack_is_honest() {
        use tommy_workload::{AttackFamily, AttackPlan};
        let honest = ScenarioConfig::default().with_size(6, 60).with_seed(3);
        let attacked =
            honest.with_adversarial(AttackPlan::new(AttackFamily::Collusion, 0.0).with_scale(20.0));
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        assert_eq!(
            generate_messages(&honest, &mut rng_a),
            generate_messages(&attacked, &mut rng_b)
        );
        assert_eq!(
            scenario_claimed_offsets(&attacked),
            scenario_offsets(&attacked)
        );
    }

    /// The defense core loop: a misreporting client (σ claimed far too
    /// small) is quarantined onto fallback margins; honest clients are not.
    #[test]
    fn defended_stream_quarantines_misreporters() {
        use tommy_workload::AttackFamily;
        let cfg = adversarial(3.0, AttackFamily::Misreport, 0.6);
        let undefended = online_stream(&cfg, 0.99);
        assert_eq!(
            undefended.stats().quarantines,
            0,
            "defense off ⇒ no quarantines"
        );
        assert_eq!(undefended.stats().margin_fallbacks, 0);

        let defended = online_stream(&cfg.with_defended(true), 0.99);
        assert!(
            defended.stats().quarantines >= 1,
            "the misreporter must be quarantined: {:?}",
            defended.stats()
        );
        assert!(
            defended.stats().margin_fallbacks > 0,
            "post-quarantine messages ride the fallback margins"
        );
        assert_eq!(defended.stats().messages_emitted, cfg.messages);
    }

    /// An honest defended stream raises no alarms (no false positives on
    /// clean residuals).
    #[test]
    fn defended_honest_stream_raises_no_alarms() {
        let cfg = ScenarioConfig::default()
            .with_size(6, 240)
            .with_clock_std_dev(3.0)
            .with_gap(8.0)
            .with_seed(21)
            .with_defended(true);
        let result = online_stream(&cfg, 0.99);
        assert_eq!(result.stats().quarantines, 0, "{:?}", result.stats());
        assert_eq!(result.stats().reestimations, 0, "{:?}", result.stats());
        assert_eq!(result.stats().margin_fallbacks, 0);
        assert_eq!(result.stats().messages_emitted, cfg.messages);
    }

    /// Mid-stream clock drift on a previously validated client triggers
    /// online re-estimation, not quarantine.
    #[test]
    fn defended_stream_reestimates_drifting_clients() {
        use tommy_workload::AttackFamily;
        let cfg = adversarial(3.0, AttackFamily::Drift, 0.8).with_defended(true);
        let result = online_stream(&cfg, 0.99);
        assert!(
            result.stats().reestimations >= 1,
            "drift must trigger re-estimation: {:?}",
            result.stats()
        );
        assert_eq!(result.stats().messages_emitted, cfg.messages);
    }

    /// Satellite 1: the FAS fallback reason is echoed on the stream result
    /// (`None` here — the default config keeps the incremental engine on).
    #[test]
    fn online_result_echoes_fas_fallback_reason() {
        let result = online_stream(&small(3.0, 5.0), 0.99);
        assert_eq!(result.engine.config().fas_fallback_reason(), None);
    }

    /// Satellite: the runner estimates the delivery delay from residuals
    /// instead of blindly trusting the configured constant. With perfect
    /// clocks the estimate is exact; with noisy clocks it converges on the
    /// truth to within the offset noise.
    #[test]
    fn online_stream_estimates_the_delivery_delay() {
        let estimate =
            |r: &StreamResult<OnlineSequencer>| r.engine.mean_delay_estimate().unwrap_or(f64::NAN);
        let exact = estimate(&online_stream(&small(0.0, 5.0), 0.99));
        assert_eq!(NETWORK_DELAY, 1.0);
        assert!(
            (exact - NETWORK_DELAY).abs() < 1e-9,
            "perfect clocks ⇒ exact delay estimate, got {exact}"
        );
        let noisy = estimate(&online_stream(&small(2.0, 5.0), 0.99));
        assert!(noisy.is_finite());
        assert!(
            (noisy - NETWORK_DELAY).abs() < 2.0,
            "estimate {noisy} strays too far from the true delay {NETWORK_DELAY}"
        );
    }

    /// The sharded wrapper with one shard is a bit-identical passthrough:
    /// same delivery schedule, same engine, same emitted order, so the RAS
    /// and every shared counter agree exactly with the single-engine run.
    #[test]
    fn parallel_stream_with_one_shard_matches_single_engine() {
        let cfg = small(3.0, 5.0);
        let single = online_stream(&cfg, 0.99);
        let parallel = parallel_stream(&cfg.with_shards(1), 0.99);
        assert_eq!(parallel.engine.shard_count(), 1);
        assert_eq!(parallel.ras().score(), single.ras().score());
        assert_eq!(parallel.ras().pairs(), single.ras().pairs());
        assert_eq!(parallel.order.num_batches(), single.order.num_batches());
        assert_eq!(
            parallel.stats().messages_emitted,
            single.stats().messages_emitted
        );
        assert_eq!(parallel.stats().shard_merges, 0);
        assert_eq!(parallel.stats().cross_shard_evals, 0);
        // One shard ⇒ every pair is intra-shard.
        assert_eq!(parallel.partitioned_ras().cross.pairs(), 0);
        assert_eq!(
            parallel.partitioned_ras().intra.score(),
            parallel.ras().score()
        );
    }

    /// Multi-shard runs emit the complete message set through the combiner,
    /// exercise the merge counters, and split the score into intra + cross
    /// components that sum back to the total.
    #[test]
    fn parallel_stream_with_multiple_shards_emits_everything() {
        let cfg = small(3.0, 5.0);
        for shards in [2usize, 4] {
            let result = parallel_stream(&cfg.with_shards(shards), 0.99);
            assert_eq!(result.engine.shard_count(), shards);
            assert_eq!(result.stats().messages_emitted, cfg.messages, "k={shards}");
            assert!(
                result.stats().shard_merges > 0,
                "k={shards}: {:?}",
                result.stats()
            );
            assert!(result.stats().cross_shard_evals > 0, "k={shards}");
            assert!(result.partitioned_ras().cross.pairs() > 0, "k={shards}");
            assert_eq!(
                result.partitioned_ras().total().score(),
                result.ras().score(),
                "k={shards}: intra + cross must sum to the total"
            );
        }
    }

    /// Sharded runs are deterministic per seed despite the worker threads —
    /// shards share no state, so the merged order is schedule-independent.
    #[test]
    fn parallel_stream_is_seed_stable() {
        let cfg = small(3.0, 5.0).with_shards(4);
        let a = parallel_stream(&cfg, 0.99);
        let b = parallel_stream(&cfg, 0.99);
        assert_eq!(a.ras().score(), b.ras().score());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.order.num_batches(), b.order.num_batches());
    }

    #[test]
    fn online_stream_with_wide_gaps_is_accurate() {
        // Gaps much larger than clock error: the emitted order should agree
        // with ground truth on nearly every pair.
        let result = online_stream(&small(1.0, 50.0), 0.999);
        assert!(result.ras().normalized() > 0.9, "ras = {:?}", result.ras());
    }
}
