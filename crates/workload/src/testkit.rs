//! Test-support helpers shared by the integration suites.
//!
//! The equivalence, defense and fault suites under `tests/` all need the
//! same scaffolding: build a census, register it into one or more engines,
//! drive identical event streams through them in lockstep, close the stream
//! (far-future heartbeats → tick → flush), and compare emitted batches
//! bitwise. This module is that scaffolding, factored out once so
//! `tests/sparse_dense_equivalence.rs`, `tests/collusion_defense.rs`,
//! `tests/fault_invariants.rs` and `tests/sharded_equivalence.rs` stop
//! copy-pasting it.
//!
//! The helpers drive engines through `tommy-core`'s [`StreamEngine`]
//! trait, implemented by both the single-engine [`OnlineSequencer`] and the
//! sharded [`ShardedSequencer`](tommy_core::sequencer::ShardedSequencer),
//! so a differential harness can run one of each through the same schedule
//! with the same code.

use rand::rngs::StdRng;
use tommy_core::checker::ModelSpec;
use tommy_core::config::{FastPathMode, SequencerConfig};
use tommy_core::defense::{DefenseConfig, ExpectedDelay};
use tommy_core::message::{ClientId, Message, MessageId};
use tommy_core::sequencer::online::{EmittedBatch, OnlineSequencer};
use tommy_core::sequencer::StreamEngine;
use tommy_stats::distribution::{Distribution, OffsetDistribution};

/// A census of `clients` zero-mean Gaussian clients with a common σ.
pub fn gaussian_census(clients: usize, sigma: f64) -> Vec<(ClientId, OffsetDistribution)> {
    (0..clients as u32)
        .map(|c| (ClientId(c), OffsetDistribution::gaussian(0.0, sigma)))
        .collect()
}

/// Register every `(client, distribution)` pair into an engine.
pub fn register_all<E: StreamEngine>(engine: &mut E, offsets: &[(ClientId, OffsetDistribution)]) {
    for (client, dist) in offsets {
        engine.register(*client, dist.clone());
    }
}

/// An `Auto` sequencer and its `ForceDense` twin over the same census — the
/// sparse ≡ dense differential pair.
pub fn paired_engines(
    offsets: &[(ClientId, OffsetDistribution)],
) -> (OnlineSequencer, OnlineSequencer) {
    let mut auto = OnlineSequencer::new(SequencerConfig::default());
    let mut dense =
        OnlineSequencer::new(SequencerConfig::default().with_fast_path(FastPathMode::ForceDense));
    register_all(&mut auto, offsets);
    register_all(&mut dense, offsets);
    (auto, dense)
}

/// The defended configuration the sim runners and the defense suite share:
/// small windows so the defense reaches verdicts within short streams,
/// online delay estimation so heterogeneous links don't shift residuals.
pub fn defended_config() -> SequencerConfig {
    SequencerConfig::new().with_p_safe(0.99).with_defense(
        DefenseConfig::enabled()
            .with_window(24)
            .with_min_samples(12)
            .with_check_interval(4)
            .with_expected_delay(ExpectedDelay::Online),
    )
}

/// One honest message: client's clock error drawn from its own claimed
/// distribution, arriving after its (sequencer-unknown) link delay. Returns
/// the message and its arrival time.
pub fn honest_message(
    id: u64,
    client: ClientId,
    truth: f64,
    dist: &OffsetDistribution,
    delay: f64,
    rng: &mut StdRng,
) -> (Message, f64) {
    let ts = truth + dist.sample(rng);
    (
        Message::with_true_time(MessageId(id), client, ts, truth),
        truth + delay,
    )
}

/// Drive a round-robin honest stream through a defended sequencer and
/// return it for counter inspection. `delays[c]` is client `c`'s constant
/// link delay; per-client generation spacing is `4 · clients`, wide enough
/// to keep honest timestamps monotone for the σ the suites use.
pub fn run_honest(
    seed: u64,
    dists: &[(ClientId, OffsetDistribution)],
    delays: &[f64],
    rounds: u64,
    config: SequencerConfig,
) -> OnlineSequencer {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seq = OnlineSequencer::new(config);
    register_all(&mut seq, dists);
    let clients = dists.len() as u64;
    let mut id = 0;
    for round in 0..rounds {
        for (c, (client, dist)) in dists.iter().enumerate() {
            let truth = (round * clients + c as u64) as f64 * 4.0;
            let (msg, arrival) = honest_message(id, *client, truth, dist, delays[c], &mut rng);
            seq.submit(msg, arrival).expect("registered, unique id");
            id += 1;
        }
    }
    seq
}

/// The small-model census the checker suites share: three clients with
/// moderate clocks (σ = 2).
pub fn model_offsets() -> Vec<(ClientId, OffsetDistribution)> {
    gaussian_census(3, 2.0)
}

/// The small-model stream: two well-separated messages per client, with
/// fixed sub-σ noise so every schedule stays deterministic.
pub fn model_messages() -> Vec<Message> {
    let noise = [0.4, -0.7, 1.1, -0.2, 0.9, -1.3];
    noise
        .iter()
        .enumerate()
        .map(|(i, off)| {
            let truth = 10.0 + 15.0 * i as f64;
            Message::with_true_time(
                MessageId(i as u64),
                ClientId((i % 3) as u32),
                truth + off,
                truth,
            )
        })
        .collect()
}

/// The small-model spec over [`model_offsets`] and [`model_messages`],
/// bounded to two in-flight deliveries.
pub fn model_spec() -> ModelSpec {
    ModelSpec::new(model_offsets(), model_messages()).with_max_in_flight(2)
}

/// Assert two freshly drained batch sequences are bit-identical — ids,
/// ranks, safe-emission times, emission clocks. Returns how many messages
/// the sequences carried (counted once).
pub fn assert_batches_bit_identical(a: &[EmittedBatch], b: &[EmittedBatch], ctx: &str) -> usize {
    assert_eq!(a.len(), b.len(), "batch count diverged at {ctx}");
    let mut messages = 0;
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.rank, y.rank, "rank diverged at {ctx}");
        assert_eq!(x.message_ids(), y.message_ids(), "batch diverged at {ctx}");
        assert_eq!(
            x.safe_after.to_bits(),
            y.safe_after.to_bits(),
            "safe-emission time diverged at {ctx}"
        );
        assert_eq!(
            x.emitted_at.to_bits(),
            y.emitted_at.to_bits(),
            "emission clock diverged at {ctx}"
        );
        messages += x.messages.len();
    }
    messages
}

/// Drain two engines and assert the freshly emitted batches are
/// bit-identical. Returns how many messages were emitted this step.
pub fn drain_lockstep<A: StreamEngine, B: StreamEngine>(a: &mut A, b: &mut B, ctx: &str) -> usize {
    let x = a.drain();
    let y = b.drain();
    assert_batches_bit_identical(&x, &y, ctx)
}

/// Assert two single-engine twins agree on the maintained order *and* on
/// every batch boundary over the current pending set.
pub fn assert_boundaries_agree(a: &mut OnlineSequencer, b: &mut OnlineSequencer, ctx: &str) {
    assert_eq!(
        a.pending_order(),
        b.pending_order(),
        "pending order / boundary set diverged at {ctx}"
    );
}

/// Close a stream the way every suite does: heartbeat each client far past
/// the pending horizon, tick the clock there, flush the stragglers, and
/// drain. Returns the batches released by the close.
pub fn close_stream<E: StreamEngine>(
    engine: &mut E,
    clients: &[ClientId],
    horizon: f64,
) -> Vec<EmittedBatch> {
    for &client in clients {
        engine
            .heartbeat_at(client, horizon, horizon)
            .expect("registered client heartbeat");
    }
    engine.tick_at(horizon);
    engine.flush_all();
    engine.drain()
}

/// Every message id carried by a batch sequence, in emission order.
pub fn emitted_ids(batches: &[EmittedBatch]) -> Vec<MessageId> {
    batches.iter().flat_map(|b| b.message_ids()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tommy_core::sequencer::sharded::ShardedSequencer;

    #[test]
    fn census_and_model_builders_are_stable() {
        let census = gaussian_census(3, 2.0);
        assert_eq!(census.len(), 3);
        assert_eq!(census, model_offsets());
        let messages = model_messages();
        assert_eq!(messages.len(), 6);
        for pair in messages.windows(2) {
            assert!(pair[0].true_time < pair[1].true_time);
        }
        let report = model_spec().check().expect("well-formed model");
        assert!(report.ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn lockstep_helpers_accept_identical_twins() {
        let offsets = gaussian_census(3, 1.0);
        let (mut auto, mut dense) = paired_engines(&offsets);
        let mut emitted = 0;
        for i in 0..20u64 {
            let t = i as f64 * 5.0;
            let m = Message::new(MessageId(i), ClientId((i % 3) as u32), t);
            auto.submit_at(m.clone(), t + 1.0).expect("valid");
            dense.submit_at(m, t + 1.0).expect("valid");
            for (client, _) in &offsets {
                auto.heartbeat_at(*client, t, t + 1.0).expect("heartbeat");
                dense.heartbeat_at(*client, t, t + 1.0).expect("heartbeat");
            }
            emitted += drain_lockstep(&mut auto, &mut dense, "step");
            assert_boundaries_agree(&mut auto, &mut dense, "step");
        }
        let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
        let a = close_stream(&mut auto, &clients, 10_000.0);
        let d = close_stream(&mut dense, &clients, 10_000.0);
        emitted += assert_batches_bit_identical(&a, &d, "close");
        assert_eq!(emitted, 20);
        assert_eq!(emitted_ids(&a).len(), a.iter().map(|b| b.messages.len()).sum::<usize>());
    }

    #[test]
    fn stream_engine_drives_the_sharded_wrapper() {
        let offsets = gaussian_census(4, 1.0);
        let mut sharded = ShardedSequencer::new(SequencerConfig::default().with_shards(2));
        register_all(&mut sharded, &offsets);
        let clients: Vec<ClientId> = offsets.iter().map(|(c, _)| *c).collect();
        let mut total = 0;
        for i in 0..24u64 {
            let t = i as f64 * 5.0;
            let m = Message::new(MessageId(i), ClientId((i % 4) as u32), t);
            for &client in &clients {
                if client != m.client {
                    sharded.heartbeat_at(client, t, t + 1.0).expect("heartbeat");
                }
            }
            sharded.submit_at(m, t + 1.0).expect("valid");
            sharded.pump(t + 1.0);
            total += sharded.drain().iter().map(|b| b.messages.len()).sum::<usize>();
        }
        total += close_stream(&mut sharded, &clients, 10_000.0)
            .iter()
            .map(|b| b.messages.len())
            .sum::<usize>();
        assert_eq!(total, 24, "every message emitted exactly once");
    }

    #[test]
    fn run_honest_emits_and_stays_trusted() {
        let dists = gaussian_census(3, 2.0);
        let seq = run_honest(5, &dists, &[1.0, 1.5, 2.0], 10, defended_config());
        let stats = seq.stats();
        assert_eq!(stats.quarantines, 0, "{stats:?}");
        let mut rng = StdRng::seed_from_u64(1);
        let (msg, arrival) = honest_message(999, ClientId(0), 1e6, &dists[0].1, 1.0, &mut rng);
        assert_eq!(msg.client, ClientId(0));
        assert_eq!(arrival, 1e6 + 1.0);
    }
}
