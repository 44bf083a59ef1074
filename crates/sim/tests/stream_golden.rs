//! Golden digests of the stream runner.
//!
//! Each cell runs one scenario through [`run_stream`] and digests the
//! emitted batch sequence, the submitted messages, the engine's
//! [`OnlineStats`], the RAS and — on the wire path — the delivery trace and
//! frame counts. The expected values were recorded from the three separate
//! runners (single engine, sharded, fault-injected wire) that the one
//! driver replaced, so any behaviour change in the schedule, configuration,
//! engine side or either delivery close shows up here, in debug and release
//! builds alike.

use tommy_core::message::{Message, MessageId};
use tommy_core::sequencer::{OnlineSequencer, OnlineStats, ShardedSequencer, StreamEngine};
use tommy_metrics::ras::RasScore;
use tommy_netsim::{FaultFamily, FaultPlan};
use tommy_sim::{run_stream, Delivery, ScenarioConfig, StreamResult};
use tommy_wire::RecoveryPolicy;
use tommy_workload::{AttackFamily, AttackPlan};

const P_SAFE: f64 = 0.99;

/// What a cell's digest covers.
struct Outcome {
    groups: Vec<Vec<MessageId>>,
    submitted: Vec<Message>,
    stats: OnlineStats,
    ras: RasScore,
    /// The wire path's trace and frame counts (empty on the direct path).
    wire: String,
}

fn outcome<E: StreamEngine>(result: StreamResult<E>) -> Outcome {
    let wire = result.wire.as_ref().map_or_else(String::new, |w| {
        format!(
            "{:?}|{}|{}|{}|{}|{}|{}",
            w.trace,
            result.generated,
            w.frames_sent,
            w.frames_delivered,
            w.frames_dropped,
            w.frames_duplicated,
            w.retransmits_answered
        )
    });
    Outcome {
        groups: result
            .order
            .batches()
            .iter()
            .map(|b| b.messages.clone())
            .collect(),
        stats: result.stats(),
        ras: result.ras(),
        submitted: result.submitted,
        wire,
    }
}

fn direct_single(cfg: &ScenarioConfig) -> Outcome {
    outcome(run_stream::<OnlineSequencer>(cfg, P_SAFE, Delivery::Direct))
}

fn direct_sharded(cfg: &ScenarioConfig) -> Outcome {
    outcome(run_stream::<ShardedSequencer>(
        cfg,
        P_SAFE,
        Delivery::Direct,
    ))
}

fn wire(cfg: &ScenarioConfig, plans: &[FaultPlan], policy: RecoveryPolicy) -> Outcome {
    outcome(run_stream::<OnlineSequencer>(
        cfg,
        P_SAFE,
        Delivery::Wire { plans, policy },
    ))
}

/// 64-bit FNV-1a: a stable, dependency-free digest.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn digest(outcome: &Outcome) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for group in &outcome.groups {
        h.u64(group.len() as u64);
        for id in group {
            h.u64(id.0);
        }
    }
    for m in &outcome.submitted {
        h.u64(m.id.0);
        h.u64(u64::from(m.client.0));
        h.u64(m.timestamp.to_bits());
        h.u64(m.true_time.unwrap_or(f64::NAN).to_bits());
    }
    h.bytes(format!("{:?}", outcome.stats).as_bytes());
    h.u64(outcome.ras.score() as u64);
    h.u64(outcome.ras.pairs() as u64);
    h.bytes(outcome.wire.as_bytes());
    h.0
}

fn gaussian() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(12, 240)
        .with_clock_std_dev(3.0)
        .with_gap(2.0)
        .with_seed(5)
}

fn fault_scenario() -> ScenarioConfig {
    ScenarioConfig::default()
        .with_size(8, 120)
        .with_clock_std_dev(3.0)
        .with_gap(4.0)
        .with_seed(21)
}

const RETRANSMIT: RecoveryPolicy = RecoveryPolicy::RequestRetransmit {
    max_retries: 4,
    base_backoff: 5.0,
};

fn cells() -> Vec<(&'static str, Outcome)> {
    let cyclic = ScenarioConfig::default()
        .with_size(9, 160)
        .with_clock_std_dev(2.0)
        .with_gap(1.0)
        .with_seed(13)
        .with_cyclic_fraction(0.3);
    let misreport = ScenarioConfig::default()
        .with_size(6, 240)
        .with_clock_std_dev(3.0)
        .with_gap(8.0)
        .with_seed(21)
        .with_defended(true)
        .with_adversarial(AttackPlan::new(AttackFamily::Misreport, 0.6).with_scale(3.0));
    let loss = FaultPlan::new(FaultFamily::Loss, 0.2);
    let reorder = FaultPlan::new(FaultFamily::Reorder, 1.0).with_scale(4.0);
    vec![
        ("direct/gaussian", direct_single(&gaussian())),
        ("direct/cyclic", direct_single(&cyclic)),
        ("direct/defended-misreport", direct_single(&misreport)),
        ("sharded/k1", direct_sharded(&gaussian().with_shards(1))),
        ("sharded/k2", direct_sharded(&gaussian().with_shards(2))),
        ("sharded/k4", direct_sharded(&gaussian().with_shards(4))),
        (
            "wire/retransmit-loss20-reorder",
            wire(&fault_scenario(), &[loss, reorder], RETRANSMIT),
        ),
        (
            "wire/halt-loss20",
            wire(&fault_scenario(), &[loss], RecoveryPolicy::Halt),
        ),
    ]
}

/// The recorded digests. `sharded/k1` equals `direct/gaussian`: one shard
/// is a bit-identical passthrough, stats included.
const GOLDEN: [(&str, u64); 8] = [
    ("direct/gaussian", 0xbd6f6672ba6ef005),
    ("direct/cyclic", 0x1d0097059b63f4bd),
    ("direct/defended-misreport", 0x8fb9138e76e0cef8),
    ("sharded/k1", 0xbd6f6672ba6ef005),
    ("sharded/k2", 0x848548f863cc5343),
    ("sharded/k4", 0xb25355daf43c80ab),
    ("wire/retransmit-loss20-reorder", 0x972885296a46cf2e),
    ("wire/halt-loss20", 0x8030587d861a4236),
];

#[test]
fn stream_digests_match_the_golden_values() {
    let got: Vec<(&str, u64)> = cells().iter().map(|(n, o)| (*n, digest(o))).collect();
    for ((name, value), (_, want)) in got.iter().zip(GOLDEN) {
        assert_eq!(
            *value, want,
            "{name}: digest 0x{value:016x}, want 0x{want:016x}"
        );
    }
    assert_eq!(got.len(), GOLDEN.len());
}
