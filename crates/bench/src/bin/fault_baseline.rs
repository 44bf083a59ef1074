//! Emit `BENCH_faults.json`: throughput, RAS and recovery counters of the
//! fault-injected streaming path (sequenced stream frames → wire framing →
//! gap/duplicate/reorder recovery → liveness-enabled online sequencer) as a
//! loss-rate × reordering × recovery-policy sweep.
//!
//! Each row records what the fault actually cost: messages per second,
//! normalized RAS over the delivered subset, how many messages got through,
//! and the session/liveness counters (gaps detected, duplicates dropped,
//! retransmit requests, skips, evictions) that explain the recovery.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p tommy-bench --bin fault_baseline
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use tommy_bench::{run_fault_cell, FAULT_MESSAGES};
use tommy_netsim::{FaultFamily, FaultPlan};
use tommy_core::sequencer::OnlineSequencer;
use tommy_sim::runner::StreamResult;
use tommy_wire::RecoveryPolicy;

const LOSS_RATES: [f64; 3] = [0.0, 0.05, 0.2];
const TARGET_SECONDS: f64 = 0.4;

/// Repeat `f` until `TARGET_SECONDS` of wall clock elapse (at least once);
/// return seconds per call alongside the last result.
fn time_per_call<F: FnMut() -> StreamResult<OnlineSequencer>>(
    mut f: F,
) -> (f64, StreamResult<OnlineSequencer>) {
    f(); // one untimed warm-up call
    let start = Instant::now();
    let mut calls = 0u64;
    let result;
    loop {
        let r = f();
        calls += 1;
        if start.elapsed().as_secs_f64() >= TARGET_SECONDS {
            result = r;
            break;
        }
    }
    (start.elapsed().as_secs_f64() / calls as f64, result)
}

fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        ("halt", RecoveryPolicy::Halt),
        ("skip", RecoveryPolicy::SkipAfterTimeout { timeout: 10.0 }),
        (
            "retransmit",
            RecoveryPolicy::RequestRetransmit {
                max_retries: 4,
                base_backoff: 2.0,
            },
        ),
    ]
}

fn main() {
    let mut rows = Vec::new();
    for loss in LOSS_RATES {
        for reorder in [false, true] {
            let mut plans = Vec::new();
            if loss > 0.0 {
                plans.push(FaultPlan::new(FaultFamily::Loss, loss));
            }
            if reorder {
                plans.push(FaultPlan::new(FaultFamily::Reorder, 1.0).with_scale(4.0));
            }
            for (policy_name, policy) in policies() {
                eprintln!("measuring loss {loss}, reorder {reorder}, policy {policy_name} ...");
                let (secs, result) = time_per_call(|| run_fault_cell(&plans, policy));
                let rate = FAULT_MESSAGES as f64 / secs;
                rows.push((loss, reorder, policy_name, rate, result));
            }
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"faults\",\n");
    json.push_str(
        "  \"description\": \"throughput, RAS and recovery counters of the fault-injected \
         wire path across loss rate x reordering x recovery policy\",\n",
    );
    json.push_str("  \"unit\": \"messages_per_sec\",\n");
    json.push_str("  \"results\": [\n");
    let n = rows.len();
    for (i, (loss, reorder, policy, rate, result)) in rows.into_iter().enumerate() {
        let stats = result.stats();
        let _ = write!(
            json,
            "    {{\"loss\": {loss}, \"reorder\": {reorder}, \"policy\": \"{policy}\", \
             \"msgs_per_sec\": {rate:.1}, \"ras_normalized\": {:.6}, \
             \"submitted\": {}, \"emitted\": {}, \"frames_dropped\": {}, \
             \"gaps_detected\": {}, \"dupes_dropped\": {}, \"reorders_buffered\": {}, \
             \"retransmit_requests\": {}, \"sequences_skipped\": {}, \
             \"evictions\": {}, \"watermark_stall_ticks\": {}}}",
            result.ras().normalized(),
            result.submitted.len(),
            stats.messages_emitted,
            result.wire().frames_dropped,
            stats.gaps_detected,
            stats.dupes_dropped,
            stats.reorders_buffered,
            stats.retransmit_requests,
            stats.sequences_skipped,
            stats.evictions,
            stats.watermark_stall_ticks,
        );
        json.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_faults.json", &json).expect("write BENCH_faults.json");
    println!("{json}");
    eprintln!("wrote BENCH_faults.json");
}
