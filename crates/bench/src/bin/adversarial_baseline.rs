//! Emit `BENCH_adversarial.json`: RAS and throughput of the online
//! sequencer under each adversarial attack family (misreported
//! distributions, mid-stream clock drift, timestamp collusion, correlated
//! shared-signal collusion), defended versus undefended, at two attack
//! intensities plus the honest control.
//!
//! Each row also records the defense counters that explain the recovery:
//! quarantines, drift-triggered re-estimations, messages sequenced under
//! quarantine fallback margins, and the cross-client correlation counters
//! (checks run, collusion quarantines, peak pair score) — alongside the
//! fairness violations the attack actually caused, and a `detected` flag
//! (did the defense take any action at all).
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release -p tommy-bench --bin adversarial_baseline
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use tommy_bench::run_adversarial_stream;
use tommy_core::sequencer::OnlineSequencer;
use tommy_sim::runner::StreamResult;
use tommy_workload::AttackFamily;

const INTENSITIES: [f64; 2] = [0.25, 0.6];
const MESSAGES: usize = 240;
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

fn main() {
    // (family label, family, intensity); the honest control rides along as a
    // zero-intensity misreport row so both defended and undefended baselines
    // land in the same table.
    let mut cells: Vec<(&'static str, AttackFamily, f64)> =
        vec![("honest", AttackFamily::Misreport, 0.0)];
    for family in AttackFamily::ALL {
        for intensity in INTENSITIES {
            cells.push((family.name(), family, intensity));
        }
    }

    let mut rows = Vec::new();
    for (label, family, intensity) in cells {
        for defended in [false, true] {
            eprintln!(
                "measuring {label} @ intensity {intensity}, defended = {defended} ..."
            );
            let (secs, result) = time_per_call(|| run_adversarial_stream(family, intensity, defended));
            let rate = MESSAGES as f64 / secs;
            rows.push((label, intensity, defended, rate, result));
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"adversarial\",\n");
    json.push_str(
        "  \"description\": \"online RAS and throughput under each attack family, \
         defended vs undefended, across attack intensities\",\n",
    );
    json.push_str("  \"unit\": \"messages_per_sec\",\n");
    json.push_str("  \"results\": [\n");
    let n = rows.len();
    for (i, (label, intensity, defended, rate, result)) in rows.into_iter().enumerate() {
        let stats = result.stats();
        let detected =
            stats.quarantines > 0 || stats.reestimations > 0 || stats.margin_fallbacks > 0;
        let _ = write!(
            json,
            "    {{\"family\": \"{label}\", \"intensity\": {intensity}, \
             \"defended\": {defended}, \"ras_normalized\": {:.6}, \
             \"msgs_per_sec\": {rate:.1}, \"fairness_violations\": {}, \
             \"quarantines\": {}, \"reestimations\": {}, \
             \"margin_fallbacks\": {}, \"collusion_checks\": {}, \
             \"collusion_quarantines\": {}, \"peak_collusion_score\": {:.4}, \
             \"detected\": {detected}}}",
            result.ras().normalized(),
            stats.fairness_violations,
            stats.quarantines,
            stats.reestimations,
            stats.margin_fallbacks,
            stats.collusion_checks,
            stats.collusion_quarantines,
            stats.peak_collusion_score,
        );
        json.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write("BENCH_adversarial.json", &json).expect("write BENCH_adversarial.json");
    println!("{json}");
    eprintln!("wrote BENCH_adversarial.json");
}
