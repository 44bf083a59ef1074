//! End-to-end wire→emit benchmark of the Tommy sequencer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gaussian-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run generates the workload from `--seed`, times the front door's
//! set-up, replays the schedule in closed-loop passes (capacity, heap peak)
//! and open-loop passes at the workload's offered rate (latency), checks
//! every pass's output, scores the emitted order, and prints one JSON
//! object as its last line: the end-to-end metrics with `--trace 0`, or
//! with `--trace 1` the per-layer metrics of an extra traced pass. A
//! failed output check is reported on standard error and in `"correct"`,
//! and the run exits with code 1.

mod alloc;
mod replay;
mod score;
mod spans;
mod workload;

use replay::{run_pass, FrontDoor, Pace, Pass};
use spans::{attribute, Layer, NoTrace, Trace};
use std::process::ExitCode;
use std::time::Instant;
use tommy_core::sequencer::online::OnlineSequencer;
use tommy_core::sequencer::sharded::ShardedSequencer;
use tommy_stats::quantile::quantile_sorted;
use workload::{Kind, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics: name and unit, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 10] = [
    ("capacity_msgs_per_s", "msgs/s"),
    ("latency_us_p50", "us"),
    ("latency_us_p90", "us"),
    ("order_delay_p50", "sim"),
    ("order_delay_p99", "sim"),
    ("ras", "score"),
    ("violation_free_ratio", "ratio"),
    ("delivered_ratio", "ratio"),
    ("peak_heap_bytes", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 56] = [
    ("wire.decode.busy_ms", "ms"),
    ("wire.decode.frames", "count"),
    ("wire.decode.ns_per_frame", "ns"),
    ("wire.session.busy_ms", "ms"),
    ("wire.session.frames_in", "count"),
    ("wire.session.released", "count"),
    ("wire.session.release_ratio", "ratio"),
    ("wire.session.gaps", "count"),
    ("wire.session.dupes_dropped", "count"),
    ("wire.session.reorders_buffered", "count"),
    ("wire.session.retransmit_requests", "count"),
    ("wire.session.skipped", "count"),
    ("core.online.submit.busy_ms", "ms"),
    ("core.online.submit.calls", "count"),
    ("core.online.heartbeat.busy_ms", "ms"),
    ("core.online.heartbeat.calls", "count"),
    ("core.online.tick.busy_ms", "ms"),
    ("core.online.drain.busy_ms", "ms"),
    ("core.online.flush.busy_ms", "ms"),
    ("core.sparse.lazy_evals", "count"),
    ("core.sparse.dense_columns_avoided", "count"),
    ("core.sparse.peak_index_bytes", "bytes"),
    ("core.precedence.queries", "count"),
    ("core.precedence.queries_per_msg", "1/msg"),
    ("core.precedence.peak_matrix_bytes", "bytes"),
    ("core.batching.boundary_evals", "count"),
    ("core.batching.splits", "count"),
    ("core.batching.merges", "count"),
    ("core.fas.local_repairs", "count"),
    ("core.fas.exhaustive_passes", "count"),
    ("core.fas.full_rebuilds", "count"),
    ("core.watermark.stall_ticks", "count"),
    ("core.liveness.evictions", "count"),
    ("core.liveness.rejoins", "count"),
    ("core.defense.quarantines", "count"),
    ("core.defense.reestimations", "count"),
    ("core.defense.collusion_checks", "count"),
    ("core.defense.margin_fallbacks", "count"),
    ("core.online.max_pending", "count"),
    ("core.online.peak_tracked_ids", "count"),
    ("core.online.batches", "count"),
    ("core.online.mean_batch_size", "msgs"),
    ("core.sharded.drive.busy_ms", "ms"),
    ("core.sharded.drive.calls", "count"),
    ("core.sharded.shard_merges", "count"),
    ("core.sharded.cross_shard_evals", "count"),
    ("core.sharded.shard_imbalance", "count"),
    ("bench.loop_ms", "ms"),
    ("bench.warmup_ms", "ms"),
    ("bench.unattributed_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("latency_us_p99", "us"),
    ("gen.lateness_us_p99", "us"),
    ("gen.frames_sent", "count"),
    ("loss_ratio", "ratio"),
    ("violation_rate", "ratio"),
];

/// Set-up is timed after every pass, as a group of this many back-to-back
/// set-ups, and the median over the run reported.
const SETUPS_PER_SAMPLE: usize = 16;
/// Share of `--seconds` spent in closed-loop and in open-loop passes.
const CLOSED_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.45;
const MIN_CLOSED_PASSES: usize = 3;
/// Spans written to `.bench_out/` after a traced run.
const SPANS_WRITTEN: usize = 200_000;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What the run measured, by metric name.
struct Report {
    metrics: Vec<(&'static str, &'static str, f64)>,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, table: &[(&'static str, &'static str)], name: &str, value: f64) {
        let &(name, unit) = table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric"));
        if !value.is_finite() {
            self.failures.push(format!("{name} is not finite"));
        }
        self.metrics.push((name, unit, value));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let v = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// `values`, sorted ascending.
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of a non-empty sample.
fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values.to_vec()), 0.5)
}

/// Check a pass, fold its outcome into the report, and compare its batch
/// digest with the run's first pass.
fn account(w: &Workload, pass: &Pass, digest: &mut Option<u64>, report: &mut Report) {
    for f in score::check(w, pass) {
        report.failures.push(f);
    }
    let d = score::digest(pass);
    match *digest {
        None => *digest = Some(d),
        Some(first) if first != d => report.failures.push(format!(
            "batch digest {d:016x} differs from the first pass's {first:016x}"
        )),
        Some(_) => {}
    }
    let n = w.messages.len() as u64;
    report.attempted += n;
    report.failed += n - pass.emitted() as u64;
}

fn run<F: FrontDoor>(w: &Workload, args: &Args) -> Report {
    let mut report = Report {
        metrics: Vec::new(),
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut setup: Vec<f64> = Vec::new();

    // Open loop: sim time maps linearly to wall time at the offered rate.
    let n = w.messages.len() as f64;
    let ns_per_unit = 1e9 * n / (w.message_span * w.kind.offered_rate());
    let schedule_s = (w.steps.last().map_or(0.0, |s| s.at) - w.timed_t0) * ns_per_unit / 1e9;
    let open_passes = ((OPEN_SHARE * args.seconds / schedule_s).floor() as usize).clamp(1, 20);

    // Closed- and open-loop passes alternate, so both sample the whole run.
    let mut digest = None;
    let mut capacities = Vec::new();
    let mut heaps = Vec::new();
    let mut first: Option<Pass> = None;
    let mut closed_s = 0.0;
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut p99s = Vec::new();
    let mut lateness = Vec::new();
    loop {
        let closed_done =
            capacities.len() >= MIN_CLOSED_PASSES && closed_s >= CLOSED_SHARE * args.seconds;
        if closed_done && p50s.len() >= open_passes {
            break;
        }
        if !closed_done {
            let started = Instant::now();
            let (pass, _) = run_pass::<F, _>(w, Pace::Closed, NoTrace, false);
            closed_s += started.elapsed().as_secs_f64();
            account(w, &pass, &mut digest, &mut report);
            capacities.push(pass.capacity());
            heaps.push(pass.peak_heap as f64);
            setup.push(replay::time_setups::<F>(w, SETUPS_PER_SAMPLE));
            first.get_or_insert(pass);
        }
        if p50s.len() < open_passes {
            let (pass, _) = run_pass::<F, _>(w, Pace::Open(ns_per_unit), NoTrace, false);
            account(w, &pass, &mut digest, &mut report);
            let lat = sorted(score::latencies_us(w, &pass, ns_per_unit));
            p50s.push(quantile_sorted(&lat, 0.50));
            p90s.push(quantile_sorted(&lat, 0.90));
            p99s.push(quantile_sorted(&lat, 0.99));
            let late = sorted(pass.lateness_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
            lateness.push(quantile_sorted(&late, 0.99));
            setup.push(replay::time_setups::<F>(w, SETUPS_PER_SAMPLE));
        }
    }
    let first = first.expect("at least one closed pass");
    let capacity = median(&capacities);

    eprintln!("open-loop p50 per pass {p50s:.1?}, p99 per pass {p99s:.1?}");
    eprintln!("closed-loop capacity per pass {capacities:.0?}");
    let generated = w.messages.len();
    let emitted = first.emitted();
    let stats = first.stats;
    eprintln!(
        "{}: {generated} messages, {} frames sent, {} steps; {} closed and {open_passes} open passes",
        w.kind.name(),
        w.frames_sent,
        w.steps.len(),
        capacities.len(),
    );
    eprintln!(
        "batch digest {:016x}, identical across all passes: {}",
        digest.unwrap_or(0),
        report
            .failures
            .iter()
            .all(|f| !f.starts_with("batch digest"))
    );
    let latency_p99 = median(&p99s);
    eprintln!(
        "open loop at {} msgs/s: p99 {:.1} us against a limit of {} us ({})",
        w.kind.offered_rate(),
        latency_p99,
        w.kind.p99_limit_us(),
        if latency_p99 <= w.kind.p99_limit_us() {
            "met"
        } else {
            "missed"
        }
    );

    if !args.trace {
        let t = &END_TO_END;
        report.put(t, "capacity_msgs_per_s", capacity);
        report.put(t, "latency_us_p50", median(&p50s));
        report.put(t, "latency_us_p90", median(&p90s));
        let delays = sorted(score::order_delays(w, &first));
        report.put(t, "order_delay_p50", quantile_sorted(&delays, 0.50));
        report.put(t, "order_delay_p99", quantile_sorted(&delays, 0.99));
        report.put(t, "ras", score::pass_ras(w, &first).normalized());
        report.put(
            t,
            "violation_free_ratio",
            1.0 - stats.fairness_violations as f64 / emitted as f64,
        );
        report.put(t, "delivered_ratio", emitted as f64 / generated as f64);
        report.put(t, "peak_heap_bytes", median(&heaps));
        report.put(t, "setup_s", median(&setup));
        return report;
    }

    // The traced pass: spans around every call, attribution afterwards.
    let capacity_spans = 4 * (w.frames_sent + w.steps.len()) + 1024;
    let (traced, tracer) = run_pass::<F, _>(w, Pace::Closed, Trace::new(capacity_spans), true);
    account(w, &traced, &mut digest, &mut report);
    let attribution = match attribute(tracer.spans(), traced.loop_ns) {
        Ok(a) => a,
        Err(e) => {
            report.failures.push(format!("span tree: {e}"));
            spans::Attribution::default()
        }
    };
    let path = std::path::Path::new(".bench_out").join(format!("spans-{}.tsv", w.kind.name()));
    if let Err(e) = spans::write_spans(&path, tracer.spans(), SPANS_WRITTEN) {
        eprintln!("could not write {}: {e}", path.display());
    }
    drop(tracer);

    let t = &PER_LAYER;
    let p = &traced;
    let s = p.stats;
    let e = p.engine;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let a = &attribution;
    report.put(t, "wire.decode.busy_ms", a.ms(Layer::Decode));
    report.put(t, "wire.decode.frames", p.calls.frames as f64);
    report.put(
        t,
        "wire.decode.ns_per_frame",
        per(a.ms(Layer::Decode) * 1e6, p.timed_frames as f64),
    );
    report.put(t, "wire.session.busy_ms", a.ms(Layer::Session));
    report.put(t, "wire.session.frames_in", p.calls.frames as f64);
    report.put(t, "wire.session.released", p.calls.released as f64);
    report.put(
        t,
        "wire.session.release_ratio",
        per(p.calls.released as f64, p.calls.frames as f64),
    );
    report.put(t, "wire.session.gaps", p.session.gaps_detected as f64);
    report.put(
        t,
        "wire.session.dupes_dropped",
        p.session.dupes_dropped as f64,
    );
    report.put(
        t,
        "wire.session.reorders_buffered",
        p.session.reorders_buffered as f64,
    );
    report.put(
        t,
        "wire.session.retransmit_requests",
        p.session.retransmit_requests as f64,
    );
    report.put(
        t,
        "wire.session.skipped",
        p.session.sequences_skipped as f64,
    );
    report.put(t, "core.online.submit.busy_ms", a.ms(Layer::Submit));
    report.put(t, "core.online.submit.calls", p.calls.submits as f64);
    report.put(t, "core.online.heartbeat.busy_ms", a.ms(Layer::Heartbeat));
    report.put(t, "core.online.heartbeat.calls", p.calls.heartbeats as f64);
    report.put(t, "core.online.tick.busy_ms", a.ms(Layer::Tick));
    report.put(t, "core.online.drain.busy_ms", a.ms(Layer::Drain));
    report.put(t, "core.online.flush.busy_ms", a.ms(Layer::Flush));
    report.put(t, "core.sparse.lazy_evals", s.lazy_evals as f64);
    report.put(
        t,
        "core.sparse.dense_columns_avoided",
        s.dense_columns_avoided as f64,
    );
    report.put(t, "core.sparse.peak_index_bytes", s.peak_index_bytes as f64);
    // The registry also counts the sparse engine's lazy evaluations; the
    // rest are the dense matrix's column fills.
    let dense_queries = e.queries.saturating_sub(s.lazy_evals) as f64;
    report.put(t, "core.precedence.queries", dense_queries);
    report.put(
        t,
        "core.precedence.queries_per_msg",
        per(dense_queries, p.calls.submits as f64),
    );
    report.put(
        t,
        "core.precedence.peak_matrix_bytes",
        s.peak_matrix_bytes as f64,
    );
    report.put(t, "core.batching.boundary_evals", e.boundary_evals as f64);
    report.put(t, "core.batching.splits", e.splits as f64);
    report.put(t, "core.batching.merges", e.merges as f64);
    report.put(t, "core.fas.local_repairs", e.local_repairs as f64);
    report.put(t, "core.fas.exhaustive_passes", p.exhaustive_passes as f64);
    report.put(t, "core.fas.full_rebuilds", e.full_rebuilds as f64);
    report.put(
        t,
        "core.watermark.stall_ticks",
        s.watermark_stall_ticks as f64,
    );
    report.put(t, "core.liveness.evictions", s.evictions as f64);
    report.put(t, "core.liveness.rejoins", s.rejoins as f64);
    report.put(t, "core.defense.quarantines", s.quarantines as f64);
    report.put(t, "core.defense.reestimations", s.reestimations as f64);
    report.put(
        t,
        "core.defense.collusion_checks",
        s.collusion_checks as f64,
    );
    report.put(
        t,
        "core.defense.margin_fallbacks",
        s.margin_fallbacks as f64,
    );
    report.put(t, "core.online.max_pending", s.max_pending as f64);
    report.put(t, "core.online.peak_tracked_ids", p.peak_tracked as f64);
    report.put(t, "core.online.batches", s.batches_emitted as f64);
    report.put(
        t,
        "core.online.mean_batch_size",
        per(s.messages_emitted as f64, s.batches_emitted as f64),
    );
    report.put(t, "core.sharded.drive.busy_ms", a.ms(Layer::Drive));
    report.put(t, "core.sharded.drive.calls", p.calls.drives as f64);
    report.put(t, "core.sharded.shard_merges", s.shard_merges as f64);
    report.put(
        t,
        "core.sharded.cross_shard_evals",
        s.cross_shard_evals as f64,
    );
    report.put(t, "core.sharded.shard_imbalance", s.shard_imbalance as f64);
    report.put(t, "bench.loop_ms", a.loop_ns as f64 / 1e6);
    report.put(t, "bench.warmup_ms", p.warmup_ns as f64 / 1e6);
    report.put(t, "bench.unattributed_ms", a.unattributed_ns as f64 / 1e6);
    report.put(t, "bench.trace_overhead", traced.capacity() / capacity);
    report.put(t, "latency_us_p99", latency_p99);
    report.put(t, "gen.lateness_us_p99", median(&lateness));
    report.put(t, "gen.frames_sent", w.frames_sent as f64);
    report.put(t, "loss_ratio", 1.0 - emitted as f64 / generated as f64);
    report.put(
        t,
        "violation_rate",
        per(stats.fairness_violations as f64, emitted as f64),
    );
    report
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = workload::generate(args.kind, args.seed);
    let report = match args.kind {
        Kind::ShardedK2 => run::<ShardedSequencer>(&w, &args),
        _ => run::<OnlineSequencer>(&w, &args),
    };
    for (name, unit, value) in &report.metrics {
        eprintln!("{name:<36} {value:>16.6} {unit}");
    }
    for f in &report.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables and workload names agree with `BENCHMARK.json`.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closes") + start;
            &json[start..end]
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = section(key);
            assert_eq!(
                listed.matches("\"name\"").count(),
                table.len(),
                "{key} size"
            );
            for (name, unit) in table {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(listed.contains(&entry), "{key} lacks {name} [{unit}]");
            }
        }
        for entry in section("workloads").split("\"name\": \"").skip(1) {
            let name = &entry[..entry.find('"').expect("quoted name")];
            assert!(Kind::parse(name).is_some(), "unknown workload {name}");
        }
    }

    /// The same seed gives the same schedule; another seed does not.
    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in [Kind::GaussianSteady, Kind::FaultyDefended] {
            let a = workload::generate(kind, 7);
            let b = workload::generate(kind, 7);
            let c = workload::generate(kind, 8);
            assert_eq!(a.bytes, b.bytes, "{}", kind.name());
            assert_eq!(a.steps.len(), b.steps.len());
            assert_ne!(a.bytes, c.bytes, "{}", kind.name());
        }
    }
}
