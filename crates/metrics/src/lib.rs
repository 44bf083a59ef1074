//! # tommy-metrics
//!
//! Fairness metrics for evaluating sequencers against the omniscient-observer
//! ground truth (Definition 1 of the paper).
//!
//! * [`ras`] — the Rank Agreement Score the paper defines in §4: +1 per
//!   correctly ordered pair, −1 per incorrectly ordered pair, 0 for pairs the
//!   sequencer left in the same batch — plus the intra/cross-shard split
//!   ([`ras::PartitionedRas`]) that measures what the sharded sequencer's
//!   combiner costs relative to the single-engine anchor.
//! * [`pairwise`] — pairwise accuracy and ordering coverage, a decomposition
//!   of RAS that separates "how often you order" from "how often you are
//!   right when you do".
//! * [`kendall`] — Kendall-tau distance between
//!   total orders (used for the tie-broken total-order extension of §5).
//! * [`batchstats`] — batch-size statistics ("ideally, each batch should be
//!   of size 1", §3.4).
//! * [`latency`] — emission-latency summaries for the online sequencer
//!   (the `p_safe` latency/confidence trade-off of §3.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batchstats;
pub mod kendall;
pub mod latency;
pub mod pairwise;
pub mod ras;

pub use batchstats::BatchStats;
pub use kendall::{kendall_tau_distance, normalized_kendall_tau};
pub use latency::LatencySummary;
pub use pairwise::PairwiseReport;
pub use ras::{partitioned_rank_agreement_score, rank_agreement_score, PartitionedRas, RasScore};
