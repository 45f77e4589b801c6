//! Measurement infrastructure for the micro-sliced cores reproduction.
//!
//! The paper's evaluation reports yield counts (Table 2, Figure 7), lock
//! wait times (Table 4a), TLB synchronization latencies (Table 4b), network
//! jitter/throughput (Table 4c, Figure 9), and normalized execution times /
//! throughput improvements (Figures 4–6, 8). This crate provides the
//! measurement primitives all of those share:
//!
//! - [`hist::Histogram`] — log-linear latency histogram with avg/min/max and
//!   percentile queries (the role Lockstat and SystemTap play in §3.3).
//! - [`summary::Summary`] — plain running mean/min/max accumulator.
//! - [`counters`] — named monotonic counters with snapshot/delta support
//!   (the role of Xen's perf counters in the adaptive controller).
//! - [`render`] — minimal fixed-width table renderer for experiment output.

#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod render;
pub mod summary;

pub use counters::{Counter, CounterSet};
pub use hist::Histogram;
pub use render::Table;
pub use summary::Summary;
