//! # fgstp-telemetry
//!
//! Cycle-accounting observability for the Fg-STP reproduction: where do
//! the cycles go?
//!
//! The timing models report end-of-run IPC plus scattered counters; this
//! crate adds the standard instrument for explaining *why* a knob moved a
//! geomean — **CPI stacks**. Every non-commit cycle of every core is
//! charged to exactly one [`StallCategory`] (frontend, branch redirect,
//! window full, dependence chain, FU contention, the miss level that
//! serviced the blocking load, and the Fg-STP-specific communication /
//! replication / memory-speculation / commit-sync overheads), so the
//! per-category cycle counts plus the base (committing) cycles always sum
//! to the measured total — the stack invariant [`CpiStack::check`]
//! enforces.
//!
//! The crate is dependency-free and knows nothing about the pipeline: the
//! timing models drive it through the [`CycleSink`] trait, which uses an
//! associated `const ENABLED` so the disabled sink ([`NullSink`])
//! compiles to nothing — no `dyn` dispatch, no branch, no cost in the
//! cycle loop.
//!
//! Three layers:
//!
//! * [`registry`] — a small metrics registry (monotonic counters, gauges,
//!   log2-bucketed histograms) with table/CSV rendering;
//! * [`cpi`] + [`sink`] — stall categories, CPI stacks, and the per-cycle
//!   sinks that accumulate them (plus contiguous same-category episodes);
//! * [`chrome`] — a Chrome `trace_event` JSON writer: the recorded
//!   episodes load directly in Perfetto / `chrome://tracing`;
//! * [`json`] — a minimal dependency-free JSON value type (parser and
//!   deterministic writer) shared by the perf-regression harness and the
//!   `fgstpd` batch-simulation protocol.
//!
//! ```
//! use fgstp_telemetry::{CpiSink, CycleOutcome, CycleSink, StallCategory};
//!
//! let mut sink = CpiSink::new(1);
//! sink.record(0, 0, CycleOutcome::Stall(StallCategory::Frontend));
//! sink.record(0, 1, CycleOutcome::Commit(2));
//! let stack = sink.merged();
//! assert_eq!(stack.total_cycles(), 2);
//! assert!(stack.check().is_ok());
//! ```

pub mod chrome;
pub mod cpi;
pub mod json;
pub mod registry;
pub mod sink;

/// Canonical metric names shared by every counter producer (the session
/// driver, the batch service) and consumer (CLI summaries, CI smoke
/// checks), so a rename cannot silently decouple the two sides.
pub mod names {
    /// Retired: no counter is recorded under this name any more. Kept
    /// only until the next benchmark change drops `perfbench`'s read
    /// of it.
    pub const SNAPSHOT_HITS: &str = "sampling.snapshot-hits";
    /// Retired like [`SNAPSHOT_HITS`], and kept for the same reason.
    pub const SNAPSHOT_MISSES: &str = "sampling.snapshot-misses";
    /// Instructions retired through the functional-warming fast path
    /// across all sampled runs.
    pub const WARMED_INSTS: &str = "sampling.warmed-insts";
}

pub use chrome::write_chrome_trace;
pub use cpi::{CpiStack, MemLevel, StallCategory};
pub use json::Json;
pub use registry::{Histogram, Metric, Registry};
pub use sink::{CpiSink, CycleOutcome, CycleSink, Episode, NullSink};
