//! # fgstp-sampling
//!
//! SMARTS-style systematic interval sampling over instruction traces
//! (Wunderlich et al., ISCA 2003 — the standard methodology for the
//! trace-driven simulator class the paper uses), extended with
//! **live-points**: checkpointed, embarrassingly parallel detailed
//! windows.
//!
//! A sampled run is split into two phases:
//!
//! 1. **Planning** ([`SamplePlan::plan_stream`]): one pass of continuous
//!    functional warming over the *entire* trace — every instruction
//!    retires through the [`fgstp_ooo::WarmState`] fast path, updating
//!    only the long-lived microarchitectural state (cache hierarchy,
//!    branch predictors) and the architectural registers. At each
//!    detailed-window boundary the warm state is serialized into the
//!    window's [`WindowJob`] (a *live-point*), so every window carries an
//!    immutable byte-for-byte copy of its pre-window machine state.
//! 2. **Execution** ([`run_plan`]): each window deserializes its own
//!    private warm state and runs `warmup + detail` instructions on any
//!    [`TimingModel`] (the single core or the N-core Fg-STP machine). The
//!    first [`SampleConfig::warmup`] commits absorb the cold-pipeline ramp
//!    and their cycles are discarded; the remaining
//!    [`SampleConfig::detail`] instructions are the **measurement**.
//!
//! Because windows never share mutable state, they can run in any order
//! or concurrently — [`run_plan`] accepts a [`WindowPool`] hook — and the
//! merged results are bit-identical to the serial walk at any pool size.
//! Live-points live in memory only: every sampled run plans cold.
//!
//! Per-interval CPIs aggregate into a point estimate with a 95%
//! confidence interval ([`Estimate`], CLT over interval means) from which
//! total-run cycles and machine speedups are projected. The whole path is
//! deterministic: systematic (not random) interval placement, no RNG, no
//! wall-clock.
//!
//! ```
//! use fgstp_isa::trace_program;
//! use fgstp_ooo::CoreConfig;
//! use fgstp_mem::HierarchyConfig;
//! use fgstp_sampling::{run_plan, SampleConfig, SamplePlan};
//! use fgstp_telemetry::NullSink;
//! use fgstp_workloads::{by_name, Scale};
//!
//! let w = by_name("hmmer_dp", Scale::Test).unwrap();
//! let trace = trace_program(w.program(), Scale::Test.trace_budget()).unwrap();
//! let (cfg, hcfg) = (CoreConfig::small(), HierarchyConfig::small(1));
//! let scfg = SampleConfig { interval: 2_000, warmup: 300, detail: 150 };
//! let plan = SamplePlan::plan(trace.insts(), &cfg, &hcfg, &scfg);
//! let run = run_plan(&plan, &cfg, &hcfg, None, &mut NullSink);
//! assert!(run.detail_reduction() > 2.0);
//! assert!(run.est_cycles() > 0.0);
//! ```

pub mod stats;

use std::collections::VecDeque;

use fgstp_isa::DynInst;
use fgstp_mem::{HierarchyConfig, HierarchyStats};
use fgstp_ooo::{CoreConfig, TimingModel, WarmRun, WarmState};
use fgstp_telemetry::{CycleSink, NullSink};

pub use stats::{geomean_estimate, Estimate, Z95};

/// Sampling-regime parameters, in instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Systematic sampling period: one measurement per `interval`
    /// instructions of the trace.
    pub interval: u64,
    /// Detailed-warmup commits at the head of each timed window whose
    /// cycles are discarded (absorbs the cold ROB/issue/commq ramp).
    pub warmup: u64,
    /// Measured instructions per interval.
    pub detail: u64,
}

impl Default for SampleConfig {
    /// 10k-instruction intervals with a 600-instruction detailed warmup
    /// and a 300-instruction measurement — a ≈11× detail reduction.
    fn default() -> SampleConfig {
        SampleConfig {
            interval: 10_000,
            warmup: 600,
            detail: 300,
        }
    }
}

impl SampleConfig {
    /// Checks the regime is well-formed.
    ///
    /// # Panics
    ///
    /// Panics if `detail` is 0 or `warmup + detail` exceeds `interval`.
    pub fn validate(&self) {
        assert!(self.detail >= 1, "sampling needs a measurement window");
        assert!(
            self.warmup + self.detail <= self.interval,
            "warmup ({}) + detail ({}) must fit in one interval ({})",
            self.warmup,
            self.detail,
            self.interval
        );
    }

    /// Instructions per interval that run on the detailed machine.
    pub fn unit(&self) -> u64 {
        self.warmup + self.detail
    }

    /// Fraction of the trace simulated in detail (warmup included).
    pub fn detail_fraction(&self) -> f64 {
        self.unit() as f64 / self.interval as f64
    }
}

/// One measured interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalMeasure {
    /// Trace index of the first measured instruction.
    pub start: u64,
    /// Measured instructions.
    pub insts: u64,
    /// Cycles the measured instructions took (detailed warmup excluded).
    pub cycles: u64,
}

impl IntervalMeasure {
    /// Cycles per instruction of this interval.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.insts.max(1) as f64
    }
}

/// Placement of one detailed window, derived arithmetically from the
/// trace length and sampling regime by [`window_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Trace index of the first instruction the window simulates in
    /// detail (warmup included).
    pub start: u64,
    /// Instructions the window simulates in detail.
    pub len: u64,
    /// Leading commits whose cycles are discarded.
    pub measure_from: u64,
    /// Measured instructions (`len - measure_from`).
    pub measured: u64,
}

/// The detailed-window schedule for a trace of `total` instructions under
/// regime `scfg` — a pure function of the two, which is what lets
/// [`SnapshotData::matches`] check live-points against a trace length
/// alone.
///
/// Every `interval`-instruction chunk whose length reaches `warmup +
/// detail` contributes one window over its last `warmup + detail`
/// instructions. A trace too short for even one such window degenerates
/// to a single all-detail window with no discarded warmup, so every
/// non-empty sampled run has at least one measurement.
pub fn window_schedule(total: u64, scfg: &SampleConfig) -> Vec<WindowSpec> {
    scfg.validate();
    let unit = scfg.unit();
    let n_full = total / scfg.interval;
    let tail = total % scfg.interval;
    let mut specs = Vec::with_capacity(n_full as usize + 1);
    for k in 0..n_full {
        specs.push(WindowSpec {
            start: (k + 1) * scfg.interval - unit,
            len: unit,
            measure_from: scfg.warmup,
            measured: scfg.detail,
        });
    }
    if tail >= unit {
        specs.push(WindowSpec {
            start: total - unit,
            len: unit,
            measure_from: scfg.warmup,
            measured: scfg.detail,
        });
    } else if tail > 0 && n_full == 0 {
        specs.push(WindowSpec {
            start: 0,
            len: tail,
            measure_from: 0,
            measured: tail,
        });
    }
    specs
}

/// One detailed window, self-contained: its instructions and a serialized
/// copy of the warm state the machine enters it with (the *live-point*).
///
/// Jobs share nothing mutable, so any subset can run concurrently; the
/// results are merged back in `index` order, which keeps the aggregate
/// estimate bit-identical to a serial walk at any pool size.
#[derive(Debug, Clone)]
pub struct WindowJob {
    /// Position of this window in the systematic schedule.
    pub index: usize,
    /// Trace index of the window's first instruction (warmup included).
    pub start: u64,
    /// Leading commits whose cycles are discarded.
    pub measure_from: u64,
    /// Measured instructions.
    pub measured: u64,
    /// The window's instructions, in commit order.
    pub insts: Vec<DynInst>,
    /// Serialized pre-window [`WarmState`] ([`WarmState::save_state`]).
    pub state: Vec<u8>,
}

/// A fully planned sampled run: every detailed window as an independent
/// [`WindowJob`], plus the warm state after functionally retiring the
/// whole trace (the source of trace-wide branch and memory statistics).
#[derive(Debug, Clone)]
pub struct SamplePlan {
    /// The sampling regime the plan was built for.
    pub config: SampleConfig,
    /// Trace length in dynamic instructions.
    pub total_insts: u64,
    /// The detailed windows, in systematic order.
    pub jobs: Vec<WindowJob>,
    /// Serialized end-of-trace warm state.
    pub final_state: Vec<u8>,
    /// Instructions functionally warmed while building this plan: the
    /// whole trace when planned cold, zero when rebuilt by
    /// [`SamplePlan::plan_replay`].
    pub warmed_insts: u64,
}

/// The live-points of a plan, detached from its window instructions.
///
/// Kept only until the next benchmark change drops `perfbench`'s use
/// of it, together with [`SamplePlan::to_snapshot`] and
/// [`SamplePlan::plan_replay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotData {
    /// Trace length the live-points were taken over.
    pub total_insts: u64,
    /// (window start, serialized pre-window warm state), in schedule
    /// order.
    pub windows: Vec<(u64, Vec<u8>)>,
    /// Serialized end-of-trace warm state.
    pub final_state: Vec<u8>,
}

impl SnapshotData {
    /// Whether the live-points' window placement matches the schedule
    /// that (`total`, `scfg`) implies. Kept only until the next benchmark
    /// change, like [`SnapshotData`].
    pub fn matches(&self, total: u64, scfg: &SampleConfig) -> bool {
        if self.total_insts != total {
            return false;
        }
        let schedule = window_schedule(total, scfg);
        self.windows.len() == schedule.len()
            && self
                .windows
                .iter()
                .zip(&schedule)
                .all(|((start, _), spec)| *start == spec.start)
    }
}

impl SamplePlan {
    /// Plans a sampled run over a trace slice; see
    /// [`SamplePlan::plan_stream`].
    pub fn plan(
        trace: &[DynInst],
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        SamplePlan::plan_stream(trace.iter().copied(), cfg, hcfg, scfg)
    }

    /// Plans a sampled run by one pass of continuous functional warming:
    /// every instruction retires through the warm fast path exactly once,
    /// and the warm state is serialized into a live-point at each window
    /// boundary. Holds at most one window (`warmup + detail`
    /// instructions) of the trace in flight beyond the plan itself.
    pub fn plan_stream(
        trace: impl IntoIterator<Item = DynInst>,
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        scfg.validate();
        let unit = scfg.unit();
        let mut warm = WarmState::new(cfg, hcfg);
        let mut jobs: Vec<WindowJob> = Vec::new();
        let mut ring: VecDeque<DynInst> = VecDeque::with_capacity(unit as usize);
        let mut it = trace.into_iter();
        let mut pos = 0u64;
        let mut total = 0u64;
        loop {
            // Pull one interval; the ring delays warming of the newest
            // `unit` instructions so the live-point taken at the window
            // boundary reflects exactly the pre-window trace prefix.
            let mut len = 0u64;
            while len < scfg.interval {
                let Some(inst) = it.next() else { break };
                if ring.len() as u64 == unit {
                    let old = ring.pop_front().expect("ring is non-empty");
                    warm.retire(&old);
                }
                ring.push_back(inst);
                len += 1;
            }
            total += len;
            let end = pos + len;
            if len >= unit {
                jobs.push(WindowJob {
                    index: jobs.len(),
                    start: end - unit,
                    measure_from: scfg.warmup,
                    measured: scfg.detail,
                    insts: ring.iter().copied().collect(),
                    state: warm.save_state(),
                });
            } else if len > 0 && jobs.is_empty() {
                // Trace shorter than one window: a single all-detail
                // window from the initial state.
                jobs.push(WindowJob {
                    index: 0,
                    start: pos,
                    measure_from: 0,
                    measured: len,
                    insts: ring.iter().copied().collect(),
                    state: warm.save_state(),
                });
            }
            // Warming is continuous: the window's instructions warm too,
            // so downstream live-points see the full trace prefix.
            for old in ring.drain(..) {
                warm.retire(&old);
            }
            if len < scfg.interval {
                break;
            }
            pos = end;
        }
        SamplePlan {
            config: *scfg,
            total_insts: total,
            jobs,
            final_state: warm.save_state(),
            warmed_insts: total,
        }
    }

    /// Rebuilds a plan from its live-points and the trace they were taken
    /// over, with **zero** functional warming: the trace is only read to
    /// recover each window's instructions. Kept only until the next
    /// benchmark change drops `perfbench`'s use of it.
    ///
    /// # Panics
    ///
    /// Panics if the live-points do not match the trace and regime —
    /// callers gate on [`SnapshotData::matches`] first, which needs only
    /// the trace *length*, not its contents.
    pub fn plan_replay(
        trace: impl IntoIterator<Item = DynInst>,
        snap: SnapshotData,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        let schedule = window_schedule(snap.total_insts, scfg);
        assert!(
            snap.matches(snap.total_insts, scfg),
            "snapshot does not match the sampling schedule; check matches() first"
        );
        let mut jobs: Vec<WindowJob> = schedule
            .iter()
            .zip(snap.windows)
            .enumerate()
            .map(|(index, (spec, (start, state)))| WindowJob {
                index,
                start,
                measure_from: spec.measure_from,
                measured: spec.measured,
                insts: Vec::with_capacity(spec.len as usize),
                state,
            })
            .collect();
        let mut next = 0usize;
        let mut seen = 0u64;
        for (i, inst) in trace.into_iter().enumerate() {
            let i = i as u64;
            seen += 1;
            if next < jobs.len() {
                let (start, len) = (schedule[next].start, schedule[next].len);
                if i >= start && i < start + len {
                    jobs[next].insts.push(inst);
                    if i + 1 == start + len {
                        next += 1;
                    }
                }
            }
        }
        assert_eq!(
            seen, snap.total_insts,
            "trace length changed under a matching snapshot"
        );
        SamplePlan {
            config: *scfg,
            total_insts: snap.total_insts,
            jobs,
            final_state: snap.final_state,
            warmed_insts: 0,
        }
    }

    /// Extracts the live-points of this plan. Kept only until the next
    /// benchmark change drops `perfbench`'s use of it.
    pub fn to_snapshot(&self) -> SnapshotData {
        SnapshotData {
            total_insts: self.total_insts,
            windows: self
                .jobs
                .iter()
                .map(|j| (j.start, j.state.clone()))
                .collect(),
            final_state: self.final_state.clone(),
        }
    }
}

/// Result of a sampled run on one machine.
#[derive(Debug, Clone)]
pub struct SampledRun {
    /// The sampling regime that produced this run.
    pub config: SampleConfig,
    /// Trace length (all of it retired, functionally or in detail).
    pub total_insts: u64,
    /// Instructions inside measurement windows.
    pub measured_insts: u64,
    /// Instructions simulated on the detailed machine (warmup + measured).
    pub detailed_insts: u64,
    /// Instructions accounted to functional warming only.
    pub functional_insts: u64,
    /// Instructions actually retired through the functional-warming fast
    /// path while building the plan: the whole trace when planned cold,
    /// zero for a plan rebuilt by [`SamplePlan::plan_replay`].
    pub warmed_insts: u64,
    /// Per-interval measurements, in trace order.
    pub intervals: Vec<IntervalMeasure>,
    /// CPI point estimate over the interval means.
    pub cpi: Estimate,
    /// Aggregate core-cycles spent in detailed windows (machine cycles ×
    /// cores, warmup included) — the total a telemetry CPI stack must
    /// reconcile against.
    pub detail_core_cycles: u64,
    /// (branches, mispredicts) over the whole trace: every control
    /// instruction is predicted exactly once by functional warming.
    pub branches: (u64, u64),
    /// Cache-hierarchy statistics over the whole trace (functional
    /// warming traffic).
    pub mem: HierarchyStats,
}

impl SampledRun {
    /// Projected cycles for the full trace: `mean CPI × total
    /// instructions`.
    pub fn est_cycles(&self) -> f64 {
        self.cpi.mean * self.total_insts as f64
    }

    /// 95% CI half-width of the projected cycles.
    pub fn est_cycles_ci95_half(&self) -> f64 {
        self.cpi.ci95_half * self.total_insts as f64
    }

    /// Reduction factor in detail-simulated instructions versus a
    /// full-detail run (≥ 1).
    pub fn detail_reduction(&self) -> f64 {
        if self.detailed_insts == 0 {
            1.0
        } else {
            self.total_insts as f64 / self.detailed_insts as f64
        }
    }

    /// Point estimate of this machine's speedup over `baseline` (ratio of
    /// projected cycles).
    pub fn est_speedup_over(&self, baseline: &SampledRun) -> f64 {
        baseline.est_cycles() / self.est_cycles().max(f64::MIN_POSITIVE)
    }

    /// Paired per-interval speedup estimate over `baseline` with a 95% CI:
    /// both runs must have sampled the same trace with the same regime, so
    /// interval k of one pairs with interval k of the other.
    ///
    /// # Panics
    ///
    /// Panics if the interval schedules do not match.
    pub fn speedup_over(&self, baseline: &SampledRun) -> Estimate {
        assert_eq!(self.total_insts, baseline.total_insts, "same trace");
        assert_eq!(
            self.intervals.len(),
            baseline.intervals.len(),
            "same sampling schedule"
        );
        let ratios: Vec<f64> = baseline
            .intervals
            .iter()
            .zip(&self.intervals)
            .map(|(b, s)| {
                assert_eq!(b.start, s.start, "same sampling schedule");
                b.cycles as f64 / s.cycles.max(1) as f64
            })
            .collect();
        Estimate::from_samples(&ratios)
    }
}

/// Runs one window of a plan on `model`, on a private deserialized copy
/// of the window's live-point, charging every cycle (warmup included)
/// into `sink`. Pure apart from the sink: no shared state is touched, so
/// any number of windows may run concurrently.
///
/// # Panics
///
/// Panics if the live-point does not deserialize for this machine shape,
/// which cannot happen for jobs planned with that shape.
fn run_window<M: TimingModel, S: CycleSink>(
    job: &WindowJob,
    model: &M,
    hcfg: &HierarchyConfig,
    sink: &mut S,
) -> WarmRun {
    let mut warm = WarmState::from_state_bytes(model.base_core(), hcfg, &job.state)
        .expect("live-point matches the plan's machine shape");
    model
        .run(
            &job.insts,
            &mut warm,
            job.measure_from,
            sink,
            &mut Vec::new(),
        )
        .0
}

/// A pure per-window runner, as handed to a [`WindowPool`].
pub type WindowExec<'a> = &'a (dyn Fn(&WindowJob) -> WarmRun + Sync);

/// A window-dispatch hook: executes each pure [`WindowJob`] through the
/// provided [`WindowExec`] — possibly concurrently — and returns the
/// results **in job order**. `fgstp-sim` passes its worker pool here.
/// Because the runner is pure, every order-preserving pool is
/// bit-identical to a serial walk.
pub type WindowPool<'a> = &'a (dyn Fn(&[WindowJob], WindowExec) -> Vec<WarmRun> + Sync);

/// Executes a plan on `model` and merges the windows, in schedule order,
/// into a [`SampledRun`]. Windows run through `pool` when one is given;
/// an instrumented run (an enabled `sink`, which every window shares)
/// always runs them serially, with cycle results identical to the
/// uninstrumented path.
///
/// # Panics
///
/// Panics if `hcfg` does not describe `model.cores()` cores, or the
/// pool returns the wrong number of results.
pub fn run_plan<M: TimingModel + Sync, S: CycleSink>(
    plan: &SamplePlan,
    model: &M,
    hcfg: &HierarchyConfig,
    pool: Option<WindowPool>,
    sink: &mut S,
) -> SampledRun {
    let results: Vec<WarmRun> = match pool.filter(|_| !S::ENABLED) {
        Some(pool) => pool(&plan.jobs, &|job| {
            run_window(job, model, hcfg, &mut NullSink)
        }),
        None => plan
            .jobs
            .iter()
            .map(|job| run_window(job, model, hcfg, sink))
            .collect(),
    };
    assert_eq!(results.len(), plan.jobs.len(), "one result per window");
    let cores = model.cores() as u64;
    let mut intervals = Vec::with_capacity(plan.jobs.len());
    let mut measured_insts = 0u64;
    let mut detailed_insts = 0u64;
    let mut detail_core_cycles = 0u64;
    for (job, wr) in plan.jobs.iter().zip(&results) {
        intervals.push(IntervalMeasure {
            start: job.start + job.measure_from,
            insts: job.measured,
            cycles: wr.measured_cycles(),
        });
        measured_insts += job.measured;
        detailed_insts += job.insts.len() as u64;
        detail_core_cycles += wr.result.cycles * cores;
    }
    let final_warm = WarmState::from_state_bytes(model.base_core(), hcfg, &plan.final_state)
        .expect("final state matches the plan's machine shape");
    let cpis: Vec<f64> = intervals.iter().map(IntervalMeasure::cpi).collect();
    SampledRun {
        config: plan.config,
        total_insts: plan.total_insts,
        measured_insts,
        detailed_insts,
        functional_insts: plan.total_insts - detailed_insts,
        warmed_insts: plan.warmed_insts,
        intervals,
        cpi: Estimate::from_samples(&cpis),
        detail_core_cycles,
        branches: (final_warm.pred.branches, final_warm.pred.mispredicts),
        mem: final_warm.mem.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp::FgstpConfig;
    use fgstp_isa::{assemble, trace_program, Trace};
    use fgstp_telemetry::{CpiSink, CpiStack};

    fn run_single(
        trace: &[DynInst],
        cfg: &CoreConfig,
        hcfg: &HierarchyConfig,
    ) -> fgstp_ooo::RunResult {
        cfg.run_cold(trace, hcfg).0
    }

    /// Plans and executes a sampled run serially, uninstrumented.
    fn sample<M: TimingModel + Sync>(
        trace: &[DynInst],
        model: &M,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> SampledRun {
        let plan = SamplePlan::plan(trace, model.base_core(), hcfg, scfg);
        run_plan(&plan, model, hcfg, None, &mut NullSink)
    }

    /// Like [`sample`], over a streamed trace.
    fn sample_stream<M: TimingModel + Sync>(
        trace: impl IntoIterator<Item = DynInst>,
        model: &M,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> SampledRun {
        let plan = SamplePlan::plan_stream(trace, model.base_core(), hcfg, scfg);
        run_plan(&plan, model, hcfg, None, &mut NullSink)
    }

    /// Like [`sample`], with a CPI sink shared by every window.
    fn sample_instrumented<M: TimingModel + Sync>(
        trace: &[DynInst],
        model: &M,
        hcfg: &HierarchyConfig,
        scfg: &SampleConfig,
    ) -> (SampledRun, CpiStack) {
        let plan = SamplePlan::plan(trace, model.base_core(), hcfg, scfg);
        let mut sink = CpiSink::new(model.cores());
        let run = run_plan(&plan, model, hcfg, None, &mut sink);
        (run, sink.merged())
    }

    fn loop_trace(iters: u64) -> Trace {
        let src = format!(
            r#"
                li x1, 0x8000
                li x9, {iters}
            loop:
                ld   x4, 0(x1)
                add  x3, x3, x4
                sd   x3, 8(x1)
                addi x1, x1, 16
                addi x9, x9, -1
                bne  x9, x0, loop
                halt
            "#
        );
        let p = assemble(&src).unwrap();
        trace_program(&p, 1_000_000).unwrap()
    }

    fn scfg() -> SampleConfig {
        SampleConfig {
            interval: 1_000,
            warmup: 200,
            detail: 100,
        }
    }

    fn fingerprint(r: &SampledRun) -> String {
        format!(
            "{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}",
            r.intervals,
            r.cpi,
            r.measured_insts,
            r.detailed_insts,
            r.functional_insts,
            r.detail_core_cycles,
            r.branches,
            r.mem
        )
    }

    #[test]
    fn every_instruction_is_accounted_exactly_once() {
        let t = loop_trace(2_000);
        let r = sample(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &scfg(),
        );
        assert_eq!(r.total_insts, t.len() as u64);
        assert_eq!(r.functional_insts + r.detailed_insts, r.total_insts);
        assert_eq!(r.intervals.len(), (t.len() as u64 / 1_000) as usize);
        assert!(r.detail_reduction() > 2.0);
        assert_eq!(r.warmed_insts, r.total_insts, "cold plan warms everything");
    }

    #[test]
    fn sampled_estimate_tracks_the_full_run_on_a_steady_loop() {
        let t = loop_trace(2_000);
        let full = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let r = sample(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &scfg(),
        );
        let err = (r.est_cycles() - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.05, "estimate off by {:.2}% ", err * 100.0);
        assert!(r.cpi.cov < 0.5, "steady loop, cov {}", r.cpi.cov);
    }

    #[test]
    fn short_trace_degenerates_to_full_detail() {
        let t = loop_trace(10);
        let full = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let r = sample(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &SampleConfig::default(),
        );
        assert_eq!(r.intervals.len(), 1);
        assert_eq!(r.detailed_insts, r.total_insts);
        assert_eq!(r.est_cycles(), full.cycles as f64);
        assert_eq!(r.cpi.ci95_half, 0.0, "single interval: degenerate CI");
    }

    #[test]
    fn branch_totals_cover_the_whole_trace() {
        let t = loop_trace(2_000);
        let full = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let r = sample(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &scfg(),
        );
        assert_eq!(r.branches.0, full.branches.0, "every branch predicted once");
    }

    #[test]
    fn instrumented_stack_reconciles_with_detailed_cycles() {
        let t = loop_trace(2_000);
        let (r, stack) = sample_instrumented(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &scfg(),
        );
        stack.check_against(r.detail_core_cycles).unwrap();
        assert_eq!(stack.committed, r.detailed_insts);
    }

    #[test]
    fn instrumented_cycles_match_the_uninstrumented_path() {
        let t = loop_trace(2_000);
        let cfg = CoreConfig::small();
        let hcfg = HierarchyConfig::small(1);
        let plain = sample(t.insts(), &cfg, &hcfg, &scfg());
        let (inst, _) = sample_instrumented(t.insts(), &cfg, &hcfg, &scfg());
        assert_eq!(inst.intervals, plain.intervals);
        assert_eq!(inst.detail_core_cycles, plain.detail_core_cycles);
    }

    #[test]
    fn fgstp_sampling_completes_and_reconciles() {
        let t = loop_trace(2_000);
        let cfg = FgstpConfig::small();
        let (r, stack) = sample_instrumented(t.insts(), &cfg, &HierarchyConfig::small(2), &scfg());
        assert_eq!(r.total_insts, t.len() as u64);
        assert!(r.est_cycles() > 0.0);
        stack.check_against(r.detail_core_cycles).unwrap();
    }

    #[test]
    fn paired_speedup_uses_matching_schedules() {
        let t = loop_trace(2_000);
        let single = sample(
            t.insts(),
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &scfg(),
        );
        let fg = sample(
            t.insts(),
            &FgstpConfig::small(),
            &HierarchyConfig::small(2),
            &scfg(),
        );
        let paired = fg.speedup_over(&single);
        let point = fg.est_speedup_over(&single);
        assert!(paired.mean > 0.0);
        assert!(point > 0.0);
        assert!(
            (paired.mean - point).abs() / point < 0.25,
            "paired {} vs point {}",
            paired.mean,
            point
        );
    }

    #[test]
    fn streaming_run_is_bit_identical_to_slice_run() {
        // Cover full intervals, a partial tail, and the short-trace
        // degenerate case.
        for iters in [2_000u64, 137, 3] {
            let t = loop_trace(iters);
            let cfg = CoreConfig::small();
            let hcfg = HierarchyConfig::small(1);
            let slice = sample(t.insts(), &cfg, &hcfg, &scfg());
            let stream = sample_stream(t.insts().iter().copied(), &cfg, &hcfg, &scfg());
            assert_eq!(stream.total_insts, slice.total_insts);
            assert_eq!(fingerprint(&stream), fingerprint(&slice));
            assert_eq!(stream.est_cycles(), slice.est_cycles());
        }
        let t = loop_trace(2_000);
        let fcfg = FgstpConfig::small();
        let hcfg = HierarchyConfig::small(2);
        let slice = sample(t.insts(), &fcfg, &hcfg, &scfg());
        let stream = sample_stream(t.insts().iter().copied(), &fcfg, &hcfg, &scfg());
        assert_eq!(fingerprint(&stream), fingerprint(&slice));
        assert_eq!(stream.est_cycles(), slice.est_cycles());
    }

    #[test]
    fn window_schedule_matches_the_planner() {
        assert!(window_schedule(0, &scfg()).is_empty(), "empty trace");
        for iters in [2_000u64, 137, 60, 3] {
            let t = loop_trace(iters);
            let cfg = CoreConfig::small();
            let hcfg = HierarchyConfig::small(1);
            let plan = SamplePlan::plan(t.insts(), &cfg, &hcfg, &scfg());
            let schedule = window_schedule(t.len() as u64, &scfg());
            assert_eq!(plan.jobs.len(), schedule.len(), "iters {iters}");
            for (job, spec) in plan.jobs.iter().zip(&schedule) {
                assert_eq!(job.start, spec.start);
                assert_eq!(job.insts.len() as u64, spec.len);
                assert_eq!(job.measure_from, spec.measure_from);
                assert_eq!(job.measured, spec.measured);
            }
        }
    }

    #[test]
    fn snapshot_replay_is_bit_identical_with_zero_warming() {
        for iters in [2_000u64, 137, 3] {
            let t = loop_trace(iters);
            let cfg = CoreConfig::small();
            let hcfg = HierarchyConfig::small(1);
            let cold_plan = SamplePlan::plan(t.insts(), &cfg, &hcfg, &scfg());
            let snap = cold_plan.to_snapshot();
            assert!(snap.matches(t.len() as u64, &scfg()));
            assert!(!snap.matches(t.len() as u64 + 1, &scfg()));
            let warm_plan = SamplePlan::plan_replay(t.insts().iter().copied(), snap, &scfg());
            assert_eq!(warm_plan.warmed_insts, 0, "replay does no warming");
            let cold = run_plan(&cold_plan, &cfg, &hcfg, None, &mut NullSink);
            let warm = run_plan(&warm_plan, &cfg, &hcfg, None, &mut NullSink);
            assert_eq!(fingerprint(&warm), fingerprint(&cold), "iters {iters}");
            assert_eq!(warm.est_cycles(), cold.est_cycles());
        }
    }

    #[test]
    fn stale_snapshots_are_rejected_by_matches() {
        let t = loop_trace(500);
        let cfg = CoreConfig::small();
        let hcfg = HierarchyConfig::small(1);
        let snap = SamplePlan::plan(t.insts(), &cfg, &hcfg, &scfg()).to_snapshot();
        let total = t.len() as u64;
        // Wrong trace length.
        assert!(!snap.matches(total + 1, &scfg()));
        // Wrong regime (different window placement).
        let other = SampleConfig {
            interval: 500,
            warmup: 100,
            detail: 50,
        };
        assert!(!snap.matches(total, &other));
    }

    #[test]
    fn out_of_order_execution_merges_identically() {
        let t = loop_trace(2_000);
        let cfg = CoreConfig::small();
        let hcfg = HierarchyConfig::small(1);
        let plan = SamplePlan::plan(t.insts(), &cfg, &hcfg, &scfg());
        let serial = run_plan(&plan, &cfg, &hcfg, None, &mut NullSink);
        // Run windows back to front, then restore job order — simulating
        // an arbitrary pool completion order.
        let reversed = |jobs: &[WindowJob], run: WindowExec| {
            let mut out: Vec<(usize, WarmRun)> =
                jobs.iter().rev().map(|j| (j.index, run(j))).collect();
            out.sort_by_key(|(i, _)| *i);
            out.into_iter().map(|(_, wr)| wr).collect()
        };
        let shuffled = run_plan(&plan, &cfg, &hcfg, Some(&reversed), &mut NullSink);
        assert_eq!(fingerprint(&shuffled), fingerprint(&serial));
    }

    #[test]
    fn empty_trace_is_a_zero_run() {
        let r = sample(
            &[],
            &CoreConfig::small(),
            &HierarchyConfig::small(1),
            &SampleConfig::default(),
        );
        assert_eq!(r.total_insts, 0);
        assert!(r.intervals.is_empty());
        assert_eq!(r.est_cycles(), 0.0);
    }

    #[test]
    #[should_panic(expected = "must fit")]
    fn oversized_window_is_rejected() {
        SampleConfig {
            interval: 100,
            warmup: 80,
            detail: 40,
        }
        .validate();
    }
}
