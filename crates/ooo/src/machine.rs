//! The timing-model interface and the single-core machine (which also
//! runs the fused Core Fusion core).

use fgstp_isa::DynInst;
use fgstp_mem::{HierarchyConfig, HierarchyStats};
use fgstp_telemetry::{CycleOutcome, CycleSink, NullSink};

use crate::accounting::{classify_single, stat_delta};
use crate::config::CoreConfig;
use crate::core::{Core, CoreStats};
use crate::env::SingleEnv;
use crate::pipeview::PipeRecorder;
use crate::stream::{build_exec_stream, ExecInst};
use crate::warm::WarmState;

/// Result of running a trace through a machine model.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total cycles from first fetch to last commit.
    pub cycles: u64,
    /// Architectural instructions committed.
    pub committed: u64,
    /// Per-core pipeline statistics.
    pub cores: Vec<CoreStats>,
    /// (branches, mispredicts) across the machine.
    pub branches: (u64, u64),
    /// Memory-hierarchy statistics.
    pub mem: HierarchyStats,
}

impl RunResult {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over a baseline executing the same trace.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        debug_assert_eq!(self.committed, baseline.committed, "same trace expected");
        baseline.cycles as f64 / self.cycles.max(1) as f64
    }
}

/// Result of a [`TimingModel::run`]: the usual [`RunResult`] over the
/// whole trace plus the cycle at which the measured region began.
#[derive(Debug, Clone)]
pub struct WarmRun {
    /// Timing result over the *entire* detailed window (warmup included).
    pub result: RunResult,
    /// Cycles spent before the `measure_from`-th commit landed (the
    /// detailed-warmup prefix whose cycles the sampler discards); 0 when
    /// `measure_from` is 0.
    pub warmup_cycles: u64,
}

impl WarmRun {
    /// Cycles of the measured region (total minus discarded warmup).
    pub fn measured_cycles(&self) -> u64 {
        self.result.cycles - self.warmup_cycles
    }
}

/// Upper bound on cycles per instruction before declaring a deadlock.
const DEADLOCK_CPI: u64 = 2_000;

/// The cycle count at which a machine running `insts` instructions is
/// declared deadlocked — the one bound every per-cycle loop checks.
pub fn deadlock_cap(insts: usize) -> u64 {
    insts as u64 * DEADLOCK_CPI + 100_000
}

/// A machine that charges cycles to a committed-path trace. The paper's
/// three machines are two implementations: the single core
/// ([`CoreConfig`]; Core Fusion is its fused configuration) and the
/// N-core Fg-STP machine (`fgstp::FgstpConfig`). Each drives exactly one
/// per-cycle loop, and every run path — cold, sampled window,
/// instrumented, recorded — goes through [`TimingModel::run`], except a
/// run matrix sharing one prepared trace, which enters the same loop
/// past the preparation ([`CoreConfig::run_stream`],
/// `fgstp::FgstpConfig::run_prepared`).
pub trait TimingModel {
    /// Machine statistics beyond [`RunResult`] (`()` for the single core).
    type Stats;

    /// Cores the machine drives; sink core ids and recorders are indexed
    /// `0..cores()`.
    fn cores(&self) -> usize;

    /// The core configuration that shapes the branch-predictor bundle,
    /// and so the machine's [`WarmState`].
    fn base_core(&self) -> &CoreConfig;

    /// Runs `trace` against the long-lived state in `warm`: its hierarchy
    /// and predictor bundle carry over (fresh from [`WarmState::new`] for
    /// a cold run, trained for a sampled window), while short-lived
    /// pipeline state starts cold. The cycles until the `measure_from`-th
    /// commit are reported as [`WarmRun::warmup_cycles`]; `branches`
    /// counts this run only, `mem` is the hierarchy's cumulative view.
    ///
    /// Every cycle is charged into `sink` (one outcome per core per
    /// cycle); the probes never mutate machine state, so timing is
    /// bit-identical for any sink. A non-empty `recorders` (one per core)
    /// records per-instruction pipeline events and is handed back filled.
    /// The register file in `warm` is left alone.
    ///
    /// # Panics
    ///
    /// Panics if `warm`'s hierarchy or `recorders` do not match the
    /// machine's core count, or if the machine deadlocks (a model bug).
    fn run<S: CycleSink>(
        &self,
        trace: &[DynInst],
        warm: &mut WarmState,
        measure_from: u64,
        sink: &mut S,
        recorders: &mut Vec<PipeRecorder>,
    ) -> (WarmRun, Self::Stats);

    /// A cold, unobserved run on a fresh hierarchy described by `hcfg`.
    ///
    /// # Panics
    ///
    /// As [`TimingModel::run`].
    fn run_cold(&self, trace: &[DynInst], hcfg: &HierarchyConfig) -> (RunResult, Self::Stats) {
        let mut warm = WarmState::new(self.base_core(), hcfg);
        let (wr, stats) = self.run(trace, &mut warm, 0, &mut NullSink, &mut Vec::new());
        (wr.result, stats)
    }
}

impl TimingModel for CoreConfig {
    type Stats = ();

    fn cores(&self) -> usize {
        1
    }

    fn base_core(&self) -> &CoreConfig {
        self
    }

    /// Builds the execution stream of `trace` and runs it with
    /// [`CoreConfig::run_stream`].
    fn run<S: CycleSink>(
        &self,
        trace: &[DynInst],
        warm: &mut WarmState,
        measure_from: u64,
        sink: &mut S,
        recorders: &mut Vec<PipeRecorder>,
    ) -> (WarmRun, ()) {
        let stream = build_exec_stream(trace);
        (
            self.run_stream(&stream, warm, measure_from, sink, recorders),
            (),
        )
    }
}

impl CoreConfig {
    /// [`TimingModel::run`] over an already-built execution stream (see
    /// [`build_exec_stream`]): the single-core per-cycle loop. A run
    /// matrix builds one stream per trace and hands it to every machine.
    ///
    /// # Panics
    ///
    /// As [`TimingModel::run`].
    pub fn run_stream<S: CycleSink>(
        &self,
        stream: &[ExecInst],
        warm: &mut WarmState,
        measure_from: u64,
        sink: &mut S,
        recorders: &mut Vec<PipeRecorder>,
    ) -> WarmRun {
        assert!(recorders.len() <= 1, "one pipeline recorder per core");
        let branches_before = (warm.pred.branches, warm.pred.mispredicts);
        let mut env = SingleEnv::new(&mut warm.pred);
        let mut core = Core::new(0, self, stream);
        if let Some(r) = recorders.pop() {
            core.set_recorder(r);
        }
        let cap = deadlock_cap(stream.len());
        let mut now = 0u64;
        let mut warmup_cycles = if measure_from == 0 { 0 } else { u64::MAX };
        while !core.done() {
            let before = if S::ENABLED {
                *core.stats()
            } else {
                CoreStats::default()
            };
            core.cycle(now, &mut env, &mut warm.mem);
            if S::ENABLED {
                let d = stat_delta(&before, core.stats());
                let outcome = if d.committed > 0 {
                    CycleOutcome::Commit(d.committed as u32)
                } else {
                    let stall = core.commit_stall(&mut env, now);
                    CycleOutcome::Stall(classify_single(stall, &d))
                };
                sink.record(0, now, outcome);
            }
            now += 1;
            if warmup_cycles == u64::MAX && env.committed() >= measure_from {
                warmup_cycles = now;
            }
            assert!(
                now < cap,
                "single-core pipeline deadlocked at cycle {now}: {}",
                core.pipeline_snapshot()
            );
        }
        if warmup_cycles == u64::MAX {
            warmup_cycles = now;
        }
        let committed = env.committed();
        let result = RunResult {
            cycles: now,
            committed,
            cores: vec![*core.stats()],
            branches: (
                warm.pred.branches - branches_before.0,
                warm.pred.mispredicts - branches_before.1,
            ),
            mem: warm.mem.stats(),
        };
        recorders.extend(core.take_recorder());
        WarmRun {
            result,
            warmup_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    fn run_single(trace: &[DynInst], cfg: &CoreConfig, hcfg: &HierarchyConfig) -> RunResult {
        cfg.run_cold(trace, hcfg).0
    }

    /// A cold run of the small core with `recorders` and `sink` attached.
    fn run_observed<S: CycleSink>(
        t: &fgstp_isa::Trace,
        sink: &mut S,
        recorders: &mut Vec<PipeRecorder>,
    ) -> RunResult {
        let cfg = CoreConfig::small();
        let mut warm = WarmState::new(&cfg, &HierarchyConfig::small(1));
        cfg.run(t.insts(), &mut warm, 0, sink, recorders).0.result
    }

    fn trace(src: &str) -> fgstp_isa::Trace {
        let p = assemble(src).unwrap();
        trace_program(&p, 200_000).unwrap()
    }

    /// A small loop kernel with a mix of ALU, memory and branches.
    fn kernel() -> fgstp_isa::Trace {
        trace(
            r#"
                li x1, 0x1000    # base
                li x2, 1600      # n * 8 bytes
                li x3, 0         # i
                li x4, 0         # sum
            loop:
                sll  x5, x3, x6
                add  x5, x1, x3
                sd   x3, 0(x5)
                ld   x6, 0(x5)
                add  x4, x4, x6
                addi x3, x3, 8
                slt  x7, x3, x2
                bne  x7, x0, loop
                halt
            "#,
        )
    }

    #[test]
    fn ipc_is_positive_and_bounded() {
        let t = kernel();
        let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        assert_eq!(r.committed, t.len() as u64);
        assert!(r.ipc() > 0.1, "ipc {}", r.ipc());
        assert!(
            r.ipc() <= 2.0,
            "small core cannot exceed its width, ipc {}",
            r.ipc()
        );
    }

    #[test]
    fn medium_core_beats_small_core() {
        let t = kernel();
        let small = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let medium = run_single(
            t.insts(),
            &CoreConfig::medium(),
            &HierarchyConfig::medium(1),
        );
        assert!(
            medium.cycles <= small.cycles,
            "medium ({}) should not be slower than small ({})",
            medium.cycles,
            small.cycles
        );
    }

    #[test]
    fn fused_core_beats_single_small_core_on_ilp() {
        // Independent operations in each iteration: lots of ILP.
        let t = trace(
            r#"
                li x2, 300
            loop:
                addi x3, x3, 1
                addi x4, x4, 2
                addi x5, x5, 3
                addi x6, x6, 4
                addi x7, x7, 5
                addi x8, x8, 6
                addi x2, x2, -1
                bne  x2, x0, loop
                halt
            "#,
        );
        let small = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let fused = run_single(
            t.insts(),
            &CoreConfig::fused(&CoreConfig::small()),
            &HierarchyConfig::small(1),
        );
        assert!(
            fused.cycles < small.cycles,
            "fusion should win on ILP: fused {} vs small {}",
            fused.cycles,
            small.cycles
        );
    }

    #[test]
    fn branch_stats_are_reported() {
        let t = kernel();
        let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let (branches, mispredicts) = r.branches;
        assert_eq!(branches, 200);
        assert!(mispredicts < branches / 2, "loop branch is predictable");
    }

    #[test]
    fn mem_stats_are_reported() {
        let t = kernel();
        let r = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        // Loads in this kernel forward from the same-iteration store, so
        // only the 200 committed stores reach the L1D.
        assert!(
            r.mem.l1d[0].accesses >= 200,
            "got {}",
            r.mem.l1d[0].accesses
        );
        assert!(
            r.cores[0].store_forwards >= 190,
            "got {}",
            r.cores[0].store_forwards
        );
    }

    #[test]
    fn speedup_over_is_a_ratio_of_cycles() {
        let t = kernel();
        let a = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let b = run_single(
            t.insts(),
            &CoreConfig::medium(),
            &HierarchyConfig::medium(1),
        );
        let s = b.speedup_over(&a);
        assert!((s - a.cycles as f64 / b.cycles as f64).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let r = run_single(&[], &CoreConfig::small(), &HierarchyConfig::small(1));
        assert_eq!(r.committed, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn recorded_run_captures_every_stage_in_order() {
        let t = kernel();
        let mut recs = vec![PipeRecorder::new()];
        let r = run_observed(&t, &mut NullSink, &mut recs);
        let rec = recs.pop().expect("recorder returned");
        assert_eq!(rec.len() as u64, r.committed, "every instruction recorded");
        for (gseq, _, ev) in rec.iter() {
            assert!(ev.is_ordered(), "stages out of order for {gseq}: {ev:?}");
            for stage in crate::pipeview::Stage::ALL {
                assert!(ev.at(stage).is_some(), "{gseq} missing {stage:?}");
            }
            // Commit never exceeds the run length.
            assert!(ev.commit.unwrap() <= r.cycles);
        }
        // The rendered view of the first instructions is non-trivial.
        let view = rec.render(0, 8);
        assert!(view.lines().count() >= 9, "{view}");
    }

    #[test]
    fn sink_accounts_every_cycle_without_changing_timing() {
        let t = kernel();
        let plain = run_single(t.insts(), &CoreConfig::small(), &HierarchyConfig::small(1));
        let mut sink = fgstp_telemetry::CpiSink::new(1);
        let mut recs = vec![PipeRecorder::new()];
        let r = run_observed(&t, &mut sink, &mut recs);
        assert_eq!(r.cycles, plain.cycles, "telemetry must not change timing");
        assert_eq!(r.committed, plain.committed);
        assert_eq!(recs[0].len() as u64, r.committed, "recorder filled too");
        let stack = sink.merged();
        stack.check_against(r.cycles).unwrap();
        assert_eq!(stack.committed, r.committed);
        assert!(stack.base_cycles > 0, "some cycles commit");
        assert!(
            stack.total_cycles() > stack.base_cycles,
            "a real kernel stalls somewhere"
        );
    }

    #[test]
    fn unrecorded_run_returns_no_recorder() {
        let t = kernel();
        let mut recs = Vec::new();
        run_observed(&t, &mut NullSink, &mut recs);
        assert!(recs.is_empty());
    }

    #[test]
    fn warm_entry_reports_the_warmup_prefix() {
        let t = kernel();
        let cfg = CoreConfig::small();
        let mut warm = WarmState::new(&cfg, &HierarchyConfig::small(1));
        let (wr, ()) = cfg.run(t.insts(), &mut warm, 100, &mut NullSink, &mut Vec::new());
        assert!(wr.warmup_cycles > 0 && wr.warmup_cycles < wr.result.cycles);
        assert_eq!(
            wr.result.cycles,
            run_single(t.insts(), &cfg, &HierarchyConfig::small(1)).cycles,
            "measure_from only splits the cycle count"
        );
    }
}
