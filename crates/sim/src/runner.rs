//! Run primitives: one trace (or one sampled plan) through one machine
//! preset.
//!
//! The primary driver API is [`crate::Session`] — it owns tracing, the
//! on-disk trace cache and the worker pool. A session reads its knobs
//! into one [`RunRequest`] and hands every job to [`run`], the single
//! request-driven entry point: it resolves the preset (and any core-count
//! override) to a [`TimingModel`], attaches the requested sink, and runs
//! the input — a trace in full detail or a [`SamplePlan`]'s windows.
//! A full-detail trace comes as a [`PreparedTrace`], which every machine
//! of a run matrix shares: one execution stream per trace and one
//! partition per [`PartitionKey`].
//! Co-runs go through [`run_on_corun`]. [`run_on`],
//! [`run_on_sampled_plan`] and the historical [`run_suite`] are thin
//! shims.

use std::sync::{Arc, Mutex, OnceLock};

use fgstp::{
    run_corun, CoRunContention, CoRunPlan, CoRunProgram, FgstpConfig, FgstpStats, PartitionKey,
    PreparedProgram,
};
use fgstp_isa::DynInst;
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::{
    build_exec_stream, CoreConfig, ExecInst, PipeRecorder, RunResult, TimingModel, WarmRun,
    WarmState,
};
use fgstp_sampling::{run_plan, SamplePlan, SampledRun};
use fgstp_telemetry::{CpiSink, CpiStack, CycleSink, Episode, NullSink};
use fgstp_workloads::{Scale, Workload};

use crate::presets::MachineKind;
use crate::session::Session;

pub use fgstp_sampling::WindowPool;

/// Where one program sat inside a co-run (see [`run_on_corun`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoRunInfo {
    /// Index of the program in the co-run plan.
    pub program: usize,
    /// First chip core the program owned.
    pub first_core: usize,
    /// Cores the program's machine instance owned.
    pub cores: usize,
    /// Global cycle the program started.
    pub start_cycle: u64,
    /// Global cycle the program finished.
    pub finish_cycle: u64,
    /// Global cycles until the whole co-run drained.
    pub total_cycles: u64,
    /// Whether the co-run ran with private hierarchies (contention off).
    pub isolated: bool,
}

/// Outcome of one (workload, machine) run.
#[derive(Debug, Clone)]
pub struct MachineRun {
    /// Machine model that ran.
    pub kind: MachineKind,
    /// Timing result.
    pub result: RunResult,
    /// Fg-STP-specific statistics, when `kind` is an Fg-STP preset.
    pub fgstp: Option<FgstpStats>,
    /// Aggregate CPI stack (all cores merged), when the run was
    /// instrumented ([`RunRequest::telemetry`], [`Session::telemetry`]).
    pub cpi: Option<CpiStack>,
    /// The per-core stall timeline, when requested
    /// ([`RunRequest::episodes`]; for
    /// [`fgstp_telemetry::write_chrome_trace`] export). Empty otherwise.
    pub episodes: Vec<Episode>,
    /// The sampled-simulation record, when the run came from a
    /// [`RunInput::Plan`] (or [`Session::sample`]): interval schedule, CPI
    /// estimate with its 95% confidence interval, and detail-reduction
    /// accounting. `result` then carries *projected* totals.
    pub sampled: Option<SampledRun>,
    /// The program's placement and window inside a co-run, when the run
    /// came from [`run_on_corun`] (or a `--corun` spec). `result.cycles`
    /// then counts from the program's arrival to its own completion, and
    /// `result.mem` is the program's slice of the shared hierarchy.
    pub corun: Option<CoRunInfo>,
}

impl MachineRun {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.result.ipc()
    }
}

/// Results of one workload across the requested machines.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Workload name.
    pub name: &'static str,
    /// Dynamic instructions executed.
    pub committed: u64,
    /// One entry per requested machine, in request order. Empty when the
    /// workload failed to trace (see [`BenchResult::error`]).
    pub runs: Vec<MachineRun>,
    /// Why the workload produced no runs (e.g. its trace exceeded the
    /// budget), or `None` on success.
    pub error: Option<String>,
}

impl BenchResult {
    /// The run of machine `kind`, if it was part of the run set.
    pub fn run_of(&self, kind: MachineKind) -> Option<&MachineRun> {
        self.runs.iter().find(|r| r.kind == kind)
    }

    /// Speedup of machine `of` over machine `over` on this workload, or
    /// `None` if either machine was not part of the run set.
    pub fn try_speedup(&self, of: MachineKind, over: MachineKind) -> Option<f64> {
        Some(
            self.run_of(of)?
                .result
                .speedup_over(&self.run_of(over)?.result),
        )
    }

    /// Speedup of machine `of` over machine `over` on this workload.
    ///
    /// # Panics
    ///
    /// Panics if either machine was not part of the run set — use
    /// [`BenchResult::try_speedup`] when the machine set is not static.
    pub fn speedup(&self, of: MachineKind, over: MachineKind) -> f64 {
        self.try_speedup(of, over).unwrap_or_else(|| {
            let missing = if self.run_of(of).is_none() { of } else { over };
            panic!("machine {missing} not in result set for {}", self.name)
        })
    }
}

/// A machine preset resolved to its timing model, after any core-count
/// override. Dispatching here once per run keeps every per-cycle loop
/// monomorphic.
#[derive(Debug, Clone)]
pub(crate) enum Model {
    /// A single (possibly fused) core.
    Single(CoreConfig),
    /// The N-core Fg-STP machine.
    Fgstp(FgstpConfig),
}

impl TimingModel for Model {
    type Stats = Option<FgstpStats>;

    fn cores(&self) -> usize {
        match self {
            Model::Single(c) => c.cores(),
            Model::Fgstp(f) => f.cores(),
        }
    }

    fn base_core(&self) -> &CoreConfig {
        match self {
            Model::Single(c) => c,
            Model::Fgstp(f) => f.base_core(),
        }
    }

    fn run<S: CycleSink>(
        &self,
        trace: &[DynInst],
        warm: &mut WarmState,
        measure_from: u64,
        sink: &mut S,
        recorders: &mut Vec<PipeRecorder>,
    ) -> (WarmRun, Option<FgstpStats>) {
        match self {
            Model::Single(c) => (c.run(trace, warm, measure_from, sink, recorders).0, None),
            Model::Fgstp(f) => {
                let (wr, stats) = f.run(trace, warm, measure_from, sink, recorders);
                (wr, Some(stats))
            }
        }
    }
}

/// Resolves `kind` to its timing model and hierarchy, with the Fg-STP
/// core count overridden when `cores` is set.
///
/// # Panics
///
/// Panics if `cores` is set for a non-Fg-STP preset (those machines have a
/// fixed shape) — [`crate::ExperimentSpec::validate`] rejects that upstream.
pub(crate) fn resolve(kind: MachineKind, cores: Option<usize>) -> (Model, HierarchyConfig) {
    match kind.try_fgstp_config() {
        Some(cfg) => {
            let cfg = match cores {
                Some(n) => cfg.with_cores(n),
                None => cfg,
            };
            let hcfg = kind.hierarchy_for(cfg.num_cores);
            (Model::Fgstp(cfg), hcfg)
        }
        None => {
            assert!(
                cores.is_none(),
                "--cores only applies to Fg-STP machines, not {kind}"
            );
            (Model::Single(kind.core_config()), kind.hierarchy_config())
        }
    }
}

/// The functional-warming machine shape a preset samples with: the core
/// configuration (an Fg-STP preset warms with its per-core config) and
/// the hierarchy built for the preset's core count.
pub fn warm_shape(kind: MachineKind) -> (CoreConfig, HierarchyConfig) {
    let (model, hcfg) = resolve(kind, None);
    (model.base_core().clone(), hcfg)
}

/// One trace with the preparation every machine of a run matrix shares:
/// its execution stream, built once, and one [`PreparedProgram`] per
/// distinct [`PartitionKey`] (the partitioner reads the stream alone, so
/// small and medium Fg-STP cores share a partition while a different
/// core count or steering capacity gets its own). Jobs on several worker
/// threads share one `PreparedTrace`: the first to need a piece builds
/// it while the others wait for it.
#[derive(Debug)]
pub struct PreparedTrace<'a> {
    insts: &'a [DynInst],
    stream: Mutex<Option<Arc<Vec<ExecInst>>>>,
    programs: Mutex<Vec<(PartitionKey, Arc<OnceLock<PreparedProgram>>)>>,
}

impl<'a> PreparedTrace<'a> {
    /// A memo over `insts` with nothing built yet.
    pub fn new(insts: &'a [DynInst]) -> PreparedTrace<'a> {
        PreparedTrace {
            insts,
            stream: Mutex::new(None),
            programs: Mutex::new(Vec::new()),
        }
    }

    /// The committed-path trace.
    pub(crate) fn insts(&self) -> &'a [DynInst] {
        self.insts
    }

    /// The trace's execution stream, built on first use.
    pub(crate) fn stream(&self) -> Arc<Vec<ExecInst>> {
        let mut stream = self.stream.lock().expect("stream lock");
        Arc::clone(stream.get_or_insert_with(|| Arc::new(build_exec_stream(self.insts))))
    }

    /// The stream partitioned for `cfg`'s [`PartitionKey`], built on
    /// first use of that key.
    ///
    /// # Panics
    ///
    /// As [`PreparedProgram::from_stream`].
    pub(crate) fn program(&self, cfg: &FgstpConfig) -> PreparedProgram {
        let key = cfg.partition_key();
        let slot = {
            let mut programs = self.programs.lock().expect("program lock");
            match programs.iter().find(|(k, _)| *k == key) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(OnceLock::new());
                    programs.push((key, Arc::clone(&slot)));
                    slot
                }
            }
        };
        slot.get_or_init(|| PreparedProgram::from_stream(self.stream(), cfg))
            .clone()
    }

    /// Drops the stream and every partition (runs still holding them
    /// keep theirs); a later request rebuilds them. A run matrix calls
    /// this after a workload's last job, which bounds peak memory to the
    /// workloads in flight.
    pub(crate) fn release(&self) {
        *self.stream.lock().expect("stream lock") = None;
        self.programs.lock().expect("program lock").clear();
    }
}

/// What one run simulates.
#[derive(Debug, Clone, Copy)]
pub enum RunInput<'a> {
    /// A committed-path trace, simulated in full detail.
    Trace(&'a PreparedTrace<'a>),
    /// A planned sampled run: its detailed windows run on the machine and
    /// merge into projected totals (see [`fgstp_sampling`]).
    Plan(&'a SamplePlan),
}

/// How one run is set up and observed. A [`Session`] reads its knobs
/// into one request and hands every job to [`run`].
#[derive(Clone, Copy, Default)]
pub struct RunRequest<'a> {
    /// Fg-STP core-count override (the `--cores` flag, the E13 scaling
    /// sweep, a co-run program's core slice).
    pub cores: Option<usize>,
    /// Charge every cycle into a CPI stack, merged over cores into
    /// [`MachineRun::cpi`]. A sampled run's stack covers its detailed
    /// windows, which then run serially. Timing is bit-identical either
    /// way.
    pub telemetry: bool,
    /// Also keep the per-core stall timeline in [`MachineRun::episodes`]
    /// (full-detail runs; implies `telemetry`).
    pub episodes: bool,
    /// Dispatch for a sampled run's windows; `None` runs them serially.
    pub pool: Option<WindowPool<'a>>,
}

/// Runs `input` on machine `kind` as `req` asks — the one run path under
/// every session, CLI and experiment run. A full-detail
/// [`MachineRun::result`] is the machine's own; a sampled one carries
/// *projected* totals (`cycles` is the rounded CPI-estimate projection,
/// `committed` the full trace length) with the interval record and
/// confidence interval in [`MachineRun::sampled`].
///
/// # Panics
///
/// Panics if `req.cores` is set for a non-Fg-STP preset, or a plan was
/// built for another machine shape.
pub fn run(kind: MachineKind, input: RunInput<'_>, req: &RunRequest<'_>) -> MachineRun {
    let (model, hcfg) = resolve(kind, req.cores);
    if !(req.telemetry || req.episodes) {
        return simulate(kind, &model, &hcfg, input, req.pool, &mut NullSink);
    }
    let mut sink = if req.episodes {
        CpiSink::with_episodes(model.cores())
    } else {
        CpiSink::new(model.cores())
    };
    let mut out = simulate(kind, &model, &hcfg, input, req.pool, &mut sink);
    out.cpi = Some(sink.merged());
    out.episodes = sink.finish_episodes(out.result.cycles);
    out
}

/// [`run`] for one sink type.
fn simulate<S: CycleSink>(
    kind: MachineKind,
    model: &Model,
    hcfg: &HierarchyConfig,
    input: RunInput<'_>,
    pool: Option<WindowPool>,
    sink: &mut S,
) -> MachineRun {
    let (result, fgstp, sampled) = match input {
        RunInput::Trace(trace) => {
            let mut warm = WarmState::new(model.base_core(), hcfg);
            let recorders = &mut Vec::new();
            let (wr, stats) = match model {
                Model::Single(c) => (
                    c.run_stream(&trace.stream(), &mut warm, 0, sink, recorders),
                    None,
                ),
                Model::Fgstp(f) => {
                    let (wr, stats) =
                        f.run_prepared(&trace.program(f), &mut warm, 0, sink, recorders);
                    (wr, Some(stats))
                }
            };
            (wr.result, stats, None)
        }
        RunInput::Plan(plan) => {
            let sampled = run_plan(plan, model, hcfg, pool, sink);
            let result = RunResult {
                cycles: sampled.est_cycles().round() as u64,
                committed: sampled.total_insts,
                cores: Vec::new(),
                branches: sampled.branches,
                mem: sampled.mem.clone(),
            };
            (result, None, Some(sampled))
        }
    };
    MachineRun {
        kind,
        result,
        fgstp,
        cpi: None,
        episodes: Vec::new(),
        sampled,
        corun: None,
    }
}

/// Runs one trace through one machine preset in full detail.
pub fn run_on(kind: MachineKind, trace: &[DynInst]) -> MachineRun {
    run(
        kind,
        RunInput::Trace(&PreparedTrace::new(trace)),
        &RunRequest::default(),
    )
}

/// Executes a prepared [`SamplePlan`] on machine `kind`; `telemetry` and
/// `exec` as in [`RunRequest`]. Results are merged in systematic-interval
/// order, so every pool size produces bit-identical estimates.
pub fn run_on_sampled_plan(
    kind: MachineKind,
    plan: &SamplePlan,
    telemetry: bool,
    exec: Option<WindowPool>,
) -> MachineRun {
    let req = RunRequest {
        telemetry,
        pool: exec,
        ..RunRequest::default()
    };
    run(kind, RunInput::Plan(plan), &req)
}

/// Runs a multi-program co-run on one Fg-STP machine preset: program `i`
/// is `workloads[i]`/`inputs[i]` on `cores[i]` consecutive chip cores.
/// Programs share the L2 and a finite-bandwidth DRAM channel (see
/// [`fgstp::run_corun`] for the arbitration and determinism contracts);
/// with `isolated` every program instead runs on a private hierarchy,
/// exactly its solo [`run`] on a `cores[i]`-core machine — which is also
/// the only co-run that can be sampled (`pool` dispatches its windows).
///
/// Returns one [`BenchResult`] per program, in plan order, each holding a
/// single [`MachineRun`] whose [`MachineRun::corun`] records the
/// placement; `result.mem` is the program's slice of the hierarchy.
///
/// # Panics
///
/// Panics if `kind` is not an Fg-STP preset, the slice lengths disagree,
/// or a shared-hierarchy co-run is given a sampled plan — `--corun` specs
/// are validated upstream by [`crate::ExperimentSpec::validate`].
pub fn run_on_corun(
    kind: MachineKind,
    workloads: &[Workload],
    inputs: &[RunInput<'_>],
    cores: &[usize],
    isolated: bool,
    pool: Option<WindowPool>,
) -> Vec<BenchResult> {
    assert!(
        workloads.len() == inputs.len() && inputs.len() == cores.len(),
        "one workload, input and core count per co-running program"
    );
    let base = kind
        .try_fgstp_config()
        .unwrap_or_else(|| panic!("--corun needs an Fg-STP machine, not {kind}"));
    // (run, start cycle, finish cycle) per program.
    let (runs, total_cycles): (Vec<(MachineRun, u64, u64)>, u64) = if isolated {
        let runs: Vec<_> = inputs
            .iter()
            .zip(cores)
            .map(|(&input, &n)| {
                let req = RunRequest {
                    cores: Some(n),
                    pool,
                    ..RunRequest::default()
                };
                let r = run(kind, input, &req);
                let finish = r.result.cycles;
                (r, 0, finish)
            })
            .collect();
        let total = runs.iter().map(|r| r.2).max().unwrap_or(0);
        (runs, total)
    } else {
        let traces: Vec<&[DynInst]> = inputs
            .iter()
            .map(|input| match input {
                RunInput::Trace(t) => t.insts(),
                RunInput::Plan(_) => {
                    panic!("a shared-hierarchy co-run cannot be sampled; add --corun-isolated")
                }
            })
            .collect();
        let plan = CoRunPlan {
            programs: cores
                .iter()
                .map(|&n| CoRunProgram::new(base.clone().with_cores(n)))
                .collect(),
            contention: CoRunContention::shared(),
        };
        let co = run_corun(&traces, &plan, &kind.hierarchy_for(plan.total_cores()));
        let runs = co
            .programs
            .into_iter()
            .map(|p| {
                let r = MachineRun {
                    kind,
                    result: p.result,
                    fgstp: Some(p.stats),
                    cpi: None,
                    episodes: Vec::new(),
                    sampled: None,
                    corun: None,
                };
                (r, p.start_cycle, p.finish_cycle)
            })
            .collect();
        (runs, co.total_cycles)
    };
    let mut first_core = 0;
    workloads
        .iter()
        .zip(runs)
        .enumerate()
        .map(|(i, (w, (mut r, start_cycle, finish_cycle)))| {
            r.corun = Some(CoRunInfo {
                program: i,
                first_core,
                cores: cores[i],
                start_cycle,
                finish_cycle,
                total_cycles,
                isolated,
            });
            first_core += cores[i];
            BenchResult {
                name: w.name,
                committed: r.result.committed,
                runs: vec![r],
                error: None,
            }
        })
        .collect()
}

/// Traces one workload (panicking on a kernel fault, which would be a
/// suite bug) and returns its committed path.
///
/// This always re-traces; [`Session::trace`] consults the on-disk cache
/// first. Use [`try_trace_workload`] to handle failures gracefully.
pub fn trace_workload(w: &Workload, scale: Scale) -> fgstp_isa::Trace {
    try_trace_workload(w, scale).unwrap_or_else(|e| panic!("{e}"))
}

/// Traces one workload, reporting a tracing failure (budget exhaustion, a
/// kernel fault) as an error instead of panicking — a single bad workload
/// must not take down a whole suite run.
pub fn try_trace_workload(w: &Workload, scale: Scale) -> Result<fgstp_isa::Trace, String> {
    w.try_trace(scale.trace_budget())
        .map_err(|e| format!("workload {} failed to trace: {e}", w.name))
}

/// Runs the whole suite at `scale` on each machine in `kinds`.
///
/// Compatibility shim: delegates to a default [`Session`] (all cores,
/// trace cache on). Prefer building a `Session` directly for explicit
/// control of threads and caching.
pub fn run_suite(scale: Scale, kinds: &[MachineKind]) -> Vec<BenchResult> {
    Session::new()
        .scale(scale)
        .machines(kinds.iter().copied())
        .run_suite()
}

/// Geometric mean of a slice of positive values (0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_sampling::SampleConfig;
    use fgstp_workloads::by_name;

    /// A serial sampled run of `trace` on `kind`.
    fn run_sampled(
        kind: MachineKind,
        trace: &[DynInst],
        scfg: &SampleConfig,
        telemetry: bool,
    ) -> MachineRun {
        let (ccfg, hcfg) = warm_shape(kind);
        let plan = SamplePlan::plan(trace, &ccfg, &hcfg, scfg);
        run_on_sampled_plan(kind, &plan, telemetry, None)
    }

    fn run_with_cores(kind: MachineKind, trace: &[DynInst], cores: usize) -> MachineRun {
        let req = RunRequest {
            cores: Some(cores),
            ..RunRequest::default()
        };
        run(kind, RunInput::Trace(&PreparedTrace::new(trace)), &req)
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_workload_runs_on_all_machines() {
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        for k in MachineKind::ALL {
            let r = run_on(k, t.insts());
            assert_eq!(r.result.committed, t.len() as u64, "{k}");
            assert!(r.ipc() > 0.0, "{k}");
            assert_eq!(r.fgstp.is_some(), k.is_fgstp(), "{k}");
        }
    }

    #[test]
    fn speedup_lookup_matches_cycle_ratio() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let runs: Vec<_> = MachineKind::SMALL_CMP
            .iter()
            .map(|&k| run_on(k, t.insts()))
            .collect();
        let b = BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs,
            error: None,
        };
        let s = b.speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall);
        let expected = b.runs[0].result.cycles as f64 / b.runs[2].result.cycles as f64;
        assert!((s - expected).abs() < 1e-12);
    }

    #[test]
    fn try_speedup_is_none_on_partial_machine_sets() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let b = BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs: vec![run_on(MachineKind::SingleSmall, t.insts())],
            error: None,
        };
        assert!(b
            .try_speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall)
            .is_none());
        assert!(b
            .try_speedup(MachineKind::SingleSmall, MachineKind::FgstpSmall)
            .is_none());
        assert_eq!(
            b.try_speedup(MachineKind::SingleSmall, MachineKind::SingleSmall),
            Some(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "fgstp-small not in result set")]
    fn speedup_panics_with_the_missing_machine_name() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let b = BenchResult {
            name: w.name,
            committed: t.len() as u64,
            runs: vec![run_on(MachineKind::SingleSmall, t.insts())],
            error: None,
        };
        b.speedup(MachineKind::FgstpSmall, MachineKind::SingleSmall);
    }

    #[test]
    fn instrumented_run_matches_plain_timing_and_reconciles() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        for k in [
            MachineKind::SingleSmall,
            MachineKind::FgstpSmall,
            MachineKind::FgstpSmall4,
        ] {
            let plain = run_on(k, t.insts());
            let req = RunRequest {
                episodes: true,
                ..RunRequest::default()
            };
            let inst = run(k, RunInput::Trace(&PreparedTrace::new(t.insts())), &req);
            let episodes = &inst.episodes;
            assert_eq!(inst.result.cycles, plain.result.cycles, "{k}");
            assert_eq!(inst.result.committed, plain.result.committed, "{k}");
            let stack = inst.cpi.as_ref().expect("instrumented run has a stack");
            let cores = k.cores() as u64;
            stack.check_against(cores * inst.result.cycles).unwrap();
            // The episode timeline tiles the same core-cycles.
            let episode_cycles: u64 = episodes.iter().map(Episode::cycles).sum();
            assert_eq!(episode_cycles, cores * inst.result.cycles, "{k}");
        }
    }

    #[test]
    fn uninstrumented_run_has_no_stack() {
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        assert!(run_on(MachineKind::SingleSmall, t.insts()).cpi.is_none());
    }

    #[test]
    fn cores_override_changes_the_machine_shape() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let r = run_with_cores(MachineKind::FgstpSmall, t.insts(), 3);
        assert_eq!(r.result.cores.len(), 3);
        assert_eq!(r.result.committed, t.len() as u64);
        // The default path matches the preset's own core count.
        let d = run_on(MachineKind::FgstpSmall4, t.insts());
        assert_eq!(d.result.cores.len(), 4);
    }

    #[test]
    fn sampled_run_projects_totals_and_keeps_the_record() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        for k in [MachineKind::SingleSmall, MachineKind::FgstpSmall] {
            let full = run_on(k, t.insts());
            let r = run_sampled(k, t.insts(), &scfg, false);
            assert_eq!(r.result.committed, t.len() as u64, "{k}");
            let s = r.sampled.as_ref().expect("sampled record");
            assert_eq!(r.result.cycles, s.est_cycles().round() as u64, "{k}");
            assert!(s.detail_reduction() > 2.0, "{k}");
            // The projection tracks the full-detail run loosely even on a
            // short Test-scale trace (tight bounds live in the long-run
            // acceptance tests).
            let err =
                (s.est_cycles() - full.result.cycles as f64).abs() / full.result.cycles as f64;
            assert!(err < 0.5, "{k}: estimate off by {:.1}%", err * 100.0);
            assert!(r.cpi.is_none(), "{k}: uninstrumented");
        }
    }

    #[test]
    fn instrumented_sampled_run_carries_a_window_stack() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let r = run_sampled(MachineKind::FgstpSmall, t.insts(), &scfg, true);
        let s = r.sampled.as_ref().unwrap();
        let stack = r.cpi.as_ref().expect("instrumented sampled run");
        stack.check_against(s.detail_core_cycles).unwrap();
        assert_eq!(stack.committed, s.detailed_insts);
    }

    #[test]
    #[should_panic(expected = "--cores only applies to Fg-STP machines")]
    fn cores_override_rejects_non_fgstp_machines() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        run_with_cores(MachineKind::SingleSmall, t.insts(), 2);
    }

    #[test]
    fn memo_shares_one_partition_per_partition_key() {
        let w = by_name("hmmer_dp", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let memo = PreparedTrace::new(t.insts());
        let small = memo.program(&FgstpConfig::small());
        // Same key: the medium core, another comm latency, no speculation.
        let mut slow = FgstpConfig::small();
        slow.comm.latency = 16;
        let mut conservative = FgstpConfig::medium();
        conservative.dep_speculation = false;
        for cfg in [FgstpConfig::medium(), slow, conservative] {
            let p = memo.program(&cfg);
            assert!(Arc::ptr_eq(p.partition(), small.partition()), "{cfg:?}");
        }
        // A different core count, per-core caps or balance slack each
        // build their own partition over the one shared stream.
        let mut slack = FgstpConfig::small();
        slack.partition.balance_slack = 0.3;
        let others = [
            FgstpConfig::small().with_cores(4),
            FgstpConfig::small().with_per_core(vec![CoreConfig::medium(), CoreConfig::small()]),
            slack,
        ];
        let mut parts = vec![small.clone()];
        for cfg in &others {
            let p = memo.program(cfg);
            assert!(Arc::ptr_eq(p.stream(), small.stream()), "{cfg:?}");
            for q in &parts {
                assert!(!Arc::ptr_eq(p.partition(), q.partition()), "{cfg:?}");
            }
            // Asking again hits the memo.
            assert!(Arc::ptr_eq(memo.program(cfg).partition(), p.partition()));
            parts.push(p);
        }
        assert!(Arc::ptr_eq(&memo.stream(), small.stream()));
        assert_eq!(parts[1].partition().num_cores(), 4);
    }

    #[test]
    fn memo_release_frees_the_stream_and_partitions() {
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let t = trace_workload(&w, Scale::Test);
        let memo = PreparedTrace::new(t.insts());
        let stream = Arc::downgrade(&memo.stream());
        let small = Arc::downgrade(memo.program(&FgstpConfig::small()).partition());
        let held = memo.program(&FgstpConfig::small().with_cores(4));
        let four = Arc::downgrade(held.partition());
        memo.release();
        assert!(small.upgrade().is_none(), "released partition is freed");
        // A run still holding its program keeps it (and the stream) alive
        // until it finishes.
        assert!(four.upgrade().is_some() && stream.upgrade().is_some());
        drop(held);
        assert!(four.upgrade().is_none() && stream.upgrade().is_none());
        // After a release the memo rebuilds on demand, with the same
        // figures.
        let r = run(
            MachineKind::FgstpSmall,
            RunInput::Trace(&memo),
            &RunRequest::default(),
        );
        let fresh = run_on(MachineKind::FgstpSmall, t.insts());
        assert_eq!(format!("{r:?}"), format!("{fresh:?}"));
    }
}
