//! The session driver: the primary API for running the evaluation.
//!
//! A [`Session`] owns everything the free-function driver used to do
//! implicitly — workload tracing, the on-disk trace cache, and a
//! fixed-size worker pool — behind explicit builder knobs:
//!
//! ```no_run
//! use fgstp_sim::{MachineKind, Scale, Session};
//!
//! let session = Session::new()
//!     .scale(Scale::Small)
//!     .machines(MachineKind::SMALL_CMP)
//!     .threads(8);
//! for bench in session.run_suite() {
//!     println!("{}: {:.3}x", bench.name, bench.speedup(
//!         MachineKind::FgstpSmall, MachineKind::SingleSmall));
//! }
//! ```
//!
//! # Parallelism
//!
//! Every (workload, machine) pair is an independent job: the session
//! traces each workload once (in parallel across workloads), then fans the
//! job matrix out over `threads(n)` `std::thread` workers (default
//! [`std::thread::available_parallelism`]). Results always come back in
//! deterministic request order, and every statistic is bit-identical to a
//! `threads(1)` run — the simulators themselves are single-threaded and
//! deterministic, the pool only schedules them.
//!
//! # Trace cache
//!
//! Tracing is functional simulation and costs more than decoding, so the
//! session persists every trace it produces through
//! [`fgstp_tracefile::TraceCache`]. The default location is
//! `target/trace-cache/` (honouring `CARGO_TARGET_DIR`); the key is
//! *workload name + scale + trace-format version*; corrupt or stale files
//! are detected by checksum/version and silently fall back to re-tracing.
//! Opt out with [`Session::no_cache`] or redirect with
//! [`Session::cache_dir`].

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fgstp_isa::{DynInst, Trace};
use fgstp_ooo::TimingModel;
use fgstp_sampling::{SampleConfig, SamplePlan, WindowExec, WindowJob, WindowPool};
use fgstp_tracefile::{OwnedTraceReader, TraceCache};
use fgstp_workloads::{by_name, suite, Scale, Workload};

use crate::presets::MachineKind;
use crate::runner::{
    resolve, run, run_on_corun, try_trace_workload, BenchResult, MachineRun, RunInput, RunRequest,
};
use crate::spec::CoRunSpec;

/// Trace-cache hit/miss counters of one [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Traces served from the on-disk cache.
    pub hits: u64,
    /// Traces regenerated by functional simulation (and then stored).
    pub misses: u64,
}

/// Functional-warming counters of one [`Session`] (sampled runs only);
/// see [`Session::snapshot_stats`]. Kept in this shape only until the
/// next benchmark change drops `perfbench`'s use of `hits` and
/// `misses`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotStats {
    /// Always 0: live-points are never stored, so none are loaded.
    pub hits: u64,
    /// Always 0, like `hits`.
    pub misses: u64,
    /// Instructions retired through the functional-warming fast path
    /// across all sampled runs.
    pub warmed_insts: u64,
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    warmed_insts: AtomicU64,
}

/// Filename-safe tag for a scale, part of every cache key.
fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Reference => "reference",
    }
}

/// A trace ready for streaming consumption; see [`Session::stream_trace`].
#[derive(Debug)]
pub enum TraceStream {
    /// Served from the on-disk cache: records decode on the fly from the
    /// compact encoded bytes (~10 B/record) — the decoded vector is never
    /// materialized.
    Cached(OwnedTraceReader),
    /// Freshly traced this call (and stored to the cache when one is
    /// configured), so it is already in memory.
    Fresh(Trace),
}

impl TraceStream {
    /// Total dynamic instructions in the trace.
    pub fn total(&self) -> u64 {
        match self {
            TraceStream::Cached(r) => r.total(),
            TraceStream::Fresh(t) => t.len() as u64,
        }
    }
}

impl IntoIterator for TraceStream {
    type Item = DynInst;
    type IntoIter = TraceStreamIter;

    fn into_iter(self) -> TraceStreamIter {
        match self {
            TraceStream::Cached(r) => TraceStreamIter::Cached(r),
            TraceStream::Fresh(t) => TraceStreamIter::Fresh(t.into_insts().into_iter()),
        }
    }
}

/// Iterator over a [`TraceStream`], in commit order.
#[derive(Debug)]
pub enum TraceStreamIter {
    /// Streaming decode off the cached bytes.
    Cached(OwnedTraceReader),
    /// Walking the freshly traced vector.
    Fresh(std::vec::IntoIter<DynInst>),
}

impl Iterator for TraceStreamIter {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self {
            TraceStreamIter::Cached(r) => r.next(),
            TraceStreamIter::Fresh(i) => i.next(),
        }
    }
}

/// The default cache root: `<target dir>/trace-cache`.
fn default_cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("trace-cache")
}

/// A configured simulation driver; see the [module docs](self) for the
/// full picture.
#[derive(Debug, Clone)]
pub struct Session {
    threads: usize,
    scale: Scale,
    machines: Vec<MachineKind>,
    workloads: Option<Vec<String>>,
    cores: Option<usize>,
    cache: Option<TraceCache>,
    counters: Arc<Counters>,
    telemetry: bool,
    sample: Option<SampleConfig>,
    corun: Option<CoRunSpec>,
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

impl Session {
    /// A session with the default knobs: all available cores, the
    /// experiment-harness default [`Scale::Small`], the small-CMP machine
    /// set, and the trace cache at `target/trace-cache/`.
    pub fn new() -> Session {
        Session {
            threads: std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(1),
            scale: Scale::Small,
            machines: MachineKind::SMALL_CMP.to_vec(),
            workloads: None,
            cores: None,
            cache: Some(TraceCache::new(default_cache_dir())),
            counters: Arc::new(Counters::default()),
            telemetry: false,
            sample: None,
            corun: None,
        }
    }

    /// Sets the worker-pool size (clamped to at least 1). `threads(1)`
    /// runs every job on the calling thread, in request order.
    pub fn threads(mut self, n: usize) -> Session {
        self.threads = n.max(1);
        self
    }

    /// Sets the workload scale.
    pub fn scale(mut self, scale: Scale) -> Session {
        self.scale = scale;
        self
    }

    /// Sets the machine set runs execute on, in the given request order.
    pub fn machines(mut self, kinds: impl IntoIterator<Item = MachineKind>) -> Session {
        self.machines = kinds.into_iter().collect();
        self
    }

    /// Restricts the session to the named workloads: [`Session::plan`],
    /// [`Session::run_suite`], [`Session::suite_traces`] and
    /// [`Session::map_suite`] then cover only these names, in suite
    /// order. Names not in the suite are silently absent (validate
    /// upstream with [`crate::ExperimentSpec::validate`]).
    pub fn workloads(mut self, names: impl IntoIterator<Item = String>) -> Session {
        self.workloads = Some(names.into_iter().collect());
        self
    }

    /// Overrides the Fg-STP core count for every run (the `--cores`
    /// flag and the E13 scaling sweep).
    ///
    /// # Panics
    ///
    /// Runs panic if the machine set contains a non-Fg-STP preset (those
    /// machines have a fixed shape); [`crate::ExperimentSpec::validate`]
    /// rejects that before a session is built.
    pub fn cores(mut self, n: usize) -> Session {
        self.cores = Some(n);
        self
    }

    /// The suite at the session scale, narrowed to the session's
    /// workload filter (see [`Session::workloads`]). Filter names from
    /// outside the main suite (`*_long`, `rv:*`) resolve through
    /// [`fgstp_workloads::by_name`] and follow the suite members, in
    /// filter order.
    fn filtered_suite(&self) -> Vec<Workload> {
        let mut all = suite(self.scale);
        if let Some(names) = &self.workloads {
            all.retain(|w| names.iter().any(|n| n == w.name));
            for n in names {
                if !all.iter().any(|w| w.name == n) {
                    if let Some(w) = fgstp_workloads::by_name(n, self.scale) {
                        all.push(w);
                    }
                }
            }
        }
        all
    }

    /// Redirects the trace cache to `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Session {
        self.cache = Some(TraceCache::new(dir));
        self
    }

    /// Disables the trace cache: every trace is regenerated.
    pub fn no_cache(mut self) -> Session {
        self.cache = None;
        self
    }

    /// Enables per-cycle stall accounting: every run carries its merged
    /// CPI stack in [`crate::MachineRun::cpi`], ready for
    /// [`crate::cpi_stack_table`]. Timing results are bit-identical with
    /// the toggle on or off; only the observability differs.
    pub fn telemetry(mut self, on: bool) -> Session {
        self.telemetry = on;
        self
    }

    /// Switches every run to SMARTS-style sampled simulation with the
    /// given regime (see [`fgstp_sampling`]): functional warming between
    /// periodic detailed windows, results carrying projected cycle totals
    /// plus the interval record in [`crate::MachineRun::sampled`].
    /// Composes with [`Session::telemetry`] — the merged CPI stack then
    /// covers the detailed windows only.
    ///
    /// # Panics
    ///
    /// Runs panic if `cfg` is malformed (see
    /// [`fgstp_sampling::SampleConfig::validate`]).
    pub fn sample(mut self, cfg: SampleConfig) -> Session {
        self.sample = Some(cfg);
        self
    }

    /// Switches the session to a multi-program co-run: instead of the
    /// (workload × machine) matrix, [`Session::run_suite`] places the
    /// co-run's programs on disjoint core ranges of one machine (the
    /// session's single Fg-STP preset) and returns one [`BenchResult`]
    /// per program, in plan order. A co-run is always one job: the worker
    /// pool never changes its numbers.
    ///
    /// # Panics
    ///
    /// Runs panic if the machine set is not exactly one Fg-STP preset or
    /// a workload is unknown — [`crate::ExperimentSpec::validate`]
    /// rejects both upstream.
    pub fn corun(mut self, c: CoRunSpec) -> Session {
        self.corun = Some(c);
        self
    }

    /// Trace-cache hits and misses since this session was created.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
        }
    }

    /// Instructions functionally warmed by sampled runs since this
    /// session was created (zero otherwise); `hits` and `misses` always
    /// read 0. The name and the two zero fields stay only until the next
    /// benchmark change drops `perfbench`'s use of them.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: 0,
            misses: 0,
            warmed_insts: self.counters.warmed_insts.load(Ordering::Relaxed),
        }
    }

    /// Plans one sampled run of `kind` (with the Fg-STP core count
    /// overridden to `cores` when set) by functional warming in memory,
    /// counting the warmed instructions.
    fn sampled_plan(
        &self,
        insts: &[DynInst],
        kind: MachineKind,
        cores: Option<usize>,
        scfg: &SampleConfig,
    ) -> SamplePlan {
        let (model, hcfg) = resolve(kind, cores);
        let plan = SamplePlan::plan(insts, model.base_core(), &hcfg, scfg);
        self.counters
            .warmed_insts
            .fetch_add(plan.warmed_insts, Ordering::Relaxed);
        plan
    }

    /// The request every run of this session makes: the core override
    /// and telemetry knobs, read once, with `pool` dispatching sampled
    /// windows.
    fn request<'p>(&self, pool: WindowPool<'p>) -> RunRequest<'p> {
        RunRequest {
            cores: self.cores,
            telemetry: self.telemetry,
            episodes: false,
            pool: Some(pool),
        }
    }

    /// Traces one workload at the session scale, consulting the cache
    /// first and storing on a miss. Corrupt or stale cache files read as
    /// misses and are re-traced.
    ///
    /// # Panics
    ///
    /// Panics if tracing fails — use [`Session::try_trace`] when a failure
    /// should not take down the caller.
    pub fn trace(&self, w: &Workload) -> Trace {
        self.try_trace(w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Session::trace`], but reports tracing failures (budget
    /// exhaustion, a kernel fault) as an error instead of panicking.
    /// Failures are never cached.
    pub fn try_trace(&self, w: &Workload) -> Result<Trace, String> {
        let Some(cache) = &self.cache else {
            return try_trace_workload(w, self.scale);
        };
        let key = self.trace_key(w);
        if let Some(insts) = cache.load(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Trace::from_insts(insts));
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let trace = try_trace_workload(w, self.scale)?;
        // A failed store (read-only filesystem, disk full) only costs the
        // next run a re-trace; the current result is unaffected.
        let _ = cache.store(&key, trace.insts());
        Ok(trace)
    }

    /// The cache key of one workload at the session scale. The key leads
    /// with the frontend — `syn` for SimRISC kernels, `rv` plus the
    /// translation version for RV32 programs — so traces from different
    /// frontends (or different translation schemes) can never collide in
    /// the cache directory.
    fn trace_key(&self, w: &Workload) -> String {
        match w.frontend() {
            "rv" => format!(
                "rv{}-{}-{}",
                fgstp_rv::TRANSLATION_VERSION,
                w.name.replace(':', "_"),
                scale_tag(self.scale)
            ),
            _ => format!("syn-{}-{}", w.name, scale_tag(self.scale)),
        }
    }

    /// Opens one workload's trace for streaming consumption, preferring
    /// the on-disk cache: a hit yields a validated streaming reader over
    /// the compact encoded bytes (corrupt or truncated files read as
    /// misses, exactly like [`Session::try_trace`]); a miss re-traces the
    /// workload — storing the result for next time — and streams the
    /// fresh trace from memory. Either way the records that come out are
    /// bit-identical to [`Session::try_trace`]'s.
    pub fn stream_trace(&self, w: &Workload) -> Result<TraceStream, String> {
        let Some(cache) = &self.cache else {
            return try_trace_workload(w, self.scale).map(TraceStream::Fresh);
        };
        let key = self.trace_key(w);
        if let Some(reader) = cache.open_stream(&key) {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(TraceStream::Cached(reader));
        }
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        let trace = try_trace_workload(w, self.scale)?;
        let _ = cache.store(&key, trace.insts());
        Ok(TraceStream::Fresh(trace))
    }

    /// Traces the (possibly filtered) suite in parallel, in suite order.
    pub fn suite_traces(&self) -> Vec<(Workload, Trace)> {
        let workloads = self.filtered_suite();
        let traces = self.par_map(&workloads, |w| self.trace(w));
        workloads.into_iter().zip(traces).collect()
    }

    /// A run plan over the (possibly filtered) suite and the session's
    /// machine set.
    pub fn plan(&self) -> RunPlan<'_> {
        RunPlan {
            session: self,
            workloads: self.filtered_suite(),
            machines: self.machines.clone(),
        }
    }

    /// Runs the whole suite on the session's machine set — or, when
    /// [`Session::corun`] is set, the co-run scenario (one result per
    /// program).
    pub fn run_suite(&self) -> Vec<BenchResult> {
        if let Some(c) = &self.corun {
            return self.run_corun(c);
        }
        self.plan().execute()
    }

    /// Executes a co-run: traces every program's workload (cache-aware,
    /// in parallel) and, when sampling, plans each program on its own
    /// core slice; then runs the scenario on the single Fg-STP machine of
    /// the session.
    fn run_corun(&self, c: &CoRunSpec) -> Vec<BenchResult> {
        assert_eq!(
            self.machines.len(),
            1,
            "a co-run uses exactly one machine preset"
        );
        let kind = self.machines[0];
        let workloads: Vec<Workload> = c
            .programs
            .iter()
            .map(|p| {
                by_name(&p.workload, self.scale)
                    .unwrap_or_else(|| panic!("unknown co-run workload `{}`", p.workload))
            })
            .collect();
        let traces = self.par_map(&workloads, |w| self.trace(w));
        let cores: Vec<usize> = c.programs.iter().map(|p| p.cores).collect();
        let idx: Vec<usize> = (0..workloads.len()).collect();
        let plans: Vec<SamplePlan> = match &self.sample {
            Some(scfg) => self.par_map(&idx, |&i| {
                let t = traces[i].insts();
                self.sampled_plan(t, kind, Some(cores[i]), scfg)
            }),
            None => Vec::new(),
        };
        let inputs: Vec<RunInput> = if self.sample.is_some() {
            plans.iter().map(RunInput::Plan).collect()
        } else {
            traces.iter().map(|t| RunInput::Trace(t.insts())).collect()
        };
        let pool = |jobs: &[WindowJob], window: WindowExec| self.par_map(jobs, |j| window(j));
        run_on_corun(kind, &workloads, &inputs, &cores, c.isolated, Some(&pool))
    }

    /// Runs one workload on the session's machine set.
    pub fn run_workload(&self, w: &Workload) -> BenchResult {
        let mut results = RunPlan {
            session: self,
            workloads: vec![w.clone()],
            machines: self.machines.clone(),
        }
        .execute();
        results.pop().expect("one workload yields one result")
    }

    /// Applies `f` to every (workload, trace) of the suite on the worker
    /// pool, returning results in suite order. This is the escape hatch
    /// for custom sweeps (config ablations, sensitivity grids) that need
    /// more than the preset machines.
    pub fn map_suite<T: Send>(&self, f: impl Fn(&Workload, &Trace) -> T + Sync) -> Vec<T> {
        let traced = self.suite_traces();
        self.par_map(&traced, |(w, t)| f(w, t))
    }

    /// Runs `f` over `items` on the session's worker pool, returning
    /// results in input order. Panics in `f` propagate to the caller.
    pub fn par_map<I: Sync, T: Send>(&self, items: &[I], f: impl Fn(&I) -> T + Sync) -> Vec<T> {
        parallel_map(self.threads, items, f)
    }
}

/// A (workload × machine) job matrix bound to a [`Session`].
///
/// Narrow the axes with [`workloads`](RunPlan::workloads) /
/// [`machines`](RunPlan::machines), then [`execute`](RunPlan::execute).
#[derive(Debug, Clone)]
pub struct RunPlan<'s> {
    session: &'s Session,
    workloads: Vec<Workload>,
    machines: Vec<MachineKind>,
}

impl RunPlan<'_> {
    /// Replaces the workload axis.
    pub fn workloads(mut self, ws: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads = ws.into_iter().collect();
        self
    }

    /// Keeps only the named workloads, in suite order.
    pub fn workload_names(mut self, names: &[&str]) -> Self {
        self.workloads.retain(|w| names.contains(&w.name));
        self
    }

    /// Replaces the machine axis.
    pub fn machines(mut self, kinds: impl IntoIterator<Item = MachineKind>) -> Self {
        self.machines = kinds.into_iter().collect();
        self
    }

    /// Executes the matrix on the session's worker pool: each workload is
    /// traced once (cache-aware), every (workload, machine) pair runs as
    /// an independent job, and results come back grouped per workload in
    /// request order — bit-identical for any pool size.
    ///
    /// A workload whose trace fails yields a [`BenchResult`] with no runs
    /// and [`BenchResult::error`] set, rather than aborting the whole
    /// matrix.
    pub fn execute(&self) -> Vec<BenchResult> {
        let traces = self
            .session
            .par_map(&self.workloads, |w| self.session.try_trace(w));
        // Jobs exist only for workloads that traced; failures surface as
        // run-less results below.
        let jobs: Vec<(usize, MachineKind)> = traces
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ok())
            .flat_map(|(wi, _)| self.machines.iter().map(move |&k| (wi, k)))
            .collect();
        let session = self.session;
        let pool = |jobs: &[WindowJob], window: WindowExec| session.par_map(jobs, |j| window(j));
        let req = session.request(&pool);
        let trace_of = |wi: usize| {
            traces[wi]
                .as_ref()
                .expect("jobs cover traced workloads")
                .insts()
        };
        let runs: Vec<MachineRun> = if let Some(scfg) = &session.sample {
            // Sampled jobs run in two phases. Planning — one pass of
            // functional warming per job — fans out across jobs.
            // Execution then dispatches every plan's pure detailed
            // windows over the same worker pool; results merge in
            // systematic-interval order either way, so estimates are
            // bit-identical at any pool size.
            let plans = session.par_map(&jobs, |&(wi, kind)| {
                session.sampled_plan(trace_of(wi), kind, req.cores, scfg)
            });
            jobs.iter()
                .zip(&plans)
                .map(|(&(_, kind), plan)| run(kind, RunInput::Plan(plan), &req))
                .collect()
        } else {
            session.par_map(&jobs, |&(wi, kind)| {
                run(kind, RunInput::Trace(trace_of(wi)), &req)
            })
        };
        let mut runs = runs.into_iter();
        self.workloads
            .iter()
            .zip(&traces)
            .map(|(w, t)| match t {
                Ok(t) => BenchResult {
                    name: w.name,
                    committed: t.len() as u64,
                    runs: (&mut runs).take(self.machines.len()).collect(),
                    error: None,
                },
                Err(e) => BenchResult {
                    name: w.name,
                    committed: 0,
                    runs: Vec::new(),
                    error: Some(e.clone()),
                },
            })
            .collect()
    }
}

/// Maps `f` over `items` on a fixed pool of `threads` scoped workers,
/// writing each result into its input's slot: output order is input
/// order regardless of scheduling. One thread short-circuits to a plain
/// serial map.
fn parallel_map<I: Sync, T: Send>(
    threads: usize,
    items: &[I],
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(&items[i]);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot lock")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_workloads::by_name;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fgstp-session-unit-{tag}-{}", std::process::id()))
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(8, &items, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        assert_eq!(parallel_map(1, &items, |&x| x * 2), doubled);
        let empty: Vec<u64> = Vec::new();
        assert!(parallel_map(4, &empty, |&x: &u64| x).is_empty());
    }

    #[test]
    fn plan_matrix_is_grouped_and_ordered() {
        let session = Session::new().scale(Scale::Test).threads(2).no_cache();
        let results = session
            .plan()
            .workload_names(&["perl_hash", "hmmer_dp"])
            .machines([MachineKind::FgstpSmall, MachineKind::SingleSmall])
            .execute();
        assert_eq!(results.len(), 2);
        for b in &results {
            assert_eq!(b.runs.len(), 2);
            assert_eq!(b.runs[0].kind, MachineKind::FgstpSmall);
            assert_eq!(b.runs[1].kind, MachineKind::SingleSmall);
            for r in &b.runs {
                assert_eq!(r.result.committed, b.committed);
            }
        }
    }

    #[test]
    fn sampled_plan_runs_every_job_through_the_sampler() {
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let session = Session::new()
            .scale(Scale::Test)
            .threads(2)
            .no_cache()
            .sample(scfg);
        let results = session
            .plan()
            .workload_names(&["perl_hash", "hmmer_dp"])
            .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
            .execute();
        for b in &results {
            for r in &b.runs {
                let s = r.sampled.as_ref().expect("sampled run record");
                assert_eq!(s.config, scfg);
                assert_eq!(r.result.committed, b.committed);
                assert!(r.result.cycles > 0);
            }
        }
        // The pool size never changes the numbers.
        let serial = Session::new()
            .scale(Scale::Test)
            .threads(1)
            .no_cache()
            .sample(scfg)
            .plan()
            .workload_names(&["perl_hash", "hmmer_dp"])
            .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
            .execute();
        for (a, b) in results.iter().zip(&serial) {
            for (x, y) in a.runs.iter().zip(&b.runs) {
                assert_eq!(x.result.cycles, y.result.cycles);
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    y.sampled.as_ref().unwrap().intervals
                );
            }
        }
    }

    #[test]
    fn workload_filter_narrows_every_suite_entry_point() {
        let session = Session::new()
            .scale(Scale::Test)
            .threads(2)
            .no_cache()
            .workloads(["hmmer_dp".to_owned(), "perl_hash".to_owned()])
            .machines([MachineKind::SingleSmall]);
        let traced = session.suite_traces();
        let names: Vec<&str> = traced.iter().map(|(w, _)| w.name).collect();
        // Suite order, not request order.
        assert_eq!(names, ["perl_hash", "hmmer_dp"]);
        let results = session.run_suite();
        assert_eq!(results.len(), 2);
        assert_eq!(session.map_suite(|_, _| ()).len(), 2);
    }

    #[test]
    fn cores_override_reshapes_every_plan_run() {
        let session = Session::new()
            .scale(Scale::Test)
            .no_cache()
            .workloads(["hmmer_dp".to_owned()])
            .machines([MachineKind::FgstpSmall])
            .cores(3);
        let results = session.run_suite();
        assert_eq!(results[0].runs[0].result.cores.len(), 3);
        // Telemetry path honours the override too, bit-identically.
        let inst = session.clone().telemetry(true).run_suite();
        assert_eq!(inst[0].runs[0].result.cores.len(), 3);
        assert_eq!(
            inst[0].runs[0].result.cycles,
            results[0].runs[0].result.cycles
        );
        assert!(inst[0].runs[0].cpi.is_some());
    }

    #[test]
    fn corun_session_yields_one_row_per_program() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        let corun = CoRunSpec {
            programs: vec![
                CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 2,
                },
                CoRunProgramSpec {
                    workload: "hmmer_dp".to_owned(),
                    cores: 2,
                },
            ],
            isolated: false,
        };
        let session = Session::new()
            .scale(Scale::Test)
            .threads(2)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .corun(corun.clone());
        let results = session.run_suite();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "perl_hash");
        assert_eq!(results[1].name, "hmmer_dp");
        for (i, b) in results.iter().enumerate() {
            assert_eq!(b.runs.len(), 1);
            let r = &b.runs[0];
            assert_eq!(r.result.committed, b.committed);
            let info = r.corun.expect("co-run placement record");
            assert_eq!(info.program, i);
            assert_eq!(info.cores, 2);
            assert!(!info.isolated);
        }
        assert_eq!(results[1].runs[0].corun.unwrap().first_core, 2);
        // Pool size never changes the numbers: a co-run is one job.
        let serial = Session::new()
            .scale(Scale::Test)
            .threads(1)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .corun(corun)
            .run_suite();
        for (a, b) in results.iter().zip(&serial) {
            assert_eq!(a.runs[0].result.cycles, b.runs[0].result.cycles);
            assert_eq!(a.runs[0].result.mem.l2, b.runs[0].result.mem.l2);
        }
    }

    #[test]
    fn isolated_corun_matches_solo_cycles() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        let solo = Session::new()
            .scale(Scale::Test)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .plan()
            .workload_names(&["perl_hash"])
            .execute();
        let co = Session::new()
            .scale(Scale::Test)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .corun(CoRunSpec {
                programs: vec![
                    CoRunProgramSpec {
                        workload: "perl_hash".to_owned(),
                        cores: 2,
                    },
                    CoRunProgramSpec {
                        workload: "hmmer_dp".to_owned(),
                        cores: 2,
                    },
                ],
                isolated: true,
            })
            .run_suite();
        assert_eq!(
            co[0].runs[0].result.cycles, solo[0].runs[0].result.cycles,
            "contention off reproduces the solo cycle count exactly"
        );
        let finishes: Vec<u64> = co.iter().map(|b| b.runs[0].result.cycles).collect();
        for (b, first_core) in co.iter().zip([0, 2]) {
            let info = b.runs[0].corun.expect("co-run placement record");
            assert!(info.isolated);
            assert_eq!(info.first_core, first_core);
            assert_eq!(
                (info.start_cycle, info.finish_cycle),
                (0, b.runs[0].result.cycles)
            );
            assert_eq!(info.total_cycles, *finishes.iter().max().unwrap());
        }
    }

    #[test]
    fn trace_cache_hits_after_first_trace() {
        let dir = temp_dir("hits");
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new().scale(Scale::Test).cache_dir(&dir);
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let cold = session.trace(&w);
        assert_eq!(session.cache_stats(), CacheStats { hits: 0, misses: 1 });
        let warm = session.trace(&w);
        assert_eq!(session.cache_stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cold, warm, "cached trace is bit-identical");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scales_do_not_share_cache_entries() {
        let dir = temp_dir("scales");
        let _ = std::fs::remove_dir_all(&dir);
        let w = by_name("perl_hash", Scale::Test).unwrap();
        let test = Session::new().scale(Scale::Test).cache_dir(&dir);
        let small = Session::new().scale(Scale::Small).cache_dir(&dir);
        test.trace(&w);
        let w_small = by_name("perl_hash", Scale::Small).unwrap();
        small.trace(&w_small);
        assert_eq!(small.cache_stats().hits, 0, "different scale, fresh trace");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_trace_matches_materialized_trace() {
        let dir = temp_dir("stream");
        let _ = std::fs::remove_dir_all(&dir);
        let session = Session::new().scale(Scale::Test).cache_dir(&dir);
        let w = by_name("perl_hash", Scale::Test).unwrap();
        // Cold: the stream is a fresh trace (and populates the cache).
        let cold = session.stream_trace(&w).unwrap();
        assert!(matches!(cold, TraceStream::Fresh(_)));
        let materialized = session.trace(&w);
        let cold_insts: Vec<_> = cold.into_iter().collect();
        assert_eq!(cold_insts, materialized.insts());
        // Warm: the stream decodes off the cache bytes, bit-identically.
        let warm = session.stream_trace(&w).unwrap();
        assert!(matches!(warm, TraceStream::Cached(_)));
        assert_eq!(warm.total(), materialized.len() as u64);
        let warm_insts: Vec<_> = warm.into_iter().collect();
        assert_eq!(warm_insts, materialized.insts());
        // A no-cache session streams fresh traces.
        let nocache = Session::new().scale(Scale::Test).no_cache();
        let fresh = nocache.stream_trace(&w).unwrap();
        assert!(matches!(fresh, TraceStream::Fresh(_)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_sampled_plan_matches_uncached_results() {
        let dir = temp_dir("sampled-stream");
        let _ = std::fs::remove_dir_all(&dir);
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let run = |cached: bool| {
            let mut s = Session::new().scale(Scale::Test).threads(2).sample(scfg);
            s = if cached {
                s.cache_dir(&dir)
            } else {
                s.no_cache()
            };
            s.plan()
                .workload_names(&["perl_hash", "hmmer_dp"])
                .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
                .execute()
        };
        let uncached = run(false);
        // Run the cached variant twice: the first populates the cache (its
        // jobs already stream off it), the second streams from a warm one.
        let first = run(true);
        let second = run(true);
        for (a, bs) in uncached.iter().zip(first.iter().zip(&second)) {
            for (x, (y, z)) in a.runs.iter().zip(bs.0.runs.iter().zip(&bs.1.runs)) {
                assert_eq!(x.result.cycles, y.result.cycles);
                assert_eq!(x.result.cycles, z.result.cycles);
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    y.sampled.as_ref().unwrap().intervals
                );
                assert_eq!(
                    x.sampled.as_ref().unwrap().intervals,
                    z.sampled.as_ref().unwrap().intervals
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sampled_isolated_corun_runs_through_the_planner() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        let corun = CoRunSpec {
            programs: vec![
                CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 2,
                },
                CoRunProgramSpec {
                    workload: "hmmer_dp".to_owned(),
                    cores: 2,
                },
            ],
            isolated: true,
        };
        let scfg = SampleConfig {
            interval: 2_000,
            warmup: 300,
            detail: 150,
        };
        let run = |threads: usize| {
            Session::new()
                .scale(Scale::Test)
                .threads(threads)
                .no_cache()
                .machines([MachineKind::FgstpSmall])
                .sample(scfg)
                .corun(corun.clone())
                .run_suite()
        };
        let results = run(2);
        assert_eq!(results.len(), 2);
        for (i, b) in results.iter().enumerate() {
            let r = &b.runs[0];
            let s = r.sampled.as_ref().expect("sampled co-run record");
            assert_eq!(s.config, scfg);
            assert_eq!(r.result.committed, b.committed);
            let info = r.corun.expect("co-run placement record");
            assert_eq!(info.program, i);
            assert!(info.isolated);
        }
        // Pool size never changes the numbers.
        let serial = run(1);
        for (a, b) in results.iter().zip(&serial) {
            assert_eq!(a.runs[0].result.cycles, b.runs[0].result.cycles);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be sampled")]
    fn sampled_shared_corun_panics() {
        use crate::spec::{CoRunProgramSpec, CoRunSpec};
        Session::new()
            .scale(Scale::Test)
            .no_cache()
            .machines([MachineKind::FgstpSmall])
            .sample(SampleConfig::default())
            .corun(CoRunSpec {
                programs: vec![CoRunProgramSpec {
                    workload: "perl_hash".to_owned(),
                    cores: 2,
                }],
                isolated: false,
            })
            .run_suite();
    }

    #[test]
    fn no_cache_never_touches_disk() {
        let session = Session::new().scale(Scale::Test).no_cache();
        let w = by_name("perl_hash", Scale::Test).unwrap();
        session.trace(&w);
        session.trace(&w);
        assert_eq!(session.cache_stats(), CacheStats::default());
    }
}
