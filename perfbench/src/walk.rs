//! The traced run: walks the layers the workload's spec crosses, on the
//! workload's kernels, with a span around each call into a layer's public
//! functions, and derives the per-layer metrics from the spans' self times.
//!
//! Per kernel the walk traces it (`Workload::try_trace`) and round-trips
//! the trace through the trace-file codec and cache. Paper-sweep and
//! daemon-mix, which run in full detail, then build the execution stream
//! and partition it for each Fg-STP preset and run every `--machines=all`
//! preset (`run_on`). Sampled-long plans, replays and executes a sampled
//! run (`SamplePlan`, `run_on_sampled_plan`) instead. Daemon-mix then
//! drives `fgstpd` through `Client::submit`/`results`; the batch workloads
//! run one untraced pass for the session's cache counters. A layer the
//! workload does not cross reads 0.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use fgstp_ooo::build_exec_stream;
use fgstp_sampling::{SampleConfig, SamplePlan};
use fgstp_service::bench_result_row;
use fgstp_sim::runner::{run_on, run_on_sampled_plan, warm_shape};
use fgstp_sim::{BenchResult, ExperimentSpec, MachineKind, MachineRun};
use fgstp_telemetry::json::Json;
use fgstp_tracefile::{read_trace, write_trace, TraceCache};
use fgstp_workloads::by_name;

use crate::daemon::{mix_order, p50_ms, port_file, run_mix, Daemon};
use crate::util::{mb, median};
use crate::workload::{check_rows, figure_lines, mix_specs, Kind, Tally};
use crate::{check_jobs, child, direct_rows, num, tally_of, Outcome, WorkDir};

/// The machines sampled in the walk.
const SAMPLED: [MachineKind; 2] = [MachineKind::SingleSmall, MachineKind::FgstpSmall];

/// One timed interval: name, start and end (seconds since the walk
/// began), and the span that was open when it began.
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Spans kept in memory and written once, at the end of the walk.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        (t - self.epoch).as_secs_f64()
    }

    /// Opens a span; later spans nest in it until [`Spans::end`].
    fn begin(&mut self, name: &str) -> usize {
        let start = self.at(Instant::now());
        self.push(name, start, start)
    }

    fn end(&mut self, idx: usize) {
        self.spans[idx].end = self.at(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in nesting order");
    }

    fn push(&mut self, name: &str, start: f64, end: f64) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Times `f` as a span with no children; returns its result and
    /// duration in seconds.
    fn leaf<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        let (s, e) = (self.at(t0), self.at(t1));
        self.push(name, s, e);
        self.open.pop();
        (out, e - s)
    }

    /// Records a span timed elsewhere (on a load-generator thread) as a
    /// child of the open span.
    fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let (s, e) = (self.at(start), self.at(end));
        self.push(name, s, e);
        self.open.pop();
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover, summed over spans of that name.
    fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_time) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.end - s.start - c).max(0.0);
        }
        out
    }

    /// Writes every span as one JSON line: name, start, end, parent.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {:?}, \"end_s\": {:?}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// Modelled-machine counts over the walk's runs: full detail, or the
/// projected totals of sampled runs. A simulator-only change must leave
/// them identical.
#[derive(Default)]
struct ModelCounts {
    cycles: u64,
    l1d_misses: u64,
    l2_misses: u64,
    mispredicts: u64,
    comm_sends: u64,
}

impl ModelCounts {
    fn add(&mut self, r: &MachineRun) {
        self.cycles += r.result.cycles;
        self.l1d_misses += r.result.mem.l1d.iter().map(|c| c.misses).sum::<u64>();
        self.l2_misses += r.result.mem.l2.misses;
        self.mispredicts += r.result.branches.1;
        self.comm_sends += r.fgstp.as_ref().map_or(0, |s| s.comm_total().sends);
    }
}

/// Running totals of the walk that are not span times.
#[derive(Default)]
struct Totals {
    isa_insts: u64,
    rv_insts: u64,
    trace_bytes: u64,
    /// Per Fg-STP preset: exec-stream and partition seconds.
    fgstp_parts: BTreeMap<&'static str, (f64, f64)>,
    /// Per preset: committed instructions and inclusive `run_on` seconds.
    timing: BTreeMap<&'static str, (u64, f64)>,
    windows: u64,
    livepoint_bytes: u64,
    model: ModelCounts,
}

/// The traced run of `kind`.
pub fn run(
    kind: Kind,
    seed: u64,
    fgstpd: &Path,
    work: &WorkDir,
    calib: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let setup_dir = work.sub("setup")?;
    let r = child("setup", kind, &setup_dir)?;
    out.tally.add(tally_of(&r));
    let walk_cache = TraceCache::new(work.sub("walk-cache")?);

    // Reference figures for the checks of the full-detail runs.
    let mix = (kind == Kind::DaemonMix).then(mix_specs);
    let direct = mix.as_deref().map(direct_rows);
    let mix_lines: Vec<String> = direct
        .iter()
        .flatten()
        .flatten()
        .flat_map(|l| Json::parse(l.trim_end()).ok())
        .flat_map(|row| figure_lines(&row))
        .collect();

    let mut spans = Spans::new();
    let mut tot = Totals::default();
    let root = spans.begin("walk");
    for name in &kind.kernels() {
        let sec = spans.begin("kernel");
        walk_kernel(
            kind,
            name,
            &mut spans,
            &mut tot,
            &walk_cache,
            &mut out.tally,
            &mix_lines,
        )?;
        spans.end(sec);
    }
    let service = match (&mix, &direct) {
        (Some(specs), Some(expected)) => {
            let svc = spans.begin("service");
            let s = walk_service(
                specs,
                expected,
                seed,
                fgstpd,
                &setup_dir,
                &mut spans,
                &mut out.tally,
            )?;
            spans.end(svc);
            s
        }
        _ => Service::default(),
    };
    spans.end(root);

    // One untraced pass through the session for its cache counters
    // (daemon-mix takes them from the daemon's counters instead).
    let counters = if kind == Kind::DaemonMix {
        service.counters
    } else {
        let p = child("pass", kind, &setup_dir)?;
        out.tally.add(tally_of(&p));
        [
            num(&p, "trace_hits"),
            num(&p, "trace_misses"),
            num(&p, "snapshot_hits"),
            num(&p, "snapshot_misses"),
        ]
    };

    let self_t = spans.self_times();
    let st = |n: &str| self_t.get(n).copied().unwrap_or(0.0);
    // Instructions per second in millions; 0 for a layer not crossed.
    let mips = |insts: u64, secs: f64| {
        if secs > 0.0 {
            insts as f64 / secs / 1e6
        } else {
            0.0
        }
    };
    let path = Path::new(".bench_spans").join(format!("{}.jsonl", kind.name()));
    spans
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    out.metric("host.calib_mips", calib, "MIPS");
    out.metric("isa.trace_s", st("isa.trace"), "s");
    out.metric(
        "isa.trace_mips",
        mips(tot.isa_insts, st("isa.trace")),
        "MIPS",
    );
    out.metric("rv.trace_s", st("rv.trace"), "s");
    out.metric("rv.trace_mips", mips(tot.rv_insts, st("rv.trace")), "MIPS");
    out.metric("tracefile.encode_s", st("tracefile.encode"), "s");
    out.metric("tracefile.decode_s", st("tracefile.decode"), "s");
    out.metric("tracefile.cache_load_s", st("tracefile.cache_load"), "s");
    out.metric("tracefile.trace_mb", mb(tot.trace_bytes), "MB");
    out.metric("ooo.exec_stream_s", st("ooo.exec_stream"), "s");
    out.metric("core.partition_s", st("core.partition"), "s");
    let fgstp_total: f64 = tot.fgstp_parts.keys().map(|k| tot.timing[k].1).sum();
    out.metric(
        "core.partition_share",
        if fgstp_total > 0.0 {
            st("core.partition") / fgstp_total
        } else {
            0.0
        },
        "ratio",
    );
    for m in MachineKind::ALL {
        let label = m.label();
        let (insts, inclusive) = tot.timing.get(label).copied().unwrap_or((0, 0.0));
        let (exec, part) = tot.fgstp_parts.get(label).copied().unwrap_or((0.0, 0.0));
        out.metric(
            format!("timing.{label}_s"),
            (st(&format!("timing.{label}")) - exec - part).max(0.0),
            "s",
        );
        out.metric(
            format!("timing.{label}.mips"),
            mips(insts, inclusive),
            "MIPS",
        );
    }
    out.metric("sampling.plan_s", st("sampling.plan"), "s");
    out.metric("sampling.replay_s", st("sampling.replay"), "s");
    out.metric("sampling.window_exec_s", st("sampling.window_exec"), "s");
    out.metric("sampling.windows", tot.windows as f64, "count");
    out.metric("sampling.livepoint_mb", mb(tot.livepoint_bytes), "MB");
    out.metric("session.trace_hits", counters[0], "count");
    out.metric("session.trace_misses", counters[1], "count");
    out.metric("session.snapshot_hits", counters[2], "count");
    out.metric("session.snapshot_misses", counters[3], "count");
    out.metric("service.submit_ms", service.submit_ms, "ms");
    out.metric("service.hit_p50_ms", service.hit_p50_ms, "ms");
    out.metric("service.miss_p50_ms", service.miss_p50_ms, "ms");
    out.metric("service.dedup_hits", service.dedup_hits, "count");
    out.metric("service.rejected", service.rejected, "count");
    out.metric("sim.cycles", tot.model.cycles as f64, "count");
    out.metric("mem.l1d_misses", tot.model.l1d_misses as f64, "count");
    out.metric("mem.l2_misses", tot.model.l2_misses as f64, "count");
    out.metric("bpred.mispredicts", tot.model.mispredicts as f64, "count");
    out.metric("core.comm_sends", tot.model.comm_sends as f64, "count");
    out.metric(
        "walk.glue_s",
        st("walk") + st("kernel") + st("service"),
        "s",
    );
    let per_span = span_cost_s();
    out.metric("trace.overhead_s", per_span * spans.spans.len() as f64, "s");
    out.metric("trace.spans", spans.spans.len() as f64, "count");
    out.notes.push(format!(
        "span cost {:.0} ns; spans in {}",
        per_span * 1e9,
        path.display()
    ));
    Ok(out)
}

/// Host seconds one span costs the walk: the median over five batches of
/// empty spans recorded exactly as the walk records its leaf spans.
fn span_cost_s() -> f64 {
    const BATCH: usize = 20_000;
    let per: Vec<f64> = (0..5)
        .map(|_| {
            let mut s = Spans::new();
            let t0 = Instant::now();
            for _ in 0..BATCH {
                s.leaf("tracefile.decode", || ());
            }
            std::hint::black_box(&s.spans);
            t0.elapsed().as_secs_f64() / BATCH as f64
        })
        .collect();
    median(&per)
}

/// Walks one kernel through the layers the workload's spec crosses.
fn walk_kernel(
    kind: Kind,
    name: &str,
    spans: &mut Spans,
    tot: &mut Totals,
    cache: &TraceCache,
    tally: &mut Tally,
    mix_lines: &[String],
) -> Result<(), String> {
    let scale = kind.scale();
    let w = by_name(name, scale).ok_or_else(|| format!("unknown kernel {name}"))?;
    let layer = if w.frontend() == "rv" {
        "rv.trace"
    } else {
        "isa.trace"
    };
    let (trace, _) = spans.leaf(layer, || w.try_trace(scale.trace_budget()));
    let trace = trace.map_err(|e| format!("{name}: {e}"))?;
    let insts = trace.insts();
    if layer == "rv.trace" {
        tot.rv_insts += insts.len() as u64;
    } else {
        tot.isa_insts += insts.len() as u64;
    }

    // Trace-file codec and cache.
    let (bytes, _) = spans.leaf("tracefile.encode", || write_trace(insts));
    tot.trace_bytes += bytes.len() as u64;
    let (decoded, _) = spans.leaf("tracefile.decode", || read_trace(&bytes));
    tally.check(matches!(&decoded, Ok(d) if d.as_slice() == insts));
    drop(decoded);
    let key = name.replace(':', "_");
    cache
        .store(&key, insts)
        .map_err(|e| format!("cannot store {name}: {e}"))?;
    let (loaded, _) = spans.leaf("tracefile.cache_load", || cache.load(&key));
    tally.check(loaded.as_deref() == Some(insts));
    drop(loaded);

    if kind == Kind::SampledLong {
        walk_sampled(w.name, insts, spans, tot, tally);
        return Ok(());
    }

    // Exec-stream and partition, as each Fg-STP run does them.
    for m in MachineKind::ALL {
        let Some(cfg) = m.try_fgstp_config() else {
            continue;
        };
        let (stream, exec) = spans.leaf("ooo.exec_stream", || build_exec_stream(insts));
        let (_, part) = spans.leaf("core.partition", || {
            fgstp::partition_stream_weighted(&stream, &cfg.partition, &cfg.steering_caps())
        });
        let e = tot.fgstp_parts.entry(m.label()).or_default();
        e.0 += exec;
        e.1 += part;
    }

    // Full-detail timing.
    let mut runs = Vec::new();
    for m in MachineKind::ALL {
        let (run, secs) = spans.leaf(&format!("timing.{}", m.label()), || run_on(m, insts));
        let e = tot.timing.entry(m.label()).or_default();
        e.0 += run.result.committed;
        e.1 += secs;
        tot.model.add(&run);
        runs.push(run);
    }
    let row = bench_result_row(&BenchResult {
        name: w.name,
        committed: insts.len() as u64,
        runs,
        error: None,
    });
    if kind == Kind::PaperSweep {
        tally.add(check_rows(kind, &[row]));
    } else {
        for line in figure_lines(&row) {
            tally.check(mix_lines.contains(&line));
        }
    }
    Ok(())
}

/// Sampling, as a sampled-long pass and its set-up do it: a cold plan
/// (functional warming), a replay from the plan's live-points, and window
/// execution, on each sampled machine. The modelled-machine counts are the
/// runs' projected totals.
fn walk_sampled(
    name: &'static str,
    insts: &[fgstp_isa::DynInst],
    spans: &mut Spans,
    tot: &mut Totals,
    tally: &mut Tally,
) {
    let scfg = SampleConfig::default();
    let mut runs = Vec::new();
    for m in SAMPLED {
        let (ccfg, hcfg) = warm_shape(m);
        let (plan, _) = spans.leaf("sampling.plan", || {
            SamplePlan::plan(insts, &ccfg, &hcfg, &scfg)
        });
        tot.windows += plan.jobs.len() as u64;
        tot.livepoint_bytes += plan.jobs.iter().map(|j| j.state.len() as u64).sum::<u64>()
            + plan.final_state.len() as u64;
        let snap = plan.to_snapshot();
        drop(plan);
        let (replayed, _) = spans.leaf("sampling.replay", || {
            SamplePlan::plan_replay(insts.iter().copied(), snap, &scfg)
        });
        let (run, _) = spans.leaf("sampling.window_exec", || {
            run_on_sampled_plan(m, &replayed, false, None)
        });
        tot.model.add(&run);
        runs.push(run);
    }
    let row = bench_result_row(&BenchResult {
        name,
        committed: insts.len() as u64,
        runs,
        error: None,
    });
    tally.add(check_rows(Kind::SampledLong, &[row]));
}

/// What the service section measured.
#[derive(Default)]
struct Service {
    submit_ms: f64,
    hit_p50_ms: f64,
    miss_p50_ms: f64,
    dedup_hits: f64,
    rejected: f64,
    /// Trace hits/misses and live-point hits/misses the daemon counted.
    counters: [f64; 4],
}

/// Runs one round of the daemon-mix job mix on a fresh daemon over the
/// set-up cache, checking every job's rows against the direct runs.
fn walk_service(
    specs: &[ExperimentSpec],
    expected: &[Vec<String>],
    seed: u64,
    fgstpd: &Path,
    dir: &Path,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Service, String> {
    let d = Daemon::start(fgstpd, &dir.join("trace-cache"), &port_file(dir))?;
    let recs = run_mix(d.addr, specs, &mix_order(specs.len(), seed));
    tally.add(check_jobs(&recs, expected));
    for r in &recs {
        spans.record("service.submit", r.start, r.submitted);
        spans.record("service.results", r.submitted, r.end);
    }
    let stats = d.stats()?;
    d.stop()?;
    let counter = |k: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let submit: Vec<f64> = recs
        .iter()
        .map(|r| (r.submitted - r.start).as_secs_f64() * 1e3)
        .collect();
    Ok(Service {
        submit_ms: median(&submit),
        hit_p50_ms: p50_ms(&recs, true),
        miss_p50_ms: p50_ms(&recs, false),
        dedup_hits: counter("service.dedup-hits"),
        rejected: counter("service.rejected"),
        counters: [
            counter("service.trace-hits"),
            counter("service.trace-misses"),
            counter(fgstp_telemetry::names::SNAPSHOT_HITS),
            counter(fgstp_telemetry::names::SNAPSHOT_MISSES),
        ],
    })
}
