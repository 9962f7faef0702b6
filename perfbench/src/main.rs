//! `perfbench` — the Fg-STP simulator's end-to-end and per-layer
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and what each layer metric should move.
//!
//! ```text
//! perfbench --fgstpd PATH --workload paper-sweep|sampled-long|daemon-mix|all
//!           --seed N --seconds S --trace 0|1
//! perfbench --pin paper-sweep|sampled-long
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics from untraced
//! passes; with `--trace 1` it walks the layers the workload crosses,
//! with spans, and reports the per-layer metrics. The last line of
//! standard output is the result as one JSON object (with `all`, one line
//! per workload in turn); a readable report goes to standard error. Each
//! run works in its own private cache directory under `.bench_work/`,
//! removed at the end.

mod daemon;
mod util;
mod walk;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;

use fgstp_service::protocol::wire_line;
use fgstp_sim::ExperimentSpec;
use fgstp_telemetry::json::Json;

use crate::daemon::{mix_order, p50_ms, port_file, run_mix, Daemon};
use crate::util::{dir_bytes, mb, median, quantile};
use crate::workload::{child_pass, child_setup, mix_specs, rows_of, Kind, Tally};

/// Fewest timed passes per batch run.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: perfbench --fgstpd PATH --workload paper-sweep|sampled-long|daemon-mix|all \
--seed N --seconds S --trace 0|1";

struct Args {
    /// The workloads to run: one, or all three for `--workload all`.
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    fgstpd: PathBuf,
    child: Option<String>,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kinds = None;
    let mut a = Args {
        kinds: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fgstpd: PathBuf::new(),
        child: None,
        pin: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => kinds = Some(parse_kinds(value()?)?),
            "--pin" => {
                kinds = Some(parse_kinds(value()?)?);
                a.pin = true;
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => a.trace = value()? == "1",
            "--fgstpd" => a.fgstpd = value()?.into(),
            "--child" => a.child = Some(value()?.clone()),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    a.kinds = kinds.ok_or("--workload is required")?;
    if a.child.is_none() && !a.pin && !a.fgstpd.is_file() {
        return Err(format!("--fgstpd `{}` is not a file", a.fgstpd.display()));
    }
    Ok(a)
}

fn parse_kinds(v: &str) -> Result<Vec<Kind>, String> {
    if v == "all" {
        return Ok(vec![Kind::PaperSweep, Kind::SampledLong, Kind::DaemonMix]);
    }
    Ok(vec![
        Kind::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?
    ])
}

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    /// (name, value, unit), in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra lines for the readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            tally: Tally::default(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The result line: correctness, operation counts and every metric
    /// at full precision.
    fn result_line(&self) -> String {
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && finite,
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// The run's private work directory, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn new(kind: Kind) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".bench_work").join(format!("{}-{}", kind.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Runs this binary as a child process whose default trace cache is
/// `dir/trace-cache`, and parses its JSON report.
pub fn child(mode: &str, kind: Kind, dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--child", mode, "--workload", kind.name()])
        .env("CARGO_TARGET_DIR", dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} child failed with {}", out.status));
    }
    Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .map_err(|e| format!("{mode} child: {e}"))
}

/// A number field of a child report.
pub fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Tally fields of a child report.
pub fn tally_of(v: &Json) -> Tally {
    Tally {
        attempted: num(v, "attempted") as u64,
        failed: num(v, "failed") as u64,
    }
}

/// Host calibration: the reference `fgstp_isa::Machine` interpreter's
/// MIPS on a fixed kernel, the median over half a second of runs.
/// Recorded, not gated.
pub fn calib_mips() -> f64 {
    let w = fgstp_workloads::by_name("perl_hash", fgstp_sim::Scale::Small).expect("pinned kernel");
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 5 || start.elapsed().as_secs_f64() < 0.5 {
        let mut m = fgstp_isa::Machine::new(w.program());
        let t0 = Instant::now();
        m.run(64_000_000).expect("the kernel halts");
        runs.push(std::hint::black_box(m.executed()) as f64 / t0.elapsed().as_secs_f64() / 1e6);
    }
    median(&runs)
}

/// The job-latency metrics shared by every workload. A batch workload's
/// job is one pass.
fn job_metrics(out: &mut Outcome, latencies_s: &[f64], jobs_per_s: f64) {
    out.metric("job_p50_ms", quantile(latencies_s, 0.5) * 1e3, "ms");
    out.metric("job_p90_ms", quantile(latencies_s, 0.9) * 1e3, "ms");
    out.metric("jobs_per_s", jobs_per_s, "jobs/s");
}

/// Set-up: [`Kind::setups`] times from an empty private cache. `then`
/// finishes one set-up and is part of its time; for daemon-mix it starts
/// the daemon, which is stopped once the daemon listens and the clock has
/// stopped. The last set-up's directory is kept as the warm cache, its
/// files flushed to disk so that write-back does not run during the timed
/// passes.
fn setups(
    kind: Kind,
    work: &WorkDir,
    tally: &mut Tally,
    mut then: impl FnMut(&Path) -> Result<Option<Daemon>, String>,
) -> Result<(Vec<f64>, PathBuf), String> {
    let mut secs = Vec::new();
    let mut warm = PathBuf::new();
    let n = kind.setups();
    for i in 0..n {
        let dir = work.sub(&format!("setup{i}"))?;
        let t0 = Instant::now();
        let r = child("setup", kind, &dir)?;
        let daemon = then(&dir)?;
        secs.push(t0.elapsed().as_secs_f64());
        if let Some(d) = daemon {
            d.stop()?;
        }
        tally.add(tally_of(&r));
        if i + 1 < n {
            let _ = std::fs::remove_dir_all(&dir);
        }
        warm = dir;
    }
    sync_files(&warm);
    Ok((secs, warm))
}

/// Flushes every file under `dir` to disk.
fn sync_files(dir: &Path) {
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = e.path();
        if path.is_dir() {
            sync_files(&path);
        } else if let Ok(f) = std::fs::File::open(&path) {
            let _ = f.sync_all();
        }
    }
}

/// paper-sweep and sampled-long: set up, then time passes of the spec,
/// each in a child process on the warm private cache, until `seconds`
/// have passed and at least `MIN_PASSES` ran.
fn run_batch(kind: Kind, seconds: f64, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let (setup, warm) = setups(kind, work, &mut out.tally, |_| Ok(None))?;
    let (mut walls, mut rss, mut insts) = (vec![], vec![], 0.0);
    let start = Instant::now();
    let mut last = Json::Null;
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let p = child("pass", kind, &warm)?;
        out.tally.add(tally_of(&p));
        walls.push(num(&p, "wall"));
        rss.push(num(&p, "rss_bytes"));
        insts = num(&p, "insts");
        last = p;
    }
    let wall = median(&walls);
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", wall, "s");
    out.metric("sim_mips", insts / wall / 1e6, "MIPS");
    out.metric("peak_rss_mb", mb(median(&rss) as u64), "MB");
    out.metric("cache_disk_mb", mb(dir_bytes(&warm)), "MB");
    job_metrics(
        &mut out,
        &walls,
        walls.len() as f64 / walls.iter().sum::<f64>(),
    );
    out.notes.push(format!("set-ups (s): {}", list(&setup)));
    out.notes.push(format!("passes (s): {}", list(&walls)));
    out.notes.push(format!(
        "trace cache {} hits, {} misses; live-points {} hits, {} misses (last pass)",
        num(&last, "trace_hits"),
        num(&last, "trace_misses"),
        num(&last, "snapshot_hits"),
        num(&last, "snapshot_misses")
    ));
    Ok(out)
}

/// Values to three decimals, for the readable report.
fn list(xs: &[f64]) -> String {
    xs.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The rows a direct `ExperimentSpec::run` gives for each spec (without
/// the trace cache, an execution knob), as wire lines, two specs at a time.
pub fn direct_rows(specs: &[ExperimentSpec]) -> Vec<Vec<String>> {
    fgstp_sim::Session::new().threads(2).par_map(specs, |spec| {
        let mut spec = spec.clone();
        spec.no_cache = true;
        let rows = spec.run().map(|r| rows_of(&r)).unwrap_or_default();
        rows.iter().map(wire_line).collect()
    })
}

/// Checks each job's rows against the direct run of its spec.
pub fn check_jobs(recs: &[daemon::JobRecord], expected: &[Vec<String>]) -> Tally {
    let mut t = Tally::default();
    for r in recs {
        t.check(r.ok && !expected[r.spec].is_empty() && r.rows == expected[r.spec]);
    }
    t
}

/// daemon-mix: set up (store traces, start the daemon), then run rounds of
/// the seeded job mix, each on a fresh daemon over the warm cache.
fn run_daemon_mix(
    seed: u64,
    seconds: f64,
    fgstpd: &Path,
    work: &WorkDir,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let (setup, warm) = setups(Kind::DaemonMix, work, &mut out.tally, |dir| {
        Daemon::start(fgstpd, &dir.join("trace-cache"), &port_file(dir)).map(Some)
    })?;
    let specs = mix_specs();
    let order = mix_order(specs.len(), seed);
    let expected = direct_rows(&specs);
    let (mut walls, mut rates, mut mips, mut rss, mut lat) =
        (vec![], vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let d = Daemon::start(fgstpd, &warm.join("trace-cache"), &port_file(&warm))?;
        let recs = run_mix(d.addr, &specs, &order);
        rss.push(d.peak_rss_bytes() as f64);
        d.stop()?;
        out.tally.add(check_jobs(&recs, &expected));
        let first = recs.iter().map(|r| r.start).min().ok_or("empty job mix")?;
        let last = recs.iter().map(|r| r.end).max().ok_or("empty job mix")?;
        let wall = (last - first).as_secs_f64();
        let fresh: Vec<_> = recs.iter().filter(|r| !r.dedup).collect();
        let simulated: u64 = fresh.iter().map(|r| r.committed).sum();
        walls.push(wall);
        rates.push(recs.len() as f64 / wall);
        mips.push(simulated as f64 / wall / 1e6);
        lat.extend(recs.iter().map(|r| r.latency().as_secs_f64()));
        out.notes.push(format!(
            "round {}: {} jobs in {wall:.3} s, {} fresh, {} hits (hit share {:.3}), \
             p50 fresh {:.2} ms, hit {:.2} ms, daemon peak {:.1} MB",
            walls.len(),
            recs.len(),
            fresh.len(),
            recs.len() - fresh.len(),
            (recs.len() - fresh.len()) as f64 / recs.len() as f64,
            p50_ms(&recs, false),
            p50_ms(&recs, true),
            mb(*rss.last().unwrap_or(&0.0) as u64)
        ));
    }
    out.metric("setup_s", median(&setup), "s");
    out.metric("wall_s", median(&walls), "s");
    out.metric("sim_mips", median(&mips), "MIPS");
    out.metric("peak_rss_mb", mb(median(&rss) as u64), "MB");
    out.metric("cache_disk_mb", mb(dir_bytes(&warm)), "MB");
    job_metrics(&mut out, &lat, median(&rates));
    out.notes.push(format!("set-ups (s): {}", list(&setup)));
    Ok(out)
}

/// Runs one workload and prints its report and result line.
fn run_one(kind: Kind, args: &Args) {
    let work = WorkDir::new(kind).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1);
    });
    let calib = calib_mips();
    let t0 = Instant::now();
    let result = if args.trace {
        walk::run(kind, args.seed, &args.fgstpd, &work, calib)
    } else if kind == Kind::DaemonMix {
        run_daemon_mix(args.seed, args.seconds, &args.fgstpd, &work)
    } else {
        run_batch(kind, args.seconds, &work)
    };
    drop(work);
    let out = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", kind.name());
        exit(1);
    });
    eprintln!(
        "perfbench {} seed {} trace {}: {:.1} s, host.calib_mips {calib:.2}, {} of {} checks failed",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        t0.elapsed().as_secs_f64(),
        out.tally.failed,
        out.tally.attempted,
    );
    for n in &out.notes {
        eprintln!("  {n}");
    }
    let error_rate = out.tally.failed as f64 / out.tally.attempted.max(1) as f64;
    for (n, v, u) in out
        .metrics
        .iter()
        .chain([&("error_rate".to_owned(), error_rate, "ratio")])
    {
        eprintln!("  {n:<28} {v:>14.4} {u}");
    }
    println!("{}", out.result_line());
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    let kind = args.kinds[0];
    if let Some(mode) = &args.child {
        let report = match mode.as_str() {
            "setup" => child_setup(kind),
            "pass" => child_pass(kind),
            _ => {
                eprintln!("perfbench: unknown child mode `{mode}`");
                exit(2);
            }
        };
        print!("{}", report.render());
        return;
    }
    for &kind in &args.kinds {
        if args.pin {
            print!("{}", workload::pin_figures(kind));
        } else {
            run_one(kind, &args);
        }
    }
}
