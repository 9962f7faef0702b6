//! The three workloads, the pinned figures they are checked against, and
//! the child processes that set up and simulate the batch workloads.
//!
//! A child process runs with `CARGO_TARGET_DIR` pointing at its private
//! work directory, so the session's default trace cache
//! (`$CARGO_TARGET_DIR/trace-cache`) is private to the run: it starts
//! empty, and set-up time and cache size mean the same on every run.

use std::time::Instant;

use fgstp_service::bench_result_row;
use fgstp_sim::{ExperimentSpec, MachineKind, Scale};
use fgstp_telemetry::json::Json;

use crate::util::peak_rss_bytes;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The pinned 18-kernel suite on all six paper machines (E1 + E2).
    PaperSweep,
    /// Four long kernels, sampled, on the small single core and Fg-STP.
    SampledLong,
    /// One-kernel x one-machine test-scale jobs through `fgstpd`.
    DaemonMix,
}

/// The long kernels of the sampled-long workload.
pub const LONG_KERNELS: [&str; 4] = [
    "chase_long",
    "mcf_pointer_long",
    "hmmer_dp_long",
    "libq_stream_long",
];

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper-sweep" => Some(Kind::PaperSweep),
            "sampled-long" => Some(Kind::SampledLong),
            "daemon-mix" => Some(Kind::DaemonMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSweep => "paper-sweep",
            Kind::SampledLong => "sampled-long",
            Kind::DaemonMix => "daemon-mix",
        }
    }

    /// The spec a user runs for this workload. For daemon-mix it is the
    /// set-up spec that stores every mix kernel's trace.
    pub fn spec(self) -> ExperimentSpec {
        let args: Vec<String> = match self {
            Kind::PaperSweep => vec![
                "small".into(),
                "--machines=all".into(),
                "--threads=2".into(),
            ],
            Kind::SampledLong => vec![
                "small".into(),
                format!("--workloads={}", LONG_KERNELS.join(",")),
                "--machines=single-small,fgstp-small".into(),
                "--sample".into(),
                "--threads=2".into(),
            ],
            Kind::DaemonMix => vec![
                "test".into(),
                format!("--workloads={}", mix_kernels().join(",")),
                "--machines=single-small".into(),
                "--threads=2".into(),
            ],
        };
        ExperimentSpec::from_args(&args).expect("workload specs are valid")
    }

    /// Kernels the workload simulates.
    pub fn kernels(self) -> Vec<String> {
        match self {
            Kind::PaperSweep => fgstp_workloads::suite(Scale::Small)
                .iter()
                .map(|w| w.name.to_owned())
                .collect(),
            Kind::SampledLong => LONG_KERNELS.iter().map(|k| (*k).to_owned()).collect(),
            Kind::DaemonMix => mix_kernels(),
        }
    }

    /// Set-ups per run; `setup_s` is their median. Sampled-long's set-up
    /// is a whole cold run, so it does fewer.
    pub fn setups(self) -> usize {
        match self {
            Kind::SampledLong => 3,
            _ => 9,
        }
    }

    pub fn scale(self) -> Scale {
        match self {
            Kind::DaemonMix => Scale::Test,
            _ => Scale::Small,
        }
    }

    /// The figures a correct run reproduces exactly, one line per
    /// kernel x machine (daemon-mix is checked against direct runs).
    fn expected(self) -> &'static str {
        match self {
            Kind::PaperSweep => include_str!("../expected/paper-sweep.txt"),
            Kind::SampledLong => include_str!("../expected/sampled-long.txt"),
            Kind::DaemonMix => "",
        }
    }
}

/// The daemon-mix kernels: the 18 synthetic kernels and the 5 RV32
/// programs.
pub fn mix_kernels() -> Vec<String> {
    fgstp_workloads::suite(Scale::Test)
        .iter()
        .chain(fgstp_workloads::rv_suite(Scale::Test).iter())
        .map(|w| w.name.to_owned())
        .collect()
}

/// Every distinct daemon-mix job: each mix kernel on each of the eight
/// machine presets, at test scale.
pub fn mix_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for k in mix_kernels() {
        for m in MachineKind::WITH_SCALING {
            let args = [
                "test".to_owned(),
                format!("--workloads={k}"),
                format!("--machines={}", m.label()),
            ];
            specs.push(ExperimentSpec::from_args(&args).expect("mix specs are valid"));
        }
    }
    specs
}

/// The checked figures of one result row (the daemon's row shape), one
/// line per machine: kernel, machine, cycles and, for a sampled run, the
/// CPI estimate and its 95% half-width, printed so they read back
/// bit-exactly.
pub fn figure_lines(row: &Json) -> Vec<String> {
    let name = row.get("workload").and_then(Json::as_str).unwrap_or("?");
    let Some(runs) = row.get("runs").and_then(Json::as_arr) else {
        return vec![format!("{name} error")];
    };
    if runs.is_empty() {
        return vec![format!("{name} error")];
    }
    runs.iter()
        .map(|r| {
            let num = |k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            let machine = r.get("machine").and_then(Json::as_str).unwrap_or("?");
            let mut line = format!("{name} {machine} {}", num("cycles"));
            if let Some(s) = r.get("sampled").filter(|s| **s != Json::Null) {
                let f = |k: &str| s.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                line += &format!(" {:?} {:?}", f("cpi_mean"), f("cpi_ci95_half"));
            }
            line
        })
        .collect()
}

/// Check tallies: operations attempted and failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// One check: attempted once, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Checks result rows against the pinned figures: one operation per
/// kernel x machine, failed on an error row or any figure mismatch.
pub fn check_rows(kind: Kind, rows: &[Json]) -> Tally {
    let expected: Vec<&str> = kind
        .expected()
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut t = Tally::default();
    for line in rows.iter().flat_map(figure_lines) {
        t.check(expected.contains(&line.as_str()));
    }
    t
}

/// Rows of a finished spec run, in the daemon's row shape.
pub fn rows_of(results: &[fgstp_sim::BenchResult]) -> Vec<Json> {
    results.iter().map(bench_result_row).collect()
}

/// Checks a whole run of the workload's spec: one row per kernel, and
/// every row's figures pinned.
fn check_run(kind: Kind, results: &[fgstp_sim::BenchResult]) -> Tally {
    let mut t = check_rows(kind, &rows_of(results));
    t.check(results.len() == kind.kernels().len());
    t
}

/// Child `setup`: from the empty private cache to the state the timed
/// passes start from. Paper-sweep and daemon-mix store their traces;
/// sampled-long runs its spec once cold, which stores the traces and the
/// live-points (and is checked, since a cold run must match a warm one).
pub fn child_setup(kind: Kind) -> Json {
    let spec = kind.spec();
    let t0 = Instant::now();
    let mut tally = Tally::default();
    match kind {
        Kind::PaperSweep | Kind::DaemonMix => {
            let traced = spec.session().suite_traces();
            tally.check(
                traced.len() == kind.kernels().len() && traced.iter().all(|(_, t)| !t.is_empty()),
            );
        }
        Kind::SampledLong => {
            let results = spec.run().expect("validated spec");
            tally.add(check_run(kind, &results));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Json::Obj(vec![
        ("secs".into(), Json::Num(secs)),
        ("attempted".into(), Json::Num(tally.attempted as f64)),
        ("failed".into(), Json::Num(tally.failed as f64)),
    ])
}

/// Child `pass`: runs the workload's spec once on the warm private cache
/// and checks it. Reports the pass's wall time, the simulated
/// instructions, the session's cache counters and this process's peak
/// resident set. Each pass is a process of its own, as a user's sweep is.
pub fn child_pass(kind: Kind) -> Json {
    let spec = kind.spec();
    let t0 = Instant::now();
    // `ExperimentSpec::run` is exactly validate + a fresh session's
    // `run_suite`; keeping the session reads its cache counters.
    spec.validate().expect("workload specs are valid");
    let session = spec.session();
    let results = session.run_suite();
    let wall = t0.elapsed().as_secs_f64();
    let insts: u64 = results
        .iter()
        .flat_map(|b| &b.runs)
        .map(|r| r.result.committed)
        .sum();
    let tally = check_run(kind, &results);
    let (cache, snap) = (session.cache_stats(), session.snapshot_stats());
    let num = |x: u64| Json::Num(x as f64);
    Json::Obj(vec![
        ("wall".into(), Json::Num(wall)),
        ("insts".into(), num(insts)),
        ("attempted".into(), num(tally.attempted)),
        ("failed".into(), num(tally.failed)),
        ("rss_bytes".into(), num(peak_rss_bytes(None))),
        ("trace_hits".into(), num(cache.hits)),
        ("trace_misses".into(), num(cache.misses)),
        ("snapshot_hits".into(), num(snap.hits)),
        ("snapshot_misses".into(), num(snap.misses)),
    ])
}

/// The current figures of one workload in the pinned-file format, for a
/// deliberate model change.
pub fn pin_figures(kind: Kind) -> String {
    let results = kind.spec().run().expect("validated spec");
    let mut out = format!(
        "# {} figures: kernel machine cycles{}\n",
        kind.name(),
        if kind == Kind::SampledLong {
            " cpi_mean cpi_ci95_half"
        } else {
            ""
        }
    );
    for line in rows_of(&results).iter().flat_map(figure_lines) {
        out += &line;
        out.push('\n');
    }
    out
}
