//! E18 — live-points: parallel windows vs the serial walk.
//!
//! Runs the long-run suite (plus one RV32 program, so both frontends are
//! covered) under the standard ≥10× sampling regime twice:
//!
//! 1. **serial walk** — `threads(1)`: every (workload, machine) job plans
//!    by one pass of functional warming and then runs its detailed
//!    windows one after another on the calling thread;
//! 2. **parallel windows** — the session's default pool (or
//!    `--threads=N`): planning fans out across jobs, and every plan's
//!    detailed windows fan out across the same pool, each on its own
//!    in-memory live-point.
//!
//! The experiment reports wall-clock and instructions warmed per phase,
//! and checks the projected figures are bit-identical across both — the
//! live-point contract: parallel windows buy time, never accuracy.
//!
//! Accepts the shared [`fgstp_sim::ExperimentSpec`] flag vocabulary
//! (scale word, `--threads=N`, `--sample=I,W,D`) plus `--csv`. Traces are
//! cached in a private temporary directory before either phase, so both
//! phases time sampled simulation, not tracing.

use std::time::Instant;

use fgstp_bench::{print_experiment, ExpArgs};
use fgstp_sim::{geomean, BenchResult, MachineKind, SampleConfig, Table};
use fgstp_workloads::{by_name, long_suite};

/// Projected cycles per (workload, machine), the identity the phases
/// must agree on bit-for-bit.
fn figures(results: &[BenchResult]) -> Vec<(&'static str, Vec<u64>)> {
    results
        .iter()
        .map(|b| (b.name, b.runs.iter().map(|r| r.result.cycles).collect()))
        .collect()
}

fn geomean_speedup(results: &[BenchResult]) -> f64 {
    let speedups: Vec<f64> = results
        .iter()
        .filter(|b| b.runs.len() == 2)
        .map(|b| b.runs[0].result.cycles as f64 / b.runs[1].result.cycles as f64)
        .collect();
    geomean(&speedups)
}

fn main() {
    let args = ExpArgs::parse();
    let scfg = args.spec.sample.unwrap_or(SampleConfig {
        interval: 10_000,
        warmup: 600,
        detail: 300,
    });
    let machines = [MachineKind::SingleSmall, MachineKind::FgstpSmall];
    let mut workloads = long_suite(args.scale());
    if let Some(rv) = by_name("rv:quicksort", args.scale()) {
        workloads.push(rv);
    }

    let dir = std::env::temp_dir().join(format!("fgstp-e18-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = args.session().cache_dir(&dir);
    s.par_map(&workloads, |w| s.trace(w));

    // A fresh session per phase, so its warming counter is its own.
    let run_phase = |threads: Option<usize>| {
        let mut s = args
            .session()
            .cache_dir(&dir)
            .sample(scfg)
            .machines(machines);
        if let Some(n) = threads {
            s = s.threads(n);
        }
        let t0 = Instant::now();
        let results = s.plan().workloads(workloads.clone()).execute();
        (results, s.snapshot_stats().warmed_insts, t0.elapsed())
    };

    let serial = run_phase(Some(1));
    let parallel = run_phase(None);

    let reference = figures(&serial.0);
    let phases = [("serial walk", &serial), ("parallel windows", &parallel)];
    let mut table = Table::new([
        "phase",
        "wall (ms)",
        "insts warmed",
        "geomean speedup",
        "identical",
    ]);
    let mut all_identical = true;
    for (name, (results, warmed, wall)) in phases {
        let identical = figures(results) == reference;
        all_identical &= identical;
        table.row([
            name.to_owned(),
            format!("{:.0}", wall.as_secs_f64() * 1e3),
            format!("{warmed}"),
            format!("{:.3}", geomean_speedup(results)),
            if identical { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    print_experiment(
        "E18",
        "live-points: parallel windows vs serial walk",
        &args,
        &table,
    );
    println!(
        "parallel windows: {:.2}x the serial wall-clock; figures identical: {}",
        parallel.2.as_secs_f64() / serial.2.as_secs_f64(),
        if all_identical { "yes" } else { "NO" }
    );
    assert!(all_identical, "parallel windows changed the figures");

    let _ = std::fs::remove_dir_all(&dir);
}
