//! Acceptance tests for SMARTS-style sampled simulation with
//! live-points (in-memory warm states, parallel detailed windows).
//!
//! Four properties gate the methodology (see DESIGN.md, "Sampled
//! simulation" and "Live-points"):
//!
//! 1. **Determinism** — sampled results are bit-identical for any worker
//!    pool size, for both frontends and under a core override, like
//!    every other session run.
//! 2. **Rerun identity** — a rerun over a warm trace cache plans and
//!    warms again and produces the same figures as a cache-free run,
//!    again at any pool size, for single jobs and co-run programs.
//! 3. **Accuracy** — on the long-run suite, the sampled geomean Fg-STP
//!    speedup lands within ±2% of the full-detail geomean, and the
//!    estimator's own 95% confidence interval is tight (relative
//!    half-width under 2%). Exact CI *coverage* of the full-detail value
//!    is deliberately not asserted: live-point windows are pure —
//!    functional warming covers window instructions too, and
//!    detailed-machine state never leaks downstream — which carries a
//!    small systematic warming bias that a CLT interval over sampling
//!    variance does not model. The accuracy contract is the ±2% bound.
//! 4. **Cost** — the same regime simulates at least 10× fewer
//!    instructions in detail than a full-detail run.

use fg_stp_repro::isa::DynInst;
use fg_stp_repro::prelude::*;
use fg_stp_repro::sampling::{geomean_estimate, SamplePlan};
use fg_stp_repro::sim::runner::{run_on_sampled_plan, warm_shape};
use fg_stp_repro::sim::{BenchResult, CoRunProgramSpec, CoRunSpec, MachineRun};
use fgstp_workloads::{by_name, long_suite, Workload};

/// A cold, serial sampled run of `trace` on `kind`.
fn run_on_sampled(
    kind: MachineKind,
    trace: &[DynInst],
    scfg: &SampleConfig,
    telemetry: bool,
) -> MachineRun {
    let (ccfg, hcfg) = warm_shape(kind);
    let plan = SamplePlan::plan(trace, &ccfg, &hcfg, scfg);
    run_on_sampled_plan(kind, &plan, telemetry, None)
}

/// The ≥10×-reduction regime E14 validates (at Test scale the long-run
/// traces hold dozens of these intervals each).
fn regime() -> SampleConfig {
    SampleConfig {
        interval: 10_000,
        warmup: 600,
        detail: 300,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-sampling-{tag}-{}", std::process::id()))
}

/// Long-run synthetic kernels plus one real RV32IM program, so the
/// identity matrix exercises both frontends through the same planner.
fn both_frontends() -> Vec<Workload> {
    let mut ws = long_suite(Scale::Test);
    ws.push(by_name("rv:quicksort", Scale::Test).unwrap());
    ws
}

fn fingerprint(results: &[BenchResult]) -> String {
    format!("{results:#?}")
}

/// A sampled run of `machines` (with the Fg-STP core count overridden to
/// `cores` when set) over both frontends on a `threads`-worker pool.
fn run_matrix(machines: &[MachineKind], cores: Option<usize>, threads: usize) -> Vec<BenchResult> {
    let mut s = Session::new()
        .scale(Scale::Test)
        .machines(machines.iter().copied())
        .threads(threads)
        .no_cache()
        .sample(regime());
    if let Some(n) = cores {
        s = s.cores(n);
    }
    s.plan().workloads(both_frontends()).execute()
}

#[test]
fn sampled_parallel_runs_are_bit_identical_to_serial() {
    let cases: [(&[MachineKind], Option<usize>); 2] = [
        (&[MachineKind::SingleSmall, MachineKind::FgstpSmall], None),
        // `--cores 4` on the dual-core preset.
        (&[MachineKind::FgstpSmall], Some(4)),
    ];
    let mut serials = Vec::new();
    for (machines, cores) in cases {
        let serial = run_matrix(machines, cores, 1);
        assert!(!serial.is_empty());
        let reference = fingerprint(&serial);
        for threads in [4, 8] {
            assert_eq!(
                reference,
                fingerprint(&run_matrix(machines, cores, threads)),
                "sampled {machines:?} cores {cores:?} threads({threads}) \
                 must be bit-identical to threads(1)"
            );
        }
        serials.push(serial);
    }
    // The override reached the sampled machine: four cores project other
    // cycle counts than the preset's two.
    let two = serials[0].iter().map(|b| b.runs[1].result.cycles);
    let four = serials[1].iter().map(|b| b.runs[0].result.cycles);
    assert!(two.ne(four), "--cores 4 must change the Fg-STP figures");
}

/// A rerun over a warm trace cache plans cold again — every run warms
/// the same instructions — and matches a cache-free run bit-for-bit at
/// every pool size, for both frontends. Traces are the only files stored.
#[test]
fn cached_sampled_reruns_are_bit_identical_to_cold() {
    let dir = temp_dir("rerun");
    let _ = std::fs::remove_dir_all(&dir);
    let machines = [MachineKind::SingleSmall, MachineKind::FgstpSmall];
    let run = |threads: usize| {
        let s = Session::new()
            .scale(Scale::Test)
            .machines(machines)
            .threads(threads)
            .cache_dir(&dir)
            .sample(regime());
        let r = s.plan().workloads(both_frontends()).execute();
        (r, s.cache_stats(), s.snapshot_stats())
    };

    let reference = fingerprint(&run_matrix(&machines, None, 4));
    let (first, fc, fs) = run(4);
    assert_eq!(fc.hits, 0, "the first run traces everything");
    assert!(fs.warmed_insts > 0, "planning warms the traces");
    assert_eq!(reference, fingerprint(&first));

    for threads in [1, 8] {
        let (again, cs, ss) = run(threads);
        assert_eq!(cs.misses, 0, "rerun threads({threads}) reads cached traces");
        assert_eq!(ss, fs, "rerun threads({threads}) warms exactly as much");
        assert_eq!(
            reference,
            fingerprint(&again),
            "rerun threads({threads}) must match the cache-free figures"
        );
    }
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("fgtr"),
            "only traces are stored: {}",
            path.display()
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sampled isolated co-run jobs go through the same planner, so they get
/// the same matrix: pool-size identity, cached or not.
#[test]
fn sampled_corun_jobs_are_deterministic() {
    let dir = temp_dir("corun");
    let _ = std::fs::remove_dir_all(&dir);
    let corun = CoRunSpec {
        programs: vec![
            CoRunProgramSpec {
                workload: "chase_long".to_owned(),
                cores: 2,
            },
            CoRunProgramSpec {
                workload: "rv:quicksort".to_owned(),
                cores: 2,
            },
        ],
        isolated: true,
    };
    let run = |threads: usize, cached: bool| {
        let mut s = Session::new()
            .scale(Scale::Test)
            .threads(threads)
            .machines([MachineKind::FgstpSmall])
            .sample(regime())
            .corun(corun.clone());
        s = if cached {
            s.cache_dir(&dir)
        } else {
            s.no_cache()
        };
        let r = s.run_suite();
        (r, s.snapshot_stats())
    };

    let (cold, cs) = run(4, true);
    assert_eq!(cold.len(), 2, "one result row per co-run program");
    assert!(cs.warmed_insts > 0);
    let reference = fingerprint(&cold);

    // Pool size never changes the numbers (cache-free legs too).
    for threads in [1, 8] {
        let (again, _) = run(threads, false);
        assert_eq!(reference, fingerprint(&again));
    }

    // A rerun over the cached traces warms each program again.
    let (rerun, rs) = run(1, true);
    assert_eq!(rs, cs, "the rerun warms exactly as much");
    assert_eq!(reference, fingerprint(&rerun));
    for b in &rerun {
        assert!(b.runs[0].corun.expect("placement record").isolated);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sampled_speedup_tracks_full_detail_within_two_percent() {
    let session = Session::new().scale(Scale::Test).no_cache();
    let workloads = long_suite(Scale::Test);
    let traces = session.par_map(&workloads, |w| session.trace(w));

    let scfg = regime();
    let mut full_speedups = Vec::new();
    let mut estimates = Vec::new();
    let mut total_insts = 0u64;
    let mut detailed_insts = 0u64;
    for t in &traces {
        let single_full = run_on(MachineKind::SingleSmall, t.insts());
        let fgstp_full = run_on(MachineKind::FgstpSmall, t.insts());
        full_speedups.push(single_full.result.cycles as f64 / fgstp_full.result.cycles as f64);

        let single = run_on_sampled(MachineKind::SingleSmall, t.insts(), &scfg, false);
        let fgstp = run_on_sampled(MachineKind::FgstpSmall, t.insts(), &scfg, false);
        let s = single.sampled.as_ref().unwrap();
        estimates.push(fgstp.sampled.as_ref().unwrap().speedup_over(s));
        total_insts += 2 * s.total_insts;
        detailed_insts += s.detailed_insts + fgstp.sampled.as_ref().unwrap().detailed_insts;
    }

    let full_geo = geomean(&full_speedups);
    let est = geomean_estimate(&estimates);
    let rel_err = (est.mean / full_geo - 1.0).abs();
    assert!(
        rel_err < 0.02,
        "sampled geomean {} vs full-detail {} ({:+.2}%)",
        est.mean,
        full_geo,
        100.0 * (est.mean / full_geo - 1.0)
    );
    // The CI quantifies sampling variance only. Pure live-point windows
    // shift the estimator by a small systematic warming bias (window
    // instructions warm functionally; detailed-machine state never flows
    // downstream), so the full-detail value need not fall inside the raw
    // interval — it must fall inside the interval widened by the ±2%
    // methodology bound, and the interval itself must be tight.
    assert!(
        (est.mean - full_geo).abs() <= est.ci95_half + 0.02 * full_geo,
        "full-detail geomean {:.4} outside 95% CI [{:.4}, {:.4}] ± 2% bias allowance",
        full_geo,
        est.mean - est.ci95_half,
        est.mean + est.ci95_half
    );
    assert!(
        est.ci_defined() && est.ci95_half / est.mean < 0.02,
        "95% CI half-width {:.4} must stay under 2% of the estimate {:.4}",
        est.ci95_half,
        est.mean
    );
    let reduction = total_insts as f64 / detailed_insts as f64;
    assert!(
        reduction >= 10.0,
        "only {reduction:.1}x fewer detail-simulated instructions"
    );
}

#[test]
fn sampled_runs_project_consistent_totals() {
    let w = by_name("chase_long", Scale::Test).unwrap();
    let t = Session::new().scale(Scale::Test).no_cache().trace(&w);
    for kind in [MachineKind::SingleSmall, MachineKind::FgstpSmall] {
        let r = run_on_sampled(kind, t.insts(), &regime(), true);
        let s = r.sampled.as_ref().expect("sampled record");
        assert_eq!(r.result.committed, t.len() as u64, "{kind}");
        assert_eq!(r.result.cycles, s.est_cycles().round() as u64, "{kind}");
        assert_eq!(
            s.functional_insts + s.detailed_insts,
            s.total_insts,
            "{kind}: every instruction retires exactly once"
        );
        // The instrumented stack reconciles against the detailed windows.
        let stack = r.cpi.as_ref().expect("instrumented");
        stack.check_against(s.detail_core_cycles).unwrap();
        assert_eq!(stack.committed, s.detailed_insts, "{kind}");
    }
}
