//! The parallel session runner is an optimization, not a model change:
//! every statistic it produces must be bit-identical to a single-threaded
//! run, for any pool size, and the trace cache must be invisible except
//! for speed.

use std::time::Instant;

use fg_stp_repro::prelude::*;
use fg_stp_repro::sim::{run, PreparedTrace, RunInput, RunRequest};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("fgstp-itest-{tag}-{}", std::process::id()))
}

/// Renders every statistic of every run; two equal strings mean the
/// results are bit-identical (Debug prints exact integers and the full
/// float bits of ratios are derived from them).
fn fingerprint(results: &[fg_stp_repro::sim::BenchResult]) -> String {
    format!("{results:#?}")
}

#[test]
fn parallel_runs_are_bit_identical_to_serial() {
    let machines = [
        MachineKind::SingleSmall,
        MachineKind::FusedSmall,
        MachineKind::FgstpSmall,
    ];
    let serial = Session::new()
        .scale(Scale::Test)
        .machines(machines)
        .threads(1)
        .no_cache()
        .run_suite();
    let parallel = Session::new()
        .scale(Scale::Test)
        .machines(machines)
        .threads(4)
        .no_cache()
        .run_suite();
    assert_eq!(serial.len(), 18, "full suite");
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "threads(4) must be bit-identical to threads(1)"
    );
}

#[test]
fn cached_traces_are_bit_identical_and_warm_runs_hit() {
    let dir = temp_dir("parallel-cache");
    let _ = std::fs::remove_dir_all(&dir);

    let cold_session = Session::new()
        .scale(Scale::Test)
        .machines([MachineKind::FgstpSmall])
        .cache_dir(&dir);
    let t0 = Instant::now();
    let cold = cold_session.run_suite();
    let cold_time = t0.elapsed();
    let stats = cold_session.cache_stats();
    assert_eq!(stats.misses, 18, "every workload is a cold miss");
    assert_eq!(stats.hits, 0);

    let warm_session = Session::new()
        .scale(Scale::Test)
        .machines([MachineKind::FgstpSmall])
        .cache_dir(&dir);
    let t0 = Instant::now();
    let warm = warm_session.run_suite();
    let warm_time = t0.elapsed();
    let stats = warm_session.cache_stats();
    assert_eq!(stats.hits, 18, "every workload is a warm hit");
    assert_eq!(stats.misses, 0);

    assert_eq!(
        fingerprint(&cold),
        fingerprint(&warm),
        "cached traces must not change any statistic"
    );
    // Since the threaded-code interpreter landed, functional tracing is
    // cheap enough that detailed timing simulation dominates both runs —
    // cold and warm wall-clock are near-equal at Test scale, so a strict
    // warm < cold assertion is a coin flip. The load-bearing checks are
    // the hit counts and bit-identity above; here we only require that
    // serving 18 traces from the cache is not substantially *slower*
    // than re-tracing them.
    assert!(
        warm_time.as_secs_f64() < cold_time.as_secs_f64() * 1.25,
        "warm cache should not be slower: cold {cold_time:?}, warm {warm_time:?}"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn plan_narrowing_matches_the_full_suite_rows() {
    let session = Session::new()
        .scale(Scale::Test)
        .machines([MachineKind::SingleSmall, MachineKind::FgstpSmall])
        .no_cache();
    let full = session.run_suite();
    let narrowed = session
        .plan()
        .workload_names(&["hmmer_dp", "mcf_pointer"])
        .execute();
    assert_eq!(narrowed.len(), 2);
    for b in &narrowed {
        let row = full.iter().find(|f| f.name == b.name).unwrap();
        assert_eq!(
            fingerprint(std::slice::from_ref(b)),
            fingerprint(std::slice::from_ref(row))
        );
    }
    // Suite order is preserved regardless of the name order given.
    let reordered = session
        .plan()
        .workload_names(&["mcf_pointer", "hmmer_dp"])
        .execute();
    assert_eq!(
        narrowed.iter().map(|b| b.name).collect::<Vec<_>>(),
        reordered.iter().map(|b| b.name).collect::<Vec<_>>(),
    );
}

/// Kernels for the sharing matrix: a split-friendly DP loop, a serial
/// pointer chase, a streaming kernel and a hash loop.
const SHARING_KERNELS: [&str; 4] = ["hmmer_dp", "mcf_pointer", "libq_stream", "perl_hash"];

/// Every job of a run matrix shares its workload's execution stream and
/// one partition per partition key; the figures must be exactly those of
/// an independent run per (workload, machine), at any pool size. The
/// scaling set mixes 2-core presets (small and medium share a partition)
/// with 4-core ones (which must not share the 2-core partition).
#[test]
fn shared_preparation_matches_independent_runs() {
    let session = Session::new().scale(Scale::Test).no_cache();
    let workloads: Vec<Workload> = SHARING_KERNELS
        .iter()
        .map(|n| fg_stp_repro::workloads::by_name(n, Scale::Test).unwrap())
        .collect();
    let traces: Vec<_> = workloads.iter().map(|w| session.trace(w)).collect();
    let independent = |kind: MachineKind, t: &fg_stp_repro::isa::Trace, cores: Option<usize>| {
        let req = RunRequest {
            cores,
            ..RunRequest::default()
        };
        let trace = PreparedTrace::new(t.insts());
        format!("{:#?}", run(kind, RunInput::Trace(&trace), &req))
    };
    let fgstp_only: Vec<MachineKind> = MachineKind::WITH_SCALING
        .into_iter()
        .filter(|k| k.is_fgstp())
        .collect();
    // (machines, core override) cases: the whole scaling set as built,
    // and every Fg-STP preset forced to four cores.
    let cases = [
        (MachineKind::WITH_SCALING.to_vec(), None),
        (fgstp_only, Some(4)),
    ];
    for (machines, cores) in cases {
        let expected: Vec<Vec<String>> = traces
            .iter()
            .map(|t| machines.iter().map(|&k| independent(k, t, cores)).collect())
            .collect();
        for threads in [1, 2, 8] {
            let mut s = session.clone().threads(threads).machines(machines.clone());
            if let Some(n) = cores {
                s = s.cores(n);
            }
            let results = s.plan().workloads(workloads.clone()).execute();
            assert_eq!(results.len(), workloads.len());
            for ((b, t), want) in results.iter().zip(&traces).zip(&expected) {
                assert_eq!(b.committed, t.len() as u64, "{}", b.name);
                let got: Vec<String> = b.runs.iter().map(|r| format!("{r:#?}")).collect();
                assert_eq!(
                    &got, want,
                    "{} at threads({threads}), cores {cores:?}",
                    b.name
                );
            }
        }
    }
}
