//! E6 — communication bandwidth and queue occupancy.
//!
//! Sweeps the register-queue bandwidth (values per cycle per direction)
//! and reports speedup, mean queue occupancy and producer-side
//! back-pressure — the data that sizes the paper's queues.
//!
//! Accepts the shared [`fgstp_sim::ExperimentSpec`] flag vocabulary
//! (scale word, `--workloads=a,b`, `--threads=N`, `--no-cache`,
//! `--sample*`) plus `--csv`; see `fgstp_bench::ExpArgs`.

use fgstp::{FgstpConfig, PreparedProgram};
use fgstp_bench::{print_experiment, run_prepared_cold, ExpArgs, SuiteBaseline};
use fgstp_sim::{geomean, Table};

const BANDWIDTHS: [u32; 3] = [1, 2, 4];

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let base = SuiteBaseline::new(&session);
    let jobs = base.jobs();

    // The bandwidth does not change the partition: each kernel is
    // partitioned once and every bandwidth runs on that program.
    let per_kernel = session.par_map(&jobs, |((_, t), single)| {
        let prog = PreparedProgram::new(t.insts(), &FgstpConfig::small());
        BANDWIDTHS.map(|bandwidth| {
            let mut cfg = FgstpConfig::small();
            cfg.comm.bandwidth = bandwidth;
            let (r, s) = run_prepared_cold(&cfg, &prog);
            let occupancy = s
                .comm
                .iter()
                .map(|c| c.mean_occupancy())
                .fold(1e-9, f64::max);
            (
                r.speedup_over(&single.result),
                occupancy,
                s.comm_total().backpressure_cycles,
            )
        })
    });
    let mut table = Table::new([
        "bandwidth (values/cycle)",
        "geomean speedup",
        "mean occupancy",
        "backpressure cycles (sum)",
    ]);
    for (i, bandwidth) in BANDWIDTHS.iter().enumerate() {
        let points: Vec<_> = per_kernel.iter().map(|p| p[i]).collect();
        let speedups: Vec<f64> = points.iter().map(|p| p.0).collect();
        let occupancy: Vec<f64> = points.iter().map(|p| p.1).collect();
        let backpressure: u64 = points.iter().map(|p| p.2).sum();
        table.row([
            bandwidth.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&occupancy)),
            backpressure.to_string(),
        ]);
    }
    print_experiment(
        "E6",
        "communication bandwidth and queue occupancy",
        &args,
        &table,
    );
}
