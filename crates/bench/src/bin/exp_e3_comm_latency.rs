//! E3 — sensitivity to inter-core communication latency.
//!
//! Sweeps the register-queue latency from 1 to 16 cycles and reports the
//! geomean Fg-STP speedup over one small core. The curve motivates the
//! paper's dedicated queues between adjacent cores: speedup degrades
//! gracefully but monotonically with latency.
//!
//! Accepts the shared [`fgstp_sim::ExperimentSpec`] flag vocabulary
//! (scale word, `--workloads=a,b`, `--threads=N`, `--no-cache`,
//! `--sample*`) plus `--csv`; see `fgstp_bench::ExpArgs`.

use fgstp::{FgstpConfig, PreparedProgram};
use fgstp_bench::{print_experiment, run_prepared_cold, ExpArgs, SuiteBaseline};
use fgstp_sim::{geomean, Table};

const LATENCIES: [u64; 7] = [1, 2, 4, 6, 8, 12, 16];

fn main() {
    let args = ExpArgs::parse();
    let session = args.session();
    let base = SuiteBaseline::new(&session);
    let jobs = base.jobs();

    // The latency does not change the partition: each kernel is
    // partitioned once and every latency runs on that program.
    let per_kernel = session.par_map(&jobs, |((_, t), single)| {
        let prog = PreparedProgram::new(t.insts(), &FgstpConfig::small());
        LATENCIES.map(|latency| {
            let mut cfg = FgstpConfig::small();
            cfg.comm.latency = latency;
            let (r, s) = run_prepared_cold(&cfg, &prog);
            (
                r.speedup_over(&single.result),
                (s.partition.comms_per_inst() * 100.0).max(1e-9),
            )
        })
    });
    let mut table = Table::new([
        "comm latency (cycles)",
        "geomean speedup",
        "geomean comms/100 insts",
    ]);
    for (i, latency) in LATENCIES.iter().enumerate() {
        let (speedups, comm_rates): (Vec<f64>, Vec<f64>) =
            per_kernel.iter().map(|points| points[i]).unzip();
        table.row([
            latency.to_string(),
            format!("{:.3}", geomean(&speedups)),
            format!("{:.2}", geomean(&comm_rates)),
        ]);
    }
    print_experiment(
        "E3",
        "Fg-STP sensitivity to communication latency",
        &args,
        &table,
    );
}
