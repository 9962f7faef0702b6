//! Partition explorer: inspect how each partitioning policy splits a
//! workload — per-core instruction counts, replication, communications —
//! and what that does to performance.
//!
//! ```sh
//! cargo run --release --example partition_explorer [workload]
//! ```

use fg_stp_repro::core::{partition_stream, FgstpConfig, PartitionConfig, PartitionPolicy};
use fg_stp_repro::ooo::build_exec_stream;
use fg_stp_repro::prelude::*;
use fg_stp_repro::workloads;

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "hmmer_dp".to_owned());
    let w = workloads::by_name(&name, Scale::Test).expect("known workload");
    let session = Session::new().scale(Scale::Test);
    let trace = session.trace(&w);
    let stream = build_exec_stream(trace.insts());
    println!(
        "workload: {} — {} dynamic instructions\n",
        w.name,
        stream.len()
    );

    let policies: [(&str, PartitionPolicy); 4] = [
        ("mod-64", PartitionPolicy::ModN { chunk: 64 }),
        ("greedy-dep", PartitionPolicy::GreedyDep),
        (
            "lookahead-64",
            PartitionPolicy::SliceLookahead {
                window: 64,
                refine_passes: 2,
            },
        ),
        ("lookahead-256 (Fg-STP)", PartitionPolicy::fgstp_default()),
    ];

    // Each policy's partition + timing run is independent: fan them out
    // over the session's worker pool.
    let rows = session.par_map(&policies, |&(label, policy)| {
        let pcfg = PartitionConfig {
            policy,
            ..PartitionConfig::default()
        };
        let part = partition_stream(&stream, &pcfg, 2);
        let mut cfg = FgstpConfig::small();
        cfg.partition = pcfg;
        let (result, _) = cfg.run_cold(trace.insts(), &HierarchyConfig::small(2));
        [
            label.to_owned(),
            part.stats.insts[0].to_string(),
            part.stats.insts[1].to_string(),
            part.stats.replicated.to_string(),
            part.stats.cross_reg_deps.to_string(),
            format!("{:.3}", part.stats.comms_per_inst()),
            result.cycles.to_string(),
            format!("{:.3}", result.ipc()),
        ]
    });

    let mut table = Table::new([
        "policy",
        "core0",
        "core1",
        "replicated",
        "comms",
        "comms/inst",
        "cycles",
        "ipc",
    ]);
    for row in rows {
        table.row(row);
    }
    println!("{table}");
    println!("(comms = register values that must cross the cores; replication removes them)");
}
