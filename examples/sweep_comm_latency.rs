//! Sweep the inter-core communication latency and watch Fg-STP's speedup
//! degrade — the sensitivity study that motivates dedicated register
//! queues between adjacent cores.
//!
//! ```sh
//! cargo run --release --example sweep_comm_latency
//! ```

use fg_stp_repro::core::FgstpConfig;
use fg_stp_repro::prelude::*;

fn main() {
    let session = Session::new().scale(Scale::Test);
    // Trace the suite once (cache-aware) and reuse across the sweep.
    let traced = session.suite_traces();
    let singles = session.par_map(&traced, |(_, t)| {
        run_on(MachineKind::SingleSmall, t.insts())
    });
    let jobs: Vec<_> = traced.iter().zip(&singles).collect();

    let mut table = Table::new(["comm latency", "geomean speedup vs 1 small core"]);
    for latency in [1u64, 2, 4, 8, 12, 16] {
        let speedups = session.par_map(&jobs, |((_, t), single)| {
            let mut cfg = FgstpConfig::small();
            cfg.comm.latency = latency;
            let (r, _) = cfg.run_cold(t.insts(), &HierarchyConfig::small(2));
            r.speedup_over(&single.result)
        });
        table.row([
            format!("{latency} cycles"),
            format!("{:.3}x", geomean(&speedups)),
        ]);
    }
    println!("{table}");
}
