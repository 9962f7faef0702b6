//! Wall-clock micro-benchmarks of the simulator's hot paths.
//!
//! These measure *simulator* throughput (host-side performance), not the
//! modeled machines — the modeled results live in the `exp_*` binaries.
//!
//! The harness is dependency-free (`harness = false`): each benchmark is
//! warmed up, then timed over enough iterations to fill a minimum
//! measurement window, and the per-iteration mean, min and throughput are
//! printed. Run with `cargo bench`; pass a substring to filter benchmarks
//! (`cargo bench -- partition`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use fgstp::{partition_stream, FgstpConfig, PartitionConfig};
use fgstp_bpred::{DirectionPredictor, Tournament};
use fgstp_isa::Trace;
use fgstp_mem::{Hierarchy, HierarchyConfig};
use fgstp_ooo::{build_exec_stream, CoreConfig, TimingModel, WarmState};
use fgstp_sim::{runner::trace_workload, Scale};
use fgstp_telemetry::CpiSink;
use fgstp_workloads::by_name;

/// Minimum total measured time per benchmark.
const WINDOW: Duration = Duration::from_millis(300);
const WARMUP_ITERS: u32 = 3;

struct Harness {
    filter: Option<String>,
    /// Completed rows: name, mean, min, throughput. Buffered so the final
    /// table's column widths come from the data instead of fixed pads
    /// (long benchmark names used to shear the columns).
    rows: Vec<[String; 4]>,
}

impl Harness {
    fn from_args() -> Harness {
        // `cargo bench -- <filter>`; ignore harness flags like --bench.
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'))
            .map(|s| s.to_lowercase());
        Harness {
            filter,
            rows: Vec::new(),
        }
    }

    /// Times `f`, recording per-iteration stats. `elements` is the work
    /// per iteration for the throughput column (0 = not reported).
    fn bench<T>(&mut self, name: &str, elements: u64, mut f: impl FnMut() -> T) {
        if let Some(filt) = &self.filter {
            if !name.to_lowercase().contains(filt) {
                return;
            }
        }
        eprintln!("running {name} ...");
        for _ in 0..WARMUP_ITERS {
            black_box(f());
        }
        let mut iters = 0u32;
        let mut min = Duration::MAX;
        let start = Instant::now();
        while start.elapsed() < WINDOW {
            let t0 = Instant::now();
            black_box(f());
            min = min.min(t0.elapsed());
            iters += 1;
        }
        let mean = start.elapsed() / iters;
        let throughput = if elements > 0 {
            let per_sec = elements as f64 / mean.as_secs_f64();
            format!("{:.1} Melem/s", per_sec / 1e6)
        } else {
            String::from("-")
        };
        self.rows
            .push([name.to_owned(), fmt(mean), fmt(min), throughput]);
    }

    /// Prints the result table, sizing every column to its widest cell.
    fn finish(self) {
        let header = ["benchmark", "mean", "min", "throughput"];
        let widths: Vec<usize> = (0..header.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain([header[c].len()])
                    .max()
                    .unwrap()
            })
            .collect();
        let print_row = |cells: [&str; 4]| {
            // Name column left-aligned, measurements right-aligned.
            let mut line = format!("{:<w$}", cells[0], w = widths[0]);
            for c in 1..cells.len() {
                line.push_str(&format!(" {:>w$}", cells[c], w = widths[c]));
            }
            println!("{line}");
        };
        print_row(header);
        for r in &self.rows {
            print_row([&r[0], &r[1], &r[2], &r[3]]);
        }
    }
}

fn fmt(d: Duration) -> String {
    let ns = d.as_nanos();
    match ns {
        0..=9_999 => format!("{ns} ns"),
        10_000..=9_999_999 => format!("{:.1} us", ns as f64 / 1e3),
        _ => format!("{:.2} ms", ns as f64 / 1e6),
    }
}

fn main() {
    let mut h = Harness::from_args();

    // Functional tracing throughput.
    let w = by_name("hmmer_dp", Scale::Test).unwrap();
    let hmmer_len = trace_workload(&w, Scale::Test).len() as u64;
    h.bench("functional/trace_hmmer", hmmer_len, || {
        fgstp_isa::trace_program(black_box(w.program()), 10_000_000).unwrap()
    });

    // Stream building and partitioning.
    let w = by_name("gcc_expr", Scale::Test).unwrap();
    let t: Trace = trace_workload(&w, Scale::Test);
    h.bench("partition/build_exec_stream", t.len() as u64, || {
        build_exec_stream(black_box(t.insts()))
    });
    let stream = build_exec_stream(t.insts());
    h.bench("partition/slice_lookahead", t.len() as u64, || {
        partition_stream(black_box(&stream), &PartitionConfig::default(), 2)
    });

    // Timing models.
    let w = by_name("sjeng_eval", Scale::Test).unwrap();
    let t = trace_workload(&w, Scale::Test);
    h.bench("timing/single_small", t.len() as u64, || {
        CoreConfig::small()
            .run_cold(black_box(t.insts()), &HierarchyConfig::small(1))
            .0
    });
    h.bench("timing/fused_small", t.len() as u64, || {
        CoreConfig::fused(&CoreConfig::small())
            .run_cold(black_box(t.insts()), &HierarchyConfig::small(1))
            .0
    });
    h.bench("timing/fgstp_small", t.len() as u64, || {
        FgstpConfig::small().run_cold(black_box(t.insts()), &HierarchyConfig::small(2))
    });

    // Telemetry-on variants: compare against the plain timing benches to
    // see the cost of cycle accounting (the disabled-sink builds above
    // must not regress — the sink is compiled out via a const generic).
    h.bench("timing/single_small_cpi", t.len() as u64, || {
        let cfg = CoreConfig::small();
        let mut warm = WarmState::new(&cfg, &HierarchyConfig::small(1));
        let mut sink = CpiSink::new(1);
        cfg.run(
            black_box(t.insts()),
            &mut warm,
            0,
            &mut sink,
            &mut Vec::new(),
        )
    });
    h.bench("timing/fgstp_small_cpi", t.len() as u64, || {
        let cfg = FgstpConfig::small();
        let mut warm = WarmState::new(&cfg.core, &HierarchyConfig::small(2));
        let mut sink = CpiSink::new(2);
        cfg.run(
            black_box(t.insts()),
            &mut warm,
            0,
            &mut sink,
            &mut Vec::new(),
        )
    });

    // Substrate micro-benchmarks.
    h.bench("substrates/cache_hit_loop", 1000, || {
        let mut hier = Hierarchy::new(&HierarchyConfig::small(1));
        let mut acc = 0u64;
        for i in 0..1000u64 {
            acc += hier.access_data(0, (i % 64) * 8, false, i);
        }
        acc
    });
    h.bench("substrates/tournament_predict", 1000, || {
        let mut p = Tournament::new(12);
        let mut correct = 0u64;
        for i in 0..1000u64 {
            let taken = i % 3 != 0;
            correct += u64::from(p.predict(i % 37) == taken);
            p.update(i % 37, taken);
        }
        correct
    });

    h.finish();
}
