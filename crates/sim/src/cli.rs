//! Command-line driver logic (the `fgstpsim` binary is a thin wrapper).
//!
//! Subcommands:
//!
//! * `list` — the workload suite;
//! * `run <workload> [machine] [scale] [flags]` — one run with full
//!   statistics. The flags are the [`ExperimentSpec`] vocabulary
//!   (`--cores`, `--sample`, `--sample-interval`, ...),
//!   parsed by [`ExperimentSpec::apply_arg`] and checked by
//!   [`ExperimentSpec::validate`]; a value flag takes `--flag N` as well
//!   as `--flag=N`. Two flags are CLI-local: `--cpi-stack` appends the
//!   cycle accounting breakdown and `--chrome-trace <path>` writes a
//!   Chrome `trace_event` JSON timeline loadable in Perfetto /
//!   `chrome://tracing`;
//! * `compare <workload> [scale]` — the paper's six machines side by side;
//! * `pipeview <workload> [first..last]` — render the pipeline timeline of
//!   a range of instructions on the small core;
//! * `pipeview2 <workload> [first..last]` — the same for each core of the
//!   Fg-STP machine.
//!
//! All functions return the output as a `String` so the logic is testable
//! without capturing stdout (the only side effect is the `--chrome-trace`
//! output file).

use std::fmt::Write as _;

use fgstp::FgstpConfig;
use fgstp_mem::HierarchyConfig;
use fgstp_ooo::{CoreConfig, PipeRecorder, TimingModel, WarmState};
use fgstp_telemetry::{write_chrome_trace, NullSink, StallCategory};
use fgstp_workloads::{by_name, suite, Scale};

use crate::presets::MachineKind;
use crate::report::Table;
use crate::runner::{run as run_machine, PreparedTrace, RunInput, RunRequest};
use crate::spec::{parse_machine, parse_scale, ExperimentSpec, SpecError};

/// The full command-line synopsis, attached to every usage error.
const USAGE: &str = "usage: fgstpsim <list | run <workload> [machine] [scale] [--cpi-stack] \
[--chrome-trace <path>] [--cores N] [--sample] [--sample-interval N] [--sample-warmup N] \
[--sample-detail N] | compare <workload> [scale] | \
pipeview <workload> [first..last] | pipeview2 <workload> [first..last]>";

/// Error for unknown CLI inputs, carrying a usage hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> CliError {
        CliError(e.to_string())
    }
}

/// A usage error: `what` went wrong, followed by the synopsis.
fn usage(what: &str) -> CliError {
    CliError(format!("{what}\n{USAGE}"))
}

fn find_workload(name: &str, scale: Scale) -> Result<fgstp_workloads::Workload, CliError> {
    by_name(name, scale).ok_or_else(|| {
        CliError(format!(
            "unknown workload `{name}` (one of: {})",
            fgstp_workloads::all_names().join(", ")
        ))
    })
}

/// `list`: one line per workload — the synthetic suite, then the RV32
/// real-program suite.
pub fn list() -> String {
    let mut t = Table::new(["name", "models", "class", "description"]);
    for w in suite(Scale::Test)
        .into_iter()
        .chain(fgstp_workloads::rv_suite(Scale::Test))
    {
        t.row([w.name, w.models, &w.suite.to_string(), w.description]);
    }
    t.to_string()
}

/// Applies one `--flag` argument to `spec`. A value flag given bare
/// (`--cores 2`) is joined with the next argument (`--cores=2`) before
/// the spec sees it.
fn apply_flag<'a>(
    spec: &mut ExperimentSpec,
    flag: &str,
    rest: &mut impl Iterator<Item = &'a str>,
) -> Result<(), CliError> {
    if spec.apply_arg(flag)? {
        return Ok(());
    }
    // The spec knows a value flag by the value it rejects or accepts.
    let takes_value =
        !flag.contains('=') && spec.clone().apply_arg(&format!("{flag}=")) != Ok(false);
    if !takes_value {
        return Err(usage(&format!("unknown flag `{flag}`")));
    }
    let value = rest
        .next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
    spec.apply_arg(&format!("{flag}={value}"))?;
    Ok(())
}

/// `run <workload> [machine] [scale] [flags]` (the arguments after
/// `run`); see the [module docs](self). The machine defaults to
/// `fgstp-small` and the scale to `test`; a scale word in the machine
/// position is accepted too (`run hmmer_dp test`), since users naturally
/// drop the machine. `--telemetry` is a synonym of `--cpi-stack`.
pub fn run(args: &[&str]) -> Result<String, CliError> {
    let mut spec = ExperimentSpec {
        scale: Scale::Test,
        machines: Vec::new(),
        ..ExperimentSpec::default()
    };
    let mut chrome_trace: Option<&str> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter().copied();
    while let Some(a) = it.next() {
        match a {
            "--cpi-stack" => spec.telemetry = true,
            "--chrome-trace" => {
                let path = it.next();
                chrome_trace = Some(
                    path.ok_or_else(|| CliError("--chrome-trace needs an output path".into()))?,
                );
            }
            _ if a.starts_with("--chrome-trace=") => {
                chrome_trace = a.strip_prefix("--chrome-trace=");
            }
            _ if a.starts_with("--") => apply_flag(&mut spec, a, &mut it)?,
            _ => positional.push(a),
        }
    }
    if !spec.workloads.is_empty() {
        return Err(usage(
            "run names its workload positionally, not with --workloads",
        ));
    }
    let (workload, machine, scale) = match positional.as_slice() {
        [] => return Err(usage("run needs a workload")),
        [w] => (w, None, None),
        [w, word] if parse_scale(word).is_ok() => (w, None, Some(word)),
        [w, m] => (w, Some(m), None),
        [w, m, scale] => (w, Some(m), Some(scale)),
        [_, _, _, extra, ..] => return Err(usage(&format!("unexpected argument `{extra}`"))),
    };
    if let Some(m) = machine {
        if !spec.machines.is_empty() {
            return Err(usage(
                "the machine is given twice (positionally and by --machines)",
            ));
        }
        spec.machines = vec![parse_machine(m)?];
    }
    if let Some(word) = scale {
        spec.scale = parse_scale(word)?;
    }
    if spec.machines.is_empty() {
        spec.machines = vec![MachineKind::FgstpSmall];
    }
    let &[kind] = spec.machines.as_slice() else {
        return Err(usage("run takes exactly one machine"));
    };
    spec.workloads = vec![(*workload).to_owned()];
    if chrome_trace.is_some() && spec.sample.is_some() {
        return Err(CliError(
            "--chrome-trace is not available under --sample (no episode timeline)".to_owned(),
        ));
    }
    spec.validate()?;
    let w = find_workload(workload, spec.scale)?;
    let session = spec.session();
    let r = if chrome_trace.is_some() {
        let trace = session.try_trace(&w).map_err(CliError)?;
        let req = RunRequest {
            cores: spec.cores,
            episodes: true,
            ..RunRequest::default()
        };
        run_machine(
            kind,
            RunInput::Trace(&PreparedTrace::new(trace.insts())),
            &req,
        )
    } else {
        let mut bench = session.run_workload(&w);
        if let Some(e) = bench.error {
            return Err(CliError(e));
        }
        bench.runs.pop().expect("one machine yields one run")
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload:  {} ({} dynamic instructions)",
        w.name, r.result.committed
    );
    let _ = writeln!(out, "machine:   {kind}");
    let _ = writeln!(out, "cycles:    {}", r.result.cycles);
    let _ = writeln!(out, "ipc:       {:.3}", r.ipc());
    let (branches, mispredicts) = r.result.branches;
    let _ = writeln!(out, "branches:  {branches} ({mispredicts} mispredicted)");
    if let Some(s) = &r.sampled {
        let _ = writeln!(
            out,
            "sampling:  interval {} / warmup {} / detail {} ({} intervals)",
            s.config.interval,
            s.config.warmup,
            s.config.detail,
            s.intervals.len()
        );
        if s.cpi.ci_defined() {
            let _ = writeln!(
                out,
                "estimate:  {:.0} ± {:.0} cycles (95% CI), cpi {:.3} (cov {:.3})",
                s.est_cycles(),
                s.est_cycles_ci95_half(),
                s.cpi.mean,
                s.cpi.cov
            );
        } else {
            // A single interval carries no dispersion information; an
            // exact "± 0" would be misleading.
            let _ = writeln!(
                out,
                "estimate:  {:.0} cycles (CI unavailable: single interval), cpi {:.3}",
                s.est_cycles(),
                s.cpi.mean
            );
        }
        let _ = writeln!(
            out,
            "detail:    {} of {} insts in detail ({:.1}x reduction)",
            s.detailed_insts,
            s.total_insts,
            s.detail_reduction()
        );
        let _ = writeln!(
            out,
            "warming:   {} insts functionally warmed",
            s.warmed_insts
        );
    }
    for (i, c) in r.result.cores.iter().enumerate() {
        let _ = writeln!(
            out,
            "core {i}:    fetched {} issued {} committed {} (+{} replicas), {} fwd, {} viol",
            c.fetched,
            c.issued,
            c.committed,
            c.replica_committed,
            c.store_forwards,
            c.load_violations + c.cross_violations,
        );
    }
    for (i, l1d) in r.result.mem.l1d.iter().enumerate() {
        let _ = writeln!(out, "l1d {i}:     {l1d}");
    }
    let _ = writeln!(out, "l2:        {}", r.result.mem.l2);
    if let Some(s) = &r.fgstp {
        let per_core: Vec<String> = s.partition.insts.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "partition: {} insts, {} replicated, {} comms ({:.2}/100 insts)",
            per_core.join("/"),
            s.partition.replicated,
            s.partition.cross_reg_deps,
            100.0 * s.partition.comms_per_inst(),
        );
    }
    if spec.telemetry {
        let stack = r.cpi.as_ref().expect("instrumented run has a stack");
        let _ = writeln!(out, "\ncpi stack (aggregate core-cycles/inst):");
        let mut t = Table::new(["component", "cpi", "share"]);
        let total = stack.total_cycles().max(1);
        t.row([
            "base (committing)".to_owned(),
            format!(
                "{:.3}",
                stack.base_cycles as f64 / stack.committed.max(1) as f64
            ),
            format!("{:.1}%", 100.0 * stack.base_cycles as f64 / total as f64),
        ]);
        for c in StallCategory::ALL {
            if stack.stall(c) == 0 {
                continue;
            }
            t.row([
                format!("{} ({})", c.label(), c.describe()),
                format!("{:.3}", stack.category_cpi(c)),
                format!("{:.1}%", 100.0 * stack.fraction(c)),
            ]);
        }
        t.row([
            "TOTAL".to_owned(),
            format!("{:.3}", stack.cpi()),
            "100.0%".to_owned(),
        ]);
        let _ = write!(out, "{t}");
    }
    if let Some(path) = chrome_trace {
        let json = write_chrome_trace(kind.label(), &r.episodes);
        std::fs::write(path, &json)
            .map_err(|e| CliError(format!("cannot write chrome trace to {path}: {e}")))?;
        let _ = writeln!(
            out,
            "\nchrome trace: {path} ({} events, load in Perfetto or chrome://tracing)",
            r.episodes.len()
        );
    }
    Ok(out)
}

/// `compare <workload> [scale]`: all machines side by side (run in
/// parallel by the session's worker pool).
pub fn compare(workload: &str, scale: Option<&str>) -> Result<String, CliError> {
    let spec = ExperimentSpec {
        scale: parse_scale(scale.unwrap_or("test"))?,
        machines: MachineKind::ALL.to_vec(),
        ..ExperimentSpec::default()
    };
    let w = find_workload(workload, spec.scale)?;
    let bench = spec.session().run_workload(&w);
    let base = &bench
        .run_of(MachineKind::SingleSmall)
        .expect("ALL includes single-small")
        .result;
    let mut t = Table::new(["machine", "cycles", "ipc", "vs single-small"]);
    for r in &bench.runs {
        t.row([
            r.kind.label().to_owned(),
            r.result.cycles.to_string(),
            format!("{:.3}", r.ipc()),
            format!("{:.3}x", r.result.speedup_over(base)),
        ]);
    }
    Ok(format!(
        "{} ({} instructions)\n{t}",
        w.name, bench.committed
    ))
}

/// A cold run of `workload` at test scale on `model` with one pipeline
/// recorder per core, each keeping instructions up to `to`.
fn recorded<M: TimingModel>(
    workload: &str,
    model: &M,
    to: u64,
) -> Result<(M::Stats, Vec<PipeRecorder>), CliError> {
    let w = find_workload(workload, Scale::Test)?;
    let trace = crate::Session::new()
        .scale(Scale::Test)
        .try_trace(&w)
        .map_err(CliError)?;
    let n = model.cores();
    let mut warm = WarmState::new(model.base_core(), &HierarchyConfig::small(n));
    let mut recs = (0..n).map(|_| PipeRecorder::with_limit(to)).collect();
    let (_, stats) = model.run(trace.insts(), &mut warm, 0, &mut NullSink, &mut recs);
    Ok((stats, recs))
}

/// `pipeview <workload> [first..last]`: timeline on the small core.
pub fn pipeview(workload: &str, range: Option<&str>) -> Result<String, CliError> {
    let (from, to) = parse_range(range)?;
    let (_, recs) = recorded(workload, &CoreConfig::small(), to)?;
    Ok(recs[0].render(from, to))
}

/// `pipeview2 <workload> [first..last]`: side-by-side per-core timeline of
/// the Fg-STP machine, showing the partitioned execution (replica rows
/// appear on every core holding a copy).
pub fn pipeview2(workload: &str, range: Option<&str>) -> Result<String, CliError> {
    let (from, to) = parse_range(range)?;
    let (stats, recs) = recorded(workload, &FgstpConfig::small(), to)?;
    let per_core: Vec<String> = stats.partition.insts.iter().map(u64::to_string).collect();
    let mut out = format!(
        "partition: {} instructions, {} replicated, {} communications\n",
        per_core.join("/"),
        stats.partition.replicated,
        stats.partition.cross_reg_deps,
    );
    for (i, rec) in recs.iter().enumerate() {
        let _ = write!(out, "\n--- core {i} ---\n{}", rec.render(from, to));
    }
    Ok(out)
}

fn parse_range(range: Option<&str>) -> Result<(u64, u64), CliError> {
    match range {
        None => Ok((0, 32)),
        Some(r) => {
            let (a, b) = r
                .split_once("..")
                .ok_or_else(|| CliError(format!("malformed range `{r}` (want first..last)")))?;
            let a = a
                .parse()
                .map_err(|_| CliError(format!("bad range start `{a}`")))?;
            let b = b
                .parse()
                .map_err(|_| CliError(format!("bad range end `{b}`")))?;
            if a >= b {
                return Err(CliError(format!("empty range `{r}`")));
            }
            Ok((a, b))
        }
    }
}

/// Dispatches a full argument vector (excluding argv\[0\]).
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["list"] => Ok(list()),
        ["run", rest @ ..] if !rest.is_empty() => run(rest),
        ["compare", w, rest @ ..] => compare(w, rest.first().copied()),
        ["pipeview", w, rest @ ..] => pipeview(w, rest.first().copied()),
        ["pipeview2", w, rest @ ..] => pipeview2(w, rest.first().copied()),
        _ => Err(CliError(USAGE.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_names_every_workload() {
        let out = list();
        for w in suite(Scale::Test) {
            assert!(out.contains(w.name), "{}", w.name);
        }
    }

    #[test]
    fn run_prints_core_stats() {
        let out = run(&["perl_hash", "fgstp-small", "test"]).unwrap();
        assert!(out.contains("core 0:"));
        assert!(out.contains("core 1:"));
        assert!(out.contains("partition:"));
    }

    #[test]
    fn run_rejects_unknown_inputs() {
        assert!(run(&["nope"]).is_err());
        assert!(run(&["perl_hash", "nope"]).is_err());
        assert!(run(&["perl_hash", "fgstp-small", "nope"]).is_err());
    }

    #[test]
    fn run_accepts_scale_in_the_machine_position() {
        // `fgstpsim run <workload> test` — users naturally drop the machine.
        let out = run(&["perl_hash", "test"]).unwrap();
        assert!(out.contains("fgstp-small"), "default machine used: {out}");
    }

    #[test]
    fn compare_lists_all_machines() {
        let out = compare("hmmer_dp", Some("test")).unwrap();
        for k in MachineKind::ALL {
            assert!(out.contains(k.label()), "{}", k.label());
        }
    }

    #[test]
    fn pipeview_renders_a_timeline() {
        let out = pipeview("perl_hash", Some("0..8")).unwrap();
        assert!(out.contains("cycles"));
        assert!(out.lines().count() >= 9, "{out}");
    }

    #[test]
    fn pipeview_rejects_bad_ranges() {
        assert!(pipeview("perl_hash", Some("8..8")).is_err());
        assert!(pipeview("perl_hash", Some("abc")).is_err());
    }

    #[test]
    fn dispatch_routes_subcommands() {
        assert!(dispatch(&["list".into()]).is_ok());
        assert!(dispatch(&["bogus".into()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn run_cpi_stack_flag_appends_the_breakdown() {
        let out = dispatch(&[
            "run".into(),
            "perl_hash".into(),
            "fgstp-small".into(),
            "test".into(),
            "--cpi-stack".into(),
        ])
        .unwrap();
        assert!(out.contains("cpi stack"), "{out}");
        assert!(out.contains("base (committing)"), "{out}");
        assert!(out.contains("TOTAL"), "{out}");
    }

    #[test]
    fn run_chrome_trace_flag_writes_a_json_file() {
        let path =
            std::env::temp_dir().join(format!("fgstp-cli-chrome-{}.json", std::process::id()));
        let out = dispatch(&[
            "run".into(),
            "perl_hash".into(),
            "--chrome-trace".into(),
            path.to_str().unwrap().into(),
        ])
        .unwrap();
        assert!(out.contains("chrome trace:"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chrome_trace_flag_requires_a_path() {
        let e = dispatch(&["run".into(), "perl_hash".into(), "--chrome-trace".into()]);
        assert!(e.is_err());
    }

    #[test]
    fn pipeview2_shows_both_cores_and_the_partition() {
        let out = pipeview2("hmmer_dp", Some("0..24")).unwrap();
        assert!(out.contains("--- core 0 ---"));
        assert!(out.contains("--- core 1 ---"));
        assert!(out.contains("partition:"));
    }

    #[test]
    fn cores_flag_overrides_the_fgstp_core_count() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "fgstp-small".into(),
            "test".into(),
            "--cores".into(),
            "3".into(),
        ])
        .unwrap();
        assert!(out.contains("core 2:"), "{out}");
        assert!(!out.contains("core 3:"), "{out}");
    }

    #[test]
    fn cores_flag_rejects_bad_inputs() {
        assert!(run(&["hmmer_dp", "single-small", "--cores", "2"]).is_err());
        assert!(run(&["hmmer_dp", "--cores", "0"]).is_err());
        let e = dispatch(&["run".into(), "hmmer_dp".into(), "--cores".into()]);
        assert!(e.is_err());
        let e = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--cores".into(),
            "many".into(),
        ]);
        assert!(e.is_err());
    }

    #[test]
    fn sample_flag_switches_to_projected_totals() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "fgstp-small".into(),
            "test".into(),
            "--sample".into(),
            "--sample-interval".into(),
            "2000".into(),
            "--sample-warmup".into(),
            "300".into(),
            "--sample-detail".into(),
            "150".into(),
        ])
        .unwrap();
        assert!(
            out.contains("sampling:  interval 2000 / warmup 300 / detail 150"),
            "{out}"
        );
        assert!(out.contains("estimate:"), "{out}");
        assert!(out.contains("x reduction"), "{out}");
    }

    #[test]
    fn sample_value_flags_imply_sampling() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample-interval".into(),
            "3000".into(),
        ])
        .unwrap();
        assert!(out.contains("sampling:  interval 3000"), "{out}");
    }

    #[test]
    fn sample_flag_composes_with_cpi_stack() {
        let out = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--cpi-stack".into(),
        ])
        .unwrap();
        assert!(out.contains("sampling:"), "{out}");
        assert!(out.contains("cpi stack"), "{out}");
    }

    #[test]
    fn sample_flag_rejects_bad_combinations() {
        let chrome = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--chrome-trace".into(),
            "/tmp/x.json".into(),
        ]);
        assert!(chrome.is_err());
        let cores = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--cores".into(),
            "4".into(),
        ])
        .expect("a core override composes with sampling");
        assert!(cores.contains("sampling:"), "{cores}");
        let oversized = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample-interval".into(),
            "100".into(),
        ]);
        assert!(oversized.is_err(), "default window no longer fits");
        let missing = dispatch(&["run".into(), "hmmer_dp".into(), "--sample-detail".into()]);
        assert!(missing.is_err());
        let bad = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample-detail".into(),
            "lots".into(),
        ]);
        assert!(bad.is_err());
    }

    /// Validation matrix: every combination of `--sample` with the flags
    /// it excludes is rejected, in either flag order, and the error names
    /// the offending flag. A combination that merely *implies* sampling
    /// (`--sample-interval`) conflicts exactly like the explicit flag.
    #[test]
    fn sample_exclusion_matrix() {
        let sample_forms: [&[&str]; 2] = [&["--sample"], &["--sample-interval", "2000"]];
        let excluded: [(&[&str], &str); 1] = [(
            &["--chrome-trace", "/tmp/fgstp-matrix.json"],
            "--chrome-trace",
        )];
        for sample in sample_forms {
            for (conflict, flag) in excluded {
                for order in 0..2 {
                    let mut args = vec!["run".to_owned(), "hmmer_dp".to_owned()];
                    let (first, second) = if order == 0 {
                        (sample, conflict)
                    } else {
                        (conflict, sample)
                    };
                    args.extend(first.iter().map(|s| s.to_string()));
                    args.extend(second.iter().map(|s| s.to_string()));
                    let e = dispatch(&args).expect_err(&format!("{args:?} must be rejected"));
                    assert!(
                        e.0.contains(flag),
                        "error for {args:?} names {flag}: {}",
                        e.0
                    );
                }
            }
        }
        // A valid core override does not mask the conflict.
        let e = dispatch(&[
            "run".into(),
            "hmmer_dp".into(),
            "--sample".into(),
            "--cores".into(),
            "2".into(),
            "--chrome-trace".into(),
            "/tmp/fgstp-matrix.json".into(),
        ]);
        assert!(e.is_err());
    }

    /// `--sample-*` parsing edges: exact-fit windows are accepted, the
    /// first over-budget instruction is rejected, zero detail is rejected,
    /// and every value flag needs a numeric argument.
    #[test]
    fn sample_value_parsing_edges() {
        let run_with = |interval: &str, warmup: &str, detail: &str| {
            dispatch(&[
                "run".into(),
                "hmmer_dp".into(),
                "--sample-interval".into(),
                interval.into(),
                "--sample-warmup".into(),
                warmup.into(),
                "--sample-detail".into(),
                detail.into(),
            ])
        };
        // warmup + detail == interval is the largest window that fits.
        assert!(run_with("1000", "500", "500").is_ok());
        // One instruction over the interval fails with the budget message.
        let e = run_with("1000", "500", "501").unwrap_err();
        assert!(e.0.contains("must fit in the interval"), "{}", e.0);
        // Zero-instruction detail windows measure nothing.
        let e = run_with("1000", "100", "0").unwrap_err();
        assert!(e.0.contains("--sample-detail"), "{}", e.0);
        // Each value flag demands an argument...
        for flag in ["--sample-interval", "--sample-warmup", "--sample-detail"] {
            let e = dispatch(&["run".into(), "hmmer_dp".into(), flag.into()]).unwrap_err();
            assert!(e.0.contains(flag), "{}", e.0);
            // ...and a numeric one: negatives and words don't parse as u64.
            for bad in ["many", "-5", "1e6"] {
                let e = dispatch(&["run".into(), "hmmer_dp".into(), flag.into(), bad.into()])
                    .unwrap_err();
                assert!(e.0.contains(flag) && e.0.contains(bad), "{}", e.0);
            }
        }
    }

    /// `--cores` validation composes with machine selection: valid on any
    /// Fg-STP preset, rejected on every non-Fg-STP preset and for zero.
    #[test]
    fn cores_machine_matrix() {
        for kind in MachineKind::ALL {
            let r = run(&["hmmer_dp", kind.label(), "test", "--cores", "2"]);
            if kind.is_fgstp() {
                assert!(r.is_ok(), "{}: {r:?}", kind.label());
            } else {
                let e = r.expect_err(kind.label());
                assert!(e.0.contains("--cores"), "{}", e.0);
            }
        }
        let e = run(&["hmmer_dp", "--cores", "0"]).unwrap_err();
        assert!(e.0.contains("at least one core"), "{}", e.0);
    }

    #[test]
    fn scaling_presets_are_reachable_by_label() {
        let out = run(&["hmmer_dp", "fgstp-small-4", "test"]).unwrap();
        assert!(out.contains("core 3:"), "{out}");
        assert!(out.contains("fgstp-small-4"), "{out}");
    }

    /// Nothing on the command line is dropped: an unknown flag, an extra
    /// positional or a doubly-given machine or workload fails with the
    /// usage message instead of being ignored.
    #[test]
    fn run_rejects_unknown_flags_and_extra_positionals() {
        for args in [
            &["perl_hash", "fgstp-small", "test", "--cpi-stak"][..],
            &["perl_hash", "--cpi-stak"],
            &["perl_hash", "--bogus=3"],
            &["perl_hash", "fgstp-small", "test", "extra"],
            // Positionals and their flag spellings may not disagree silently.
            &["perl_hash", "fgstp-small", "--machines=single-small"],
            &["perl_hash", "--workloads=hmmer_dp"],
        ] {
            let e = run(args).expect_err(&format!("{args:?} must be rejected"));
            assert!(e.0.contains("usage: fgstpsim"), "{args:?}: {}", e.0);
        }
        let e = run(&["perl_hash", "--cpi-stak"]).unwrap_err();
        assert!(e.0.contains("`--cpi-stak`"), "{}", e.0);
        let e = run(&["perl_hash", "fgstp-small", "test", "extra"]).unwrap_err();
        assert!(e.0.contains("`extra`"), "{}", e.0);
    }

    /// Value flags take `--flag N` and `--flag=N` alike, with identical
    /// output.
    #[test]
    fn value_flags_accept_both_spellings() {
        let joined = run(&["hmmer_dp", "--cores=3"]).unwrap();
        let split = run(&["hmmer_dp", "--cores", "3"]).unwrap();
        assert!(joined.contains("core 2:"), "{joined}");
        assert_eq!(joined, split);
        let joined = run(&["hmmer_dp", "--sample-interval=3000"]).unwrap();
        assert!(joined.contains("sampling:  interval 3000"), "{joined}");
        let path = std::env::temp_dir().join(format!("fgstp-cli-eq-{}.json", std::process::id()));
        let flag = format!("--chrome-trace={}", path.to_str().unwrap());
        let out = run(&["perl_hash", &flag]).unwrap();
        assert!(out.contains("chrome trace:"), "{out}");
        std::fs::remove_file(&path).unwrap();
    }
}
