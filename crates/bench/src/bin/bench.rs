//! The simulator's wall-clock perf harness: one row per layer, every row
//! normalized to a host calibration sweep taken in the same process.
//!
//! Over the pinned 18-kernel suite at `test` scale it times
//!
//! * **functional** — `threaded`, `PreProgram` lowering plus
//!   `ThreadedMachine::run`, the engine tracing uses;
//! * **exec-stream** — `build_exec_stream` over every kernel's trace;
//! * **partition** — `partition_stream_weighted` with fgstp-small's
//!   config;
//! * **timing** — `single-small`, `fgstp-small` and `fgstp-medium-4`
//!   through the one run path, plus `single-small+cpi` and
//!   `fgstp-small+cpi` with the CPI-stack sink on: the cost of cycle
//!   accounting, which the disabled sink compiles out.
//!
//! MIPS counts the suite's instructions per wall-clock second:
//! architecturally executed ones for the `threaded` row, committed
//! trace instructions for the rest. Each timed iteration runs one sample
//! of the frozen pre-predecode interpreter below (the calibration unit)
//! and one row sample back to back, each repeating its sweep to last at
//! least 10 ms so scheduler jitter cannot dominate it. A row's `norm` is
//! the median over iterations of row MIPS / reference MIPS, and the
//! report's `calib_mips` is the median reference MIPS. Both halves of
//! each ratio see the host at the same moment, so a `norm` means the
//! same on a fast or slow, quiet or loaded machine, and the `threaded`
//! norm is exactly the threaded/reference speedup.
//!
//! ```text
//! bench [--iters=N] [--out=PATH] [--check=PATH] [--schema-check=PATH]
//! ```
//!
//! Modes (mutually exclusive; measurement is the default):
//!
//! * **measure** — write the report (schema `fgstp-bench/v2`) to `--out`
//!   (default `BENCH_layers.json`).
//! * **`--check=PATH`** — re-measure; exits non-zero if any recorded
//!   row's fresh `norm` is below 0.5 × its recorded `norm`. Rows measured
//!   but not recorded are skipped.
//! * **`--schema-check=PATH`** — validate a report without measuring,
//!   including that its recorded `threaded` norm meets the 10× floor.
//!
//! Before timing anything, every kernel runs once on both functional
//! engines, asserting identical final register files and instruction
//! counts: a norm over a divergent reference would be meaningless.

use std::hint::black_box;
use std::time::Instant;

use fgstp::partition_stream_weighted;
use fgstp_isa::{PreProgram, ThreadedMachine, Trace};
use fgstp_ooo::build_exec_stream;
use fgstp_sim::runner::trace_workload;
use fgstp_sim::spec::scale_word;
use fgstp_sim::{run, MachineKind, RunInput, RunRequest, Scale};
use fgstp_telemetry::json::Json;

/// Report format identifier (bump on incompatible layout changes).
const SCHEMA: &str = "fgstp-bench/v2";

/// The suite scale every row is measured at.
const SCALE: Scale = Scale::Test;

/// The gate fails a row whose fresh `norm` is below this fraction of its
/// recorded one, i.e. only a 2× relative slowdown fails.
const GATE: f64 = 0.5;

/// Floor on the recorded `threaded` norm (the threaded/reference speedup).
const MIN_THREADED_NORM: f64 = 10.0;

/// Shortest timed sample, in seconds; faster sweeps repeat to fill it.
const MIN_SAMPLE_S: f64 = 0.010;

/// The timing rows: machine, CPI-stack sink on, row name.
const TIMING_ROWS: [(MachineKind, bool, &str); 5] = [
    (MachineKind::SingleSmall, false, "single-small"),
    (MachineKind::SingleSmall, true, "single-small+cpi"),
    (MachineKind::FgstpSmall, false, "fgstp-small"),
    (MachineKind::FgstpSmall, true, "fgstp-small+cpi"),
    (MachineKind::FgstpMedium4, false, "fgstp-medium-4"),
];

/// The frozen pre-predecode functional interpreter.
///
/// This is a faithful replica of the workspace's original
/// `Machine::step` execution strategy *before* the threaded-code rewrite:
/// every dynamic instruction re-reads the static [`fgstp_isa::Inst`],
/// matches over
/// the full opcode enum, routes compute through the shared semantics
/// helpers, and touches memory one byte (one page-table hash lookup) at a
/// time. It exists only as the denominator of the speedup this harness
/// gates; the live oracle is `fgstp_isa::Machine`. The per-step path
/// calls no workspace code at all: only the `Op` enum is shared, and
/// matching on it is plain language.
mod frozen {
    use std::collections::HashMap;

    use fgstp_isa::machine::ExecError;
    use fgstp_isa::reg::NUM_REGS;
    use fgstp_isa::{Op, Program};

    const PAGE_SHIFT: u64 = 12;
    const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

    // Verbatim copies of the pre-predecode `fgstp_isa::semantics` helpers,
    // frozen here so later tuning of the live ones (e.g. inline hints)
    // cannot silently speed up the baseline side of the comparison. Their
    // agreement with the live helpers is pinned by the `measure`
    // cross-check, which runs both engines over the whole suite.
    fn eval_compute(op: Op, rs1: u64, rs2: u64, imm: i64) -> Option<u64> {
        let f1 = f64::from_bits(rs1);
        let f2 = f64::from_bits(rs2);
        use Op::*;
        Some(match op {
            Add => rs1.wrapping_add(rs2),
            Sub => rs1.wrapping_sub(rs2),
            And => rs1 & rs2,
            Or => rs1 | rs2,
            Xor => rs1 ^ rs2,
            Sll => rs1.wrapping_shl(rs2 as u32 & 63),
            Srl => rs1.wrapping_shr(rs2 as u32 & 63),
            Sra => ((rs1 as i64).wrapping_shr(rs2 as u32 & 63)) as u64,
            Slt => u64::from((rs1 as i64) < (rs2 as i64)),
            Sltu => u64::from(rs1 < rs2),
            Mul => rs1.wrapping_mul(rs2),
            Div => {
                if rs2 == 0 {
                    u64::MAX
                } else {
                    (rs1 as i64).wrapping_div(rs2 as i64) as u64
                }
            }
            Rem => {
                if rs2 == 0 {
                    rs1
                } else {
                    (rs1 as i64).wrapping_rem(rs2 as i64) as u64
                }
            }
            Addi => rs1.wrapping_add(imm as u64),
            Andi => rs1 & imm as u64,
            Ori => rs1 | imm as u64,
            Xori => rs1 ^ imm as u64,
            Slli => rs1.wrapping_shl(imm as u32 & 63),
            Srli => rs1.wrapping_shr(imm as u32 & 63),
            Srai => ((rs1 as i64).wrapping_shr(imm as u32 & 63)) as u64,
            Slti => u64::from((rs1 as i64) < imm),
            Li => imm as u64,
            FAdd => (f1 + f2).to_bits(),
            FSub => (f1 - f2).to_bits(),
            FMul => (f1 * f2).to_bits(),
            FDiv => (f1 / f2).to_bits(),
            FSqrt => f1.sqrt().to_bits(),
            FMin => f1.min(f2).to_bits(),
            FMax => f1.max(f2).to_bits(),
            FCvtIF => ((rs1 as i64) as f64).to_bits(),
            FCvtFI => (f1 as i64) as u64,
            FLt => u64::from(f1 < f2),
            FEq => u64::from(f1 == f2),
            _ => return None,
        })
    }

    fn branch_taken(op: Op, rs1: u64, rs2: u64) -> Option<bool> {
        use Op::*;
        Some(match op {
            Beq => rs1 == rs2,
            Bne => rs1 != rs2,
            Blt => (rs1 as i64) < (rs2 as i64),
            Bge => (rs1 as i64) >= (rs2 as i64),
            Bltu => rs1 < rs2,
            Bgeu => rs1 >= rs2,
            _ => return None,
        })
    }

    // Verbatim copies of `Op::writes_rd`, `Op::mem_width`, `Reg::index`
    // and `Reg::is_zero`, frozen for the same reason; the register helpers
    // take the raw index that `Inst` below carries.
    fn writes_rd(op: Op) -> bool {
        use Op::*;
        !matches!(
            op,
            Sb | Sh | Sw | Sd | Fsd | Beq | Bne | Blt | Bge | Bltu | Bgeu | Nop | Halt
        )
    }

    fn mem_width(op: Op) -> Option<u8> {
        use Op::*;
        match op {
            Lb | Lbu | Sb => Some(1),
            Lh | Lhu | Sh => Some(2),
            Lw | Lwu | Sw => Some(4),
            Ld | Fld | Sd | Fsd => Some(8),
            _ => None,
        }
    }

    fn reg_index(r: u8) -> usize {
        usize::from(r)
    }

    fn is_zero(r: u8) -> bool {
        r == 0
    }

    /// A static instruction as `fgstp_isa::Inst` lays it out, with raw
    /// register indices. [`Machine::new`] copies the program into these
    /// once, so no live `Reg` accessor runs per step.
    #[derive(Clone, Copy)]
    pub struct Inst {
        pub op: Op,
        pub rd: u8,
        pub rs1: u8,
        pub rs2: u8,
        pub imm: i64,
    }

    fn load_extend(op: Op, raw: u64) -> u64 {
        use Op::*;
        match op {
            Lb => (raw as u8) as i8 as i64 as u64,
            Lh => (raw as u16) as i16 as i64 as u64,
            Lw => (raw as u32) as i32 as i64 as u64,
            _ => raw,
        }
    }

    /// Sparse paged memory with byte-at-a-time access paths, as before the
    /// within-page fast path landed.
    #[derive(Default)]
    struct Memory {
        pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    }

    impl Memory {
        fn read_u8(&self, addr: u64) -> u8 {
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
                None => 0,
            }
        }

        fn write_u8(&mut self, addr: u64, value: u8) {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[(addr as usize) & (PAGE_SIZE - 1)] = value;
        }

        fn read(&self, addr: u64, width: u8) -> u64 {
            let mut v = 0u64;
            for i in 0..u64::from(width) {
                v |= u64::from(self.read_u8(addr.wrapping_add(i))) << (8 * i);
            }
            v
        }

        fn write(&mut self, addr: u64, width: u8, value: u64) {
            for i in 0..u64::from(width) {
                self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8);
            }
        }
    }

    /// Per-step execution record, as the pre-PR interpreter materialized
    /// for every dynamic instruction whether or not anyone was tracing.
    /// Nothing reads the fields here — `run` discards each record exactly
    /// like the pre-PR `Machine::run` did — but constructing them is part
    /// of the per-step cost being replicated.
    #[allow(dead_code)]
    pub struct ExecInfo {
        pub pc: u64,
        pub inst: Inst,
        pub next_pc: u64,
        pub addr: Option<u64>,
        pub rd_value: Option<u64>,
        pub store_value: Option<u64>,
        pub taken: Option<bool>,
    }

    /// Outcome of one step, mirroring the pre-PR `StepOutcome`.
    #[allow(dead_code)]
    pub enum StepOutcome {
        Executed(ExecInfo),
        Halted,
    }

    /// The frozen interpreter: per-step decode, no pre-lowering.
    pub struct Machine {
        insts: Vec<Inst>,
        regs: [u64; NUM_REGS],
        pc: u64,
        mem: Memory,
        halted: bool,
        executed: u64,
    }

    impl Machine {
        pub fn new(program: &Program) -> Machine {
            let mut mem = Memory::default();
            for init in &program.data {
                for (i, b) in init.bytes.iter().enumerate() {
                    mem.write_u8(init.addr + i as u64, *b);
                }
            }
            let insts = program
                .insts
                .iter()
                .map(|i| Inst {
                    op: i.op,
                    rd: i.rd.index() as u8,
                    rs1: i.rs1.index() as u8,
                    rs2: i.rs2.index() as u8,
                    imm: i.imm,
                })
                .collect();
            Machine {
                insts,
                regs: [0; NUM_REGS],
                pc: program.entry,
                mem,
                halted: false,
                executed: 0,
            }
        }

        pub fn regs(&self) -> &[u64; NUM_REGS] {
            &self.regs
        }

        pub fn executed(&self) -> u64 {
            self.executed
        }

        fn write_rd(&mut self, inst: &Inst, value: u64) -> Option<u64> {
            if writes_rd(inst.op) {
                if !is_zero(inst.rd) {
                    self.regs[reg_index(inst.rd)] = value;
                }
                Some(value)
            } else {
                None
            }
        }

        fn step(&mut self) -> Result<StepOutcome, ExecError> {
            if self.halted {
                return Ok(StepOutcome::Halted);
            }
            let len = self.insts.len();
            let inst = *self
                .insts
                .get(self.pc as usize)
                .ok_or(ExecError::PcOutOfRange { pc: self.pc, len })?;
            let pc = self.pc;
            let rs1 = self.regs[reg_index(inst.rs1)];
            let rs2 = self.regs[reg_index(inst.rs2)];
            let imm = inst.imm;

            let mut next_pc = pc + 1;
            let mut addr = None;
            let mut store_value = None;
            let mut taken = None;
            let mut rd_value = None;

            use Op::*;
            match inst.op {
                Lb | Lbu | Lh | Lhu | Lw | Lwu | Ld | Fld => {
                    let a = rs1.wrapping_add(imm as u64);
                    addr = Some(a);
                    let width = mem_width(inst.op).expect("load has width");
                    let raw = self.mem.read(a, width);
                    rd_value = self.write_rd(&inst, load_extend(inst.op, raw));
                }
                Sb | Sh | Sw | Sd | Fsd => {
                    let a = rs1.wrapping_add(imm as u64);
                    addr = Some(a);
                    let width = mem_width(inst.op).expect("store has width");
                    self.mem.write(a, width, rs2);
                    store_value = Some(rs2);
                }
                Beq | Bne | Blt | Bge | Bltu | Bgeu => {
                    let t = branch_taken(inst.op, rs1, rs2).expect("conditional branch");
                    taken = Some(t);
                    if t {
                        next_pc = imm as u64;
                    }
                }
                Jal => {
                    rd_value = self.write_rd(&inst, pc + 1);
                    next_pc = imm as u64;
                }
                Jalr => {
                    rd_value = self.write_rd(&inst, pc + 1);
                    next_pc = rs1.wrapping_add(imm as u64);
                }
                Nop => {}
                _ if inst.op != Op::Halt => {
                    let v = eval_compute(inst.op, rs1, rs2, imm)
                        .expect("remaining opcodes are pure compute");
                    rd_value = self.write_rd(&inst, v);
                }
                _ => {
                    self.halted = true;
                    self.executed += 1;
                    return Ok(StepOutcome::Executed(ExecInfo {
                        pc,
                        inst,
                        next_pc: pc,
                        addr: None,
                        rd_value: None,
                        store_value: None,
                        taken: None,
                    }));
                }
            }

            self.pc = next_pc;
            self.executed += 1;
            Ok(StepOutcome::Executed(ExecInfo {
                pc,
                inst,
                next_pc,
                addr,
                rd_value,
                store_value,
                taken,
            }))
        }

        /// Runs until `halt`, or errors after `limit` steps.
        pub fn run(&mut self, limit: u64) -> Result<u64, ExecError> {
            let start = self.executed;
            while !self.halted {
                if self.executed - start >= limit {
                    return Err(ExecError::StepLimit { limit });
                }
                self.step()?;
            }
            Ok(self.executed - start)
        }

        /// The pre-PR functional delivery path: run to `halt`, pushing one
        /// decoded record per committed instruction into a freshly grown
        /// vector — exactly how `trace_program` materialized instruction
        /// streams for `Session`, warming and the runners before the
        /// streaming reader existed. Returns the record count.
        pub fn run_trace(&mut self, limit: u64) -> Result<usize, ExecError> {
            let mut out: Vec<Record> = Vec::new();
            let mut seq = 0u64;
            while !self.halted {
                if out.len() as u64 >= limit {
                    return Err(ExecError::StepLimit { limit });
                }
                match self.step()? {
                    StepOutcome::Halted => break,
                    StepOutcome::Executed(info) => {
                        if info.inst.op == Op::Halt {
                            break;
                        }
                        out.push(Record {
                            seq,
                            pc: info.pc,
                            inst: info.inst,
                            next_pc: info.next_pc,
                            addr: info.addr,
                            taken: info.taken,
                            rd_value: info.rd_value,
                            store_value: info.store_value,
                        });
                        seq += 1;
                    }
                }
            }
            Ok(out.len())
        }
    }

    /// Decoded per-instruction record, laid out like the pre-PR
    /// `DynInst` the trace path materialized per dynamic instruction.
    #[allow(dead_code)]
    pub struct Record {
        pub seq: u64,
        pub pc: u64,
        pub inst: Inst,
        pub next_pc: u64,
        pub addr: Option<u64>,
        pub taken: Option<bool>,
        pub rd_value: Option<u64>,
        pub store_value: Option<u64>,
    }
}

/// One timed iteration of a row.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Seconds per sweep of the row.
    row_s: f64,
    /// Reference-interpreter MIPS of the sample paired with it.
    calib_mips: f64,
}

/// One row measured over the full suite.
#[derive(Debug)]
struct Measurement {
    layer: &'static str,
    name: &'static str,
    /// Instructions one sweep processes.
    insts: u64,
    samples: Vec<Sample>,
}

impl Measurement {
    fn mips(&self, secs: f64) -> f64 {
        self.insts as f64 / secs / 1e6
    }

    fn median_s(&self) -> f64 {
        median(self.samples.iter().map(|s| s.row_s))
    }

    fn min_s(&self) -> f64 {
        self.samples
            .iter()
            .map(|s| s.row_s)
            .fold(f64::MAX, f64::min)
    }

    /// Median over iterations of row MIPS / paired reference MIPS.
    fn norm(&self) -> f64 {
        median(
            self.samples
                .iter()
                .map(|s| self.mips(s.row_s) / s.calib_mips),
        )
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("layer".to_owned(), Json::Str(self.layer.to_owned())),
            ("name".to_owned(), Json::Str(self.name.to_owned())),
            ("insts".to_owned(), Json::Num(self.insts as f64)),
            ("median_s".to_owned(), Json::Num(round6(self.median_s()))),
            ("min_s".to_owned(), Json::Num(round6(self.min_s()))),
            (
                "mips_median".to_owned(),
                Json::Num(round3(self.mips(self.median_s()))),
            ),
            (
                "mips_best".to_owned(),
                Json::Num(round3(self.mips(self.min_s()))),
            ),
            ("norm".to_owned(), Json::Num(round6(self.norm()))),
        ])
    }
}

/// The upper median (the middle element of an odd count).
fn median(xs: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

struct Args {
    iters: usize,
    out: String,
    check: Option<String>,
    schema_check: Option<String>,
}

fn usage() -> ! {
    eprintln!("usage: bench [--iters=N] [--out=PATH] [--check=PATH] [--schema-check=PATH]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        iters: 5,
        out: "BENCH_layers.json".to_owned(),
        check: None,
        schema_check: None,
    };
    for a in std::env::args().skip(1) {
        let Some((flag, value)) = a.split_once('=') else {
            usage();
        };
        match flag {
            "--iters" => match value.parse() {
                Ok(n) if n >= 1 => args.iters = n,
                _ => usage(),
            },
            "--out" => args.out = value.to_owned(),
            "--check" => args.check = Some(value.to_owned()),
            "--schema-check" => args.schema_check = Some(value.to_owned()),
            _ => usage(),
        }
    }
    args
}

/// Loads and validates a report; exits with a diagnostic on any problem.
fn load_report(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench: {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    if let Err(e) = validate_schema(&doc) {
        eprintln!("bench: {path} failed schema check: {e}");
        std::process::exit(1);
    }
    doc
}

/// A finite, non-negative number member.
fn number(v: &Json, key: &str) -> Result<f64, String> {
    let n = v
        .get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing number `{key}`"))?;
    if !n.is_finite() || n < 0.0 {
        return Err(format!("`{key}` is not a finite non-negative number"));
    }
    Ok(n)
}

/// Checks the report layout the gate depends on, including that the
/// recorded `threaded` norm meets the floor.
fn validate_schema(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("unknown schema `{other}` (want `{SCHEMA}`)")),
        None => return Err("missing `schema`".to_owned()),
    }
    if doc.get("scale").and_then(Json::as_str) != Some(scale_word(SCALE)) {
        return Err(format!("`scale` is not `{}`", scale_word(SCALE)));
    }
    number(doc, "iterations")?;
    doc.get("kernels")
        .and_then(Json::as_arr)
        .ok_or("`kernels` is not an array")?;
    number(doc, "calib_mips")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("`rows` is not an array")?;
    for r in rows {
        for key in ["layer", "name"] {
            r.get(key)
                .and_then(Json::as_str)
                .ok_or(format!("row missing string `{key}`"))?;
        }
        for key in [
            "insts",
            "median_s",
            "min_s",
            "mips_median",
            "mips_best",
            "norm",
        ] {
            number(r, key)?;
        }
    }
    let threaded = rows
        .iter()
        .find(|r| r.get("name").and_then(Json::as_str) == Some("threaded"))
        .ok_or("no `threaded` row")?;
    let norm = number(threaded, "norm")?;
    if norm < MIN_THREADED_NORM {
        return Err(format!(
            "recorded `threaded` norm {norm} is below the {MIN_THREADED_NORM}x floor"
        ));
    }
    Ok(())
}

/// Seconds per sweep, averaged over `reps` back-to-back sweeps.
fn time_sweeps(sweep: &dyn Fn(), reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        sweep();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Sweeps per sample so one sample lasts at least [`MIN_SAMPLE_S`]; the
/// estimating sweep doubles as the warmup.
fn reps_for(sweep: &dyn Fn()) -> usize {
    let est = time_sweeps(sweep, 1).max(1e-9);
    ((MIN_SAMPLE_S / est).ceil() as usize).clamp(1, 64)
}

/// Runs every kernel once on both functional engines, asserting they
/// agree; returns the suite's architecturally executed instructions.
fn cross_check(suite: &[fgstp_workloads::Workload], budget: u64) -> u64 {
    let mut insts = 0;
    for w in suite {
        let mut fm = frozen::Machine::new(w.program());
        fm.run(budget)
            .unwrap_or_else(|e| panic!("{} (reference): {e}", w.name));
        let pre = PreProgram::new(w.program());
        let mut tm = ThreadedMachine::new(&pre);
        tm.run(budget)
            .unwrap_or_else(|e| panic!("{} (threaded): {e}", w.name));
        assert_eq!(
            fm.regs(),
            tm.regs(),
            "{}: engines disagree on the final register file",
            w.name
        );
        assert_eq!(
            fm.executed(),
            tm.executed(),
            "{}: engines disagree on the instruction count",
            w.name
        );
        insts += fm.executed();
    }
    insts
}

/// A row to time: layer, name, instructions per sweep, one sweep.
type Row<'a> = (&'static str, &'static str, u64, Box<dyn Fn() + 'a>);

/// Times every row, pairing each sample with a reference sample.
fn measure(iters: usize) -> (Vec<Measurement>, Vec<&'static str>) {
    let suite = fgstp_workloads::suite(SCALE);
    let kernels: Vec<&'static str> = suite.iter().map(|w| w.name).collect();
    let budget = SCALE.trace_budget();
    eprintln!(
        "bench: cross-checking and tracing {} kernels at {} scale",
        suite.len(),
        scale_word(SCALE)
    );
    let func_insts = cross_check(&suite, budget);
    // Decode-once: lowering runs a single time per static program and the
    // op tables are reused across sweeps, as `Session` consumes them.
    // Machine construction (the data-segment boot) stays inside the timed
    // region for both engines.
    let pres: Vec<PreProgram> = suite.iter().map(|w| PreProgram::new(w.program())).collect();
    let traces: Vec<Trace> = suite.iter().map(|w| trace_workload(w, SCALE)).collect();
    let trace_insts: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let streams: Vec<_> = traces
        .iter()
        .map(|t| build_exec_stream(t.insts()))
        .collect();
    let fgstp_small = MachineKind::FgstpSmall
        .try_fgstp_config()
        .expect("fgstp-small is an Fg-STP preset");
    let caps = fgstp_small.steering_caps();

    let reference = || {
        for w in &suite {
            let mut m = frozen::Machine::new(w.program());
            black_box(m.run_trace(black_box(budget)).unwrap());
        }
    };
    let mut rows: Vec<Row> = vec![
        (
            "functional",
            "threaded",
            func_insts,
            Box::new(|| {
                for pre in &pres {
                    let mut m = ThreadedMachine::new(pre);
                    black_box(m.run(black_box(budget)).unwrap());
                }
            }),
        ),
        (
            "exec-stream",
            "build_exec_stream",
            trace_insts,
            Box::new(|| {
                for t in &traces {
                    black_box(build_exec_stream(black_box(t.insts())));
                }
            }),
        ),
        (
            "partition",
            "partition_stream_weighted",
            trace_insts,
            Box::new(|| {
                for s in &streams {
                    black_box(partition_stream_weighted(
                        black_box(s),
                        &fgstp_small.partition,
                        &caps,
                    ));
                }
            }),
        ),
    ];
    for (kind, telemetry, name) in TIMING_ROWS {
        let traces = &traces;
        rows.push((
            "timing",
            name,
            trace_insts,
            Box::new(move || {
                let req = RunRequest {
                    telemetry,
                    ..RunRequest::default()
                };
                for t in traces {
                    black_box(run(kind, RunInput::Trace(black_box(t.insts())), &req));
                }
            }),
        ));
    }

    let ref_reps = reps_for(&reference);
    let mut out = Vec::new();
    for (layer, name, insts, sweep) in &rows {
        let reps = reps_for(sweep);
        let samples = (0..iters)
            .map(|_| {
                let ref_s = time_sweeps(&reference, ref_reps);
                Sample {
                    row_s: time_sweeps(sweep, reps),
                    calib_mips: func_insts as f64 / ref_s / 1e6,
                }
            })
            .collect();
        let m = Measurement {
            layer,
            name,
            insts: *insts,
            samples,
        };
        eprintln!(
            "bench: {:<12} {:<26} median {:>9.2} ms  {:>8.2} MIPS  norm {:>9.4}",
            m.layer,
            m.name,
            m.median_s() * 1e3,
            m.mips(m.median_s()),
            m.norm()
        );
        out.push(m);
    }
    (out, kernels)
}

/// Median reference MIPS over every sample of every row.
fn calib_mips(rows: &[Measurement]) -> f64 {
    median(
        rows.iter()
            .flat_map(|m| m.samples.iter().map(|s| s.calib_mips)),
    )
}

fn report(iters: usize, kernels: &[&'static str], rows: &[Measurement]) -> Json {
    Json::Obj(vec![
        ("schema".to_owned(), Json::Str(SCHEMA.to_owned())),
        ("scale".to_owned(), Json::Str(scale_word(SCALE).to_owned())),
        ("iterations".to_owned(), Json::Num(iters as f64)),
        (
            "kernels".to_owned(),
            Json::Arr(kernels.iter().map(|k| Json::Str((*k).to_owned())).collect()),
        ),
        ("calib_mips".to_owned(), Json::Num(round3(calib_mips(rows)))),
        (
            "rows".to_owned(),
            Json::Arr(rows.iter().map(Measurement::to_json).collect()),
        ),
    ])
}

/// One fresh row against the report it is checked against.
struct Verdict {
    name: &'static str,
    /// The recorded `norm`; `None` when the report lacks the row.
    recorded: Option<f64>,
    fresh: f64,
}

impl Verdict {
    fn ok(&self) -> bool {
        self.recorded.is_none_or(|r| self.fresh >= GATE * r)
    }
}

/// Pairs every fresh row with its recorded `norm`. A row recorded but
/// not measured gets no verdict.
fn gate(recorded: &Json, fresh: &[Measurement]) -> Vec<Verdict> {
    let rows = recorded.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    fresh
        .iter()
        .map(|m| Verdict {
            name: m.name,
            recorded: rows
                .iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(m.name))
                .and_then(|r| r.get("norm"))
                .and_then(Json::as_f64),
            fresh: m.norm(),
        })
        .collect()
}

/// Gate mode: fresh norms vs the rows recorded in `path`.
fn check(path: &str, iters: usize) {
    let doc = load_report(path);
    let (fresh, _) = measure(iters);
    let recorded_calib = doc.get("calib_mips").and_then(Json::as_f64);
    println!(
        "bench: calibration {:.2} MIPS recorded, {:.2} MIPS now",
        recorded_calib.expect("schema check validated `calib_mips`"),
        calib_mips(&fresh)
    );
    println!(
        "{:<26} {:>14} {:>12} {:>10} {:>8}",
        "row", "recorded norm", "fresh norm", "ratio", "gate"
    );
    let verdicts = gate(&doc, &fresh);
    for v in &verdicts {
        match v.recorded {
            None => println!("{:<26} {:>14} (not recorded — skipped)", v.name, "-"),
            Some(rec) => println!(
                "{:<26} {:>14.4} {:>12.4} {:>9.2}x {:>8}",
                v.name,
                rec,
                v.fresh,
                v.fresh / rec,
                if v.ok() { "ok" } else { "FAIL" }
            ),
        }
    }
    if !verdicts.iter().all(Verdict::ok) {
        eprintln!(
            "bench: a normalized throughput fell below {GATE} of the number in {path}; \
             investigate, or refresh the report if the slowdown is intended"
        );
        std::process::exit(1);
    }
    println!("bench: perf gate passed (fresh norm >= {GATE} x recorded)");
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.schema_check {
        load_report(path);
        println!("bench: {path} matches schema `{SCHEMA}`");
        return;
    }
    if let Some(path) = &args.check {
        check(path, args.iters);
        return;
    }
    let (rows, kernels) = measure(args.iters);
    let doc = report(args.iters, &kernels, &rows);
    std::fs::write(&args.out, doc.render()).unwrap_or_else(|e| {
        eprintln!("bench: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    println!("bench: wrote {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row whose every iteration sweeps in `row_s` seconds next to a
    /// reference sample of `calib_mips`.
    fn row(name: &'static str, row_s: f64, calib_mips: f64) -> Measurement {
        Measurement {
            layer: "test",
            name,
            insts: 1_000_000,
            samples: vec![Sample { row_s, calib_mips }; 3],
        }
    }

    /// Rows as measured on a host whose sweeps take `slowdown`× as long.
    fn host(slowdown: f64) -> Vec<Measurement> {
        vec![
            row("threaded", 0.005 * slowdown, 10.0 / slowdown),
            row("build_exec_stream", 0.1 * slowdown, 10.0 / slowdown),
            row("fgstp-small", 0.5 * slowdown, 10.0 / slowdown),
        ]
    }

    fn recorded() -> Json {
        report(3, &["perl_hash"], &host(1.0))
    }

    /// Applies `f` to the members of the recorded row called `name`.
    fn edit_row(doc: &mut Json, name: &str, f: impl FnOnce(&mut Vec<(String, Json)>)) {
        let Json::Obj(members) = doc else {
            panic!("report is an object")
        };
        let (_, Json::Arr(rows)) = members.iter_mut().find(|(k, _)| k == "rows").unwrap() else {
            panic!("`rows` is an array")
        };
        let row = rows
            .iter_mut()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .unwrap();
        let Json::Obj(fields) = row else {
            panic!("a row is an object")
        };
        f(fields);
    }

    #[test]
    fn a_measured_report_passes_the_schema_check() {
        let doc = recorded();
        assert_eq!(validate_schema(&doc), Ok(()));
        assert_eq!(
            validate_schema(&Json::parse(&doc.render()).unwrap()),
            Ok(())
        );
    }

    #[test]
    fn schema_check_rejects_a_row_missing_a_field() {
        let mut doc = recorded();
        edit_row(&mut doc, "fgstp-small", |f| {
            f.retain(|(k, _)| k != "median_s")
        });
        assert!(validate_schema(&doc).unwrap_err().contains("median_s"));
    }

    #[test]
    fn schema_check_rejects_a_non_finite_number() {
        let mut doc = recorded();
        edit_row(&mut doc, "fgstp-small", |f| {
            f.iter_mut().find(|(k, _)| k == "mips_best").unwrap().1 = Json::Num(f64::NAN);
        });
        assert!(validate_schema(&doc).unwrap_err().contains("mips_best"));
        // An overflowing literal parses to infinity and is rejected too.
        let text = recorded()
            .render()
            .replace("\"calib_mips\": 10", "\"calib_mips\": 1e999");
        let err = validate_schema(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("calib_mips"));
    }

    #[test]
    fn schema_check_holds_the_threaded_norm_to_the_floor() {
        let mut doc = recorded();
        edit_row(&mut doc, "threaded", |f| {
            f.iter_mut().find(|(k, _)| k == "norm").unwrap().1 = Json::Num(9.99);
        });
        assert!(validate_schema(&doc).unwrap_err().contains("floor"));
    }

    #[test]
    fn gate_passes_a_uniformly_slower_host() {
        let fresh = host(2.0);
        assert!((calib_mips(&fresh) - 0.5 * calib_mips(&host(1.0))).abs() < 1e-9);
        let verdicts = gate(&recorded(), &fresh);
        assert_eq!(verdicts.len(), 3);
        assert!(verdicts.iter().all(|v| v.recorded.is_some() && v.ok()));
    }

    #[test]
    fn gate_fails_one_row_that_slows_alone() {
        let mut fresh = host(1.0);
        fresh[2] = row("fgstp-small", 0.5 / 0.4, 10.0);
        let verdicts = gate(&recorded(), &fresh);
        let failed: Vec<_> = verdicts
            .iter()
            .filter(|v| !v.ok())
            .map(|v| v.name)
            .collect();
        assert_eq!(failed, ["fgstp-small"]);
    }

    #[test]
    fn gate_skips_rows_missing_on_either_side() {
        // `threaded` and `build_exec_stream` are recorded but not
        // measured; the new row is measured but not recorded.
        let fresh = vec![row("fgstp-small", 0.5, 10.0), row("new-row", 9.0, 10.0)];
        let verdicts = gate(&recorded(), &fresh);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts[1].recorded.is_none());
        assert!(verdicts.iter().all(Verdict::ok));
    }
}
