//! # fgstp-tracefile
//!
//! Compact binary serialization for committed-path traces, plus the
//! on-disk trace cache used by the `fgstp-sim` session driver.
//!
//! Reference-scale traces run to hundreds of thousands of dynamic
//! instructions per workload; re-tracing every kernel for every experiment
//! sweep repeats identical functional work. This crate persists a
//! [`fgstp_isa::DynInst`] stream to a compact binary format (LEB128
//! varints, presence flags for optional fields) and restores it exactly.
//! Everything is plain `Vec<u8>`/`&[u8]` — the crate has no external
//! dependencies, so the workspace builds with no network access.
//!
//! Format (version 2, block-framed):
//!
//! ```text
//! "FGTR" magic | u32 version | varint total_count | block*
//! block:  varint block_count | varint payload_bytes
//!         | payload (block_count x record) | u64 LE FNV-1a(payload)
//! record: opcode u8 | rd u8 | rs1 u8 | rs2 u8 | zigzag-varint imm
//!         | flags u8 (addr?, taken?, taken-value, rd_value?, store_value?)
//!         | varint pc | varint next_pc | optional fields in order
//! ```
//!
//! Records are framed in blocks of [`BLOCK_INSTS`] instructions, each with
//! its own checksum, so [`TraceReader`] can stream a trace — validating as
//! it goes — without materializing the decoded `Vec<DynInst>`. Readers
//! accept only the current version; any other is a
//! [`TraceFileError::BadVersion`].
//!
//! [`TraceCache`] wraps this format with a whole-file checksum footer and
//! a name-keyed directory layout; see the [`cache`] module docs for the
//! location, key and invalidation rules.
//!
//! ```
//! use fgstp_isa::{assemble, trace_program};
//! use fgstp_tracefile::{read_trace, write_trace, TraceReader};
//!
//! let p = assemble("li x1, 7\nadd x2, x1, x1\nhalt")?;
//! let t = trace_program(&p, 100)?;
//! let bytes = write_trace(t.insts());
//! assert_eq!(read_trace(&bytes)?, t.insts());
//! // Or stream it, one record at a time:
//! let mut n = 0;
//! for rec in TraceReader::new(&bytes)? {
//!     let _d = rec?;
//!     n += 1;
//! }
//! assert_eq!(n, t.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::fs;
use std::path::Path;

use fgstp_isa::{DynInst, Inst, Op, Reg};

pub mod cache;
mod varint;

pub use cache::TraceCache;
pub use varint::{read_varint, write_varint, zigzag_decode, zigzag_encode};

const MAGIC: &[u8; 4] = b"FGTR";

/// On-disk trace format version; bumping it invalidates every cache file
/// and every `ExperimentSpec` dedup key derived from it.
pub const VERSION: u32 = 2;

/// Records per block in the current format. Large enough that framing
/// overhead (two varints and an 8-byte checksum per block) is noise,
/// small enough that a streaming consumer touches at most a few tens of
/// kilobytes per validation unit.
pub const BLOCK_INSTS: usize = 4096;

/// Error decoding a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// An opcode byte outside the ISA.
    BadOpcode(u8),
    /// A register index outside the architectural space.
    BadRegister(u8),
    /// The buffer ended mid-record or mid-block.
    Truncated,
    /// A block or cache-file checksum did not match its payload.
    BadChecksum,
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "i/o error: {e}"),
            TraceFileError::BadMagic => f.write_str("not a trace file (bad magic)"),
            TraceFileError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceFileError::BadOpcode(b) => write!(f, "invalid opcode byte {b}"),
            TraceFileError::BadRegister(b) => write!(f, "invalid register index {b}"),
            TraceFileError::Truncated => f.write_str("trace file truncated"),
            TraceFileError::BadChecksum => f.write_str("trace file checksum mismatch"),
        }
    }
}

impl std::error::Error for TraceFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceFileError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceFileError {
    fn from(e: std::io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// 64-bit FNV-1a: the integrity check for blocks and cache files.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stable opcode numbering: position in [`Op::all`].
fn op_code(op: Op) -> u8 {
    Op::all().position(|o| o == op).expect("op in table") as u8
}

fn op_from_code(code: u8) -> Option<Op> {
    Op::all().nth(usize::from(code))
}

const FLAG_ADDR: u8 = 1 << 0;
const FLAG_TAKEN_PRESENT: u8 = 1 << 1;
const FLAG_TAKEN_VALUE: u8 = 1 << 2;
const FLAG_RD_VALUE: u8 = 1 << 3;
const FLAG_STORE_VALUE: u8 = 1 << 4;

/// Encodes one record.
fn write_record(buf: &mut Vec<u8>, d: &DynInst) {
    buf.push(op_code(d.inst.op));
    buf.push(d.inst.rd.index() as u8);
    buf.push(d.inst.rs1.index() as u8);
    buf.push(d.inst.rs2.index() as u8);
    write_varint(buf, zigzag_encode(d.inst.imm));
    let mut flags = 0u8;
    if d.addr.is_some() {
        flags |= FLAG_ADDR;
    }
    if let Some(t) = d.taken {
        flags |= FLAG_TAKEN_PRESENT;
        if t {
            flags |= FLAG_TAKEN_VALUE;
        }
    }
    if d.rd_value.is_some() {
        flags |= FLAG_RD_VALUE;
    }
    if d.store_value.is_some() {
        flags |= FLAG_STORE_VALUE;
    }
    buf.push(flags);
    write_varint(buf, d.pc);
    write_varint(buf, d.next_pc);
    if let Some(a) = d.addr {
        write_varint(buf, a);
    }
    if let Some(v) = d.rd_value {
        write_varint(buf, v);
    }
    if let Some(v) = d.store_value {
        write_varint(buf, v);
    }
}

fn take_u8(buf: &mut &[u8]) -> Result<u8, TraceFileError> {
    let (&b, rest) = buf.split_first().ok_or(TraceFileError::Truncated)?;
    *buf = rest;
    Ok(b)
}

fn read_reg(buf: &mut &[u8]) -> Result<Reg, TraceFileError> {
    let b = take_u8(buf)?;
    Reg::from_index(b).ok_or(TraceFileError::BadRegister(b))
}

/// Decodes one record, assigning `seq`.
fn read_record(buf: &mut &[u8], seq: u64) -> Result<DynInst, TraceFileError> {
    let opcode = take_u8(buf)?;
    let op = op_from_code(opcode).ok_or(TraceFileError::BadOpcode(opcode))?;
    let rd = read_reg(buf)?;
    let rs1 = read_reg(buf)?;
    let rs2 = read_reg(buf)?;
    let imm = zigzag_decode(read_varint(buf).ok_or(TraceFileError::Truncated)?);
    let flags = take_u8(buf)?;
    let pc = read_varint(buf).ok_or(TraceFileError::Truncated)?;
    let next_pc = read_varint(buf).ok_or(TraceFileError::Truncated)?;
    let addr = if flags & FLAG_ADDR != 0 {
        Some(read_varint(buf).ok_or(TraceFileError::Truncated)?)
    } else {
        None
    };
    let rd_value = if flags & FLAG_RD_VALUE != 0 {
        Some(read_varint(buf).ok_or(TraceFileError::Truncated)?)
    } else {
        None
    };
    let store_value = if flags & FLAG_STORE_VALUE != 0 {
        Some(read_varint(buf).ok_or(TraceFileError::Truncated)?)
    } else {
        None
    };
    let taken = if flags & FLAG_TAKEN_PRESENT != 0 {
        Some(flags & FLAG_TAKEN_VALUE != 0)
    } else {
        None
    };
    Ok(DynInst {
        seq,
        pc,
        inst: Inst {
            op,
            rd,
            rs1,
            rs2,
            imm,
        },
        next_pc,
        addr,
        taken,
        rd_value,
        store_value,
    })
}

/// Serializes a trace to its binary representation (current version:
/// block-framed with per-block checksums).
pub fn write_trace(insts: &[DynInst]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + insts.len() * 12);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    write_varint(&mut buf, insts.len() as u64);
    let mut payload = Vec::with_capacity(BLOCK_INSTS * 12);
    for chunk in insts.chunks(BLOCK_INSTS) {
        payload.clear();
        for d in chunk {
            write_record(&mut payload, d);
        }
        write_varint(&mut buf, chunk.len() as u64);
        write_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    }
    buf
}

/// Shared cursor over a trace buffer; drives both the borrowing
/// [`TraceReader`] and the owning [`OwnedTraceReader`].
#[derive(Debug, Clone)]
struct ReaderState {
    total: u64,
    emitted: u64,
    /// Absolute offset of the next unread byte.
    pos: usize,
    /// Absolute end of the current block's payload.
    block_end: usize,
    /// Records remaining in the current block.
    block_left: u64,
    /// A decode error poisons the reader: one `Err` is yielded, then
    /// `None` forever.
    failed: bool,
}

impl ReaderState {
    fn new(data: &[u8]) -> Result<ReaderState, TraceFileError> {
        if data.len() < 8 {
            return Err(TraceFileError::Truncated);
        }
        if &data[..4] != MAGIC {
            return Err(TraceFileError::BadMagic);
        }
        let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(TraceFileError::BadVersion(version));
        }
        let mut buf = &data[8..];
        let total = read_varint(&mut buf).ok_or(TraceFileError::Truncated)?;
        // A record is at least 8 bytes; reject counts the buffer cannot
        // hold before anyone reserves memory for them.
        if total > (buf.len() / 8) as u64 {
            return Err(TraceFileError::Truncated);
        }
        let pos = data.len() - buf.len();
        // A zero `block_left` forces a block-header parse on the first record.
        Ok(ReaderState {
            total,
            emitted: 0,
            pos,
            block_end: pos,
            block_left: 0,
            failed: false,
        })
    }

    /// Parses the next block header and verifies its payload checksum.
    fn enter_block(&mut self, data: &[u8]) -> Result<(), TraceFileError> {
        if self.pos >= data.len() {
            return Err(TraceFileError::Truncated);
        }
        let mut buf = &data[self.pos..];
        let count = read_varint(&mut buf).ok_or(TraceFileError::Truncated)?;
        let payload_len = read_varint(&mut buf).ok_or(TraceFileError::Truncated)?;
        let payload_len = usize::try_from(payload_len).map_err(|_| TraceFileError::Truncated)?;
        if payload_len > buf.len().saturating_sub(8) {
            return Err(TraceFileError::Truncated);
        }
        let payload = &buf[..payload_len];
        let footer = &buf[payload_len..payload_len + 8];
        if fnv1a(payload) != u64::from_le_bytes(footer.try_into().expect("8 bytes")) {
            return Err(TraceFileError::BadChecksum);
        }
        let payload_start = data.len() - buf.len();
        self.pos = payload_start;
        self.block_end = payload_start + payload_len;
        self.block_left = count;
        if count == 0 {
            // Skip a degenerate empty block instead of spinning on it.
            self.pos = self.block_end + 8;
        }
        Ok(())
    }

    fn next(&mut self, data: &[u8]) -> Option<Result<DynInst, TraceFileError>> {
        if self.failed || self.emitted >= self.total {
            return None;
        }
        while self.block_left == 0 {
            if let Err(e) = self.enter_block(data) {
                self.failed = true;
                return Some(Err(e));
            }
        }
        let mut buf = &data[self.pos..self.block_end];
        match read_record(&mut buf, self.emitted) {
            Ok(d) => {
                self.pos = self.block_end - buf.len();
                self.emitted += 1;
                self.block_left -= 1;
                if self.block_left == 0 {
                    // Past the payload (any slack included) and checksum.
                    self.pos = self.block_end + 8;
                }
                Some(Ok(d))
            }
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }

    fn remaining(&self) -> u64 {
        self.total - self.emitted
    }
}

/// Streaming decoder over a borrowed trace buffer.
///
/// Yields one `Result<DynInst, TraceFileError>` per record, in commit
/// order with dense `seq`, validating block checksums as each block is
/// entered — the full decoded `Vec<DynInst>` is never materialized. The
/// first error poisons the iterator: it is yielded once, then the
/// iterator ends.
#[derive(Debug, Clone)]
pub struct TraceReader<'a> {
    data: &'a [u8],
    state: ReaderState,
}

impl<'a> TraceReader<'a> {
    /// Opens a reader over an encoded trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceFileError`] if the header is malformed, the
    /// version is unsupported, or the declared record count cannot fit in
    /// the buffer.
    pub fn new(data: &'a [u8]) -> Result<TraceReader<'a>, TraceFileError> {
        Ok(TraceReader {
            state: ReaderState::new(data)?,
            data,
        })
    }

    /// Total number of records the file declares.
    pub fn total(&self) -> u64 {
        self.state.total
    }
}

impl Iterator for TraceReader<'_> {
    type Item = Result<DynInst, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.state.next(self.data)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.state.remaining() as usize;
        if self.state.failed {
            (0, Some(0))
        } else {
            (0, Some(rem))
        }
    }
}

/// Streaming decoder that owns its buffer and cannot fail.
///
/// Produced by [`TraceCache::open_stream`], which fully validates the
/// file (structure, every record, every block checksum) before handing
/// out the iterator; iteration then yields plain [`DynInst`]s. Holding
/// the compact encoded bytes (~10 B/record) instead of the decoded
/// vector (~100 B/record) is what lets sessions replay cached traces
/// without materializing them.
#[derive(Debug, Clone)]
pub struct OwnedTraceReader {
    data: Vec<u8>,
    state: ReaderState,
}

impl OwnedTraceReader {
    /// Wraps a buffer that has already been validated end to end.
    pub(crate) fn new_validated(data: Vec<u8>) -> OwnedTraceReader {
        let state = ReaderState::new(&data).expect("buffer was validated");
        OwnedTraceReader { data, state }
    }

    /// Total number of records in the trace.
    pub fn total(&self) -> u64 {
        self.state.total
    }

    /// Records not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.state.remaining()
    }
}

impl Iterator for OwnedTraceReader {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        self.state
            .next(&self.data)
            .map(|r| r.expect("buffer was validated"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.state.remaining() as usize;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for OwnedTraceReader {}

/// Deserializes a trace from its binary representation.
///
/// # Errors
///
/// Returns a [`TraceFileError`] describing the first malformation found.
pub fn read_trace(data: &[u8]) -> Result<Vec<DynInst>, TraceFileError> {
    let reader = TraceReader::new(data)?;
    // Safe to reserve: the header guard bounds `total` by the buffer size.
    let mut out = Vec::with_capacity(reader.total() as usize);
    for rec in reader {
        out.push(rec?);
    }
    Ok(out)
}

/// Writes a trace to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save(path: impl AsRef<Path>, insts: &[DynInst]) -> Result<(), TraceFileError> {
    fs::write(path, write_trace(insts))?;
    Ok(())
}

/// Loads a trace from `path`.
///
/// # Errors
///
/// Propagates filesystem errors and format malformations.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<DynInst>, TraceFileError> {
    let data = fs::read(path)?;
    read_trace(&data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgstp_isa::{assemble, trace_program};

    fn sample() -> Vec<DynInst> {
        let p = assemble(
            r#"
                li x1, 0x1000
                li x2, -5
            loop:
                sd  x2, 0(x1)
                ld  x3, 0(x1)
                addi x2, x2, 1
                bne x2, x0, loop
                halt
            "#,
        )
        .unwrap();
        trace_program(&p, 100_000).unwrap().insts().to_vec()
    }

    /// Wraps `payload` (claiming `count` records) in valid v2 framing —
    /// header, block header and a *correct* checksum — so record-level
    /// malformations are reachable past the checksum.
    fn frame_v2(count: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        write_varint(&mut buf, count);
        write_varint(&mut buf, count);
        write_varint(&mut buf, payload.len() as u64);
        buf.extend_from_slice(payload);
        buf.extend_from_slice(&fnv1a(payload).to_le_bytes());
        buf
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let t = sample();
        let bytes = write_trace(&t);
        let back = read_trace(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn empty_trace_round_trips() {
        let bytes = write_trace(&[]);
        assert!(read_trace(&bytes).unwrap().is_empty());
    }

    #[test]
    fn multi_block_traces_round_trip() {
        // Tile the sample out past several block boundaries, re-sequencing
        // so `seq` stays dense the way a real trace is.
        let unit = sample();
        let mut t = Vec::new();
        while t.len() < 3 * BLOCK_INSTS + 17 {
            t.extend(unit.iter().copied());
        }
        for (i, d) in t.iter_mut().enumerate() {
            d.seq = i as u64;
        }
        let bytes = write_trace(&t);
        assert_eq!(read_trace(&bytes).unwrap(), t);
        // And the streaming reader agrees record for record.
        let reader = TraceReader::new(&bytes).unwrap();
        assert_eq!(reader.total(), t.len() as u64);
        for (got, want) in reader.zip(t.iter()) {
            assert_eq!(&got.unwrap(), want);
        }
    }

    #[test]
    fn v1_stamped_buffers_are_a_bad_version() {
        // The retired unframed format: header, then bare records.
        let t = sample();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        write_varint(&mut bytes, t.len() as u64);
        for d in &t {
            write_record(&mut bytes, d);
        }
        assert!(matches!(
            read_trace(&bytes),
            Err(TraceFileError::BadVersion(1))
        ));
        assert!(matches!(
            TraceReader::new(&bytes),
            Err(TraceFileError::BadVersion(1))
        ));
    }

    #[test]
    fn format_is_compact() {
        let t = sample();
        let bytes = write_trace(&t);
        // In-memory DynInst is ~100 bytes; on disk we want well under 20.
        let per_inst = bytes.len() as f64 / t.len() as f64;
        assert!(per_inst < 20.0, "{per_inst} bytes/instruction");
    }

    #[test]
    fn corrupted_inputs_are_rejected_not_panicked() {
        let t = sample();
        let good = write_trace(&t);
        assert!(matches!(
            read_trace(&good[..2]),
            Err(TraceFileError::Truncated)
        ));
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_trace(&bad_magic),
            Err(TraceFileError::BadMagic)
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            read_trace(&bad_version),
            Err(TraceFileError::BadVersion(99))
        ));
        for cut in [9, 15, good.len() / 2, good.len() - 1] {
            assert!(read_trace(&good[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_block_checksum() {
        let t = sample();
        let mut bytes = write_trace(&t);
        // Flip a byte well inside the first (only) block's payload: the
        // per-block checksum catches it before record decoding trusts it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(matches!(
            read_trace(&bytes),
            Err(TraceFileError::BadChecksum)
        ));
    }

    #[test]
    fn streaming_reader_poisons_after_first_error() {
        let t = sample();
        let mut bytes = write_trace(&t);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let mut reader = TraceReader::new(&bytes).unwrap();
        assert!(matches!(
            reader.next(),
            Some(Err(TraceFileError::BadChecksum))
        ));
        assert!(reader.next().is_none(), "error is terminal");
    }

    #[test]
    fn mid_block_eof_is_truncation() {
        let unit = sample();
        let mut t = Vec::new();
        // Just over one block: a full first block plus a short second one.
        while t.len() <= BLOCK_INSTS {
            t.extend(unit.iter().copied());
        }
        for (i, d) in t.iter_mut().enumerate() {
            d.seq = i as u64;
        }
        let good = write_trace(&t);
        // Cut inside the second block: the first block must still stream
        // cleanly, then the reader reports truncation.
        let cut = &good[..good.len() - 40];
        let mut n = 0usize;
        let mut saw_err = false;
        for rec in TraceReader::new(cut).unwrap() {
            match rec {
                Ok(d) => {
                    assert_eq!(d, t[n]);
                    n += 1;
                }
                Err(e) => {
                    assert!(matches!(e, TraceFileError::Truncated));
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err, "truncation must surface as an error");
        assert_eq!(n, BLOCK_INSTS, "the intact first block decodes fully");
    }

    #[test]
    fn bad_opcode_and_register_are_rejected() {
        // Record bytes: opcode, rd, rs1, rs2, imm=0, flags=0, pc=0,
        // next_pc=0. Framed with a *valid* checksum so the record-level
        // error is what surfaces.
        let bad_op = frame_v2(1, &[255, 0, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            read_trace(&bad_op),
            Err(TraceFileError::BadOpcode(255))
        ));
        let bad_reg = frame_v2(1, &[0, 200, 0, 0, 0, 0, 0, 0]);
        assert!(matches!(
            read_trace(&bad_reg),
            Err(TraceFileError::BadRegister(200))
        ));
    }

    #[test]
    fn record_straddling_a_block_boundary_is_truncation() {
        // A block whose payload ends mid-record: 4 of the 8 minimum bytes.
        let bytes = frame_v2(1, &[0, 0, 0, 0]);
        assert!(matches!(read_trace(&bytes), Err(TraceFileError::Truncated)));
    }

    #[test]
    fn huge_count_does_not_reserve_memory() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        write_varint(&mut bytes, u64::MAX);
        assert!(matches!(read_trace(&bytes), Err(TraceFileError::Truncated)));
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let t = sample();
        let dir = std::env::temp_dir().join("fgstp-tracefile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.fgtr");
        save(&path, &t).unwrap();
        assert_eq!(load(&path).unwrap(), t);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn opcode_table_is_stable_and_total() {
        for op in Op::all() {
            assert_eq!(op_from_code(op_code(op)), Some(op));
        }
        assert!(op_from_code(200).is_none());
    }
}
