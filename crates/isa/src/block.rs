//! Basic-block lowering for decode-once replay.
//!
//! A configuration sweep replays the same [`PackedTrace`] hundreds of
//! times (§4.1 capture-once / replay-many). Walking it one record at a
//! time unpacks every dynamic instruction on every replay.
//! [`BlockTrace`] moves that work to lowering time: the dynamic trace is
//! segmented into *basic blocks* — maximal runs of ops ending at each
//! control-flow change — and identical blocks are deduplicated into
//! static *templates*, each an op range into a shared pool of
//! pre-decoded [`TraceOp`]s. Replay then streams one `u32` template id
//! per dynamic block instead of sixteen bytes per op, and each pooled
//! op was decoded exactly once.
//!
//! The lowering is purely a re-encoding: [`BlockTrace::iter`] yields
//! exactly the ops of the source trace, in order, and the simulator
//! asserts bit-identical `SimStats` between block-mode and per-op
//! replay (see `tests/block_replay_differential.rs` in the workspace
//! root).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{self, Read, Write};

use crate::packed::PackedTrace;
use crate::trace::{TraceOp, TraceStats};
use crate::trace_io::{TraceReader, TraceWriter};

/// Template dedup map. Hashing every dynamic block dominates lowering
/// cost with the default SipHash, so the map uses a multiply-fold
/// hasher (FxHash-style): lowering is a trusted offline step with no
/// adversarial keys, and the op encoding mixes well under
/// multiplication.
type DedupMap = HashMap<Vec<TraceOp>, u32, BuildHasherDefault<FxHasher>>;

/// Word-at-a-time multiply-fold hasher for the dedup map.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// Hard cap on ops per block. Blocks longer than this (straight-line
/// stretches with no control flow) are split; the split is invisible to
/// replay semantics and bounds the size of each dedup key.
pub const MAX_BLOCK_OPS: usize = 64;

/// One deduplicated static block: an op range into the shared pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockTemplate {
    /// First op index in the [`BlockTrace`] pool.
    start: u32,
    /// Number of ops (1 ..= [`MAX_BLOCK_OPS`]).
    len: u16,
}

/// A dynamic trace lowered to deduplicated basic blocks.
///
/// Layout: `pool` concatenates the pre-decoded ops of every distinct
/// template; `seq` holds one template id per *dynamic* block instance.
/// Loops collapse to repeated ids, so replay streams ~4 bytes per
/// executed block instead of 16 bytes per executed op and the decoded
/// templates stay hot in cache.
///
/// ```
/// use aurora_isa::{BlockTrace, OpKind, PackedTrace, TraceOp};
///
/// let branch = TraceOp::bare(8, OpKind::Branch { taken: true, target: 0 });
/// let body = [TraceOp::bare(0, OpKind::IntAlu), TraceOp::bare(4, OpKind::IntAlu), branch];
/// // Two iterations of the same loop body...
/// let trace: PackedTrace = body.iter().chain(body.iter()).copied().collect();
/// let blocks = BlockTrace::lower(&trace);
/// // ...lower to ONE static template of three ops, replayed twice.
/// assert_eq!(blocks.static_ops(), 3);
/// assert_eq!(blocks.len(), 6);
/// assert_eq!(blocks.iter().count(), 6);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTrace {
    pool: Vec<TraceOp>,
    templates: Vec<BlockTemplate>,
    seq: Vec<u32>,
    total_ops: u64,
    stats: TraceStats,
}

impl BlockTrace {
    /// Lowers a packed trace: segments it at control-flow ops (and at
    /// the [`MAX_BLOCK_OPS`] cap) and deduplicates identical blocks into
    /// templates.
    pub fn lower(trace: &PackedTrace) -> BlockTrace {
        let mut b = BlockTrace::lower_ops(trace.iter());
        b.stats = *trace.stats();
        b
    }

    /// Lowers an arbitrary op stream (trace statistics are recomputed).
    pub fn lower_ops(ops: impl IntoIterator<Item = TraceOp>) -> BlockTrace {
        let mut out = BlockTrace::default();
        let mut dedup: DedupMap = HashMap::default();
        let mut cur: Vec<TraceOp> = Vec::with_capacity(MAX_BLOCK_OPS);
        for op in ops {
            out.stats.record(&op);
            cur.push(op);
            if op.kind.is_control_flow() || cur.len() == MAX_BLOCK_OPS {
                out.emit(&mut dedup, &mut cur);
            }
        }
        out.emit(&mut dedup, &mut cur);
        out
    }

    fn emit(&mut self, dedup: &mut DedupMap, cur: &mut Vec<TraceOp>) {
        if cur.is_empty() {
            return;
        }
        self.total_ops += cur.len() as u64;
        if let Some(&id) = dedup.get(cur.as_slice()) {
            self.seq.push(id);
            cur.clear();
            return;
        }
        let id = u32::try_from(self.templates.len()).unwrap_or(u32::MAX);
        self.templates.push(BlockTemplate {
            start: u32::try_from(self.pool.len()).unwrap_or(u32::MAX),
            len: u16::try_from(cur.len()).unwrap_or(u16::MAX),
        });
        self.pool.extend_from_slice(cur);
        // Clone the key (one allocation per *unique* template) so `cur`
        // keeps its capacity for the next — usually deduplicated — block.
        dedup.insert(cur.clone(), id);
        cur.clear();
        self.seq.push(id);
    }

    /// Total dynamic instruction count (equals the source trace length).
    pub fn len(&self) -> u64 {
        self.total_ops
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.total_ops == 0
    }

    /// Number of pre-decoded ops held by the template pool — the
    /// *static* footprint the dynamic trace collapsed to.
    pub fn static_ops(&self) -> usize {
        self.pool.len()
    }

    /// Dynamic-to-static reuse factor: executed ops per pooled op.
    /// Loop-dominated traces score high; straight-line code scores ~1.
    pub fn reuse_factor(&self) -> f64 {
        if self.pool.is_empty() {
            return 0.0;
        }
        self.total_ops as f64 / self.pool.len() as f64
    }

    /// Aggregate statistics of the source trace.
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Iterates over the dynamic op stream the lowering encodes —
    /// exactly the ops of the source trace, in order. Each op is copied
    /// out of its pre-decoded template, so nothing is unpacked: this is
    /// the op source of decode-once block replay.
    pub fn iter(&self) -> impl Iterator<Item = TraceOp> + '_ {
        self.seq.iter().flat_map(move |&id| {
            let ops = self.templates.get(id as usize).and_then(|t| {
                let start = t.start as usize;
                self.pool.get(start..start + usize::from(t.len))
            });
            ops.unwrap_or_default().iter().copied()
        })
    }
}

/// Magic number of the serialised block-trace format.
const BLOCK_MAGIC: &[u8; 8] = b"AUR3BLK\0";

/// On-disk layout version of [`BlockTrace::write_to`]. Bump when the
/// section layout changes.
pub const BLOCK_FORMAT_VERSION: u32 = 1;

/// Number of `u64` words in the serialised [`TraceStats`] section.
const TRACE_STAT_WORDS: usize = 11;

fn bad_blk(msg: impl fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("block trace file: {msg}"),
    )
}

fn stat_words(s: &TraceStats) -> [u64; TRACE_STAT_WORDS] {
    [
        s.total,
        s.int_alu,
        s.int_muldiv,
        s.loads,
        s.stores,
        s.fp_loads,
        s.fp_stores,
        s.branches,
        s.taken_branches,
        s.jumps,
        s.fp_ops,
    ]
}

fn stats_from_words(w: &[u64; TRACE_STAT_WORDS]) -> TraceStats {
    TraceStats {
        total: w[0],
        int_alu: w[1],
        int_muldiv: w[2],
        loads: w[3],
        stores: w[4],
        fp_loads: w[5],
        fp_stores: w[6],
        branches: w[7],
        taken_branches: w[8],
        jumps: w[9],
        fp_ops: w[10],
    }
}

fn read_u32<R: Read>(source: &mut R) -> io::Result<u32> {
    let mut word = [0u8; 4];
    source.read_exact(&mut word)?;
    Ok(u32::from_le_bytes(word))
}

fn read_u64<R: Read>(source: &mut R) -> io::Result<u64> {
    let mut word = [0u8; 8];
    source.read_exact(&mut word)?;
    Ok(u64::from_le_bytes(word))
}

impl BlockTrace {
    /// Serialises the lowering so a sweep can skip both the emulator
    /// capture *and* the lowering pass on later runs (the `.blk` disk
    /// cache in `aurora-workloads`' trace store).
    ///
    /// Only op data crosses the boundary: the header, the source-trace
    /// statistics, one op count per template, the dynamic instance
    /// sequence, and the pooled ops as an embedded `trace_io` stream
    /// (last, so the record stream is end-of-file-delimited). Template
    /// starts are implied by the counts — pool extents are contiguous
    /// by construction — so a round trip exactly reproduces a fresh
    /// lowering.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_to<W: Write>(&self, mut sink: W) -> io::Result<()> {
        sink.write_all(BLOCK_MAGIC)?;
        sink.write_all(&BLOCK_FORMAT_VERSION.to_le_bytes())?;
        sink.write_all(&self.total_ops.to_le_bytes())?;
        for word in stat_words(&self.stats) {
            sink.write_all(&word.to_le_bytes())?;
        }
        let n = u32::try_from(self.templates.len()).map_err(|_| bad_blk("too many templates"))?;
        sink.write_all(&n.to_le_bytes())?;
        for tmpl in &self.templates {
            sink.write_all(&u32::from(tmpl.len).to_le_bytes())?;
        }
        let n = u32::try_from(self.seq.len()).map_err(|_| bad_blk("too many instances"))?;
        sink.write_all(&n.to_le_bytes())?;
        for id in &self.seq {
            sink.write_all(&id.to_le_bytes())?;
        }
        let mut w = TraceWriter::new(sink)?;
        for op in &self.pool {
            w.write(op)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Reads a lowering written by [`BlockTrace::write_to`]; the result
    /// is bit-identical to lowering the source trace afresh.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a malformed header, record or section
    /// (bad magic, unsupported version, out-of-range template extents or
    /// instance ids, op counts that disagree with the stored totals),
    /// and propagates I/O errors. Callers using the format as a cache
    /// treat any error as a miss and re-lower.
    pub fn read_from<R: Read>(mut source: R) -> io::Result<BlockTrace> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        if &magic != BLOCK_MAGIC {
            return Err(bad_blk("bad magic"));
        }
        let version = read_u32(&mut source)?;
        if version != BLOCK_FORMAT_VERSION {
            return Err(bad_blk(format!("unsupported version {version}")));
        }
        let total_ops = read_u64(&mut source)?;
        let mut words = [0u64; TRACE_STAT_WORDS];
        for word in &mut words {
            *word = read_u64(&mut source)?;
        }
        let stats = stats_from_words(&words);
        if stats.total != total_ops {
            return Err(bad_blk("trace statistics disagree with op total"));
        }
        let n_templates = read_u32(&mut source)? as usize;
        // Reserve conservatively: a lying count fails at the first
        // truncated read instead of a huge up-front allocation.
        let mut lens: Vec<usize> = Vec::with_capacity(n_templates.min(1 << 16));
        for _ in 0..n_templates {
            let len = read_u32(&mut source)? as usize;
            if len == 0 || len > MAX_BLOCK_OPS {
                return Err(bad_blk("template length out of range"));
            }
            lens.push(len);
        }
        let n_seq = read_u32(&mut source)? as usize;
        let mut seq: Vec<u32> = Vec::with_capacity(n_seq.min(1 << 20));
        for _ in 0..n_seq {
            seq.push(read_u32(&mut source)?);
        }
        let pool: Vec<TraceOp> = TraceReader::new(source)?.collect::<io::Result<_>>()?;
        let mut templates = Vec::with_capacity(lens.len());
        let mut start = 0usize;
        for len in lens {
            let end = start
                .checked_add(len)
                .filter(|&e| e <= pool.len())
                .ok_or_else(|| bad_blk("template extent out of range"))?;
            templates.push(BlockTemplate {
                start: u32::try_from(start).map_err(|_| bad_blk("op pool too large"))?,
                len: u16::try_from(len).map_err(|_| bad_blk("template length out of range"))?,
            });
            start = end;
        }
        if start != pool.len() {
            return Err(bad_blk("templates do not tile the op pool"));
        }
        let mut counted = 0u64;
        for &id in &seq {
            let tmpl = templates
                .get(id as usize)
                .ok_or_else(|| bad_blk("instance id out of range"))?;
            counted += u64::from(tmpl.len);
        }
        if counted != total_ops {
            return Err(bad_blk("instance ops disagree with op total"));
        }
        Ok(BlockTrace {
            pool,
            templates,
            seq,
            total_ops,
            stats,
        })
    }
}

impl fmt::Display for BlockTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops in {} blocks ({} templates, {} pooled ops, reuse {:.1}x)",
            self.total_ops,
            self.seq.len(),
            self.templates.len(),
            self.pool.len(),
            self.reuse_factor()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ArchReg, MemWidth, OpKind};

    fn alu(pc: u32, dst: u8, src: u8) -> TraceOp {
        TraceOp {
            pc,
            kind: OpKind::IntAlu,
            dst: Some(ArchReg::Int(dst)),
            src1: Some(ArchReg::Int(src)),
            src2: None,
        }
    }

    fn branch(pc: u32, taken: bool) -> TraceOp {
        TraceOp::bare(pc, OpKind::Branch { taken, target: 0 })
    }

    #[test]
    fn segments_at_control_flow_and_dedups() {
        let body = [alu(0, 1, 2), alu(4, 3, 1), branch(8, true)];
        let ops: Vec<TraceOp> = body
            .iter()
            .chain(body.iter())
            .chain(body.iter())
            .copied()
            .collect();
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.templates.len(), 1);
        assert_eq!(b.seq, [0, 0, 0]);
        assert_eq!(b.len(), 9);
        assert_eq!(b.static_ops(), 3);
        assert!((b.reuse_factor() - 3.0).abs() < 1e-9);
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn long_straight_line_splits_at_cap() {
        let ops: Vec<TraceOp> = (0..150u32).map(|i| alu(4 * i, 1, 2)).collect();
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.seq.len(), 3); // 64 + 64 + 22
        assert!(b
            .templates
            .iter()
            .all(|t| usize::from(t.len) <= MAX_BLOCK_OPS));
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn trailing_partial_block_is_kept() {
        let ops = [alu(0, 1, 2), branch(4, false), alu(8, 3, 4), alu(12, 5, 3)];
        let b = BlockTrace::lower_ops(ops.iter().copied());
        assert_eq!(b.seq.len(), 2);
        assert_eq!(b.len(), 4);
        let replayed: Vec<TraceOp> = b.iter().collect();
        assert_eq!(replayed, ops.to_vec());
    }

    #[test]
    fn empty_trace_lowers_to_nothing() {
        let b = BlockTrace::lower_ops(std::iter::empty());
        assert!(b.is_empty());
        assert_eq!(b.templates.len(), 0);
        assert_eq!(b.seq.len(), 0);
        assert_eq!(b.iter().count(), 0);
        assert_eq!(b.reuse_factor(), 0.0);
    }

    /// A trace exercising every serialisation-relevant feature: loops
    /// (deduplicated templates), loads, stores, mul/div, FP ops,
    /// branches and a trailing partial block.
    fn codec_ops() -> Vec<TraceOp> {
        let load = TraceOp {
            pc: 8,
            kind: OpKind::Load {
                ea: 0x2000,
                width: MemWidth::Word,
            },
            dst: Some(ArchReg::Int(7)),
            src1: Some(ArchReg::Int(29)),
            src2: None,
        };
        let body = [
            alu(0, 1, 2),
            alu(4, 2, 1),
            load,
            TraceOp::bare(12, OpKind::IntMul),
            TraceOp::bare(16, OpKind::FpAdd),
            branch(20, true),
        ];
        body.iter()
            .cycle()
            .take(body.len() * 3)
            .copied()
            .chain([alu(24, 3, 7), alu(28, 4, 3)])
            .collect()
    }

    #[test]
    fn codec_round_trip_reproduces_fresh_lowering() {
        let b = BlockTrace::lower_ops(codec_ops());
        let mut buf = Vec::new();
        b.write_to(&mut buf).unwrap();
        let back = BlockTrace::read_from(&buf[..]).unwrap();
        // Full structural equality: pool, templates, sequence and stats.
        assert_eq!(back, b);
        let replayed: Vec<TraceOp> = back.iter().collect();
        assert_eq!(replayed, codec_ops());
    }

    #[test]
    fn codec_round_trips_empty_lowering() {
        let b = BlockTrace::default();
        let mut buf = Vec::new();
        b.write_to(&mut buf).unwrap();
        assert_eq!(BlockTrace::read_from(&buf[..]).unwrap(), b);
    }

    #[test]
    fn codec_validates_header_and_sections() {
        let b = BlockTrace::lower_ops(codec_ops());
        let mut buf = Vec::new();
        b.write_to(&mut buf).unwrap();

        assert!(BlockTrace::read_from(&b"NOTABLOCKTRACE.."[..]).is_err());

        let mut bad_version = buf.clone();
        bad_version[8] = 99;
        assert!(BlockTrace::read_from(&bad_version[..]).is_err());

        // Truncations anywhere must error, never panic.
        for cut in [4usize, 20, 110, buf.len() - 1] {
            assert!(BlockTrace::read_from(&buf[..cut]).is_err());
        }

        // First instance id (after magic+version+total+stats, the
        // template-count word and one length per template, and the
        // sequence count) pointed at a nonexistent template.
        let seq_start = 8 + 4 + 8 + 8 * TRACE_STAT_WORDS + 4 + 4 * b.templates.len() + 4;
        let mut bad_id = buf.clone();
        bad_id[seq_start..seq_start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(BlockTrace::read_from(&bad_id[..]).is_err());

        // Oversized template length.
        let tmpl_start = 8 + 4 + 8 + 8 * TRACE_STAT_WORDS + 4;
        let mut bad_len = buf;
        bad_len[tmpl_start..tmpl_start + 4]
            .copy_from_slice(&(MAX_BLOCK_OPS as u32 + 1).to_le_bytes());
        assert!(BlockTrace::read_from(&bad_len[..]).is_err());
    }

    #[test]
    fn lower_matches_packed_trace() {
        let ops = [
            alu(0, 1, 2),
            branch(4, true),
            alu(8, 2, 1),
            branch(12, false),
        ];
        let packed: PackedTrace = ops.iter().copied().collect();
        let b = BlockTrace::lower(&packed);
        assert_eq!(b.len(), packed.len() as u64);
        assert_eq!(b.stats(), packed.stats());
        let replayed: Vec<TraceOp> = b.iter().collect();
        let direct: Vec<TraceOp> = packed.iter().collect();
        assert_eq!(replayed, direct);
    }
}
