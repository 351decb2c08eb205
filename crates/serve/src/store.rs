//! The sharded, persistent result store: memoised simulation results
//! keyed by `(config fingerprint, trace hash, mode)`.
//!
//! # On-disk layout
//!
//! A store is a directory of `SHARDS` append-only segment files,
//! `shard-00.seg` … `shard-07.seg`. A cell key maps to a shard by an
//! FNV-1a hash of its bytes, so the shard of a key is stable across
//! processes. Each segment is:
//!
//! ```text
//! [magic "AURSTOR1": 8][store version: u32][trace format version: u32]
//! [checkpoint format version: u32]            -- 20-byte header
//! record*                                     -- zero or more records
//! record := [payload_len: u32][payload: payload_len bytes]
//!           [checksum: u64 = FNV-1a(payload)]
//! payload := [config_fp: u64][trace_hash: u64][mode: u8][value]
//! value  := [0x00][SimStats snapshot image]            -- exact result
//!         | [0x01][instructions: u64][detailed: u64]
//!           [windows: u64][cpi: f64 bits][ci: f64 bits] -- sampled result
//! ```
//!
//! All integers are little-endian. Everything after the header is pure
//! appended records; there is no in-file index — the in-memory index is
//! rebuilt by a sequential scan on open.
//!
//! # Crash safety and versioning
//!
//! A crash mid-append leaves a truncated or half-written tail record.
//! Recovery on open reads records sequentially and stops at the first
//! record that is truncated or fails its checksum, truncating the file
//! there; every record before the tail is intact by construction
//! (appends are sequential and flushed per put). A shard whose header
//! does not match — wrong magic, or any of the three format versions
//! differ — is discarded and rebuilt empty: memoised results are pure
//! caches of deterministic simulations, so invalidation is always safe,
//! and a version bump in the trace codec or snapshot container would
//! otherwise let stale bytes masquerade as current results.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aurora_core::SimStats;
use aurora_isa::{Fnv1a, CHECKPOINT_FORMAT_VERSION, TRACE_FORMAT_VERSION};

/// Number of segment files a store is sharded over. Sharding bounds
/// lock contention between concurrent queries (each shard has its own
/// mutex) and caps the cost of a single-shard rebuild.
pub const SHARDS: usize = 8;

/// Version of the store's own record layout. Bump on any change to the
/// header or record encoding described in the [module docs](self).
pub const STORE_FORMAT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"AURSTOR1";
const HEADER_LEN: usize = 8 + 4 + 4 + 4;
/// Records bigger than this are rejected as corrupt rather than
/// allocated: a valid payload (stats image or sampled tuple) is a few
/// hundred bytes, so a multi-megabyte length prefix is garbage.
const MAX_PAYLOAD: u32 = 1 << 20;

const TAG_EXACT: u8 = 0x00;
const TAG_SAMPLED: u8 = 0x01;

/// How a query cell is executed. The memo key records the *accuracy*
/// a mode answers with, not its name: the two exact modes return
/// bit-identical statistics and share one memo cell, while the sampled
/// estimate is not bit-comparable to an exact run and keys apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Exact statistics (the wire name kept from the per-op engine);
    /// answered exactly like [`Mode::Block`].
    Detailed,
    /// Exact statistics through decode-once block replay (the default).
    Block,
    /// SMARTS-style sampled estimate with a confidence interval.
    Sampled,
}

impl Mode {
    /// The key byte for this mode: one code per memo cell, so both
    /// exact modes write the block code.
    pub fn code(self) -> u8 {
        match self {
            Mode::Detailed | Mode::Block => 1,
            Mode::Sampled => 2,
        }
    }

    /// Decodes a key byte. Code 0 — exact results written by the
    /// retired per-op engine, bit-identical to block replay — decodes
    /// to the shared exact cell, so older stores stay valid.
    pub fn from_code(code: u8) -> Option<Mode> {
        match code {
            0 | 1 => Some(Mode::Block),
            2 => Some(Mode::Sampled),
            _ => None,
        }
    }

    /// The wire name (`"detailed"`, `"block"`, `"sampled"`).
    pub fn name(self) -> &'static str {
        match self {
            Mode::Detailed => "detailed",
            Mode::Block => "block",
            Mode::Sampled => "sampled",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<Mode> {
        match name {
            "detailed" => Some(Mode::Detailed),
            "block" => Some(Mode::Block),
            "sampled" => Some(Mode::Sampled),
            _ => None,
        }
    }
}

/// The memo key of one design-space cell.
///
/// `config_fp` is [`MachineConfig::fingerprint`] (with the sampling
/// parameters folded in for [`Mode::Sampled`] — see
/// `engine::sampled_config_fp`), `trace_hash` is
/// [`Workload::trace_hash`]. Both are cross-process stable, so a store
/// written by one daemon is valid for any later one built at the same
/// format versions.
///
/// Keys compare and hash by [`Mode::code`], so a `detailed` and a
/// `block` key for the same cell are the same key.
///
/// [`MachineConfig::fingerprint`]: aurora_core::MachineConfig::fingerprint
/// [`Workload::trace_hash`]: aurora_workloads::Workload::trace_hash
#[derive(Debug, Clone, Copy)]
pub struct CellKey {
    /// Stable fingerprint of the machine configuration (plus sampling
    /// parameters in sampled mode).
    pub config_fp: u64,
    /// Stable fingerprint of the workload's dynamic trace identity.
    pub trace_hash: u64,
    /// Execution mode.
    pub mode: Mode,
}

impl PartialEq for CellKey {
    fn eq(&self, other: &CellKey) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for CellKey {}

impl std::hash::Hash for CellKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.parts().hash(state);
    }
}

impl CellKey {
    fn parts(&self) -> (u64, u64, u8) {
        (self.config_fp, self.trace_hash, self.mode.code())
    }

    fn shard(&self) -> usize {
        let mut h = Fnv1a::new();
        h.write_u64(self.config_fp);
        h.write_u64(self.trace_hash);
        h.write_u8(self.mode.code());
        (h.finish() % SHARDS as u64) as usize
    }
}

/// A sampled-mode memo value: the [`SampledStats`] fields with the two
/// floats carried as exact bit patterns, so a warm hit reproduces the
/// cold run's estimate bit-for-bit.
///
/// [`SampledStats`]: aurora_core::SampledStats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledCell {
    /// Total instructions in the trace.
    pub instructions: u64,
    /// Instructions run through the detailed model.
    pub detailed_instructions: u64,
    /// Measured windows.
    pub windows: u64,
    /// `f64::to_bits` of the mean CPI estimate.
    pub cpi_bits: u64,
    /// `f64::to_bits` of the 95% CI half-width.
    pub ci_bits: u64,
}

/// A memoised cell result.
///
/// Exact cells are the common case; `SimStats` stays inline unboxed.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum CellValue {
    /// An exact run: the full [`SimStats`].
    Exact(SimStats),
    /// A sampled estimate.
    Sampled(SampledCell),
}

struct Shard {
    file: File,
    index: HashMap<CellKey, CellValue>,
}

/// The persistent memo: open it on a directory, [`get`](ResultStore::get)
/// and [`put`](ResultStore::put) cells. All methods take `&self`; each
/// shard is independently locked, so concurrent queries on disjoint
/// shards never contend.
pub struct ResultStore {
    dir: PathBuf,
    shards: Vec<Mutex<Shard>>,
    rebuilt: usize,
    recovered_records: usize,
}

impl ResultStore {
    /// Opens (creating if needed) the store in `dir`, scanning every
    /// shard to rebuild the in-memory index. Shards with mismatched
    /// versions are discarded; shards with a damaged tail are truncated
    /// to their last intact record.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory or a segment
    /// file cannot be created, read or truncated. Corruption is *not*
    /// an error — it is recovered from as described above.
    pub fn open(dir: &Path) -> std::io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        let mut shards = Vec::with_capacity(SHARDS);
        let mut rebuilt = 0;
        let mut recovered = 0;
        for i in 0..SHARDS {
            let path = dir.join(format!("shard-{i:02}.seg"));
            let (shard, was_rebuilt, truncated) = Shard::open(&path)?;
            rebuilt += usize::from(was_rebuilt);
            recovered += truncated;
            shards.push(Mutex::new(shard));
        }
        Ok(ResultStore {
            dir: dir.to_owned(),
            shards,
            rebuilt,
            recovered_records: recovered,
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shards that were discarded and rebuilt empty on open (version or
    /// magic mismatch).
    pub fn shards_rebuilt(&self) -> usize {
        self.rebuilt
    }

    /// Damaged tail records dropped during open-time recovery.
    pub fn records_recovered(&self) -> usize {
        self.recovered_records
    }

    /// Looks up a memoised cell.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned (a thread panicked mid-append;
    /// the in-memory index can no longer be trusted).
    pub fn get(&self, key: &CellKey) -> Option<CellValue> {
        let shard = self.shards[key.shard()].lock().expect("shard poisoned");
        shard.index.get(key).cloned()
    }

    /// Inserts (or re-inserts) a cell, appending it to the shard's
    /// segment and flushing before the index is updated — a reader can
    /// never observe an indexed cell that is not durable.
    ///
    /// Duplicate puts of the same key are benign: concurrent queries
    /// racing on a cold cell each append their (bit-identical) result
    /// and the index keeps the last one; recovery keeps the last intact
    /// copy too.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the append or flush fails;
    /// the in-memory index is left unchanged in that case.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    pub fn put(&self, key: &CellKey, value: &CellValue) -> std::io::Result<()> {
        let payload = encode_payload(key, value);
        let mut record = Vec::with_capacity(payload.len() + 12);
        record.extend_from_slice(
            &u32::try_from(payload.len())
                .expect("payload exceeds u32")
                .to_le_bytes(),
        );
        record.extend_from_slice(&payload);
        record.extend_from_slice(&aurora_isa::fnv1a(&payload).to_le_bytes());
        let mut shard = self.shards[key.shard()].lock().expect("shard poisoned");
        shard.file.write_all(&record)?;
        shard.file.flush()?;
        shard.index.insert(*key, value.clone());
        Ok(())
    }

    /// Number of memoised cells across all shards.
    ///
    /// # Panics
    ///
    /// Panics if a shard lock is poisoned.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("shard poisoned").index.len())
            .sum()
    }

    /// Whether the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Shard {
    /// Opens one segment, returning `(shard, rebuilt, truncated_records)`.
    fn open(path: &Path) -> std::io::Result<(Shard, bool, usize)> {
        let mut rebuilt = false;
        let mut bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        if !bytes.is_empty() && !header_is_current(&bytes) {
            // Version/magic mismatch: the cache is stale by definition.
            // Discard and rebuild — results are recomputable.
            bytes.clear();
            rebuilt = true;
        }
        let (index, valid_len, truncated) = scan_records(&bytes);
        let write_fresh = bytes.is_empty();
        if write_fresh {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
            header.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
            header.extend_from_slice(&CHECKPOINT_FORMAT_VERSION.to_le_bytes());
            write_atomically(path, &header)?;
        } else if valid_len < bytes.len() {
            // Damaged tail: truncate to the last intact record so the
            // next append starts at a clean boundary.
            write_atomically(path, &bytes[..valid_len])?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        Ok((Shard { file, index }, rebuilt, truncated))
    }
}

fn header_is_current(bytes: &[u8]) -> bool {
    bytes.len() >= HEADER_LEN
        && &bytes[..8] == MAGIC
        && bytes[8..12] == STORE_FORMAT_VERSION.to_le_bytes()
        && bytes[12..16] == TRACE_FORMAT_VERSION.to_le_bytes()
        && bytes[16..20] == CHECKPOINT_FORMAT_VERSION.to_le_bytes()
}

/// Scans the record region, returning the decoded index, the byte
/// length of the intact prefix (header included) and how many damaged
/// tail records were dropped.
fn scan_records(bytes: &[u8]) -> (HashMap<CellKey, CellValue>, usize, usize) {
    let mut index = HashMap::new();
    if bytes.is_empty() {
        return (index, 0, 0);
    }
    let mut pos = HEADER_LEN.min(bytes.len());
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return (index, pos, 0);
        }
        let Some(len_bytes) = rest.get(..4) else {
            return (index, pos, 1);
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            return (index, pos, 1);
        }
        let total = 4 + len as usize + 8;
        let Some(record) = rest.get(..total) else {
            return (index, pos, 1);
        };
        let payload = &record[4..4 + len as usize];
        let checksum = u64::from_le_bytes(record[4 + len as usize..].try_into().expect("8 bytes"));
        if aurora_isa::fnv1a(payload) != checksum {
            return (index, pos, 1);
        }
        match decode_payload(payload) {
            Some((key, value)) => {
                index.insert(key, value);
            }
            // Checksum-valid but undecodable: written by a future minor
            // revision we don't understand. Stop scanning (we cannot
            // trust our framing of later records), keep the prefix.
            None => return (index, pos, 1),
        }
        pos += total;
    }
}

fn encode_payload(key: &CellKey, value: &CellValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&key.config_fp.to_le_bytes());
    out.extend_from_slice(&key.trace_hash.to_le_bytes());
    out.push(key.mode.code());
    match value {
        CellValue::Exact(stats) => {
            out.push(TAG_EXACT);
            out.extend_from_slice(&stats.to_snapshot_bytes());
        }
        CellValue::Sampled(s) => {
            out.push(TAG_SAMPLED);
            out.extend_from_slice(&s.instructions.to_le_bytes());
            out.extend_from_slice(&s.detailed_instructions.to_le_bytes());
            out.extend_from_slice(&s.windows.to_le_bytes());
            out.extend_from_slice(&s.cpi_bits.to_le_bytes());
            out.extend_from_slice(&s.ci_bits.to_le_bytes());
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Option<(CellKey, CellValue)> {
    if payload.len() < 18 {
        return None;
    }
    let config_fp = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let trace_hash = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    let mode = Mode::from_code(payload[16])?;
    let key = CellKey {
        config_fp,
        trace_hash,
        mode,
    };
    let tag = payload[17];
    let body = &payload[18..];
    let value = match tag {
        TAG_EXACT => CellValue::Exact(SimStats::from_snapshot_bytes(body).ok()?),
        TAG_SAMPLED => {
            if body.len() != 40 {
                return None;
            }
            CellValue::Sampled(SampledCell {
                instructions: u64::from_le_bytes(body[..8].try_into().ok()?),
                detailed_instructions: u64::from_le_bytes(body[8..16].try_into().ok()?),
                windows: u64::from_le_bytes(body[16..24].try_into().ok()?),
                cpi_bits: u64::from_le_bytes(body[24..32].try_into().ok()?),
                ci_bits: u64::from_le_bytes(body[32..40].try_into().ok()?),
            })
        }
        _ => return None,
    };
    Some((key, value))
}

/// Writes `bytes` to `path` through a temp file + rename, so a crash
/// mid-write never leaves a half-written segment (same pattern as the
/// workloads trace cache).
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("seg.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_modes_share_one_key_and_legacy_code_decodes() {
        let key = |mode| CellKey {
            config_fp: 7,
            trace_hash: 9,
            mode,
        };
        assert_eq!(key(Mode::Detailed), key(Mode::Block));
        assert_ne!(key(Mode::Block), key(Mode::Sampled));
        assert_eq!(key(Mode::Detailed).shard(), key(Mode::Block).shard());
        let value = CellValue::Exact(SimStats::default());
        let mut payload = encode_payload(&key(Mode::Detailed), &value);
        assert_eq!(payload[16], Mode::Block.code());
        // A record from when `detailed` keyed its own cells.
        payload[16] = 0;
        let (decoded, back) = decode_payload(&payload).expect("legacy exact record decodes");
        assert_eq!(decoded, key(Mode::Block));
        assert_eq!(back, value);
    }
}
