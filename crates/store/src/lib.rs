#![warn(missing_docs)]

//! # prophet-store — the persistent profile store
//!
//! Profiling a workload is the expensive half of a prediction: the
//! tracer walks the annotated program, the cache simulator counts
//! misses, and the memory model attaches burden factors. All of it is
//! deterministic, so a profile computed yesterday is byte-for-byte the
//! profile that would be computed today — provided the machine
//! configuration, profiling options, and Ψ/Φ calibration are unchanged.
//! This crate persists that work across process restarts:
//!
//! * [`ProfileStore`] — an append-only on-disk log of binary-encoded
//!   [`Profiled`] trees with CRC-checked records, a manifest updated by
//!   atomic rename, and an LRU-bounded decode cache. The valid prefix
//!   of the log is mapped read-only with `mmap(2)`, so a decode reads
//!   payload bytes straight out of the page cache with zero copies;
//!   records appended after open are read with plain `seek + read`.
//! * [`KeyedStore`] — the adapter wiring a store into the sweep
//!   engine's [`ProfileCache`](sweep::ProfileCache): it namespaces every
//!   workload cache key with the owning prophet's calibration and
//!   profile-options fingerprints, so a store directory can be shared by
//!   differently-configured daemons without ever replaying a profile
//!   computed under other assumptions.
//!
//! ## On-disk format (version 3: segmented log)
//!
//! A store directory holds one *active* append log, zero or more
//! immutable *sealed segments*, and a manifest:
//!
//! ```text
//! profiles.v2.log      active append-only record log
//! segment-000001.psr   sealed (immutable) segment
//! segment-000002.psr   ...
//! MANIFEST.json        {"version":3,"records":N,"committed_len":L,
//!                       "seq":K,"segments":[{"name","len","records"},..]}
//! ```
//!
//! The active log rotates into a numbered sealed segment when it
//! crosses the configured size threshold ([`StoreBuilder::segment_bytes`]);
//! a mutable **live-key index** over all segments resolves each key to
//! its authoritative frame. Sealed segments are immutable, so background
//! compaction can rewrite the ones whose dead-byte ratio (duplicate
//! frames, stale calibration generations) exceeds a threshold into a
//! fresh segment and swap the manifest by atomic rename — see
//! [`ProfileStore::compact`]. A v2-era directory (single log, manifest
//! without a segment list) opens seamlessly: it is simply a store with
//! zero sealed segments.
//!
//! Each log record is framed as
//!
//! ```text
//! magic "PSR2" | u32 key_len | u32 payload_len | u32 crc32(payload) | key | payload
//! ```
//!
//! with all integers little-endian and the payload the compact binary
//! encoding of one [`Profiled`] (`prophet_core::codec`, varint-packed
//! node records over the `proftree::wire` tree layout). On open the log
//! is scanned front to back; the scan stops at the first truncated or
//! CRC-corrupt record, logs a warning, and truncates the log back to
//! the last valid boundary (classic write-ahead-log recovery: a crash
//! mid-append costs at most the record being appended).
//!
//! ## Durability: one barrier per batch
//!
//! [`ProfileStore::put`] and [`ProfileStore::put_raw`] append and index
//! a record, and reads see it at once, but neither fsyncs.
//! [`ProfileStore::sync`] is the durability barrier: it fsyncs the
//! active log once, and only if something was appended since the last
//! sync. A caller that answers after writing — the serve daemon's batch
//! worker, its what-if job worker, and migrate/replicate ingest — calls
//! it once before its first reply, so a stored batch costs one fsync
//! rather than one per record.
//!
//! The manifest is rewritten (write-to-temp, fsync, rename, fsync the
//! directory) only when the segment list changes — at open, seal and
//! compaction — and by [`ProfileStore::flush`] at shutdown. Open reads
//! only its `seq` and `segments`; the active log is always recovered by
//! scanning, so appends need no manifest update. A seal fsyncs the log
//! before the manifest names it as a segment. The `records` and
//! `committed_len` fields record the state at the last manifest write;
//! they stay in the JSON because older binaries require them.
//!
//! ## Version 1 logs
//!
//! Version 1 stores kept JSON payloads under magic `"PSR1"` in
//! `profiles.v1.log`. That format is no longer read: open leaves such a
//! file untouched and logs one warning naming it, and its keys
//! re-profile on first use (stored profiles are a cache).
//!
//! ## Mmap lifetime rules
//!
//! The mapping is created once at open, covering exactly the
//! CRC-validated prefix (after tail recovery), and is
//! never grown or remapped. Appends land strictly beyond the mapped
//! prefix and are served by the `seek + read` fallback until the next
//! open. The mapping is dropped (and `munmap`ed) with the store, and no
//! decoded profile borrows from it — payload bytes are parsed into
//! owned [`Profiled`] values under the store lock — so the unmap cannot
//! race a reader.

#[cfg(not(target_os = "linux"))]
compile_error!(
    "prophet-store supports Linux only: it maps segments with mmap(2) and fsyncs its directory"
);

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use prophet_core::{Profiled, ProphetError};
use serde::{Deserialize, Serialize};
use sweep::ProfileStorage;

/// Magic prefix of every v2 log record (`P`rophet `S`tore `R`ecord v`2`).
const MAGIC: [u8; 4] = *b"PSR2";
/// Fixed-size portion of a record frame: magic + three u32 fields.
const HEADER_LEN: u64 = 16;
/// Name of the record log inside a store directory.
const LOG_NAME: &str = "profiles.v2.log";
/// Name of the manifest inside a store directory.
const MANIFEST_NAME: &str = "MANIFEST.json";
/// File-name shape of sealed segments: `segment-NNNNNN.psr`.
const SEG_PREFIX: &str = "segment-";
/// File-name suffix of sealed segments.
const SEG_SUFFIX: &str = ".psr";
/// Index ordinal standing for "the active log" (not a sealed segment).
const ACTIVE_SEG: u32 = u32::MAX;

/// File name of the sealed segment with sequence number `seq`.
fn segment_file_name(seq: u64) -> String {
    format!("{SEG_PREFIX}{seq:06}{SEG_SUFFIX}")
}

/// Parse a sealed-segment file name back into its sequence number.
fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(SEG_PREFIX)?.strip_suffix(SEG_SUFFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Add the nanoseconds since `t0` to a cumulative timer.
fn add_elapsed(counter: &AtomicU64, t0: Instant) {
    counter.fetch_add(
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
}

/// fsync a store directory so the renames and file creations inside it
/// are durable.
fn sync_dir(dir: &std::path::Path) -> Result<(), ProphetError> {
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial), bit-reflected,
/// table-driven. Guards every record payload against torn writes and
/// bit rot; not a defense against adversaries (neither is the rest of
/// the store).
pub fn crc32(bytes: &[u8]) -> u32 {
    // The table is tiny; building it per call keeps the crate
    // dependency- and static-state-free. Store operations are rare
    // (once per profile) so the 256-iteration setup cost is noise.
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *slot = c;
    }
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc ^ 0xffff_ffff
}

/// Read-only memory mapping of the log's valid prefix, through raw
/// `mmap(2)`.
mod map {
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// An immutable byte view over the first `len` bytes of a file.
    pub struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is PROT_READ and never mutated; sharing the raw
    // pointer across threads is sound.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map the first `len` bytes of `file` read-only. `None` when
        /// the prefix is empty or the kernel declines — callers fall
        /// back to buffered reads, never fail.
        pub fn new(file: &std::fs::File, len: u64) -> Option<Mapping> {
            let len = usize::try_from(len).ok()?;
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return None;
            }
            Some(Mapping { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Tuning knobs for a [`ProfileStore`]. Construct via
/// [`ProfileStore::builder`]; the struct stays public so configuration
/// can be carried around (serve wires CLI flags through it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreOptions {
    /// Capacity of the decoded-profile LRU (entries, not bytes). Each
    /// entry is one fully decoded [`Profiled`]; raise it when a daemon
    /// serves a hot set wider than the default.
    pub decode_cache_cap: usize,
    /// Size threshold (bytes) at which the active log is sealed into a
    /// numbered immutable segment. Appends check it after every record.
    pub segment_bytes: u64,
    /// Dead-byte ratio above which [`ProfileStore::compact`] rewrites a
    /// sealed segment by default (0.0 reclaims any dead byte; 1.0
    /// effectively disables compaction).
    pub compact_ratio: f64,
    /// Advisory replication factor: how many ring successors should
    /// hold each profile. The store itself is single-node — the serve
    /// layer reads this to fan writes out — but it travels with the
    /// rest of the store configuration and is surfaced in cluster
    /// status.
    pub replication_factor: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            decode_cache_cap: 32,
            segment_bytes: 8 * 1024 * 1024,
            compact_ratio: 0.3,
            replication_factor: 1,
        }
    }
}

/// Fluent constructor for a [`ProfileStore`], mirroring the
/// `Prophet::builder()` precedent: every tuning knob defaults sanely and
/// is overridden by a chained setter.
///
/// ```no_run
/// # use store::ProfileStore;
/// let store = ProfileStore::builder("/var/lib/prophet/profiles")
///     .segment_bytes(16 * 1024 * 1024)
///     .compaction_ratio(0.25)
///     .decode_cache_cap(64)
///     .replication_factor(2)
///     .open()
///     .unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct StoreBuilder {
    dir: PathBuf,
    opts: StoreOptions,
}

impl StoreBuilder {
    /// Capacity of the decoded-profile LRU (entries).
    pub fn decode_cache_cap(mut self, cap: usize) -> Self {
        self.opts.decode_cache_cap = cap;
        self
    }

    /// Active-log size (bytes) that triggers sealing into a segment.
    pub fn segment_bytes(mut self, bytes: u64) -> Self {
        self.opts.segment_bytes = bytes.max(1);
        self
    }

    /// Default dead-byte ratio above which compaction rewrites a
    /// sealed segment. Clamped to `[0, 1]`.
    pub fn compaction_ratio(mut self, ratio: f64) -> Self {
        self.opts.compact_ratio = ratio.clamp(0.0, 1.0);
        self
    }

    /// Advisory replication factor carried in the store configuration
    /// (at least 1: the owner itself).
    pub fn replication_factor(mut self, n: usize) -> Self {
        self.opts.replication_factor = n.max(1);
        self
    }

    /// Open (creating if absent) the store with the accumulated
    /// options. See [`ProfileStore::builder`] for recovery semantics.
    pub fn open(self) -> Result<ProfileStore, ProphetError> {
        ProfileStore::open_impl(self.dir, self.opts)
    }
}

/// Counters of a [`ProfileStore`]'s activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// `get` calls that found a valid record.
    pub hits: u64,
    /// `get` calls for absent keys.
    pub misses: u64,
    /// Records appended by `put`.
    pub writes: u64,
    /// Records dropped during open-time recovery (truncated or
    /// CRC-corrupt tails).
    pub corrupt_skipped: u64,
    /// Records resident in the log (valid, indexed).
    pub records: u64,
    /// `get` calls served from the decoded-profile LRU (no disk read).
    pub decode_hits: u64,
    /// `get` calls that had to decode payload bytes from disk or the
    /// mapped log prefix.
    pub decode_misses: u64,
    /// Bytes of framed records across the active log and every sealed
    /// segment (live and dead alike).
    pub disk_bytes: u64,
    /// Bytes belonging to live (index-authoritative) frames.
    pub live_bytes: u64,
    /// `disk_bytes - live_bytes`: reclaimable by compaction.
    pub dead_bytes: u64,
    /// Sealed (immutable) segments currently in the manifest.
    pub segments: u64,
    /// Compaction passes that rewrote at least one segment since open.
    pub compactions: u64,
    /// Bytes reclaimed by compaction since open.
    pub reclaimed_bytes: u64,
    /// fsyncs of the active log since open: one per [`ProfileStore::sync`]
    /// that found unsynced appends, plus one per seal of such a log.
    pub syncs: u64,
}

/// One live key as enumerated by [`ProfileStore::keys`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyInfo {
    /// The full store-level key (workload key plus fingerprint suffix).
    pub key: String,
    /// Payload size in bytes.
    pub payload_len: u32,
    /// File name of the segment holding the authoritative frame.
    pub segment: String,
}

/// Knobs for one [`ProfileStore::compact`] pass.
#[derive(Debug, Clone)]
pub struct CompactOptions {
    /// Dead-byte ratio above which a sealed segment is rewritten.
    /// `None` uses the store's configured
    /// [`compact_ratio`](StoreOptions::compact_ratio); `Some(0.0)`
    /// rewrites any segment holding at least one dead byte.
    pub min_dead_ratio: Option<f64>,
    /// Seal the active log first so its records are eligible too.
    pub include_active: bool,
    /// When set, records whose key does not end with this suffix are
    /// *dead*: they are dropped during the rewrite instead of copied.
    /// The serve layer passes its live calibration/options fingerprint
    /// suffix here to garbage-collect stale generations.
    pub retain_suffix: Option<String>,
    /// Test hook: abort (with an error) after writing the replacement
    /// segment but before the manifest swap, simulating a crash at the
    /// worst moment. Never set outside crash-safety tests.
    #[doc(hidden)]
    pub crash_before_swap: bool,
}

impl Default for CompactOptions {
    fn default() -> Self {
        CompactOptions {
            min_dead_ratio: None,
            include_active: true,
            retain_suffix: None,
            crash_before_swap: false,
        }
    }
}

/// What one [`ProfileStore::compact`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompactReport {
    /// Sealed segments before the pass (after any active-log seal).
    pub segments_before: u64,
    /// Sealed segments after the pass.
    pub segments_after: u64,
    /// Segments rewritten (their live frames copied to a fresh one).
    pub rewritten: u64,
    /// Live records after the pass.
    pub live_records: u64,
    /// Records dropped as stale under the retain predicate.
    pub dropped_records: u64,
    /// Bytes reclaimed by this pass.
    pub reclaimed_bytes: u64,
    /// Total framed bytes on disk after the pass.
    pub disk_bytes: u64,
}

/// One sealed segment as named by the manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestSegment {
    name: String,
    len: u64,
    records: u64,
}

/// The manifest file's JSON shape. `seq` and `segments` are `Option`
/// so a v2-era manifest (single log, no segment list) still
/// deserializes; absent means "no sealed segments yet". Open reads only
/// those two; `records` and `committed_len` describe the store at the
/// last manifest write and are kept because older binaries cannot parse
/// a manifest without them (and would then delete every segment as an
/// orphan).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    version: u32,
    records: u64,
    committed_len: u64,
    seq: Option<u64>,
    segments: Option<Vec<ManifestSegment>>,
}

/// Location of one record's payload inside the store: which segment
/// holds it (`ACTIVE_SEG` = the active log) and where.
#[derive(Clone, Copy)]
struct IndexEntry {
    seg: u32,
    payload_at: u64,
    payload_len: u32,
    crc: u32,
}

impl IndexEntry {
    /// Byte offset of the frame header this entry's payload belongs to.
    fn frame_at(&self, key: &str) -> u64 {
        self.payload_at - HEADER_LEN - key.len() as u64
    }

    /// Total framed size (header + key + payload) of the record.
    fn frame_len(&self, key: &str) -> u64 {
        HEADER_LEN + key.len() as u64 + self.payload_len as u64
    }
}

/// One frame parsed from a log image. Framing errors (bad magic,
/// truncation) are `Err`; a CRC mismatch keeps the frame readable and
/// is reported via `crc_ok` so callers choose their own strictness.
struct RawFrame {
    key: String,
    payload_at: u64,
    payload_len: u32,
    crc: u32,
    crc_ok: bool,
    next: u64,
}

/// Parse the frame starting at `at` in `bytes`.
fn scan_frame(bytes: &[u8], at: u64) -> Result<RawFrame, String> {
    let rest = &bytes[at as usize..];
    if (rest.len() as u64) < HEADER_LEN {
        return Err(format!("truncated record header ({} bytes)", rest.len()));
    }
    if rest[..4] != MAGIC[..] {
        return Err("bad record magic".to_string());
    }
    let key_len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as u64;
    let payload_len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as u64;
    let crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
    let total = HEADER_LEN + key_len + payload_len;
    if (rest.len() as u64) < total {
        return Err(format!(
            "truncated record body (have {} of {total} bytes)",
            rest.len()
        ));
    }
    let key_bytes = &rest[HEADER_LEN as usize..(HEADER_LEN + key_len) as usize];
    let key = std::str::from_utf8(key_bytes)
        .map_err(|_| "non-UTF-8 record key".to_string())?
        .to_string();
    let payload = &rest[(HEADER_LEN + key_len) as usize..total as usize];
    Ok(RawFrame {
        key,
        payload_at: at + HEADER_LEN + key_len,
        payload_len: payload_len as u32,
        crc,
        crc_ok: crc32(payload) == crc,
        next: at + total,
    })
}

/// Build one on-disk frame for `key` and `payload`.
fn build_frame(key: &str, payload: &[u8]) -> Vec<u8> {
    let key_bytes = key.as_bytes();
    let mut frame = Vec::with_capacity(HEADER_LEN as usize + key_bytes.len() + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(key_bytes.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(key_bytes);
    frame.extend_from_slice(payload);
    frame
}

/// One log file (sealed segment or the active log) and its read state.
struct SegmentState {
    /// File name inside the store directory (`LOG_NAME` for the active
    /// log, `segment-NNNNNN.psr` for sealed segments).
    name: String,
    file: fs::File,
    /// Read-only mapping of the valid prefix (see the crate docs for
    /// the lifetime rules). `None` for an empty file, or when the
    /// kernel declined the map. Sealed segments are immutable
    /// so their mapping covers the whole valid length; the active log's
    /// mapping covers only the prefix that existed at open.
    map: Option<map::Mapping>,
    /// Bytes covered by valid frames; the append offset for the active
    /// log.
    valid_len: u64,
    /// Frames scanned or appended (live and dead alike).
    records: u64,
}

impl SegmentState {
    /// Read `len` payload/frame bytes at `at`: zero-copy out of the
    /// mapping when covered, buffered `seek + read` otherwise.
    fn read_bytes(&self, at: u64, len: u64) -> Result<Vec<u8>, ProphetError> {
        let end = at + len;
        if let Some(b) = self.map.as_ref().map(|m| m.bytes()) {
            if end <= b.len() as u64 {
                return Ok(b[at as usize..end as usize].to_vec());
            }
        }
        let mut buf = vec![0u8; len as usize];
        let mut f = &self.file;
        f.seek(SeekFrom::Start(at))?;
        f.read_exact(&mut buf)?;
        Ok(buf)
    }
}

/// Mutable half of the store, behind one lock: the segment files, the
/// live-key index, and the decode LRU. Store traffic is one operation
/// per *profile* (seconds of tracer work), so a single mutex is nowhere
/// near contention and buys crash-consistent append ordering for free.
struct StoreInner {
    /// Sealed, immutable segments in manifest order. Index entries
    /// reference them by ordinal.
    sealed: Vec<SegmentState>,
    /// The active append log (`profiles.v2.log`).
    active: SegmentState,
    /// Records were appended to the active log since its last fsync.
    unsynced: bool,
    /// Sequence number the next sealed segment will take.
    next_seq: u64,
    index: HashMap<String, IndexEntry>,
    /// Decoded-profile LRU: key → (profile, recency stamp).
    decoded: HashMap<String, (Arc<Profiled>, u64)>,
    decode_cache_cap: usize,
    tick: u64,
}

impl StoreInner {
    fn segment(&self, ord: u32) -> &SegmentState {
        if ord == ACTIVE_SEG {
            &self.active
        } else {
            &self.sealed[ord as usize]
        }
    }

    /// Total framed bytes across every segment and the active log.
    fn disk_bytes(&self) -> u64 {
        self.active.valid_len + self.sealed.iter().map(|s| s.valid_len).sum::<u64>()
    }

    /// Bytes held by live (index-authoritative) frames.
    fn live_bytes(&self) -> u64 {
        self.index.iter().map(|(k, e)| e.frame_len(k)).sum()
    }
}

/// Append-only on-disk profile store. See the crate docs for the
/// format. All methods take `&self`; the store is safe to share across
/// sweep workers behind an [`Arc`].
pub struct ProfileStore {
    dir: PathBuf,
    opts: StoreOptions,
    inner: Mutex<StoreInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt_skipped: AtomicU64,
    decode_hits: AtomicU64,
    decode_misses: AtomicU64,
    compactions: AtomicU64,
    reclaimed_bytes: AtomicU64,
    syncs: AtomicU64,
    /// Wall-clock nanoseconds spent inside `get` / `put` / `sync`, cumulative.
    /// Request tracing reads deltas around a batch to synthesise
    /// store-read/store-write spans without plumbing timers through the
    /// sweep engine.
    read_nanos: AtomicU64,
    write_nanos: AtomicU64,
}

impl ProfileStore {
    /// Fluent constructor: `ProfileStore::builder(dir).open()`. See
    /// [`StoreBuilder`] for the knobs.
    pub fn builder(dir: impl Into<PathBuf>) -> StoreBuilder {
        StoreBuilder {
            dir: dir.into(),
            opts: StoreOptions::default(),
        }
    }

    /// Open (creating if absent) the store in `dir`, scanning and
    /// CRC-validating every log. Sealed segments listed by the manifest
    /// are scanned first (in manifest order), then the active log with
    /// classic WAL recovery: a truncated or corrupt tail is skipped
    /// with a logged warning and trimmed so subsequent appends re-use
    /// the space — never a panic and never an error: persisted profiles
    /// are a cache, and a damaged cache entry just re-profiles. Crash
    /// leftovers are healed here too: a segment file the manifest does
    /// not name is an aborted seal or compaction — an aborted seal
    /// (active log missing) is adopted back as the active log, an
    /// aborted compaction (active log present) is deleted. A legacy
    /// `PSR1` log is left untouched (see the crate docs).
    fn open_impl(dir: PathBuf, opts: StoreOptions) -> Result<Self, ProphetError> {
        fs::create_dir_all(&dir)?;
        let manifest = Self::read_manifest(&dir);
        let listed: Vec<ManifestSegment> = manifest
            .as_ref()
            .and_then(|m| m.segments.clone())
            .unwrap_or_default();
        let mut next_seq = manifest.as_ref().and_then(|m| m.seq).unwrap_or(1);

        let log_path = dir.join(LOG_NAME);
        Self::heal_segment_leftovers(&dir, &log_path, &listed, &mut next_seq)?;

        // Sealed segments, in manifest order. A missing or damaged
        // segment degrades to whatever prefix scans clean.
        let mut corrupt_skipped = 0u64;
        let mut index: HashMap<String, IndexEntry> = HashMap::new();
        let mut sealed: Vec<SegmentState> = Vec::new();
        for m in &listed {
            let path = dir.join(&m.name);
            let file = match fs::OpenOptions::new().read(true).open(&path) {
                Ok(f) => f,
                Err(e) => {
                    corrupt_skipped += 1;
                    eprintln!(
                        "prophet-store: warning: sealed segment {} unreadable ({e}); \
                         its records re-profile on demand",
                        path.display()
                    );
                    continue;
                }
            };
            let bytes = fs::read(&path)?;
            let ord = sealed.len() as u32;
            let (valid_len, records) =
                Self::scan_into_index(&bytes, ord, &mut index, &mut corrupt_skipped, &path, false);
            let map = map::Mapping::new(&file, valid_len);
            sealed.push(SegmentState {
                name: m.name.clone(),
                file,
                map,
                valid_len,
                records,
            });
        }

        // The active log, with WAL tail recovery (trim on damage).
        let mut log = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&log_path)?;
        let mut bytes = Vec::new();
        log.seek(SeekFrom::Start(0))?;
        log.read_to_end(&mut bytes)?;
        let (valid_len, active_records) = Self::scan_into_index(
            &bytes,
            ACTIVE_SEG,
            &mut index,
            &mut corrupt_skipped,
            &log_path,
            true,
        );
        if valid_len < bytes.len() as u64 {
            log.set_len(valid_len)?;
        }
        drop(bytes);

        let v1_path = dir.join("profiles.v1.log");
        if v1_path.exists() {
            eprintln!(
                "prophet-store: warning: ignoring legacy PSR1 log {}; its profiles will re-profile",
                v1_path.display()
            );
        }

        let map = map::Mapping::new(&log, valid_len);
        let store = ProfileStore {
            dir,
            opts,
            inner: Mutex::new(StoreInner {
                sealed,
                active: SegmentState {
                    name: LOG_NAME.to_string(),
                    file: log,
                    map,
                    valid_len,
                    records: active_records,
                },
                unsynced: false,
                next_seq,
                index,
                decoded: HashMap::new(),
                decode_cache_cap: opts.decode_cache_cap,
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt_skipped: AtomicU64::new(corrupt_skipped),
            decode_hits: AtomicU64::new(0),
            decode_misses: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            read_nanos: AtomicU64::new(0),
            write_nanos: AtomicU64::new(0),
        };
        // Committing the manifest on open records the healed layout:
        // adopted or deleted leftovers, and the trimmed active log.
        {
            let inner = store.inner.lock().expect("store lock poisoned");
            Self::commit_manifest_locked(&store.dir, &inner)?;
        }
        Ok(store)
    }

    /// Read and parse the manifest, tolerating absence and damage (a
    /// damaged manifest degrades to "no sealed segments": the active
    /// log still recovers by scanning).
    fn read_manifest(dir: &std::path::Path) -> Option<Manifest> {
        let text = fs::read_to_string(dir.join(MANIFEST_NAME)).ok()?;
        serde_json::from_str(&text).ok()
    }

    /// Reconcile on-disk segment files against the manifest's list.
    /// An unlisted segment file is a crash leftover: if the active log
    /// is missing it is an aborted *seal* (the rename happened, the
    /// manifest write did not) and the highest-sequence leftover is
    /// adopted back as the active log; otherwise it is an aborted
    /// *compaction* (fresh segment written, manifest swap never
    /// happened) and the file is deleted — the records it holds are
    /// still live in the segments the manifest names.
    fn heal_segment_leftovers(
        dir: &std::path::Path,
        log_path: &std::path::Path,
        listed: &[ManifestSegment],
        next_seq: &mut u64,
    ) -> Result<(), ProphetError> {
        let mut unlisted: Vec<(u64, String)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            let Some(seq) = parse_segment_file_name(&name) else {
                continue;
            };
            *next_seq = (*next_seq).max(seq + 1);
            if !listed.iter().any(|m| m.name == name) {
                unlisted.push((seq, name));
            }
        }
        if unlisted.is_empty() {
            return Ok(());
        }
        unlisted.sort();
        if !log_path.exists() {
            let (_, adopt) = unlisted.pop().expect("non-empty unlisted set");
            eprintln!(
                "prophet-store: adopting {adopt} back as the active log \
                 (aborted seal detected)"
            );
            fs::rename(dir.join(&adopt), log_path)?;
        }
        for (_, orphan) in unlisted {
            eprintln!("prophet-store: removing orphan segment {orphan} (aborted compaction)");
            fs::remove_file(dir.join(&orphan))?;
        }
        Ok(())
    }

    /// Scan `bytes` as a frame log, inserting live keys into `index`
    /// under segment ordinal `ord` (first write wins, matching `put`).
    /// Returns `(valid_len, records)`. With `is_active`, damage warns
    /// about trimming (the caller truncates); sealed segments just stop
    /// at the damage.
    fn scan_into_index(
        bytes: &[u8],
        ord: u32,
        index: &mut HashMap<String, IndexEntry>,
        corrupt_skipped: &mut u64,
        path: &std::path::Path,
        is_active: bool,
    ) -> (u64, u64) {
        let mut at = 0u64;
        let mut records = 0u64;
        while at < bytes.len() as u64 {
            let reason = match scan_frame(bytes, at) {
                Ok(f) if f.crc_ok => {
                    index.entry(f.key).or_insert(IndexEntry {
                        seg: ord,
                        payload_at: f.payload_at,
                        payload_len: f.payload_len,
                        crc: f.crc,
                    });
                    records += 1;
                    at = f.next;
                    continue;
                }
                Ok(f) => format!("CRC mismatch (stored {:08x})", f.crc),
                Err(reason) => reason,
            };
            // Framing (or integrity) is lost from here on: every record
            // behind the damage is unreachable. Count them as one
            // skipped region (we cannot know how many records the tail
            // held).
            *corrupt_skipped += 1;
            let tail = bytes.len() as u64 - at;
            if is_active {
                eprintln!(
                    "prophet-store: warning: {reason} at byte {at} of {}; \
                     dropping {tail} trailing byte(s) and re-profiling on demand",
                    path.display()
                );
            } else {
                eprintln!(
                    "prophet-store: warning: {reason} at byte {at} of sealed {}; \
                     ignoring {tail} trailing byte(s)",
                    path.display()
                );
            }
            break;
        }
        (at, records)
    }

    /// Atomically rewrite the manifest to describe the current state:
    /// sealed segment list, active-log length, and the next segment
    /// sequence number.
    fn commit_manifest_locked(
        dir: &std::path::Path,
        inner: &StoreInner,
    ) -> Result<(), ProphetError> {
        let manifest = Manifest {
            version: 3,
            records: inner.index.len() as u64,
            committed_len: inner.active.valid_len,
            seq: Some(inner.next_seq),
            segments: Some(
                inner
                    .sealed
                    .iter()
                    .map(|s| ManifestSegment {
                        name: s.name.clone(),
                        len: s.valid_len,
                        records: s.records,
                    })
                    .collect(),
            ),
        };
        Self::write_manifest(dir, &manifest)
    }

    /// Serialise `manifest`, swap it in by atomic rename, and fsync the
    /// directory so the rename (and any segment file created or renamed
    /// before it) survives a crash.
    fn write_manifest(dir: &std::path::Path, manifest: &Manifest) -> Result<(), ProphetError> {
        let json = serde_json::to_string(manifest)
            .map_err(|e| ProphetError::Store(format!("manifest encode: {e}")))?;
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, dir.join(MANIFEST_NAME))?;
        sync_dir(dir)
    }

    /// fsync the active log if records were appended since its last
    /// fsync.
    fn sync_active_locked(&self, inner: &mut StoreInner) -> Result<(), ProphetError> {
        if !inner.unsynced {
            return Ok(());
        }
        inner.active.file.sync_all()?;
        inner.unsynced = false;
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Seal the active log into a numbered immutable segment and start
    /// a fresh one. Crash-ordered: (0) fsync the active log, (1) commit
    /// a manifest naming the segment-to-be, (2) rename the active log to
    /// that segment name, (3) create the fresh active log and fsync the
    /// directory. A crash between (1) and (2) leaves the manifest naming
    /// a segment that does not exist — the next open skips it with a
    /// warning and still scans every record out of the active log;
    /// between (2) and (3) the next open just creates a fresh active
    /// log. Either way no record is lost. No-op when the active log is
    /// empty.
    fn seal_locked(&self, inner: &mut StoreInner) -> Result<(), ProphetError> {
        if inner.active.valid_len == 0 {
            return Ok(());
        }
        self.sync_active_locked(inner)?;
        let dir = self.dir.as_path();
        let seq = inner.next_seq;
        let name = segment_file_name(seq);
        let mut segments: Vec<ManifestSegment> = inner
            .sealed
            .iter()
            .map(|s| ManifestSegment {
                name: s.name.clone(),
                len: s.valid_len,
                records: s.records,
            })
            .collect();
        segments.push(ManifestSegment {
            name: name.clone(),
            len: inner.active.valid_len,
            records: inner.active.records,
        });
        Self::write_manifest(
            dir,
            &Manifest {
                version: 3,
                records: inner.index.len() as u64,
                committed_len: 0,
                seq: Some(seq + 1),
                segments: Some(segments),
            },
        )?;
        fs::rename(dir.join(LOG_NAME), dir.join(&name))?;
        let fresh = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join(LOG_NAME))?;
        sync_dir(dir)?;

        inner.next_seq = seq + 1;
        let mut sealed = std::mem::replace(
            &mut inner.active,
            SegmentState {
                name: LOG_NAME.to_string(),
                file: fresh,
                map: None,
                valid_len: 0,
                records: 0,
            },
        );
        sealed.name = name;
        // The open file handle survives the rename (same inode); remap
        // the whole now-immutable file so records appended after open
        // also read zero-copy.
        if let Some(m) = map::Mapping::new(&sealed.file, sealed.valid_len) {
            sealed.map = Some(m);
        }
        let ord = inner.sealed.len() as u32;
        inner.sealed.push(sealed);
        for entry in inner.index.values_mut() {
            if entry.seg == ACTIVE_SEG {
                entry.seg = ord;
            }
        }
        Ok(())
    }

    /// Rotate the active log into a sealed segment now, regardless of
    /// size. No-op on an empty active log.
    pub fn seal(&self) -> Result<(), ProphetError> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.seal_locked(&mut inner)
    }

    /// The profile stored under `key`, if any. Decodes through a small
    /// LRU so repeated loads of a hot key parse the payload once;
    /// cache misses decode zero-copy out of the mapped log prefix when
    /// the record predates open.
    pub fn get(&self, key: &str) -> Result<Option<Profiled>, ProphetError> {
        let t0 = Instant::now();
        let out = self.get_inner(key);
        add_elapsed(&self.read_nanos, t0);
        out
    }

    fn get_inner(&self, key: &str) -> Result<Option<Profiled>, ProphetError> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((profiled, stamp)) = inner.decoded.get_mut(key) {
            *stamp = tick;
            let out = profiled.clone();
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.decode_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Some((*out).clone()));
        }
        let Some(entry) = inner.index.get(key).copied() else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        };
        self.decode_misses.fetch_add(1, Ordering::Relaxed);
        let decoded: Option<Result<Profiled, String>> = {
            let seg = inner.segment(entry.seg);
            let end = entry.payload_at + entry.payload_len as u64;
            // Records inside a segment's mapped prefix decode straight
            // from the page cache; active-log appends after open land
            // beyond it and take the buffered path.
            let mapped: Option<&[u8]> = seg
                .map
                .as_ref()
                .map(|m| m.bytes())
                .filter(|b| end <= b.len() as u64)
                .map(|b| &b[entry.payload_at as usize..end as usize]);
            let owned: Option<Vec<u8>> = if mapped.is_some() {
                None
            } else {
                let mut buf = vec![0u8; entry.payload_len as usize];
                let mut f = &seg.file;
                f.seek(SeekFrom::Start(entry.payload_at))?;
                f.read_exact(&mut buf)?;
                Some(buf)
            };
            let payload: &[u8] =
                mapped.unwrap_or_else(|| owned.as_deref().expect("buffered payload"));
            if crc32(payload) != entry.crc {
                None
            } else {
                Some(prophet_core::codec::decode_profiled(payload))
            }
        };
        let profiled = match decoded {
            None => {
                // The record was valid at open; damage appeared
                // underneath a running store. Treat like open-time
                // corruption: warn, forget the entry, re-profile.
                eprintln!(
                    "prophet-store: warning: record for key {key:?} failed its CRC on read; \
                     dropping it and re-profiling on demand"
                );
                inner.index.remove(key);
                self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            Some(Err(e)) => {
                return Err(ProphetError::Store(format!("payload decode: {e}")));
            }
            Some(Ok(p)) => Arc::new(p),
        };
        Self::lru_insert(&mut inner, key.to_string(), profiled.clone(), tick);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Ok(Some((*profiled).clone()))
    }

    /// Append `profiled` under `key` and index it; reads see it at once.
    /// The record is durable only after the next [`ProfileStore::sync`]
    /// (or a seal, or [`ProfileStore::flush`]). Keys are
    /// content-fingerprinted by the caller ([`KeyedStore`]), so an
    /// existing key already holds this exact profile and the append is
    /// skipped — first write wins and the log never accumulates
    /// duplicates.
    pub fn put(&self, key: &str, profiled: &Profiled) -> Result<(), ProphetError> {
        let t0 = Instant::now();
        let out = self.put_inner(key, profiled);
        add_elapsed(&self.write_nanos, t0);
        out
    }

    fn put_inner(&self, key: &str, profiled: &Profiled) -> Result<(), ProphetError> {
        let mut payload = Vec::new();
        prophet_core::codec::encode_profiled(profiled, &mut payload);
        let decoded = Some(Arc::new(profiled.clone()));
        self.append_record(key, &payload, decoded).map(|_| ())
    }

    /// Append one framed record to the active log under the store lock,
    /// indexing it and sealing the log into a segment when it crosses
    /// the size threshold. No fsync and no manifest write unless it
    /// seals. `decoded` primes the LRU when the caller already holds the
    /// parsed profile. Returns `false` when the key already existed
    /// (first write wins).
    fn append_record(
        &self,
        key: &str,
        payload: &[u8],
        decoded: Option<Arc<Profiled>>,
    ) -> Result<bool, ProphetError> {
        let key_bytes = key.as_bytes();
        if key_bytes.len() > u32::MAX as usize || payload.len() > u32::MAX as usize {
            return Err(ProphetError::Store(
                "record exceeds u32 framing".to_string(),
            ));
        }
        let crc = crc32(payload);
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if inner.index.contains_key(key) {
            return Ok(false);
        }
        let frame = build_frame(key, payload);
        let at = inner.active.valid_len;
        inner.active.file.seek(SeekFrom::Start(at))?;
        inner.active.file.write_all(&frame)?;
        inner.unsynced = true;
        inner.active.valid_len = at + frame.len() as u64;
        inner.active.records += 1;
        inner.index.insert(
            key.to_string(),
            IndexEntry {
                seg: ACTIVE_SEG,
                payload_at: at + HEADER_LEN + key_bytes.len() as u64,
                payload_len: payload.len() as u32,
                crc,
            },
        );
        if let Some(profiled) = decoded {
            inner.tick += 1;
            let tick = inner.tick;
            Self::lru_insert(&mut inner, key.to_string(), profiled, tick);
        }
        if inner.active.valid_len >= self.opts.segment_bytes {
            self.seal_locked(&mut inner)?;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// Ingest one raw record (a payload produced by another store's
    /// [`ProfileStore::export_record`]) under `key`. The payload is
    /// decoded first so a corrupt or incompatible blob is rejected
    /// rather than persisted; accepted bytes are appended verbatim, so
    /// replicated and migrated records replay byte-identically to their
    /// source. Like [`ProfileStore::put`], durable only after the next
    /// [`ProfileStore::sync`]. Returns `false` when the key already
    /// existed.
    pub fn put_raw(&self, key: &str, payload: &[u8]) -> Result<bool, ProphetError> {
        if let Err(e) = prophet_core::codec::decode_profiled(payload) {
            return Err(ProphetError::Store(format!(
                "rejected raw record for {key:?}: {e}"
            )));
        }
        let t0 = Instant::now();
        let out = self.append_record(key, payload, None);
        add_elapsed(&self.write_nanos, t0);
        out
    }

    /// The durability barrier: fsync the active log once, and only if a
    /// record was appended since the last sync. Call it after a batch of
    /// `put`/`put_raw` and before answering for them. Its time counts
    /// into the write side of [`ProfileStore::io_nanos`].
    pub fn sync(&self) -> Result<(), ProphetError> {
        let t0 = Instant::now();
        let out = {
            let mut inner = self.inner.lock().expect("store lock poisoned");
            self.sync_active_locked(&mut inner)
        };
        add_elapsed(&self.write_nanos, t0);
        out
    }

    /// The raw payload bytes stored under `key` (CRC-verified), for
    /// streaming to a peer store. `None` for absent keys or records
    /// whose bytes no longer verify.
    pub fn export_record(&self, key: &str) -> Result<Option<Vec<u8>>, ProphetError> {
        let inner = self.inner.lock().expect("store lock poisoned");
        let Some(entry) = inner.index.get(key).copied() else {
            return Ok(None);
        };
        let payload = inner
            .segment(entry.seg)
            .read_bytes(entry.payload_at, entry.payload_len as u64)?;
        if crc32(&payload) != entry.crc {
            return Ok(None);
        }
        Ok(Some(payload))
    }

    /// Every live key in the store, with payload sizes — the unit of
    /// enumeration for migration and the `/v1/cluster/keys` surface.
    /// Sorted so output is deterministic.
    pub fn keys(&self) -> Vec<KeyInfo> {
        let inner = self.inner.lock().expect("store lock poisoned");
        let mut out: Vec<KeyInfo> = inner
            .index
            .iter()
            .map(|(k, e)| KeyInfo {
                key: k.clone(),
                payload_len: e.payload_len,
                segment: inner.segment(e.seg).name.clone(),
            })
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    fn lru_insert(inner: &mut StoreInner, key: String, profiled: Arc<Profiled>, tick: u64) {
        inner.decoded.insert(key, (profiled, tick));
        while inner.decoded.len() > inner.decode_cache_cap {
            let victim = inner
                .decoded
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity decode cache");
            inner.decoded.remove(&victim);
        }
    }

    /// Whether `key` has a stored record (no decode, no counter bump).
    pub fn contains(&self, key: &str) -> bool {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .index
            .contains_key(key)
    }

    /// Number of valid records resident in the log.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store lock poisoned").index.len()
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let (records, disk_bytes, live_bytes, segments) = {
            let inner = self.inner.lock().expect("store lock poisoned");
            (
                inner.index.len() as u64,
                inner.disk_bytes(),
                inner.live_bytes(),
                inner.sealed.len() as u64,
            )
        };
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt_skipped: self.corrupt_skipped.load(Ordering::Relaxed),
            records,
            decode_hits: self.decode_hits.load(Ordering::Relaxed),
            decode_misses: self.decode_misses.load(Ordering::Relaxed),
            disk_bytes,
            live_bytes,
            dead_bytes: disk_bytes.saturating_sub(live_bytes),
            segments,
            compactions: self.compactions.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    /// The options this store was opened with.
    pub fn options(&self) -> StoreOptions {
        self.opts
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Cumulative `(read, write)` wall-clock nanoseconds spent inside
    /// `get` and `put`/`put_raw`/`sync`. Monotone; callers take deltas to
    /// attribute store I/O time to a window of work (e.g. one serve
    /// batch).
    pub fn io_nanos(&self) -> (u64, u64) {
        (
            self.read_nanos.load(Ordering::Relaxed),
            self.write_nanos.load(Ordering::Relaxed),
        )
    }

    /// Sync the active log (as [`ProfileStore::sync`] does) and rewrite
    /// the manifest: the shutdown barrier for the serve daemon.
    pub fn flush(&self) -> Result<(), ProphetError> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.sync_active_locked(&mut inner)?;
        Self::commit_manifest_locked(&self.dir, &inner)
    }

    /// Rewrite sealed segments whose dead-byte ratio exceeds the
    /// threshold into one fresh segment, then swap the manifest by
    /// atomic rename and delete the rewritten files. Dead bytes are
    /// frames the live-key index does not point at — duplicates from
    /// concatenated or crash-recovered logs — plus, when
    /// [`CompactOptions::retain_suffix`] is set, every record whose key
    /// does not end with that suffix (stale calibration generations).
    /// Live frames are copied *verbatim* (header, key, payload, CRC),
    /// so every surviving record replays byte-identically after the
    /// rewrite. The swap is crash-safe: a crash before the manifest
    /// rename leaves the old manifest pointing at the old segments, and
    /// the next open deletes the half-written replacement.
    pub fn compact(&self, copts: &CompactOptions) -> Result<CompactReport, ProphetError> {
        let mut inner = self.inner.lock().expect("store lock poisoned");
        if copts.include_active {
            self.seal_locked(&mut inner)?;
        }
        let min_ratio = copts.min_dead_ratio.unwrap_or(self.opts.compact_ratio);
        let nseg = inner.sealed.len();
        let mut report = CompactReport {
            segments_before: nseg as u64,
            segments_after: nseg as u64,
            rewritten: 0,
            live_records: inner.index.len() as u64,
            dropped_records: 0,
            reclaimed_bytes: 0,
            disk_bytes: inner.disk_bytes(),
        };

        // Live bytes per sealed segment, under the retain predicate.
        let retained = |key: &str| {
            copts
                .retain_suffix
                .as_deref()
                .is_none_or(|suf| key.ends_with(suf))
        };
        let mut live = vec![0u64; nseg];
        for (key, e) in &inner.index {
            if e.seg != ACTIVE_SEG && retained(key) {
                live[e.seg as usize] += e.frame_len(key);
            }
        }
        let selected: Vec<usize> = (0..nseg)
            .filter(|&i| {
                let len = inner.sealed[i].valid_len;
                let dead = len - live[i];
                dead > 0 && (dead as f64 / len as f64) >= min_ratio
            })
            .collect();
        if selected.is_empty() {
            return Ok(report);
        }

        // Copy the selected segments' live frames, in their original
        // order, into one replacement segment image.
        let mut entries: Vec<(String, IndexEntry)> = inner
            .index
            .iter()
            .filter(|(_, e)| e.seg != ACTIVE_SEG && selected.contains(&(e.seg as usize)))
            .map(|(k, e)| (k.clone(), *e))
            .collect();
        entries.sort_by_key(|(_, e)| (e.seg, e.payload_at));
        let mut image: Vec<u8> = Vec::new();
        let mut moved: Vec<(String, IndexEntry)> = Vec::new();
        let mut dropped: Vec<String> = Vec::new();
        for (key, e) in entries {
            if !retained(&key) {
                dropped.push(key);
                continue;
            }
            let frame = inner
                .segment(e.seg)
                .read_bytes(e.frame_at(&key), e.frame_len(&key))?;
            let payload_at = image.len() as u64 + HEADER_LEN + key.len() as u64;
            image.extend_from_slice(&frame);
            moved.push((
                key,
                IndexEntry {
                    seg: 0, // re-assigned below once the ordinal is known
                    payload_at,
                    payload_len: e.payload_len,
                    crc: e.crc,
                },
            ));
        }

        // Write the replacement segment (unlisted until the manifest
        // swap — a crash from here to the swap leaves it an orphan the
        // next open deletes).
        let new_seg = if image.is_empty() {
            None
        } else {
            let seq = inner.next_seq;
            let name = segment_file_name(seq);
            let mut f = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(self.dir.join(&name))?;
            f.write_all(&image)?;
            f.sync_all()?;
            Some((seq, name, f))
        };
        if copts.crash_before_swap {
            // Test hook: simulate dying after the replacement segment
            // hit disk but before the manifest swap. Nothing in memory
            // or in the manifest has changed.
            return Err(ProphetError::Store(
                "compaction aborted by crash_before_swap".to_string(),
            ));
        }

        // Atomic swap: the new manifest names the survivors plus the
        // replacement; only then are the rewritten files deleted.
        let mut ord_remap: Vec<Option<u32>> = vec![None; nseg];
        let mut survivors: Vec<SegmentState> = Vec::new();
        let mut rewritten: Vec<SegmentState> = Vec::new();
        for (i, seg) in inner.sealed.drain(..).enumerate() {
            if selected.contains(&i) {
                rewritten.push(seg);
            } else {
                ord_remap[i] = Some(survivors.len() as u32);
                survivors.push(seg);
            }
        }
        let new_ord = survivors.len() as u32;
        if let Some((seq, name, file)) = new_seg {
            let valid_len = image.len() as u64;
            let map = map::Mapping::new(&file, valid_len);
            survivors.push(SegmentState {
                name,
                file,
                map,
                valid_len,
                records: moved.len() as u64,
            });
            inner.next_seq = seq + 1;
        }
        inner.sealed = survivors;
        // Remap survivor ordinals first; entries pointing into the
        // rewritten segments are then replaced (moved) or removed
        // (dropped) — between them that covers every such entry.
        for e in inner.index.values_mut() {
            if e.seg == ACTIVE_SEG {
                continue;
            }
            if let Some(new) = ord_remap.get(e.seg as usize).copied().flatten() {
                e.seg = new;
            }
        }
        for (key, mut e) in moved {
            e.seg = new_ord;
            inner.index.insert(key, e);
        }
        for key in &dropped {
            inner.index.remove(key);
            inner.decoded.remove(key);
        }
        Self::commit_manifest_locked(&self.dir, &inner)?;
        for seg in rewritten {
            let _ = fs::remove_file(self.dir.join(&seg.name));
        }

        let disk_after = inner.disk_bytes();
        report.segments_after = inner.sealed.len() as u64;
        report.rewritten = selected.len() as u64;
        report.live_records = inner.index.len() as u64;
        report.dropped_records = dropped.len() as u64;
        report.reclaimed_bytes = report.disk_bytes.saturating_sub(disk_after);
        report.disk_bytes = disk_after;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.reclaimed_bytes
            .fetch_add(report.reclaimed_bytes, Ordering::Relaxed);
        Ok(report)
    }
}

/// One record's verification status in an [`InspectReport`].
#[derive(Debug, Clone, Serialize)]
pub struct InspectRecord {
    /// Frame format version (always 2, `PSR2`).
    pub version: u8,
    /// File the record was scanned from (active log or a sealed
    /// segment).
    pub file: String,
    /// The record's store-level key.
    pub key: String,
    /// Payload size in bytes.
    pub payload_len: u32,
    /// Whether the payload matches its stored CRC-32.
    pub crc_ok: bool,
}

/// Read-only verification report over a store directory's logs,
/// produced by [`inspect`].
#[derive(Debug, Clone, Serialize)]
pub struct InspectReport {
    /// Every record reachable by frame scanning, in log order (sealed
    /// segments first, then the active log).
    pub records: Vec<InspectRecord>,
    /// Total bytes across the inspected log files.
    pub disk_bytes: u64,
    /// Description of framing-level damage (bad magic / truncation)
    /// that ended a scan early, if any.
    pub corrupt_tail: Option<String>,
}

impl InspectReport {
    /// Number of scanned records failing their CRC.
    pub fn corrupt_records(&self) -> u64 {
        self.records.iter().filter(|r| !r.crc_ok).count() as u64
    }

    /// True when every record verified and no scan hit damaged framing.
    pub fn is_clean(&self) -> bool {
        self.corrupt_tail.is_none() && self.corrupt_records() == 0
    }
}

/// Scan and CRC-verify the logs in a store directory without opening
/// (or repairing) the store. Unlike [`StoreBuilder::open`], a CRC
/// mismatch does not stop the scan — the frame's lengths still chain —
/// so the report lists every reachable record with its verdict. Never
/// modifies the directory.
pub fn inspect(dir: impl Into<PathBuf>) -> Result<InspectReport, ProphetError> {
    let dir = dir.into();
    if !dir.is_dir() {
        return Err(ProphetError::Store(format!(
            "{} is not a store directory",
            dir.display()
        )));
    }
    let mut records = Vec::new();
    let mut disk_bytes = 0u64;
    let mut corrupt_tail = None;
    // Sealed segments (manifest order) first, then the active log — the
    // same order open scans them in.
    let mut files: Vec<String> = ProfileStore::read_manifest(&dir)
        .and_then(|m| m.segments)
        .unwrap_or_default()
        .into_iter()
        .map(|s| s.name)
        .collect();
    files.push(LOG_NAME.to_string());
    for name in files {
        let name = name.as_str();
        let path = dir.join(name);
        let Ok(bytes) = fs::read(&path) else {
            continue;
        };
        disk_bytes += bytes.len() as u64;
        let mut at = 0u64;
        while at < bytes.len() as u64 {
            match scan_frame(&bytes, at) {
                Ok(f) => {
                    records.push(InspectRecord {
                        version: 2,
                        file: name.to_string(),
                        key: f.key,
                        payload_len: f.payload_len,
                        crc_ok: f.crc_ok,
                    });
                    at = f.next;
                }
                Err(reason) => {
                    corrupt_tail = Some(format!(
                        "{name}: {reason} at byte {at} ({} trailing byte(s))",
                        bytes.len() as u64 - at
                    ));
                    break;
                }
            }
        }
    }
    Ok(InspectReport {
        records,
        disk_bytes,
        corrupt_tail,
    })
}

/// Adapter implementing the sweep engine's [`ProfileStorage`] over a
/// [`ProfileStore`], namespacing workload cache keys with the owning
/// prophet's fingerprints:
///
/// ```text
/// <workload key>@cal=<calibration fp>;opt=<profile-options fp>
/// ```
///
/// A persisted profile is only ever replayed by a prophet whose
/// calibration *and* profiling configuration match the one that wrote
/// it; any mismatch simply misses and re-profiles. Both operations are
/// best-effort per the [`ProfileStorage`] contract: I/O errors warn on
/// stderr and degrade to profiling, never failing a sweep.
pub struct KeyedStore {
    store: Arc<ProfileStore>,
    suffix: String,
}

impl KeyedStore {
    /// Bind `store` to `prophet`'s fingerprints. Computes the
    /// calibration eagerly (fingerprinting needs it) — the daemon pays
    /// that cost at startup instead of on the first request.
    pub fn new(store: Arc<ProfileStore>, prophet: &prophet_core::Prophet) -> Self {
        KeyedStore {
            store,
            suffix: format!(
                "@cal={:016x};opt={:016x}",
                prophet.calibration_fingerprint(),
                prophet.profile_options_fingerprint()
            ),
        }
    }

    /// The store-level key for a workload cache key.
    pub fn full_key(&self, key: &str) -> String {
        format!("{key}{}", self.suffix)
    }

    /// The fingerprint suffix appended to every key (`@cal=…;opt=…`).
    /// The serve layer passes this as the compaction retain predicate
    /// so stale calibration generations are garbage-collected, and
    /// surfaces it in cluster status.
    pub fn suffix(&self) -> &str {
        &self.suffix
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<ProfileStore> {
        &self.store
    }
}

impl ProfileStorage for KeyedStore {
    fn load(&self, key: &str) -> Option<Profiled> {
        match self.store.get(&self.full_key(key)) {
            Ok(found) => found,
            Err(e) => {
                eprintln!("prophet-store: warning: load of {key:?} failed ({e}); re-profiling");
                None
            }
        }
    }

    fn save(&self, key: &str, profiled: &Profiled) {
        if let Err(e) = self.store.put(&self.full_key(key), profiled) {
            eprintln!(
                "prophet-store: warning: save of {key:?} failed ({e}); profile not persisted"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("prophet-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_profiled(name: &str) -> Profiled {
        struct Tiny;
        impl prophet_core::tracer::AnnotatedProgram for Tiny {
            fn name(&self) -> &str {
                "tiny"
            }
            fn run(&self, t: &mut prophet_core::tracer::Tracer) {
                t.par_sec_begin("s");
                t.par_task_begin("t");
                t.work(5_000);
                t.par_task_end();
                t.par_sec_end(false);
            }
        }
        let prophet = prophet_core::Prophet::builder()
            .calibration(prophet_core::memmodel::calibrate(
                prophet_core::machsim::MachineConfig::westmere_scaled(),
                &prophet_core::memmodel::CalibrationOptions {
                    thread_counts: vec![2],
                    intensity_steps: 3,
                    packet_cycles: 100_000,
                },
            ))
            .build();
        let mut p = prophet.profile(&Tiny);
        p.name = name.to_string();
        p
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn put_get_roundtrip_and_restart() {
        let dir = tmpdir("roundtrip");
        let profiled = sample_profiled("alpha");
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            assert!(store.is_empty());
            store.put("k1", &profiled).unwrap();
            let got = store.get("k1").unwrap().unwrap();
            assert_eq!(
                serde_json::to_string(&got).unwrap(),
                serde_json::to_string(&profiled).unwrap()
            );
            assert_eq!(store.get("absent").unwrap().map(|p| p.name), None);
            let s = store.stats();
            assert_eq!((s.hits, s.misses, s.writes, s.records), (1, 1, 1, 1));
            assert!(s.disk_bytes > 0);
        }
        // Re-open: the record survives and decodes identically (through
        // the mapped prefix on Linux).
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 1);
        let got = store.get("k1").unwrap().unwrap();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&profiled).unwrap()
        );
        let s = store.stats();
        assert_eq!((s.decode_hits, s.decode_misses), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_put_is_a_noop() {
        let dir = tmpdir("dup");
        let store = ProfileStore::builder(&dir).open().unwrap();
        let profiled = sample_profiled("beta");
        store.put("k", &profiled).unwrap();
        let len_after_first = fs::metadata(dir.join(LOG_NAME)).unwrap().len();
        store.put("k", &profiled).unwrap();
        assert_eq!(
            fs::metadata(dir.join(LOG_NAME)).unwrap().len(),
            len_after_first,
            "second put of the same key must not grow the log"
        );
        assert_eq!(store.stats().writes, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_skipped_with_recovery() {
        let dir = tmpdir("trunc");
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            store.put("whole", &sample_profiled("a")).unwrap();
            store.put("torn", &sample_profiled("b")).unwrap();
        }
        // Tear the last record: drop its final 10 bytes (crash mid-append).
        let log = dir.join(LOG_NAME);
        let len = fs::metadata(&log).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(len - 10)
            .unwrap();

        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 1, "only the whole record survives");
        assert!(store.get("whole").unwrap().is_some());
        assert!(store.get("torn").unwrap().is_none());
        assert_eq!(store.stats().corrupt_skipped, 1);
        // The trim resynced the log: appends work and survive re-open.
        store.put("torn", &sample_profiled("b2")).unwrap();
        drop(store);
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get("torn").unwrap().unwrap().name, "b2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_payload_is_skipped_not_panicked() {
        let dir = tmpdir("corrupt");
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            store.put("first", &sample_profiled("a")).unwrap();
            store.put("second", &sample_profiled("b")).unwrap();
        }
        // Flip one byte inside the second record's payload.
        let log = dir.join(LOG_NAME);
        let mut bytes = fs::read(&log).unwrap();
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0xff;
        fs::write(&log, &bytes).unwrap();

        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 1, "corruption drops the damaged tail");
        assert!(store.get("first").unwrap().is_some());
        assert_eq!(store.stats().corrupt_skipped, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_tracks_the_log() {
        let dir = tmpdir("manifest");
        let store = ProfileStore::builder(&dir).open().unwrap();
        store.put("k", &sample_profiled("a")).unwrap();
        store.flush().unwrap();
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        assert_eq!(manifest.version, 3);
        assert_eq!(manifest.records, 1);
        assert_eq!(
            manifest.committed_len,
            fs::metadata(dir.join(LOG_NAME)).unwrap().len()
        );
        assert!(manifest
            .segments
            .expect("v3 manifest lists segments")
            .is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_sync_makes_a_batch_of_puts_durable() {
        let dir = tmpdir("sync-batch");
        let before;
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            for i in 0..5 {
                store
                    .put(&format!("k{i}"), &sample_profiled(&format!("p{i}")))
                    .unwrap();
            }
            assert_eq!(store.stats().syncs, 0, "puts do not fsync");
            store.sync().unwrap();
            assert_eq!(store.stats().syncs, 1);
            store.sync().unwrap();
            assert_eq!(store.stats().syncs, 1, "nothing appended since");
            assert_eq!(store.stats().writes, 5);
            before = snapshot(&store);
        }
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 5);
        assert_eq!(
            snapshot(&store),
            before,
            "synced records replay byte-identically"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn puts_below_the_seal_threshold_leave_the_manifest_alone() {
        let dir = tmpdir("manifest-still");
        let store = ProfileStore::builder(&dir).open().unwrap();
        let at_open = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        for k in ["a", "b", "c"] {
            store.put(k, &sample_profiled(k)).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(
            fs::read(dir.join(MANIFEST_NAME)).unwrap(),
            at_open,
            "appends must not rewrite the manifest"
        );
        assert_eq!(store.stats().segments, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sealing_put_syncs_before_it_seals() {
        let dir = tmpdir("seal-sync");
        let store = ProfileStore::builder(&dir).segment_bytes(1).open().unwrap();
        store.put("a", &sample_profiled("a")).unwrap();
        let s = store.stats();
        assert_eq!((s.segments, s.syncs), (1, 1), "the seal fsynced the log");
        store.sync().unwrap();
        assert_eq!(store.stats().syncs, 1, "the fresh active log is clean");
        let manifest: Manifest =
            serde_json::from_str(&fs::read_to_string(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        let segments = manifest.segments.expect("v3 manifest lists segments");
        assert_eq!(segments.len(), 1);
        assert_eq!(
            segments[0].len,
            fs::metadata(dir.join(&segments[0].name)).unwrap().len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_cache_capacity_is_configurable() {
        let dir = tmpdir("cachecap");
        let store = ProfileStore::builder(&dir)
            .decode_cache_cap(1)
            .open()
            .unwrap();
        store.put("k1", &sample_profiled("a")).unwrap();
        store.put("k2", &sample_profiled("b")).unwrap();
        // Cap 1: the put of k2 evicted k1, so this get decodes from
        // disk; the repeat is served from the LRU.
        assert!(store.get("k1").unwrap().is_some());
        assert!(store.get("k1").unwrap().is_some());
        let s = store.stats();
        assert_eq!((s.decode_misses, s.decode_hits), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_reports_records_and_corruption_read_only() {
        let dir = tmpdir("inspect");
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            store.put("first", &sample_profiled("a")).unwrap();
            store.put("second", &sample_profiled("b")).unwrap();
        }
        let clean = inspect(&dir).unwrap();
        assert!(clean.is_clean());
        assert_eq!(clean.records.len(), 2);
        assert!(clean
            .records
            .iter()
            .all(|r| r.version == 2 && r.crc_ok && r.payload_len > 0));

        // Flip a payload byte in the second record: inspect still lists
        // both records (framing chains past a CRC failure) and flags
        // the damage — without repairing or truncating anything.
        let log = dir.join(LOG_NAME);
        let mut bytes = fs::read(&log).unwrap();
        let len_before = bytes.len() as u64;
        let mid = bytes.len() - 20;
        bytes[mid] ^= 0xff;
        fs::write(&log, &bytes).unwrap();

        let report = inspect(&dir).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.corrupt_records(), 1);
        assert!(report.records[0].crc_ok);
        assert!(!report.records[1].crc_ok);
        assert_eq!(
            fs::metadata(&log).unwrap().len(),
            len_before,
            "inspect must never modify the log"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keyed_store_namespaces_by_fingerprints() {
        let dir = tmpdir("keyed");
        let store = Arc::new(ProfileStore::builder(&dir).open().unwrap());
        let light = prophet_core::Prophet::builder()
            .calibration(prophet_core::memmodel::calibrate(
                prophet_core::machsim::MachineConfig::westmere_scaled(),
                &prophet_core::memmodel::CalibrationOptions {
                    thread_counts: vec![2],
                    intensity_steps: 3,
                    packet_cycles: 100_000,
                },
            ))
            .build();
        let keyed = KeyedStore::new(store.clone(), &light);
        let profiled = sample_profiled("gamma");
        keyed.save("wl:1", &profiled);
        assert!(keyed.load("wl:1").is_some());

        // A prophet with different options must not see the record.
        let other = prophet_core::Prophet::builder()
            .calibration(light.calibration().clone())
            .burden_thread_counts(vec![2, 4])
            .build();
        let other_keyed = KeyedStore::new(store.clone(), &other);
        assert!(
            other_keyed.load("wl:1").is_none(),
            "fingerprint mismatch must miss"
        );
        assert_ne!(keyed.full_key("wl:1"), other_keyed.full_key("wl:1"));
        let _ = fs::remove_dir_all(&dir);
    }

    /// JSON image of every record, sorted by key — the byte-identity
    /// yardstick for rotation/compaction tests.
    fn snapshot(store: &ProfileStore) -> Vec<(String, String)> {
        store
            .keys()
            .iter()
            .map(|k| {
                let p = store.get(&k.key).unwrap().expect("live key decodes");
                (k.key.clone(), serde_json::to_string(&p).unwrap())
            })
            .collect()
    }

    #[test]
    fn active_log_rotates_into_sealed_segments() {
        let dir = tmpdir("rotate");
        let before;
        {
            // A 1-byte threshold seals after every put: 3 puts → 3
            // sealed segments, empty active log.
            let store = ProfileStore::builder(&dir).segment_bytes(1).open().unwrap();
            for k in ["a", "b", "c"] {
                store.put(k, &sample_profiled(k)).unwrap();
            }
            let s = store.stats();
            assert_eq!(s.segments, 3);
            assert_eq!(s.records, 3);
            assert_eq!(s.dead_bytes, 0);
            for k in store.keys() {
                assert_ne!(k.segment, LOG_NAME, "all records live in sealed segments");
            }
            before = snapshot(&store);
        }
        assert!(dir.join(segment_file_name(1)).exists());
        assert!(dir.join(segment_file_name(3)).exists());

        // Reopen with the default threshold: sealed records replay
        // byte-identically and new appends land in the active log.
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(
            snapshot(&store),
            before,
            "sealed records replay byte-identically"
        );
        assert_eq!(store.stats().corrupt_skipped, 0);
        store.put("d", &sample_profiled("d")).unwrap();
        assert_eq!(
            store.stats().segments,
            3,
            "default threshold keeps d active"
        );
        assert!(store
            .keys()
            .iter()
            .any(|k| k.key == "d" && k.segment == LOG_NAME));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_stale_suffix_and_survivors_replay_identically() {
        let dir = tmpdir("compact");
        let store = ProfileStore::builder(&dir).open().unwrap();
        store
            .put("wl:a@cal=old", &sample_profiled("a-old"))
            .unwrap();
        store
            .put("wl:a@cal=new", &sample_profiled("a-new"))
            .unwrap();
        store
            .put("wl:b@cal=new", &sample_profiled("b-new"))
            .unwrap();
        let live_before: Vec<(String, String)> = snapshot(&store)
            .into_iter()
            .filter(|(k, _)| k.ends_with("@cal=new"))
            .collect();
        let disk_before = store.stats().disk_bytes;

        let report = store
            .compact(&CompactOptions {
                min_dead_ratio: Some(0.0),
                retain_suffix: Some("@cal=new".to_string()),
                ..CompactOptions::default()
            })
            .unwrap();
        assert_eq!(report.dropped_records, 1, "stale generation dropped");
        assert_eq!(report.live_records, 2);
        assert_eq!(report.rewritten, 1);
        assert!(report.reclaimed_bytes > 0);
        assert!(
            report.disk_bytes < disk_before,
            "compaction shrinks disk bytes"
        );

        let s = store.stats();
        assert_eq!((s.records, s.compactions), (2, 1));
        assert_eq!(s.reclaimed_bytes, report.reclaimed_bytes);
        assert_eq!(s.dead_bytes, 0, "compacted store has no dead bytes");
        assert!(!store.contains("wl:a@cal=old"));
        assert_eq!(
            snapshot(&store),
            live_before,
            "survivors replay byte-identically"
        );

        // A second pass finds nothing to do.
        let idle = store
            .compact(&CompactOptions {
                min_dead_ratio: Some(0.0),
                retain_suffix: Some("@cal=new".to_string()),
                ..CompactOptions::default()
            })
            .unwrap();
        assert_eq!(idle.rewritten, 0);
        drop(store);

        // ... and everything survives a reopen.
        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(snapshot(&store), live_before);
        assert_eq!(store.stats().corrupt_skipped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_duplicate_frames() {
        let dir = tmpdir("compact-dup");
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            store.put("k1", &sample_profiled("a")).unwrap();
            store.put("k2", &sample_profiled("b")).unwrap();
        }
        // Double the log: every frame now has a dead duplicate, as
        // after a log concatenation or crash-recovered replay.
        let log = dir.join(LOG_NAME);
        let bytes = fs::read(&log).unwrap();
        let doubled = [bytes.as_slice(), bytes.as_slice()].concat();
        fs::write(&log, &doubled).unwrap();

        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.len(), 2, "first write wins over duplicates");
        let before = snapshot(&store);
        let s = store.stats();
        assert_eq!(s.dead_bytes, bytes.len() as u64);

        let report = store.compact(&CompactOptions::default()).unwrap();
        assert_eq!(report.rewritten, 1);
        assert_eq!(report.reclaimed_bytes, bytes.len() as u64);
        assert_eq!(store.stats().dead_bytes, 0);
        assert_eq!(snapshot(&store), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_before_manifest_swap_replays_pre_compaction_state() {
        let dir = tmpdir("compact-crash");
        let before;
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            store.put("keep@g2", &sample_profiled("keep")).unwrap();
            store.put("stale@g1", &sample_profiled("stale")).unwrap();
            before = snapshot(&store);
            let err = store
                .compact(&CompactOptions {
                    min_dead_ratio: Some(0.0),
                    retain_suffix: Some("@g2".to_string()),
                    crash_before_swap: true,
                    ..CompactOptions::default()
                })
                .expect_err("crash hook must abort the pass");
            assert!(err.to_string().contains("crash_before_swap"));
        }
        // The half-written replacement segment is on disk but the
        // manifest never swapped: reopen heals the orphan and replays
        // the *pre*-compaction state byte-identically — stale key
        // included.
        let orphans = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                parse_segment_file_name(&e.as_ref().unwrap().file_name().to_string_lossy())
                    .is_some()
            })
            .count();
        assert!(orphans >= 2, "seal + replacement segment on disk");

        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(store.stats().corrupt_skipped, 0);
        assert_eq!(snapshot(&store), before, "pre-compaction state replays");
        assert!(store.contains("stale@g1"));

        // The healed store compacts cleanly afterwards.
        let report = store
            .compact(&CompactOptions {
                min_dead_ratio: Some(0.0),
                retain_suffix: Some("@g2".to_string()),
                ..CompactOptions::default()
            })
            .unwrap();
        assert_eq!(report.dropped_records, 1);
        assert!(!store.contains("stale@g1"));
        assert!(store.contains("keep@g2"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_and_put_raw_roundtrip_between_stores() {
        let src_dir = tmpdir("export-src");
        let dst_dir = tmpdir("export-dst");
        let src = ProfileStore::builder(&src_dir).open().unwrap();
        let profiled = sample_profiled("moved");
        src.put("wl:m", &profiled).unwrap();
        let payload = src
            .export_record("wl:m")
            .unwrap()
            .expect("live key exports");
        assert!(src.export_record("absent").unwrap().is_none());

        let dst = ProfileStore::builder(&dst_dir).open().unwrap();
        assert!(dst.put_raw("wl:m", &payload).unwrap(), "first ingest lands");
        assert!(!dst.put_raw("wl:m", &payload).unwrap(), "second is a no-op");
        let got = dst.get("wl:m").unwrap().unwrap();
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&profiled).unwrap(),
            "migrated record replays byte-identically"
        );
        // Same frame bytes on both sides.
        assert_eq!(dst.export_record("wl:m").unwrap().unwrap(), payload);

        // Garbage is rejected before it can be persisted.
        assert!(dst.put_raw("junk", b"not a profile").is_err());
        assert!(!dst.contains("junk"));
        let _ = fs::remove_dir_all(&src_dir);
        let _ = fs::remove_dir_all(&dst_dir);
    }

    #[test]
    fn put_raw_rejects_a_cyclic_tree() {
        use prophet_core::proftree::{ChildList, NodeKind};
        let dir = tmpdir("cyclic");
        let store = ProfileStore::builder(&dir).open().unwrap();
        // A section that lists itself as its own child: decoding must
        // fail before the record is persisted, or every later predict
        // on the key would recurse without end.
        let mut profiled = sample_profiled("cyclic");
        let sec = profiled
            .tree
            .ids()
            .find(|&id| matches!(profiled.tree.node(id).kind, NodeKind::Sec { .. }))
            .expect("sample has a section");
        profiled.tree.node_mut(sec).children = ChildList::Plain(vec![sec]);
        let mut payload = Vec::new();
        prophet_core::codec::encode_profiled(&profiled, &mut payload);
        let err = store.put_raw("wl:cyclic", &payload).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
        assert!(!store.contains("wl:cyclic"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_seal_adopts_segment_back_as_active() {
        let dir = tmpdir("heal-seal");
        let before;
        {
            let store = ProfileStore::builder(&dir).open().unwrap();
            store.put("k1", &sample_profiled("a")).unwrap();
            store.put("k2", &sample_profiled("b")).unwrap();
            store.flush().unwrap();
            before = snapshot(&store);
        }
        // Simulate a seal that crashed between the rename and the fresh
        // active log: active gone, an unlisted segment holds its bytes.
        fs::rename(dir.join(LOG_NAME), dir.join(segment_file_name(7))).unwrap();

        let store = ProfileStore::builder(&dir).open().unwrap();
        assert_eq!(
            snapshot(&store),
            before,
            "adopted log replays byte-identically"
        );
        assert!(dir.join(LOG_NAME).exists());
        assert!(!dir.join(segment_file_name(7)).exists());
        // The adopted sequence number is never reused.
        store.seal().unwrap();
        assert!(dir.join(segment_file_name(8)).exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
