//! The durable envelope store: per-shard append-only segment logs, a
//! version-history hash index, torn-tail recovery and compaction.
//!
//! One [`EnvelopeStore`] owns `N` storage shards. Each shard is a chain
//! of segment files (`shard0003-seg00000007.plog`) whose records are the
//! write-ahead log *and* the data — there is no second copy to keep in
//! sync. A publication appends one committed record ([`crate::record`])
//! to the shard's active segment, syncs the backend (the durability
//! barrier), and only then updates the in-memory hash index
//! `user → [(version, segment, offset)]`. A crash between those steps
//! loses nothing that was acknowledged: acknowledged means synced.
//!
//! **Recovery** ([`EnvelopeStore::open`]) lists the backend, replays
//! every shard's segments in sequence order, rebuilds the index from
//! committed records only, and physically truncates the first torn or
//! corrupt byte onward — after which the log is exactly its committed
//! prefix and appending may resume. The recovery argument is an
//! induction over records: the scanner advances only across records
//! whose CRC and commit marker verify, so the rebuilt index equals the
//! index at the moment of the last acknowledged publication, for *any*
//! crash point.
//!
//! **Compaction** rewrites each shard's retained versions (the newest
//! [`CompactionPolicy::retain_versions`] per user) into fresh segments
//! and deletes the old chain, reclaiming superseded versions while
//! version *numbers* are preserved — a rollback target stays addressable
//! as long as the policy retains it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use pelican_nn::ModelEnvelope;

use crate::backend::StorageBackend;
use crate::compress::{compress, decompress};
use crate::record::{
    decode_frame, decode_header, encode_header, frame, scan_segment, Record, ScanEnd,
    FLAG_COMPRESSED, HEADER_LEN, PAYLOAD_OFFSET, RECORD_OVERHEAD, TAIL_LEN,
};

/// Sizing and behaviour knobs for [`EnvelopeStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Number of storage shards (independent segment chains + locks).
    pub shards: usize,
    /// Roll to a fresh segment once the active one exceeds this many
    /// bytes (checked before each append, so records never split).
    pub segment_bytes: u64,
    /// Compress payloads with the built-in LZSS coder, keeping the
    /// compressed form only when it is actually smaller.
    pub compress: bool,
    /// What compaction keeps.
    pub compaction: CompactionPolicy,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            segment_bytes: 4 << 20,
            compress: false,
            compaction: CompactionPolicy::default(),
        }
    }
}

/// Retention policy applied by [`EnvelopeStore::compact`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Newest versions kept per user; older ones are dropped when the
    /// shard is compacted (never on the append path).
    pub retain_versions: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { retain_versions: 8 }
    }
}

/// Where one committed publication lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionEntry {
    /// Registry-assigned monotone publication version.
    pub version: u64,
    /// Segment sequence number within the shard.
    pub segment: u64,
    /// Byte offset of the record inside the segment file.
    pub offset: u64,
    /// Total record length on disk (header through commit byte).
    pub stored_len: u32,
    /// Uncompressed payload size.
    pub raw_len: u32,
    /// Whether the payload is LZSS-compressed on disk.
    pub compressed: bool,
}

impl VersionEntry {
    /// Where `record` lives: at `offset` of segment `segment`.
    fn of(record: &Record, segment: u64, offset: u64) -> Self {
        Self {
            version: record.version,
            segment,
            offset,
            stored_len: record.encoded_len() as u32,
            raw_len: record.raw_len,
            compressed: record.is_compressed(),
        }
    }
}

/// Failures talking to the store.
#[derive(Debug)]
pub enum StoreError {
    /// The backend failed.
    Io(std::io::Error),
    /// A segment file is not a log segment (foreign file in the
    /// directory, or unsupported format version).
    BadSegment { name: String, reason: String },
    /// A record that the index points at no longer verifies, or is not
    /// the publication the index names — the file was mutilated after
    /// recovery.
    Corrupt { segment: u64, offset: u64 },
    /// The user has no committed version with this number (never
    /// published, or compacted away).
    UnknownVersion { user: u64, version: u64 },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage backend error: {e}"),
            StoreError::BadSegment { name, reason } => {
                write!(f, "segment '{name}' is unusable: {reason}")
            }
            StoreError::Corrupt { segment, offset } => {
                write!(f, "indexed record at segment {segment} offset {offset} fails to verify")
            }
            StoreError::UnknownVersion { user, version } => {
                write!(f, "user {user} has no committed version {version}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// What [`EnvelopeStore::open`] found while replaying the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Segment files replayed.
    pub segments: usize,
    /// Committed records indexed.
    pub committed_records: u64,
    /// Segments whose tail was torn or corrupt.
    pub torn_segments: usize,
    /// Bytes truncated off torn tails.
    pub torn_bytes: u64,
}

/// Aggregate counters across all shards.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Storage shards.
    pub shards: usize,
    /// Live segment files.
    pub segments: usize,
    /// Users with at least one committed version.
    pub users: usize,
    /// Committed versions currently addressable (the history depth
    /// summed over users).
    pub retained_versions: u64,
    /// Per-shard retained version counts (parallel history depth view).
    pub retained_by_shard: Vec<u64>,
    /// Records appended since open (excludes replayed history).
    pub appended_records: u64,
    /// Bytes appended since open.
    pub appended_bytes: u64,
    /// Uncompressed payload bytes behind the current index.
    pub live_raw_bytes: u64,
    /// On-disk payload bytes behind the current index (smaller than
    /// `live_raw_bytes` when compression is winning).
    pub live_stored_bytes: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Bytes reclaimed by compaction since open.
    pub reclaimed_bytes: u64,
    /// What recovery found when the store was opened.
    pub recovery: RecoveryReport,
}

impl StoreStats {
    /// On-disk payload bytes per uncompressed byte (1.0 = no win).
    pub fn compression_ratio(&self) -> f64 {
        if self.live_raw_bytes == 0 {
            1.0
        } else {
            self.live_stored_bytes as f64 / self.live_raw_bytes as f64
        }
    }
}

#[derive(Debug, Default)]
struct StoreShard {
    /// Segment seq → current byte length. Active segment is the max seq.
    segments: HashMap<u64, u64>,
    /// Version history per user, ascending by version.
    index: HashMap<u64, Vec<VersionEntry>>,
    /// Sequence number of the segment new records append to.
    active: u64,
}

impl StoreShard {
    fn active_len(&self) -> u64 {
        *self.segments.get(&self.active).unwrap_or(&0)
    }
}

/// The durable, crash-safe envelope store.
///
/// All operations take `&self`; each shard's bookkeeping sits behind its
/// own mutex, so publications on different shards proceed in parallel
/// and a reader never blocks a writer on another shard. See the module
/// docs for the durability and recovery arguments.
#[derive(Debug)]
pub struct EnvelopeStore {
    backend: Arc<dyn StorageBackend>,
    config: StoreConfig,
    shards: Vec<Mutex<StoreShard>>,
    /// Highest version seen anywhere (replayed or appended); a restarted
    /// registry seeds its monotone version counter from this.
    max_version: AtomicU64,
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    compactions: AtomicU64,
    reclaimed_bytes: AtomicU64,
    recovery: RecoveryReport,
}

fn segment_name(shard: u32, seq: u64) -> String {
    format!("shard{shard:04}-seg{seq:08}.plog")
}

/// Parses a `shardNNNN-segNNNNNNNN.plog` name back to `(shard, seq)`.
fn parse_segment_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("shard")?.strip_suffix(".plog")?;
    let (shard, seq) = rest.split_once("-seg")?;
    Some((shard.parse().ok()?, seq.parse().ok()?))
}

impl EnvelopeStore {
    /// Opens a store over a backend, replaying whatever log the backend
    /// already holds: segments are scanned in sequence order, committed
    /// records rebuild the index, and torn tails are physically
    /// truncated so the log ends on its last committed publication.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the backend fails, a file in the
    /// backend is not a log segment, or a segment header names a shard
    /// outside `config.shards` (the store was created with a different
    /// layout — refusing is safer than silently dropping history).
    pub fn open(backend: Arc<dyn StorageBackend>, config: StoreConfig) -> Result<Self, StoreError> {
        assert!(config.shards > 0, "store needs at least one shard");
        assert!(
            config.segment_bytes as usize > HEADER_LEN,
            "segments must hold more than a header"
        );
        assert!(config.compaction.retain_versions > 0, "retaining zero versions loses everything");

        let mut shards: Vec<StoreShard> =
            (0..config.shards).map(|_| StoreShard::default()).collect();
        let mut recovery = RecoveryReport::default();
        let mut max_version = 0u64;

        // Backend listing is sorted and names embed zero-padded shard and
        // sequence numbers, so this replays each shard's chain in order.
        for name in backend.list()? {
            let (shard_no, seq) = parse_segment_name(&name).ok_or_else(|| {
                StoreError::BadSegment { name: name.clone(), reason: "unrecognized name".into() }
            })?;
            if shard_no as usize >= config.shards {
                return Err(StoreError::BadSegment {
                    name,
                    reason: format!(
                        "names shard {shard_no} but the store has {} shards",
                        config.shards
                    ),
                });
            }
            let bytes = backend.read(&name)?;
            // Zero bytes is a valid (already-repaired or never-written)
            // empty segment; 1..HEADER_LEN-1 bytes means the segment's
            // very first append (header + first record travel in one
            // write) tore before the header completed — nothing in this
            // file was ever committed, so wipe it and keep the seq slot
            // so appends restart cleanly.
            let (header_shard, header_seq) = match decode_header(&bytes) {
                Ok(pair) => pair,
                Err(crate::record::HeaderError::Truncated) => {
                    recovery.segments += 1;
                    if !bytes.is_empty() {
                        recovery.torn_segments += 1;
                        recovery.torn_bytes += bytes.len() as u64;
                        backend.truncate(&name, 0)?;
                    }
                    let shard = &mut shards[shard_no as usize];
                    shard.segments.insert(seq, 0);
                    shard.active = shard.active.max(seq);
                    continue;
                }
                Err(e) => {
                    return Err(StoreError::BadSegment {
                        name: name.clone(),
                        reason: format!("{e:?}"),
                    })
                }
            };
            if (header_shard, header_seq) != (shard_no, seq) {
                return Err(StoreError::BadSegment {
                    name,
                    reason: format!(
                        "header says shard {header_shard} seq {header_seq}, name disagrees"
                    ),
                });
            }
            let (records, committed_end, end) = scan_segment(&bytes);
            if end == ScanEnd::Torn {
                recovery.torn_segments += 1;
                recovery.torn_bytes += (bytes.len() - committed_end) as u64;
                backend.truncate(&name, committed_end as u64)?;
            }
            recovery.segments += 1;
            let shard = &mut shards[shard_no as usize];
            shard.segments.insert(seq, committed_end as u64);
            shard.active = shard.active.max(seq);
            for (offset, record) in records {
                recovery.committed_records += 1;
                max_version = max_version.max(record.version);
                push_entry(&mut shard.index, record.user, VersionEntry::of(&record, seq, offset));
            }
        }

        Ok(Self {
            backend,
            config,
            shards: shards.into_iter().map(Mutex::new).collect(),
            max_version: AtomicU64::new(max_version),
            appended_records: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            reclaimed_bytes: AtomicU64::new(0),
            recovery,
        })
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// Number of storage shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The storage shard a user's history lives on.
    pub fn shard_of(&self, user: u64) -> usize {
        (user % self.shards.len() as u64) as usize
    }

    /// Highest committed version anywhere in the log (0 when empty); a
    /// registry reopening the store seeds its version counter above this.
    pub fn max_version(&self) -> u64 {
        self.max_version.load(Ordering::Relaxed)
    }

    /// A backend call that panics poisons its shard's mutex, but leaves
    /// the shard's bookkeeping valid. `append` records a segment's new
    /// length as soon as the bytes are written and indexes the record
    /// only after the sync; `compact_shard` swaps in the fresh chain only
    /// after all of it is synced; a roll to a fresh segment number is
    /// taken up by the next append, which writes that segment's header.
    /// So the guard is taken back rather than every later call on the
    /// shard panicking. (Only an append that returns its error can say
    /// it may have written part of a record: one that panics mid-write
    /// leaves the segment longer than the shard records.)
    fn lock(&self, shard: usize) -> MutexGuard<'_, StoreShard> {
        self.shards[shard].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Durably appends one publication: frames the record (compressing
    /// the payload when configured and profitable), appends it to the
    /// shard's active segment, **syncs the backend**, and only then
    /// indexes the new version. When `append` returns, the publication
    /// survives any crash.
    ///
    /// An uncompressed record's payload is the envelope's own buffer
    /// ([`ModelEnvelope::shared_bytes`]): the store frames it, and copies
    /// none of it. On [`MemBackend`] the stored record keeps that
    /// allocation alive for as long as the record stays in the log, so
    /// the publisher's envelope and the store share one copy.
    ///
    /// [`MemBackend`]: crate::MemBackend
    ///
    /// Versions are assigned by the caller (the registry's monotone
    /// counter) and must be strictly increasing per user; the index
    /// keeps each user's history version-sorted on that contract.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the backend fails; the index is
    /// not updated in that case. A failed sync may still leave the
    /// record's bytes in the segment, and a later
    /// [`EnvelopeStore::open`] indexes them like any committed record.
    /// A failed append may leave a prefix of them; unless the backend
    /// then reports the segment's length unchanged, the next record
    /// starts a fresh segment, and recovery truncates the prefix.
    pub fn append(
        &self,
        user: u64,
        version: u64,
        envelope: &ModelEnvelope,
    ) -> Result<VersionEntry, StoreError> {
        let shard_no = self.shard_of(user);
        let mut shard = self.lock(shard_no);

        // The payload is the envelope's own buffer, or the compressed
        // form when that is actually smaller.
        let raw = envelope.shared_bytes();
        let raw_len = raw.len() as u32;
        let (flags, payload) =
            match self.config.compress.then(|| compress(&raw)).filter(|p| p.len() < raw.len()) {
                Some(packed) => (FLAG_COMPRESSED, Bytes::from(packed)),
                None => (0, raw),
            };
        let record = Record { user, version, flags, raw_len, payload: &payload };

        // Roll the active segment before appending so a record never
        // splits across files. A fresh segment's header travels in the
        // same synced append as its first record, in front of its head.
        let mut front = Vec::with_capacity(HEADER_LEN + PAYLOAD_OFFSET);
        if shard.active_len() == 0 {
            front.extend_from_slice(&encode_header(shard_no as u32, shard.active));
        } else if shard.active_len() + record.encoded_len() as u64 > self.config.segment_bytes {
            shard.active += 1;
            front.extend_from_slice(&encode_header(shard_no as u32, shard.active));
        }
        let entry =
            VersionEntry::of(&record, shard.active, shard.active_len() + front.len() as u64);
        let (head, tail) = frame(&record);
        front.extend_from_slice(&head);
        let parts = [front.into(), payload, Bytes::copy_from_slice(&tail)];

        // The bytes are in the segment once `append` returns, so its
        // length is recorded before the sync: a sync that fails or
        // panics must not leave the next record indexed at this one's
        // offset. The index entry waits for the sync. The backend takes
        // the parts over, in one call.
        let name = segment_name(shard_no as u32, shard.active);
        let active = shard.active;
        let old_len = shard.active_len();
        let appended = parts.iter().map(|part| part.len() as u64).sum::<u64>();
        if let Err(e) = self.backend.append(&name, &parts) {
            // The append may have written a prefix of the record. Unless
            // the backend says the segment still ends where it did, a
            // record appended after those stray bytes would be served
            // now but cut off with them by recovery's truncation, so
            // the next record rolls to a fresh segment.
            let len = self.backend.size(&name).ok();
            if let Some(len) = len {
                shard.segments.insert(active, len);
            }
            if len != Some(old_len) {
                shard.active += 1;
            }
            return Err(e.into());
        }
        shard.segments.insert(active, old_len + appended);
        self.backend.sync(&name)?; // the durability barrier

        push_entry(&mut shard.index, user, entry);
        self.max_version.fetch_max(version, Ordering::Relaxed);
        self.appended_records.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes.fetch_add(appended, Ordering::Relaxed);
        Ok(entry)
    }

    /// The newest committed version number for a user.
    pub fn latest_version(&self, user: u64) -> Option<u64> {
        let shard = self.lock(self.shard_of(user));
        shard.index.get(&user).and_then(|h| h.last()).map(|e| e.version)
    }

    /// Every committed version number for a user, ascending.
    pub fn versions(&self, user: u64) -> Vec<u64> {
        let shard = self.lock(self.shard_of(user));
        shard.index.get(&user).map_or_else(Vec::new, |h| h.iter().map(|e| e.version).collect())
    }

    /// Whether a user has any committed version.
    pub fn contains(&self, user: u64) -> bool {
        self.lock(self.shard_of(user)).index.contains_key(&user)
    }

    /// Fetches the newest committed envelope for a user, or `None` when
    /// the user never published.
    ///
    /// An uncompressed envelope is a window onto the bytes the backend
    /// handed out and the read verified, not a copy: on [`MemBackend`]
    /// it is the buffer the publisher handed to [`EnvelopeStore::append`]
    /// (through compactions and rollbacks, which move the buffer, not
    /// its bytes), and keeps that allocation alive (through removal of
    /// its segment) for as long as the envelope lives.
    ///
    /// [`MemBackend`]: crate::MemBackend
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the backend fails or the record was
    /// mutilated on disk after recovery.
    pub fn fetch_latest(&self, user: u64) -> Result<Option<ModelEnvelope>, StoreError> {
        Ok(self.fetch_latest_with_version(user)?.map(|(_, envelope)| envelope))
    }

    /// Fetches the newest committed envelope for a user together with
    /// the version it was committed as — the warm-start read the live
    /// personalization loop makes before an incremental re-train, where
    /// the version doubles as the rollback target if the re-train
    /// regresses.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the backend fails or the record was
    /// mutilated on disk after recovery.
    pub fn fetch_latest_with_version(
        &self,
        user: u64,
    ) -> Result<Option<(u64, ModelEnvelope)>, StoreError> {
        let entry = {
            let shard = self.lock(self.shard_of(user));
            shard.index.get(&user).and_then(|h| h.last()).copied()
        };
        match entry {
            Some(e) => Ok(Some((e.version, self.read_entry(user, &e)?))),
            None => Ok(None),
        }
    }

    /// Fetches one historical version of a user's envelope: a window onto
    /// the verified record, as for [`EnvelopeStore::fetch_latest`].
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownVersion`] when the user never committed that
    /// version (or compaction dropped it); backend/corruption errors as
    /// for [`EnvelopeStore::fetch_latest`].
    pub fn fetch(&self, user: u64, version: u64) -> Result<ModelEnvelope, StoreError> {
        let entry = {
            let shard = self.lock(self.shard_of(user));
            shard
                .index
                .get(&user)
                .and_then(|h| h.iter().find(|e| e.version == version))
                .copied()
                .ok_or(StoreError::UnknownVersion { user, version })?
        };
        self.read_entry(user, &entry)
    }

    /// Reads and verifies one of `user`'s indexed records, inflating
    /// when needed; a raw payload is the verified payload window, not a
    /// copy.
    fn read_entry(&self, user: u64, entry: &VersionEntry) -> Result<ModelEnvelope, StoreError> {
        let [_, payload, _] = self.read_record(user, entry)?;
        let payload = if entry.compressed {
            decompress(&payload, entry.raw_len as usize)
                .map_err(|_| StoreError::Corrupt { segment: entry.segment, offset: entry.offset })?
                .into()
        } else {
            payload
        };
        Ok(ModelEnvelope::from_bytes(payload))
    }

    /// Reads the record `entry` points at as three windows, its head,
    /// payload and tail (on [`MemBackend`], each a window onto the part
    /// that was appended for it, so nothing is concatenated), and
    /// verifies them: CRC and commit byte, and the record must be
    /// `user`'s and say what `entry` says. A record that verifies but is
    /// not the one the index names is as wrong as one that fails its
    /// CRC: the index points at the wrong bytes.
    ///
    /// [`MemBackend`]: crate::MemBackend
    fn read_record(&self, user: u64, entry: &VersionEntry) -> Result<[Bytes; 3], StoreError> {
        let name = segment_name(self.shard_of(user) as u32, entry.segment);
        let mut at = entry.offset;
        let mut read = |len: usize| {
            let window = self.backend.read_range(&name, at, len);
            at += len as u64;
            window
        };
        let head = read(PAYLOAD_OFFSET)?;
        let payload = read(entry.stored_len as usize - RECORD_OVERHEAD)?;
        let tail = read(TAIL_LEN)?;
        match decode_frame(&head, &payload, &tail) {
            Some(record)
                if record.user == user
                    && VersionEntry::of(&record, entry.segment, entry.offset) == *entry =>
            {
                Ok([head, payload, tail])
            }
            _ => Err(StoreError::Corrupt { segment: entry.segment, offset: entry.offset }),
        }
    }

    /// Compacts one shard: rewrites the newest
    /// [`CompactionPolicy::retain_versions`] versions of every user into
    /// fresh segments (users in ascending id order, versions ascending,
    /// so the rewritten log is deterministic), then deletes the old
    /// chain. Version numbers are preserved; only superseded history
    /// beyond the retention depth is dropped. Returns bytes reclaimed.
    ///
    /// The shard's lock is held throughout, so readers and writers of
    /// this shard simply wait; other shards are unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the backend fails mid-rewrite; the fresh
    /// segments written so far are removed (best effort) and the shard
    /// is left as it was. The fresh chain is written and synced *before*
    /// old segments are removed, so a crash mid-compaction leaves a
    /// recoverable log (records may exist twice; replay keeps whichever
    /// committed copy it sees last, which carries identical payloads).
    /// When removing an old segment fails, the compaction still stands
    /// and counts, the rest are removed, and the first such error is
    /// returned. The segment that stayed is removed by the next
    /// compaction; until then a reopen replays its superseded versions.
    fn compact_shard(&self, shard_no: usize) -> Result<u64, StoreError> {
        let mut shard = self.lock(shard_no);
        let retain = self.config.compaction.retain_versions;
        let mut old_segments: Vec<(u64, u64)> =
            shard.segments.iter().map(|(&s, &l)| (s, l)).collect();
        old_segments.sort_unstable();
        let before_bytes: u64 = shard.segments.values().sum();

        // Gather survivors in deterministic (user, version) order.
        let mut users: Vec<u64> = shard.index.keys().copied().collect();
        users.sort_unstable();
        let mut survivors: Vec<(u64, VersionEntry)> = Vec::new();
        for &user in &users {
            let history = &shard.index[&user];
            survivors
                .extend(history[history.len().saturating_sub(retain)..].iter().map(|&e| (user, e)));
        }

        // Rewrite survivors into fresh segments numbered after the old
        // chain, building the replacement index as we go.
        let mut fresh_index: HashMap<u64, Vec<VersionEntry>> = HashMap::new();
        let mut fresh_segments: HashMap<u64, u64> = HashMap::new();
        let first = shard.active + 1;
        let mut seq = first;
        let rewrite = || -> Result<(), StoreError> {
            // A fresh segment is one append: its header, then each
            // survivor's verified windows as they were read. Re-framing a
            // verified record writes these same bytes (see
            // `crate::record`), so none is copied or checksummed again.
            let mut parts: Vec<Bytes> = vec![encode_header(shard_no as u32, seq).into()];
            let mut len = HEADER_LEN as u64;
            for (user, entry) in survivors {
                let windows = self.read_record(user, &entry)?;
                let stored = entry.stored_len as u64;
                if len + stored > self.config.segment_bytes && len > HEADER_LEN as u64 {
                    let name = segment_name(shard_no as u32, seq);
                    fresh_segments.insert(seq, len);
                    self.backend.append(&name, &parts)?;
                    self.backend.sync(&name)?;
                    seq += 1;
                    parts = vec![encode_header(shard_no as u32, seq).into()];
                    len = HEADER_LEN as u64;
                }
                let moved = VersionEntry { segment: seq, offset: len, ..entry };
                push_entry(&mut fresh_index, user, moved);
                parts.extend(windows);
                len += stored;
            }
            let name = segment_name(shard_no as u32, seq);
            fresh_segments.insert(seq, len);
            self.backend.append(&name, &parts)?;
            self.backend.sync(&name)?;
            Ok(())
        };
        if let Err(e) = rewrite() {
            // Take back every fresh file the rewrite wrote (best effort):
            // a stray segment would sit where the next roll or compaction
            // of this shard appends.
            for stray in first..=seq {
                let _ = self.backend.remove(&segment_name(shard_no as u32, stray));
            }
            return Err(e);
        }

        // Point the shard at the fresh chain, then drop the old files.
        // Every removal is attempted; an old segment whose removal fails
        // stays in the chain (its records are out of the index), so the
        // next compaction removes it again.
        shard.index = fresh_index;
        shard.segments = fresh_segments;
        shard.active = seq;
        let mut failed = None;
        for (old, len) in old_segments {
            if let Err(e) = self.backend.remove(&segment_name(shard_no as u32, old)) {
                shard.segments.insert(old, len);
                failed.get_or_insert(e);
            }
        }
        let after_bytes: u64 = shard.segments.values().sum();
        let reclaimed = before_bytes.saturating_sub(after_bytes);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.reclaimed_bytes.fetch_add(reclaimed, Ordering::Relaxed);
        match failed {
            Some(e) => Err(e.into()),
            None => Ok(reclaimed),
        }
    }

    /// Compacts every shard in order. Returns total bytes reclaimed.
    ///
    /// # Errors
    ///
    /// First shard failure aborts the sweep (already-compacted shards
    /// stay compacted).
    pub fn compact(&self) -> Result<u64, StoreError> {
        let mut reclaimed = 0;
        for shard_no in 0..self.shards.len() {
            reclaimed += self.compact_shard(shard_no)?;
        }
        Ok(reclaimed)
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            shards: self.shards.len(),
            appended_records: self.appended_records.load(Ordering::Relaxed),
            appended_bytes: self.appended_bytes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            reclaimed_bytes: self.reclaimed_bytes.load(Ordering::Relaxed),
            recovery: self.recovery,
            ..StoreStats::default()
        };
        for shard_no in 0..self.shards.len() {
            let shard = self.lock(shard_no);
            stats.segments += shard.segments.len();
            stats.users += shard.index.len();
            let mut retained = 0u64;
            for history in shard.index.values() {
                retained += history.len() as u64;
                for e in history {
                    stats.live_raw_bytes += e.raw_len as u64;
                    stats.live_stored_bytes += e.stored_len as u64 - RECORD_OVERHEAD as u64;
                }
            }
            stats.retained_versions += retained;
            stats.retained_by_shard.push(retained);
        }
        stats
    }
}

/// Indexes one committed record of `user`'s, keeping the user's history
/// version-sorted (replay after an out-of-order compaction interleave
/// stays correct).
fn push_entry(index: &mut HashMap<u64, Vec<VersionEntry>>, user: u64, entry: VersionEntry) {
    let history = index.entry(user).or_default();
    match history.last() {
        Some(last) if last.version >= entry.version => {
            // A duplicate or out-of-order copy (post-crash compaction
            // overlap): keep exactly one entry per version, newest
            // location wins.
            match history.binary_search_by_key(&entry.version, |e| e.version) {
                Ok(i) => history[i] = entry,
                Err(i) => history.insert(i, entry),
            }
        }
        _ => history.push(entry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    const PAYLOAD: u64 = PAYLOAD_OFFSET as u64;

    fn envelope(fill: u8, len: usize) -> ModelEnvelope {
        // Payload bytes are arbitrary from the store's point of view.
        ModelEnvelope::from_bytes(vec![fill; len])
    }

    fn open_mem(config: StoreConfig) -> (EnvelopeStore, MemBackend) {
        let backend = MemBackend::new();
        let store = EnvelopeStore::open(Arc::new(backend.clone()), config).expect("open empty");
        (store, backend)
    }

    /// Flips one bit of a stored file (`record offset + PAYLOAD + i` is
    /// payload byte `i`).
    fn flip_bit(disk: &MemBackend, name: &str, pos: u64) {
        let mut bytes = disk.read(name).unwrap().to_vec();
        bytes[pos as usize] ^= 0x01;
        disk.truncate(name, 0).unwrap();
        disk.append(name, &[bytes.into()]).unwrap();
    }

    #[test]
    fn append_fetch_round_trip() {
        let (store, _) = open_mem(StoreConfig::default());
        store.append(7, 1, &envelope(0xAA, 100)).unwrap();
        store.append(7, 2, &envelope(0xBB, 50)).unwrap();
        store.append(3, 3, &envelope(0xCC, 80)).unwrap();

        assert_eq!(store.latest_version(7), Some(2));
        assert_eq!(store.versions(7), vec![1, 2]);
        assert!(store.contains(3) && !store.contains(99));
        assert_eq!(store.max_version(), 3);
        assert_eq!(store.fetch_latest(7).unwrap().unwrap().as_bytes(), &vec![0xBB; 50][..]);
        assert_eq!(store.fetch(7, 1).unwrap().as_bytes(), &vec![0xAA; 100][..]);
        assert!(matches!(
            store.fetch(7, 9),
            Err(StoreError::UnknownVersion { user: 7, version: 9 })
        ));
        assert_eq!(store.fetch_latest(42).unwrap(), None);
    }

    #[test]
    fn fetches_are_windows_onto_the_appended_record() {
        let (store, _) = open_mem(StoreConfig::default());
        store.append(7, 1, &envelope(0xAA, 300)).unwrap();
        let (a, b) = (store.fetch(7, 1).unwrap(), store.fetch_latest(7).unwrap().unwrap());
        assert_eq!(a.as_bytes(), &vec![0xAA; 300][..]);
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr(), "both share the append's bytes");
    }

    #[test]
    fn a_published_envelope_is_the_one_resident_copy_through_compaction_and_rollback() {
        let config = StoreConfig {
            shards: 1,
            segment_bytes: 1_000,
            compaction: CompactionPolicy { retain_versions: 2 },
            ..StoreConfig::default()
        };
        let (store, backend) = open_mem(config);
        let published: Vec<ModelEnvelope> = (1..=3).map(|v| envelope(v, 300)).collect();
        let at = |v: u64| published[v as usize - 1].as_bytes().as_ptr();
        let latest = || store.fetch_latest(5).unwrap().unwrap().as_bytes().as_ptr();
        // Three records roll into two segments: 18 + 334 + 334, 18 + 334.
        let disk = 2 * HEADER_LEN as u64 + 3 * (RECORD_OVERHEAD as u64 + 300);
        for (v, envelope) in (1..).zip(&published) {
            store.append(5, v, envelope).unwrap();
            assert_eq!(latest(), at(v), "publish v{v}: the publisher's buffer");
            assert_eq!(store.fetch(5, v).unwrap().as_bytes().as_ptr(), at(v));
        }
        assert_eq!(backend.total_bytes(), disk, "the framing adds no byte to the disk");

        // Compaction keeps v2 and v3 as they were: two records, one segment.
        let reclaimed = store.compact().unwrap();
        assert_eq!(reclaimed, HEADER_LEN as u64 + RECORD_OVERHEAD as u64 + 300);
        assert_eq!(backend.total_bytes(), disk - reclaimed);
        assert_eq!(latest(), at(3), "after a compaction");
        assert_eq!(store.fetch(5, 2).unwrap().as_bytes().as_ptr(), at(2));

        // A rollback re-publishes what it fetched: v2's buffer again. It
        // rolls to a fresh segment, so the disk holds what it held before
        // the compaction: three records in two segments.
        store.append(5, 4, &store.fetch(5, 2).unwrap()).unwrap();
        assert_eq!(latest(), at(2), "after a rollback");
        assert_eq!(backend.total_bytes(), disk);

        // The log replays to the same bytes.
        let reopened = EnvelopeStore::open(Arc::new(backend), config).unwrap();
        for (v, want) in [(2, 2), (3, 3), (4, 2)] {
            assert_eq!(reopened.fetch(5, v).unwrap(), published[want - 1], "v{v}");
        }
    }

    #[test]
    fn a_fetched_envelope_outlives_its_compacted_segment() {
        let config = StoreConfig {
            shards: 1,
            compaction: CompactionPolicy { retain_versions: 1 },
            ..StoreConfig::default()
        };
        let (store, backend) = open_mem(config);
        store.append(5, 1, &envelope(1, 200)).unwrap();
        store.append(5, 2, &envelope(2, 200)).unwrap();
        let (old, kept) = (store.fetch(5, 1).unwrap(), store.fetch(5, 2).unwrap());
        store.compact().unwrap();
        assert_eq!(backend.list().unwrap(), vec![segment_name(0, 1)], "segment 0 is removed");
        assert!(matches!(store.fetch(5, 1), Err(StoreError::UnknownVersion { .. })));
        assert_eq!(old.as_bytes(), &vec![1u8; 200][..]);
        assert_eq!(kept.as_bytes(), &vec![2u8; 200][..]);
        assert_eq!(store.fetch(5, 2).unwrap(), kept, "equal bytes, another allocation");
    }

    #[test]
    fn a_fetched_envelope_is_unchanged_by_a_later_rewrite_of_its_file() {
        let (store, backend) = open_mem(StoreConfig { shards: 1, ..StoreConfig::default() });
        let entry = store.append(5, 1, &envelope(3, 200)).unwrap();
        let before = store.fetch(5, 1).unwrap();
        flip_bit(&backend, &segment_name(0, 0), entry.offset + PAYLOAD + 100);
        assert!(matches!(store.fetch(5, 1), Err(StoreError::Corrupt { .. })));
        assert_eq!(before.as_bytes(), &vec![3u8; 200][..]);
    }

    #[test]
    fn fetch_latest_with_version_pairs_bytes_with_the_rollback_target() {
        let (store, _) = open_mem(StoreConfig::default());
        assert_eq!(store.fetch_latest_with_version(5).unwrap(), None);
        store.append(5, 1, &envelope(0x11, 40)).unwrap();
        store.append(5, 4, &envelope(0x22, 60)).unwrap();
        let (version, latest) = store.fetch_latest_with_version(5).unwrap().unwrap();
        assert_eq!(version, 4);
        assert_eq!(latest.as_bytes(), &vec![0x22; 60][..]);
        assert_eq!(store.fetch(5, version).unwrap().as_bytes(), latest.as_bytes());
    }

    #[test]
    fn restart_replays_the_log() {
        let config = StoreConfig { shards: 2, ..StoreConfig::default() };
        let (store, backend) = open_mem(config);
        for v in 1..=6u64 {
            store.append(v % 3, v, &envelope(v as u8, 64 + v as usize)).unwrap();
        }
        let stats = store.stats();
        drop(store); // kill-free restart: the backend is the disk

        let reopened = EnvelopeStore::open(Arc::new(backend), config).expect("replay");
        assert_eq!(reopened.max_version(), 6);
        assert_eq!(reopened.recovery().committed_records, 6);
        assert_eq!(reopened.recovery().torn_segments, 0);
        for v in 1..=6u64 {
            assert_eq!(reopened.fetch(v % 3, v).unwrap().as_bytes(), {
                &vec![v as u8; 64 + v as usize][..]
            });
        }
        let restats = reopened.stats();
        assert_eq!(restats.retained_versions, stats.retained_versions);
        assert_eq!(restats.users, stats.users);
    }

    #[test]
    fn segments_roll_and_history_spans_them() {
        let config = StoreConfig { shards: 1, segment_bytes: 256, ..StoreConfig::default() };
        let (store, _) = open_mem(config);
        for v in 1..=10u64 {
            store.append(1, v, &envelope(v as u8, 100)).unwrap();
        }
        let stats = store.stats();
        assert!(stats.segments > 1, "small segments must roll: {}", stats.segments);
        assert_eq!(store.versions(1).len(), 10);
        for v in 1..=10u64 {
            assert_eq!(store.fetch(1, v).unwrap().as_bytes(), &vec![v as u8; 100][..]);
        }
    }

    #[test]
    fn compaction_keeps_the_newest_versions_and_reclaims_bytes() {
        let config = StoreConfig {
            shards: 1,
            compaction: CompactionPolicy { retain_versions: 2 },
            ..StoreConfig::default()
        };
        let (store, backend) = open_mem(config);
        for v in 1..=9u64 {
            store.append(5, v, &envelope(v as u8, 200)).unwrap();
        }
        store.append(6, 10, &envelope(0x66, 150)).unwrap();
        let before = backend.total_bytes();
        let reclaimed = store.compact().unwrap();
        assert!(reclaimed > 0);
        assert_eq!(backend.total_bytes(), before - reclaimed);

        assert_eq!(store.versions(5), vec![8, 9], "only the newest two survive");
        assert_eq!(store.versions(6), vec![10]);
        assert_eq!(store.fetch(5, 9).unwrap().as_bytes(), &vec![9u8; 200][..]);
        assert_eq!(store.fetch(5, 8).unwrap().as_bytes(), &vec![8u8; 200][..]);
        assert!(matches!(store.fetch(5, 7), Err(StoreError::UnknownVersion { .. })));

        // The compacted log replays to the same state.
        let reopened = EnvelopeStore::open(Arc::new(backend), config).expect("replay");
        assert_eq!(reopened.versions(5), vec![8, 9]);
        assert_eq!(reopened.fetch(5, 8).unwrap().as_bytes(), &vec![8u8; 200][..]);
        assert_eq!(reopened.max_version(), 10);
    }

    #[test]
    fn compaction_refuses_a_survivor_that_no_longer_verifies() {
        let config = StoreConfig { shards: 1, ..StoreConfig::default() };
        let (store, backend) = open_mem(config);
        store.append(5, 1, &envelope(1, 200)).unwrap();
        let entry = store.append(5, 2, &envelope(2, 200)).unwrap();

        // Flip one payload bit of the newest record behind a reopened
        // store's back (the index is built before the damage).
        let disk = backend.snapshot();
        let victim = EnvelopeStore::open(Arc::new(disk.clone()), config).expect("clean reopen");
        let name = segment_name(0, entry.segment);
        flip_bit(&disk, &name, entry.offset + PAYLOAD + 100);

        // Compaction moves stored windows as they are, so it must verify
        // them first: the flipped bit is an error, never a "survivor".
        assert!(matches!(
            victim.compact(),
            Err(StoreError::Corrupt { segment, offset })
                if (segment, offset) == (entry.segment, entry.offset)
        ));
        assert_eq!(disk.list().unwrap(), vec![name], "nothing written, nothing removed");
        assert_eq!(victim.fetch(5, 1).unwrap().as_bytes(), &vec![1u8; 200][..]);
        assert!(matches!(victim.fetch(5, 2), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn an_entry_pointing_at_another_verified_record_is_corrupt() {
        let config = StoreConfig { shards: 1, ..StoreConfig::default() };
        let (store, _) = open_mem(config);
        let own = store.append(5, 1, &envelope(1, 200)).unwrap();
        let other = store.append(6, 2, &envelope(2, 200)).unwrap();
        assert_eq!(own.stored_len, other.stored_len);

        // Both records verify; neither is the one the entry names.
        let wrong_user = VersionEntry { offset: other.offset, ..own };
        let wrong_version = VersionEntry { version: 2, ..own };
        for entry in [wrong_user, wrong_version] {
            assert!(matches!(
                store.read_entry(5, &entry),
                Err(StoreError::Corrupt { offset, .. }) if offset == entry.offset
            ));
        }
        assert_eq!(store.read_entry(5, &own).unwrap().as_bytes(), &vec![1u8; 200][..]);
    }

    #[test]
    fn compression_shrinks_compressible_payloads_transparently() {
        let plain = StoreConfig { shards: 1, compress: false, ..StoreConfig::default() };
        let packed = StoreConfig { shards: 1, compress: true, ..StoreConfig::default() };
        let (a, backend_a) = open_mem(plain);
        let (b, backend_b) = open_mem(packed);
        let body = envelope(0, 8_192); // all-zero: maximally compressible
        a.append(1, 1, &body).unwrap();
        b.append(1, 1, &body).unwrap();
        assert!(backend_b.total_bytes() < backend_a.total_bytes() / 4);
        assert!(b.stats().compression_ratio() < 0.25);
        assert_eq!(b.fetch(1, 1).unwrap().as_bytes(), body.as_bytes(), "reads inflate");

        // Incompressible payloads are stored raw (flag clear) despite
        // compression being enabled.
        let mut x = 1u64;
        let noise: Vec<u8> = (0..2_048)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        let entry = b.append(2, 2, &ModelEnvelope::from_bytes(noise.clone())).unwrap();
        assert!(!entry.compressed, "worse-than-raw encodings are discarded");
        assert_eq!(b.fetch(2, 2).unwrap().as_bytes(), &noise[..]);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let config = StoreConfig { shards: 1, ..StoreConfig::default() };
        let (store, backend) = open_mem(config);
        store.append(1, 1, &envelope(1, 120)).unwrap();
        store.append(1, 2, &envelope(2, 120)).unwrap();

        // Crash mid-append of version 3: simulate by appending a torn
        // half-record to a snapshot of the disk.
        let crash = backend.snapshot();
        let name = segment_name(0, 0);
        let committed = crash.size(&name).unwrap();
        crash.append(&name, &[b"PLOG torn half-record junk"[..].into()]).unwrap();

        let recovered = EnvelopeStore::open(Arc::new(crash.clone()), config).expect("recover");
        assert_eq!(recovered.recovery().torn_segments, 1);
        assert_eq!(recovered.recovery().torn_bytes, 26);
        assert_eq!(recovered.latest_version(1), Some(2), "committed prefix survives");
        assert_eq!(crash.size(&name).unwrap(), committed, "tail physically truncated");

        // The log is clean again: appending continues where it left off.
        recovered.append(1, 3, &envelope(3, 60)).unwrap();
        let reopened = EnvelopeStore::open(Arc::new(crash), config).expect("reopen");
        assert_eq!(reopened.versions(1), vec![1, 2, 3]);
        assert_eq!(reopened.fetch(1, 3).unwrap().as_bytes(), &vec![3u8; 60][..]);
    }

    #[test]
    fn a_full_length_tail_that_fails_its_checksum_is_torn() {
        // A crash can leave the file at its final length with the last
        // record's bytes only partly written: length and commit byte
        // look fine, only the CRC can tell. Truncation-only crash points
        // (tests/recovery.rs) never exercise that.
        let config = StoreConfig { shards: 1, ..StoreConfig::default() };
        let (store, backend) = open_mem(config);
        store.append(1, 1, &envelope(1, 120)).unwrap();
        let last = store.append(1, 2, &envelope(2, 120)).unwrap();

        let crash = backend.snapshot();
        let name = segment_name(0, 0);
        flip_bit(&crash, &name, last.offset + PAYLOAD + 60);

        let recovered = EnvelopeStore::open(Arc::new(crash.clone()), config).expect("recover");
        assert_eq!(recovered.recovery().torn_segments, 1);
        assert_eq!(recovered.recovery().torn_bytes, last.stored_len as u64);
        assert_eq!(recovered.versions(1), vec![1]);
        assert_eq!(crash.size(&name).unwrap(), last.offset);
    }

    #[test]
    fn foreign_files_are_rejected() {
        let backend = MemBackend::new();
        backend.append("notes.txt", &[b"hello"[..].into()]).unwrap();
        let err = EnvelopeStore::open(Arc::new(backend), StoreConfig::default());
        assert!(matches!(err, Err(StoreError::BadSegment { .. })));
    }

    #[test]
    fn shard_mismatch_is_rejected() {
        let wide = StoreConfig { shards: 8, ..StoreConfig::default() };
        let narrow = StoreConfig { shards: 2, ..StoreConfig::default() };
        let (store, backend) = open_mem(wide);
        store.append(7, 1, &envelope(7, 32)).unwrap(); // shard 7
        drop(store);
        let err = EnvelopeStore::open(Arc::new(backend), narrow);
        assert!(matches!(err, Err(StoreError::BadSegment { .. })));
    }

    #[test]
    fn concurrent_appends_on_distinct_users_all_commit() {
        let config = StoreConfig { shards: 4, ..StoreConfig::default() };
        let (store, backend) = open_mem(config);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..25u64 {
                        let version = t * 25 + i + 1; // distinct versions
                        store.append(t, version, &envelope(t as u8, 64)).unwrap();
                    }
                });
            }
        });
        assert_eq!(store.stats().retained_versions, 100);
        let reopened = EnvelopeStore::open(Arc::new(backend), config).expect("replay");
        assert_eq!(reopened.stats().retained_versions, 100);
        for t in 0..4u64 {
            assert_eq!(reopened.versions(t).len(), 25);
        }
    }

    #[test]
    fn stats_report_history_by_shard() {
        let config = StoreConfig { shards: 2, ..StoreConfig::default() };
        let (store, _) = open_mem(config);
        store.append(0, 1, &envelope(1, 10)).unwrap(); // shard 0
        store.append(0, 2, &envelope(2, 10)).unwrap();
        store.append(1, 3, &envelope(3, 10)).unwrap(); // shard 1
        let stats = store.stats();
        assert_eq!(stats.retained_by_shard, vec![2, 1]);
        assert_eq!(stats.retained_versions, 3);
        assert_eq!(stats.users, 2);
        assert_eq!(stats.appended_records, 3);
    }
}
