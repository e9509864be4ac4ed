//! # pelican-store — durable, crash-safe model registry storage
//!
//! The serving fleet's [`ShardedRegistry`] keeps hot envelopes in
//! per-shard LRU caches; this crate is the tier below it — the one that
//! survives. An [`EnvelopeStore`] is a sharded append-only log of model
//! publications with a write-ahead commit record per entry, a hash
//! index retaining every user's **full version history**, torn-tail
//! crash recovery, per-shard compaction, and optional built-in LZSS
//! compression. History retention is what makes *live rollback*
//! possible: re-publishing a prior version is just fetching it from the
//! log and pushing it back through the registry's versioned hot-swap
//! path.
//!
//! [`ShardedRegistry`]: https://docs.rs/pelican-serve
//!
//! ## Layering
//!
//! * [`backend`] — the storage medium behind one small trait:
//!   [`MemBackend`] for deterministic crash/restart tests,
//!   [`DirBackend`] for real files with `sync_all` barriers.
//! * [`fault`] — [`FaultPlan`], a [`MemBackend`] whose armed calls fail,
//!   write short or panic: how the tests drive the store's error paths.
//! * [`record`] — the on-disk format: segment headers, CRC-sealed
//!   records ending in a commit byte, and the committed-prefix scanner.
//! * [`compress`] — the self-contained LZSS coder (the build vendors no
//!   compression crate).
//! * [`store`] — [`EnvelopeStore`] itself: sharding, the index,
//!   recovery replay, compaction, stats.
//!
//! ## Durability contract
//!
//! `append` returns only after the record — CRC and commit byte
//! included — has passed the backend's durability barrier. Recovery
//! replays committed records and physically truncates anything after
//! the last committed byte, so for *any* crash point the reopened store
//! serves exactly the publications that were acknowledged. The
//! crash-point tests in `tests/recovery.rs` check this by truncating
//! the log at every byte boundary of the final record.
//!
//! ```
//! use std::sync::Arc;
//! use pelican_nn::ModelEnvelope;
//! use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};
//!
//! let disk = MemBackend::new();
//! let store = EnvelopeStore::open(Arc::new(disk.clone()), StoreConfig::default()).unwrap();
//! store.append(7, 1, &ModelEnvelope::from_bytes(vec![0xAB; 64])).unwrap();
//! store.append(7, 2, &ModelEnvelope::from_bytes(vec![0xCD; 64])).unwrap();
//! drop(store);
//!
//! // "Restart": reopen the same disk, full history intact.
//! let store = EnvelopeStore::open(Arc::new(disk), StoreConfig::default()).unwrap();
//! assert_eq!(store.versions(7), vec![1, 2]);
//! assert_eq!(store.fetch(7, 1).unwrap().as_bytes(), &vec![0xAB; 64][..]);
//! ```

pub mod backend;
pub mod compress;
pub mod fault;
pub mod record;
pub mod store;

pub use backend::{DirBackend, MemBackend, StorageBackend};
/// The shared byte buffer [`StorageBackend`] reads return and appends take.
pub use bytes::Bytes;
pub use compress::{compress, decompress, DecompressError};
pub use fault::{Fault, FaultPlan, Method};
pub use record::{Record, ScanEnd, FORMAT_VERSION};
pub use store::{
    CompactionPolicy, EnvelopeStore, RecoveryReport, StoreConfig, StoreError, StoreStats,
    VersionEntry,
};
