//! Property tests: the log round-trips arbitrary envelope bytes.
//!
//! An envelope's payload is opaque to the store — devices upload
//! whatever `ModelEnvelope::encode` produced, and the store must carry
//! *any* byte string through append → (crash) → replay unchanged. The
//! properties below drive randomized publication schedules (arbitrary
//! payloads, users, history depths, compression on or off) and assert
//! the replayed index and every payload are identical, and that the
//! LZSS coder is lossless on its own. Below the store, `MemBackend` (a
//! file is a list of immutable chunks) is driven against a plain
//! `Vec<u8>` with random multi-part appends, truncates, ranged reads and
//! forks.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use pelican_nn::ModelEnvelope;
use pelican_store::{compress, decompress, EnvelopeStore, MemBackend, StorageBackend, StoreConfig};

/// One call on a `MemBackend` file. Offsets and lengths are taken modulo
/// a little past the file's length, so most land inside it.
#[derive(Debug, Clone)]
enum FileOp {
    /// One append of up to three parts, any of them empty.
    Append(Vec<Vec<u8>>),
    Truncate(u64),
    ReadRange(u64, usize),
    /// Go on with a snapshot; the forked-from backend must keep its bytes.
    Fork,
}

fn file_op() -> impl Strategy<Value = FileOp> {
    // A quarter of the parts are empty.
    let part = (0u8..4, prop::collection::vec(0u8..=255, 1..48)).prop_map(|(kind, bytes)| {
        if kind == 0 {
            Vec::new()
        } else {
            bytes
        }
    });
    let parts = prop::collection::vec(part, 0..4);
    (0u8..8, parts, 0u64..1_000, 0usize..1_000).prop_map(|(kind, parts, at, len)| match kind {
        0..=2 => FileOp::Append(parts),
        3 => FileOp::Truncate(at),
        4..=6 => FileOp::ReadRange(at, len),
        _ => FileOp::Fork,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn appended_payloads_replay_identically(
        publications in prop::collection::vec(
            (0u64..8, prop::collection::vec(0u8..=255, 0..300)),
            1..24,
        ),
        shards in 1usize..4,
        compress_payloads in 0u8..2,
        segment_bytes in 256u64..4096,
    ) {
        let config = StoreConfig {
            shards,
            segment_bytes,
            compress: compress_payloads == 1,
            ..StoreConfig::default()
        };
        let disk = MemBackend::new();
        let store = EnvelopeStore::open(Arc::new(disk.clone()), config).unwrap();

        // Publish with registry-style strictly monotone versions.
        let mut expected: HashMap<u64, Vec<(u64, Vec<u8>)>> = HashMap::new();
        for (version0, (user, payload)) in publications.iter().enumerate() {
            let version = version0 as u64 + 1;
            store.append(*user, version, &ModelEnvelope::from_bytes(payload.clone())).unwrap();
            expected.entry(*user).or_default().push((version, payload.clone()));
        }

        // Replay from the raw bytes alone: the index must be identical.
        drop(store);
        let replayed = EnvelopeStore::open(Arc::new(disk), config).unwrap();
        prop_assert_eq!(replayed.recovery().torn_segments, 0);
        prop_assert_eq!(replayed.max_version(), publications.len() as u64);
        prop_assert_eq!(replayed.stats().users, expected.len());
        for (user, history) in &expected {
            let versions: Vec<u64> = history.iter().map(|(v, _)| *v).collect();
            prop_assert_eq!(replayed.versions(*user), versions, "index differs for user {}", user);
            for (version, payload) in history {
                prop_assert_eq!(
                    replayed.fetch(*user, *version).unwrap().as_bytes(),
                    &payload[..],
                    "payload differs for user {} version {}", user, version
                );
            }
        }
    }

    #[test]
    fn compaction_preserves_retained_payloads(
        depth in 1usize..12,
        retain in 1usize..5,
        payload_seed in 0u8..=255,
    ) {
        let config = StoreConfig {
            shards: 1,
            compaction: pelican_store::CompactionPolicy { retain_versions: retain },
            ..StoreConfig::default()
        };
        let disk = MemBackend::new();
        let store = EnvelopeStore::open(Arc::new(disk.clone()), config).unwrap();
        let payload = |v: u64| vec![payload_seed.wrapping_add(v as u8); 50 + v as usize];
        for v in 1..=depth as u64 {
            store.append(3, v, &ModelEnvelope::from_bytes(payload(v))).unwrap();
        }
        store.compact().unwrap();

        let first_kept = (depth - retain.min(depth)) as u64 + 1;
        let kept: Vec<u64> = (first_kept..=depth as u64).collect();
        prop_assert_eq!(store.versions(3), kept.clone());
        for v in kept {
            prop_assert_eq!(store.fetch(3, v).unwrap().as_bytes(), &payload(v)[..]);
        }
        // And the compacted log still replays.
        drop(store);
        let replayed = EnvelopeStore::open(Arc::new(disk), config).unwrap();
        prop_assert_eq!(replayed.versions(3).len(), retain.min(depth));
    }

    #[test]
    fn mem_backend_matches_a_byte_vector_model(ops in prop::collection::vec(file_op(), 1..64)) {
        const FILE: &str = "seg";
        let mut disk = MemBackend::new();
        disk.append(FILE, &[]).unwrap();
        let mut model: Vec<u8> = Vec::new();
        // Every range read and fork so far, with what it must still hold.
        let mut reads = Vec::new();
        let mut forks = Vec::new();
        for op in ops {
            let room = model.len() as u64 + 2;
            match op {
                FileOp::Append(parts) => {
                    model.extend(parts.concat());
                    disk.append(FILE, &parts.into_iter().map(Into::into).collect::<Vec<_>>()).unwrap();
                }
                FileOp::Truncate(len) => {
                    let len = len % room;
                    model.truncate(len as usize);
                    disk.truncate(FILE, len).unwrap();
                }
                FileOp::ReadRange(at, len) => {
                    let (at, len) = (at % room, len % room as usize);
                    let got = disk.read_range(FILE, at, len);
                    match model.get(at as usize..at as usize + len) {
                        Some(want) => {
                            let got = got.unwrap();
                            prop_assert_eq!(&got[..], want);
                            reads.push((got, want.to_vec()));
                        }
                        None => prop_assert!(got.is_err(), "{}+{} past {}", at, len, model.len()),
                    }
                }
                FileOp::Fork => {
                    let fork = disk.snapshot();
                    forks.push((std::mem::replace(&mut disk, fork), model.clone()));
                }
            }
            prop_assert_eq!(disk.size(FILE).unwrap(), model.len() as u64);
            prop_assert_eq!(&disk.read(FILE).unwrap()[..], &model[..]);
        }
        for (got, want) in &reads {
            prop_assert_eq!(&got[..], &want[..], "a read changed after later calls");
        }
        for (fork, want) in &forks {
            prop_assert_eq!(&fork.read(FILE).unwrap()[..], &want[..], "a fork saw later calls");
        }
    }

    #[test]
    fn lzss_round_trips_arbitrary_bytes(input in prop::collection::vec(0u8..=255, 0..2000)) {
        let packed = compress(&input);
        let unpacked = decompress(&packed, input.len()).unwrap();
        prop_assert_eq!(unpacked, input);
    }
}
