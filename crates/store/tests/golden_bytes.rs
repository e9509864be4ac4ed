//! Golden on-disk bytes: a scripted history must leave exactly the files
//! it left when these constants were recorded (at the commit before the
//! store's byte path was rewritten: borrowed record views, slicing-by-16
//! CRC, verbatim compaction).
//!
//! The format is versioned, so "the store still round-trips" is not
//! enough — a log written by an older build must open under a newer one
//! and the other way round. This pins the log byte for byte: an FNV-1a
//! over every file name and its contents in `list()` order, after
//! appends that roll segments, a compaction, and appends on top of the
//! compacted chain, with compression off and on. It also pins what a
//! reopen reports, and serves every retained version back.

use std::sync::Arc;

use pelican_nn::ModelEnvelope;
use pelican_store::{
    CompactionPolicy, EnvelopeStore, MemBackend, RecoveryReport, StorageBackend, StoreConfig,
    FORMAT_VERSION,
};

const USERS: u64 = 4;

fn config(compress: bool) -> StoreConfig {
    StoreConfig {
        shards: 2,
        segment_bytes: 512,
        compress,
        compaction: CompactionPolicy { retain_versions: 3 },
    }
}

/// Distinct per (user, version). Alternating runs of three versions are
/// repetitive (LZSS wins, the compressed flag is set) or LCG noise
/// (stored raw even with compression on), so every user's history has
/// both flag values on disk.
fn payload(user: u64, version: u64) -> Vec<u8> {
    let len = 120 + ((user * 37 + version * 53) % 200) as usize;
    let mut x = user.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ version;
    (0..len)
        .map(|i| {
            if (version / 3).is_multiple_of(2) {
                ((i as u64 % 7) * version + user) as u8
            } else {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            }
        })
        .collect()
}

/// FNV-1a over every file's name and contents, in `list()` order.
fn disk_hash(disk: &MemBackend) -> u64 {
    let mut fnv = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            fnv = (fnv ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
    };
    for name in disk.list().expect("list") {
        eat(name.as_bytes());
        eat(&disk.read(&name).expect("read"));
    }
    fnv
}

/// The scripted history; returns the disk and every publication made as
/// `(user, version)`, oldest first.
fn scripted(compress: bool) -> (MemBackend, Vec<(u64, u64)>) {
    let disk = MemBackend::new();
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config(compress)).expect("open");
    let mut published = Vec::new();
    let mut version = 0u64;
    let mut publish = |rounds: u64| {
        for _ in 0..rounds {
            for user in 0..USERS {
                version += 1;
                let envelope = ModelEnvelope::from_bytes(payload(user, version));
                store.append(user, version, &envelope).expect("append");
                published.push((user, version));
            }
        }
    };
    publish(5);
    store.compact().expect("compact");
    publish(2);
    (disk, published)
}

/// `golden_hash` and `golden_segments` were recorded at the parent commit.
fn check(compress: bool, golden_hash: u64, golden_segments: usize) {
    assert_eq!(FORMAT_VERSION, 1);
    let (disk, published) = scripted(compress);
    let hash = disk_hash(&disk);
    assert_eq!(hash, golden_hash, "compress={compress}: on-disk bytes moved, got {hash:#018x}");

    let reopened = EnvelopeStore::open(Arc::new(disk), config(compress)).expect("reopen");
    assert_eq!(
        reopened.recovery(),
        RecoveryReport {
            segments: golden_segments,
            committed_records: 20,
            torn_segments: 0,
            torn_bytes: 0
        },
        "compress={compress}"
    );
    // Compaction kept the newest 3 of the first 5 per user; 2 landed on top.
    for user in 0..USERS {
        let all: Vec<u64> = published.iter().filter(|p| p.0 == user).map(|p| p.1).collect();
        assert_eq!(reopened.versions(user), all[2..], "compress={compress} user {user}");
        for &version in &all[2..] {
            assert_eq!(
                reopened.fetch(user, version).expect("fetch").as_bytes(),
                &payload(user, version)[..],
                "compress={compress} user {user} v{version}"
            );
        }
    }
}

#[test]
fn raw_log_bytes_are_the_recorded_ones() {
    check(false, 0x0353_9dc8_2f5e_5e4e, 16);
}

#[test]
fn lzss_log_bytes_are_the_recorded_ones() {
    check(true, 0x3336_a19a_20e4_d1ef, 10);
}
