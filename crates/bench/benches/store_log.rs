//! Criterion bench for the durable model store's hot paths.
//!
//! The log sits on the fleet's publication path — every audited model
//! crosses `EnvelopeStore::append` before it may serve — and recovery
//! replay bounds restart time, so both get host-time numbers:
//!
//! * `append/*` — one envelope publication through the write-ahead
//!   commit path, compression off and on (LZSS pays CPU to shrink the
//!   log; the ratio is reported by `repro store-report`).
//! * `replay/*` — `EnvelopeStore::open` over a prebuilt log: the full
//!   committed-prefix scan, CRC checks and index build.
//! * `fetch_latest/*` — the read-through path a registry cold miss
//!   takes: one ranged read, one CRC pass and a window onto the verified
//!   record, at the live loop's 32 KB (hidden-12) and the hidden-64
//!   model's 332 KB envelope.
//! * `crc32/*` — the checksum every one of those paths runs once per
//!   record, by itself, at the same two sizes and on both sides of the
//!   6 KiB cut-over above which `crc32` folds a span modulo a sparse
//!   multiple of the polynomial: 4 KiB runs the table loop alone, and
//!   8 and 16 KiB are folded where the fold's fixed costs (its ~1.6 KiB
//!   table-loop tail, its window) still show. Bytes per second is
//!   `size / mean`. `crc32/bytewise/32k` is the byte-at-a-time loop at
//!   32 KiB, the reference the others are read against.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use pelican_nn::ModelEnvelope;
use pelican_store::record::crc32;
use pelican_store::{EnvelopeStore, MemBackend, StoreConfig};

/// Envelope sizes of the hidden-12 (live loop) and hidden-64 models.
const ENVELOPE_SIZES: [(&str, usize); 2] = [("32k", 32 * 1024), ("332k", 332 * 1024)];

/// A model-shaped payload: structured regions (compressible) plus a
/// varying stripe so versions differ.
fn envelope(version: u64, bytes: usize) -> ModelEnvelope {
    let body: Vec<u8> = (0..bytes)
        .map(|i| if i % 4 == 0 { (i as u64 * 31 + version * 131) as u8 } else { (i % 256) as u8 })
        .collect();
    ModelEnvelope::from_bytes(body)
}

/// A log with `users * versions` committed publications.
fn build_log(users: u64, versions: u64, bytes: usize, compress: bool) -> MemBackend {
    let disk = MemBackend::new();
    let store = EnvelopeStore::open(
        Arc::new(disk.clone()),
        StoreConfig { shards: 4, compress, ..StoreConfig::default() },
    )
    .expect("fresh backend opens");
    let mut version = 0;
    for v in 0..versions {
        for user in 0..users {
            version += 1;
            store.append(user, version, &envelope(v, bytes)).expect("append");
        }
    }
    disk
}

fn bench_store_log(c: &mut Criterion) {
    const PAYLOAD: usize = 8 * 1024;

    let mut group = c.benchmark_group("store_log");
    for compress in [false, true] {
        let label = if compress { "lzss" } else { "raw" };

        group.bench_function(format!("append/{label}"), |b| {
            let store = EnvelopeStore::open(
                Arc::new(MemBackend::new()),
                StoreConfig { shards: 4, compress, ..StoreConfig::default() },
            )
            .expect("open");
            let payload = envelope(1, PAYLOAD);
            let mut version = 0u64;
            b.iter(|| {
                version += 1;
                store.append(version % 16, version, &payload).expect("append")
            });
        });

        group.bench_function(format!("replay/{label}"), |b| {
            let disk = build_log(16, 8, PAYLOAD, compress);
            let config = StoreConfig { shards: 4, compress, ..StoreConfig::default() };
            b.iter(|| {
                let store = EnvelopeStore::open(Arc::new(disk.clone()), config).expect("replay");
                assert_eq!(store.recovery().torn_segments, 0);
                store.max_version()
            });
        });
    }

    group.finish();

    let mut group = c.benchmark_group("fetch_latest");
    for (label, bytes) in ENVELOPE_SIZES {
        group.bench_function(label, |b| {
            let disk = build_log(16, 4, bytes, false);
            let store = EnvelopeStore::open(
                Arc::new(disk),
                StoreConfig { shards: 4, ..StoreConfig::default() },
            )
            .expect("open");
            let mut user = 0u64;
            b.iter(|| {
                user = (user + 1) % 16;
                store.fetch_latest(user).expect("fetch").expect("published")
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("crc32");
    let small = [("4k", 4 * 1024), ("8k", 8 * 1024), ("16k", 16 * 1024)];
    for (label, bytes) in small.into_iter().chain(ENVELOPE_SIZES) {
        group.bench_function(label, |b| {
            let envelope = envelope(1, bytes);
            b.iter(|| crc32(black_box(envelope.as_bytes())));
        });
    }
    group.bench_function("bytewise/32k", |b| {
        let envelope = envelope(1, 32 * 1024);
        b.iter(|| crc32_bytewise(black_box(envelope.as_bytes())));
    });
    group.finish();
}

/// The textbook byte-at-a-time CRC-32, the reference row `crc32/*` is
/// read against.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

criterion_group!(benches, bench_store_log);
criterion_main!(benches);
