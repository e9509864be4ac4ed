//! Crash-point recovery suite: the store must serve exactly the last
//! committed publication for a crash at **any** byte offset of the log.
//!
//! The strategy: build a real log, then for every possible torn length —
//! from the empty file through every byte of every record to the full
//! log — snapshot the "disk", truncate it to that length (the state an
//! append torn at that byte would leave), reopen, and check that the
//! recovered store serves the newest version whose commit byte made it
//! inside the cut, that the tail is physically truncated, and that
//! appending afterwards works. This is exhaustive over crash points, not
//! sampled: the loop runs once per byte of the log.
//!
//! Truncation alone never needs the CRC: the length and the commit byte
//! catch every torn tail. So more failures are driven here: a single
//! flipped bit in a committed record (only the CRC can see it), and
//! backend faults injected by a [`FaultPlan`]: a panic inside `append`
//! or `sync`, an `append` that writes a prefix of the record and then
//! returns an error (a prefix of every length, across the record's head,
//! payload and tail parts), the `n`th append or sync of a compaction
//! failing, and a compaction whose removal of an old segment fails.
//! Last, a mutation loop: no byte mutant or truncation of a segment
//! makes the open or a fetch panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use pelican_nn::ModelEnvelope;
use pelican_store::record::{decode_record, HEADER_LEN, PAYLOAD_OFFSET, TAIL_LEN};
use pelican_store::{
    CompactionPolicy, EnvelopeStore, Fault, FaultPlan, MemBackend, Method, StorageBackend,
    StoreConfig, StoreError,
};

const SEGMENT: &str = "shard0000-seg00000000.plog";

fn config(compress: bool) -> StoreConfig {
    StoreConfig { shards: 1, compress, ..StoreConfig::default() }
}

fn envelope(version: u64) -> ModelEnvelope {
    // Version-dependent, partly repetitive payload (compressible but not
    // trivial), distinct per version so a wrong serve is detectable.
    let body: Vec<u8> = (0..200u64).map(|i| ((i * version) % 251) as u8).collect();
    ModelEnvelope::from_bytes(body)
}

/// Builds a 3-version log for user 1 and returns the committed end
/// offset of each version: `ends[i]` = first byte past version `i+1`.
fn build_log(disk: &MemBackend, compress: bool) -> Vec<u64> {
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config(compress)).expect("open");
    (1..=3u64)
        .map(|v| {
            let entry = store.append(1, v, &envelope(v)).expect("append");
            entry.offset + entry.stored_len as u64
        })
        .collect()
}

#[test]
fn recovery_serves_the_last_committed_version_for_every_crash_point() {
    for compress in [false, true] {
        let disk = MemBackend::new();
        let ends = build_log(&disk, compress);
        let full = disk.size(SEGMENT).expect("segment exists");
        assert_eq!(full, *ends.last().unwrap(), "log ends on the last commit byte");

        for cut in 0..=full {
            let crash = disk.snapshot();
            crash.truncate(SEGMENT, cut).unwrap();
            let recovered = EnvelopeStore::open(Arc::new(crash.clone()), config(compress))
                .unwrap_or_else(|e| panic!("cut {cut}: recovery must succeed, got {e}"));

            // The newest version whose commit byte is inside the cut.
            let committed = ends.iter().filter(|&&end| end <= cut).count() as u64;
            match committed {
                0 => {
                    assert_eq!(
                        recovered.fetch_latest(1).unwrap(),
                        None,
                        "cut {cut}: nothing committed yet"
                    );
                    assert_eq!(recovered.max_version(), 0);
                }
                v => {
                    assert_eq!(
                        recovered.latest_version(1),
                        Some(v),
                        "cut {cut}: wrong surviving version"
                    );
                    let served = recovered.fetch_latest(1).unwrap().unwrap();
                    assert_eq!(
                        served.as_bytes(),
                        envelope(v).as_bytes(),
                        "cut {cut}: payload must be version {v}'s, bit for bit"
                    );
                    // Earlier history survives too — rollback targets.
                    for earlier in 1..v {
                        assert_eq!(
                            recovered.fetch(1, earlier).unwrap().as_bytes(),
                            envelope(earlier).as_bytes()
                        );
                    }
                }
            }

            // The torn tail is physically gone: the file now ends exactly
            // on the committed prefix (header-only when a record tore
            // before its commit byte; empty when the header itself tore).
            let expected_size = if cut < HEADER_LEN as u64 {
                0
            } else {
                ends.iter().copied().filter(|&end| end <= cut).max().unwrap_or(HEADER_LEN as u64)
            };
            assert_eq!(
                crash.size(SEGMENT).unwrap(),
                expected_size,
                "cut {cut}: torn bytes must be truncated away"
            );

            // A second open of the repaired log finds nothing torn.
            drop(recovered);
            let clean = EnvelopeStore::open(Arc::new(crash), config(compress)).unwrap();
            assert_eq!(clean.recovery().torn_segments, 0, "cut {cut}: repair is stable");
        }
    }
}

#[test]
fn appending_after_recovery_continues_the_log() {
    let disk = MemBackend::new();
    let ends = build_log(&disk, false);

    // Crash mid-record-2 (somewhere strictly inside it).
    let cut = (ends[0] + ends[1]) / 2;
    let crash = disk.snapshot();
    crash.truncate(SEGMENT, cut).unwrap();

    let recovered = EnvelopeStore::open(Arc::new(crash.clone()), config(false)).unwrap();
    assert_eq!(recovered.latest_version(1), Some(1));
    assert!(recovered.recovery().torn_segments == 1 && recovered.recovery().torn_bytes > 0);

    // The retried publication lands and survives another restart.
    recovered.append(1, 2, &envelope(2)).unwrap();
    recovered.append(1, 3, &envelope(3)).unwrap();
    drop(recovered);
    let reopened = EnvelopeStore::open(Arc::new(crash), config(false)).unwrap();
    assert_eq!(reopened.versions(1), vec![1, 2, 3]);
    assert_eq!(reopened.fetch(1, 3).unwrap().as_bytes(), envelope(3).as_bytes());
}

#[test]
fn torn_tail_on_a_rolled_segment_only_loses_the_tail() {
    // Small segments force rolling; tearing the *last* segment must not
    // disturb history in earlier ones.
    let config = StoreConfig { shards: 1, segment_bytes: 512, ..StoreConfig::default() };
    let disk = MemBackend::new();
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config).unwrap();
    for v in 1..=8u64 {
        store.append(1, v, &envelope(v)).unwrap();
    }
    let segments: Vec<String> =
        disk.list().unwrap().into_iter().filter(|n| n.ends_with(".plog")).collect();
    assert!(segments.len() > 1, "log must span segments: {segments:?}");

    let last = segments.last().unwrap();
    let crash = disk.snapshot();
    let torn_len = crash.size(last).unwrap() - 7; // tear into the final record
    crash.truncate(last, torn_len).unwrap();

    let recovered = EnvelopeStore::open(Arc::new(crash), config).unwrap();
    assert_eq!(recovered.latest_version(1), Some(7), "only version 8 tore");
    for v in 1..=7u64 {
        assert_eq!(recovered.fetch(1, v).unwrap().as_bytes(), envelope(v).as_bytes());
    }
}

#[test]
fn recovery_is_per_user_across_shards() {
    // Tearing shard 0's segment must not affect users on shard 1.
    let config = StoreConfig { shards: 2, ..StoreConfig::default() };
    let disk = MemBackend::new();
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config).unwrap();
    store.append(0, 1, &envelope(1)).unwrap(); // shard 0
    store.append(1, 2, &envelope(2)).unwrap(); // shard 1
    store.append(0, 3, &envelope(3)).unwrap(); // shard 0

    let crash = disk.snapshot();
    let shard0 = "shard0000-seg00000000.plog";
    crash.truncate(shard0, crash.size(shard0).unwrap() - 1).unwrap(); // tear v3

    let recovered = EnvelopeStore::open(Arc::new(crash), config).unwrap();
    assert_eq!(recovered.latest_version(0), Some(1), "shard 0 lost only its torn tail");
    assert_eq!(recovered.latest_version(1), Some(2), "shard 1 untouched");
}

/// Flips one bit of a stored file in place.
fn flip_bit(disk: &MemBackend, name: &str, pos: u64) {
    let mut bytes = disk.read(name).unwrap().to_vec();
    bytes[pos as usize] ^= 0x04;
    disk.truncate(name, 0).unwrap();
    disk.append(name, &[bytes.into()]).unwrap();
}

#[test]
fn one_rotten_bit_anywhere_in_a_32k_record_ends_the_committed_prefix_there() {
    // Version 2 is a 32 KiB envelope between two small ones. Its CRC'd
    // span (user through payload) is long enough for `crc32`'s fold: one
    // flip lands in each third of the span and one in its last sliver,
    // and the rest in the regions the fold treats differently. Those are
    // the first four bytes (they carry the initial register), the last
    // folded word, the words left to the table loop (the last 203 plus
    // the remainder of whole 16-word blocks) and the sub-word tail.
    let disk = MemBackend::new();
    let body: Vec<u8> = (0..32 * 1024u32).map(|i| (i * 7 % 253) as u8).collect();
    let big = ModelEnvelope::from_bytes(body);
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config(false)).unwrap();
    store.append(1, 1, &envelope(1)).unwrap();
    let victim = store.append(1, 2, &big).unwrap();
    store.append(1, 3, &envelope(3)).unwrap();
    drop(store);
    let full = disk.size(SEGMENT).unwrap();

    let span = victim.stored_len as u64 - 4 - 4 - 1; // less magic, crc, commit
    let third = span / 3 / 16 * 16;
    let sliver = span - 3 * third;
    let words = span / 8;
    let folded = (words - 203) / 16 * 16;
    assert!(
        !span.is_multiple_of(8) && folded > 0,
        "span {span} must be folded and end in a sub-word tail"
    );
    let thirds = [third / 2, third + third / 2, 2 * third + third / 2, 3 * third + sliver / 2];
    let fold_regions = [0, 3, 8 * folded - 1, 8 * folded + 4 * (words - folded), span - 1];
    for at in thirds.into_iter().chain(fold_regions) {
        let pos = victim.offset + 4 + at;

        let rotten = disk.snapshot();
        flip_bit(&rotten, SEGMENT, pos);
        let bytes = rotten.read(SEGMENT).unwrap();
        assert!(decode_record(&bytes, victim.offset as usize).is_none(), "flip at span byte {at}");

        let recovered = EnvelopeStore::open(Arc::new(rotten.clone()), config(false)).unwrap();
        assert_eq!(recovered.versions(1), vec![1], "flip at span byte {at}: prefix ends at v2");
        assert_eq!(recovered.recovery().torn_bytes, full - victim.offset);
        assert_eq!(rotten.size(SEGMENT).unwrap(), victim.offset);

        // Rot after recovery indexed the record: the read verifies.
        let live = disk.snapshot();
        let store = EnvelopeStore::open(Arc::new(live.clone()), config(false)).unwrap();
        flip_bit(&live, SEGMENT, pos);
        assert!(
            matches!(
                store.fetch(1, 2),
                Err(StoreError::Corrupt { offset, .. }) if offset == victim.offset
            ),
            "flip at span byte {at} must fail the fetch"
        );
        assert_eq!(store.fetch(1, 3).unwrap().as_bytes(), envelope(3).as_bytes());
    }
}

#[test]
fn a_backend_panic_mid_publish_poisons_nothing_the_next_call_needs() {
    let disk = MemBackend::new();
    let plan = Arc::new(FaultPlan::new(disk.clone()));
    let store = EnvelopeStore::open(plan.clone(), config(false)).unwrap();
    store.append(1, 1, &envelope(1)).unwrap();
    let before = disk.size(SEGMENT).unwrap();

    // Plan: the next append panics before it writes.
    plan.arm(Method::Append, 1, Fault::Panic);
    let publish = catch_unwind(AssertUnwindSafe(|| store.append(1, 2, &envelope(2))));
    assert!(publish.is_err(), "the armed append must panic");

    // The failed publication is not visible, on the shard or the disk.
    assert_eq!(store.versions(1), vec![1]);
    assert_eq!(disk.size(SEGMENT).unwrap(), before);

    // The shard's lock is taken back: the next calls behave normally.
    store.append(1, 3, &envelope(3)).unwrap();
    let (version, latest) = store.fetch_latest_with_version(1).unwrap().unwrap();
    assert_eq!((version, latest.as_bytes()), (3, envelope(3).as_bytes()));
    assert_eq!(store.fetch_latest(1).unwrap().unwrap().as_bytes(), envelope(3).as_bytes());
    drop(store);

    let reopened = EnvelopeStore::open(Arc::new(disk), config(false)).unwrap();
    assert_eq!(reopened.versions(1), vec![1, 3]);
    assert_eq!(reopened.recovery().torn_segments, 0);
    assert_eq!(reopened.fetch(1, 1).unwrap().as_bytes(), envelope(1).as_bytes());
}

#[test]
fn a_sync_panic_after_the_write_leaves_the_next_record_at_its_own_offset() {
    let disk = MemBackend::new();
    let plan = Arc::new(FaultPlan::new(disk.clone()));
    let store = EnvelopeStore::open(plan.clone(), config(false)).unwrap();
    store.append(1, 1, &envelope(1)).unwrap();

    // Plan: the next sync panics, after its record's bytes landed.
    plan.arm(Method::Sync, 1, Fault::Panic);
    let publish = catch_unwind(AssertUnwindSafe(|| store.append(1, 2, &envelope(2))));
    assert!(publish.is_err(), "the armed sync must panic");
    // The bytes landed, but the publication was never indexed.
    let unsynced_end = disk.size(SEGMENT).unwrap();
    assert_eq!(store.versions(1), vec![1]);

    // Versions 2 and 3 encode to the same length, so an index entry at
    // the unsynced record's offset would verify and serve version 2.
    let entry = store.append(1, 3, &envelope(3)).unwrap();
    assert_eq!(entry.offset, unsynced_end);
    assert_eq!(store.fetch(1, 3).unwrap().as_bytes(), envelope(3).as_bytes());
    assert_eq!(store.fetch_latest(1).unwrap().unwrap().as_bytes(), envelope(3).as_bytes());
    drop(store);

    // Whether an unsynced write survives is up to the disk; this one
    // kept it, so recovery finds a committed record and indexes it.
    let reopened = EnvelopeStore::open(Arc::new(disk), config(false)).unwrap();
    assert_eq!(reopened.versions(1), vec![1, 2, 3]);
    assert_eq!(reopened.recovery().torn_segments, 0);
    for v in 1..=3 {
        assert_eq!(reopened.fetch(1, v).unwrap().as_bytes(), envelope(v).as_bytes());
    }
}

#[test]
fn an_append_error_after_a_partial_write_leaves_the_next_publish_served_and_durable() {
    // Plan: the next append writes `prefix` bytes and fails; with
    // `blind`, every `size` fails, from the open on.
    for (prefix, blind) in [(0, false), (0, true), (100, false), (100, true)] {
        let case = format!("prefix {prefix}, size fails: {blind}");
        let disk = MemBackend::new();
        let plan = Arc::new(FaultPlan::new(disk.clone()));
        if blind {
            plan.arm(Method::Size, 1, Fault::Broken);
        }
        let store = EnvelopeStore::open(plan.clone(), config(false)).unwrap();
        store.append(1, 1, &envelope(1)).unwrap();
        let committed = disk.size(SEGMENT).unwrap();

        plan.arm(Method::Append, 1, Fault::ShortWrite(prefix));
        let failed = store.append(1, 2, &envelope(2));
        assert!(matches!(failed, Err(StoreError::Io(_))), "{case}");
        assert_eq!(disk.size(SEGMENT).unwrap(), committed + prefix as u64, "{case}");
        assert_eq!(store.versions(1), vec![1], "{case}: the failed publish is not visible");

        // The next publish lands where it is indexed and is served. Only
        // a segment known to end where the shard thinks it does takes it.
        let next = store.append(1, 3, &envelope(3)).unwrap();
        assert_eq!(store.fetch(1, 3).unwrap().as_bytes(), envelope(3).as_bytes(), "{case}");
        assert_eq!(store.fetch_latest(1).unwrap().unwrap().as_bytes(), envelope(3).as_bytes());
        let segments = if (prefix, blind) == (0, false) { 1 } else { 2 };
        assert_eq!(disk.list().unwrap().len(), segments, "{case}");
        drop(store);

        // Acknowledged means durable: recovery cuts the stray prefix
        // and keeps the publish after it.
        let reopened = EnvelopeStore::open(Arc::new(disk.clone()), config(false)).unwrap();
        assert_eq!(reopened.versions(1), vec![1, 3], "{case}");
        assert_eq!(reopened.recovery().torn_bytes, prefix as u64, "{case}");
        assert_eq!(reopened.fetch(1, 3).unwrap().as_bytes(), envelope(3).as_bytes(), "{case}");
        let in_place = if segments == 1 { next.stored_len as u64 } else { 0 };
        assert_eq!(disk.size(SEGMENT).unwrap(), committed + in_place, "{case}");
    }
}

#[test]
fn a_short_write_of_any_prefix_of_a_records_parts_is_cut_and_the_next_publish_kept() {
    // The bytes publishing version 2 appends after version 1, as a clean
    // log holds them: head, payload and tail, three parts of one call.
    let clean = MemBackend::new();
    let store = EnvelopeStore::open(Arc::new(clean.clone()), config(false)).unwrap();
    store.append(1, 1, &envelope(1)).unwrap();
    let second = store.append(1, 2, &envelope(2)).unwrap();
    let log = clean.read(SEGMENT).unwrap();
    let committed = second.offset as usize;
    assert_eq!(log.len() - committed, PAYLOAD_OFFSET + 200 + TAIL_LEN);

    // Every prefix, so both boundaries between parts and each side of
    // them: plan the next append to write `k` bytes and fail.
    for k in 0..log.len() - committed {
        let case = format!("a short write of {k} bytes");
        let disk = MemBackend::new();
        let plan = Arc::new(FaultPlan::new(disk.clone()));
        let store = EnvelopeStore::open(plan.clone(), config(false)).unwrap();
        store.append(1, 1, &envelope(1)).unwrap();
        plan.arm(Method::Append, 1, Fault::ShortWrite(k));
        assert!(matches!(store.append(1, 2, &envelope(2)), Err(StoreError::Io(_))), "{case}");
        assert_eq!(disk.read(SEGMENT).unwrap()[..], log[..committed + k], "{case}");
        assert_eq!(store.versions(1), vec![1], "{case}");

        // The next publish is served, and survives a reopen that cuts
        // the stray bytes. It takes the segment in place only when no
        // byte strayed.
        let next = store.append(1, 3, &envelope(3)).unwrap();
        let latest = store.fetch_latest(1).unwrap().unwrap();
        assert_eq!(latest.as_bytes(), envelope(3).as_bytes(), "{case}");
        drop(store);
        let reopened = EnvelopeStore::open(Arc::new(disk.clone()), config(false)).unwrap();
        assert_eq!(reopened.recovery().torn_bytes, k as u64, "{case}");
        let in_place = if k == 0 { next.stored_len as usize } else { 0 };
        assert_eq!(disk.size(SEGMENT).unwrap(), (committed + in_place) as u64, "{case}");
        assert_eq!(reopened.versions(1), vec![1, 3], "{case}");
        assert_eq!(reopened.fetch(1, 3).unwrap().as_bytes(), envelope(3).as_bytes(), "{case}");
    }
}

#[test]
fn no_mutant_of_a_two_record_segment_panics_the_open_or_a_fetch() {
    let disk = MemBackend::new();
    let store = EnvelopeStore::open(Arc::new(disk.clone()), config(false)).unwrap();
    let first = store.append(1, 1, &envelope(1)).unwrap();
    store.append(2, 2, &envelope(2)).unwrap();
    drop(store);
    let log = disk.read(SEGMENT).unwrap();

    // Each byte of the segment header and of the first record's head and
    // tail, set to several values; then every truncation.
    let (start, end) = (first.offset as usize, (first.offset + first.stored_len as u64) as usize);
    let bytes = (0..HEADER_LEN).chain(start..start + PAYLOAD_OFFSET).chain(end - TAIL_LEN..end);
    let mut mutants = Vec::new();
    for at in bytes {
        let was = log[at];
        for value in [0x00, 0xFF, was ^ 0x01, was ^ 0x80, was.wrapping_add(1)] {
            let mut mutant = log.to_vec();
            mutant[at] = value;
            mutants.push((format!("byte {at} set to {value:#04x}"), mutant));
        }
    }
    mutants.extend((0..=log.len()).map(|cut| (format!("cut at {cut}"), log[..cut].to_vec())));

    for (case, mutant) in mutants {
        let disk = MemBackend::new();
        disk.append(SEGMENT, &[mutant.into()]).unwrap();
        let opened =
            catch_unwind(AssertUnwindSafe(|| EnvelopeStore::open(Arc::new(disk), config(false))));
        let Ok(store) = opened.unwrap_or_else(|_| panic!("{case}: the open panicked")) else {
            continue; // an error is an answer
        };
        for user in [1, 2] {
            for version in store.versions(user) {
                let fetched = catch_unwind(AssertUnwindSafe(|| store.fetch(user, version)))
                    .unwrap_or_else(|_| panic!("{case}: fetching v{version} panicked"));
                match fetched {
                    Ok(got) => assert_eq!(got, envelope(version), "{case}: v{version}"),
                    Err(e) => assert!(matches!(e, StoreError::Corrupt { .. }), "{case}: {e}"),
                }
            }
        }
    }
}

/// Every file on the disk, with its size.
fn files(disk: &MemBackend) -> Vec<(String, u64)> {
    disk.list().unwrap().into_iter().map(|f| (f.clone(), disk.size(&f).unwrap())).collect()
}

/// One shard of small segments that compaction cuts to two versions.
fn compacting() -> StoreConfig {
    StoreConfig {
        shards: 1,
        segment_bytes: 700,
        compaction: CompactionPolicy { retain_versions: 2 },
        ..StoreConfig::default()
    }
}

#[test]
fn a_failed_compaction_leaves_no_stray_segment_behind() {
    // Three users, four versions each, two kept: the rewrite fills
    // several small fresh segments, and each plan fails it at one of
    // their appends (after the write) or syncs.
    let config = compacting();
    let users = 1..=3u64;
    let plans = [(Method::Append, Fault::ErrorAfter), (Method::Sync, Fault::Error)];
    for ((method, fault), nth) in plans.into_iter().flat_map(|p| (1..=3).map(move |n| (p, n))) {
        let case = format!("{method:?} #{nth} fails");
        let disk = MemBackend::new();
        let plan = Arc::new(FaultPlan::new(disk.clone()));
        let store = EnvelopeStore::open(plan.clone(), config).unwrap();
        for v in 1..=4 {
            for user in users.clone() {
                store.append(user, v, &envelope(10 * user + v)).unwrap();
            }
        }
        let before = files(&disk);

        plan.arm(method, nth, fault);
        assert!(matches!(store.compact(), Err(StoreError::Io(_))), "{case}");
        assert_eq!(files(&disk), before, "{case}: the failed compaction left files behind");
        for user in users.clone() {
            assert_eq!(store.versions(user), vec![1, 2, 3, 4], "{case}");
            let latest = store.fetch_latest(user).unwrap().unwrap();
            assert_eq!(latest.as_bytes(), envelope(10 * user + 4).as_bytes(), "{case}");
        }

        // The next publishes — enough to roll into the segment the
        // failed rewrite had started — are served.
        for v in 5..=7 {
            store.append(1, v, &envelope(10 + v)).unwrap();
        }
        assert_eq!(store.fetch_latest(1).unwrap().unwrap().as_bytes(), envelope(17).as_bytes());
        drop(store);

        // And durable: a reopen finds every version, nothing torn.
        let reopened = EnvelopeStore::open(Arc::new(disk.clone()), config).unwrap();
        assert_eq!(reopened.recovery().torn_segments, 0, "{case}");
        assert_eq!(reopened.versions(1), (1..=7).collect::<Vec<_>>(), "{case}");
        for user in users.clone() {
            let last = if user == 1 { 7 } else { 4 };
            for v in 1..=last {
                let got = reopened.fetch(user, v).unwrap();
                assert_eq!(
                    got.as_bytes(),
                    envelope(10 * user + v).as_bytes(),
                    "{case}: {user} v{v}"
                );
            }
        }
        // A compaction that does not fail still goes through.
        reopened.compact().unwrap();
        assert_eq!(reopened.versions(1), vec![6, 7], "{case}");
    }
}

#[test]
fn a_failed_segment_removal_is_retried_by_the_next_compaction() {
    // Plan: the first removal of a compaction fails. Four versions of
    // three users fill six segments of two records each, and the oldest,
    // which holds version 1 of users 1 and 2, is removed first.
    let config = compacting();
    let disk = MemBackend::new();
    let plan = Arc::new(FaultPlan::new(disk.clone()));
    let store = EnvelopeStore::open(plan.clone(), config).unwrap();
    for v in 1..=4 {
        for user in 1..=3u64 {
            store.append(user, v, &envelope(10 * user + v)).unwrap();
        }
    }
    let old = disk.list().unwrap();
    assert_eq!(old.len(), 6);

    plan.arm(Method::Remove, 1, Fault::Error);
    assert!(matches!(store.compact(), Err(StoreError::Io(_))));
    // The shard serves the compacted index.
    for user in 1..=3 {
        assert_eq!(store.versions(user), vec![3, 4]);
        let latest = store.fetch_latest(user).unwrap().unwrap();
        assert_eq!(latest.as_bytes(), envelope(10 * user + 4).as_bytes());
    }
    // Every other old segment is gone; the stray one stays in the
    // shard's chain, and the compaction counts.
    let left = disk.list().unwrap();
    assert_eq!(left[0], old[0]);
    assert!(old[1..].iter().all(|name| !left.contains(name)), "{left:?}");
    let stats = store.stats();
    assert_eq!((stats.compactions, stats.segments), (1, left.len()));

    // Until the next compaction, a reopen replays the stray segment's
    // superseded versions.
    let reopened = EnvelopeStore::open(Arc::new(disk.snapshot()), config).unwrap();
    assert_eq!(reopened.recovery().torn_segments, 0);
    for (user, versions) in [(1, vec![1, 3, 4]), (2, vec![1, 3, 4]), (3, vec![3, 4])] {
        assert_eq!(reopened.versions(user), versions, "user {user}");
    }
    assert_eq!(reopened.fetch(2, 1).unwrap().as_bytes(), envelope(21).as_bytes());

    // The next compaction removes the stray segment.
    store.compact().unwrap();
    let left = disk.list().unwrap();
    assert!(!left.contains(&old[0]), "{left:?}");
    assert_eq!((store.stats().compactions, store.stats().segments), (2, left.len()));
    let reopened = EnvelopeStore::open(Arc::new(disk), config).unwrap();
    for user in 1..=3 {
        assert_eq!(reopened.versions(user), vec![3, 4], "user {user}");
    }
}
