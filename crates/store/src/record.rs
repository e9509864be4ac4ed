//! On-disk layout of segments and publication records.
//!
//! A segment file is a fixed header followed by back-to-back publication
//! records, append-only:
//!
//! ```text
//! segment  := header record*
//! header   := "PSEG" fmt:u16 shard:u32 seq:u64                  (18 bytes)
//! record   := "PLOG" user:u64 version:u64 flags:u8
//!             raw_len:u32 len:u32 payload[len]
//!             crc32:u32 commit:u8 (= 0xC7)
//! ```
//!
//! All integers are little-endian. `flags` bit 0 marks an
//! LZSS-compressed payload (`len` stored bytes inflate to `raw_len`).
//! The CRC (CRC-32/IEEE, `crc32`) covers every byte between the record
//! magic and the CRC field itself (user through payload), so one pass
//! over `29 - 4 + len` bytes seals or verifies a record; nothing else is
//! checksummed.
//!
//! That pass is most of what a store operation costs, so `crc32` does
//! not run the table loop over the whole of a span of 6 KiB or more. It
//! first reduces the span modulo a sparse multiple M of the CRC
//! polynomial whose five lower terms all sit whole 64-bit words below its
//! top one: each word folds away in five word XORs, sixteen words to a
//! vectorised step, and the residue mod the polynomial is unchanged. The
//! last ~1.6 KiB, carrying what the folded words sent them, then run
//! the slicing-by-16 table loop. The value is the plain CRC-32/IEEE of
//! the span, so the fold leaves no trace on disk.
//!
//! A decoded [`Record`] is a *view*: its payload borrows the buffer it
//! was decoded from ([`decode_record`], [`scan_segment`]), and
//! [`encode_record`] writes from a borrowed payload. Nothing in this
//! module copies payload bytes except the one `extend_from_slice` into
//! the output of `encode_record`. A caller that read the record into a
//! shared [`bytes::Bytes`] and needs the payload past the view's life
//! keeps a window onto it instead: the record's bytes from
//! [`PAYLOAD_OFFSET`] on, taken after the record verified.
//!
//! Because the CRC covers the whole body and the framing around it is
//! constant (magic in front, commit byte behind), a record's encoding is
//! a function of its fields alone: re-encoding a verified view yields
//! the bytes it was decoded from. Compaction relies on this to move a
//! survivor by verifying its stored bytes and appending them verbatim,
//! where decode → re-encode would checksum and copy the payload twice to
//! write the same bytes.
//!
//! **The trailing commit byte is the write-ahead commit record.** A
//! publication is durable if and only if its commit byte (preceded by a
//! matching CRC) reached storage: the store appends the whole record in
//! one write and syncs before the publication becomes visible, so after
//! a crash the tail of a segment is either a complete committed record
//! or torn garbage. Recovery ([`scan_segment`]) walks records from the
//! front and stops at the first byte that cannot be part of a committed
//! record — everything before that point is the committed prefix,
//! everything after is truncated. There is no rollback journal to undo:
//! an append-only log's "undo" is dropping the torn tail.

/// Segment file magic.
const SEGMENT_MAGIC: &[u8; 4] = b"PSEG";
/// Record magic.
const RECORD_MAGIC: &[u8; 4] = b"PLOG";
/// On-disk format version.
pub const FORMAT_VERSION: u16 = 1;
/// The commit marker sealing every durable record.
const COMMIT_BYTE: u8 = 0xC7;
/// Segment header size in bytes.
pub const HEADER_LEN: usize = 4 + 2 + 4 + 8;
/// Where a record's payload starts: magic + user + version + flags +
/// raw_len + len come first.
pub const PAYLOAD_OFFSET: usize = 4 + 8 + 8 + 1 + 4 + 4;
/// Fixed record overhead: the [`PAYLOAD_OFFSET`] bytes up front, crc +
/// commit behind the payload.
pub const RECORD_OVERHEAD: usize = PAYLOAD_OFFSET + 4 + 1;

/// `flags` bit 0: payload is LZSS-compressed.
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// One publication record (payload still raw/compressed bytes), borrowing
/// its payload: from the envelope on the way in, from the scanned buffer
/// on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The publishing user.
    pub user: u64,
    /// Registry-assigned monotone publication version.
    pub version: u64,
    /// Flag bits ([`FLAG_COMPRESSED`]).
    pub flags: u8,
    /// Uncompressed payload length.
    pub raw_len: u32,
    /// Payload exactly as stored (compressed when flagged).
    pub payload: &'a [u8],
}

impl Record<'_> {
    /// Whether the payload must be inflated before use.
    pub fn is_compressed(&self) -> bool {
        self.flags & FLAG_COMPRESSED != 0
    }

    /// Total encoded size of this record on disk.
    pub fn encoded_len(&self) -> usize {
        RECORD_OVERHEAD + self.payload.len()
    }
}

/// Why a segment scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The segment ended exactly on a record boundary.
    Clean,
    /// A torn or corrupt tail begins at the reported offset: bytes from
    /// there on are not part of any committed record and must be
    /// truncated.
    Torn,
}

/// The reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;
/// The shortest span `crc32` folds; below it the table loop alone is
/// as fast (`store_log`'s `crc32/*` rows). It must leave [`REACH`]
/// words unfolded.
const FOLD_MIN: usize = 6 * 1024;
/// The fold's multiple of P, `M(x) = x^12992 + x^11904 + x^7872 +
/// x^5440 + x^5056 + 1`, as distances in 64-bit words from its top term
/// down to each other term: folding word `i` away XORs it into words
/// `i + 17`, `i + 80`, `i + 118`, `i + 124` and `i + 203`.
const FOLD: [usize; 5] = [17, 80, 118, 124, 203];
/// M's degree in words: how far back a word's incoming folds reach.
const REACH: usize = FOLD[4];
/// Words folded per step: one under the shortest distance, so a block
/// reads only words that earlier blocks finished.
const BLOCK: usize = FOLD[0] - 1;
/// The stack window holding the folded words, in words.
const WINDOW: usize = 1024;
/// Words the window keeps when it slides: [`REACH`] rounded up to whole
/// blocks.
const KEEP: usize = REACH.next_multiple_of(BLOCK);
const _: () = assert!(FOLD_MIN >= 8 * REACH);

/// Slicing-by-16 tables. Table 0 is the bytewise table; table `k` maps
/// a byte to its contribution `k` bytes further on (the state after that
/// byte followed by `k` zero bytes).
static TABLES: [[u32; 256]; 16] = build_crc_tables();

/// CRC-32 (IEEE 802.3) of `bytes`.
///
/// A span of 6 KiB or more is first reduced modulo [`FOLD`]'s multiple
/// M of the generator P, which leaves its residue mod P, and so its CRC,
/// as it was. Read as little-endian 64-bit words `w`, the span reduces
/// front to back by one recurrence, `v[i] = w[i] ^ v[i-17] ^ v[i-80] ^
/// v[i-118] ^ v[i-124] ^ v[i-203]`: every term of M sits on a word
/// boundary, so folding a word away is five whole-word XORs further on.
/// A block of 16 words reads only finished words, so the loop runs as
/// vector XORs. The initial register enters as the low 32 bits of word 0
/// (the first four bytes, XORed with it, on a register started at zero).
/// What is left, the last 203 to 218 words with their incoming folds and
/// the sub-word tail, goes through the table loop from a zero register.
/// Shorter spans run the table loop alone. Every input gets the same
/// value as the bytewise loop.
fn crc32(bytes: &[u8]) -> u32 {
    if bytes.len() < FOLD_MIN {
        return !raw_update(0xFFFF_FFFF, bytes);
    }
    let (words, rest) = bytes.as_chunks::<8>();
    let (head, last) = words.split_at((words.len() - REACH) / BLOCK * BLOCK);
    // `win[at - j]` holds v[i - j] for the next word `i` to fold. The
    // KEEP words before `at` start as v[-208..0], all zero but for the
    // register, which word 0 pulls in through the x^12992 term.
    let mut win = [0u64; WINDOW];
    win[KEEP - REACH] = 0xFFFF_FFFF;
    let mut at = KEEP;
    let mut prev = [0; BLOCK];
    for block in head.as_chunks::<BLOCK>().0 {
        if at == WINDOW {
            win.copy_within(WINDOW - KEEP.., 0);
            at = KEEP;
        }
        let (done, next) = win.split_at_mut(at);
        let mut v = block.map(u64::from_le_bytes);
        // The nearest term reaches one word past the previous block; the
        // rest of it is that block, taken from `prev` rather than reloaded
        // from the window, where each vector load would straddle two of
        // the stores that just wrote it and stall store forwarding.
        v[0] ^= done[at - FOLD[0]];
        for (v, p) in v[1..].iter_mut().zip(&prev) {
            *v ^= p;
        }
        for &d in &FOLD[1..] {
            let from = done[at - d..].first_chunk::<BLOCK>().expect("d > BLOCK");
            for (v, f) in v.iter_mut().zip(from) {
                *v ^= f;
            }
        }
        *next.first_chunk_mut().expect("at < WINDOW") = v;
        prev = v;
        at += BLOCK;
    }
    // The words left keep what the folded ones sent them: word `k` of
    // `last` gets the folded word `d` before it for every `d > k`.
    let mut tail = [[0u8; 8]; REACH + BLOCK];
    for (k, (t, w)) in tail.iter_mut().zip(last).enumerate() {
        let incoming = FOLD.iter().filter(|&&d| k < d).fold(0, |x, &d| x ^ win[at - d + k]);
        *t = (u64::from_le_bytes(*w) ^ incoming).to_le_bytes();
    }
    !raw_update(raw_update(0, tail[..last.len()].as_flattened()), rest)
}

/// Runs the raw (unconditioned) CRC register `crc` over `bytes`: sixteen
/// bytes per step, then bytewise over the <16-byte tail.
fn raw_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let (steps, rest) = bytes.as_chunks();
    for s in steps {
        crc = step(crc, s);
    }
    for &b in rest {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// One slicing-by-16 step: the register folds into the first word; the
/// sixteen lookups after that are independent of one another.
#[inline(always)]
fn step(crc: u32, s: &[u8; 16]) -> u32 {
    let word = |i: usize| u32::from_le_bytes([s[i], s[i + 1], s[i + 2], s[i + 3]]);
    let words = [word(0) ^ crc, word(4), word(8), word(12)];
    let mut out = 0;
    for (k, w) in words.into_iter().enumerate() {
        for (j, byte) in w.to_le_bytes().into_iter().enumerate() {
            out ^= TABLES[15 - 4 * k - j][byte as usize];
        }
    }
    out
}

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Encodes a segment header.
pub fn encode_header(shard: u32, seq: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN);
    buf.extend_from_slice(SEGMENT_MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&shard.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf
}

/// Decodes and validates a segment header, returning `(shard, seq)`.
pub fn decode_header(bytes: &[u8]) -> Result<(u32, u64), HeaderError> {
    if bytes.len() < HEADER_LEN {
        return Err(HeaderError::Truncated);
    }
    if &bytes[..4] != SEGMENT_MAGIC {
        return Err(HeaderError::BadMagic);
    }
    let fmt = u16::from_le_bytes([bytes[4], bytes[5]]);
    if fmt != FORMAT_VERSION {
        return Err(HeaderError::UnsupportedVersion(fmt));
    }
    let shard = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]);
    let seq = u64::from_le_bytes(bytes[10..18].try_into().expect("8 header bytes"));
    Ok((shard, seq))
}

/// Segment-header decode failures (always fatal: headers are written in
/// the same synced append as the segment's first record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Shorter than a header.
    Truncated,
    /// Wrong magic bytes.
    BadMagic,
    /// Format version this library does not understand.
    UnsupportedVersion(u16),
}

/// Appends one record's encoding to `out`.
pub fn encode_record(out: &mut Vec<u8>, record: &Record) {
    debug_assert!(record.payload.len() <= u32::MAX as usize);
    out.extend_from_slice(RECORD_MAGIC);
    let body_start = out.len();
    out.extend_from_slice(&record.user.to_le_bytes());
    out.extend_from_slice(&record.version.to_le_bytes());
    out.push(record.flags);
    out.extend_from_slice(&record.raw_len.to_le_bytes());
    out.extend_from_slice(&(record.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(record.payload);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out.push(COMMIT_BYTE);
}

/// Attempts to decode one committed record starting at `offset`.
///
/// Returns `Some((record, next_offset))` only when every byte of the
/// record — including a matching CRC and the commit marker — is present
/// and valid; `None` means the bytes at `offset` are a torn tail (or
/// corruption, which recovery treats identically: the committed prefix
/// ends here). The record's payload borrows `bytes`, and
/// `bytes[offset..next_offset]` is the record's verified encoding.
pub fn decode_record(bytes: &[u8], offset: usize) -> Option<(Record<'_>, usize)> {
    if bytes.len() < offset + PAYLOAD_OFFSET {
        return None;
    }
    let at = &bytes[offset..];
    if &at[..4] != RECORD_MAGIC {
        return None;
    }
    let user = u64::from_le_bytes(at[4..12].try_into().expect("8 bytes"));
    let version = u64::from_le_bytes(at[12..20].try_into().expect("8 bytes"));
    let flags = at[20];
    let raw_len = u32::from_le_bytes(at[21..25].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(at[25..29].try_into().expect("4 bytes")) as usize;
    let total = RECORD_OVERHEAD + len;
    if bytes.len() < offset + total {
        return None;
    }
    let payload_end = PAYLOAD_OFFSET + len;
    let payload = &at[PAYLOAD_OFFSET..payload_end];
    let stored_crc = u32::from_le_bytes(at[payload_end..payload_end + 4].try_into().expect("crc"));
    if crc32(&at[4..payload_end]) != stored_crc {
        return None;
    }
    if at[total - 1] != COMMIT_BYTE {
        return None;
    }
    Some((Record { user, version, flags, raw_len, payload }, offset + total))
}

/// Walks a segment's records from just past the header, yielding each
/// committed record's `(start_offset, record)` — views into `bytes`, no
/// payload is copied — and where the committed prefix ends.
///
/// The returned offset is the truncation point when the end is
/// [`ScanEnd::Torn`]: every byte before it belongs to a committed
/// record (or the header), every byte after it is unreachable garbage.
pub fn scan_segment(bytes: &[u8]) -> (Vec<(u64, Record<'_>)>, usize, ScanEnd) {
    let mut records = Vec::new();
    let mut offset = HEADER_LEN.min(bytes.len());
    loop {
        if offset == bytes.len() {
            return (records, offset, ScanEnd::Clean);
        }
        match decode_record(bytes, offset) {
            Some((record, next)) => {
                records.push((offset as u64, record));
                offset = next;
            }
            None => return (records, offset, ScanEnd::Torn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(user: u64, version: u64, payload: &[u8]) -> Record<'_> {
        Record { user, version, flags: 0, raw_len: payload.len() as u32, payload }
    }

    /// The byte-at-a-time table loop `crc32` replaced, kept as the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !register_bytewise(0xFFFF_FFFF, bytes)
    }

    /// The raw CRC register run over `bytes` one byte at a time.
    fn register_bytewise(mut reg: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            reg = (reg >> 8) ^ TABLES[0][((reg ^ b as u32) & 0xFF) as usize];
        }
        reg
    }

    /// `X8N[i]` is x^(8·2^i) mod P: the operator that appends 2^i zero
    /// bytes.
    static X8N: [u32; 32] = build_x8n();

    /// a·b mod P in the reflected representation, where bit 31 is x⁰:
    /// zlib's `multmodp`, one shift/xor step per bit of `a`.
    const fn multmodp(mut a: u32, mut b: u32) -> u32 {
        let mut p = 0;
        while a != 0 {
            if a & 1 << 31 != 0 {
                p ^= b;
            }
            a <<= 1;
            b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        }
        p
    }

    /// x^(8·n) mod P: the operator that appends `n` zero bytes, one
    /// product per set bit of `n`. The table wraps after 32 entries
    /// because x^(2^32) = x mod P.
    fn x8nmodp(mut n: usize) -> u32 {
        let mut p = 1 << 31;
        let mut i = 0;
        while n != 0 {
            if n & 1 != 0 {
                p = multmodp(X8N[i % 32], p);
            }
            n >>= 1;
            i += 1;
        }
        p
    }

    const fn build_x8n() -> [u32; 32] {
        let mut table = [0u32; 32];
        table[0] = 1 << 23; // x^8
        let mut i = 1;
        while i < 32 {
            table[i] = multmodp(table[i - 1], table[i - 1]);
            i += 1;
        }
        table
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // 43 bytes: two full 16-byte steps and an 11-byte tail.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// `len` bytes of a fixed LCG stream, seeded by `seed`.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_every_length_and_offset() {
        // Every length from no step to the fold's cut-over, at every
        // alignment of the slice start within a step.
        let buf = noise(0x9E37_79B9_7F4A_7C15, 16 + FOLD_MIN);
        for start in 0..16 {
            for len in 0..=FOLD_MIN {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start} len {len}");
            }
        }
        // The hidden-12 and hidden-64 envelope sizes.
        for len in [32 * 1024, 332 * 1024] {
            let big = noise(len as u64, len);
            assert_eq!(crc32(&big), crc32_bytewise(&big), "len {len}");
        }
    }

    #[test]
    fn the_fold_multiple_is_zero_mod_p() {
        // M's terms sit at byte offsets 8·(REACH - d) from the span's
        // end, 1624 for the top term: x^12992 = x^(8·1624).
        let residue = FOLD.iter().fold(x8nmodp(8 * REACH), |r, &d| r ^ x8nmodp(8 * (REACH - d)));
        assert_eq!(residue, 0, "M(x) mod P");
    }

    #[test]
    fn crc32_folds_exactly_at_the_cut_over_every_tail_and_every_window_slide() {
        let mut lens = vec![FOLD_MIN - 1, FOLD_MIN, FOLD_MIN + 1];
        // Each of the 16 word counts the blocks leave to the table
        // (203 to 218), each with 0–7 sub-word bytes behind them.
        let first = FOLD_MIN / 8;
        lens.extend((first..first + BLOCK).flat_map(|w| (0..8).map(move |t| 8 * w + t)));
        // One block short of, exactly at and one past the window's first
        // and second slide.
        let per_window = (WINDOW - KEEP) / BLOCK;
        for blocks in [per_window, 2 * per_window].into_iter().flat_map(|b| [b - 1, b, b + 1]) {
            let words = REACH + blocks * BLOCK;
            lens.extend([8 * words, 8 * words + 7]);
        }
        let buf = noise(0xF01D, 8 + lens.iter().max().unwrap());
        for start in 0..8 {
            for &len in &lens {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_reference_at_332k_and_1m_from_every_alignment() {
        let buf = noise(0x1_0000_0000, 8 + (1 << 20));
        for len in [332 * 1024, 1 << 20] {
            for start in 0..8 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    #[test]
    #[ignore = "exhaustive: every length to 64 KiB, ~10 s in release"]
    fn crc32_equals_the_bytewise_reference_at_every_length_to_64k() {
        let buf = noise(65_536, 7 + 65_536);
        for start in [0, 7] {
            for len in 0..=65_536 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc32_of_a_concatenation_is_the_join_of_its_parts() {
        // zlib's crc32_combine on finished values, across the fold's
        // cut-over: the algebra `the_fold_multiple_is_zero_mod_p` relies on.
        let buf = noise(42, 2 * 3_000);
        let mut x = 1u64;
        for case in 0..400 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Either part may be empty; a quarter of the cases are short.
            let cap = if case % 4 == 0 { 40 } else { 3_000 };
            let (la, lb) = ((x >> 20) as usize % (cap + 1), (x >> 40) as usize % (cap + 1));
            let (a, b) = (&buf[..la], &buf[la..la + lb]);
            let joined = multmodp(x8nmodp(lb), crc32(a)) ^ crc32(b);
            assert_eq!(crc32(&buf[..la + lb]), joined, "|a| {la} |b| {lb}");
        }
    }

    #[test]
    fn every_x8n_entry_is_repeated_squaring_and_the_table_wraps_after_32() {
        // x^8, squared at run time.
        let mut p = 1 << 23;
        for (i, &entry) in X8N.iter().enumerate() {
            assert_eq!(entry, p, "X8N[{i}]");
            p = multmodp(p, p);
        }
        // x^(8·2^32) = x^8: what `x8nmodp`'s `i % 32` relies on.
        assert_eq!(p, X8N[0]);
    }

    #[test]
    fn appending_zero_bytes_is_multiplying_by_x8n() {
        // Independent of the algebra: the register itself, run over 2^i
        // zero bytes, against one product with the table entry.
        for (i, seed) in (0..=12).zip([1u32, 0xFFFF_FFFF, 0x1234_5678].into_iter().cycle()) {
            let reg = register_bytewise(seed, &vec![0u8; 1 << i]);
            assert_eq!(multmodp(X8N[i], seed), reg, "2^{i} zero bytes from {seed:#x}");
            assert_eq!(x8nmodp(1 << i), X8N[i]);
        }
    }

    #[test]
    fn header_round_trips_and_rejects_junk() {
        let h = encode_header(3, 17);
        assert_eq!(h.len(), HEADER_LEN);
        assert_eq!(decode_header(&h), Ok((3, 17)));
        assert_eq!(decode_header(&h[..HEADER_LEN - 1]), Err(HeaderError::Truncated));
        let mut bad = h.clone();
        bad[0] = b'X';
        assert_eq!(decode_header(&bad), Err(HeaderError::BadMagic));
        let mut future = h;
        future[4] = 9;
        assert_eq!(decode_header(&future), Err(HeaderError::UnsupportedVersion(9)));
    }

    #[test]
    fn record_round_trips() {
        let r = record(42, 7, b"hello envelope");
        let mut buf = encode_header(0, 0);
        encode_record(&mut buf, &r);
        let (decoded, next) = decode_record(&buf, HEADER_LEN).expect("committed record decodes");
        assert_eq!(decoded, r);
        assert_eq!(next, buf.len());
        assert_eq!(r.encoded_len(), buf.len() - HEADER_LEN);
    }

    #[test]
    fn any_truncation_of_the_record_is_torn() {
        let r = record(1, 2, b"payload bytes here");
        let mut buf = encode_header(0, 0);
        encode_record(&mut buf, &r);
        for cut in HEADER_LEN..buf.len() {
            assert!(
                decode_record(&buf[..cut], HEADER_LEN).is_none(),
                "{} of {} bytes must not decode",
                cut,
                buf.len()
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let r = record(1, 2, b"payload");
        let mut clean = encode_header(0, 0);
        encode_record(&mut clean, &r);
        // Flip one bit at every position after the record magic: either
        // the CRC catches it or (for the commit byte) the marker check.
        for pos in HEADER_LEN + 4..clean.len() {
            let mut dirty = clean.clone();
            dirty[pos] ^= 0x10;
            assert!(
                decode_record(&dirty, HEADER_LEN).is_none(),
                "bit flip at {pos} must not decode as committed"
            );
        }
    }

    #[test]
    fn scan_yields_the_committed_prefix() {
        let mut buf = encode_header(1, 5);
        for v in 1..=3u64 {
            encode_record(&mut buf, &record(9, v, &vec![v as u8; 10 * v as usize]));
        }
        let (records, end, kind) = scan_segment(&buf);
        assert_eq!(kind, ScanEnd::Clean);
        assert_eq!(end, buf.len());
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].0, HEADER_LEN as u64);
        assert_eq!(records.iter().map(|(_, r)| r.version).collect::<Vec<_>>(), vec![1, 2, 3]);

        // Tear the last record: the first two survive, the scan reports
        // the exact truncation point.
        let torn = &buf[..buf.len() - 3];
        let (records, end, kind) = scan_segment(torn);
        assert_eq!(kind, ScanEnd::Torn);
        assert_eq!(records.len(), 2);
        let committed = (records[1].0 as usize) + records[1].1.encoded_len();
        assert_eq!(end, committed);
    }
}
