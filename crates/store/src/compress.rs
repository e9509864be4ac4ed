//! Self-contained LZSS compression for envelope payloads.
//!
//! The build environment vendors no compression crate, so the store
//! carries its own small dictionary coder. Envelope payloads are mostly
//! little-endian `f32` weights — high-entropy mantissas — so the win
//! comes from structure, not statistics: repeated byte patterns (zero
//! bias runs, frozen layers shared between versions of the same record,
//! header scaffolding) become back-references. Incompressible input
//! costs one flag bit per literal byte (~12.5% overhead), which is why
//! [`crate::EnvelopeStore`] stores a record compressed only when the
//! encoding actually came out smaller.
//!
//! Format: groups of eight items, each group led by a flag byte whose
//! bit *i* (LSB first) describes item *i*: `0` = one literal byte, `1` =
//! a match — two bytes holding a 12-bit backward distance (1-based, up
//! to [`WINDOW`]) and a 4-bit length encoding `MIN_MATCH..=MAX_MATCH`.
//! Matches may overlap their own output (the classic RLE
//! trick: distance 1, length 18 repeats one byte).
//!
//! The coder is greedy with a bounded hash chain, so compression is
//! deterministic — the same input always yields the same output, which
//! keeps store fingerprints and byte-level tests stable.

/// Sliding-window size (12-bit distances).
pub const WINDOW: usize = 4096;
/// Shortest encodable match: below this a literal is cheaper.
const MIN_MATCH: usize = 3;
/// Longest encodable match (4-bit length field).
const MAX_MATCH: usize = MIN_MATCH + 15;
/// Hash-chain candidates examined per position; bounds worst-case work.
const MAX_CHAIN: usize = 32;

/// Compresses `input`. The output is self-delimiting only together with
/// the original length, which the caller stores alongside (the record's
/// `raw_len` field).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Head of the hash chain per 3-byte-prefix bucket, then per-position
    // previous links; `usize::MAX` terminates a chain.
    const BUCKETS: usize = 1 << 13;
    let mut head = vec![usize::MAX; BUCKETS];
    let mut prev = vec![usize::MAX; input.len()];

    let hash = |i: usize| -> usize {
        let h = (input[i] as u32)
            .wrapping_mul(0x9E37)
            .wrapping_add((input[i + 1] as u32).wrapping_mul(0x79B9))
            .wrapping_add(input[i + 2] as u32);
        (h as usize) & (BUCKETS - 1)
    };

    let mut i = 0;
    let mut flags_at = usize::MAX;
    let mut flag_bit = 8;
    while i < input.len() {
        if flag_bit == 8 {
            flags_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        // Longest match at i within the window, newest candidates first.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= input.len() {
            let mut candidate = head[hash(i)];
            let mut steps = 0;
            while candidate != usize::MAX && steps < MAX_CHAIN {
                let dist = i - candidate;
                if dist > WINDOW {
                    break; // chain only gets older from here
                }
                let limit = (input.len() - i).min(MAX_MATCH);
                let mut len = 0;
                while len < limit && input[candidate + len] == input[i + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = dist;
                    if len == limit {
                        break;
                    }
                }
                candidate = prev[candidate];
                steps += 1;
            }
        }
        if best_len >= MIN_MATCH {
            out[flags_at] |= 1 << flag_bit;
            let token = (((best_dist - 1) as u16) << 4) | ((best_len - MIN_MATCH) as u16);
            out.extend_from_slice(&token.to_le_bytes());
            // Index every covered position so later matches can start
            // inside this one.
            let end = (i + best_len).min(input.len().saturating_sub(MIN_MATCH - 1));
            // `p` drives hash(p) *and* the chain writes; an enumerate
            // rewrite would obscure that the index is the datum here.
            #[allow(clippy::needless_range_loop)]
            for p in i..end {
                let h = hash(p);
                prev[p] = head[h];
                head[h] = p;
            }
            i += best_len;
        } else {
            out.push(input[i]);
            if i + MIN_MATCH <= input.len() {
                let h = hash(i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Errors inflating a compressed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecompressError {
    /// The stream ended inside a token.
    Truncated,
    /// A match reached before the start of the output.
    BadDistance,
    /// The stream decoded to a different length than promised.
    LengthMismatch { expected: usize, got: usize },
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream ended inside a token"),
            DecompressError::BadDistance => write!(f, "match distance reaches before output start"),
            DecompressError::LengthMismatch { expected, got } => {
                write!(f, "decompressed to {got} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Inflates a [`compress`]ed stream back to exactly `raw_len` bytes.
pub fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(raw_len);
    let mut i = 0;
    while out.len() < raw_len {
        if i >= input.len() {
            return Err(DecompressError::Truncated);
        }
        let flags = input[i];
        i += 1;
        for bit in 0..8 {
            if out.len() == raw_len {
                break;
            }
            if i >= input.len() {
                return Err(DecompressError::Truncated);
            }
            if flags & (1 << bit) == 0 {
                out.push(input[i]);
                i += 1;
            } else {
                if i + 2 > input.len() {
                    return Err(DecompressError::Truncated);
                }
                let token = u16::from_le_bytes([input[i], input[i + 1]]);
                i += 2;
                let dist = (token >> 4) as usize + 1;
                let len = (token & 0xF) as usize + MIN_MATCH;
                if dist > out.len() {
                    return Err(DecompressError::BadDistance);
                }
                // Byte-at-a-time so overlapping matches self-extend.
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    // A valid stream lands exactly on `raw_len` with nothing left over;
    // overshooting matches and trailing bytes both mean corruption.
    if out.len() != raw_len || i != input.len() {
        return Err(DecompressError::LengthMismatch { expected: raw_len, got: out.len() });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(input: &[u8]) -> usize {
        let packed = compress(input);
        let unpacked = decompress(&packed, input.len()).expect("round trip");
        assert_eq!(unpacked, input, "round trip must be lossless");
        packed.len()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), 0);
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn runs_collapse() {
        let zeros = vec![0u8; 10_000];
        let packed_len = round_trip(&zeros);
        assert!(packed_len < 1_500, "10kB of zeros should collapse, got {packed_len}");
    }

    #[test]
    fn repeated_structure_compresses() {
        let mut input = Vec::new();
        for i in 0..200u32 {
            input.extend_from_slice(b"segment-header-");
            input.extend_from_slice(&(i % 7).to_le_bytes());
        }
        let packed_len = round_trip(&input);
        assert!(packed_len < input.len() / 2, "periodic input halves at least: {packed_len}");
    }

    #[test]
    fn incompressible_input_survives() {
        // A cheap deterministic byte scrambler (splitmix-ish).
        let mut x = 0x9E3779B97F4A7C15u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x >> 30;
                x = x.wrapping_mul(0xBF58476D1CE4E5B9);
                (x >> 56) as u8
            })
            .collect();
        let packed_len = round_trip(&noise);
        assert!(packed_len <= noise.len() + noise.len() / 8 + 8, "bounded expansion");
    }

    #[test]
    fn determinism() {
        let input: Vec<u8> = (0..2048u32).flat_map(|i| (i % 97).to_le_bytes()).collect();
        assert_eq!(compress(&input), compress(&input));
    }

    #[test]
    fn malformed_streams_error() {
        let packed = compress(b"hello hello hello hello");
        assert!(decompress(&packed[..packed.len() - 1], 23).is_err());
        assert!(matches!(decompress(&[], 5), Err(DecompressError::Truncated)));
        // A token pointing before the start of output.
        let bogus = [0b0000_0001, 0xFF, 0xFF];
        assert!(matches!(decompress(&bogus, 18), Err(DecompressError::BadDistance)));
    }
}
