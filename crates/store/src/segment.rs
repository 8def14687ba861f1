//! On-disk framing for the append-only segment file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header  := MAGIC (8 bytes) | fingerprint u64
//! record  := key u64 | text_len u32 | value_len u32 | text | value | checksum u64
//! segment := header record*
//! ```
//!
//! The checksum is FNV-1a 64 over everything in the frame before it
//! (key, lengths, text, value), so any bit flip or truncation inside a
//! record is detected. Length fields are sanity-capped before any
//! allocation happens, so a corrupt length can never ask for gigabytes.

/// Segment file magic: identifies the format and its version. Bump the
/// trailing digit on any incompatible layout change — an old file then
/// reads as malformed and the store resets, same as a fingerprint miss.
pub const MAGIC: [u8; 8] = *b"PVCSTOR1";

/// Bytes before the first record: magic + fingerprint.
pub const HEADER_LEN: usize = 16;

/// Fixed bytes of a record frame around the variable text/value.
pub(crate) const FRAME_OVERHEAD: usize = 8 + 4 + 4 + 8;

/// Offset of the text inside a frame: after the key and both lengths.
pub(crate) const FRAME_TEXT_AT: usize = 8 + 4 + 4;

/// Caps applied to length fields before allocating. Canonical requests
/// are small; responses are rendered tables/figures/JSON, comfortably
/// under these.
const MAX_TEXT_LEN: u32 = 1 << 20; // 1 MiB
const MAX_VALUE_LEN: u32 = 1 << 28; // 256 MiB

/// FNV-1a, 64-bit: the frame checksum and the content hash convention
/// shared with `pvc-serve` request addressing. Deterministic,
/// allocation-free and endianness-independent.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Why a frame failed to decode. Every variant means "stop scanning
/// here and truncate to the last good frame" — after an append-only
/// write tore, nothing past the tear is trustworthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than the fixed frame overhead.
    TruncatedHeader,
    /// A length field exceeds its sanity cap.
    LengthOverflow,
    /// The declared payload extends past the end of the file.
    TruncatedPayload,
    /// The checksum over the frame does not match the stored one.
    ChecksumMismatch,
    /// The text payload is not valid UTF-8.
    BadText,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TruncatedHeader => write!(f, "truncated frame header"),
            FrameError::LengthOverflow => write!(f, "frame length exceeds sanity cap"),
            FrameError::TruncatedPayload => write!(f, "frame payload truncated"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::BadText => write!(f, "frame text is not UTF-8"),
        }
    }
}

/// A decoded record borrowed from the segment bytes.
pub(crate) struct Frame<'a> {
    pub key: u64,
    pub text: &'a str,
    pub value: &'a [u8],
    /// Total encoded length of this frame in the segment.
    pub len: usize,
}

/// Encodes the segment header for `fingerprint`.
pub(crate) fn encode_header(fingerprint: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..8].copy_from_slice(&MAGIC);
    h[8..].copy_from_slice(&fingerprint.to_le_bytes());
    h
}

/// Decodes a segment header, returning its fingerprint. `None` means
/// the bytes are not a store of this format version.
pub(crate) fn decode_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return None;
    }
    let mut fp = [0u8; 8];
    fp.copy_from_slice(&bytes[8..HEADER_LEN]);
    Some(u64::from_le_bytes(fp))
}

/// Encodes one record frame.
pub(crate) fn encode_frame(key: u64, text: &str, value: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + text.len() + value.len());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(&(value.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(value);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes the frame starting at `bytes[0]`.
pub(crate) fn decode_frame(bytes: &[u8]) -> Result<Frame<'_>, FrameError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(FrameError::TruncatedHeader);
    }
    let mut u64buf = [0u8; 8];
    let mut u32buf = [0u8; 4];
    u64buf.copy_from_slice(&bytes[0..8]);
    let key = u64::from_le_bytes(u64buf);
    u32buf.copy_from_slice(&bytes[8..12]);
    let text_len = u32::from_le_bytes(u32buf);
    u32buf.copy_from_slice(&bytes[12..16]);
    let value_len = u32::from_le_bytes(u32buf);
    if text_len > MAX_TEXT_LEN || value_len > MAX_VALUE_LEN {
        return Err(FrameError::LengthOverflow);
    }
    let payload = text_len as usize + value_len as usize;
    let total = FRAME_OVERHEAD + payload;
    if bytes.len() < total {
        return Err(FrameError::TruncatedPayload);
    }
    let body = &bytes[..FRAME_TEXT_AT + payload];
    u64buf.copy_from_slice(&bytes[FRAME_TEXT_AT + payload..total]);
    let stored = u64::from_le_bytes(u64buf);
    if fnv1a64(body) != stored {
        return Err(FrameError::ChecksumMismatch);
    }
    let text_end = FRAME_TEXT_AT + text_len as usize;
    let text =
        std::str::from_utf8(&bytes[FRAME_TEXT_AT..text_end]).map_err(|_| FrameError::BadText)?;
    let value = &bytes[text_end..FRAME_TEXT_AT + payload];
    Ok(Frame { key, text, value, len: total })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frame_round_trips() {
        let enc = encode_frame(42, "req text", b"value bytes");
        let f = decode_frame(&enc).expect("decodes");
        assert_eq!(f.key, 42);
        assert_eq!(f.text, "req text");
        assert_eq!(f.value, b"value bytes");
        assert_eq!(f.len, enc.len());
    }

    #[test]
    fn empty_value_and_text_are_legal() {
        let enc = encode_frame(7, "", b"");
        let f = decode_frame(&enc).expect("decodes");
        assert_eq!(f.text, "");
        assert_eq!(f.value, b"");
        assert_eq!(f.len, FRAME_OVERHEAD);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let enc = encode_frame(9, "k", b"v");
        for byte in 0..enc.len() {
            for bit in 0..8u8 {
                let mut bad = enc.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_frame(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let enc = encode_frame(9, "key text", b"some value");
        for cut in 0..enc.len() {
            assert!(decode_frame(&enc[..cut]).is_err(), "cut at {cut} undetected");
        }
    }

    #[test]
    fn header_round_trips_and_rejects_foreign_bytes() {
        let h = encode_header(0xdead_beef_cafe_f00d);
        assert_eq!(decode_header(&h), Some(0xdead_beef_cafe_f00d));
        assert_eq!(decode_header(b"not a store head"), None);
        assert_eq!(decode_header(&h[..HEADER_LEN - 1]), None);
    }

    #[test]
    fn insane_lengths_fail_before_allocating() {
        let mut enc = encode_frame(1, "t", b"v");
        // Claim a 4 GiB value; must fail on the cap, not on allocation.
        enc[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&enc), Err(FrameError::LengthOverflow)));
    }
}
