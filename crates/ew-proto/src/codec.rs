//! Explicit little-endian encode/decode helpers over `bytes`.
//!
//! Every multi-byte integer is little-endian; every variable-length
//! field is prefixed with a `u32` length. Maximum lengths are enforced
//! on decode so a corrupted or hostile length prefix cannot trigger an
//! huge allocation.

use bytes::{Buf, BufMut};
use std::collections::BTreeSet;

/// Maximum variable-length field size accepted on decode (16 MiB —
/// comfortably above the largest CMS report, far below anything silly).
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of bytes mid-field.
    UnexpectedEof,
    /// Unknown message tag.
    BadTag(u8),
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    FieldTooLarge(usize),
    /// An envelope carried an unsupported version byte.
    BadVersion(u8),
    /// A string field was not valid UTF-8.
    BadString,
    /// A set's id list was not strictly ascending (unsorted or
    /// duplicated ids): a set has one canonical encoding.
    NotAscending,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of payload"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            CodecError::FieldTooLarge(n) => write!(f, "field length {n} exceeds limit"),
            CodecError::BadVersion(v) => write!(f, "unsupported envelope version {v}"),
            CodecError::BadString => write!(f, "string field is not valid UTF-8"),
            CodecError::NotAscending => write!(f, "set is not strictly ascending"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Checks `buf` has at least `n` remaining bytes.
fn need(buf: &impl Buf, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::UnexpectedEof)
    } else {
        Ok(())
    }
}

/// Reads a `u8`.
pub fn get_u8(buf: &mut impl Buf) -> Result<u8, CodecError> {
    need(buf, 1)?;
    Ok(buf.get_u8())
}

/// Reads a little-endian `u32`.
pub fn get_u32(buf: &mut impl Buf) -> Result<u32, CodecError> {
    need(buf, 4)?;
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`.
pub fn get_u64(buf: &mut impl Buf) -> Result<u64, CodecError> {
    need(buf, 8)?;
    Ok(buf.get_u64_le())
}

/// Reads an `f64` (LE bit pattern).
pub fn get_f64(buf: &mut impl Buf) -> Result<f64, CodecError> {
    Ok(f64::from_bits(get_u64(buf)?))
}

/// Reads a length-prefixed byte vector.
pub fn get_bytes(buf: &mut impl Buf) -> Result<Vec<u8>, CodecError> {
    let len = get_u32(buf)? as usize;
    if len > MAX_FIELD_LEN {
        return Err(CodecError::FieldTooLarge(len));
    }
    need(buf, len)?;
    let mut out = vec![0u8; len];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

/// Reads a length-prefixed `u32` vector.
pub fn get_u32_vec(buf: &mut impl Buf) -> Result<Vec<u32>, CodecError> {
    let len = get_u32(buf)? as usize;
    if len.saturating_mul(4) > MAX_FIELD_LEN {
        return Err(CodecError::FieldTooLarge(len));
    }
    need(buf, len * 4)?;
    let out = buf.chunk()[..len * 4]
        .chunks_exact(4)
        .map(|cell| u32::from_le_bytes(cell.try_into().expect("4 bytes")))
        .collect();
    buf.advance(len * 4);
    Ok(out)
}

/// Reads a set written by [`put_u32_set`]: a length-prefixed `u32`
/// list that must be strictly ascending, so every set decodes from
/// exactly one encoding.
pub fn get_u32_set(buf: &mut impl Buf) -> Result<BTreeSet<u32>, CodecError> {
    let len = get_u32(buf)? as usize;
    if len.saturating_mul(4) > MAX_FIELD_LEN {
        return Err(CodecError::FieldTooLarge(len));
    }
    need(buf, len * 4)?;
    // Each id goes straight into the set, checked against the one
    // before it, so a decode allocates only the set's own nodes.
    let mut set = BTreeSet::new();
    for _ in 0..len {
        let id = buf.get_u32_le();
        if set.last().is_some_and(|&prev| prev >= id) {
            return Err(CodecError::NotAscending);
        }
        set.insert(id);
    }
    Ok(set)
}

/// Reads a count-prefixed list of length-prefixed byte strings (the
/// batch-OPRF element lists).
pub fn get_bytes_list(buf: &mut impl Buf) -> Result<Vec<Vec<u8>>, CodecError> {
    let count = get_u32(buf)? as usize;
    // Every element carries at least its own 4-byte length prefix, so a
    // count the bytes cannot hold is rejected before anything is read.
    if count.saturating_mul(4) > MAX_FIELD_LEN {
        return Err(CodecError::FieldTooLarge(count));
    }
    need(buf, count * 4)?;
    // No room is reserved for elements not yet read: a count that fits
    // the bytes can still overstate them, and each element costs 24
    // bytes of vector header for its 4 bytes of prefix.
    let mut out = Vec::new();
    for _ in 0..count {
        out.push(get_bytes(buf)?);
    }
    Ok(out)
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_string(buf: &mut impl Buf) -> Result<String, CodecError> {
    String::from_utf8(get_bytes(buf)?).map_err(|_| CodecError::BadString)
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut impl BufMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Writes a count-prefixed list of length-prefixed byte strings.
pub fn put_bytes_list(buf: &mut impl BufMut, items: &[Vec<u8>]) {
    buf.put_u32_le(items.len() as u32);
    for item in items {
        put_bytes(buf, item);
    }
}

/// Writes a length-prefixed byte slice.
pub fn put_bytes(buf: &mut impl BufMut, data: &[u8]) {
    debug_assert!(data.len() <= MAX_FIELD_LEN);
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

/// Writes a set as a length-prefixed `u32` list, ascending.
pub fn put_u32_set(buf: &mut impl BufMut, set: &BTreeSet<u32>) {
    buf.put_u32_le(set.len() as u32);
    for &id in set {
        buf.put_u32_le(id);
    }
}

/// Writes a length-prefixed `u32` slice.
pub fn put_u32_vec(buf: &mut impl BufMut, data: &[u32]) {
    debug_assert!(data.len() * 4 <= MAX_FIELD_LEN);
    buf.put_u32_le(data.len() as u32);
    // A block of cells at a time through the stack, so the buffer grows
    // by slices instead of by one bounds-checked word per cell.
    let mut bytes = [0u8; 4 * 256];
    for block in data.chunks(256) {
        let bytes = &mut bytes[..4 * block.len()];
        for (dst, &v) in bytes.chunks_exact_mut(4).zip(block) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(0x0123_4567_89ab_cdef);
        buf.put_u64_le(1.5f64.to_bits());
        let mut r = &buf[..];
        assert_eq!(get_u8(&mut r).unwrap(), 7);
        assert_eq!(get_u32(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(get_u64(&mut r).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(get_f64(&mut r).unwrap(), 1.5);
    }

    #[test]
    fn roundtrip_vectors() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_u32_vec(&mut buf, &[1, 2, 3]);
        let mut r = &buf[..];
        assert_eq!(get_bytes(&mut r).unwrap(), b"hello");
        assert_eq!(get_u32_vec(&mut r).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn sets_roundtrip_and_only_ascending_lists_decode() {
        let set = BTreeSet::from([9, 1, 5]);
        let mut buf = Vec::new();
        put_u32_set(&mut buf, &set);
        let mut r = &buf[..];
        assert_eq!(get_u32_set(&mut r), Ok(set));
        for ids in [[5, 1, 9], [1, 5, 5]] {
            let mut buf = Vec::new();
            put_u32_vec(&mut buf, &ids);
            let mut r = &buf[..];
            assert_eq!(get_u32_set(&mut r), Err(CodecError::NotAscending));
        }
    }

    #[test]
    fn eof_detected() {
        let buf = [1u8, 2];
        let mut r = &buf[..];
        assert_eq!(get_u64(&mut r), Err(CodecError::UnexpectedEof));
    }

    #[test]
    fn hostile_length_rejected() {
        let mut buf = Vec::new();
        buf.put_u32_le(u32::MAX); // absurd length prefix
        let mut r = &buf[..];
        assert!(matches!(
            get_bytes(&mut r),
            Err(CodecError::FieldTooLarge(_))
        ));
        let mut r2 = &buf[..];
        assert!(matches!(
            get_u32_vec(&mut r2),
            Err(CodecError::FieldTooLarge(_))
        ));
    }

    #[test]
    fn truncated_vector_detected() {
        let mut buf = Vec::new();
        buf.put_u32_le(10); // claims 10 u32s
        buf.put_u32_le(1); // only provides one
        let mut r = &buf[..];
        assert_eq!(get_u32_vec(&mut r), Err(CodecError::UnexpectedEof));
    }
}
