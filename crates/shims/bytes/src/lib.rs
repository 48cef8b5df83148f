#![forbid(unsafe_code)]
//! Offline stand-in for the subset of the `bytes` crate API this
//! workspace uses: the [`Buf`] / [`BufMut`] traits implemented for
//! `&[u8]` and `Vec<u8>`. The wire codec in `ew-proto` only reads and
//! writes little-endian integers and raw slices, so that is all this
//! shim provides.

/// Sequential reader over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Reads one byte.
    ///
    /// # Panics
    /// Panics if the buffer is exhausted (callers check [`Buf::remaining`]).
    fn get_u8(&mut self) -> u8;
    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Copies `dst.len()` bytes out, advancing.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// The unread bytes, without advancing (every buffer here is one
    /// contiguous slice, so this is all of them).
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes.
    ///
    /// # Panics
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);
    /// True while bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (head, rest) = self.split_at(1);
        *self = rest;
        head[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        *self = rest;
        u16::from_le_bytes(head.try_into().expect("2 bytes"))
    }

    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().expect("4 bytes"))
    }

    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().expect("8 bytes"))
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Sequential writer onto a growable byte buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a raw slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u8(0x01);
        buf.put_u16_le(0x0203);
        buf.put_u32_le(0x0405_0607);
        buf.put_u64_le(0x0809_0a0b_0c0d_0e0f);
        buf.put_slice(b"tail");

        let mut r = &buf[..];
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 4);
        assert_eq!(r.get_u8(), 0x01);
        assert_eq!(r.get_u16_le(), 0x0203);
        assert_eq!(r.get_u32_le(), 0x0405_0607);
        assert_eq!(r.get_u64_le(), 0x0809_0a0b_0c0d_0e0f);
        let mut tail = [0u8; 4];
        r.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"tail");
        assert!(!r.has_remaining());
    }

    #[test]
    fn chunk_peeks_and_advance_skips() {
        let mut r: &[u8] = &[1, 2, 3, 4, 5];
        assert_eq!(r.chunk(), &[1, 2, 3, 4, 5]);
        r.advance(3);
        assert_eq!(r.chunk(), &[4, 5]);
        assert_eq!(r.get_u8(), 4);
    }

    #[test]
    #[should_panic]
    fn reading_past_end_panics() {
        let mut r: &[u8] = &[1, 2];
        r.get_u32_le();
    }
}
