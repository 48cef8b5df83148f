//! CRC-32 (IEEE 802.3 / zlib polynomial, reflected), table-driven,
//! sixteen bytes per step (slicing: Kounavis & Berry, Intel 2005).
//! Guards every frame payload against in-flight corruption.

/// The reflected polynomial 0xEDB88320.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded into the checksum per step.
const SLICE: usize = 16;

/// `TABLES[k][b]` is the checksum contribution of byte `b` followed by
/// `k` zero bytes; `TABLES[0]` is the classic byte-at-a-time table.
/// Const-evaluated at compile time.
const TABLES: [[u32; 256]; SLICE] = build_tables();

const fn build_tables() -> [[u32; 256]; SLICE] {
    let mut tables = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// One byte into the running (pre-inverted) checksum.
fn step_byte(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut slices = data.chunks_exact(SLICE);
    for slice in &mut slices {
        let slice: &[u8; SLICE] = slice.try_into().expect("exact chunk");
        // The running checksum only touches the first four bytes; after
        // that all sixteen lookups are independent of one another.
        let head = u32::from_le_bytes([slice[0], slice[1], slice[2], slice[3]]) ^ crc;
        let mut folded = 0u32;
        for (i, &byte) in head.to_le_bytes().iter().chain(&slice[4..]).enumerate() {
            folded ^= TABLES[SLICE - 1 - i][byte as usize];
        }
        crc = folded;
    }
    for &byte in slices.remainder() {
        crc = step_byte(crc, byte);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time loop the sliced path must match bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(0xFFFF_FFFF, |crc, &b| step_byte(crc, b))
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_offset() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let buffer: Vec<u8> = (0..20_537 + 8)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 56) as u8
            })
            .collect();
        for start in 0..=8 {
            for len in 0..=64 {
                let data = &buffer[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start={start} len={len}");
            }
            // One report frame's worth (5 x 1 024 cells, enveloped).
            let frame = &buffer[start..start + 20_537];
            assert_eq!(crc32(frame), crc32_bytewise(frame), "start={start}");
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let data = b"eyewnder report payload".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at {byte}:{bit}");
            }
        }
    }
}
