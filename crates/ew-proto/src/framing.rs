//! Length-prefixed framing with magic-based resynchronization and a
//! CRC-32 trailer.

use crate::crc32::crc32;

/// Frame magic: guards against picking up mid-stream garbage as a length.
pub const MAGIC: u16 = 0xE71D;

/// Maximum payload accepted (matches the codec's field limit).
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// Frame header size: magic (2) + length (4).
const HEADER_LEN: usize = 6;
/// Trailer size: crc32.
const TRAILER_LEN: usize = 4;

/// Errors surfaced by the decoder. `BadChecksum`/`Oversize` consume the
/// offending frame and the stream resynchronizes at the next magic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// CRC mismatch — payload corrupted in flight.
    BadChecksum,
    /// Declared length exceeded [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::Oversize(n) => write!(f, "frame payload {n} exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one payload into a self-delimiting frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    frame_with(payload.len(), |frame| frame.extend_from_slice(payload))
}

/// Builds a frame in one buffer: `write_payload` appends the payload
/// straight after the header (room for `payload_hint` bytes is reserved
/// up front), then the length is filled in and the trailer checksums the
/// payload where it lies.
pub(crate) fn frame_with(payload_hint: usize, write_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload_hint + TRAILER_LEN);
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.extend_from_slice(&[0; 4]);
    write_payload(&mut frame);
    let len = frame.len() - HEADER_LEN;
    assert!(len <= MAX_FRAME_PAYLOAD, "payload too large");
    frame[2..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    let checksum = crc32(&frame[HEADER_LEN..]);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame
}

/// Incremental frame decoder over a byte stream.
///
/// Feed arbitrary chunks with [`Self::extend`]; pull complete frames
/// with [`Self::next_frame`]. On corruption the decoder skips forward to
/// the next plausible magic, so one bad frame cannot wedge the stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Attempts to extract the next frame.
    ///
    /// * `Ok(Some(payload))` — a complete, checksummed frame.
    /// * `Ok(None)` — need more bytes.
    /// * `Err(e)` — a corrupted frame was consumed; calling again
    ///   continues after resynchronization.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        self.next_frame_with(<[u8]>::to_vec)
    }

    /// [`Self::next_frame`], handing the payload to `read` where it lies
    /// in the decoder's buffer — checksummed first — instead of copying
    /// it out.
    pub(crate) fn next_frame_with<T>(
        &mut self,
        read: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>, FrameError> {
        // Hunt for the magic.
        match find_magic(&self.buf) {
            None => {
                // Keep at most one dangling byte (could be half a magic).
                let keep = self.buf.len().min(1);
                self.buf.drain(..self.buf.len() - keep);
                return Ok(None);
            }
            Some(pos) if pos > 0 => {
                self.buf.drain(..pos);
            }
            Some(_) => {}
        }

        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[2..6].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_PAYLOAD {
            // Drop the bogus magic and resync.
            self.buf.drain(..2);
            return Err(FrameError::Oversize(len));
        }
        let total = HEADER_LEN + len + TRAILER_LEN;
        if self.buf.len() < total {
            return Ok(None);
        }
        let (payload, trailer) = self.buf[HEADER_LEN..total].split_at(len);
        let declared = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
        let frame = if crc32(payload) == declared {
            Ok(Some(read(payload)))
        } else {
            Err(FrameError::BadChecksum)
        };
        self.buf.drain(..total);
        frame
    }
}

fn find_magic(buf: &[u8]) -> Option<usize> {
    let magic = MAGIC.to_le_bytes();
    buf.windows(2).position(|w| w == magic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Envelope, Message, NodeId};

    #[test]
    fn single_frame_roundtrip() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(b"hello"));
        assert_eq!(dec.next_frame().unwrap(), Some(b"hello".to_vec()));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn empty_payload_frame() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(b""));
        assert_eq!(dec.next_frame().unwrap(), Some(Vec::new()));
    }

    #[test]
    fn fragmented_delivery() {
        let frame = encode_frame(b"fragmented payload");
        let mut dec = FrameDecoder::new();
        for chunk in frame.chunks(3) {
            dec.extend(chunk);
        }
        assert_eq!(
            dec.next_frame().unwrap(),
            Some(b"fragmented payload".to_vec())
        );
    }

    #[test]
    fn coalesced_frames() {
        let mut stream = encode_frame(b"one");
        stream.extend_from_slice(&encode_frame(b"two"));
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap(), Some(b"one".to_vec()));
        assert_eq!(dec.next_frame().unwrap(), Some(b"two".to_vec()));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn corruption_detected_and_stream_recovers() {
        let mut bad = encode_frame(b"corrupt me");
        bad[8] ^= 0xFF; // flip a payload byte
        let good = encode_frame(b"still fine");
        let mut dec = FrameDecoder::new();
        dec.extend(&bad);
        dec.extend(&good);
        assert_eq!(dec.next_frame(), Err(FrameError::BadChecksum));
        assert_eq!(dec.next_frame().unwrap(), Some(b"still fine".to_vec()));
    }

    #[test]
    fn leading_garbage_skipped() {
        let mut stream = vec![0x00u8, 0x11, 0x22, 0x33];
        stream.extend_from_slice(&encode_frame(b"payload"));
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap(), Some(b"payload".to_vec()));
    }

    #[test]
    fn oversize_length_resyncs() {
        // Hand-craft a frame header with an absurd length.
        let mut stream = MAGIC.to_le_bytes().to_vec();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.extend_from_slice(&encode_frame(b"after"));
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversize(_))));
        assert_eq!(dec.next_frame().unwrap(), Some(b"after".to_vec()));
    }

    /// A framed `Report` envelope of `depth × width` cells.
    fn report_frame(depth: u32, width: u32) -> Vec<u8> {
        let cells = (0..depth * width)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
        let msg = Message::Report {
            user: 7,
            round: 3,
            depth,
            width,
            seed: 0x5EED,
            cells,
        };
        encode_frame(&Envelope::new(NodeId::Client(7), 3, msg).encode())
    }

    /// Everything the decoder makes of `stream` until it asks for more
    /// bytes.
    fn decode_all(stream: &[u8]) -> Vec<Result<Vec<u8>, FrameError>> {
        let mut dec = FrameDecoder::new();
        dec.extend(stream);
        std::iter::from_fn(|| dec.next_frame().transpose()).collect()
    }

    /// Flips bit `bit` of `frame` and checks the decoder hands out no
    /// payload: a flip past the header is exactly one `BadChecksum`; a
    /// flip in the magic or length field misframes the stream, which
    /// must still never yield a payload.
    fn assert_flip_rejected(frame: &[u8], bit: usize) {
        let mut damaged = frame.to_vec();
        damaged[bit / 8] ^= 1 << (bit % 8);
        let out = decode_all(&damaged);
        assert!(
            out.iter().all(Result::is_err),
            "bit {bit}: a damaged frame was handed out"
        );
        if bit / 8 >= HEADER_LEN {
            assert_eq!(out, [Err(FrameError::BadChecksum)], "bit {bit}");
        }
    }

    #[test]
    fn damaged_report_frames_never_decode() {
        // Every single-bit flip of a ≈ 1 KiB report frame.
        let small = report_frame(2, 120);
        assert_eq!(decode_all(&small).len(), 1);
        for bit in 0..small.len() * 8 {
            assert_flip_rejected(&small, bit);
        }
        // One flip per byte position of a 5 × 1 024-cell report frame (a
        // sample of positions in the unoptimised debug profile).
        let report = report_frame(5, 1_024);
        assert_eq!(report.len(), 20_537);
        let stride = if cfg!(debug_assertions) { 13 } else { 1 };
        for byte in (0..report.len()).step_by(stride) {
            assert_flip_rejected(&report, byte * 8 + byte % 8);
        }
    }

    #[test]
    fn truncated_report_frames_wait_for_more_bytes() {
        for frame in [report_frame(2, 120), report_frame(5, 1_024)] {
            for cut in 0..frame.len() {
                let mut dec = FrameDecoder::new();
                dec.extend(&frame[..cut]);
                assert_eq!(dec.next_frame(), Ok(None), "cut at {cut}");
            }
        }
    }

    #[test]
    fn random_noise_never_panics() {
        let mut dec = FrameDecoder::new();
        let mut x = 0x12345u64;
        for _ in 0..200 {
            let chunk: Vec<u8> = (0..17)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) as u8
                })
                .collect();
            dec.extend(&chunk);
            // Drain whatever it makes of the noise.
            for _ in 0..4 {
                let _ = dec.next_frame();
            }
        }
    }
}
