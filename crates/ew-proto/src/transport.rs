//! In-process message transport: crossbeam channels carrying framed
//! bytes, optionally through a [`FaultyLink`].
//!
//! The paper's deployment runs the protocol over HTTPS; what matters for
//! the reproduction is that every message crosses a *byte-stream
//! boundary* — serialized, framed, checksummed, possibly corrupted — so
//! the parties exercise the same encode/decode/fault paths a socket
//! would impose. Endpoints are cheap and the channel is unbounded, so a
//! simulated cohort of hundreds of clients runs in one process.

use crate::envelope::Envelope;
use crate::fault::{FaultConfig, FaultyLink};
use crate::framing::{frame_with, FrameDecoder, FrameError};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

/// Errors on the receive path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint hung up.
    Disconnected,
    /// A frame arrived but was corrupt (already consumed; keep reading).
    CorruptFrame,
    /// A frame decoded but its payload wasn't a valid message.
    BadMessage,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::CorruptFrame => write!(f, "corrupt frame received"),
            TransportError::BadMessage => write!(f, "undecodable message payload"),
        }
    }
}

impl std::error::Error for TransportError {}

/// One side of a bidirectional message link.
#[derive(Debug)]
pub struct Endpoint {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    decoder: FrameDecoder,
    fault: Option<FaultyLink>,
}

/// Creates a connected endpoint pair, with optional fault injection on
/// the `left → right` direction (pass `None` for a perfect link; tests
/// that need bidirectional faults can layer two pairs).
pub fn channel_pair(fault_left_to_right: Option<FaultConfig>) -> (Endpoint, Endpoint) {
    let (tx_lr, rx_lr) = unbounded();
    let (tx_rl, rx_rl) = unbounded();
    let left = Endpoint {
        tx: tx_lr,
        rx: rx_rl,
        decoder: FrameDecoder::new(),
        fault: fault_left_to_right.map(FaultyLink::new),
    };
    let right = Endpoint {
        tx: tx_rl,
        rx: rx_lr,
        decoder: FrameDecoder::new(),
        fault: None,
    };
    (left, right)
}

impl Endpoint {
    /// Puts one finished frame on the link.
    fn transmit(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        match &mut self.fault {
            Some(link) => {
                for f in link.transmit(frame) {
                    if self.tx.send(f).is_err() {
                        return Err(TransportError::Disconnected);
                    }
                }
                Ok(())
            }
            None => self
                .tx
                .send(frame)
                .map_err(|_| TransportError::Disconnected),
        }
    }

    /// Sends one [`Envelope`] (the node-service interaction unit):
    /// header, envelope bytes and checksum trailer are written into the
    /// one frame buffer that goes on the link.
    ///
    /// `Err(TransportError::Disconnected)` means the peer endpoint is
    /// gone — the envelope cannot have arrived (a fault link may still
    /// drop it silently; that is the *link's* failure model, not the
    /// peer's). Call sites must not ignore the result: a silently
    /// dropped send makes fault diagnosis guesswork.
    pub fn send_envelope(&mut self, env: &Envelope) -> Result<(), TransportError> {
        self.transmit(frame_with(env.encoded_len_hint(), |frame| {
            env.encode_into(frame)
        }))
    }

    /// Flushes a frame the fault link held back for reordering (end of
    /// a send burst). Reordering swaps frames; it must not *lose* the
    /// tail frame of a burst — that would be a drop in disguise.
    pub fn flush(&mut self) -> Result<(), TransportError> {
        if let Some(link) = &mut self.fault {
            if let Some(frame) = link.flush() {
                return self
                    .tx
                    .send(frame)
                    .map_err(|_| TransportError::Disconnected);
            }
        }
        Ok(())
    }

    /// Non-blocking receive of the next complete [`Envelope`], decoded
    /// where it lies in the frame decoder's buffer.
    ///
    /// `Ok(None)` means no complete frame is available right now.
    pub fn try_recv_envelope(&mut self) -> Result<Option<Envelope>, TransportError> {
        let read =
            |payload: &[u8]| Envelope::decode(payload).map_err(|_| TransportError::BadMessage);
        loop {
            // First, drain whatever the decoder can already produce.
            match self.decoder.next_frame_with(read) {
                Ok(Some(decoded)) => return decoded.map(Some),
                Ok(None) => {}
                Err(FrameError::BadChecksum) | Err(FrameError::Oversize(_)) => {
                    return Err(TransportError::CorruptFrame);
                }
            }
            // Pull more bytes from the channel.
            match self.rx.try_recv() {
                Ok(bytes) => self.decoder.extend(&bytes),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => {
                    // Drain any remaining buffered frames first.
                    return match self.decoder.next_frame_with(read) {
                        Ok(Some(decoded)) => decoded.map(Some),
                        _ => Err(TransportError::Disconnected),
                    };
                }
            }
        }
    }

    /// The next raw frame off the link, undecoded.
    #[cfg(test)]
    pub(crate) fn recv_raw(&mut self) -> Option<Vec<u8>> {
        self.rx.try_recv().ok()
    }

    /// Receives every currently deliverable [`Envelope`], skipping
    /// corrupt frames and undecodable envelopes (counted, not returned).
    pub fn drain_envelopes(&mut self) -> (Vec<Envelope>, usize) {
        let mut envs = Vec::new();
        let mut corrupt = 0;
        loop {
            match self.try_recv_envelope() {
                Ok(Some(e)) => envs.push(e),
                Ok(None) => break,
                Err(TransportError::CorruptFrame) | Err(TransportError::BadMessage) => {
                    corrupt += 1;
                }
                Err(TransportError::Disconnected) => break,
            }
        }
        (envs, corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::NodeId;
    use crate::framing::encode_frame;
    use crate::message::Message;

    fn msg(ad: u64) -> Message {
        Message::UsersQuery { round: 1, ad }
    }

    fn env(ad: u64) -> Envelope {
        Envelope::new(NodeId::Client(1), 1, msg(ad))
    }

    #[test]
    fn roundtrip_over_perfect_link() {
        let (mut a, mut b) = channel_pair(None);
        a.send_envelope(&env(1)).unwrap();
        a.send_envelope(&env(2)).unwrap();
        assert_eq!(b.try_recv_envelope().unwrap(), Some(env(1)));
        assert_eq!(b.try_recv_envelope().unwrap(), Some(env(2)));
        assert_eq!(b.try_recv_envelope().unwrap(), None);
    }

    #[test]
    fn bidirectional() {
        let (mut a, mut b) = channel_pair(None);
        a.send_envelope(&env(10)).unwrap();
        b.send_envelope(&env(20)).unwrap();
        assert_eq!(b.try_recv_envelope().unwrap(), Some(env(10)));
        assert_eq!(a.try_recv_envelope().unwrap(), Some(env(20)));
    }

    #[test]
    fn envelopes_roundtrip_over_the_link() {
        let (mut a, mut b) = channel_pair(None);
        let envs = [
            Envelope::new(NodeId::Client(3), 1, msg(10)),
            Envelope::new(NodeId::Backend, 1, msg(11)),
        ];
        for e in &envs {
            a.send_envelope(e).unwrap();
        }
        let (got, corrupt) = b.drain_envelopes();
        assert_eq!(corrupt, 0);
        assert_eq!(got, envs);
    }

    #[test]
    fn message_frame_is_not_a_valid_envelope() {
        // A bare Message frame on an envelope link is flagged as a bad
        // payload, not misparsed: message tags (append-only from 0x01)
        // and envelope versions (0xE0..) are disjoint byte ranges, so
        // the version gate rejects every message tag structurally.
        let (mut a, mut b) = channel_pair(None);
        a.transmit(encode_frame(&msg(1).encode())).unwrap();
        let key = Message::PublishKey {
            user: 1,
            public_key: vec![1, 2, 3],
        };
        a.transmit(encode_frame(&key.encode())).unwrap();
        let (got, corrupt) = b.drain_envelopes();
        assert!(got.is_empty());
        assert_eq!(corrupt, 2);
    }

    #[test]
    fn corrupt_frames_flagged_not_fatal() {
        let cfg = FaultConfig {
            corrupt_prob: 1.0,
            seed: 5,
            ..Default::default()
        };
        let (mut a, mut b) = channel_pair(Some(cfg));
        for i in 0..20 {
            a.send_envelope(&env(i)).unwrap();
        }
        let (envs, corrupt) = b.drain_envelopes();
        // All frames were corrupted somewhere; most flips land in the
        // payload/CRC and are caught; flips in the header surface as
        // resync (also counted as loss here).
        assert!(corrupt > 0, "corruption must be observed");
        assert!(
            envs.len() < 20,
            "not everything can survive 100% corruption"
        );
    }

    #[test]
    fn lossy_link_delivers_subset_in_order() {
        let cfg = FaultConfig {
            drop_prob: 0.3,
            seed: 6,
            ..Default::default()
        };
        let (mut a, mut b) = channel_pair(Some(cfg));
        for i in 0..100 {
            a.send_envelope(&env(i)).unwrap();
        }
        let (envs, corrupt) = b.drain_envelopes();
        assert_eq!(corrupt, 0);
        assert!(envs.len() > 40 && envs.len() < 100);
        // Surviving subsequence preserves order.
        let ads: Vec<u64> = envs
            .iter()
            .map(|e| match e.msg {
                Message::UsersQuery { ad, .. } => ad,
                _ => unreachable!(),
            })
            .collect();
        assert!(ads.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn disconnect_detected() {
        let (mut a, b) = channel_pair(None);
        drop(b);
        assert_eq!(a.send_envelope(&env(1)), Err(TransportError::Disconnected));
        assert_eq!(a.try_recv_envelope(), Err(TransportError::Disconnected));
    }

    #[test]
    fn large_report_survives() {
        let (mut a, mut b) = channel_pair(None);
        let big = Message::Report {
            user: 1,
            round: 1,
            depth: 17,
            width: 2719,
            seed: 0,
            cells: vec![0xABCD_EF01; 17 * 2719],
        };
        let big = Envelope::new(NodeId::Client(1), 1, big);
        a.send_envelope(&big).unwrap();
        assert_eq!(b.try_recv_envelope().unwrap(), Some(big));
    }
}
