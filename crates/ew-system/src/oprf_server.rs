//! The oprf-server (§6): holds the RSA secret `d` and blind-evaluates
//! client requests. "The server is 'oblivious' to the input of the PRF
//! so that x remains private to the user."
//!
//! ## Concurrency
//!
//! Evaluation is read-only over the key, so every entry point takes
//! `&self` — [`OprfFrontend::on_envelope`] included. The service runs
//! on the one thread that drives the week, like every other role, so
//! its request accounting sits in [`Cell`]s: no lock, no atomics, and
//! the service is `Send` but not `Sync`. The request counter saturates
//! instead of wrapping back to small values near `u64::MAX` — a
//! saturated counter reads as "at least this many", never as a freshly
//! reset one.

use crate::node::OprfFrontend;
use crate::telemetry::Hist64;
use ew_bigint::UBig;
use ew_crypto::oprf::{OprfError, OprfServerKey};
use ew_crypto::rsa::RsaPublicKey;
use ew_proto::{error_code, Envelope, Message, NodeId};
use rand::RngCore;
use std::cell::Cell;

/// The most elements one [`Message::OprfBatchRequest`] may carry. Each
/// costs the service a conversion and an evaluation, ≈ 220 bytes at
/// RSA-128 even when the element is empty, so without a cap only the
/// frame's field limit bounds what one request makes it allocate. A
/// client's week of fresh ads is a few hundred at most in every world
/// the repository drives; a longer remainder goes in several batches.
pub(crate) const MAX_BATCH: usize = 1024;

/// The OPRF service, wrapping the key with request accounting.
#[derive(Debug, Clone)]
pub struct OprfService {
    key: OprfServerKey,
    requests_served: Cell<u64>,
    /// Batch service-time histogram (nanoseconds per batch call).
    batch_nanos: Cell<Hist64>,
}

impl OprfService {
    /// Generates a fresh service key (`bits`-bit RSA modulus).
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, bits: usize) -> Self {
        OprfService {
            key: OprfServerKey::generate(rng, bits),
            requests_served: Cell::new(0),
            batch_nanos: Cell::new(Hist64::new()),
        }
    }

    /// Public parameters clients need.
    pub fn public(&self) -> &RsaPublicKey {
        self.key.public()
    }

    /// Adds `n` served requests to the counter, saturating at
    /// `u64::MAX` instead of wrapping.
    fn record_served(&self, n: u64) {
        self.requests_served
            .set(self.requests_served.get().saturating_add(n));
    }

    /// Blind-evaluates a whole batch (direct-call path); every element
    /// counts towards the request total. All-or-nothing: an out-of-range
    /// element fails the batch before any work is done.
    pub fn evaluate_batch(&self, blinded: &[UBig]) -> Result<Vec<UBig>, OprfError> {
        let started = std::time::Instant::now();
        let out = self.key.evaluate_blinded_batch(blinded)?;
        self.record_batch_nanos(started.elapsed().as_nanos() as u64);
        self.record_served(blinded.len() as u64);
        Ok(out)
    }

    /// Records one batch's wall-clock service time.
    fn record_batch_nanos(&self, nanos: u64) {
        let mut hist = self.batch_nanos.get();
        hist.record(nanos);
        self.batch_nanos.set(hist);
    }

    /// Drains the batch service-time histogram (nanoseconds per
    /// successful batch evaluation), resetting it — the same drain
    /// discipline as the bus and backend `take_metrics`.
    pub fn take_batch_hist(&self) -> Hist64 {
        self.batch_nanos.take()
    }

    /// Handles a wire message. The service serves one request kind —
    /// the [`Message::OprfBatchRequest`] clients map their ads with (a
    /// single ad is a batch of one) — and every request gets an answer:
    /// the response for a well-formed request, a [`Message::Error`] for
    /// a malformed or unsupported one, so peers can distinguish "the
    /// network dropped it" from "the service refused it". A batch of
    /// more than 1 024 elements, the service's batch cap, is refused
    /// before any element is converted. The
    /// single exception is an incoming `Error`, which is never answered
    /// (no error ping-pong).
    pub fn handle(&self, msg: &Message) -> Option<Message> {
        let reject = |code: u32, detail: String| {
            Some(Message::Error {
                code,
                detail,
                hint: None,
            })
        };
        match msg {
            Message::OprfBatchRequest {
                request_id,
                blinded,
            } if blinded.len() > MAX_BATCH => reject(
                error_code::OUT_OF_RANGE,
                format!("batch {request_id}: over {MAX_BATCH} elements"),
            ),
            Message::OprfBatchRequest {
                request_id,
                blinded,
            } => {
                let elements: Vec<UBig> = blinded.iter().map(|b| UBig::from_bytes_be(b)).collect();
                match self.evaluate_batch(&elements) {
                    Ok(signed) => Some(Message::OprfBatchResponse {
                        request_id: *request_id,
                        elements: self.serialize_batch(&signed),
                    }),
                    Err(e) => reject(error_code::OUT_OF_RANGE, format!("batch {request_id}: {e}")),
                }
            }
            // Never answer an error with an error.
            Message::Error { .. } => None,
            other => reject(
                error_code::UNSUPPORTED_MESSAGE,
                format!("oprf-server does not serve {}", other.kind()),
            ),
        }
    }

    fn serialize_batch(&self, signed: &[UBig]) -> Vec<Vec<u8>> {
        let len = self.public().element_len();
        signed.iter().map(|s| s.to_bytes_be_padded(len)).collect()
    }

    /// Total blind evaluations performed (the "once per unique ad"
    /// overhead the paper measures in §7.1). Saturates at `u64::MAX`.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.get()
    }

    /// Ground-truth evaluation for tests/crawler (non-oblivious).
    pub fn evaluate_direct(&self, input: &[u8]) -> [u8; ew_crypto::oprf::OPRF_OUTPUT_LEN] {
        self.key.evaluate_direct(input)
    }

    /// Test hook: presets the served counter (overflow regression tests).
    #[cfg(test)]
    fn preset_requests_served(&self, n: u64) {
        self.requests_served.set(n);
    }
}

/// The OPRF service as a message-driven role service: requests arrive
/// enveloped, answers (including explicit error replies) leave
/// enveloped, echoing the request's round.
impl OprfFrontend for OprfService {
    fn on_envelope(&self, env: Envelope) -> Option<Envelope> {
        let reply = self.handle(&env.msg)?;
        Some(Envelope::new(NodeId::Oprf, env.round, reply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ew_crypto::oprf::OprfClient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn wire_batch_roundtrip_matches_direct() {
        let mut rng = StdRng::seed_from_u64(53);
        let service = OprfService::generate(&mut rng, 128);
        let client = OprfClient::new(service.public().clone());

        let urls: Vec<&[u8]> = vec![
            b"https://adnet1.example/creative/a",
            b"https://adnet2.example/creative/b",
            b"https://adnet3.example/creative/c",
        ];
        let pendings = client.blind_batch(&mut rng, &urls).unwrap();
        let req = Message::OprfBatchRequest {
            request_id: 77,
            blinded: pendings.iter().map(|p| p.blinded.to_bytes_be()).collect(),
        };
        let resp = service.handle(&req).expect("valid batch served");
        let Message::OprfBatchResponse {
            request_id,
            elements,
        } = resp
        else {
            panic!("wrong response type");
        };
        assert_eq!(request_id, 77);
        assert_eq!(elements.len(), urls.len());
        for ((url, pending), element) in urls.iter().zip(&pendings).zip(&elements) {
            let out = client
                .finalize(pending, &UBig::from_bytes_be(element))
                .unwrap();
            assert_eq!(out, service.evaluate_direct(url));
        }
        assert_eq!(service.requests_served(), urls.len() as u64);
    }

    #[test]
    fn every_batch_counts_its_elements_once() {
        let mut rng = StdRng::seed_from_u64(56);
        let service = OprfService::generate(&mut rng, 128);
        let client = OprfClient::new(service.public().clone());
        let urls: Vec<Vec<u8>> = (0..9)
            .map(|i| format!("https://adnet.example/acct/{i}").into_bytes())
            .collect();
        let url_refs: Vec<&[u8]> = urls.iter().map(|u| u.as_slice()).collect();
        let pendings = client.blind_batch(&mut rng, &url_refs).unwrap();
        let blinded: Vec<UBig> = pendings.iter().map(|p| p.blinded.clone()).collect();
        let first = service.evaluate_batch(&blinded).unwrap();
        for _ in 0..4 {
            assert_eq!(service.evaluate_batch(&blinded).unwrap(), first);
        }
        assert_eq!(service.requests_served(), 45, "5 batches × 9 elements");
        // Every batch records exactly one service-time sample, and the
        // drain resets the histogram.
        let hist = service.take_batch_hist();
        assert_eq!(hist.count(), 5);
        assert!(service.take_batch_hist().is_empty(), "drain resets");
    }

    #[test]
    fn requests_served_saturates_instead_of_wrapping() {
        let mut rng = StdRng::seed_from_u64(57);
        let service = OprfService::generate(&mut rng, 128);
        let client = OprfClient::new(service.public().clone());
        let pending = client.blind(&mut rng, b"overflow").unwrap();

        service.preset_requests_served(u64::MAX - 1);
        // A 3-element batch would wrap a naive `+=`; the saturating
        // counter pins at MAX and stays there.
        let blinded = vec![pending.blinded.clone(); 3];
        service.evaluate_batch(&blinded).unwrap();
        assert_eq!(service.requests_served(), u64::MAX);
        service
            .evaluate_batch(std::slice::from_ref(&pending.blinded))
            .unwrap();
        assert_eq!(service.requests_served(), u64::MAX);
    }

    #[test]
    fn failed_batch_counts_nothing() {
        let mut rng = StdRng::seed_from_u64(58);
        let service = OprfService::generate(&mut rng, 128);
        let too_big = service.public().n.add_ref(&UBig::one());
        assert!(service
            .evaluate_batch(std::slice::from_ref(&too_big))
            .is_err());
        assert_eq!(service.requests_served(), 0);
    }

    #[test]
    fn out_of_range_request_rejected_explicitly() {
        let mut rng = StdRng::seed_from_u64(51);
        let service = OprfService::generate(&mut rng, 128);
        let too_big = service.public().n.add_ref(&UBig::one()).to_bytes_be();
        let req = Message::OprfBatchRequest {
            request_id: 1,
            blinded: vec![too_big],
        };
        let reply = service.handle(&req).expect("explicit reject");
        assert!(matches!(
            reply,
            Message::Error {
                code: ew_proto::error_code::OUT_OF_RANGE,
                ..
            }
        ));
        // The reject must round-trip the wire like any other message.
        assert_eq!(Message::decode(&reply.encode()).unwrap(), reply);
        assert_eq!(service.requests_served(), 0);
    }

    #[test]
    fn unrelated_messages_get_unsupported_reply() {
        let mut rng = StdRng::seed_from_u64(52);
        let service = OprfService::generate(&mut rng, 128);
        let reply = service
            .handle(&Message::UsersQuery { round: 1, ad: 2 })
            .expect("explicit reject");
        assert!(matches!(
            reply,
            Message::Error {
                code: ew_proto::error_code::UNSUPPORTED_MESSAGE,
                ..
            }
        ));
        // ...but an incoming Error is never answered (no ping-pong).
        assert!(service
            .handle(&Message::Error {
                code: 1,
                detail: "peer rejected us".to_string(),
                hint: None,
            })
            .is_none());
        assert_eq!(service.requests_served(), 0);
    }
}
