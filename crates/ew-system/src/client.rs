//! The client — the model of the paper's browser extension (§5):
//! observes rendered ads, resolves ad URLs to compact IDs via the OPRF,
//! keeps the local `#Domains` counters, ships the weekly blinded CMS
//! report and classifies audited ads with the `ew-core` detector.

use crate::ids::AdIdMapper;
use crate::node::ClientNode;
use ew_bigint::UBig;
use ew_core::{AdKey, Detector, DomainKey, GlobalView, UserCounters, Verdict};
use ew_crypto::blinding::{BlindingGenerator, BlindingParams};
use ew_crypto::dh::DhKeyPair;
use ew_crypto::directory::KeyDirectory;
use ew_crypto::group::ModpGroup;
use ew_crypto::oprf::{OprfClient, PendingRequest};
use ew_proto::{Envelope, Message, NodeId};
use ew_sketch::{BlindedSketch, CmsParams, CountMinSketch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A batch of in-flight OPRF requests: per-URL unblinding state plus
/// the blinded wire bytes, positionally matched.
type PendingBatch = (Vec<(String, PendingRequest)>, Vec<Vec<u8>>);

/// One eyeWnder client (user + extension).
#[derive(Debug)]
pub struct Client {
    id: u32,
    keypair: DhKeyPair,
    oprf: OprfClient,
    mapper: AdIdMapper,
    blinding: Option<BlindingGenerator>,
    /// URL → ad-ID cache: "the mapping is done once per (unique) ad ...
    /// results can be stored locally" (§7.1).
    id_cache: HashMap<String, AdKey>,
    counters: UserCounters,
    /// Distinct ads seen this window — the *set* encoded in the CMS, so
    /// the aggregate counts users-per-ad, not impressions-per-ad.
    seen_ads: BTreeSet<AdKey>,
    rng: StdRng,
}

impl Client {
    /// Creates a client, generating its DH key pair in `group`.
    pub fn new(
        id: u32,
        group: &ModpGroup,
        oprf_public: ew_crypto::rsa::RsaPublicKey,
        mapper: AdIdMapper,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9));
        let keypair = DhKeyPair::generate(group, &mut rng);
        Client {
            id,
            keypair,
            oprf: OprfClient::new(oprf_public),
            mapper,
            blinding: None,
            id_cache: HashMap::new(),
            counters: UserCounters::new(),
            seen_ads: BTreeSet::new(),
            rng,
        }
    }

    /// This client's user id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The DH public key to publish on the bulletin board.
    pub fn public_key(&self) -> &UBig {
        self.keypair.public()
    }

    /// Precomputes pairwise blinding secrets once the directory is
    /// complete (done once per cohort, §7.1).
    pub fn setup_blinding(&mut self, group: &ModpGroup, directory: &KeyDirectory) {
        self.blinding = Some(BlindingGenerator::new(
            group,
            self.id,
            &self.keypair,
            directory,
        ));
    }

    /// True once blinding secrets are ready.
    pub fn blinding_ready(&self) -> bool {
        self.blinding.is_some()
    }

    /// Reconciles the blinding state with a changed epoch directory
    /// instead of rebuilding it: shared secrets for departed peers are
    /// dropped, secrets for new peers are derived fresh, and surviving
    /// pairs keep their precomputed HMAC midstates across the epoch
    /// boundary. Returns `(added, removed)` peer counts. Falls back to
    /// a full [`Self::setup_blinding`] when no generator exists yet.
    pub fn sync_blinding(&mut self, group: &ModpGroup, directory: &KeyDirectory) -> (usize, usize) {
        match self.blinding.as_mut() {
            Some(generator) => generator.sync_directory(group, &self.keypair, directory),
            None => {
                self.setup_blinding(group, directory);
                let peers = self
                    .blinding
                    .as_ref()
                    .map(|g| g.peers().count())
                    .unwrap_or(0);
                (peers, 0)
            }
        }
    }

    /// Accepted and ignored: blinding derivation keeps nothing across
    /// rounds (see [`BlindingGenerator::enable_cache`]). Kept so callers
    /// written against the stream cache still compile.
    pub fn set_blinding_cache(&mut self, _retain_rounds: usize) {}

    /// Batched step 1: blinds every *uncached* URL (first-seen order,
    /// duplicates collapsed) with one shared modular inversion, and
    /// returns the per-URL pending state plus the wire bytes for an
    /// `OprfBatchRequest`. `None` if everything was already cached.
    fn oprf_blind_batch(&mut self, urls: &[&str]) -> Option<PendingBatch> {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut fresh: Vec<&str> = Vec::new();
        for &url in urls {
            if !self.id_cache.contains_key(url) && seen.insert(url) {
                fresh.push(url);
            }
        }
        if fresh.is_empty() {
            return None;
        }
        let inputs: Vec<&[u8]> = fresh.iter().map(|u| u.as_bytes()).collect();
        let pendings = self
            .oprf
            .blind_batch(&mut self.rng, &inputs)
            .expect("blinding is always invertible for valid N");
        let wire = pendings.iter().map(|p| p.blinded.to_bytes_be()).collect();
        let pendings = fresh
            .into_iter()
            .map(str::to_string)
            .zip(pendings)
            .collect();
        Some((pendings, wire))
    }

    /// Batched step 3: unblinds a positionally matching batch response
    /// and caches every resulting ad ID.
    fn oprf_finish_batch(&mut self, pendings: &[(String, PendingRequest)], responses: &[Vec<u8>]) {
        assert_eq!(pendings.len(), responses.len(), "batch length mismatch");
        for ((url, pending), response) in pendings.iter().zip(responses) {
            let out = self
                .oprf
                .finalize(pending, &UBig::from_bytes_be(response))
                .expect("response in range");
            self.id_cache
                .insert(url.clone(), self.mapper.to_ad_id(&out));
        }
    }

    /// Resolves a slice of URLs to ad IDs through a
    /// [`ServiceBus`](crate::node::ServiceBus): the
    /// uncached remainder is blinded with one shared inversion and
    /// travels as `OprfBatchRequest` envelopes of at most 1 024 elements,
    /// the OPRF service's batch cap (one envelope, for any week a driver
    /// maps), the front-end answers each with one
    /// `OprfBatchResponse` envelope, and every resolved ID is cached.
    ///
    /// This is the one way to map an ad — the path
    /// `EyewnderSystem::ingest` drives.
    ///
    /// # Panics
    /// Panics if the front-end rejects the batch or the bus loses it —
    /// ingestion runs over lossless links (in-proc, or wire transports
    /// whose faults target the report path).
    pub fn map_ads_on<F, B>(&mut self, urls: &[&str], frontend: &F, bus: &mut B) -> Vec<AdKey>
    where
        F: crate::node::OprfFrontend,
        B: crate::node::ServiceBus,
    {
        if let Some((pendings, wire)) = self.oprf_blind_batch(urls) {
            let mut wire = wire.into_iter();
            for pendings in pendings.chunks(crate::oprf_server::MAX_BATCH) {
                let elements = crate::node::oprf_batch_exchange(
                    frontend,
                    bus,
                    NodeId::Client(self.id),
                    self.id as u64,
                    wire.by_ref().take(pendings.len()).collect(),
                );
                self.oprf_finish_batch(pendings, &elements);
            }
        }
        urls.iter()
            .map(|url| self.cached_ad(url).expect("resolved just above"))
            .collect()
    }

    /// The cached ad ID for a URL, if it was resolved before.
    fn cached_ad(&self, url: &str) -> Option<AdKey> {
        self.id_cache.get(url).copied()
    }

    /// Records one rendered impression.
    pub fn observe(&mut self, ad: AdKey, domain: DomainKey) {
        self.counters.observe(ad, domain);
        self.seen_ads.insert(ad);
    }

    /// Local counters (for auditing and diagnostics).
    pub fn counters(&self) -> &UserCounters {
        &self.counters
    }

    /// Number of distinct ads seen this window.
    pub fn distinct_ads(&self) -> usize {
        self.seen_ads.len()
    }

    /// Builds the weekly blinded report: the *set* of seen ads encoded
    /// in a CMS, every cell blinded for `round`.
    ///
    /// # Panics
    /// Panics if [`Self::setup_blinding`] has not run.
    fn build_report(&self, params: CmsParams, round: u64) -> BlindedSketch {
        let generator = self
            .blinding
            .as_ref()
            .expect("blinding must be set up before reporting");
        let mut sketch = CountMinSketch::new(params);
        for &ad in &self.seen_ads {
            sketch.update(ad);
        }
        BlindedSketch::from_sketch(sketch, generator, round)
    }

    /// The recovery-round adjustment for a set of missing clients: the
    /// signed sum of this client's pairwise terms with every enrolled
    /// peer that `missing` names, each once. Other ids, this client's
    /// own among them, add nothing.
    ///
    /// # Panics
    /// Panics if [`Self::setup_blinding`] has not run. The wire handler
    /// checks first and leaves such a notice unanswered.
    pub fn adjustment(&self, params: CmsParams, round: u64, missing: &[u32]) -> Vec<u32> {
        let generator = self
            .blinding
            .as_ref()
            .expect("blinding must be set up before adjusting");
        generator.adjustment_vector(
            BlindingParams {
                round,
                num_cells: params.num_cells(),
            },
            missing,
        )
    }

    /// Audits one ad against the backend's global view — the real-time
    /// user-facing operation of the paper.
    pub fn audit(&self, ad: AdKey, global: &GlobalView, detector: &Detector) -> Verdict {
        detector.classify(&self.counters, ad, global)
    }

    /// Clears the weekly window (after a report round completes).
    pub fn reset_window(&mut self) {
        self.counters.reset();
        self.seen_ads.clear();
    }
}

/// The client as a message-driven role service: its weekly report and
/// its recovery adjustment leave as [`Envelope`]s, and the only thing
/// it accepts from the backend is an envelope.
impl ClientNode for Client {
    fn client_id(&self) -> u32 {
        self.id
    }

    fn report_envelope(&self, params: CmsParams, round: u64) -> Envelope {
        let report = self.build_report(params, round);
        Envelope::new(
            NodeId::Client(self.id),
            round,
            Message::Report {
                user: self.id,
                round,
                depth: params.depth as u32,
                width: params.width as u32,
                seed: params.hash_seed,
                cells: report.into_cells(),
            },
        )
    }

    fn on_envelope(&self, params: CmsParams, env: &Envelope) -> Option<Envelope> {
        match &env.msg {
            // A client that never enrolled has no blinding to adjust.
            Message::MissingClients { round, users }
                if env.sender == NodeId::Backend
                    && env.round == *round
                    && self.blinding_ready() =>
            {
                let cells = self.adjustment(params, *round, users);
                Some(Envelope::new(
                    NodeId::Client(self.id),
                    *round,
                    Message::Adjustment {
                        user: self.id,
                        round: *round,
                        cells,
                    },
                ))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{InProcBus, ServiceBus, WireBus};
    use crate::oprf_server::OprfService;
    use ew_core::DetectorConfig;
    use ew_core::ThresholdPolicy;

    fn setup() -> (ModpGroup, OprfService, AdIdMapper, StdRng) {
        let mut rng = StdRng::seed_from_u64(60);
        let group = ModpGroup::generate(&mut rng, 64);
        let service = OprfService::generate(&mut rng, 128);
        (group, service, AdIdMapper::new(1 << 16), rng)
    }

    /// The non-oblivious reference: what `url` must map to.
    fn direct(service: &OprfService, mapper: AdIdMapper, url: &str) -> AdKey {
        mapper.to_ad_id(&service.evaluate_direct(url.as_bytes()))
    }

    #[test]
    fn url_mapping_cached() {
        let (group, service, mapper, _) = setup();
        let mut c = Client::new(1, &group, service.public().clone(), mapper, 7);
        let mut bus = InProcBus::new();
        let a1 = c.map_ads_on(&["https://x.example/1"], &service, &mut bus);
        let a2 = c.map_ads_on(&["https://x.example/1"], &service, &mut bus);
        assert_eq!(a1, a2);
        assert_eq!(service.requests_served(), 1, "second lookup is cached");
        let b = c.map_ads_on(&["https://x.example/2"], &service, &mut bus);
        assert_ne!(a1, b);
    }

    /// `map_ads_on` ≡ `evaluate_direct` per URL, one URL at a time or
    /// batched; duplicate and cached URLs issue no second request.
    fn batch_mapping_over<B: ServiceBus>(mut make_bus: impl FnMut() -> B) {
        let (group, service, mapper, _) = setup();
        let mut single = Client::new(1, &group, service.public().clone(), mapper, 7);
        let mut batched = Client::new(2, &group, service.public().clone(), mapper, 8);
        let urls = [
            "https://x.example/1",
            "https://x.example/2",
            "https://x.example/1", // duplicate inside the batch
            "https://x.example/3",
        ];
        let expected: Vec<AdKey> = urls.iter().map(|u| direct(&service, mapper, u)).collect();
        let mut bus = make_bus();
        let one_by_one: Vec<AdKey> = urls
            .iter()
            .map(|u| single.map_ads_on(&[u], &service, &mut bus)[0])
            .collect();
        assert_eq!(one_by_one, expected, "same PRF, same IDs");
        assert_eq!(service.requests_served(), 3, "the repeated URL is cached");

        let mut bus = make_bus();
        let got = batched.map_ads_on(&urls, &service, &mut bus);
        assert_eq!(got, expected, "same PRF, same IDs");
        assert_eq!(
            service.requests_served(),
            6,
            "duplicates collapse inside the batch"
        );
        // Second batch is fully cached: zero server traffic.
        assert_eq!(batched.map_ads_on(&urls, &service, &mut bus), expected);
        assert_eq!(service.requests_served(), 6);
    }

    #[test]
    fn batch_mapping_matches_single_and_caches() {
        batch_mapping_over(InProcBus::new);
        batch_mapping_over(WireBus::perfect);
    }

    #[test]
    fn a_remainder_over_the_batch_cap_goes_in_batches_at_the_cap() {
        use crate::oprf_server::MAX_BATCH;
        let (group, service, mapper, _) = setup();
        let mut c = Client::new(1, &group, service.public().clone(), mapper, 7);
        let urls: Vec<String> = (0..MAX_BATCH + 3)
            .map(|i| format!("https://x.example/{i}"))
            .collect();
        let urls: Vec<&str> = urls.iter().map(String::as_str).collect();
        // The service refuses a longer batch, which would panic here.
        let got = c.map_ads_on(&urls, &service, &mut InProcBus::new());
        assert_eq!(
            service.take_batch_hist().count(),
            2,
            "one full batch, one of 3"
        );
        assert_eq!(service.requests_served(), urls.len() as u64);
        for (url, ad) in urls.iter().zip(got) {
            assert_eq!(ad, direct(&service, mapper, url), "{url}");
        }
    }

    #[test]
    fn mapping_consistent_across_clients() {
        // Two clients mapping the same URL must land on the same ad ID —
        // otherwise the crowd can't count users per ad.
        let (group, service, mapper, _) = setup();
        let mut c1 = Client::new(1, &group, service.public().clone(), mapper, 7);
        let mut c2 = Client::new(2, &group, service.public().clone(), mapper, 8);
        let url = ["https://adnet.example/shared"];
        let mut bus = InProcBus::new();
        assert_eq!(
            c1.map_ads_on(&url, &service, &mut bus),
            c2.map_ads_on(&url, &service, &mut bus)
        );
    }

    #[test]
    fn report_requires_blinding() {
        let (group, service, mapper, _) = setup();
        let c = Client::new(1, &group, service.public().clone(), mapper, 7);
        let params = CmsParams::new(2, 16, 1);
        let result = std::panic::catch_unwind(|| c.build_report(params, 1));
        assert!(result.is_err());
    }

    #[test]
    fn report_encodes_distinct_ads_once() {
        let (group, service, mapper, mut _rng) = setup();
        let mut dir = KeyDirectory::new(group.element_len());
        let mut clients: Vec<Client> = (0..3)
            .map(|id| Client::new(id, &group, service.public().clone(), mapper, 7))
            .collect();
        for c in &clients {
            dir.publish(c.id(), c.public_key().clone());
        }
        for c in &mut clients {
            c.setup_blinding(&group, &dir);
        }
        // Client 0 sees ad 42 five times on different domains; the CMS
        // must still count it once (it encodes the *set*).
        for d in 0..5 {
            clients[0].observe(42, d);
        }
        let params = CmsParams::new(3, 64, 5);
        let round = 9;
        let mut acc = ew_sketch::SketchAccumulator::new(params);
        for c in &clients {
            acc.add(&c.build_report(params, round));
        }
        let agg = acc.finalize(1);
        assert_eq!(agg.query(42), 1, "one user saw ad 42, however many times");
    }

    #[test]
    fn audit_pipeline() {
        let (group, service, mapper, _) = setup();
        let mut c = Client::new(1, &group, service.public().clone(), mapper, 7);
        // Chased ad 1 across 5 domains; background ads once each.
        for d in 0..5 {
            c.observe(1, d);
        }
        for ad in 2..=9 {
            c.observe(ad, 100 + ad);
        }
        let global = GlobalView::from_estimates(
            (1..=9u64).map(|ad| (ad, if ad == 1 { 2.0 } else { 12.0 })),
            ThresholdPolicy::Mean,
        );
        let det = Detector::new(DetectorConfig::default());
        assert_eq!(c.audit(1, &global, &det), Verdict::Targeted);
        assert_eq!(c.audit(5, &global, &det), Verdict::NonTargeted);
    }

    #[test]
    fn window_reset() {
        let (group, service, mapper, _) = setup();
        let mut c = Client::new(1, &group, service.public().clone(), mapper, 7);
        c.observe(1, 1);
        assert_eq!(c.distinct_ads(), 1);
        c.reset_window();
        assert_eq!(c.distinct_ads(), 0);
        assert_eq!(c.counters().impressions(), 0);
    }
}
