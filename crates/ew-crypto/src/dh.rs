//! Diffie–Hellman key pairs over a [`ModpGroup`].

use crate::group::ModpGroup;
use ew_bigint::UBig;
use rand::RngCore;

/// A user's Diffie–Hellman key pair `(x, y = g^x)`.
///
/// In the paper each eyeWnder user `u_i` holds `(x_i, y_i = g^{x_i})` and
/// publishes `y_i` on a bulletin board; pairwise shared secrets
/// `y_j^{x_i} = g^{x_i x_j}` seed the blinding factors.
#[derive(Debug, Clone)]
pub struct DhKeyPair {
    secret: UBig,
    public: UBig,
}

impl DhKeyPair {
    /// Generates a fresh key pair in `group`.
    pub fn generate<R: RngCore + ?Sized>(group: &ModpGroup, rng: &mut R) -> Self {
        let secret = group.random_exponent(rng);
        let public = group.pow_g(&secret);
        DhKeyPair { secret, public }
    }

    /// Reconstructs a key pair from a known secret exponent.
    pub fn from_secret(group: &ModpGroup, secret: UBig) -> Self {
        let public = group.pow_g(&secret);
        DhKeyPair { secret, public }
    }

    /// The public key `y = g^x`.
    pub fn public(&self) -> &UBig {
        &self.public
    }

    /// The secret exponent `x`. Exposed for the blinding generator only.
    pub fn secret(&self) -> &UBig {
        &self.secret
    }

    /// Computes the shared secret `peer^x = g^{x x'}` with a peer's
    /// public key, serialized to the group's fixed element length.
    pub fn shared_secret(&self, group: &ModpGroup, peer_public: &UBig) -> Vec<u8> {
        let s = group.pow(peer_public, &self.secret);
        group.serialize_element(&s)
    }

    /// [`Self::shared_secret`] with every key of `peer_publics`, in
    /// order, as one batch: all of them are raised to the same secret
    /// exponent, which is the shape [`ModpGroup::pow_many`] is fast on.
    /// Each element is byte-identical to the single-peer call.
    pub fn shared_secrets(&self, group: &ModpGroup, peer_publics: &[UBig]) -> Vec<Vec<u8>> {
        group
            .pow_many(peer_publics, &self.secret)
            .iter()
            .map(|s| group.serialize_element(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shared_secret_symmetric() {
        let mut rng = StdRng::seed_from_u64(10);
        let group = ModpGroup::generate(&mut rng, 64);
        let alice = DhKeyPair::generate(&group, &mut rng);
        let bob = DhKeyPair::generate(&group, &mut rng);
        assert_eq!(
            alice.shared_secret(&group, bob.public()),
            bob.shared_secret(&group, alice.public())
        );
    }

    #[test]
    fn distinct_pairs_distinct_secrets() {
        let mut rng = StdRng::seed_from_u64(11);
        let group = ModpGroup::generate(&mut rng, 64);
        let alice = DhKeyPair::generate(&group, &mut rng);
        let bob = DhKeyPair::generate(&group, &mut rng);
        let carol = DhKeyPair::generate(&group, &mut rng);
        assert_ne!(
            alice.shared_secret(&group, bob.public()),
            alice.shared_secret(&group, carol.public())
        );
    }

    #[test]
    fn from_secret_reproduces_public() {
        let mut rng = StdRng::seed_from_u64(12);
        let group = ModpGroup::generate(&mut rng, 64);
        let kp = DhKeyPair::generate(&group, &mut rng);
        let rebuilt = DhKeyPair::from_secret(&group, kp.secret().clone());
        assert_eq!(rebuilt.public(), kp.public());
    }
}
