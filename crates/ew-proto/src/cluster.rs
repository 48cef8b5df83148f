//! The cluster shard map: a deterministic partition of the report key
//! space across N aggregation backends.
//!
//! Scaling the backend beyond one node shards **report ownership by
//! client id**: user `u` belongs to shard `u % shards`. Both the
//! transport layer (the routing bus picking an uplink) and the compute
//! layer (the cluster backend picking a shard) route with the *same*
//! [`ShardMap`], built once per cluster.
//!
//! A map never changes while a round is open: a lost uplink is
//! re-linked and a crashed shard restarts under its own range, so no
//! failure moves a key range. Resharding is a between-rounds affair —
//! a fresh cluster over a fresh map.

/// Upper bound on the shard-id space a [`ShardMap`] will address.
pub const MAX_CLUSTER_SHARDS: u32 = 1024;

/// A partition of the client-id space across backend shards: the shard
/// count. Shard ids live in `[0, shard_ids())`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map spreading user ids round-robin over shard ids `0..shards`.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds [`MAX_CLUSTER_SHARDS`] —
    /// cluster sizes are deployment configuration, not wire input.
    pub fn uniform(shards: u32) -> Self {
        assert!(shards > 0, "a cluster partitions something");
        assert!(
            shards <= MAX_CLUSTER_SHARDS,
            "shard count {shards} exceeds {MAX_CLUSTER_SHARDS}"
        );
        ShardMap { shards }
    }

    /// One past the highest addressable shard id.
    pub fn shard_ids(&self) -> u32 {
        self.shards
    }

    /// The shard owning `user`'s reports under this map.
    pub fn owner_of(&self, user: u32) -> u32 {
        user % self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partitions_every_slot_round_robin() {
        // The routing oracle: the ring of eight slots per shard that
        // maps used to carry, `owners[u % 8n] = (u % 8n) % n`. Dropping
        // the ring moves no user at any cluster size.
        let users = (0..4096u32).chain((0..8).map(|k| u32::MAX - k));
        for n in (1..=64).chain([MAX_CLUSTER_SHARDS]) {
            let map = ShardMap::uniform(n);
            assert_eq!(map.shard_ids(), n);
            for user in users.clone() {
                assert_eq!(
                    map.owner_of(user),
                    (user % (8 * n)) % n,
                    "n={n} user={user}"
                );
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let map = ShardMap::uniform(1);
        for user in [0u32, 1, 7, u32::MAX] {
            assert_eq!(map.owner_of(user), 0);
        }
    }
}
