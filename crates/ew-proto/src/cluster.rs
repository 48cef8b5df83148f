//! The cluster shard map: a deterministic, versioned partition of the
//! report key space across N aggregation backends.
//!
//! Scaling the backend beyond one node shards **report ownership by
//! client id**: the user-id space is folded onto a fixed ring of
//! *slots* (`user % num_slots`), and every slot is owned by exactly one
//! backend shard. Both the transport layer (the routing bus picking an
//! uplink) and the compute layer (the cluster backend picking a shard)
//! route with the *same* [`ShardMap`], built once per cluster.
//!
//! ## Versioning
//!
//! A map never changes while a round is open: a lost uplink is
//! re-linked and a crashed shard restarts under its own range, so no
//! failure moves a key range. Resharding is a between-rounds affair —
//! a fresh cluster over a fresh map. [`ShardMap::version`] is the field
//! the round log's opening `MapInstalled` record carries.

/// Upper bound on the shard-id space a [`ShardMap`] will address.
pub const MAX_CLUSTER_SHARDS: u32 = 1024;

/// Slots allocated per shard by [`ShardMap::uniform`].
pub const SLOTS_PER_SHARD: u32 = 8;

/// A versioned partition of the client-id space across backend shards.
///
/// `owners[k]` is the shard owning slot `k`; a user id maps to slot
/// `user % owners.len()`. Shard ids live in `[0, shard_ids())`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    version: u32,
    /// One past the highest shard id this map was built over.
    shard_ids: u32,
    owners: Vec<u32>,
}

impl ShardMap {
    /// A fresh (version 0) map partitioning [`SLOTS_PER_SHARD`]` × shards`
    /// slots round-robin over shard ids `0..shards`.
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
        ShardMap {
            version: 0,
            shard_ids: shards,
            owners: (0..shards * SLOTS_PER_SHARD).map(|i| i % shards).collect(),
        }
    }

    /// The map version, as the round log's `MapInstalled` record
    /// carries it.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// One past the highest addressable shard id.
    pub fn shard_ids(&self) -> u32 {
        self.shard_ids
    }

    /// Number of slots on the ownership ring.
    pub fn num_slots(&self) -> usize {
        self.owners.len()
    }

    /// The slot-ownership ring, as the `MapInstalled` record carries it.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// The shard owning `user`'s reports under this map.
    pub fn owner_of(&self, user: u32) -> u32 {
        self.owners[user as usize % self.owners.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partitions_every_slot_round_robin() {
        let map = ShardMap::uniform(4);
        assert_eq!(map.version(), 0);
        assert_eq!(map.shard_ids(), 4);
        assert_eq!(map.num_slots(), 32);
        for user in 0..200u32 {
            assert_eq!(map.owner_of(user), (user % 32) % 4);
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
