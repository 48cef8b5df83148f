//! The cluster shard map: a deterministic, versioned partition of the
//! report key space across N aggregation backends.
//!
//! Scaling the backend beyond one node shards **report ownership by
//! client id**: the user-id space is folded onto a fixed ring of
//! *slots* (`user % num_slots`), and every slot is owned by exactly one
//! backend shard. Both the transport layer (the routing bus picking an
//! uplink) and the compute layer (the cluster backend picking a shard
//! server) route with the *same* [`ShardMap`], and the map travels
//! between them as a [`crate::Message::ShardMapUpdate`] — so after a
//! mid-round failover the two layers re-agree through the protocol, not
//! through shared memory.
//!
//! ## Versioning
//!
//! Every rebalance bumps [`ShardMap::version`]. A receiver adopts any
//! update with a *newer* version, ignores re-broadcasts of its current
//! one, and answers an *older* one with
//! [`crate::error_code::STALE_SHARD_MAP`] — updates are broadcast on
//! every live uplink, so duplicates are expected and stale versions are
//! always a peer's bug or a replay, never a race in this design.

use std::collections::BTreeSet;

/// Upper bound on the shard-id space a [`ShardMap`] will address, so a
/// hostile `ShardMapUpdate` cannot force a huge cluster allocation.
pub const MAX_CLUSTER_SHARDS: u32 = 1024;

/// Slots allocated per shard by [`ShardMap::uniform`]: enough ring
/// granularity that a failed shard's range spreads over the survivors
/// instead of doubling one of them.
pub const SLOTS_PER_SHARD: u32 = 8;

/// Rejection reasons for malformed or impossible shard maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMapError {
    /// A map with zero slots (or zero shards) partitions nothing.
    Empty,
    /// A slot owner (or the shard count) exceeded [`MAX_CLUSTER_SHARDS`].
    TooManyShards(u32),
    /// The failing shard is the last live one — there is nowhere left
    /// to reassign its key range.
    LastShard(u32),
    /// The shard named in a reassignment owns no slots (already dead or
    /// never existed).
    UnknownShard(u32),
}

impl std::fmt::Display for ShardMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMapError::Empty => write!(f, "shard map has no slots"),
            ShardMapError::TooManyShards(n) => {
                write!(f, "shard id {n} exceeds cluster limit {MAX_CLUSTER_SHARDS}")
            }
            ShardMapError::LastShard(s) => {
                write!(f, "shard {s} is the last live shard; cannot reassign")
            }
            ShardMapError::UnknownShard(s) => write!(f, "shard {s} owns no slots"),
        }
    }
}

impl std::error::Error for ShardMapError {}

/// A versioned partition of the client-id space across backend shards.
///
/// `owners[k]` is the shard owning slot `k`; a user id maps to slot
/// `user % owners.len()`. Shard ids live in `[0, shard_ids())`; a shard
/// that owns no slots is **dead** (failed over or never populated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    version: u32,
    /// One past the highest shard id this map was built over (stable
    /// across reassignments, so shard-indexed tables keep their size).
    shard_ids: u32,
    owners: Vec<u32>,
}

impl ShardMap {
    /// A fresh (version 0) map partitioning [`SLOTS_PER_SHARD`]` × shards`
    /// slots round-robin over shard ids `0..shards`.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds [`MAX_CLUSTER_SHARDS`] —
    /// cluster sizes are deployment configuration, not wire input
    /// (untrusted maps go through [`ShardMap::from_wire`]).
    pub fn uniform(shards: u32) -> Self {
        Self::with_slots(shards, shards.saturating_mul(SLOTS_PER_SHARD))
    }

    /// A fresh map with an explicit slot count (≥ `shards` for an
    /// exhaustive partition; extra slots wrap round-robin).
    ///
    /// # Panics
    /// See [`ShardMap::uniform`]; additionally panics if `slots` is 0.
    pub fn with_slots(shards: u32, slots: u32) -> Self {
        assert!(shards > 0 && slots > 0, "a cluster partitions something");
        assert!(
            shards <= MAX_CLUSTER_SHARDS,
            "shard count {shards} exceeds {MAX_CLUSTER_SHARDS}"
        );
        ShardMap {
            version: 0,
            shard_ids: shards,
            owners: (0..slots).map(|i| i % shards).collect(),
        }
    }

    /// Validates a map received as a `ShardMapUpdate` message. Rejects
    /// empty owner rings, zero/oversized id spaces and out-of-range
    /// shard ids before anything is allocated from them. `shard_ids` is
    /// the addressable id space (one past the highest shard id ever
    /// live), which survives on the wire so shard-indexed tables keep
    /// their size across failovers.
    pub fn from_wire(
        version: u32,
        shard_ids: u32,
        owners: Vec<u32>,
    ) -> Result<Self, ShardMapError> {
        if owners.is_empty() || shard_ids == 0 {
            return Err(ShardMapError::Empty);
        }
        if shard_ids > MAX_CLUSTER_SHARDS {
            return Err(ShardMapError::TooManyShards(shard_ids));
        }
        if let Some(&bad) = owners.iter().find(|&&o| o >= shard_ids) {
            return Err(ShardMapError::TooManyShards(bad));
        }
        Ok(ShardMap {
            version,
            shard_ids,
            owners,
        })
    }

    /// The map version (bumped by every [`ShardMap::reassign`]).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// One past the highest addressable shard id (stable across
    /// reassignments — dead shards keep their id).
    pub fn shard_ids(&self) -> u32 {
        self.shard_ids
    }

    /// Number of slots on the ownership ring.
    pub fn num_slots(&self) -> usize {
        self.owners.len()
    }

    /// The slot-ownership ring, for carrying in a `ShardMapUpdate`.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// The shard owning `user`'s reports under this map.
    pub fn owner_of(&self, user: u32) -> u32 {
        self.owners[user as usize % self.owners.len()]
    }

    /// Whether `shard` currently owns any slots.
    pub fn is_live(&self, shard: u32) -> bool {
        self.owners.contains(&shard)
    }

    /// The live shard ids, ascending.
    pub fn live_shards(&self) -> Vec<u32> {
        let set: BTreeSet<u32> = self.owners.iter().copied().collect();
        set.into_iter().collect()
    }

    /// Fails `dead` out of the map: every slot it owned is redistributed
    /// round-robin (in slot order) over the surviving shards, and the
    /// version is bumped. The reassignment is a pure function of the
    /// current map, so every replica that applies the same failure
    /// computes the same successor map.
    pub fn reassign(&mut self, dead: u32) -> Result<(), ShardMapError> {
        let survivors: Vec<u32> = self
            .live_shards()
            .into_iter()
            .filter(|&s| s != dead)
            .collect();
        if !self.is_live(dead) {
            return Err(ShardMapError::UnknownShard(dead));
        }
        if survivors.is_empty() {
            return Err(ShardMapError::LastShard(dead));
        }
        let mut next = 0usize;
        for owner in self.owners.iter_mut() {
            if *owner == dead {
                *owner = survivors[next % survivors.len()];
                next += 1;
            }
        }
        self.version += 1;
        Ok(())
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
        assert_eq!(map.live_shards(), vec![0, 1, 2, 3]);
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

    #[test]
    fn reassign_moves_only_the_dead_range_and_bumps_version() {
        let mut map = ShardMap::uniform(4);
        let before = map.clone();
        map.reassign(2).unwrap();
        assert_eq!(map.version(), 1);
        assert!(!map.is_live(2));
        assert_eq!(map.live_shards(), vec![0, 1, 3]);
        assert_eq!(map.shard_ids(), 4, "dead shards keep their id");
        for (slot, (&old, &new)) in before.owners().iter().zip(map.owners()).enumerate() {
            if old == 2 {
                assert_ne!(new, 2, "slot {slot} reassigned");
            } else {
                assert_eq!(old, new, "slot {slot} untouched");
            }
        }
        // The orphaned range spreads over every survivor, not one.
        let moved: BTreeSet<u32> = before
            .owners()
            .iter()
            .zip(map.owners())
            .filter(|(&old, _)| old == 2)
            .map(|(_, &new)| new)
            .collect();
        assert_eq!(moved, BTreeSet::from([0, 1, 3]));
    }

    #[test]
    fn reassign_is_deterministic() {
        let mut a = ShardMap::uniform(4);
        let mut b = ShardMap::uniform(4);
        a.reassign(1).unwrap();
        b.reassign(1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cascading_failures_stop_at_the_last_shard() {
        let mut map = ShardMap::uniform(3);
        map.reassign(0).unwrap();
        map.reassign(2).unwrap();
        assert_eq!(map.live_shards(), vec![1]);
        assert_eq!(map.reassign(1), Err(ShardMapError::LastShard(1)));
        assert_eq!(map.reassign(0), Err(ShardMapError::UnknownShard(0)));
        assert_eq!(map.version(), 2);
    }

    #[test]
    fn wire_validation_rejects_hostile_maps() {
        assert_eq!(ShardMap::from_wire(1, 1, vec![]), Err(ShardMapError::Empty));
        assert_eq!(
            ShardMap::from_wire(1, 0, vec![0]),
            Err(ShardMapError::Empty)
        );
        assert_eq!(
            ShardMap::from_wire(1, MAX_CLUSTER_SHARDS + 1, vec![0]),
            Err(ShardMapError::TooManyShards(MAX_CLUSTER_SHARDS + 1))
        );
        assert_eq!(
            ShardMap::from_wire(1, 2, vec![0, 2]),
            Err(ShardMapError::TooManyShards(2)),
            "owner outside the declared id space"
        );
        let map = ShardMap::from_wire(7, 3, vec![0, 2, 0, 2]).unwrap();
        assert_eq!(map.version(), 7);
        assert_eq!(map.shard_ids(), 3);
        assert_eq!(map.live_shards(), vec![0, 2]);
        assert!(!map.is_live(1), "id 1 addressable but dead");
    }

    #[test]
    fn wire_roundtrip_preserves_the_map() {
        let mut map = ShardMap::uniform(4);
        map.reassign(3).unwrap();
        let back =
            ShardMap::from_wire(map.version(), map.shard_ids(), map.owners().to_vec()).unwrap();
        assert_eq!(back, map);
    }
}
