//! Transport-level fault injection, in the spirit of the smoltcp
//! examples' `--drop-chance` / `--corrupt-chance` options: the system
//! tests run the full protocol over links that drop, corrupt, duplicate
//! and reorder frames.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault probabilities for one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability one random byte of the frame is flipped.
    pub corrupt_prob: f64,
    /// Probability the frame is delivered twice.
    pub duplicate_prob: f64,
    /// Probability the frame swaps places with the next one.
    pub reorder_prob: f64,
    /// RNG seed (faults are reproducible).
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// A lossless link.
    pub fn perfect() -> Self {
        Self::default()
    }

    /// The smoltcp examples' "good starting point": 15% drop + corrupt.
    pub fn harsh(seed: u64) -> Self {
        FaultConfig {
            drop_prob: 0.15,
            corrupt_prob: 0.15,
            duplicate_prob: 0.05,
            reorder_prob: 0.05,
            seed,
        }
    }
}

/// A frame pipe that applies the configured faults.
#[derive(Debug)]
pub struct FaultyLink {
    config: FaultConfig,
    rng: StdRng,
    /// A frame held back for reordering.
    held: Option<Vec<u8>>,
}

impl FaultyLink {
    /// New link with the given fault profile.
    pub fn new(config: FaultConfig) -> Self {
        FaultyLink {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            held: None,
        }
    }

    /// Pushes one frame through the link, returning what actually
    /// arrives (possibly zero, one or two frames, possibly corrupted,
    /// possibly out of order).
    pub fn transmit(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();

        if self.rng.gen::<f64>() < self.config.drop_prob {
            // Dropped; a held frame may still be flushed below.
            if let Some(held) = self.held.take() {
                out.push(held);
            }
            return out;
        }

        let mut frame = frame;
        if !frame.is_empty() && self.rng.gen::<f64>() < self.config.corrupt_prob {
            let idx = self.rng.gen_range(0..frame.len());
            let bit = 1u8 << self.rng.gen_range(0..8);
            frame[idx] ^= bit;
        }

        if self.held.is_none() && self.rng.gen::<f64>() < self.config.reorder_prob {
            // Hold this frame back; it will follow the next one.
            self.held = Some(frame);
            return out;
        }

        if self.rng.gen::<f64>() < self.config.duplicate_prob {
            out.push(frame.clone());
        }
        out.push(frame);
        if let Some(held) = self.held.take() {
            out.push(held);
        }
        out
    }

    /// Flushes any held (reordered) frame at end of stream.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 8]).collect()
    }

    fn run(config: FaultConfig, input: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut link = FaultyLink::new(config);
        let mut out = Vec::new();
        for f in input {
            out.extend(link.transmit(f));
        }
        if let Some(f) = link.flush() {
            out.push(f);
        }
        out
    }

    #[test]
    fn perfect_link_is_identity() {
        let input = frames(50);
        assert_eq!(run(FaultConfig::perfect(), input.clone()), input);
    }

    #[test]
    fn drop_only_loses_frames() {
        let cfg = FaultConfig {
            drop_prob: 0.5,
            seed: 1,
            ..Default::default()
        };
        let input = frames(200);
        let out = run(cfg, input.clone());
        assert!(out.len() < input.len());
        assert!(out.len() > 50, "should not drop everything");
        // Every surviving frame is unmodified.
        for f in &out {
            assert!(input.contains(f));
        }
    }

    #[test]
    fn corrupt_only_preserves_count() {
        let cfg = FaultConfig {
            corrupt_prob: 1.0,
            seed: 2,
            ..Default::default()
        };
        let input = frames(20);
        let out = run(cfg, input.clone());
        assert_eq!(out.len(), input.len());
        // With probability 1 every frame differs by exactly one bit.
        for (got, sent) in out.iter().zip(&input) {
            let diff: u32 = got
                .iter()
                .zip(sent)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn duplicate_only_grows_count() {
        let cfg = FaultConfig {
            duplicate_prob: 1.0,
            seed: 3,
            ..Default::default()
        };
        let out = run(cfg, frames(10));
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn reorder_swaps_but_preserves_set() {
        let cfg = FaultConfig {
            reorder_prob: 0.5,
            seed: 4,
            ..Default::default()
        };
        let input = frames(100);
        let mut out = run(cfg, input.clone());
        assert_eq!(out.len(), input.len(), "reordering loses nothing");
        let mut sorted_in = input;
        sorted_in.sort();
        out.sort();
        assert_eq!(out, sorted_in);
    }

    #[test]
    fn faults_are_reproducible() {
        let cfg = FaultConfig::harsh(7);
        assert_eq!(run(cfg, frames(50)), run(cfg, frames(50)));
    }
}
