#![forbid(unsafe_code)]
//! Offline stand-in for the subset of the `crossbeam` API this workspace
//! uses: unbounded MPSC channels and scoped threads. Channels are backed
//! by [`std::sync::mpsc`], whose `Sender` / `Receiver` / `TryRecvError`
//! shapes match what the transport layer needs (send-after-disconnect
//! errors, non-blocking `try_recv` with `Empty` / `Disconnected`
//! variants). Scoped threads are backed by [`std::thread::scope`], which
//! provides the same guarantee crossbeam's `thread::scope` pioneered:
//! spawned threads may borrow from the enclosing stack frame because the
//! scope joins them all before returning.

/// Channel types mirroring `crossbeam::channel`.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, Sender, TryRecvError};

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

/// Scoped threads mirroring `crossbeam::thread`.
///
/// The shape follows [`std::thread::scope`] (closure takes `&Scope`,
/// handles join on scope exit) rather than crossbeam's historical
/// `Result`-returning wrapper; the parallel OPRF/system layers only
/// need the borrow-across-spawn guarantee.
pub mod thread {
    pub use std::thread::{scope, Scope, ScopedJoinHandle};

    /// Runs `work(shard)` for each contiguous shard of `items` on its own
    /// scoped thread and returns the per-shard outputs **in shard order**,
    /// so any order-sensitive reassembly is deterministic regardless of
    /// which worker finishes first.
    ///
    /// `threads` is clamped to `[1, items.len()]`; with one thread (or
    /// one item) the work runs on the calling thread, spawning nothing.
    ///
    /// # Panics
    /// Propagates a panic from any worker thread.
    pub fn map_shards<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> R + Sync,
    {
        let threads = threads.max(1).min(items.len().max(1));
        if threads <= 1 {
            return vec![work(items)];
        }
        let chunk = items.len().div_ceil(threads);
        scope(|s| {
            let handles: Vec<ScopedJoinHandle<'_, R>> = items
                .chunks(chunk)
                .map(|shard| s.spawn(|| work(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    /// Mutable-shard variant of [`map_shards`]: each worker gets
    /// exclusive access to its contiguous `&mut` shard (the borrow
    /// checker guarantees disjointness via `chunks_mut`); outputs come
    /// back in shard order.
    pub fn map_shards_mut<T, R, F>(items: &mut [T], threads: usize, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut [T]) -> R + Sync,
    {
        let threads = threads.max(1).min(items.len().max(1));
        if threads <= 1 {
            return vec![work(items)];
        }
        let chunk = items.len().div_ceil(threads);
        let work = &work;
        scope(|s| {
            let handles: Vec<ScopedJoinHandle<'_, R>> = items
                .chunks_mut(chunk)
                .map(|shard| s.spawn(move || work(shard)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn fifo_and_disconnect_semantics() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx2, rx2) = unbounded();
        drop(rx2);
        assert!(tx2.send(3).is_err());
    }

    #[test]
    fn scoped_threads_borrow_stack_data() {
        let data = [1u64, 2, 3, 4];
        let mut results = Vec::new();
        super::thread::scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(|| chunk.iter().sum::<u64>()))
                .collect();
            for h in handles {
                results.push(h.join().unwrap());
            }
        });
        assert_eq!(results, vec![3, 7]);
    }

    #[test]
    fn map_shards_preserves_order_for_any_thread_count() {
        let items: Vec<u32> = (0..13).collect();
        for threads in [0usize, 1, 2, 4, 7, 13, 64] {
            let shards = super::thread::map_shards(&items, threads, |shard| shard.to_vec());
            let flat: Vec<u32> = shards.into_iter().flatten().collect();
            assert_eq!(flat, items, "threads={threads}");
        }
        assert_eq!(
            super::thread::map_shards(&Vec::<u32>::new(), 4, |s| s.len()),
            vec![0],
            "empty input runs the closure once on the calling thread"
        );
    }

    #[test]
    fn map_shards_mut_gives_disjoint_ordered_shards() {
        let mut items = vec![0u32; 10];
        for threads in [1usize, 3, 10] {
            items.iter_mut().for_each(|x| *x = 0);
            let sizes = super::thread::map_shards_mut(&mut items, threads, |shard| {
                for x in shard.iter_mut() {
                    *x += 1;
                }
                shard.len()
            });
            assert!(
                items.iter().all(|&x| x == 1),
                "threads={threads}: every item touched once"
            );
            assert_eq!(sizes.iter().sum::<usize>(), items.len());
        }
    }
}
