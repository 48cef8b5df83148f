#![forbid(unsafe_code)]
//! Offline stand-in for the subset of the `crossbeam` API this workspace
//! uses: unbounded MPSC channels. They are backed by
//! [`std::sync::mpsc`], whose `Sender` / `Receiver` / `TryRecvError`
//! shapes match what the transport layer needs (send-after-disconnect
//! errors, non-blocking `try_recv` with `Empty` / `Disconnected`
//! variants).

/// Channel types mirroring `crossbeam::channel`.
pub mod channel {
    pub use std::sync::mpsc::{Receiver, Sender, TryRecvError};

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
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
}
