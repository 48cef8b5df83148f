//! What the mutation corpora share: a counting global allocator and the
//! [`Tally`] that decodes one mutant under every corpus assertion.
//!
//! Same counting-global-allocator scheme as the `alloc_free` suites of
//! `ew-bigint` and `ew-crypto`, counting bytes rather than calls. Each
//! corpus is a test binary of its own, so no other suite runs under it.
//! The frame corpus drives a streaming decoder rather than one
//! `decode(&[u8])`, so it reads the allocator through
//! [`allocated_by`] and leaves [`Tally`] to the record and envelope
//! corpora.

// Each corpus binary uses its own part of this module.
#![allow(dead_code)]

use ew_proto::codec::CodecError;
use ew_proto::{Envelope, JournalRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes this thread asks the allocator for; a `realloc`
/// counts its whole new size.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.with(|c| c.set(c.get() + new_size));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes it asked this
/// thread's allocator for.
pub fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Bytes one decode may allocate per input byte. Each corpus names its
/// largest ratio; twice the input bounds every one with room to spare.
const ALLOC_BYTES_PER_INPUT_BYTE: usize = 2;

/// Fixed allowance per decode for the small, length-independent
/// vectors (empty id lists, the error paths).
const ALLOC_SLACK: usize = 64;

/// A wire type under the corpus: decoded from bytes, encoded back.
pub trait Canonical: Sized + PartialEq + std::fmt::Debug {
    /// The type's decoder.
    fn decode(bytes: &[u8]) -> Result<Self, CodecError>;
    /// The type's encoder.
    fn encode(&self) -> Vec<u8>;
}

impl Canonical for JournalRecord {
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        JournalRecord::decode(bytes)
    }

    fn encode(&self) -> Vec<u8> {
        JournalRecord::encode(self)
    }
}

impl Canonical for Envelope {
    fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
        Envelope::decode(bytes)
    }

    fn encode(&self) -> Vec<u8> {
        Envelope::encode(self)
    }
}

/// What a corpus saw: mutants accepted and rejected.
#[derive(Default)]
pub struct Tally {
    pub accepted: usize,
    pub rejected: usize,
}

impl Tally {
    /// Decodes one mutant and returns the decoder's verdict, having
    /// checked that:
    ///
    /// * decoding does not panic, and a reject is a typed `CodecError`;
    /// * an accepted mutant re-encodes to exactly its input bytes — the
    ///   codec is canonical, so one value has one encoding;
    /// * the decode allocated at most [`ALLOC_BYTES_PER_INPUT_BYTE`]
    ///   bytes per input byte, plus [`ALLOC_SLACK`].
    pub fn decode<T: Canonical>(&mut self, input: &[u8], what: &str) -> Result<T, CodecError> {
        let (outcome, allocated) = allocated_by(|| std::panic::catch_unwind(|| T::decode(input)));
        let verdict = outcome.unwrap_or_else(|_| panic!("{what}: decode panicked"));
        let bound = ALLOC_BYTES_PER_INPUT_BYTE * input.len() + ALLOC_SLACK;
        assert!(
            allocated <= bound,
            "{what}: a {}-byte input allocated {allocated} bytes (bound {bound})",
            input.len()
        );
        match &verdict {
            Ok(value) => {
                assert_eq!(
                    value.encode(),
                    input,
                    "{what}: accepted bytes that re-encode differently"
                );
                self.accepted += 1;
            }
            Err(_) => self.rejected += 1,
        }
        verdict
    }
}
