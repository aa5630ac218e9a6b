//! Per-thread byte counters for the two bulk primitives.
//!
//! Every [`Sha256::update`](crate::Sha256::update) adds its input length
//! to the calling thread's SHA-256 count (HMAC included, since it hashes
//! through [`Sha256`](crate::Sha256)), and every
//! [`ChaCha20::apply`](crate::ChaCha20::apply) adds its length to the
//! thread's ChaCha20 count. Dividing what one patch adds by the bundle
//! size gives the passes each primitive makes over the bundle, which
//! the pass-budget test in `kshot-core` pins. The counts are per thread,
//! so work on other threads never moves them, and nothing exports them
//! to telemetry or shards.

use std::cell::Cell;

thread_local! {
    static SHA256_BYTES: Cell<u64> = const { Cell::new(0) };
    static CHACHA20_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Bytes one thread has pushed through each primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ByteCounts {
    /// Bytes absorbed by SHA-256.
    pub sha256: u64,
    /// Bytes XORed with ChaCha20 keystream.
    pub chacha20: u64,
}

impl ByteCounts {
    /// The calling thread's totals so far.
    pub fn current() -> ByteCounts {
        ByteCounts {
            sha256: SHA256_BYTES.with(Cell::get),
            chacha20: CHACHA20_BYTES.with(Cell::get),
        }
    }

    /// What was added between `start` and `self`.
    pub fn since(self, start: ByteCounts) -> ByteCounts {
        ByteCounts {
            sha256: self.sha256 - start.sha256,
            chacha20: self.chacha20 - start.chacha20,
        }
    }
}

pub(crate) fn add_sha256(len: usize) {
    SHA256_BYTES.with(|c| c.set(c.get().wrapping_add(len as u64)));
}

pub(crate) fn add_chacha20(len: usize) {
    CHACHA20_BYTES.with(|c| c.set(c.get().wrapping_add(len as u64)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sha256, ChaCha20};

    #[test]
    fn every_update_and_apply_is_counted_on_its_own_thread() {
        let start = ByteCounts::current();
        sha256(&[1u8; 1000]);
        crate::hmac::hmac_sha256(&[7; 32], &[2u8; 300]);
        ChaCha20::new(&[3; 32], &[4; 12]).apply(&mut [0u8; 777]);
        let used = ByteCounts::current().since(start);
        // HMAC absorbs its two 64-byte pads and the inner digest too.
        assert_eq!(used.sha256, 1000 + 64 + 300 + 64 + 32);
        assert_eq!(used.chacha20, 777);
        let other = std::thread::spawn(|| {
            sha256(b"elsewhere");
            ByteCounts::current()
        });
        assert_eq!(other.join().unwrap().sha256, 9);
        assert_eq!(ByteCounts::current().since(start), used);
    }
}
