//! Decode-once bundle cache.
//!
//! A campaign pushing one patch to N machines ships the *same* encoded
//! bundle N times, and decoding (and integrity-hashing) it is work the
//! bytes only need once: a bundle is immutable after verification.
//! [`BundleCache`] keys each decoded bundle by the bytes its decode
//! verified, so a lookup is served only for equal bytes, and a hit costs
//! one comparison instead of a SHA-256 pass; any other bytes decode and
//! verify in full. Decoded bundles are handed out as `Arc`s, so callers
//! on different threads share one allocation. A fleet campaign decodes
//! each catalogue blob through a cache of its own before any machine
//! runs (see `kshot-fleet`), so its machines never look a blob up.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::bundle::PatchBundle;
use crate::wire::WireError;

/// A concurrent decode-once cache of verified patch bundles.
///
/// Wrap it in an `Arc` to share it across threads; all methods take
/// `&self`.
#[derive(Debug, Default)]
pub struct BundleCache {
    entries: Mutex<BTreeMap<Vec<u8>, Arc<PatchBundle>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BundleCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decoded bundle for `bytes`, decoding (with full integrity
    /// verification) only on first sight of this exact byte string.
    ///
    /// # Errors
    ///
    /// [`WireError`] from [`PatchBundle::decode`] on a malformed or
    /// corrupted payload; failures are never cached, so a corrupt
    /// transfer followed by a clean resend succeeds.
    pub fn get_or_decode(&self, bytes: &[u8]) -> Result<Arc<PatchBundle>, WireError> {
        if let Some(found) = self.entries().get(bytes) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        // Decode outside the lock: it hashes and parses the whole
        // payload, and other threads should not stall behind it.
        let decoded = Arc::new(PatchBundle::decode(bytes)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Two threads racing the same first decode both succeed; the
        // first insertion wins and both share its bundle.
        let mut entries = self.entries();
        Ok(Arc::clone(entries.entry(bytes.to_vec()).or_insert(decoded)))
    }

    fn entries(&self) -> MutexGuard<'_, BTreeMap<Vec<u8>, Arc<PatchBundle>>> {
        self.entries
            .lock()
            .expect("no thread panics holding the cache")
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (i.e. actual decodes) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct bundles cached.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// True when nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::{BundleTypes, PatchEntry};
    use kshot_crypto::sha256::DIGEST_LEN;

    fn bundle(id: &str) -> PatchBundle {
        PatchBundle {
            id: id.into(),
            kernel_version: "kv-test".into(),
            entries: vec![PatchEntry {
                name: "f".into(),
                taddr: 0x10_0000,
                tsize: 16,
                ftrace_offset: None,
                expected_pre_hash: [7; 32],
                body: vec![0xC3],
                relocs: vec![],
            }],
            new_functions: vec![],
            global_ops: vec![],
            segments: vec![],
            types: BundleTypes::default(),
        }
    }

    #[test]
    fn decodes_once_then_hits() {
        let cache = BundleCache::new();
        let bytes = bundle("CVE-A").encode();
        let a = cache.get_or_decode(&bytes).unwrap();
        let b = cache.get_or_decode(&bytes).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_bundles_get_distinct_entries() {
        let cache = BundleCache::new();
        let a = cache.get_or_decode(&bundle("CVE-A").encode()).unwrap();
        let b = cache.get_or_decode(&bundle("CVE-B").encode()).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn corrupt_bytes_are_rejected_and_not_cached() {
        let cache = BundleCache::new();
        let mut bytes = bundle("CVE-A").encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        assert!(cache.get_or_decode(&bytes).is_err());
        assert!(cache.is_empty());
        // The clean resend succeeds.
        bytes[mid] ^= 1;
        assert!(cache.get_or_decode(&bytes).is_ok());
    }

    #[test]
    fn a_cached_trailer_with_one_differing_byte_is_decoded_and_rejected() {
        let cache = BundleCache::new();
        let bytes = bundle("CVE-A").encode();
        let cached = cache.get_or_decode(&bytes).unwrap();
        for i in [0, bytes.len() / 2, bytes.len() - DIGEST_LEN - 1] {
            let mut forged = bytes.clone();
            forged[i] ^= 0x40;
            assert_eq!(forged.last_chunk::<DIGEST_LEN>(), bytes.last_chunk());
            assert_eq!(
                cache.get_or_decode(&forged).unwrap_err(),
                WireError::BadTag {
                    what: "integrity",
                    tag: 0
                },
                "byte {i}"
            );
        }
        // Never served from the cache: no hit, no new entry.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        assert!(Arc::ptr_eq(&cache.get_or_decode(&bytes).unwrap(), &cached));
    }

    #[test]
    fn a_blob_shorter_than_a_trailer_is_decoded_and_rejected() {
        let cache = BundleCache::new();
        cache.get_or_decode(&bundle("CVE-A").encode()).unwrap();
        assert_eq!(
            cache.get_or_decode(&[0u8; DIGEST_LEN - 1]).unwrap_err(),
            WireError::Truncated { what: "bundle" }
        );
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
    }

    #[test]
    fn shared_across_threads() {
        let cache = Arc::new(BundleCache::new());
        let bytes = Arc::new(bundle("CVE-A").encode());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let bytes = Arc::clone(&bytes);
                std::thread::spawn(move || cache.get_or_decode(&bytes).unwrap().id.clone())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), "CVE-A");
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits() + cache.misses(), 4);
    }
}
