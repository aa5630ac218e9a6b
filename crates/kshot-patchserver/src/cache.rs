//! Shared immutable bundle cache for fleet campaigns.
//!
//! A datacenter pushing one patch to N machines ships the *same*
//! encoded bundle N times. Decoding (and integrity-hashing) it once per
//! machine is pure waste: the bundle is immutable after verification,
//! so one decode can serve every session. [`BundleCache`] keys each
//! entry by the bundle's 32-byte integrity trailer, which the first
//! decode verified, and keeps the verified bytes beside the decoded
//! bundle. A later lookup is served from an entry only when its bytes
//! equal the stored ones, so a hit costs one comparison instead of a
//! SHA-256 pass; anything else decodes and verifies in full. Decoded
//! bundles are handed out as `Arc`s, so concurrent fleet workers share
//! one allocation.

use std::collections::btree_map::{BTreeMap, Entry as Slot};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kshot_crypto::sha256::DIGEST_LEN;

use crate::bundle::PatchBundle;
use crate::wire::WireError;

/// One verified bundle: the bytes its decode checked, and the decode.
#[derive(Debug)]
struct Verified {
    bytes: Vec<u8>,
    bundle: Arc<PatchBundle>,
}

/// A concurrent decode-once cache of verified patch bundles.
///
/// Cheap to clone conceptually — wrap it in an `Arc` and share it
/// across workers; all methods take `&self`.
#[derive(Debug, Default)]
pub struct BundleCache {
    entries: Mutex<BTreeMap<[u8; DIGEST_LEN], Arc<Verified>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The integrity trailer an encoded bundle ends with, if it is long
/// enough to carry one.
fn trailer(bytes: &[u8]) -> Option<[u8; DIGEST_LEN]> {
    bytes.last_chunk().copied()
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
        let key = trailer(bytes);
        let cached = key.and_then(|key| self.entries.lock().unwrap().get(&key).cloned());
        // Compare outside the lock: a megabyte compare should not stall
        // the other workers either.
        if let Some(found) = cached.filter(|v| v.bytes == bytes) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            kshot_telemetry::counter("cache.bundle_hit", 1);
            return Ok(Arc::clone(&found.bundle));
        }
        // Decode outside the lock: it hashes and parses the whole
        // payload, and other workers should not stall behind it.
        let decoded = Arc::new(PatchBundle::decode(bytes)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        kshot_telemetry::counter("cache.bundle_miss", 1);
        let key = key.expect("a decoded bundle carries its trailer");
        let verified = Arc::new(Verified {
            bytes: bytes.to_vec(),
            bundle: Arc::clone(&decoded),
        });
        match self.entries.lock().unwrap().entry(key) {
            Slot::Vacant(slot) => {
                slot.insert(verified);
                Ok(decoded)
            }
            // Two workers racing the same first decode both succeed;
            // the first insertion wins and both share its bundle. Other
            // bytes under the same trailer keep their own decode and
            // never displace the stored entry.
            Slot::Occupied(slot) if slot.get().bytes == bytes => Ok(Arc::clone(&slot.get().bundle)),
            Slot::Occupied(_) => Ok(decoded),
        }
    }

    /// Pre-seed the cache with an already-decoded bundle, keyed by its
    /// canonical encoding. Lets an orchestrator that *built* the bundle
    /// skip even the first decode.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversize`] if the bundle cannot be encoded.
    pub fn insert(&self, bundle: Arc<PatchBundle>) -> Result<(), WireError> {
        let bytes = bundle.try_encode()?;
        let key = trailer(&bytes).expect("an encoding ends with its trailer");
        self.entries
            .lock()
            .unwrap()
            .insert(key, Arc::new(Verified { bytes, bundle }));
        Ok(())
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
        self.entries.lock().unwrap().len()
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
            assert_eq!(trailer(&forged), trailer(&bytes));
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
        cache.insert(Arc::new(bundle("CVE-A"))).unwrap();
        assert_eq!(
            cache.get_or_decode(&[0u8; DIGEST_LEN - 1]).unwrap_err(),
            WireError::Truncated { what: "bundle" }
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn other_bytes_under_a_stored_trailer_get_their_own_decode() {
        // Stand in for a SHA-256 collision: file CVE-A's verified bytes
        // under CVE-B's trailer. CVE-B's lookup must decode its own
        // bytes, return that decode, and leave the stored entry alone.
        let cache = BundleCache::new();
        let a = bundle("CVE-A").encode();
        let b = bundle("CVE-B").encode();
        let stored = Arc::new(PatchBundle::decode(&a).unwrap());
        cache.entries.lock().unwrap().insert(
            trailer(&b).unwrap(),
            Arc::new(Verified {
                bytes: a,
                bundle: Arc::clone(&stored),
            }),
        );
        for _ in 0..2 {
            let got = cache.get_or_decode(&b).unwrap();
            assert_eq!(got.id, "CVE-B");
            assert!(!Arc::ptr_eq(&got, &stored));
        }
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 1));
        let kept = cache.entries.lock().unwrap()[&trailer(&b).unwrap()].clone();
        assert!(Arc::ptr_eq(&kept.bundle, &stored));
    }

    #[test]
    fn insert_preseeds_the_canonical_encoding() {
        let cache = BundleCache::new();
        let b = Arc::new(bundle("CVE-A"));
        cache.insert(Arc::clone(&b)).unwrap();
        let got = cache.get_or_decode(&b.encode()).unwrap();
        assert!(Arc::ptr_eq(&got, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
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
