//! Sealing enclave state to untrusted storage.
//!
//! Sealing binds a blob to the enclave measurement and the platform key:
//! only the same enclave identity on the same platform can unseal it.
//! KShot's helper uses this to persist its server-pairing state across
//! restarts without trusting the OS filesystem.

use kshot_crypto::chacha::ChaCha20;
use kshot_crypto::hmac::{hmac_sha256_parts, verify};

use crate::enclave::Enclave;
use crate::platform::SgxPlatform;

/// A sealed blob living in untrusted storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    measurement: [u8; 32],
    nonce: [u8; 12],
    ciphertext: Vec<u8>,
    mac: [u8; 32],
}

/// Sealing/unsealing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SealError {
    /// MAC check failed: tampered blob, wrong enclave, or wrong platform.
    Unsealable,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sealed blob cannot be opened by this enclave/platform")
    }
}

impl std::error::Error for SealError {}

/// Seal `plaintext` for the given enclave. The `nonce_seed` must be
/// unique per seal operation under one enclave identity.
pub fn seal<S>(
    platform: &SgxPlatform,
    enclave: &Enclave<S>,
    plaintext: &[u8],
    nonce_seed: u64,
) -> SealedBlob {
    let measurement = enclave.measurement();
    let key = platform_sealing_key(platform, &measurement);
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&nonce_seed.to_le_bytes());
    let mut ciphertext = plaintext.to_vec();
    ChaCha20::new(&key, &nonce).apply(&mut ciphertext);
    let mac = seal_mac(&key, &measurement, &nonce, &ciphertext);
    SealedBlob {
        measurement,
        nonce,
        ciphertext,
        mac,
    }
}

/// Unseal a blob for the given enclave.
///
/// # Errors
///
/// [`SealError::Unsealable`] when the blob was sealed by a different
/// enclave identity, a different platform, or was tampered with.
pub fn unseal<S>(
    platform: &SgxPlatform,
    enclave: &Enclave<S>,
    blob: &SealedBlob,
) -> Result<Vec<u8>, SealError> {
    let measurement = enclave.measurement();
    if blob.measurement != measurement {
        return Err(SealError::Unsealable);
    }
    let key = platform_sealing_key(platform, &measurement);
    let expected = seal_mac(&key, &blob.measurement, &blob.nonce, &blob.ciphertext);
    if !verify(&expected, &blob.mac) {
        return Err(SealError::Unsealable);
    }
    let mut plaintext = blob.ciphertext.clone();
    ChaCha20::new(&key, &blob.nonce).apply(&mut plaintext);
    Ok(plaintext)
}

fn platform_sealing_key(platform: &SgxPlatform, measurement: &[u8; 32]) -> [u8; 32] {
    platform.sealing_key(measurement)
}

fn seal_mac(key: &[u8; 32], measurement: &[u8; 32], nonce: &[u8; 12], ct: &[u8]) -> [u8; 32] {
    hmac_sha256_parts(key, &[measurement, nonce, ct])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let mut p = SgxPlatform::new(b"fuse");
        let e = p.create_enclave(b"helper", ());
        let blob = seal(&p, &e, b"pairing state", 1);
        assert_eq!(unseal(&p, &e, &blob).unwrap(), b"pairing state");
    }

    #[test]
    fn different_enclave_cannot_unseal() {
        let mut p = SgxPlatform::new(b"fuse");
        let e1 = p.create_enclave(b"helper-v1", ());
        let e2 = p.create_enclave(b"helper-v2", ());
        let blob = seal(&p, &e1, b"secret", 1);
        assert_eq!(unseal(&p, &e2, &blob), Err(SealError::Unsealable));
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let mut p1 = SgxPlatform::new(b"fuse-1");
        let mut p2 = SgxPlatform::new(b"fuse-2");
        let e1 = p1.create_enclave(b"helper", ());
        let e2 = p2.create_enclave(b"helper", ()); // same measurement
        let blob = seal(&p1, &e1, b"secret", 1);
        assert_eq!(unseal(&p2, &e2, &blob), Err(SealError::Unsealable));
    }

    #[test]
    fn tampering_detected() {
        let mut p = SgxPlatform::new(b"fuse");
        let e = p.create_enclave(b"helper", ());
        let mut blob = seal(&p, &e, b"secret", 1);
        blob.ciphertext[0] ^= 1;
        assert_eq!(unseal(&p, &e, &blob), Err(SealError::Unsealable));
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let mut p = SgxPlatform::new(b"fuse");
        let e = p.create_enclave(b"helper", ());
        let blob = seal(&p, &e, b"visible-secret", 1);
        assert_ne!(blob.ciphertext, b"visible-secret");
        // Distinct nonce seeds give distinct ciphertexts.
        let blob2 = seal(&p, &e, b"visible-secret", 2);
        assert_ne!(blob.ciphertext, blob2.ciphertext);
    }
}
