//! The SGX platform: enclave creation, measurement, and local attestation.

use kshot_crypto::hmac::{hmac_sha256_parts, verify};
use kshot_crypto::sha256::sha256;

use crate::enclave::Enclave;

/// The per-machine SGX platform. Holds the platform sealing/attestation
/// secret (the role of the hardware-fused keys on real silicon).
pub struct SgxPlatform {
    key: [u8; 32],
    next_id: u64,
}

impl std::fmt::Debug for SgxPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SgxPlatform(id_ctr={}, key=<hidden>)", self.next_id)
    }
}

impl SgxPlatform {
    /// Initialise the platform from caller-supplied entropy (the
    /// hardware fuse analogue).
    pub fn new(entropy: &[u8]) -> Self {
        let mut key = [0u8; 32];
        key.copy_from_slice(&sha256(entropy));
        Self { key, next_id: 1 }
    }

    /// Create an enclave from its code identity and initial private
    /// state. The measurement is the SHA-256 of the code identity
    /// (MRENCLAVE analogue).
    pub fn create_enclave<S>(&mut self, code_identity: &[u8], state: S) -> Enclave<S> {
        let id = self.next_id;
        self.next_id += 1;
        Enclave::new_internal(id, sha256(code_identity), state)
    }

    /// Produce a local-attestation report binding `report_data` to the
    /// enclave's measurement under the platform key (EREPORT analogue).
    pub fn report<S>(&self, enclave: &Enclave<S>, report_data: &[u8]) -> Report {
        let measurement = enclave.measurement();
        Report {
            measurement,
            report_data: report_data.to_vec(),
            mac: hmac_sha256_parts(&self.key, &[&measurement, report_data]),
        }
    }

    /// Verify a report produced on *this* platform.
    pub fn verify_report(&self, report: &Report) -> bool {
        let mac = hmac_sha256_parts(&self.key, &[&report.measurement, &report.report_data]);
        verify(&mac, &report.mac)
    }

    /// Platform sealing key material bound to a measurement
    /// (EGETKEY analogue — each enclave identity gets a distinct key).
    pub(crate) fn sealing_key(&self, measurement: &[u8; 32]) -> [u8; 32] {
        hmac_sha256_parts(&self.key, &[b"kshot-sgx-seal-v1", measurement])
    }
}

/// A local attestation report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The attested enclave's measurement.
    pub measurement: [u8; 32],
    /// Caller-chosen data bound into the report (e.g. a DH public key,
    /// which is how the patch server verifies the enclave's identity and
    /// defeats MITM per paper §V-C).
    pub report_data: Vec<u8>,
    /// Platform MAC.
    pub mac: [u8; 32],
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_code_identity_hash() {
        let mut p = SgxPlatform::new(b"fuse entropy");
        let e = p.create_enclave(b"helper-v1", ());
        assert_eq!(e.measurement(), sha256(b"helper-v1"));
        let e2 = p.create_enclave(b"helper-v2", ());
        assert_ne!(e.measurement(), e2.measurement());
        assert_ne!(e.id(), e2.id());
    }

    #[test]
    fn report_verifies_on_same_platform() {
        let mut p = SgxPlatform::new(b"fuse");
        let e = p.create_enclave(b"helper", ());
        let r = p.report(&e, b"dh-public-bytes");
        assert!(p.verify_report(&r));
    }

    #[test]
    fn report_fails_on_other_platform() {
        let mut p1 = SgxPlatform::new(b"fuse-1");
        let p2 = SgxPlatform::new(b"fuse-2");
        let e = p1.create_enclave(b"helper", ());
        let r = p1.report(&e, b"data");
        assert!(!p2.verify_report(&r));
    }

    #[test]
    fn tampered_report_rejected() {
        let mut p = SgxPlatform::new(b"fuse");
        let e = p.create_enclave(b"helper", ());
        let mut r = p.report(&e, b"data");
        r.report_data.push(0);
        assert!(!p.verify_report(&r));
        let mut r2 = p.report(&e, b"data");
        r2.measurement[0] ^= 1;
        assert!(!p.verify_report(&r2));
    }

    #[test]
    fn debug_hides_platform_key() {
        let p = SgxPlatform::new(b"secret entropy");
        assert!(format!("{p:?}").contains("<hidden>"));
    }
}
