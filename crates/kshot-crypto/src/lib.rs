#![warn(missing_docs)]

//! # kshot-crypto — cryptographic primitives for the KShot reproduction
//!
//! The KShot paper encrypts all patch material in transit (remote patch
//! server → SGX enclave → shared memory → SMM handler) and verifies patch
//! integrity in SMM with a SHA-2 hash (paper §V-B/§V-C). Session keys are
//! established with Diffie–Hellman and rotated before every patch to defeat
//! replay.
//!
//! This crate implements every primitive from scratch (no external crypto
//! dependency), because the primitives themselves are substrate the
//! reproduction must supply:
//!
//! * [`sha256`](mod@sha256) — FIPS 180-4 SHA-256 with an incremental hasher.
//!   On x86_64 CPUs with the SHA extensions it compresses through SHA-NI;
//!   elsewhere it runs the portable compressor, which stays as the
//!   reference.
//! * [`hmac`] — HMAC-SHA256 (RFC 2104), used for package authentication.
//! * [`chacha`] — a ChaCha20 stream cipher (RFC 8439 core), used as the
//!   symmetric cipher for patch payloads.
//! * [`dh`] — finite-field Diffie–Hellman over configurable groups, with
//!   a SHA-256 KDF producing [`dh::SessionKey`]s.
//! * [`montgomery`] — fixed-width Montgomery exponentiation on stack
//!   limb arrays, which every DH exponentiation runs through.
//! * [`bignum`] — the arbitrary-precision unsigned integer arithmetic
//!   (including Knuth Algorithm D division and square-and-multiply
//!   modular exponentiation) that parses groups, derives private
//!   exponents and serves as the reference for [`montgomery`].
//! * [`sdbm`] — the cheap SDBM hash the paper mentions as a faster
//!   alternative to SHA-2 for patch verification (§VI-C2).
//!
//! **Security note**: these implementations are written for correctness and
//! clarity, not constant-time operation; the reproduction's threat-model
//! experiments are about *architectural* isolation (SMRAM/EPC), not side
//! channels, matching the paper's own scoping (§III). For the same reason
//! the default DH group is not a safe-prime group (see
//! [`DhParams::default_group`]): peer values of small order pass
//! [`DhKeyPair::agree`]. The threat model does not rely on this;
//! [`DhParams::modp_2048`] is the safe-prime group.

pub mod bignum;
pub mod chacha;
pub mod dh;
pub mod hmac;
pub mod montgomery;
pub mod sdbm;
pub mod sha256;

pub use bignum::BigUint;
pub use chacha::ChaCha20;
pub use dh::{DhKeyPair, DhParams, SessionKey};
pub use sha256::{sha256, Sha256};

#[cfg(test)]
mod tests {
    #[test]
    fn reexports_compile() {
        let _ = crate::sha256(b"kshot");
        let _ = crate::sdbm::sdbm(b"kshot");
    }
}
