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
//!   symmetric cipher for patch payloads. On x86_64 CPUs with AVX2 it
//!   computes eight blocks at once for every whole 512 bytes; all other
//!   bytes, and every byte elsewhere, go through the portable block
//!   function, which stays as the reference and the fallback.
//! * [`dh`] — finite-field Diffie–Hellman over configurable groups, with
//!   a SHA-256 KDF producing [`dh::SessionKey`]s. Each group raises its
//!   generator through a fixed-base comb and any other base through a
//!   4-bit window, both written once over the two arithmetics below.
//! * [`pseudo_mersenne`] — arithmetic modulo 2^512 − c (c < 2^32) that
//!   reduces with one multiply by `c`; the default group runs on it.
//! * [`montgomery`] — fixed-width Montgomery arithmetic on stack limb
//!   arrays, for every other modulus (MODP-2048 among them).
//! * [`bignum`] — the arbitrary-precision unsigned integer arithmetic
//!   (including Knuth Algorithm D division and square-and-multiply
//!   modular exponentiation) that parses groups, derives private
//!   exponents and serves as the reference for both arithmetics.
//! * [`sdbm`] — the cheap SDBM hash the paper mentions as a faster
//!   alternative to SHA-2 for patch verification (§VI-C2).
//! * [`counters`] — per-thread counts of the bytes SHA-256 and ChaCha20
//!   have processed, for tests that pin the passes a patch makes.
//!
//! **Security note**: these implementations are written for correctness and
//! clarity, not constant-time operation; the reproduction's threat-model
//! experiments are about *architectural* isolation (SMRAM/EPC), not side
//! channels, matching the paper's own scoping (§III). The DH comb and
//! window both index their tables with bits of the secret exponent,
//! and both skip the multiply for a zero index. For the same reason
//! the default DH group is not a safe-prime group (see
//! [`DhParams::default_group`]): peer values of small order pass
//! [`DhKeyPair::agree`]. The threat model does not rely on this;
//! [`DhParams::modp_2048`] is the safe-prime group.

pub mod bignum;
pub mod chacha;
pub mod counters;
pub mod dh;
mod field;
pub mod hmac;
pub mod montgomery;
pub mod pseudo_mersenne;
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
