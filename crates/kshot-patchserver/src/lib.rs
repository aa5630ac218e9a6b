#![warn(missing_docs)]

//! # kshot-patchserver — the remote trusted patch server
//!
//! Paper §IV-A/§V-A: an independent, trusted system that receives the
//! target's OS information (version, configuration, compiler flags),
//! rebuilds pre- and post-patch kernel binaries with identical flags,
//! extracts the changed functions, and ships a binary patch bundle back
//! to the SGX enclave over an encrypted channel.
//!
//! * [`patch`] — [`patch::SourcePatch`], the source-level edit a CVE fix
//!   is expressed as (replacement functions, new functions/globals,
//!   global value changes).
//! * [`server`] — [`server::PatchServer`], which runs the build → diff →
//!   analyze → extract pipeline and enforces the layout-compatibility
//!   rules (append-only globals; resizes are rejected as the paper's
//!   "complex data structure changes", §VIII).
//! * [`bundle`] — [`bundle::PatchBundle`], the serialized artefact with
//!   per-function target addresses, pre-image hashes, bodies, and call
//!   relocations.
//! * [`channel`] — [`channel::SecureChannel`], DH-keyed, HMAC'd,
//!   replay-protected transport, plus [`channel::Tamper`] adversaries for
//!   the security experiments.
//! * [`wire`] — the little binary reader/writer the bundle and the Fig. 3
//!   patch package share.
//! * [`cache`] — [`cache::BundleCache`], the decode-once shared bundle
//!   cache fleet campaigns distribute one verified bundle through.

pub mod bundle;
pub mod cache;
pub mod channel;
pub mod patch;
pub mod server;
pub mod wire;

pub use bundle::{GlobalOp, PatchBundle, PatchEntry, RelocTarget};
pub use cache::BundleCache;
pub use channel::{ChannelError, Frame, FrameLayout, SecureChannel, Tamper};
pub use patch::SourcePatch;
pub use server::{PatchServer, ServerError};
