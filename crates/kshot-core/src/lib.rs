#![warn(missing_docs)]

//! # kshot-core — the KShot live kernel patching system
//!
//! The paper's primary contribution (§IV/§V): live-patch a running,
//! possibly compromised kernel using two hardware TEEs —
//!
//! * an **SGX enclave** in a userspace helper prepares patches (fetch
//!   from the remote server, integrity check, `mem_X` placement and call
//!   relocation, packaging, encryption), and
//! * an **SMM handler** applies them while the OS is paused by an SMI
//!   (key generation, decryption, verification, Type 3 global edits,
//!   body placement, trampoline installation), with hardware
//!   save/restore standing in for checkpointing.
//!
//! Module map:
//!
//! * [`reserved`] — the boot-reserved 18 MB region split into `mem_RW`
//!   (key exchange), `mem_W` (write-only encrypted staging) and `mem_X`
//!   (execute-only patched code), paper §V-B.
//! * [`package`] — the Fig. 3 patch package (42-byte header per record)
//!   that crosses the enclave→SMM shared memory.
//! * [`sgx_prep`] — the helper application and its enclave.
//! * [`smm`] — the SMM-resident patch handler, including the SMRAM-
//!   serialized rollback store and key state.
//! * [`introspect`] — SMM-based protection: trampoline/`mem_X` integrity
//!   checking, malicious-reversion repair, DOS detection (paper §V-D).
//! * [`kshot`] — the [`KShot`] orchestrator tying the pipeline together
//!   and producing per-stage timing reports (the paper's Tables II/III).
//!
//! ```no_run
//! use kshot_core::KShot;
//! # fn get_kernel() -> kshot_kernel::Kernel { unimplemented!() }
//! # fn get_server() -> kshot_patchserver::PatchServer { unimplemented!() }
//! # fn get_patch() -> kshot_patchserver::SourcePatch { unimplemented!() }
//! let kernel = get_kernel();
//! let mut kshot = KShot::install(kernel, 42).unwrap();
//! let report = kshot.live_patch(&get_server(), &get_patch()).unwrap();
//! println!("paused the OS for {}", report.smm.total());
//! ```

pub mod introspect;
pub mod kshot;
pub mod package;
pub mod reserved;
pub mod sgx_prep;
pub mod smm;

pub use introspect::ActiveSite;
pub use kshot::{batch_bundle, KShot, KShotError, PatchReport, SgxTimings, SmmTimings};
pub use package::{PatchPackage, VerificationAlgorithm};
pub use reserved::ReservedLayout;
pub use smm::{
    expected_handler_measurement, JournalState, Recovery, RollbackFailure, RollbackOutcome,
    SegmentOutcome,
};
