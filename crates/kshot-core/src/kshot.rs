//! The KShot orchestrator: the full Fig. 2 pipeline.

use std::borrow::Borrow;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use kshot_crypto::dh::{DhKeyPair, DhParams};
use kshot_enclave::SgxPlatform;
use kshot_kernel::Kernel;
use kshot_machine::flight::SmiCause;
use kshot_machine::{MachineError, SimTime};
use kshot_patchserver::bundle::PatchBundle;
use kshot_patchserver::channel::SecureChannel;
use kshot_patchserver::{PatchServer, ServerError, SourcePatch};

use crate::introspect::{self, ActiveSite, DosProbe, Violation};
use crate::package::VerificationAlgorithm;
use crate::reserved::ReservedLayout;
use crate::sgx_prep::{Helper, SgxError};
use crate::smm::{DhGroup, Recovery, RollbackOutcome, SegmentOutcome, SmmError, SmmHandler};

pub use crate::sgx_prep::SgxTimings;
pub use crate::smm::SmmTimings;

/// Everything measured about one live patch (feeds Tables II/III and
/// Figures 4/5 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchReport {
    /// Patch identifier (CVE).
    pub id: String,
    /// SGX-side stage timings (OS keeps running).
    pub sgx: SgxTimings,
    /// SMM-side stage timings (OS paused).
    pub smm: SmmTimings,
    /// Total plaintext payload bytes.
    pub payload_size: usize,
    /// Ciphertext bytes staged in `mem_W`.
    pub staged_size: usize,
    /// Trampolines installed (implicated functions patched).
    pub trampolines: usize,
    /// Global writes performed (Type 3 edits).
    pub global_writes: usize,
    /// Names of the patched functions.
    pub patched_functions: Vec<String>,
    /// Patch type flags (t1, t2, t3).
    pub types: (bool, bool, bool),
    /// Per-CVE sub-reports: one entry per journal segment (trampolines,
    /// global writes, undo slots). A single-CVE patch carries exactly
    /// one segment with its own id; a batch carries one per CVE, in
    /// application order.
    pub segments: Vec<SegmentOutcome>,
}

impl PatchReport {
    /// Total wall time on the target (SGX prep + SMM pause).
    pub fn total(&self) -> SimTime {
        self.sgx.total() + self.smm.total()
    }
}

/// Orchestrator failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KShotError {
    /// The patch server refused or failed to build.
    Server(ServerError),
    /// SGX-side preparation failed.
    Sgx(SgxError),
    /// SMM-side application failed; the OS was resumed. A fault inside
    /// the journaled apply window leaves the journal open, and
    /// [`KShot::recover`] unwinds the torn segment while keeping any
    /// committed one.
    Smm(SmmError),
    /// Machine-level fault.
    Machine(MachineError),
    /// The patch server rejected the enclave's attestation.
    AttestationFailed,
    /// Consistency mode: a task is executing inside a target function
    /// and quiescence was not reached within the slice budget.
    TargetBusy {
        /// The busy target function.
        function: String,
    },
    /// Batch mode: two patches in the batch modify the same function
    /// (patched entry or added function).
    BatchOverlap {
        /// The doubly-patched function.
        function: String,
    },
    /// Batch mode: two patches in the batch write overlapping global
    /// data ranges — the merge would silently corrupt whichever lands
    /// first.
    BatchGlobalOverlap {
        /// Symbol name of the second (overlapping) write.
        name: String,
        /// Its address.
        addr: u64,
    },
    /// Batch mode: an empty patch set.
    EmptyBatch,
    /// A rollback stopped partway. `restored` lists the sites already
    /// reverted (their records are deactivated); the remainder is rolled
    /// forward by [`KShot::recover`] on the next SMI.
    RollbackIncomplete {
        /// The underlying SMM failure.
        error: SmmError,
        /// Sites restored before the failure.
        restored: Vec<u64>,
    },
    /// The patch committed and is applied, but a later write of the same
    /// SMI failed ([`SmmError::Committed`]). `report` describes the
    /// applied patch (it is in [`KShot::history`] too); [`KShot::recover`]
    /// heals the published key material. Retrying would re-apply a patch
    /// that is already live.
    Committed {
        /// The applied patch.
        report: Box<PatchReport>,
        /// The failure after the commit point.
        error: SmmError,
    },
}

impl fmt::Display for KShotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KShotError::Server(e) => write!(f, "patch server: {e}"),
            KShotError::Sgx(e) => write!(f, "SGX preparation: {e}"),
            KShotError::Smm(e) => write!(f, "SMM application: {e}"),
            KShotError::Machine(e) => write!(f, "machine: {e}"),
            KShotError::AttestationFailed => write!(f, "enclave attestation rejected"),
            KShotError::TargetBusy { function } => {
                write!(f, "task executing inside `{function}`; no safe patch point")
            }
            KShotError::BatchOverlap { function } => {
                write!(f, "batch patches `{function}` twice; split the batch")
            }
            KShotError::BatchGlobalOverlap { name, addr } => {
                write!(
                    f,
                    "batch writes global `{name}` at {addr:#x} twice; split the batch"
                )
            }
            KShotError::EmptyBatch => write!(f, "empty patch batch"),
            KShotError::RollbackIncomplete { error, restored } => {
                write!(
                    f,
                    "rollback incomplete after {} site(s): {error}; run recover()",
                    restored.len()
                )
            }
            KShotError::Committed { report, error } => {
                write!(
                    f,
                    "patch {} committed, then SMM failed: {error}; run recover()",
                    report.id
                )
            }
        }
    }
}

impl std::error::Error for KShotError {}

impl From<ServerError> for KShotError {
    fn from(e: ServerError) -> Self {
        KShotError::Server(e)
    }
}

impl From<SgxError> for KShotError {
    fn from(e: SgxError) -> Self {
        KShotError::Sgx(e)
    }
}

impl From<SmmError> for KShotError {
    fn from(e: SmmError) -> Self {
        KShotError::Smm(e)
    }
}

impl From<MachineError> for KShotError {
    fn from(e: MachineError) -> Self {
        KShotError::Machine(e)
    }
}

/// The installed KShot system on a target machine.
pub struct KShot {
    kernel: Kernel,
    platform: SgxPlatform,
    helper: Helper,
    smm: SmmHandler,
    reserved: ReservedLayout,
    params: &'static DhParams,
    algorithm: VerificationAlgorithm,
    rng: StdRng,
    history: Vec<PatchReport>,
}

impl fmt::Debug for KShot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KShot(kernel={}, patches={})",
            self.kernel.version(),
            self.history.len()
        )
    }
}

impl KShot {
    /// Install KShot on a booted kernel: claim the reserved region, set
    /// its page attributes, create the helper enclave, and install the
    /// SMM handler via a first SMI.
    ///
    /// # Errors
    ///
    /// Machine/SMM faults during installation.
    pub fn install(kernel: Kernel, seed: u64) -> Result<KShot, KShotError> {
        Self::with_options(
            kernel,
            seed,
            DhGroup::Default,
            VerificationAlgorithm::Sha256,
        )
    }

    /// [`KShot::install`] with an explicit DH group and verification
    /// algorithm (the SDBM ablation uses this).
    ///
    /// # Errors
    ///
    /// Machine/SMM faults during installation.
    pub fn with_options(
        mut kernel: Kernel,
        seed: u64,
        group: DhGroup,
        algorithm: VerificationAlgorithm,
    ) -> Result<KShot, KShotError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let reserved = ReservedLayout::from_machine(kernel.machine());
        reserved.install(kernel.machine_mut())?;
        let mut platform = SgxPlatform::new(&rng.gen::<[u8; 32]>());
        let helper = Helper::create(&mut platform);
        let machine = kernel.machine_mut();
        machine.declare_smi_cause(SmiCause::Install);
        machine.raise_smi()?;
        let smm = SmmHandler::install(machine, &reserved, &rng.gen::<[u8; 32]>(), group)
            .inspect_err(|_| {
                let _ = machine.rsm();
            })?;
        machine.rsm()?;
        Ok(KShot {
            kernel,
            platform,
            helper,
            smm,
            reserved,
            params: group.params(),
            algorithm,
            rng,
            history: Vec::new(),
        })
    }

    /// The running kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (workloads, exploit checks, attackers).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }

    /// The reserved-region layout.
    pub fn reserved(&self) -> &ReservedLayout {
        &self.reserved
    }

    /// Extra physical memory KShot consumes (the paper's Table V
    /// "Memory" column: 18 MB).
    pub fn memory_overhead(&self) -> u64 {
        self.reserved.total()
    }

    /// Reports of every applied patch, in order.
    pub fn history(&self) -> &[PatchReport] {
        &self.history
    }

    /// Full live-patch pipeline against a patch server (paper Fig. 2).
    ///
    /// # Errors
    ///
    /// Any [`KShotError`]; the OS is always resumed. After
    /// [`KShotError::Committed`] the patch is applied and
    /// [`KShot::recover`] heals the published key material. After any
    /// other SMM-side failure, [`KShot::recover`] leaves the kernel as the
    /// journal committed it: unpatched, or carrying a batch's committed
    /// segments.
    pub fn live_patch(
        &mut self,
        server: &PatchServer,
        patch: &SourcePatch,
    ) -> Result<PatchReport, KShotError> {
        // 1. OS info → server build (runs on the server's hardware).
        let mut span =
            kshot_telemetry::span_at("kshot.live_patch", self.kernel.machine().now().as_ns());
        span.field("patch", patch.id.as_str());
        let info = self.kernel.info();
        let build = server.build_patch(&info, patch)?;
        let report = self.live_patch_bundle(build.bundle)?;
        span.end_at(self.kernel.machine().now().as_ns());
        Ok(report)
    }

    /// Lower-level entry: apply a pre-built bundle (benchmarks drive
    /// this with synthetic bundles). Encodes it, then runs
    /// [`KShot::live_patch_wire`] on the encoding. The bundle is only
    /// read, so a borrow works as well as an owned bundle.
    ///
    /// # Errors
    ///
    /// As [`KShot::live_patch`].
    pub fn live_patch_bundle(
        &mut self,
        bundle: impl Borrow<PatchBundle>,
    ) -> Result<PatchReport, KShotError> {
        let wire = bundle
            .borrow()
            .try_encode()
            .map_err(|e| KShotError::Sgx(SgxError::Wire(e)))?;
        self.live_patch_wire(&wire)
    }

    /// Apply an encoded bundle: Fig. 2 from the server's seal onward.
    /// The server seals `wire` as it is, so a fleet that holds a bundle
    /// encoded pays no per-machine re-encode. The report's id, types and
    /// patched functions come from the enclave's own checked decode of
    /// what it received.
    ///
    /// # Errors
    ///
    /// As [`KShot::live_patch`]; bytes that do not decode to a bundle
    /// fail in the enclave with [`SgxError::Wire`].
    pub fn live_patch_wire(&mut self, wire: &[u8]) -> Result<PatchReport, KShotError> {
        let mut span = kshot_telemetry::span_at(
            "kshot.live_patch_bundle",
            self.kernel.machine().now().as_ns(),
        );
        // The server labels the span with the id its bundle names; the
        // report takes the id from the enclave's checked decode.
        span.field("patch", PatchBundle::peek_id(wire).unwrap_or_default());
        // 2. Secure session: enclave ↔ server, with attestation. Runs on
        // server/enclave hardware, so the simulated machine clock does
        // not advance — the session span is wall-clock only.
        let session_span = kshot_telemetry::span("sgx.session");
        let e_entropy: [u8; 32] = self.rng.gen();
        let s_entropy: [u8; 32] = self.rng.gen();
        let enclave_pub = self.helper.begin_server_session(self.params, &e_entropy)?;
        // Server side: verify the enclave before answering (MITM gate).
        // `phase.*` spans feed the phase-breakdown profiler
        // (`kshot_telemetry::PhaseProfile`); attestation runs on
        // server/enclave hardware, so this phase is wall-clock only.
        let attest_phase = kshot_telemetry::span("phase.attest");
        let report = self
            .helper
            .attestation(&self.platform, &enclave_pub.to_bytes_be());
        let expected = kshot_crypto::sha256(crate::sgx_prep::HELPER_CODE_IDENTITY);
        if !self.platform.verify_report(&report)
            || report.measurement != expected
            || report.report_data != enclave_pub.to_bytes_be()
        {
            kshot_telemetry::event("sgx.attestation_failed");
            return Err(KShotError::AttestationFailed);
        }
        attest_phase.end();
        let server_kp = DhKeyPair::from_entropy(self.params, &s_entropy)
            .map_err(|e| KShotError::Sgx(SgxError::BadSmmPublic(e)))?;
        let server_key = server_kp
            .agree(self.params, &enclave_pub)
            .map_err(|e| KShotError::Sgx(SgxError::BadSmmPublic(e)))?;
        let mut server_channel = SecureChannel::new(server_key);
        self.helper
            .finish_server_session(self.params, server_kp.public())?;
        session_span.end();
        // 3. Server seals the bundle; enclave fetches it.
        let frame = server_channel.seal(wire);
        let machine = self.kernel.machine_mut();
        let fetched = self.helper.fetch_bundle(machine, frame)?;
        // 4. Preprocess + stage.
        let smm_entropy: [u8; 32] = self.rng.gen();
        let stage = self.helper.prepare_and_stage(
            machine,
            &self.reserved,
            self.params,
            self.algorithm,
            &smm_entropy,
        )?;
        // 5. SMI → SMM handler → RSM. Always resume the OS. The window
        // span covers the full OS pause: SMM entry through RSM.
        let fresh: [u8; 32] = self.rng.gen();
        let smm_window = kshot_telemetry::span_at("smm.window", machine.now().as_ns());
        machine.declare_smi_cause(SmiCause::Patch);
        machine.raise_smi()?;
        let outcome = self.smm.handle_patch(machine, &self.reserved, &fresh);
        let resume_phase = kshot_telemetry::span_at("phase.resume", machine.now().as_ns());
        machine.rsm()?;
        resume_phase.end_at(machine.now().as_ns());
        smm_window.end_at(machine.now().as_ns());
        let end_sim_ns = machine.now().as_ns();
        // A failure after the journal committed leaves the patch
        // applied: report it as applied, then surface the failure.
        let (outcome, late) = match outcome {
            Ok(outcome) => (outcome, None),
            Err(SmmError::Committed { outcome, error }) => (*outcome, Some(*error)),
            Err(e) => return Err(e.into()),
        };
        kshot_telemetry::counter("kshot.patches_applied", 1);
        span.field("trampolines", outcome.trampolines as u64);
        span.field("global_writes", outcome.global_writes as u64);
        span.end_at(end_sim_ns);
        let report = PatchReport {
            id: fetched.id,
            sgx: SgxTimings {
                fetch: fetched.fetch,
                preprocess: stage.preprocess,
                pass: stage.pass,
            },
            smm: outcome.timings,
            payload_size: stage.payload_size,
            staged_size: stage.staged_size,
            trampolines: outcome.trampolines,
            global_writes: outcome.global_writes,
            patched_functions: fetched.patched_functions,
            types: fetched.types,
            segments: outcome.segments,
        };
        self.history.push(report.clone());
        match late {
            None => Ok(report),
            Some(error) => Err(KShotError::Committed {
                report: Box::new(report),
                error,
            }),
        }
    }

    /// Apply several CVE patches in **one** SMM round trip.
    ///
    /// The paper's patch set `P = {p1 … pn}` already carries multiple
    /// functions per SMI; batching extends this across CVEs so the
    /// fixed pause costs (switching + key generation, ≈40 µs) are paid
    /// once for the whole set — the natural "patch Tuesday" deployment.
    ///
    /// Bundles are built through the server's memo
    /// ([`PatchServer::build_patch_cached`]), so machines batching the
    /// same patches compile each one once. A fleet campaign holds
    /// encoded bundles instead: it merges them once per campaign with
    /// [`batch_bundle`] and hands every machine the merge's encoding.
    ///
    /// # Errors
    ///
    /// As [`KShot::live_patch_batch_bundles`], plus server build
    /// failures.
    pub fn live_patch_batch(
        &mut self,
        server: &PatchServer,
        patches: &[SourcePatch],
    ) -> Result<PatchReport, KShotError> {
        let info = self.kernel.info();
        let mut bundles = Vec::with_capacity(patches.len());
        for patch in patches {
            bundles.push(server.build_patch_cached(&info, patch)?);
        }
        self.live_patch_batch_bundles(bundles)
    }

    /// Merge pre-built bundles with [`batch_bundle`] and apply the merge
    /// in a single SMI. The merged bundle carries a per-CVE segment
    /// table, so the SMM handler journals each CVE as its own
    /// crash-consistency unit: [`KShot::rollback_last`] pops one CVE,
    /// [`KShot::recover`] after a mid-batch fault preserves completed
    /// CVEs and unwinds only the interrupted one, and the returned
    /// [`PatchReport::segments`] itemizes each CVE's contribution.
    ///
    /// # Errors
    ///
    /// As [`batch_bundle`], then any [`KShot::live_patch`] error.
    pub fn live_patch_batch_bundles<B: Borrow<PatchBundle>>(
        &mut self,
        bundles: impl IntoIterator<Item = B>,
    ) -> Result<PatchReport, KShotError> {
        let merged = batch_bundle(self.kernel.version(), bundles)?;
        self.live_patch_bundle(merged)
    }

    /// Consistency-aware live patch (the paper's §VIII future work:
    /// "construct a consistency model and safely choose patch tasks").
    ///
    /// KShot's trampolines take effect on the *next invocation*, so a
    /// task currently executing a target function keeps running the old
    /// code to completion. For patches whose old/new versions must not
    /// mix (cross-function lock-order or protocol changes), this variant
    /// refuses to fire the SMI while any ready task's saved PC lies
    /// inside a target function, optionally running scheduler slices
    /// (up to `max_slices` of `slice_fuel` instructions) to reach a safe
    /// point first.
    ///
    /// # Errors
    ///
    /// [`KShotError::TargetBusy`] if quiescence is not reached; all
    /// [`KShot::live_patch`] errors otherwise.
    pub fn live_patch_consistent(
        &mut self,
        server: &PatchServer,
        patch: &SourcePatch,
        max_slices: u32,
        slice_fuel: u64,
    ) -> Result<PatchReport, KShotError> {
        let info = self.kernel.info();
        let build = server.build_patch(&info, patch)?;
        let ranges: Vec<(String, u64, u64)> = build
            .bundle
            .entries
            .iter()
            .map(|e| (e.name.clone(), e.taddr, e.taddr + e.tsize))
            .collect();
        let mut slices_left = max_slices;
        loop {
            match self.busy_target(&ranges) {
                None => break,
                Some(function) => {
                    if slices_left == 0 {
                        return Err(KShotError::TargetBusy { function });
                    }
                    slices_left -= 1;
                    // Drive every ready task one slice toward a safe
                    // point (an operator would simply wait; the effect
                    // is the same).
                    for id in self.kernel.task_ids() {
                        let _ = self.kernel.run_task_slice(id, slice_fuel);
                    }
                }
            }
        }
        self.live_patch_bundle(build.bundle)
    }

    /// The first target function with a ready task parked inside it.
    fn busy_target(&self, ranges: &[(String, u64, u64)]) -> Option<String> {
        for id in self.kernel.task_ids() {
            let task = self.kernel.task(id).expect("listed id");
            if !matches!(task.state, kshot_kernel::TaskState::Ready) {
                continue;
            }
            let pc = task.cpu.pc;
            for (name, lo, hi) in ranges {
                if pc >= *lo && pc < *hi {
                    return Some(name.clone());
                }
            }
        }
        None
    }

    /// Roll back the most recent patch (paper §V-C "Patch
    /// Rollback/Update"): restores the original entry bytes of every
    /// function the last package trampolined.
    ///
    /// Batched applies journal per CVE, so after
    /// [`KShot::live_patch_batch`] this pops exactly the **last CVE**
    /// of the batch (call repeatedly to unwind the whole batch),
    /// not the batch as a single unit.
    ///
    /// # Contract
    ///
    /// The returned [`RollbackOutcome`] distinguishes sites whose
    /// original bytes were restored ([`RollbackOutcome::restored`]) from
    /// `NOT_REVERTIBLE` data writes that could only be *deactivated*
    /// ([`RollbackOutcome::skipped`]). A non-empty `skipped` means the
    /// kernel still carries those data edits — the rollback of the
    /// code paths succeeded, but reaching a fully consistent
    /// configuration requires re-patching. Each skipped site bumps the
    /// `kshot.rollback_skipped` telemetry counter.
    ///
    /// # Errors
    ///
    /// * [`KShotError::Smm`] with [`SmmError::RollbackEmpty`] when no
    ///   patch is active (nothing was touched).
    /// * [`KShotError::RollbackIncomplete`] when the rollback stopped
    ///   after restoring some sites; [`KShot::recover`] rolls the
    ///   remainder forward.
    pub fn rollback_last(&mut self) -> Result<RollbackOutcome, KShotError> {
        let machine = self.kernel.machine_mut();
        let mut span = kshot_telemetry::span_at("kshot.rollback", machine.now().as_ns());
        machine.declare_smi_cause(SmiCause::Rollback);
        machine.raise_smi()?;
        let result = self.smm.handle_rollback(machine);
        machine.rsm()?;
        span.set_sim_end(machine.now().as_ns());
        let outcome = result.map_err(|f| {
            if f.restored.is_empty() {
                // Nothing was reverted: surface the plain error.
                KShotError::Smm(f.error)
            } else {
                KShotError::RollbackIncomplete {
                    error: f.error,
                    restored: f.restored,
                }
            }
        })?;
        kshot_telemetry::counter("kshot.rollbacks", 1);
        if !outcome.skipped.is_empty() {
            kshot_telemetry::counter("kshot.rollback_skipped", outcome.skipped.len() as u64);
        }
        span.field("restored", outcome.restored.len());
        span.field("skipped", outcome.skipped.len());
        Ok(outcome)
    }

    /// Recover from a patch or rollback interrupted mid-SMM-window
    /// (power loss, machine fault): raises an SMI and lets the handler
    /// replay or unwind the SMRAM journal. Safe to call any time —
    /// returns [`Recovery::Clean`] when nothing was interrupted.
    ///
    /// Until this runs, a pending journal makes `live_patch` /
    /// `rollback_last` refuse with [`SmmError::RecoveryPending`].
    ///
    /// # Errors
    ///
    /// Machine faults during recovery (the journal stays open; call
    /// again).
    pub fn recover(&mut self) -> Result<Recovery, KShotError> {
        let machine = self.kernel.machine_mut();
        let mut span = kshot_telemetry::span_at("kshot.recover", machine.now().as_ns());
        machine.declare_smi_cause(SmiCause::Recover);
        machine.raise_smi()?;
        let result = self.smm.recover(machine, &self.reserved);
        machine.rsm()?;
        span.set_sim_end(machine.now().as_ns());
        let recovery = result?;
        if !matches!(recovery, Recovery::Clean) {
            kshot_telemetry::counter("kshot.recoveries", 1);
        }
        Ok(recovery)
    }

    /// SMM-based introspection sweep (paper §V-D): detect reverted
    /// trampolines and corrupted `mem_X` bodies.
    ///
    /// # Errors
    ///
    /// Machine faults during the sweep.
    pub fn introspect(&mut self) -> Result<Vec<Violation>, KShotError> {
        let machine = self.kernel.machine_mut();
        let mut span = kshot_telemetry::span_at("kshot.introspect", machine.now().as_ns());
        machine.declare_smi_cause(SmiCause::Introspect);
        machine.raise_smi()?;
        let result = introspect::check(machine, &self.smm);
        machine.rsm()?;
        span.set_sim_end(machine.now().as_ns());
        let violations = result?;
        span.field("violations", violations.len());
        Ok(violations)
    }

    /// Inventory of active trampoline sites from SMRAM ground truth
    /// (the crash-consistency tests compare this against the kernel
    /// text).
    ///
    /// # Errors
    ///
    /// Machine faults during the sweep.
    pub fn active_sites(&mut self) -> Result<Vec<ActiveSite>, KShotError> {
        let machine = self.kernel.machine_mut();
        machine.declare_smi_cause(SmiCause::Inventory);
        machine.raise_smi()?;
        let result = introspect::active_trampolines(machine, &self.smm);
        machine.rsm()?;
        Ok(result?)
    }

    /// Repair reverted trampolines; returns how many were re-installed.
    ///
    /// # Errors
    ///
    /// Machine faults during the sweep.
    pub fn repair(&mut self) -> Result<usize, KShotError> {
        let machine = self.kernel.machine_mut();
        let mut span = kshot_telemetry::span_at("kshot.repair", machine.now().as_ns());
        machine.declare_smi_cause(SmiCause::Repair);
        machine.raise_smi()?;
        let result = introspect::repair(machine, &self.smm);
        machine.rsm()?;
        span.set_sim_end(machine.now().as_ns());
        let repaired = result?;
        span.field("repaired", repaired);
        Ok(repaired)
    }

    /// DOS-detection probe on behalf of the remote server.
    ///
    /// # Errors
    ///
    /// Machine faults during the probe.
    pub fn dos_probe(&mut self) -> Result<DosProbe, KShotError> {
        let machine = self.kernel.machine_mut();
        machine.declare_smi_cause(SmiCause::Probe);
        machine.raise_smi()?;
        let result = introspect::dos_probe(machine, &self.reserved);
        machine.rsm()?;
        Ok(result?)
    }
}

/// Merge pre-built bundles, in order, into one `BATCH(id+id+…)` bundle
/// for `kernel_version` with one segment per bundle: what one SMI of
/// [`KShot::live_patch_batch_bundles`] applies. Bundles may be owned or
/// borrowed; the merge copies what it needs from them.
///
/// # Errors
///
/// * [`KShotError::EmptyBatch`] for an empty set.
/// * [`KShotError::BatchOverlap`] when two patches touch the same
///   function — patched entry *or* added function (their target
///   pre-hashes / placements cannot both hold).
/// * [`KShotError::BatchGlobalOverlap`] when two patches write
///   overlapping global data ranges.
pub fn batch_bundle<B: Borrow<PatchBundle>>(
    kernel_version: &str,
    bundles: impl IntoIterator<Item = B>,
) -> Result<PatchBundle, KShotError> {
    let mut merged = PatchBundle {
        kernel_version: kernel_version.to_string(),
        ..Default::default()
    };
    let mut seen_functions = std::collections::BTreeSet::new();
    let mut global_ranges: Vec<(u64, u64)> = Vec::new();
    let mut ids = Vec::new();
    for bundle in bundles {
        let bundle = bundle.borrow();
        // Two patches redirecting (or defining) the same function
        // cannot both hold; catch entries AND new functions.
        for e in bundle.entries.iter().chain(&bundle.new_functions) {
            if !seen_functions.insert(e.name.clone()) {
                return Err(KShotError::BatchOverlap {
                    function: e.name.clone(),
                });
            }
        }
        for g in &bundle.global_ops {
            let name = match g {
                kshot_patchserver::bundle::GlobalOp::SetBytes { name, .. }
                | kshot_patchserver::bundle::GlobalOp::InitBytes { name, .. } => name.clone(),
            };
            let (lo, hi) = (g.addr(), g.addr() + g.bytes().len() as u64);
            if global_ranges.iter().any(|(a, b)| lo < *b && *a < hi) {
                return Err(KShotError::BatchGlobalOverlap {
                    name,
                    addr: g.addr(),
                });
            }
            global_ranges.push((lo, hi));
        }
        ids.push(bundle.id.clone());
        merged
            .segments
            .push(kshot_patchserver::bundle::BundleSegment {
                id: bundle.id.clone(),
                entries: bundle.entries.len() as u32,
                new_functions: bundle.new_functions.len() as u32,
                global_ops: bundle.global_ops.len() as u32,
            });
        merged.entries.extend_from_slice(&bundle.entries);
        merged
            .new_functions
            .extend_from_slice(&bundle.new_functions);
        merged.global_ops.extend_from_slice(&bundle.global_ops);
        merged.types.t1 |= bundle.types.t1;
        merged.types.t2 |= bundle.types.t2;
        merged.types.t3 |= bundle.types.t3;
    }
    if ids.is_empty() {
        return Err(KShotError::EmptyBatch);
    }
    merged.id = format!("BATCH({})", ids.join("+"));
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_kcc::ir::{CondExpr, Expr, Function, Global, InlineHint, Program, Stmt};
    use kshot_kcc::{link, CodegenOptions};
    use kshot_machine::MemLayout;

    /// A tiny "kernel" with one vulnerable function: `lookup(idx)`
    /// writes to a 2-word buffer without a bounds check; index 2 hits
    /// the `sentinel` global (the exploit's observable).
    fn vulnerable_tree() -> Program {
        let mut p = Program::new();
        p.add_global(Global::buffer("table", 2));
        p.add_global(Global::word("sentinel", 0xAAAA));
        p.add_function(
            Function::new("lookup_store", 2, 0)
                .with_inline(InlineHint::Never)
                .with_body(vec![
                    Stmt::Store {
                        addr: Expr::global_addr("table").add(Expr::param(0).mul(Expr::c(8))),
                        value: Expr::param(1),
                    },
                    Stmt::Return(Expr::c(0)),
                ]),
        );
        p
    }

    fn fixed_tree() -> SourcePatch {
        SourcePatch::new("CVE-SIM-0001").replacing(
            Function::new("lookup_store", 2, 0)
                .with_inline(InlineHint::Never)
                .with_body(vec![
                    Stmt::if_then(
                        CondExpr::new(Expr::param(0), kshot_isa::Cond::Ae, Expr::c(2)),
                        vec![Stmt::Return(Expr::c(u64::MAX))],
                    ),
                    Stmt::Store {
                        addr: Expr::global_addr("table").add(Expr::param(0).mul(Expr::c(8))),
                        value: Expr::param(1),
                    },
                    Stmt::Return(Expr::c(0)),
                ]),
        )
    }

    fn boot() -> (Kernel, PatchServer) {
        let tree = vulnerable_tree();
        tree.validate().unwrap();
        let layout = MemLayout::standard();
        let image = link(
            &tree,
            &CodegenOptions::default(),
            layout.kernel_text_base,
            layout.kernel_data_base,
        )
        .unwrap();
        let kernel = Kernel::boot(image, "kv-4.4", layout).unwrap();
        let mut server = PatchServer::new();
        server.register_tree("kv-4.4", tree);
        (kernel, server)
    }

    #[test]
    fn end_to_end_live_patch_fixes_the_exploit() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 1).unwrap();
        // Exploit works pre-patch: index 2 corrupts the sentinel.
        kshot
            .kernel_mut()
            .call_function("lookup_store", &[2, 0xDEAD])
            .unwrap();
        assert_eq!(kshot.kernel_mut().read_global("sentinel").unwrap(), 0xDEAD);
        kshot.kernel_mut().write_global("sentinel", 0xAAAA).unwrap();
        // Live patch.
        let report = kshot.live_patch(&server, &fixed_tree()).unwrap();
        assert_eq!(report.trampolines, 1);
        assert_eq!(report.patched_functions, vec!["lookup_store".to_string()]);
        assert!(report.smm.total() > SimTime::ZERO);
        assert!(report.sgx.total() > report.smm.total(), "prep dominates");
        // Exploit is dead: out-of-bounds index is refused.
        let rv = kshot
            .kernel_mut()
            .call_function("lookup_store", &[2, 0xBEEF])
            .unwrap();
        assert_eq!(rv, u64::MAX);
        assert_eq!(kshot.kernel_mut().read_global("sentinel").unwrap(), 0xAAAA);
        // Legitimate use still works.
        kshot
            .kernel_mut()
            .call_function("lookup_store", &[1, 77])
            .unwrap();
        assert_eq!(kshot.kernel_mut().read_global_word("table", 1).unwrap(), 77);
    }

    #[test]
    fn rollback_restores_vulnerable_behaviour() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 2).unwrap();
        kshot.live_patch(&server, &fixed_tree()).unwrap();
        assert_eq!(
            kshot
                .kernel_mut()
                .call_function("lookup_store", &[2, 1])
                .unwrap(),
            u64::MAX
        );
        let restored = kshot.rollback_last().unwrap();
        assert_eq!(restored.restored.len(), 1);
        assert!(restored.skipped.is_empty());
        // Vulnerable again (proving the original bytes came back).
        assert_eq!(
            kshot
                .kernel_mut()
                .call_function("lookup_store", &[2, 0x5555])
                .unwrap(),
            0
        );
        assert_eq!(kshot.kernel_mut().read_global("sentinel").unwrap(), 0x5555);
        // Nothing left to roll back.
        assert!(matches!(
            kshot.rollback_last(),
            Err(KShotError::Smm(SmmError::RollbackEmpty))
        ));
    }

    #[test]
    fn repeated_patches_stack_in_mem_x() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 3).unwrap();
        let r1 = kshot.live_patch(&server, &fixed_tree()).unwrap();
        // Roll back and re-patch: mem_X cursor advances, both succeed.
        kshot.rollback_last().unwrap();
        let mut patch2 = fixed_tree();
        patch2.id = "CVE-SIM-0002".into();
        let r2 = kshot.live_patch(&server, &patch2).unwrap();
        assert_eq!(kshot.history().len(), 2);
        assert_eq!(r1.trampolines, 1);
        assert_eq!(r2.trampolines, 1);
        // Patched behaviour active after the second patch.
        assert_eq!(
            kshot
                .kernel_mut()
                .call_function("lookup_store", &[5, 1])
                .unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn introspection_detects_and_repairs_reversion() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 4).unwrap();
        kshot.live_patch(&server, &fixed_tree()).unwrap();
        assert!(kshot.introspect().unwrap().is_empty());
        // Rootkit: remap text RW and revert the entry (the trampoline
        // sits after the 5-byte ftrace pad).
        let taddr = kshot.kernel().function_addr("lookup_store").unwrap();
        let site = taddr + 5;
        let page = site & !0xFFF;
        let m = kshot.kernel_mut().machine_mut();
        m.set_page_attrs(page, 0x2000, kshot_machine::PageAttrs::RWX)
            .unwrap();
        m.write_bytes(kshot_machine::AccessCtx::Kernel, site, &[0x90; 5])
            .unwrap();
        let violations = kshot.introspect().unwrap();
        assert_eq!(violations.len(), 1);
        assert_eq!(kshot.repair().unwrap(), 1);
        assert!(kshot.introspect().unwrap().is_empty());
        // The patch protects again.
        assert_eq!(
            kshot
                .kernel_mut()
                .call_function("lookup_store", &[2, 9])
                .unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn dos_probe_sees_progress() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 5).unwrap();
        let before = kshot.dos_probe().unwrap();
        assert!(!before.staged);
        assert_eq!(before.epoch, 0);
        kshot.live_patch(&server, &fixed_tree()).unwrap();
        let after = kshot.dos_probe().unwrap();
        assert!(after.staged);
        assert_eq!(after.epoch, 1, "epoch bump proves the SMI ran");
    }

    #[test]
    fn consistent_mode_waits_for_busy_targets() {
        // A task parked mid-way through `lookup_store` blocks the
        // consistency-aware patch until it completes.
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 8).unwrap();
        let id = kshot
            .kernel_mut()
            .spawn("inflight", "lookup_store", &[0, 1])
            .unwrap();
        kshot.kernel_mut().run_task_slice(id, 2).unwrap(); // parked inside
                                                           // Zero slice budget: refused.
        match kshot.live_patch_consistent(&server, &fixed_tree(), 0, 0) {
            Err(KShotError::TargetBusy { function }) => {
                assert_eq!(function, "lookup_store");
            }
            other => panic!("expected TargetBusy, got {other:?}"),
        }
        // With a slice budget the task drains and the patch lands.
        let report = kshot
            .live_patch_consistent(&server, &fixed_tree(), 10, 10_000)
            .unwrap();
        assert_eq!(report.trampolines, 1);
        assert!(matches!(
            kshot.kernel().task(id).unwrap().state,
            kshot_kernel::TaskState::Exited(_)
        ));
        // Patched semantics active.
        assert_eq!(
            kshot
                .kernel_mut()
                .call_function("lookup_store", &[2, 5])
                .unwrap(),
            u64::MAX
        );
    }

    #[test]
    fn consistent_mode_ignores_finished_and_unrelated_tasks() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 9).unwrap();
        // A finished task inside nothing, and no ready tasks: patches
        // immediately with zero slice budget.
        let id = kshot
            .kernel_mut()
            .spawn("done", "lookup_store", &[0, 1])
            .unwrap();
        while kshot.kernel_mut().run_task_slice(id, 10_000).unwrap()
            == kshot_kernel::SliceOutcome::Preempted
        {}
        let report = kshot
            .live_patch_consistent(&server, &fixed_tree(), 0, 0)
            .unwrap();
        assert_eq!(report.trampolines, 1);
    }

    /// A fault at or after the journal's commit leaves the patch
    /// applied: the error says so and carries the report, `recover()`
    /// heals the published key material, and the next patch goes
    /// through. Every earlier fault is a plain error that records
    /// nothing.
    #[test]
    fn fault_after_commit_surfaces_as_committed() {
        let mut committed = Vec::new();
        let mut k = 0;
        loop {
            let (kernel, server) = boot();
            let mut kshot = KShot::install(kernel, 8).unwrap();
            kshot
                .kernel_mut()
                .machine_mut()
                .arm_injection(kshot_machine::InjectionPlan::fail_nth_smm_write(k));
            let result = kshot.live_patch(&server, &fixed_tree());
            let stats = kshot.kernel_mut().machine_mut().disarm_injection();
            if stats.unwrap().faults_injected == 0 {
                result.unwrap();
                break;
            }
            match result.unwrap_err() {
                KShotError::Committed { report, .. } => {
                    committed.push(k);
                    assert_eq!(report.trampolines, 1, "step {k}");
                    assert_eq!(kshot.history(), [*report]);
                    // A fault on the commit write itself leaves the
                    // journal open with its one segment committed, which
                    // recovery keeps whole; later faults find it idle.
                    let recovery = kshot.recover().unwrap();
                    if committed == [k] {
                        assert!(
                            matches!(
                                recovery,
                                Recovery::UnwoundApply {
                                    writes_undone: 0,
                                    segments_preserved: 1,
                                    ..
                                }
                            ),
                            "step {k}: {recovery:?}"
                        );
                    } else {
                        assert_eq!(recovery, Recovery::Clean, "step {k}");
                    }
                    let rv = kshot.kernel_mut().call_function("lookup_store", &[2, 1]);
                    assert_eq!(rv.unwrap(), u64::MAX, "step {k}: the patch is live");
                    kshot.rollback_last().unwrap();
                    let mut again = fixed_tree();
                    again.id = "CVE-SIM-0002".into();
                    kshot.live_patch(&server, &again).unwrap();
                }
                _ => assert!(kshot.history().is_empty(), "step {k}"),
            }
            k += 1;
        }
        // The committed faults are the SMI's last writes, contiguous.
        assert!(!committed.is_empty());
        assert_eq!(committed, (committed[0]..k).collect::<Vec<_>>());
    }

    /// A bundle of one `size`-byte body: the vulnerable function's fix
    /// padded with NOPs (a `Patch` record: trampoline, target pre-hash
    /// check, `memx_hash`), or a new function placed without a
    /// trampoline (a `PlaceOnly` record).
    fn large_bundle(kshot: &KShot, server: &PatchServer, size: usize, patch: bool) -> PatchBundle {
        let mut bundle = server
            .build_patch(&kshot.kernel().info(), &fixed_tree())
            .unwrap()
            .bundle;
        let mut entry = bundle.entries.pop().unwrap();
        entry.body.resize(size, kshot_isa::opcodes::NOP);
        if patch {
            bundle.entries.push(entry);
        } else {
            entry.name = "blob".into();
            entry.relocs.clear();
            bundle.new_functions.push(entry);
        }
        bundle
    }

    /// The pass budget: how many times SHA-256 and ChaCha20 run over each
    /// byte of a bundle on its way from the server to `mem_X`. Through
    /// `live_patch_wire`, SHA-256 makes seven passes: the server's seal
    /// MAC, the enclave's open MAC and integrity check, the package's
    /// payload hashes, the enclave's seal MAC, SMM's open MAC and SMM's
    /// verify. `live_patch_bundle` adds its encode's trailer hash, and a
    /// cache hit makes none. ChaCha20 makes exactly four: seal and open
    /// on each channel hop. A `Patch` record costs no extra pass: its
    /// trampoline record's `memx_hash` is the payload hash SMM verified.
    #[test]
    fn pass_budget_per_bundle_byte() {
        use kshot_crypto::counters::ByteCounts;
        const SIZE: usize = 256 * 1024;
        for patch in [false, true] {
            for (entry, sha_passes) in [("live_patch_wire", 7.0), ("live_patch_bundle", 8.0)] {
                let (kernel, server) = boot();
                let mut kshot = KShot::install(kernel, 11).unwrap();
                let bundle = large_bundle(&kshot, &server, SIZE, patch);
                let wire = bundle.encode();
                let start = ByteCounts::current();
                let report = match entry {
                    "live_patch_wire" => kshot.live_patch_wire(&wire),
                    _ => kshot.live_patch_bundle(&bundle),
                }
                .unwrap();
                let used = ByteCounts::current().since(start);
                assert_eq!(report.trampolines, usize::from(patch));
                let per_byte = used.sha256 as f64 / wire.len() as f64;
                assert!(
                    (per_byte - sha_passes).abs() < 0.02,
                    "{entry}, patch records {patch}: {per_byte:.4} SHA-256 passes"
                );
                // Each hop ciphers its whole plaintext once each way: the
                // encoded bundle, then the package inside the staged
                // frame (seq 8 B, length 4 B, MAC 32 B around it).
                let package = report.staged_size as u64 - 44;
                assert_eq!(
                    used.chacha20,
                    2 * wire.len() as u64 + 2 * package,
                    "{entry}, patch records {patch}"
                );
                assert!(package >= SIZE as u64);
            }
        }
        let (kernel, server) = boot();
        let kshot = KShot::install(kernel, 12).unwrap();
        let wire = large_bundle(&kshot, &server, SIZE, false).encode();
        let cache = kshot_patchserver::BundleCache::new();
        cache.get_or_decode(&wire).unwrap();
        let start = ByteCounts::current();
        cache.get_or_decode(&wire).unwrap();
        assert_eq!(ByteCounts::current().since(start), ByteCounts::default());
        assert_eq!(cache.hits(), 1);
    }

    /// SMM verify and the trampoline record's `memx_hash` cover the same
    /// body. Under either verification algorithm every active trampoline
    /// record holds the SHA-256 of the bytes placed for it (under SHA-256
    /// it is the payload hash SMM verified; under SDBM SMM computes it),
    /// so introspection reads the clean `mem_X` as clean and flags one
    /// flipped placed byte.
    #[test]
    fn memx_hash_is_the_sha256_of_the_placed_body_under_both_algorithms() {
        use crate::smm::RecordKind;
        use kshot_machine::AccessCtx;
        for algorithm in [VerificationAlgorithm::Sha256, VerificationAlgorithm::Sdbm] {
            let (kernel, server) = boot();
            let mut kshot = KShot::with_options(kernel, 10, DhGroup::Default, algorithm).unwrap();
            kshot.live_patch(&server, &fixed_tree()).unwrap();
            let machine = kshot.kernel.machine_mut();
            machine.raise_smi().unwrap();
            let mut placed = Vec::new();
            for i in 0..kshot.smm.record_count(machine).unwrap() {
                let rec = kshot.smm.read_record(machine, i).unwrap();
                if rec.active && rec.kind == RecordKind::Trampoline {
                    let mut body = vec![0u8; rec.size as usize];
                    machine
                        .read_bytes(AccessCtx::Smm, rec.paddr, &mut body)
                        .unwrap();
                    assert_eq!(rec.memx_hash, kshot_crypto::sha256(&body), "{algorithm:?}");
                    placed.push((rec.paddr, rec.size));
                }
            }
            machine.rsm().unwrap();
            assert_eq!(placed.len(), 1, "{algorithm:?}");
            assert!(kshot.introspect().unwrap().is_empty(), "{algorithm:?}");
            // Flip one placed byte in the middle of the body.
            let (paddr, size) = placed[0];
            let at = paddr + u64::from(size) / 2;
            let machine = kshot.kernel.machine_mut();
            machine.raise_smi().unwrap();
            let mut byte = [0u8];
            machine.read_bytes(AccessCtx::Smm, at, &mut byte).unwrap();
            machine
                .write_bytes(AccessCtx::Smm, at, &[byte[0] ^ 0x01])
                .unwrap();
            machine.rsm().unwrap();
            assert_eq!(
                kshot.introspect().unwrap(),
                vec![Violation::MemXCorrupted { paddr, size }],
                "{algorithm:?}"
            );
        }
    }

    #[test]
    fn memory_overhead_is_18mb() {
        let (kernel, _) = boot();
        let kshot = KShot::install(kernel, 6).unwrap();
        assert_eq!(kshot.memory_overhead(), 18 * 1024 * 1024);
    }

    #[test]
    fn smm_pause_time_matches_paper_magnitude() {
        let (kernel, server) = boot();
        let mut kshot = KShot::install(kernel, 7).unwrap();
        let report = kshot.live_patch(&server, &fixed_tree()).unwrap();
        let pause_us = report.smm.total().as_us_f64();
        // Paper: ~50µs for small patches (34.6µs switching + keygen +
        // work). Accept a generous band.
        assert!((30.0..200.0).contains(&pause_us), "pause was {pause_us}µs");
    }
}
