//! The machine: privilege-checked memory access and SMM transitions.

use kshot_isa::Inst;

use std::collections::VecDeque;

use crate::attrs::{Access, PageAttrs};
use crate::cpu::{CpuMode, CpuState, SAVE_AREA_LEN};
use crate::error::MachineError;
use crate::flight::{fnv1a, JournalOp, SmiCause, SmiExit, SmiFlightRecord, FLIGHT_RING_CAP};
use crate::inject::{
    AttackKind, InjectionAction, InjectionPlan, InjectionState, InjectionStats, MachineSnapshot,
};
use crate::layout::MemLayout;
use crate::phys::PhysMemory;
use crate::timing::{Clock, CostModel, SimTime};

/// The privilege domain performing a memory access.
///
/// This is the pivot of the whole security simulation: the same physical
/// address behaves differently depending on who touches it, exactly as on
/// real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessCtx {
    /// The OS kernel (or anything running under it, including rootkits).
    /// Subject to page attributes; denied SMRAM.
    Kernel,
    /// The SMM handler. Only valid while the CPU is in SMM; bypasses page
    /// attributes and may touch SMRAM.
    Smm,
    /// Trusted boot firmware / loader, used while constructing the
    /// machine image before the OS runs. Bypasses checks; the threat
    /// model trusts the boot process (paper §III).
    Firmware,
}

impl AccessCtx {
    fn name(self) -> &'static str {
        match self {
            AccessCtx::Kernel => "kernel",
            AccessCtx::Smm => "smm",
            AccessCtx::Firmware => "firmware",
        }
    }
}

/// An observable machine event, kept in a bounded in-machine log so tests
/// and examples can assert on hardware-level behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// SMI received; CPU entered SMM at the given simulated time.
    SmiEnter(SimTime),
    /// `RSM` executed; CPU resumed Protected Mode.
    Rsm(SimTime),
    /// A faulting access was rejected.
    Fault(MachineError),
}

const MAX_EVENTS: usize = 4096;

/// The simulated target machine.
///
/// # Examples
///
/// ```
/// use kshot_machine::{Machine, MemLayout, AccessCtx};
///
/// let mut m = Machine::new(MemLayout::standard()).unwrap();
/// // The kernel cannot write SMRAM...
/// let smram = m.layout().smram_base;
/// assert!(m.write_bytes(AccessCtx::Kernel, smram, &[0]).is_err());
/// // ...but the SMM handler can, once an SMI is raised.
/// m.raise_smi().unwrap();
/// m.write_bytes(AccessCtx::Smm, smram + 0x1000, &[0xAA]).unwrap();
/// m.rsm().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    mem: PhysMemory,
    cpu: CpuState,
    mode: CpuMode,
    layout: MemLayout,
    clock: Clock,
    cost: CostModel,
    events: Vec<Event>,
    smi_count: u64,
    inject: Option<InjectionState>,
    /// Dwell-time watchdog: SMM residency budget per SMI, if armed.
    smm_dwell_budget: Option<SimTime>,
    /// Multiplier on the armed budget: a batched SMI applying `k` CVEs
    /// legitimately dwells ~`k`× longer than a single-patch SMI.
    smm_dwell_budget_scale: u64,
    /// Simulated instant the current SMI was delivered (before the
    /// entry cost was charged), while in SMM.
    smm_entered_at: Option<SimTime>,
    /// SMIs whose dwell exceeded the armed budget.
    smm_overbudget: u64,
    /// Longest SMM dwell observed on this machine.
    max_smm_dwell: SimTime,
    /// SMI index + cause of the longest dwell, so anomaly reports can
    /// name the offending SMI rather than just the machine.
    max_smm_dwell_smi: Option<(u64, SmiCause)>,
    /// SMIs torn out of SMM by a warm reset before `RSM`.
    smm_dwell_interrupted: u64,
    /// Completed per-SMI flight records (bounded ring).
    flight: VecDeque<SmiFlightRecord>,
    /// The record of the in-progress SMI, while in SMM.
    flight_open: Option<SmiFlightRecord>,
    /// Completed records dropped once the ring filled.
    flight_dropped: u64,
    /// Cause declared for the *next* SMI (consumed by `raise_smi`).
    pending_smi_cause: Option<SmiCause>,
    /// Sealed handler-image region `(base, len)`, measured at each SMI
    /// entry once set.
    sealed_image: Option<(u64, u64)>,
    /// Armed attack-scenario behaviour, if any (test/CI harnesses only).
    attack: Option<AttackKind>,
}

impl Machine {
    /// Build a machine with the given memory layout; configures and locks
    /// SMRAM as the firmware would during trusted boot.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] if the layout is internally inconsistent.
    pub fn new(layout: MemLayout) -> Result<Self, MachineError> {
        layout.validate().map_err(|_| MachineError::OutOfRange {
            addr: layout.total,
            len: 0,
            mem_size: layout.total,
        })?;
        let mut mem = PhysMemory::new(layout.total);
        mem.configure_smram(layout.smram_base, layout.smram_size)?;
        mem.lock_smram()?;
        // Kernel text defaults to RX; everything else stays RW until the
        // loader/kshot-core sets specific windows.
        mem.set_attrs(
            layout.kernel_text_base,
            layout.kernel_text_size,
            PageAttrs::RX,
        )?;
        Ok(Self {
            mem,
            cpu: CpuState::new(),
            mode: CpuMode::Protected,
            layout,
            clock: Clock::new(),
            cost: CostModel::paper_calibrated(),
            events: Vec::new(),
            smi_count: 0,
            inject: None,
            smm_dwell_budget: None,
            smm_dwell_budget_scale: 1,
            smm_entered_at: None,
            smm_overbudget: 0,
            max_smm_dwell: SimTime::ZERO,
            max_smm_dwell_smi: None,
            smm_dwell_interrupted: 0,
            flight: VecDeque::new(),
            flight_open: None,
            flight_dropped: 0,
            pending_smi_cause: None,
            sealed_image: None,
            attack: None,
        })
    }

    /// The memory layout this machine was built with.
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// Current CPU mode.
    pub fn mode(&self) -> CpuMode {
        self.mode
    }

    /// Borrow the CPU state.
    pub fn cpu(&self) -> &CpuState {
        &self.cpu
    }

    /// Mutably borrow the CPU state (the interpreter drives this).
    pub fn cpu_mut(&mut self) -> &mut CpuState {
        &mut self.cpu
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Advance the simulated clock.
    pub fn charge(&mut self, span: SimTime) {
        self.clock.charge(span);
    }

    /// The calibrated cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Replace the cost model (ablation benchmarks use this).
    pub fn set_cost(&mut self, cost: CostModel) {
        self.cost = cost;
    }

    /// Number of SMIs serviced so far.
    pub fn smi_count(&self) -> u64 {
        self.smi_count
    }

    // ---- SMM dwell-time watchdog ----------------------------------------

    /// Arm (or disarm, with `None`) the SMM dwell-time watchdog. Dwell
    /// is measured on the simulated clock from SMI delivery — *before*
    /// the entry cost is charged — to the completion of `RSM`, so it
    /// covers the mode switches as well as the handler body: the full
    /// interval the OS is paused, which is the quantity the paper's
    /// SMM-cost argument bounds. An SMI whose dwell exceeds the budget
    /// bumps [`Machine::smm_overbudget_count`] and emits a
    /// `machine.smm_overbudget` event.
    pub fn set_smm_dwell_budget(&mut self, budget: Option<SimTime>) {
        self.smm_dwell_budget = budget;
    }

    /// The armed dwell budget, if any.
    pub fn smm_dwell_budget(&self) -> Option<SimTime> {
        self.smm_dwell_budget
    }

    /// Scale the armed dwell budget by `scale` (clamped to at least 1).
    /// A batched SMI applying `k` CVEs does ~`k`× the work of a
    /// single-patch SMI inside one OS pause, so callers arm the
    /// per-patch budget once and scale it by the batch size.
    pub fn set_smm_dwell_budget_scale(&mut self, scale: u64) {
        self.smm_dwell_budget_scale = scale.max(1);
    }

    /// The current dwell-budget multiplier (1 unless batching).
    pub fn smm_dwell_budget_scale(&self) -> u64 {
        self.smm_dwell_budget_scale
    }

    /// How many SMIs exceeded the armed dwell budget.
    pub fn smm_overbudget_count(&self) -> u64 {
        self.smm_overbudget
    }

    /// The longest SMM dwell observed so far ([`SimTime::ZERO`] before
    /// the first completed SMI).
    pub fn max_smm_dwell(&self) -> SimTime {
        self.max_smm_dwell
    }

    /// SMI index and cause of the longest dwell, if any SMI completed.
    pub fn max_smm_dwell_smi(&self) -> Option<(u64, SmiCause)> {
        self.max_smm_dwell_smi
    }

    /// SMIs torn out of SMM by a warm reset before `RSM` completed.
    pub fn smm_dwell_interrupted_count(&self) -> u64 {
        self.smm_dwell_interrupted
    }

    // ---- SMI flight recorder ---------------------------------------------

    /// Declare the cause of the *next* SMI. Consumed by the next
    /// [`Machine::raise_smi`]; undeclared SMIs record
    /// [`SmiCause::Unattributed`].
    pub fn declare_smi_cause(&mut self, cause: SmiCause) {
        self.pending_smi_cause = Some(cause);
    }

    /// Seal the handler image at `[base, base + len)`: every subsequent
    /// SMI entry measures this region (FNV-1a) into its flight record,
    /// so tampering between SMIs is detectable by a detached monitor.
    pub fn seal_handler_image(&mut self, base: u64, len: u64) {
        self.sealed_image = Some((base, len));
    }

    /// Measure the sealed handler image right now (0 when unsealed or
    /// when the region is out of range).
    pub fn measure_handler_image(&self) -> u64 {
        let Some((base, len)) = self.sealed_image else {
            return 0;
        };
        let mut buf = vec![0u8; len as usize];
        if self.mem.read_raw(base, &mut buf).is_err() {
            return 0;
        }
        fnv1a(&buf)
    }

    /// Completed flight records, oldest first (bounded ring; see
    /// [`Machine::flight_dropped_count`] for overflow).
    pub fn flight_records(&self) -> impl Iterator<Item = &SmiFlightRecord> {
        self.flight.iter()
    }

    /// Clone the completed flight records out of the ring, oldest first.
    pub fn flight_snapshot(&self) -> Vec<SmiFlightRecord> {
        self.flight.iter().cloned().collect()
    }

    /// Completed records dropped because the ring was full.
    pub fn flight_dropped_count(&self) -> u64 {
        self.flight_dropped
    }

    /// Note a journal operation into the in-progress SMI's flight
    /// record (no-op outside an SMI). Called by the SMM handler's
    /// journal primitives in `kshot-core`.
    pub fn flight_note_journal(&mut self, op: JournalOp) {
        if let Some(rec) = self.flight_open.as_mut() {
            rec.note_journal(op);
        }
    }

    /// Arm an attack-scenario behaviour (replacing any armed one). Each
    /// kind fires once, at the point described on [`AttackKind`], and
    /// disarms itself; the flight recorder observes the effects like any
    /// other SMM behaviour, which is how the integrity monitor catches
    /// it.
    pub fn arm_attack(&mut self, attack: AttackKind) {
        self.attack = Some(attack);
    }

    /// The armed attack, if it has not fired yet.
    pub fn armed_attack(&self) -> Option<AttackKind> {
        self.attack
    }

    fn push_flight(&mut self, rec: SmiFlightRecord) {
        if self.flight.len() == FLIGHT_RING_CAP {
            self.flight.pop_front();
            self.flight_dropped += 1;
        }
        self.flight.push_back(rec);
    }

    /// The event log (bounded; oldest entries are dropped).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    fn log(&mut self, ev: Event) {
        self.emit_telemetry(&ev);
        if self.events.len() == MAX_EVENTS {
            self.events.remove(0);
        }
        self.events.push(ev);
    }

    /// Mirror a machine event into the global telemetry recorder as a
    /// structured event (no-op when telemetry is disabled).
    fn emit_telemetry(&self, ev: &Event) {
        if !kshot_telemetry::is_enabled() {
            return;
        }
        match ev {
            Event::SmiEnter(t) => {
                kshot_telemetry::counter("machine.smi", 1);
                kshot_telemetry::event_at("machine.smi_enter", t.as_ns());
            }
            Event::Rsm(t) => kshot_telemetry::event_at("machine.rsm", t.as_ns()),
            Event::Fault(err) => {
                let sim = self.now().as_ns();
                match err {
                    MachineError::AccessViolation {
                        addr,
                        access,
                        ctx,
                        reason,
                    } => {
                        // The SMRAM lock is the security boundary the
                        // paper's threat model leans on; break it out
                        // from garden-variety attribute violations.
                        let name = if *reason == "SMRAM is inaccessible outside SMM" {
                            "machine.smram_lock_fault"
                        } else {
                            "machine.attr_violation"
                        };
                        kshot_telemetry::counter(name, 1);
                        kshot_telemetry::event_with(name, Some(sim), |f| {
                            f.push(("addr", (*addr).into()));
                            f.push(("access", format!("{access:?}").into()));
                            f.push(("ctx", (*ctx).into()));
                            f.push(("reason", (*reason).into()));
                        });
                    }
                    other => {
                        kshot_telemetry::counter("machine.fault", 1);
                        kshot_telemetry::event_with("machine.fault", Some(sim), |f| {
                            f.push(("error", format!("{other}").into()));
                        });
                    }
                }
            }
        }
    }

    fn check(
        &mut self,
        ctx: AccessCtx,
        addr: u64,
        len: usize,
        access: Access,
    ) -> Result<(), MachineError> {
        let result = self.check_inner(ctx, addr, len, access);
        if let Err(e) = &result {
            self.log(Event::Fault(e.clone()));
        }
        result
    }

    fn check_inner(
        &self,
        ctx: AccessCtx,
        addr: u64,
        len: usize,
        access: Access,
    ) -> Result<(), MachineError> {
        match ctx {
            AccessCtx::Firmware => Ok(()),
            AccessCtx::Smm => {
                // SMM context is only meaningful while the CPU is in SMM.
                if self.mode != CpuMode::Smm {
                    return Err(MachineError::AccessViolation {
                        addr,
                        access,
                        ctx: ctx.name(),
                        reason: "SMM access outside System Management Mode",
                    });
                }
                Ok(())
            }
            AccessCtx::Kernel => {
                if let Some(w) = self.mem.smram() {
                    if w.overlaps(addr, len) {
                        return Err(MachineError::AccessViolation {
                            addr,
                            access,
                            ctx: ctx.name(),
                            reason: "SMRAM is inaccessible outside SMM",
                        });
                    }
                }
                self.mem.check_attrs(addr, len, access)
            }
        }
    }

    /// Read `out.len()` bytes at `addr` under privilege `ctx`.
    ///
    /// # Errors
    ///
    /// Faults on permission violations or out-of-range addresses.
    pub fn read_bytes(
        &mut self,
        ctx: AccessCtx,
        addr: u64,
        out: &mut [u8],
    ) -> Result<(), MachineError> {
        self.check(ctx, addr, out.len(), Access::Read)?;
        self.mem.read_raw(addr, out)
    }

    /// Write `data` at `addr` under privilege `ctx`.
    ///
    /// # Errors
    ///
    /// Faults on permission violations or out-of-range addresses.
    pub fn write_bytes(
        &mut self,
        ctx: AccessCtx,
        addr: u64,
        data: &[u8],
    ) -> Result<(), MachineError> {
        self.check(ctx, addr, data.len(), Access::Write)?;
        self.consult_injector(ctx, addr, data.len())?;
        self.mem.write_raw(addr, data)?;
        // Flight recorder: landed SMM-context writes join the current
        // SMI's write-set (faulted writes above never reach here).
        if ctx == AccessCtx::Smm {
            if let Some(rec) = self.flight_open.as_mut() {
                rec.note_write(addr, data.len() as u64);
            }
        }
        Ok(())
    }

    /// Ask the armed injection plan (if any) whether this write faults.
    fn consult_injector(
        &mut self,
        ctx: AccessCtx,
        addr: u64,
        len: usize,
    ) -> Result<(), MachineError> {
        let Some(state) = self.inject.as_mut() else {
            return Ok(());
        };
        let is_smm = ctx == AccessCtx::Smm;
        let write_index = state.stats().smm_writes_seen;
        let Some(action) = state.on_write(is_smm, addr, len) else {
            return Ok(());
        };
        let power_loss = action == InjectionAction::PowerLoss;
        if power_loss {
            // Snapshot the machine *before* the write lands — the state
            // a warm reboot would find.
            let snap = self.snapshot();
            // `snapshot` only borrows immutably, so the plan is still
            // armed here.
            self.inject
                .as_mut()
                .expect("armed above")
                .store_snapshot(snap);
            kshot_telemetry::counter("machine.power_loss", 1);
        }
        kshot_telemetry::counter("machine.injected_fault", 1);
        let err = MachineError::InjectedFault {
            addr,
            write_index,
            power_loss,
        };
        self.log(Event::Fault(err.clone()));
        Err(err)
    }

    // ---- fault injection --------------------------------------------------

    /// Arm a deterministic fault-injection plan, replacing any armed one
    /// (its counters restart from zero).
    pub fn arm_injection(&mut self, plan: InjectionPlan) {
        self.inject = Some(InjectionState::new(plan));
    }

    /// Disarm the current plan, returning its observation counters.
    pub fn disarm_injection(&mut self) -> Option<InjectionStats> {
        self.inject.take().map(|s| s.stats())
    }

    /// Counters of the armed plan, if any.
    pub fn injection_stats(&self) -> Option<InjectionStats> {
        self.inject.as_ref().map(|s| s.stats())
    }

    /// The snapshot captured by a fired power-loss injection, if any
    /// (taking it leaves the plan armed but snapshot-less).
    pub fn take_power_loss_snapshot(&mut self) -> Option<MachineSnapshot> {
        self.inject.as_mut().and_then(|s| s.take_snapshot())
    }

    /// Capture a resumable copy of the full machine state. The copy
    /// carries no armed injection plan.
    pub fn snapshot(&self) -> MachineSnapshot {
        let mut copy = self.clone();
        copy.inject = None;
        MachineSnapshot {
            inner: Box::new(copy),
        }
    }

    /// Resume from a snapshot as after a warm reset: RAM (including
    /// SMRAM and its lock) is the snapshot's, the CPU restarts in
    /// Protected Mode with a cleared register file, and any armed
    /// injection plan is forgotten. The simulated clock continues from
    /// the snapshot instant.
    pub fn restore_from_snapshot(&mut self, snap: MachineSnapshot) {
        // A warm reset never completes the interrupted SMI: close its
        // flight record with `Interrupted` (dwell measured on the *live*
        // clock up to the reset instant) so the monitor can tell "never
        // exited SMM" from "fast SMI", and count it.
        let reset_at = self.now();
        let interrupted = self.flight_open.take().map(|mut rec| {
            rec.dwell = self
                .smm_entered_at
                .map_or(SimTime::ZERO, |entered| reset_at.saturating_sub(entered));
            rec.exit = SmiExit::Interrupted;
            rec
        });
        *self = *snap.inner;
        self.mode = CpuMode::Protected;
        self.cpu = CpuState::new();
        self.inject = None;
        // The half-open dwell interval is discarded rather than
        // attributed to the next RSM (the snapshot may also have been
        // taken mid-SMI, so clear its copies too).
        self.smm_entered_at = None;
        self.flight_open = None;
        if let Some(rec) = interrupted {
            self.smm_dwell_interrupted += 1;
            kshot_telemetry::counter("machine.smm_dwell_interrupted", 1);
            self.push_flight(rec);
        }
        kshot_telemetry::counter("machine.snapshot_resume", 1);
    }

    /// Read a little-endian `u64` under privilege `ctx`.
    pub fn read_u64(&mut self, ctx: AccessCtx, addr: u64) -> Result<u64, MachineError> {
        let mut b = [0u8; 8];
        self.read_bytes(ctx, addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian `u64` under privilege `ctx`.
    pub fn write_u64(&mut self, ctx: AccessCtx, addr: u64, v: u64) -> Result<(), MachineError> {
        self.write_bytes(ctx, addr, &v.to_le_bytes())
    }

    /// Fetch and decode the instruction at `addr` under privilege `ctx`,
    /// enforcing execute permission.
    ///
    /// # Errors
    ///
    /// Faults on permission violations; propagates decode errors as an
    /// access violation (executing non-code is a fault on this machine).
    pub fn fetch(&mut self, ctx: AccessCtx, addr: u64) -> Result<(Inst, usize), MachineError> {
        // Fetch up to MAX_INST_LEN bytes but tolerate a shorter tail.
        let avail = (self.mem.size().saturating_sub(addr)) as usize;
        let len = avail.min(kshot_isa::MAX_INST_LEN);
        if len == 0 {
            return Err(MachineError::OutOfRange {
                addr,
                len: 1,
                mem_size: self.mem.size(),
            });
        }
        let mut buf = [0u8; kshot_isa::MAX_INST_LEN];
        self.check(ctx, addr, 1, Access::Execute)?;
        self.mem.read_raw(addr, &mut buf[..len])?;
        let (inst, inst_len) =
            Inst::decode(&buf[..len], 0).map_err(|_| MachineError::AccessViolation {
                addr,
                access: Access::Execute,
                ctx: ctx.name(),
                reason: "undecodable instruction",
            })?;
        // The whole encoding must be executable (a jmp spanning into a
        // non-X page faults on real hardware too).
        self.check(ctx, addr, inst_len, Access::Execute)?;
        Ok((inst, inst_len))
    }

    /// Raw, check-free view of memory. Only the trusted introspection and
    /// loader paths use this; guest-reachable code must go through the
    /// checked accessors.
    pub fn phys(&self) -> &PhysMemory {
        &self.mem
    }

    /// Raw, check-free mutable view of memory (loader/firmware only).
    pub fn phys_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// Set page attributes on a range (performed by the kernel's
    /// `paging_init` analogue or by firmware).
    ///
    /// # Errors
    ///
    /// Propagates range errors from the attribute table.
    pub fn set_page_attrs(
        &mut self,
        base: u64,
        size: u64,
        attrs: PageAttrs,
    ) -> Result<(), MachineError> {
        self.mem.set_attrs(base, size, attrs)
    }

    // ---- SMM transitions -------------------------------------------------

    /// Deliver a System Management Interrupt: the hardware saves the CPU
    /// state into the SMRAM save area and switches to SMM.
    ///
    /// # Errors
    ///
    /// [`MachineError::AlreadyInSmm`] if nested.
    pub fn raise_smi(&mut self) -> Result<(), MachineError> {
        if self.mode == CpuMode::Smm {
            return Err(MachineError::AlreadyInSmm);
        }
        let save = self.cpu.to_save_area();
        // The save area lives at the base of SMRAM.
        let base = self.layout.smram_base;
        self.mem.write_raw(base, &save)?;
        self.mode = CpuMode::Smm;
        self.smi_count += 1;
        // Dwell measurement starts at delivery, before the entry cost,
        // so the switch-in/switch-out overheads count against the
        // budget too.
        self.smm_entered_at = Some(self.now());
        let entry_cost = self.cost.smm_entry;
        self.charge(entry_cost);
        let now = self.now();
        self.log(Event::SmiEnter(now));
        let cause = self
            .pending_smi_cause
            .take()
            .unwrap_or(SmiCause::Unattributed);
        // A tamper attack models a pre-SMI scribble over the sealed
        // handler image (e.g. a bootkit): it must land *before* the
        // entry measurement so the measurement is what catches it.
        if self.attack == Some(AttackKind::TamperHandlerImage) {
            if let Some((base, _)) = self.sealed_image {
                let mut b = [0u8; 1];
                if self.mem.read_raw(base, &mut b).is_ok() {
                    let _ = self.mem.write_raw(base, &[b[0] ^ 0xFF]);
                }
                self.attack = None;
            }
        }
        let measurement = self.measure_handler_image();
        self.flight_open = Some(SmiFlightRecord::open(self.smi_count, cause, measurement));
        // Rogue-write and dwell-exhaustion attacks fire inside the SMI,
        // after the record opened, so the recorder observes them.
        match self.attack {
            Some(AttackKind::RogueWrite { addr, len }) => {
                self.attack = None;
                let data = vec![0xEE; (len as usize).clamp(1, 64)];
                let _ = self.write_bytes(AccessCtx::Smm, addr, &data);
            }
            Some(AttackKind::DwellExhaustion { extra }) => {
                self.attack = None;
                self.charge(extra);
            }
            _ => {}
        }
        Ok(())
    }

    /// Execute `RSM`: restore the saved CPU state from SMRAM and resume
    /// Protected Mode.
    ///
    /// # Errors
    ///
    /// [`MachineError::NotInSmm`] if the CPU is not in SMM.
    pub fn rsm(&mut self) -> Result<(), MachineError> {
        if self.mode != CpuMode::Smm {
            return Err(MachineError::NotInSmm);
        }
        let mut save = [0u8; SAVE_AREA_LEN];
        self.mem.read_raw(self.layout.smram_base, &mut save)?;
        self.cpu = CpuState::from_save_area(&save);
        self.mode = CpuMode::Protected;
        let exit_cost = self.cost.smm_exit;
        self.charge(exit_cost);
        let now = self.now();
        // A journal-abuse attack appends bogus entry acknowledgements
        // after the handler closed its window; it waits for an SMI that
        // actually journaled so the abuse lands behind a real Commit.
        if let Some(AttackKind::JournalAbuse { extra_entries }) = self.attack {
            if let Some(rec) = self.flight_open.as_mut() {
                if rec
                    .journal
                    .iter()
                    .any(|op| matches!(op, JournalOp::Begin { .. }))
                {
                    rec.note_journal(JournalOp::Entries {
                        count: extra_entries,
                    });
                    self.attack = None;
                }
            }
        }
        if let Some(entered) = self.smm_entered_at.take() {
            let dwell = now.saturating_sub(entered);
            if dwell > self.max_smm_dwell {
                self.max_smm_dwell = dwell;
                self.max_smm_dwell_smi = self
                    .flight_open
                    .as_ref()
                    .map(|rec| (rec.index, rec.cause))
                    .or(Some((self.smi_count, SmiCause::Unattributed)));
            }
            if let Some(rec) = self.flight_open.take() {
                let mut rec = rec;
                rec.dwell = dwell;
                rec.exit = SmiExit::Ok;
                self.push_flight(rec);
            }
            kshot_telemetry::observe("machine.smm_dwell_ns", dwell.as_ns());
            if let Some(budget) = self.smm_dwell_budget {
                let effective_ns = budget.as_ns().saturating_mul(self.smm_dwell_budget_scale);
                if dwell.as_ns() > effective_ns {
                    self.smm_overbudget += 1;
                    kshot_telemetry::counter("machine.smm_overbudget", 1);
                    kshot_telemetry::event_with("machine.smm_overbudget", Some(now.as_ns()), |f| {
                        f.push(("dwell_ns", dwell.as_ns().into()));
                        f.push(("budget_ns", effective_ns.into()));
                    });
                }
            }
        }
        self.log(Event::Rsm(now));
        Ok(())
    }

    /// Address of the SMM handler's private scratch area inside SMRAM
    /// (immediately after the CPU save area).
    pub fn smram_scratch_base(&self) -> u64 {
        self.layout.smram_base + SAVE_AREA_LEN as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_isa::Reg;

    fn machine() -> Machine {
        Machine::new(MemLayout::standard()).unwrap()
    }

    #[test]
    fn kernel_cannot_touch_smram() {
        let mut m = machine();
        let base = m.layout().smram_base;
        let mut buf = [0u8; 1];
        assert!(matches!(
            m.read_bytes(AccessCtx::Kernel, base, &mut buf),
            Err(MachineError::AccessViolation { .. })
        ));
        assert!(m.write_bytes(AccessCtx::Kernel, base + 5, &[1]).is_err());
        // Straddling writes that end inside SMRAM also fault.
        assert!(m
            .write_bytes(AccessCtx::Kernel, base - 4, &[0u8; 8])
            .is_err());
        // Faults are logged.
        assert!(m.events().iter().any(|e| matches!(e, Event::Fault(_))));
    }

    #[test]
    fn smm_ctx_requires_smm_mode() {
        let mut m = machine();
        let base = m.layout().smram_base;
        assert!(m.write_bytes(AccessCtx::Smm, base, &[1]).is_err());
        m.raise_smi().unwrap();
        m.write_bytes(AccessCtx::Smm, base + 0x800, &[1]).unwrap();
        let mut buf = [0u8; 1];
        m.read_bytes(AccessCtx::Smm, base + 0x800, &mut buf)
            .unwrap();
        assert_eq!(buf, [1]);
    }

    #[test]
    fn smm_bypasses_page_attrs() {
        let mut m = machine();
        let text = m.layout().kernel_text_base;
        // Kernel cannot write its own (RX) text…
        assert!(m.write_bytes(AccessCtx::Kernel, text, &[0x90]).is_err());
        // …but SMM can (this is how patching works).
        m.raise_smi().unwrap();
        m.write_bytes(AccessCtx::Smm, text, &[0x90]).unwrap();
    }

    #[test]
    fn smi_saves_and_rsm_restores_cpu_state() {
        let mut m = machine();
        m.cpu_mut().set(Reg::R7, 0x1234);
        m.cpu_mut().pc = 0xABCD;
        m.cpu_mut().flags = Some((5, 9));
        m.raise_smi().unwrap();
        // The SMM handler may clobber registers freely…
        m.cpu_mut().set(Reg::R7, 0);
        m.cpu_mut().pc = 0;
        m.cpu_mut().flags = None;
        m.rsm().unwrap();
        // …hardware restore brings back the pre-SMI state.
        assert_eq!(m.cpu().get(Reg::R7), 0x1234);
        assert_eq!(m.cpu().pc, 0xABCD);
        assert_eq!(m.cpu().flags, Some((5, 9)));
        assert_eq!(m.mode(), CpuMode::Protected);
        assert_eq!(m.smi_count(), 1);
    }

    #[test]
    fn nested_smi_and_spurious_rsm_fault() {
        let mut m = machine();
        m.raise_smi().unwrap();
        assert_eq!(m.raise_smi(), Err(MachineError::AlreadyInSmm));
        m.rsm().unwrap();
        assert_eq!(m.rsm(), Err(MachineError::NotInSmm));
    }

    #[test]
    fn smm_transitions_charge_calibrated_time() {
        let mut m = machine();
        let before = m.now();
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        let elapsed = m.now() - before;
        // Paper: 12.9µs entry + 21.7µs exit = 34.6µs.
        assert_eq!(elapsed.as_ns(), 12_900 + 21_700);
    }

    #[test]
    fn fetch_requires_execute_permission() {
        let mut m = machine();
        let text = m.layout().kernel_text_base;
        // Load a ret via firmware, fetch as kernel: OK.
        m.write_bytes(AccessCtx::Firmware, text, &[0xC3]).unwrap();
        let (inst, len) = m.fetch(AccessCtx::Kernel, text).unwrap();
        assert_eq!(len, 1);
        assert_eq!(inst, kshot_isa::Inst::Ret);
        // Data pages are not executable.
        let data = m.layout().kernel_data_base;
        m.write_bytes(AccessCtx::Firmware, data, &[0xC3]).unwrap();
        assert!(m.fetch(AccessCtx::Kernel, data).is_err());
    }

    #[test]
    fn fetch_rejects_garbage() {
        let mut m = machine();
        let text = m.layout().kernel_text_base;
        m.write_bytes(AccessCtx::Firmware, text, &[0xAB]).unwrap();
        let err = m.fetch(AccessCtx::Kernel, text).unwrap_err();
        assert!(matches!(err, MachineError::AccessViolation { reason, .. }
            if reason == "undecodable instruction"));
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = machine();
        let data = m.layout().kernel_data_base;
        m.write_u64(AccessCtx::Kernel, data, 0xfeed_f00d).unwrap();
        assert_eq!(m.read_u64(AccessCtx::Kernel, data).unwrap(), 0xfeed_f00d);
    }

    #[test]
    fn event_log_is_bounded() {
        let mut m = machine();
        let smram = m.layout().smram_base;
        for _ in 0..(super::MAX_EVENTS + 10) {
            let _ = m.write_bytes(AccessCtx::Kernel, smram, &[0]);
        }
        assert_eq!(m.events().len(), super::MAX_EVENTS);
    }

    #[test]
    fn dwell_watchdog_measures_entry_to_rsm() {
        let mut m = machine();
        // A bare SMI → RSM dwell is exactly the two mode-switch costs.
        let expected = m.cost().smm_entry + m.cost().smm_exit;
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        assert_eq!(m.max_smm_dwell(), expected);
        // No budget armed: nothing flagged.
        assert_eq!(m.smm_overbudget_count(), 0);
    }

    #[test]
    fn dwell_watchdog_flags_only_overbudget_smis() {
        let mut m = machine();
        let switch = m.cost().smm_entry + m.cost().smm_exit;
        // Budget admits the bare switches plus 1µs of handler work.
        m.set_smm_dwell_budget(Some(switch + SimTime::from_us(1)));
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        assert_eq!(m.smm_overbudget_count(), 0);
        // A slow handler blows the budget.
        m.raise_smi().unwrap();
        m.charge(SimTime::from_us(2));
        m.rsm().unwrap();
        assert_eq!(m.smm_overbudget_count(), 1);
        assert_eq!(m.max_smm_dwell(), switch + SimTime::from_us(2));
        // Disarming stops flagging but keeps measuring.
        m.set_smm_dwell_budget(None);
        m.raise_smi().unwrap();
        m.charge(SimTime::from_ms(1));
        m.rsm().unwrap();
        assert_eq!(m.smm_overbudget_count(), 1);
        assert!(m.max_smm_dwell() > SimTime::from_ms(1));
    }

    #[test]
    fn dwell_budget_scale_admits_batched_smis() {
        let mut m = machine();
        let switch = m.cost().smm_entry + m.cost().smm_exit;
        // Per-patch budget admits the switches plus 1µs of handler work.
        m.set_smm_dwell_budget(Some(switch + SimTime::from_us(1)));
        // 3µs of work blows the per-patch budget...
        m.raise_smi().unwrap();
        m.charge(SimTime::from_us(3));
        m.rsm().unwrap();
        assert_eq!(m.smm_overbudget_count(), 1);
        // ...but is within budget for a 4-CVE batched SMI.
        m.set_smm_dwell_budget_scale(4);
        assert_eq!(m.smm_dwell_budget_scale(), 4);
        m.raise_smi().unwrap();
        m.charge(SimTime::from_us(3));
        m.rsm().unwrap();
        assert_eq!(m.smm_overbudget_count(), 1);
        // Scale clamps to at least 1.
        m.set_smm_dwell_budget_scale(0);
        assert_eq!(m.smm_dwell_budget_scale(), 1);
    }

    #[test]
    fn dwell_watchdog_discards_interval_across_warm_reset() {
        let mut m = machine();
        m.set_smm_dwell_budget(Some(SimTime::from_ns(1)));
        m.raise_smi().unwrap();
        m.charge(SimTime::from_us(5));
        let snap = m.snapshot();
        // The snapshot was taken mid-SMI; restoring must not attribute
        // the half-open interval to a later RSM.
        m.restore_from_snapshot(snap);
        assert_eq!(m.mode(), CpuMode::Protected);
        // The torn SMI is counted and closed with an Interrupted flight
        // record whose dwell covers delivery up to the reset instant.
        assert_eq!(m.smm_dwell_interrupted_count(), 1);
        let torn = m.flight_records().last().unwrap();
        assert_eq!(torn.exit, crate::flight::SmiExit::Interrupted);
        assert_eq!(torn.dwell, m.cost().smm_entry + SimTime::from_us(5));
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        // Only the post-restore SMI is measured (and flagged, with the
        // 1ns budget).
        assert_eq!(m.smm_overbudget_count(), 1);
    }

    #[test]
    fn flight_records_capture_cause_writes_and_dwell() {
        use crate::flight::{JournalOp, SmiCause, SmiExit, WriteRange};
        let mut m = machine();
        let scratch = m.smram_scratch_base();
        m.declare_smi_cause(SmiCause::Patch);
        m.raise_smi().unwrap();
        m.write_bytes(AccessCtx::Smm, scratch, &[1, 2, 3, 4])
            .unwrap();
        m.write_bytes(AccessCtx::Smm, scratch + 4, &[5, 6]).unwrap(); // coalesces
        m.flight_note_journal(JournalOp::Commit);
        m.charge(SimTime::from_us(1));
        m.rsm().unwrap();
        assert_eq!(m.flight_records().count(), 1);
        let rec = m.flight_records().next().unwrap();
        assert_eq!(rec.index, 1);
        assert_eq!(rec.cause, SmiCause::Patch);
        assert_eq!(rec.exit, SmiExit::Ok);
        assert_eq!(rec.measurement, 0, "no image sealed yet");
        assert_eq!(
            rec.writes,
            vec![WriteRange {
                base: scratch,
                len: 6
            }]
        );
        assert_eq!(rec.journal, vec![JournalOp::Commit]);
        let switch = m.cost().smm_entry + m.cost().smm_exit;
        assert_eq!(rec.dwell, switch + SimTime::from_us(1));
        assert_eq!(rec.dwell, m.max_smm_dwell());
        assert_eq!(m.max_smm_dwell_smi(), Some((1, SmiCause::Patch)));
        // The cause declaration is one-shot: the next SMI is
        // unattributed, and the hardware save-area write never pollutes
        // the write-set.
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        let rec = m.flight_records().last().unwrap();
        assert_eq!(rec.cause, SmiCause::Unattributed);
        assert!(rec.writes.is_empty());
    }

    #[test]
    fn sealed_image_is_measured_and_tamper_changes_it() {
        use crate::flight::fnv1a;
        let mut m = machine();
        let base = m.smram_scratch_base() + 0x2000;
        let image = [0xAB; 64];
        m.raise_smi().unwrap();
        m.write_bytes(AccessCtx::Smm, base, &image).unwrap();
        m.seal_handler_image(base, image.len() as u64);
        m.rsm().unwrap();
        let expected = fnv1a(&image);
        assert_eq!(m.measure_handler_image(), expected);
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        assert_eq!(m.flight_records().last().unwrap().measurement, expected);
        // Tamper fires before the next entry measurement, then disarms.
        m.arm_attack(AttackKind::TamperHandlerImage);
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        let tampered = m.flight_records().last().unwrap().measurement;
        assert_ne!(tampered, expected);
        assert_eq!(m.armed_attack(), None);
        // Subsequent SMIs keep measuring the tampered image.
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        assert_eq!(m.flight_records().last().unwrap().measurement, tampered);
    }

    #[test]
    fn rogue_write_and_dwell_attacks_are_observable() {
        use crate::flight::WriteRange;
        let mut m = machine();
        m.arm_attack(AttackKind::RogueWrite { addr: 0x40, len: 8 });
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        let rec = m.flight_records().last().unwrap();
        assert!(rec.writes.contains(&WriteRange { base: 0x40, len: 8 }));
        let baseline = rec.dwell;
        m.arm_attack(AttackKind::DwellExhaustion {
            extra: SimTime::from_ms(10),
        });
        m.raise_smi().unwrap();
        m.rsm().unwrap();
        let rec = m.flight_records().last().unwrap();
        assert_eq!(rec.dwell, baseline + SimTime::from_ms(10));
    }
}
