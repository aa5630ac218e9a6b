//! Machine fault types.

use std::error::Error;
use std::fmt;

use crate::attrs::Access;

/// A hardware-level fault raised by the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The access violated page attributes or SMRAM protection.
    AccessViolation {
        /// Physical address of the faulting access.
        addr: u64,
        /// What kind of access was attempted.
        access: Access,
        /// Human-readable privilege domain that attempted it.
        ctx: &'static str,
        /// Why the hardware rejected it.
        reason: &'static str,
    },
    /// The physical address is outside installed memory.
    OutOfRange {
        /// Faulting address.
        addr: u64,
        /// Length of the access.
        len: usize,
        /// Installed memory size.
        mem_size: u64,
    },
    /// The range is in bounds but not stored contiguously: it crosses
    /// the edge of a run of written pages, so it cannot be borrowed as
    /// one slice (`PhysMemory::read_raw` copies any in-bounds range).
    NotContiguous {
        /// First address of the range.
        addr: u64,
        /// Length of the range.
        len: usize,
    },
    /// Attempt to reconfigure SMRAM after the firmware locked it.
    SmramLocked,
    /// `RSM` executed while not in System Management Mode.
    NotInSmm,
    /// An SMI was raised while already in SMM (nested SMIs are dropped by
    /// hardware; we surface the program error instead).
    AlreadyInSmm,
    /// SMRAM has not been configured yet.
    SmramUnconfigured,
    /// A deterministic fault-injection plan fired on this write (see
    /// `kshot_machine::inject`). The write did not happen.
    InjectedFault {
        /// Address of the write that was failed.
        addr: u64,
        /// Index of this write among SMM-context writes since arming.
        write_index: u64,
        /// Whether the plan simulated a power loss (a resumable
        /// snapshot was captured before the write).
        power_loss: bool,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::AccessViolation {
                addr,
                access,
                ctx,
                reason,
            } => write!(
                f,
                "access violation: {ctx} {access} at {addr:#x} denied ({reason})"
            ),
            MachineError::OutOfRange {
                addr,
                len,
                mem_size,
            } => write!(
                f,
                "physical address {addr:#x}+{len} outside installed memory ({mem_size:#x} bytes)"
            ),
            MachineError::NotContiguous { addr, len } => write!(
                f,
                "physical range {addr:#x}+{len} crosses a storage run edge and cannot be borrowed"
            ),
            MachineError::SmramLocked => write!(f, "SMRAM configuration is locked"),
            MachineError::NotInSmm => write!(f, "RSM outside of System Management Mode"),
            MachineError::AlreadyInSmm => write!(f, "SMI raised while already in SMM"),
            MachineError::SmramUnconfigured => write!(f, "SMRAM has not been configured"),
            MachineError::InjectedFault {
                addr,
                write_index,
                power_loss,
            } => write!(
                f,
                "injected {} at {addr:#x} (smm write #{write_index})",
                if *power_loss { "power loss" } else { "fault" }
            ),
        }
    }
}

impl Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            MachineError::AccessViolation {
                addr: 0x1000,
                access: Access::Write,
                ctx: "kernel",
                reason: "SMRAM",
            },
            MachineError::OutOfRange {
                addr: 1,
                len: 8,
                mem_size: 0,
            },
            MachineError::NotContiguous {
                addr: 0xff8,
                len: 16,
            },
            MachineError::SmramLocked,
            MachineError::NotInSmm,
            MachineError::AlreadyInSmm,
            MachineError::SmramUnconfigured,
            MachineError::InjectedFault {
                addr: 0x2000,
                write_index: 3,
                power_loss: true,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
