//! Instruction definitions, encoding and decoding.

use std::fmt;

use crate::{Cond, IsaError, Reg};

/// Length in bytes of the `jmp rel32` / `call rel32` encodings — and of the
/// ftrace pad. The constant `5` appears throughout the KShot paper
/// (trampoline offset `paddr − taddr + 5`, "5-byte trace instruction").
pub const JMP_LEN: usize = 5;

/// Longest possible instruction encoding (`MovImm` = opcode + reg + imm64).
pub const MAX_INST_LEN: usize = 10;

/// Opcode bytes for the KV ISA.
///
/// Chosen to echo the corresponding x86 opcodes where one exists, which
/// keeps disassembly listings familiar when debugging.
pub mod opcodes {
    /// 1-byte no-op.
    pub const NOP: u8 = 0x90;
    /// 5-byte ftrace pad (`call __fentry__` analogue).
    pub const FTRACE: u8 = 0xF1;
    /// 5-byte unconditional `jmp rel32`.
    pub const JMP: u8 = 0xE9;
    /// 5-byte `call rel32`.
    pub const CALL: u8 = 0xE8;
    /// Return.
    pub const RET: u8 = 0xC3;
    /// Conditional branch: `0x0F cc rel32`.
    pub const JCC: u8 = 0x0F;
    /// Move 64-bit immediate: `0xB8 reg imm64`.
    pub const MOV_IMM: u8 = 0xB8;
    /// Register-to-register move.
    pub const MOV_REG: u8 = 0x89;
    /// ALU register ops (dst ← dst op src).
    pub const ADD: u8 = 0x01;
    /// Subtract.
    pub const SUB: u8 = 0x29;
    /// Bitwise and.
    pub const AND: u8 = 0x21;
    /// Bitwise or.
    pub const OR: u8 = 0x09;
    /// Bitwise xor.
    pub const XOR: u8 = 0x31;
    /// Multiply (wrapping).
    pub const MUL: u8 = 0x6B;
    /// Unsigned divide; traps at runtime on divide-by-zero.
    pub const DIV: u8 = 0xF7;
    /// Shift left by immediate.
    pub const SHL_IMM: u8 = 0xC1;
    /// Logical shift right by immediate.
    pub const SHR_IMM: u8 = 0xD1;
    /// Add sign-extended 32-bit immediate.
    pub const ADD_IMM: u8 = 0x83;
    /// 64-bit load: `dst ← mem64[base+disp32]`.
    pub const LOAD: u8 = 0x8B;
    /// 64-bit store: `mem64[base+disp32] ← src`.
    pub const STORE: u8 = 0x88;
    /// Byte load (zero-extended).
    pub const LOAD_BYTE: u8 = 0x8A;
    /// Byte store (low 8 bits).
    pub const STORE_BYTE: u8 = 0x8C;
    /// Compare two registers, setting flags.
    pub const CMP: u8 = 0x3B;
    /// Compare register with sign-extended 32-bit immediate.
    pub const CMP_IMM: u8 = 0x3D;
    /// Push register onto the stack.
    pub const PUSH: u8 = 0x50;
    /// Pop register from the stack.
    pub const POP: u8 = 0x58;
    /// System call / kernel service: `0xCD imm8`.
    pub const SYS: u8 = 0xCD;
    /// Halt the current task.
    pub const HALT: u8 = 0xF4;
    /// Software trap (deliberate fault, like `ud2`).
    pub const TRAP: u8 = 0xCC;
}

/// A single KV instruction.
///
/// Every variant has a fixed encoded length retrievable via
/// [`Inst::encoded_len`]; [`Inst::encode_into`] and [`Inst::decode`] are
/// exact inverses (see the property tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // operand fields are fully described by each variant's doc line
pub enum Inst {
    /// 1-byte no-op.
    Nop,
    /// 5-byte ftrace pad carrying a trace-site identifier. Emitted at
    /// function entry by the compiler when tracing is enabled; the kernel's
    /// tracer may rewrite it at runtime, so live patching must leave it
    /// intact (paper §V-A).
    Ftrace {
        /// Trace-site identifier (assigned per function by the compiler).
        site: u32,
    },
    /// Unconditional relative jump.
    Jmp {
        /// Displacement relative to the end of this instruction.
        rel: i32,
    },
    /// Relative call; pushes the return address.
    Call {
        /// Displacement relative to the end of this instruction.
        rel: i32,
    },
    /// Return to the address on top of the stack.
    Ret,
    /// Conditional relative branch.
    Jcc {
        /// Branch condition, evaluated against the last comparison.
        cond: Cond,
        /// Displacement relative to the end of this instruction.
        rel: i32,
    },
    /// Load a 64-bit immediate.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: u64,
    },
    /// Register move.
    MovReg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst ← dst + src` (wrapping).
    Add { dst: Reg, src: Reg },
    /// `dst ← dst − src` (wrapping).
    Sub { dst: Reg, src: Reg },
    /// `dst ← dst & src`.
    And { dst: Reg, src: Reg },
    /// `dst ← dst | src`.
    Or { dst: Reg, src: Reg },
    /// `dst ← dst ^ src`.
    Xor { dst: Reg, src: Reg },
    /// `dst ← dst × src` (wrapping).
    Mul { dst: Reg, src: Reg },
    /// `dst ← dst ÷ src` (unsigned); runtime fault on `src == 0`.
    Div { dst: Reg, src: Reg },
    /// `dst ← dst << amount` (amount masked to 0–63).
    ShlImm { dst: Reg, amount: u8 },
    /// `dst ← dst >> amount` logical (amount masked to 0–63).
    ShrImm { dst: Reg, amount: u8 },
    /// `dst ← dst + sx(imm)` (wrapping).
    AddImm { dst: Reg, imm: i32 },
    /// `dst ← mem64[base + disp]`.
    Load { dst: Reg, base: Reg, disp: i32 },
    /// `mem64[base + disp] ← src`.
    Store { base: Reg, disp: i32, src: Reg },
    /// `dst ← zx(mem8[base + disp])`.
    LoadByte { dst: Reg, base: Reg, disp: i32 },
    /// `mem8[base + disp] ← low8(src)`.
    StoreByte { base: Reg, disp: i32, src: Reg },
    /// Set flags from `a ? b`.
    Cmp { a: Reg, b: Reg },
    /// Set flags from `reg ? sx(imm)`.
    CmpImm { reg: Reg, imm: i32 },
    /// Push a register.
    Push { src: Reg },
    /// Pop into a register.
    Pop { dst: Reg },
    /// Invoke kernel service `num` (syscall-style).
    Sys { num: u8 },
    /// Halt the executing task.
    Halt,
    /// Deliberate fault (undefined behaviour marker).
    Trap,
}

impl Inst {
    /// Encoded length in bytes of this instruction.
    pub fn encoded_len(&self) -> usize {
        use Inst::*;
        match self {
            Nop | Ret | Halt | Trap => 1,
            Push { .. } | Pop { .. } | Sys { .. } => 2,
            MovReg { .. }
            | Add { .. }
            | Sub { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Mul { .. }
            | Div { .. }
            | ShlImm { .. }
            | ShrImm { .. }
            | Cmp { .. } => 3,
            Ftrace { .. } | Jmp { .. } | Call { .. } => 5,
            Jcc { .. } | AddImm { .. } | CmpImm { .. } => 6,
            Load { .. } | Store { .. } | LoadByte { .. } | StoreByte { .. } => 7,
            MovImm { .. } => 10,
        }
    }

    /// Append this instruction's encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        use opcodes::*;
        use Inst::*;
        match *self {
            Nop => out.push(NOP),
            Ftrace { site } => {
                out.push(FTRACE);
                out.extend_from_slice(&site.to_le_bytes());
            }
            Jmp { rel } => {
                out.push(JMP);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Call { rel } => {
                out.push(CALL);
                out.extend_from_slice(&rel.to_le_bytes());
            }
            Ret => out.push(RET),
            Jcc { cond, rel } => {
                out.push(JCC);
                out.push(cond.code());
                out.extend_from_slice(&rel.to_le_bytes());
            }
            MovImm { dst, imm } => {
                out.push(MOV_IMM);
                out.push(dst.index() as u8);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            MovReg { dst, src } => enc_rr(out, MOV_REG, dst, src),
            Add { dst, src } => enc_rr(out, ADD, dst, src),
            Sub { dst, src } => enc_rr(out, SUB, dst, src),
            And { dst, src } => enc_rr(out, AND, dst, src),
            Or { dst, src } => enc_rr(out, OR, dst, src),
            Xor { dst, src } => enc_rr(out, XOR, dst, src),
            Mul { dst, src } => enc_rr(out, MUL, dst, src),
            Div { dst, src } => enc_rr(out, DIV, dst, src),
            ShlImm { dst, amount } => {
                out.push(SHL_IMM);
                out.push(dst.index() as u8);
                out.push(amount);
            }
            ShrImm { dst, amount } => {
                out.push(SHR_IMM);
                out.push(dst.index() as u8);
                out.push(amount);
            }
            AddImm { dst, imm } => {
                out.push(ADD_IMM);
                out.push(dst.index() as u8);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Load { dst, base, disp } => enc_mem(out, LOAD, dst, base, disp),
            Store { base, disp, src } => enc_mem(out, STORE, src, base, disp),
            LoadByte { dst, base, disp } => enc_mem(out, LOAD_BYTE, dst, base, disp),
            StoreByte { base, disp, src } => enc_mem(out, STORE_BYTE, src, base, disp),
            Cmp { a, b } => enc_rr(out, CMP, a, b),
            CmpImm { reg, imm } => {
                out.push(CMP_IMM);
                out.push(reg.index() as u8);
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Push { src } => {
                out.push(PUSH);
                out.push(src.index() as u8);
            }
            Pop { dst } => {
                out.push(POP);
                out.push(dst.index() as u8);
            }
            Sys { num } => {
                out.push(SYS);
                out.push(num);
            }
            Halt => out.push(HALT),
            Trap => out.push(TRAP),
        }
    }

    /// Encode to a fresh byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut v);
        v
    }

    /// Decode the instruction starting at `buf[offset]`.
    ///
    /// Returns the instruction and its encoded length.
    ///
    /// # Errors
    ///
    /// [`IsaError::UnknownOpcode`], [`IsaError::Truncated`] or
    /// [`IsaError::BadOperand`] on malformed input.
    pub fn decode(buf: &[u8], offset: usize) -> Result<(Inst, usize), IsaError> {
        use opcodes::*;
        let b = &buf[offset..];
        let first = *b.first().ok_or(IsaError::Truncated { offset })?;
        let need = |n: usize| -> Result<(), IsaError> {
            if b.len() < n {
                Err(IsaError::Truncated { offset })
            } else {
                Ok(())
            }
        };
        let reg_at = |i: usize| -> Result<Reg, IsaError> {
            Reg::from_index(b[i]).ok_or(IsaError::BadOperand {
                offset,
                what: "register",
            })
        };
        let i32_at = |i: usize| i32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let inst = match first {
            NOP => Inst::Nop,
            RET => Inst::Ret,
            HALT => Inst::Halt,
            TRAP => Inst::Trap,
            FTRACE => {
                need(5)?;
                Inst::Ftrace {
                    site: u32::from_le_bytes([b[1], b[2], b[3], b[4]]),
                }
            }
            JMP => {
                need(5)?;
                Inst::Jmp { rel: i32_at(1) }
            }
            CALL => {
                need(5)?;
                Inst::Call { rel: i32_at(1) }
            }
            JCC => {
                need(6)?;
                let cond = Cond::from_code(b[1]).ok_or(IsaError::BadOperand {
                    offset,
                    what: "condition",
                })?;
                Inst::Jcc {
                    cond,
                    rel: i32_at(2),
                }
            }
            MOV_IMM => {
                need(10)?;
                Inst::MovImm {
                    dst: reg_at(1)?,
                    imm: u64::from_le_bytes([b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9]]),
                }
            }
            MOV_REG | ADD | SUB | AND | OR | XOR | MUL | DIV | CMP => {
                need(3)?;
                let x = reg_at(1)?;
                let y = reg_at(2)?;
                match first {
                    MOV_REG => Inst::MovReg { dst: x, src: y },
                    ADD => Inst::Add { dst: x, src: y },
                    SUB => Inst::Sub { dst: x, src: y },
                    AND => Inst::And { dst: x, src: y },
                    OR => Inst::Or { dst: x, src: y },
                    XOR => Inst::Xor { dst: x, src: y },
                    MUL => Inst::Mul { dst: x, src: y },
                    DIV => Inst::Div { dst: x, src: y },
                    _ => Inst::Cmp { a: x, b: y },
                }
            }
            SHL_IMM | SHR_IMM => {
                need(3)?;
                let dst = reg_at(1)?;
                let amount = b[2];
                if first == SHL_IMM {
                    Inst::ShlImm { dst, amount }
                } else {
                    Inst::ShrImm { dst, amount }
                }
            }
            ADD_IMM => {
                need(6)?;
                Inst::AddImm {
                    dst: reg_at(1)?,
                    imm: i32_at(2),
                }
            }
            CMP_IMM => {
                need(6)?;
                Inst::CmpImm {
                    reg: reg_at(1)?,
                    imm: i32_at(2),
                }
            }
            LOAD | LOAD_BYTE => {
                need(7)?;
                let dst = reg_at(1)?;
                let base = reg_at(2)?;
                let disp = i32_at(3);
                if first == LOAD {
                    Inst::Load { dst, base, disp }
                } else {
                    Inst::LoadByte { dst, base, disp }
                }
            }
            STORE | STORE_BYTE => {
                need(7)?;
                let src = reg_at(1)?;
                let base = reg_at(2)?;
                let disp = i32_at(3);
                if first == STORE {
                    Inst::Store { base, disp, src }
                } else {
                    Inst::StoreByte { base, disp, src }
                }
            }
            PUSH => {
                need(2)?;
                Inst::Push { src: reg_at(1)? }
            }
            POP => {
                need(2)?;
                Inst::Pop { dst: reg_at(1)? }
            }
            SYS => {
                need(2)?;
                Inst::Sys { num: b[1] }
            }
            other => {
                return Err(IsaError::UnknownOpcode {
                    opcode: other,
                    offset,
                })
            }
        };
        Ok((inst, inst.encoded_len()))
    }

    /// The relative displacement if this is a control-transfer with an
    /// encoded target (`Jmp`, `Call`, `Jcc`).
    pub fn branch_rel(&self) -> Option<i32> {
        match *self {
            Inst::Jmp { rel } | Inst::Call { rel } | Inst::Jcc { rel, .. } => Some(rel),
            _ => None,
        }
    }

    /// Replace the relative displacement of a branching instruction.
    ///
    /// Returns `None` for non-branching instructions. Used by the patch
    /// preprocessor when relocating patched function bodies into `mem_X`
    /// (paper §V-A: "we must change these offsets to retain required
    /// functionality").
    pub fn with_branch_rel(&self, rel: i32) -> Option<Inst> {
        match *self {
            Inst::Jmp { .. } => Some(Inst::Jmp { rel }),
            Inst::Call { .. } => Some(Inst::Call { rel }),
            Inst::Jcc { cond, .. } => Some(Inst::Jcc { cond, rel }),
            _ => None,
        }
    }

    /// Absolute branch target given the instruction's own address.
    ///
    /// Returns `None` for instructions with no encoded target.
    pub fn branch_target(&self, at: u64) -> Option<u64> {
        self.branch_rel().map(|rel| {
            at.wrapping_add(self.encoded_len() as u64)
                .wrapping_add(rel as i64 as u64)
        })
    }
}

fn enc_rr(out: &mut Vec<u8>, op: u8, x: Reg, y: Reg) {
    out.push(op);
    out.push(x.index() as u8);
    out.push(y.index() as u8);
}

fn enc_mem(out: &mut Vec<u8>, op: u8, reg: Reg, base: Reg, disp: i32) {
    out.push(op);
    out.push(reg.index() as u8);
    out.push(base.index() as u8);
    out.extend_from_slice(&disp.to_le_bytes());
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match *self {
            Nop => write!(f, "nop"),
            Ftrace { site } => write!(f, "ftrace #{site}"),
            Jmp { rel } => write!(f, "jmp {rel:+}"),
            Call { rel } => write!(f, "call {rel:+}"),
            Ret => write!(f, "ret"),
            Jcc { cond, rel } => write!(f, "j{cond} {rel:+}"),
            MovImm { dst, imm } => write!(f, "mov {dst}, {imm:#x}"),
            MovReg { dst, src } => write!(f, "mov {dst}, {src}"),
            Add { dst, src } => write!(f, "add {dst}, {src}"),
            Sub { dst, src } => write!(f, "sub {dst}, {src}"),
            And { dst, src } => write!(f, "and {dst}, {src}"),
            Or { dst, src } => write!(f, "or {dst}, {src}"),
            Xor { dst, src } => write!(f, "xor {dst}, {src}"),
            Mul { dst, src } => write!(f, "mul {dst}, {src}"),
            Div { dst, src } => write!(f, "div {dst}, {src}"),
            ShlImm { dst, amount } => write!(f, "shl {dst}, {amount}"),
            ShrImm { dst, amount } => write!(f, "shr {dst}, {amount}"),
            AddImm { dst, imm } => write!(f, "add {dst}, {imm:+}"),
            Load { dst, base, disp } => write!(f, "mov {dst}, [{base}{disp:+}]"),
            Store { base, disp, src } => write!(f, "mov [{base}{disp:+}], {src}"),
            LoadByte { dst, base, disp } => write!(f, "movb {dst}, [{base}{disp:+}]"),
            StoreByte { base, disp, src } => write!(f, "movb [{base}{disp:+}], {src}"),
            Cmp { a, b } => write!(f, "cmp {a}, {b}"),
            CmpImm { reg, imm } => write!(f, "cmp {reg}, {imm:+}"),
            Push { src } => write!(f, "push {src}"),
            Pop { dst } => write!(f, "pop {dst}"),
            Sys { num } => write!(f, "sys {num:#x}"),
            Halt => write!(f, "hlt"),
            Trap => write!(f, "trap"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_insts() -> Vec<Inst> {
        use Inst::*;
        vec![
            Nop,
            Ftrace { site: 0xdead },
            Jmp { rel: -5 },
            Call { rel: 1234 },
            Ret,
            Jcc {
                cond: Cond::Ne,
                rel: -60,
            },
            MovImm {
                dst: Reg::R3,
                imm: 0xdead_beef_cafe_f00d,
            },
            MovReg {
                dst: Reg::R1,
                src: Reg::R2,
            },
            Add {
                dst: Reg::R0,
                src: Reg::R1,
            },
            Sub {
                dst: Reg::R5,
                src: Reg::R6,
            },
            And {
                dst: Reg::R7,
                src: Reg::R8,
            },
            Or {
                dst: Reg::R9,
                src: Reg::R10,
            },
            Xor {
                dst: Reg::R11,
                src: Reg::R12,
            },
            Mul {
                dst: Reg::R13,
                src: Reg::R14,
            },
            Div {
                dst: Reg::R0,
                src: Reg::R15,
            },
            ShlImm {
                dst: Reg::R2,
                amount: 8,
            },
            ShrImm {
                dst: Reg::R2,
                amount: 63,
            },
            AddImm {
                dst: Reg::R4,
                imm: -1,
            },
            Load {
                dst: Reg::R0,
                base: Reg::R1,
                disp: 0x40,
            },
            Store {
                base: Reg::R1,
                disp: -8,
                src: Reg::R2,
            },
            LoadByte {
                dst: Reg::R3,
                base: Reg::R4,
                disp: 0,
            },
            StoreByte {
                base: Reg::R5,
                disp: 7,
                src: Reg::R6,
            },
            Cmp {
                a: Reg::R0,
                b: Reg::R1,
            },
            CmpImm {
                reg: Reg::R9,
                imm: 100,
            },
            Push { src: Reg::R14 },
            Pop { dst: Reg::R13 },
            Sys { num: 0x80 },
            Halt,
            Trap,
        ]
    }

    #[test]
    fn encode_decode_roundtrip_all_variants() {
        for inst in sample_insts() {
            let bytes = inst.encode();
            assert_eq!(bytes.len(), inst.encoded_len(), "{inst}");
            let (decoded, len) = Inst::decode(&bytes, 0).unwrap();
            assert_eq!(decoded, inst);
            assert_eq!(len, bytes.len());
        }
    }

    #[test]
    fn decode_stream_of_all_variants() {
        let insts = sample_insts();
        let mut buf = Vec::new();
        for i in &insts {
            i.encode_into(&mut buf);
        }
        let mut off = 0;
        let mut decoded = Vec::new();
        while off < buf.len() {
            let (i, len) = Inst::decode(&buf, off).unwrap();
            decoded.push(i);
            off += len;
        }
        assert_eq!(decoded, insts);
    }

    #[test]
    fn decode_unknown_opcode() {
        assert!(matches!(
            Inst::decode(&[0xAB], 0),
            Err(IsaError::UnknownOpcode { opcode: 0xAB, .. })
        ));
    }

    #[test]
    fn decode_truncated() {
        let bytes = Inst::MovImm {
            dst: Reg::R0,
            imm: 42,
        }
        .encode();
        assert!(matches!(
            Inst::decode(&bytes[..5], 0),
            Err(IsaError::Truncated { .. })
        ));
        assert!(matches!(
            Inst::decode(&[], 0),
            Err(IsaError::Truncated { .. })
        ));
    }

    #[test]
    fn decode_bad_register() {
        // MovReg with register index 200.
        assert!(matches!(
            Inst::decode(&[opcodes::MOV_REG, 200, 0], 0),
            Err(IsaError::BadOperand { .. })
        ));
    }

    #[test]
    fn decode_bad_condition() {
        let mut b = vec![opcodes::JCC, 99];
        b.extend_from_slice(&0i32.to_le_bytes());
        assert!(matches!(
            Inst::decode(&b, 0),
            Err(IsaError::BadOperand { .. })
        ));
    }

    #[test]
    fn branch_target_arithmetic() {
        let j = Inst::Jmp { rel: 0x10 };
        assert_eq!(j.branch_target(0x1000), Some(0x1015));
        let j = Inst::Jcc {
            cond: Cond::Eq,
            rel: -6,
        };
        // Jcc is 6 bytes: target = at + 6 - 6 = at (self-loop).
        assert_eq!(j.branch_target(0x1000), Some(0x1000));
        assert_eq!(Inst::Ret.branch_target(0x1000), None);
    }

    #[test]
    fn with_branch_rel_replaces_only_branches() {
        assert_eq!(
            Inst::Jmp { rel: 1 }.with_branch_rel(9),
            Some(Inst::Jmp { rel: 9 })
        );
        assert_eq!(
            Inst::Jcc {
                cond: Cond::Lt,
                rel: 1
            }
            .with_branch_rel(-2),
            Some(Inst::Jcc {
                cond: Cond::Lt,
                rel: -2
            })
        );
        assert_eq!(Inst::Nop.with_branch_rel(5), None);
    }

    #[test]
    fn jmp_is_five_bytes() {
        assert_eq!(Inst::Jmp { rel: 0 }.encoded_len(), JMP_LEN);
        assert_eq!(Inst::Ftrace { site: 0 }.encoded_len(), JMP_LEN);
        assert_eq!(Inst::Call { rel: 0 }.encoded_len(), JMP_LEN);
    }

    #[test]
    fn display_smoke() {
        for inst in sample_insts() {
            assert!(!inst.to_string().is_empty());
        }
    }
}
