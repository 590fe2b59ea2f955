//! Instruction definitions and static encoding metadata.

use crate::Reg;
use std::fmt;

/// The opcode byte of [`Insn::Trap`]: `0xCC`, the same value as the x86-64
/// `int3` breakpoint instruction that DynaCut writes over undesired basic
/// blocks. Executing it raises `SIGTRAP` in the DCVM kernel.
pub const TRAP_OPCODE: u8 = 0xCC;

/// The longest encoded instruction ([`Insn::Movi`]), in bytes. Fetch
/// paths can decode any instruction out of a fixed `[u8; MAX_INSN_LEN]`
/// buffer instead of allocating per fetch.
pub const MAX_INSN_LEN: usize = 10;

/// Memory access width for load/store instructions, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// The access width in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }
}

/// Branch condition, evaluated against the flags set by the most recent
/// `Cmp`/`Cmpi`.
///
/// Signed (`Lt`…`Ge`) and unsigned (`B`…`Ae`, x86 mnemonic style) variants
/// both exist because the guest applications model real bounds checks, and
/// signed/unsigned confusion is exactly how the modelled Redis CVEs
/// (integer overflow in `STRALGO LCS`) come about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below.
    B,
    /// Unsigned below-or-equal.
    Be,
    /// Unsigned above.
    A,
    /// Unsigned above-or-equal.
    Ae,
}

impl Cond {
    /// All conditions, in opcode order.
    pub const ALL: [Cond; 10] = [
        Cond::Eq,
        Cond::Ne,
        Cond::Lt,
        Cond::Le,
        Cond::Gt,
        Cond::Ge,
        Cond::B,
        Cond::Be,
        Cond::A,
        Cond::Ae,
    ];
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mnemonic = match self {
            Cond::Eq => "e",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::Ae => "ae",
        };
        f.write_str(mnemonic)
    }
}

/// Symbolic names for every opcode byte of the DCVM.
///
/// This is primarily useful to tooling (disassembler output, decoder
/// diagnostics); most code works with [`Insn`] directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Opcode {
    Nop = 0x00,
    Movi = 0x01,
    Mov = 0x02,
    Add = 0x03,
    Sub = 0x04,
    Mul = 0x05,
    Divu = 0x06,
    Modu = 0x07,
    And = 0x08,
    Or = 0x09,
    Xor = 0x0A,
    Shl = 0x0B,
    Shr = 0x0C,
    Addi = 0x0D,
    Muli = 0x0E,
    Cmp = 0x0F,
    Cmpi = 0x10,
    Lea = 0x11,
    Ld1 = 0x12,
    Ld2 = 0x13,
    Ld4 = 0x14,
    Ld8 = 0x15,
    St1 = 0x16,
    St2 = 0x17,
    St4 = 0x18,
    St8 = 0x19,
    Jmp = 0x1A,
    Je = 0x1B,
    Jne = 0x1C,
    Jlt = 0x1D,
    Jle = 0x1E,
    Jgt = 0x1F,
    Jge = 0x20,
    Jb = 0x21,
    Jbe = 0x22,
    Ja = 0x23,
    Jae = 0x24,
    Jmpr = 0x25,
    Call = 0x26,
    Callr = 0x27,
    Ret = 0x28,
    Push = 0x29,
    Pop = 0x2A,
    Syscall = 0x2B,
    Halt = 0x2C,
    Trap = TRAP_OPCODE,
}

/// One DCVM instruction.
///
/// Relative displacements (`Jmp`, `Jcc`, `Call`, `Lea`) are measured from
/// the address of the **next** instruction, exactly like x86 `rel32`
/// operands. Encoded sizes are given by [`Insn::len`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insn {
    /// Do nothing (1 byte).
    Nop,
    /// `dst = imm` (10 bytes).
    Movi(Reg, u64),
    /// `dst = src` (3 bytes).
    Mov(Reg, Reg),
    /// `dst = dst + src` (3 bytes), wrapping.
    Add(Reg, Reg),
    /// `dst = dst - src` (3 bytes), wrapping.
    Sub(Reg, Reg),
    /// `dst = dst * src` (3 bytes), wrapping.
    Mul(Reg, Reg),
    /// `dst = dst / src` unsigned (3 bytes); division by zero faults.
    Divu(Reg, Reg),
    /// `dst = dst % src` unsigned (3 bytes); division by zero faults.
    Modu(Reg, Reg),
    /// `dst = dst & src` (3 bytes).
    And(Reg, Reg),
    /// `dst = dst | src` (3 bytes).
    Or(Reg, Reg),
    /// `dst = dst ^ src` (3 bytes).
    Xor(Reg, Reg),
    /// `dst = dst << (src & 63)` (3 bytes).
    Shl(Reg, Reg),
    /// `dst = dst >> (src & 63)` logical (3 bytes).
    Shr(Reg, Reg),
    /// `dst = dst + sext(imm)` (6 bytes), wrapping.
    Addi(Reg, i32),
    /// `dst = dst * sext(imm)` (6 bytes), wrapping.
    Muli(Reg, i32),
    /// Compare `a` with `b`, setting flags (3 bytes).
    Cmp(Reg, Reg),
    /// Compare `a` with `sext(imm)`, setting flags (6 bytes).
    Cmpi(Reg, i32),
    /// `dst = address-of-next-instruction + disp` (6 bytes); the ISA's
    /// PC-relative addressing primitive, used for position-independent code.
    Lea(Reg, i32),
    /// `dst = mem[base + disp]`, zero-extended (7 bytes).
    Ld(Width, Reg, Reg, i32),
    /// `mem[base + disp] = src` truncated to the width (7 bytes).
    St(Width, Reg, i32, Reg),
    /// Unconditional relative jump (5 bytes).
    Jmp(i32),
    /// Conditional relative jump (5 bytes).
    Jcc(Cond, i32),
    /// Indirect jump to the address in `target` (2 bytes).
    Jmpr(Reg),
    /// Relative call: push return address, jump (5 bytes).
    Call(i32),
    /// Indirect call to the address in `target` (2 bytes).
    Callr(Reg),
    /// Pop return address and jump to it (1 byte).
    Ret,
    /// Push a register onto the stack (2 bytes).
    Push(Reg),
    /// Pop the stack into a register (2 bytes).
    Pop(Reg),
    /// Enter the kernel; number in `r0`, arguments in `r1..=r5` (1 byte).
    Syscall,
    /// Stop the processor; the kernel kills the process with `SIGILL`-like
    /// semantics (1 byte).
    Halt,
    /// Breakpoint (1 byte, opcode [`TRAP_OPCODE`]). Raises `SIGTRAP`.
    Trap,
}

impl Insn {
    /// The encoded length of this instruction in bytes.
    pub fn len(&self) -> usize {
        match self {
            Insn::Nop | Insn::Ret | Insn::Syscall | Insn::Halt | Insn::Trap => 1,
            Insn::Jmpr(_) | Insn::Callr(_) | Insn::Push(_) | Insn::Pop(_) => 2,
            Insn::Mov(..)
            | Insn::Add(..)
            | Insn::Sub(..)
            | Insn::Mul(..)
            | Insn::Divu(..)
            | Insn::Modu(..)
            | Insn::And(..)
            | Insn::Or(..)
            | Insn::Xor(..)
            | Insn::Shl(..)
            | Insn::Shr(..)
            | Insn::Cmp(..) => 3,
            Insn::Jmp(_) | Insn::Jcc(..) | Insn::Call(_) => 5,
            Insn::Addi(..) | Insn::Muli(..) | Insn::Cmpi(..) | Insn::Lea(..) => 6,
            Insn::Ld(..) | Insn::St(..) => 7,
            Insn::Movi(..) => 10,
        }
    }

    /// Whether `len() == 0`; always `false`, provided for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The opcode byte this instruction encodes to.
    pub fn opcode(&self) -> u8 {
        match self {
            Insn::Nop => Opcode::Nop as u8,
            Insn::Movi(..) => Opcode::Movi as u8,
            Insn::Mov(..) => Opcode::Mov as u8,
            Insn::Add(..) => Opcode::Add as u8,
            Insn::Sub(..) => Opcode::Sub as u8,
            Insn::Mul(..) => Opcode::Mul as u8,
            Insn::Divu(..) => Opcode::Divu as u8,
            Insn::Modu(..) => Opcode::Modu as u8,
            Insn::And(..) => Opcode::And as u8,
            Insn::Or(..) => Opcode::Or as u8,
            Insn::Xor(..) => Opcode::Xor as u8,
            Insn::Shl(..) => Opcode::Shl as u8,
            Insn::Shr(..) => Opcode::Shr as u8,
            Insn::Addi(..) => Opcode::Addi as u8,
            Insn::Muli(..) => Opcode::Muli as u8,
            Insn::Cmp(..) => Opcode::Cmp as u8,
            Insn::Cmpi(..) => Opcode::Cmpi as u8,
            Insn::Lea(..) => Opcode::Lea as u8,
            Insn::Ld(w, ..) => match w {
                Width::B1 => Opcode::Ld1 as u8,
                Width::B2 => Opcode::Ld2 as u8,
                Width::B4 => Opcode::Ld4 as u8,
                Width::B8 => Opcode::Ld8 as u8,
            },
            Insn::St(w, ..) => match w {
                Width::B1 => Opcode::St1 as u8,
                Width::B2 => Opcode::St2 as u8,
                Width::B4 => Opcode::St4 as u8,
                Width::B8 => Opcode::St8 as u8,
            },
            Insn::Jmp(_) => Opcode::Jmp as u8,
            // `Cond` declares its variants in `Cond::ALL`'s opcode order.
            Insn::Jcc(cond, _) => Opcode::Je as u8 + *cond as u8,
            Insn::Jmpr(_) => Opcode::Jmpr as u8,
            Insn::Call(_) => Opcode::Call as u8,
            Insn::Callr(_) => Opcode::Callr as u8,
            Insn::Ret => Opcode::Ret as u8,
            Insn::Push(_) => Opcode::Push as u8,
            Insn::Pop(_) => Opcode::Pop as u8,
            Insn::Syscall => Opcode::Syscall as u8,
            Insn::Halt => Opcode::Halt as u8,
            Insn::Trap => Opcode::Trap as u8,
        }
    }

    /// Whether this instruction ends a basic block: any jump, call, return,
    /// syscall, halt or trap transfers (or may transfer) control.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::Jmp(_)
                | Insn::Jcc(..)
                | Insn::Jmpr(_)
                | Insn::Call(_)
                | Insn::Callr(_)
                | Insn::Ret
                | Insn::Halt
                | Insn::Trap
        )
    }

    /// The relative displacement operand, if this is a PC-relative control
    /// transfer (`Jmp`, `Jcc`, `Call`).
    pub fn rel_target(&self) -> Option<i32> {
        match self {
            Insn::Jmp(disp) | Insn::Jcc(_, disp) | Insn::Call(disp) => Some(*disp),
            _ => None,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Nop => write!(f, "nop"),
            Insn::Movi(d, imm) => write!(f, "movi {d}, {imm:#x}"),
            Insn::Mov(d, s) => write!(f, "mov {d}, {s}"),
            Insn::Add(d, s) => write!(f, "add {d}, {s}"),
            Insn::Sub(d, s) => write!(f, "sub {d}, {s}"),
            Insn::Mul(d, s) => write!(f, "mul {d}, {s}"),
            Insn::Divu(d, s) => write!(f, "divu {d}, {s}"),
            Insn::Modu(d, s) => write!(f, "modu {d}, {s}"),
            Insn::And(d, s) => write!(f, "and {d}, {s}"),
            Insn::Or(d, s) => write!(f, "or {d}, {s}"),
            Insn::Xor(d, s) => write!(f, "xor {d}, {s}"),
            Insn::Shl(d, s) => write!(f, "shl {d}, {s}"),
            Insn::Shr(d, s) => write!(f, "shr {d}, {s}"),
            Insn::Addi(d, imm) => write!(f, "addi {d}, {imm}"),
            Insn::Muli(d, imm) => write!(f, "muli {d}, {imm}"),
            Insn::Cmp(a, b) => write!(f, "cmp {a}, {b}"),
            Insn::Cmpi(a, imm) => write!(f, "cmpi {a}, {imm}"),
            Insn::Lea(d, disp) => write!(f, "lea {d}, [pc{disp:+}]"),
            Insn::Ld(w, d, b, disp) => write!(f, "ld{} {d}, [{b}{disp:+}]", w.bytes()),
            Insn::St(w, b, disp, s) => write!(f, "st{} [{b}{disp:+}], {s}", w.bytes()),
            Insn::Jmp(disp) => write!(f, "jmp pc{disp:+}"),
            Insn::Jcc(c, disp) => write!(f, "j{c} pc{disp:+}"),
            Insn::Jmpr(r) => write!(f, "jmpr {r}"),
            Insn::Call(disp) => write!(f, "call pc{disp:+}"),
            Insn::Callr(r) => write!(f, "callr {r}"),
            Insn::Ret => write!(f, "ret"),
            Insn::Push(r) => write!(f, "push {r}"),
            Insn::Pop(r) => write!(f, "pop {r}"),
            Insn::Syscall => write!(f, "syscall"),
            Insn::Halt => write!(f, "halt"),
            Insn::Trap => write!(f, "trap"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trap_opcode_matches_x86_int3() {
        assert_eq!(TRAP_OPCODE, 0xCC);
        assert_eq!(Insn::Trap.opcode(), 0xCC);
        assert_eq!(Insn::Trap.len(), 1);
    }

    #[test]
    fn max_insn_len_bounds_every_encoding() {
        use crate::Reg;
        let longest = [
            Insn::Movi(Reg::R0, u64::MAX),
            Insn::Ld(Width::B8, Reg::R0, Reg::R1, i32::MAX),
            Insn::St(Width::B8, Reg::R0, i32::MAX, Reg::R1),
            Insn::Addi(Reg::R0, i32::MAX),
            Insn::Lea(Reg::R0, i32::MIN),
            Insn::Jmp(i32::MAX),
            Insn::Jcc(Cond::Eq, i32::MIN),
            Insn::Call(i32::MAX),
        ];
        for insn in longest {
            assert!(insn.len() <= MAX_INSN_LEN, "{insn} exceeds MAX_INSN_LEN");
        }
        assert_eq!(Insn::Movi(Reg::R0, 0).len(), MAX_INSN_LEN);
    }

    #[test]
    fn jcc_opcodes_are_contiguous() {
        for (i, cond) in Cond::ALL.iter().enumerate() {
            let index = u8::try_from(i).unwrap();
            assert_eq!(Insn::Jcc(*cond, 0).opcode(), Opcode::Je as u8 + index);
        }
    }

    #[test]
    fn terminators_are_exactly_control_transfers() {
        assert!(Insn::Jmp(0).is_terminator());
        assert!(Insn::Ret.is_terminator());
        assert!(Insn::Trap.is_terminator());
        assert!(Insn::Halt.is_terminator());
        assert!(Insn::Callr(Reg::R1).is_terminator());
        assert!(!Insn::Nop.is_terminator());
        assert!(!Insn::Syscall.is_terminator());
        assert!(!Insn::Movi(Reg::R0, 1).is_terminator());
    }

    #[test]
    fn widths_report_bytes() {
        assert_eq!(Width::B1.bytes(), 1);
        assert_eq!(Width::B2.bytes(), 2);
        assert_eq!(Width::B4.bytes(), 4);
        assert_eq!(Width::B8.bytes(), 8);
    }

    #[test]
    fn rel_target_present_only_for_relative_transfers() {
        assert_eq!(Insn::Jmp(4).rel_target(), Some(4));
        assert_eq!(Insn::Jcc(Cond::Ne, -8).rel_target(), Some(-8));
        assert_eq!(Insn::Call(12).rel_target(), Some(12));
        assert_eq!(Insn::Jmpr(Reg::R3).rel_target(), None);
        assert_eq!(Insn::Ret.rel_target(), None);
    }

    #[test]
    fn display_is_nonempty_for_every_variant() {
        let samples = [
            Insn::Nop,
            Insn::Movi(Reg::R1, 42),
            Insn::Ld(Width::B8, Reg::R2, Reg::R3, -16),
            Insn::St(Width::B1, Reg::R4, 8, Reg::R5),
            Insn::Jcc(Cond::A, 100),
            Insn::Trap,
        ];
        for insn in samples {
            assert!(!insn.to_string().is_empty());
        }
    }
}
