//! # dynacut-isa — the DCVM instruction set
//!
//! The DynaCut reproduction runs its guest programs on a small deterministic
//! virtual machine (the *DCVM*). This crate defines that machine's
//! instruction set architecture:
//!
//! * [`Reg`] — the sixteen general-purpose registers (`R15` doubles as the
//!   stack pointer by convention),
//! * [`Insn`] — every instruction, with a **variable-length** binary
//!   encoding ([`encode`]/[`decode`]) so that overwriting the *first byte*
//!   of a basic block with the one-byte [`Insn::Trap`] opcode (`0xCC`,
//!   deliberately the same byte as x86 `int3`) is a meaningful operation,
//! * [`Assembler`] — a label-based assembler that also records the
//!   [`BasicBlock`] layout of the text it emits, and
//! * [`disasm`] — a fallible linear-sweep disassembler.
//!
//! The variable-length encoding matters: DynaCut's two blocking policies
//! ("replace only the first byte" vs. "wipe the whole block") differ in
//! security exactly because an attacker can jump into the *middle* of a
//! partially-patched block. That distinction is reproducible here.
//!
//! ```
//! use dynacut_isa::{Assembler, Insn, Reg, TRAP_OPCODE};
//!
//! # fn main() -> Result<(), dynacut_isa::IsaError> {
//! let mut asm = Assembler::new();
//! asm.label("start");
//! asm.push(Insn::Movi(Reg::R0, 7));
//! asm.push(Insn::Trap);
//! let text = asm.finish()?;
//! assert_eq!(text.bytes[text.bytes.len() - 1], TRAP_OPCODE);
//! # Ok(())
//! # }
//! ```
//!
//! A narrowing `as` cast is denied crate-wide: a value that may not fit
//! goes through `try_from`, and a cast that truncates on purpose says why
//! in an `#[allow]`.
#![deny(clippy::cast_possible_truncation)]

mod asm;
mod block;
mod decode;
mod disasm;
mod encode;
mod error;
mod insn;
mod reg;

pub use asm::{AsmReloc, Assembler, FuncSpan, RelocKind, TextImage};
pub use block::{coalesce_blocks, BasicBlock};
pub use decode::{decode, decode_all};
pub use disasm::{disasm, Disasm};
pub use encode::{encode, encode_into};
pub use error::IsaError;
pub use insn::{Cond, Insn, Opcode, Width, MAX_INSN_LEN, TRAP_OPCODE};
pub use reg::Reg;
