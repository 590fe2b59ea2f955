//! # dynacut-obj — the DCO object format, linker and loader
//!
//! DynaCut operates on binaries "at the binary level; no source code is
//! needed" (paper §1). This crate is the reproduction's analogue of the ELF
//! toolchain the paper relies on (static linker, `ld.so` semantics,
//! `pyelftools` parsing):
//!
//! * [`ModuleBuilder`] turns assembled text plus data definitions into a
//!   linked, loadable [`Image`] — an executable or a position-independent
//!   shared library,
//! * the linker synthesises **PLT stubs and GOT slots** for imported
//!   functions ([`PltEntry`]), which is what makes the paper's ret2plt /
//!   BROP attack-surface experiments (§4.2) expressible,
//! * [`Image::to_bytes`]/[`Image::from_bytes`] give the on-disk DCO format
//!   that the process rewriter parses when it injects a signal-handler
//!   library into a checkpointed process (paper §3.3, "very similar to a
//!   traditional ELF loader"),
//! * [`materialize`] computes the memory segments and load-time relocation
//!   patches for a chosen base address.
//!
//! ```
//! use dynacut_isa::{Assembler, Insn, Reg};
//! use dynacut_obj::{materialize, ModuleBuilder, ObjectKind, PAGE_SIZE};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut asm = Assembler::new();
//! asm.func("_start");
//! asm.push(Insn::Movi(Reg::R0, 0)); // SYS_exit
//! asm.push(Insn::Syscall);
//! let mut builder = ModuleBuilder::new("tiny", ObjectKind::Executable);
//! builder.text(asm.finish()?);
//! builder.entry("_start");
//! let image = builder.link(&[])?;
//! let segments = materialize(&image, 0x40_0000, |_| None)?;
//! assert_eq!(segments[0].vaddr % PAGE_SIZE, 0);
//! # Ok(())
//! # }
//! ```
//!
//! A narrowing `as` cast is denied crate-wide: a value that may not fit
//! goes through `try_from`, and a cast that truncates on purpose says why
//! in an `#[allow]`.
#![deny(clippy::cast_possible_truncation)]

mod builder;
mod codec;
mod error;
mod image;
mod link;
mod loader;
pub mod wire;

pub use builder::ModuleBuilder;
pub use error::ObjError;
pub use image::{DynReloc, Image, ObjectKind, PltEntry, RelocValue, SymbolDef, SymbolKind};
pub use loader::{materialize, resolve, SegmentInit};

/// Page size of the DCVM, in bytes (same as x86-64 small pages).
pub const PAGE_SIZE: u64 = 4096;

/// [`PAGE_SIZE`] as a length, for indexing and buffers.
pub const PAGE_LEN: usize = 4096;
const _: () = assert!(PAGE_LEN as u64 == PAGE_SIZE);

/// Memory protection flags of a segment or VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perms {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Perms {
    /// Read-only.
    pub const R: Perms = Perms {
        read: true,
        write: false,
        exec: false,
    };
    /// Read-write.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-execute (text segments).
    pub const RX: Perms = Perms {
        read: true,
        write: false,
        exec: true,
    };
    /// No access (guard pages / unmapped placeholders).
    pub const NONE: Perms = Perms {
        read: false,
        write: false,
        exec: false,
    };
}

impl std::fmt::Display for Perms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

/// Rounds `value` up to the next multiple of [`PAGE_SIZE`].
pub fn page_align(value: u64) -> u64 {
    value.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// [`page_align`] for lengths that arrive from outside the program (a
/// guest syscall argument): `None` when the rounded value does not fit
/// a `u64`.
pub fn checked_page_align(value: u64) -> Option<u64> {
    value.div_ceil(PAGE_SIZE).checked_mul(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_align_rounds_up() {
        assert_eq!(page_align(0), 0);
        assert_eq!(page_align(1), PAGE_SIZE);
        assert_eq!(page_align(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(page_align(PAGE_SIZE + 1), 2 * PAGE_SIZE);
        assert_eq!(checked_page_align(PAGE_SIZE + 1), Some(2 * PAGE_SIZE));
        let top_page = u64::MAX - PAGE_SIZE + 1;
        assert_eq!(checked_page_align(top_page), Some(top_page));
        assert_eq!(checked_page_align(top_page + 1), None);
        assert_eq!(checked_page_align(u64::MAX), None);
    }

    #[test]
    fn perms_display_mirrors_proc_maps() {
        assert_eq!(Perms::RX.to_string(), "r-x");
        assert_eq!(Perms::RW.to_string(), "rw-");
        assert_eq!(Perms::R.to_string(), "r--");
        assert_eq!(Perms::NONE.to_string(), "---");
    }
}
