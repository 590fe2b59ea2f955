//! The linked, loadable module image.

use crate::ObjError;
use dynacut_isa::{BasicBlock, FuncSpan};
use std::collections::BTreeMap;
use std::fmt;

/// Whether a module is a standalone program or a position-independent
/// shared library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A program with an entry point.
    Executable,
    /// A position-independent shared library (e.g. the guest libc, or the
    /// signal-handler library DynaCut injects).
    SharedLib,
}

/// What kind of thing a symbol names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolKind {
    /// Code (a function entry in `.text`).
    Func,
    /// Data (an object in `.rodata`, `.data` or `.bss`).
    Object,
}

/// A defined symbol: a module-relative offset plus its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymbolDef {
    /// Offset from the module base address.
    pub offset: u64,
    /// Function or data object.
    pub kind: SymbolKind,
    /// Size in bytes (0 if unknown).
    pub size: u64,
}

/// One procedure-linkage-table entry synthesised by the linker for an
/// imported function.
///
/// The stub at `stub_offset` loads the code address from the GOT slot at
/// `got_offset` and jumps to it — the structure the paper's ret2plt/BROP
/// analysis (§4.2) inspects and that DynaCut disables post-initialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PltEntry {
    /// Name of the imported function.
    pub name: String,
    /// Module-relative offset of the 15-byte stub in the text segment.
    pub stub_offset: u64,
    /// Module-relative offset of the 8-byte GOT slot in the data segment.
    pub got_offset: u64,
}

/// Size in bytes of one PLT stub (`lea r14, got` + `ld8 r14,[r14]` +
/// `jmpr r14`).
pub const PLT_STUB_SIZE: u64 = 6 + 7 + 2;

/// What a load-time relocation site receives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocValue {
    /// Absolute address of a locally defined symbol: `base + offset + addend`.
    Local {
        /// Module-relative target offset.
        offset: u64,
        /// Constant addend.
        addend: i64,
    },
    /// Absolute address of a symbol exported by another module, resolved by
    /// the loader (GOT-slot fills and `movi_ext` immediates).
    Import {
        /// Imported symbol name.
        symbol: String,
        /// Constant addend.
        addend: i64,
    },
}

/// A load-time relocation: write an 8-byte little-endian absolute address
/// at module-relative offset `site`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynReloc {
    /// Module-relative offset of the 8-byte patch field.
    pub site: u64,
    /// The value to write.
    pub value: RelocValue,
}

/// A linked module, ready to be placed at a base address.
///
/// Layout (module-relative):
///
/// ```text
/// 0x0        .text  (application code, then PLT stubs)   r-x
/// rodata_off .rodata                                     r--
/// data_off   .data, then .got                            rw-
/// bss_off    .bss   (zero-filled)                        rw-
/// ```
///
/// Every boundary is page-aligned so segments can carry distinct
/// permissions.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Module name (e.g. `"nginx"`, `"libc"`).
    pub name: String,
    /// Executable or shared library.
    pub kind: ObjectKind,
    /// Text bytes, including synthesised PLT stubs at the end.
    pub text: Vec<u8>,
    /// Read-only data bytes.
    pub rodata: Vec<u8>,
    /// Writable data bytes, including zeroed GOT slots at the end.
    pub data: Vec<u8>,
    /// Size of the zero-initialised `.bss` region.
    pub bss_size: u64,
    /// Module-relative offset of `.rodata`.
    pub rodata_off: u64,
    /// Module-relative offset of `.data`.
    pub data_off: u64,
    /// Module-relative offset of the GOT (inside the data segment).
    pub got_off: u64,
    /// Module-relative offset of `.bss`.
    pub bss_off: u64,
    /// Basic blocks partitioning the text (including PLT stubs).
    pub blocks: Vec<BasicBlock>,
    /// Function spans in layout order (PLT stubs appear as `plt$<name>`).
    pub functions: Vec<FuncSpan>,
    /// All defined symbols.
    pub symbols: BTreeMap<String, SymbolDef>,
    /// PLT entries for imported functions.
    pub plt: Vec<PltEntry>,
    /// Load-time relocations.
    pub dyn_relocs: Vec<DynReloc>,
    /// Entry point offset (executables only).
    pub entry: Option<u64>,
    /// Names of imported functions, in PLT order.
    pub imports: Vec<String>,
}

impl Image {
    /// Total size of the module's address-space footprint in bytes
    /// (text through end of bss).
    pub fn footprint(&self) -> u64 {
        self.bss_off + self.bss_size
    }

    /// Checks that the sections lie in layout order — `.text` from 0,
    /// then `.rodata`, `.data` and `.bss`, each starting at or after the
    /// previous one ends — and that no section's offset plus its length
    /// overflows. Every offset the loader computes from the layout, the
    /// footprint included, is in range once this holds.
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::BadImage`] naming the first section that
    /// starts before the previous one ends or ends past `u64::MAX`.
    pub(crate) fn check_layout(&self) -> Result<(), ObjError> {
        let mut end = self.text.len() as u64;
        for (section, start, len) in [
            ("rodata", self.rodata_off, self.rodata.len() as u64),
            ("data", self.data_off, self.data.len() as u64),
            ("bss", self.bss_off, self.bss_size),
        ] {
            if start < end {
                return Err(ObjError::BadImage(format!(
                    "module `{}`: .{section} at {start:#x} starts before {end:#x}, \
                     where the previous section ends",
                    self.name
                )));
            }
            end = start.checked_add(len).ok_or_else(|| {
                ObjError::BadImage(format!(
                    "module `{}`: .{section} at {start:#x} runs past the top of the address space",
                    self.name
                ))
            })?;
        }
        Ok(())
    }

    /// Size of the text section in bytes (the paper's "code size" column).
    pub fn text_size(&self) -> u64 {
        self.text.len() as u64
    }

    /// Total number of basic blocks in the text (the paper's "total BB #",
    /// which it obtains with angr).
    pub fn total_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The absolute address of `symbol` when the module is loaded at
    /// `base`, if defined and below the top of the address space.
    pub fn symbol_addr(&self, base: u64, symbol: &str) -> Option<u64> {
        base.checked_add(self.symbols.get(symbol)?.offset)
    }

    /// The PLT entry for `symbol`, if the module imports it.
    pub fn plt_entry(&self, symbol: &str) -> Option<&PltEntry> {
        self.plt.iter().find(|entry| entry.name == symbol)
    }

    /// The function span containing module-relative `offset`, if any.
    pub fn function_containing(&self, offset: u64) -> Option<&FuncSpan> {
        self.functions
            .iter()
            .find(|func| offset >= func.offset && offset < func.offset + func.size)
    }

    /// The basic block containing module-relative `offset`, if any.
    pub fn block_containing(&self, offset: u64) -> Option<BasicBlock> {
        match self.blocks.binary_search_by_key(&offset, |b| b.addr) {
            Ok(i) => Some(self.blocks[i]),
            Err(0) => None,
            Err(i) => {
                let candidate = self.blocks[i - 1];
                candidate.contains(offset).then_some(candidate)
            }
        }
    }

    /// All basic blocks whose spans lie inside the named function.
    pub fn blocks_of_function(&self, name: &str) -> Vec<BasicBlock> {
        let Some(func) = self.functions.iter().find(|f| f.name == name) else {
            return Vec::new();
        };
        self.blocks
            .iter()
            .copied()
            .filter(|b| b.addr >= func.offset && b.range().end <= func.offset + func.size)
            .collect()
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}): text {}B, rodata {}B, data {}B, bss {}B, {} blocks, {} plt entries",
            self.name,
            self.kind,
            self.text.len(),
            self.rodata.len(),
            self.data.len(),
            self.bss_size,
            self.blocks.len(),
            self.plt.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_image() -> Image {
        Image {
            name: "t".into(),
            kind: ObjectKind::Executable,
            text: vec![0x00; 32],
            rodata: vec![],
            data: vec![],
            bss_size: 8,
            rodata_off: 4096,
            data_off: 4096,
            got_off: 4096,
            bss_off: 4096,
            blocks: vec![BasicBlock::new(0, 16), BasicBlock::new(16, 16)],
            functions: vec![FuncSpan {
                name: "f".into(),
                offset: 0,
                size: 32,
            }],
            symbols: BTreeMap::from([(
                "f".to_owned(),
                SymbolDef {
                    offset: 0,
                    kind: SymbolKind::Func,
                    size: 32,
                },
            )]),
            plt: vec![],
            dyn_relocs: vec![],
            entry: Some(0),
            imports: vec![],
        }
    }

    #[test]
    fn footprint_spans_through_bss() {
        assert_eq!(tiny_image().footprint(), 4096 + 8);
    }

    #[test]
    fn block_containing_finds_interior_offsets() {
        let image = tiny_image();
        assert_eq!(image.block_containing(0), Some(BasicBlock::new(0, 16)));
        assert_eq!(image.block_containing(15), Some(BasicBlock::new(0, 16)));
        assert_eq!(image.block_containing(16), Some(BasicBlock::new(16, 16)));
        assert_eq!(image.block_containing(31), Some(BasicBlock::new(16, 16)));
        assert_eq!(image.block_containing(32), None);
    }

    #[test]
    fn symbol_addr_adds_base() {
        assert_eq!(tiny_image().symbol_addr(0x40_0000, "f"), Some(0x40_0000));
        assert_eq!(tiny_image().symbol_addr(0x40_0000, "missing"), None);
    }

    #[test]
    fn blocks_of_function_filters_by_span() {
        let image = tiny_image();
        assert_eq!(image.blocks_of_function("f").len(), 2);
        assert!(image.blocks_of_function("missing").is_empty());
    }
}
