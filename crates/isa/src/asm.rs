//! A two-pass, label-based assembler that records basic-block layout.
//!
//! Guest applications (the Nginx/Lighttpd/Redis analogues) are written
//! against this API. Besides emitting bytes, the assembler computes the
//! very metadata DynaCut's pipeline consumes: the [`BasicBlock`] partition
//! of the text, per-function spans, and relocation records for symbols that
//! live in other modules (resolved later by the `dynacut-obj` linker).

use crate::block::BasicBlock;
use crate::insn::Cond;
use crate::{encode_into, Insn, IsaError, Reg};
use std::collections::BTreeMap;

/// How a relocation site must be patched by the linker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelocKind {
    /// A 32-bit displacement relative to the end of the containing
    /// instruction (`call`/`jmp`/`lea` operands): `disp = S + A - next`.
    Rel32,
    /// A 64-bit absolute address (`movi` immediate): `value = S + A`.
    Abs64,
}

/// A symbol reference left unresolved by the assembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmReloc {
    /// Byte offset of the patch field inside the emitted text.
    pub site: u64,
    /// Address of the instruction end (used for [`RelocKind::Rel32`]).
    pub next: u64,
    /// The symbol whose address resolves this site.
    pub symbol: String,
    /// Constant added to the symbol address.
    pub addend: i64,
    /// Patch semantics.
    pub kind: RelocKind,
}

/// A named function's byte span inside the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSpan {
    /// Function name (also defined as a label).
    pub name: String,
    /// Byte offset of the function entry.
    pub offset: u64,
    /// Size in bytes (to the start of the next function or end of text).
    pub size: u64,
}

/// The output of [`Assembler::finish`]: encoded text plus all metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TextImage {
    /// The encoded instruction stream.
    pub bytes: Vec<u8>,
    /// Basic blocks partitioning `bytes` (sorted, disjoint, exhaustive).
    pub blocks: Vec<BasicBlock>,
    /// Label name → byte offset.
    pub labels: BTreeMap<String, u64>,
    /// Function spans in layout order.
    pub functions: Vec<FuncSpan>,
    /// Unresolved external references for the linker.
    pub relocs: Vec<AsmReloc>,
}

impl TextImage {
    /// Byte offset of a label.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::UndefinedLabel`] if the label does not exist.
    pub fn label_offset(&self, name: &str) -> Result<u64, IsaError> {
        self.labels
            .get(name)
            .copied()
            .ok_or_else(|| IsaError::UndefinedLabel(name.to_owned()))
    }

    /// The basic block whose entry is exactly `offset`, if any.
    pub fn block_at(&self, offset: u64) -> Option<BasicBlock> {
        self.blocks
            .binary_search_by_key(&offset, |b| b.addr)
            .ok()
            .map(|i| self.blocks[i])
    }

    /// The function span containing `offset`, if any.
    pub fn function_containing(&self, offset: u64) -> Option<&FuncSpan> {
        self.functions
            .iter()
            .find(|f| offset >= f.offset && offset < f.offset + f.size)
    }
}

#[derive(Debug, Clone)]
enum Item {
    Insn(Insn),
    /// Local-label-resolved variants; patched in the second pass.
    Jmp(String),
    Jcc(Cond, String),
    Call(String),
    Lea(Reg, String),
    /// External references; become [`AsmReloc`]s.
    CallExt(String),
    LeaExt(Reg, String, i64),
    MoviExt(Reg, String, i64),
    /// Pad with `nop`s until the offset is a multiple of the alignment.
    Align(u64),
}

impl Item {
    /// Encoded size of the item when it starts at offset `pos`.
    fn size_at(&self, pos: u64) -> u64 {
        match self {
            Item::Align(align) => (align - pos % align) % align,
            other => other.insn_template().len() as u64,
        }
    }

    fn insn_template(&self) -> Insn {
        match self {
            Item::Insn(insn) => *insn,
            Item::Jmp(_) => Insn::Jmp(0),
            Item::Jcc(cond, _) => Insn::Jcc(*cond, 0),
            Item::Call(_) | Item::CallExt(_) => Insn::Call(0),
            Item::Lea(reg, _) => Insn::Lea(*reg, 0),
            Item::LeaExt(reg, _, _) => Insn::Lea(*reg, 0),
            Item::MoviExt(reg, _, _) => Insn::Movi(*reg, 0),
            Item::Align(_) => Insn::Nop,
        }
    }
}

/// A two-pass assembler.
///
/// ```
/// use dynacut_isa::{Assembler, Cond, Insn, Reg};
///
/// # fn main() -> Result<(), dynacut_isa::IsaError> {
/// let mut asm = Assembler::new();
/// asm.func("count_down");
/// asm.push(Insn::Movi(Reg::R1, 3));
/// asm.label("loop");
/// asm.push(Insn::Addi(Reg::R1, -1));
/// asm.push(Insn::Cmpi(Reg::R1, 0));
/// asm.jcc(Cond::Ne, "loop");
/// asm.push(Insn::Ret);
/// let text = asm.finish()?;
/// assert_eq!(text.functions[0].name, "count_down");
/// // `loop` starts a new basic block.
/// assert!(text.block_at(text.label_offset("loop")?).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    items: Vec<Item>,
    /// label → index of the item it precedes.
    labels: BTreeMap<String, usize>,
    funcs: Vec<(String, usize)>,
    errors: Vec<IsaError>,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a raw instruction.
    pub fn push(&mut self, insn: Insn) -> &mut Self {
        self.items.push(Item::Insn(insn));
        self
    }

    /// Appends several raw instructions.
    pub fn extend<I: IntoIterator<Item = Insn>>(&mut self, insns: I) -> &mut Self {
        for insn in insns {
            self.push(insn);
        }
        self
    }

    /// Defines `name` at the current position.
    ///
    /// Duplicate definitions are reported by [`Assembler::finish`].
    pub fn label(&mut self, name: &str) -> &mut Self {
        if self
            .labels
            .insert(name.to_owned(), self.items.len())
            .is_some()
        {
            self.errors.push(IsaError::DuplicateLabel(name.to_owned()));
        }
        self
    }

    /// Starts a function: defines a label and records a function span.
    pub fn func(&mut self, name: &str) -> &mut Self {
        self.label(name);
        self.funcs.push((name.to_owned(), self.items.len()));
        self
    }

    /// Unconditional jump to a local label.
    pub fn jmp(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::Jmp(label.to_owned()));
        self
    }

    /// Conditional jump to a local label.
    pub fn jcc(&mut self, cond: Cond, label: &str) -> &mut Self {
        self.items.push(Item::Jcc(cond, label.to_owned()));
        self
    }

    /// Call a local label.
    pub fn call(&mut self, label: &str) -> &mut Self {
        self.items.push(Item::Call(label.to_owned()));
        self
    }

    /// Load the address of a local label (PC-relative).
    pub fn lea(&mut self, reg: Reg, label: &str) -> &mut Self {
        self.items.push(Item::Lea(reg, label.to_owned()));
        self
    }

    /// Call an **external** symbol; emits a [`RelocKind::Rel32`] relocation
    /// for the linker.
    pub fn call_ext(&mut self, symbol: &str) -> &mut Self {
        self.items.push(Item::CallExt(symbol.to_owned()));
        self
    }

    /// PC-relative address of an **external** symbol plus `addend`.
    pub fn lea_ext(&mut self, reg: Reg, symbol: &str, addend: i64) -> &mut Self {
        self.items
            .push(Item::LeaExt(reg, symbol.to_owned(), addend));
        self
    }

    /// Absolute address of an **external** symbol plus `addend`; emits a
    /// [`RelocKind::Abs64`] relocation.
    pub fn movi_ext(&mut self, reg: Reg, symbol: &str, addend: i64) -> &mut Self {
        self.items
            .push(Item::MoviExt(reg, symbol.to_owned(), addend));
        self
    }

    /// Pads the current position to a multiple of `align` bytes with `nop`s.
    ///
    /// The linker's page-per-feature layout uses this to give selected
    /// handlers their own pages so they can be unmapped wholesale.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    pub fn align(&mut self, align: u64) -> &mut Self {
        assert!(align > 0, "alignment must be non-zero");
        self.items.push(Item::Align(align));
        self
    }

    /// Number of instructions pushed so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no instructions have been pushed.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Assembles everything pushed so far.
    ///
    /// # Errors
    ///
    /// Reports duplicate labels, undefined local labels, branch
    /// displacements that do not fit in 32 bits, and text or a basic
    /// block too large for its size field ([`IsaError::TextTooLarge`]).
    pub fn finish(&mut self) -> Result<TextImage, IsaError> {
        if let Some(err) = self.errors.first() {
            return Err(err.clone());
        }

        // Pass 1: lay out offsets (every item has a fixed-size template).
        let mut offsets = Vec::with_capacity(self.items.len() + 1);
        let mut pos = 0u64;
        for item in &self.items {
            offsets.push(pos);
            pos += item.size_at(pos);
        }
        offsets.push(pos);
        let total = pos;

        let label_offset = |labels: &BTreeMap<String, usize>, name: &str| -> Option<u64> {
            labels.get(name).map(|&idx| offsets[idx])
        };

        // Pass 2: encode with displacements resolved. Every pad is part of
        // the total, so once the total fits in host memory, each pad does.
        let too_large = |offset, len| IsaError::TextTooLarge { offset, len };
        let mut bytes =
            Vec::with_capacity(usize::try_from(total).map_err(|_| too_large(0, total))?);
        let mut relocs = Vec::new();
        for (idx, item) in self.items.iter().enumerate() {
            let next = offsets[idx + 1];
            let resolve = |name: &str| -> Result<i32, IsaError> {
                let target = label_offset(&self.labels, name)
                    .ok_or_else(|| IsaError::UndefinedLabel(name.to_owned()))?;
                let disp = target as i64 - next as i64;
                i32::try_from(disp).map_err(|_| IsaError::DisplacementOverflow {
                    label: name.to_owned(),
                    displacement: disp,
                })
            };
            if let Item::Align(_) = item {
                let pad = offsets[idx + 1] - offsets[idx];
                let pad = usize::try_from(pad).map_err(|_| too_large(offsets[idx], pad))?;
                bytes.extend(std::iter::repeat_n(Insn::Nop.opcode(), pad));
                continue;
            }
            let insn = match item {
                Item::Insn(insn) => *insn,
                Item::Jmp(name) => Insn::Jmp(resolve(name)?),
                Item::Jcc(cond, name) => Insn::Jcc(*cond, resolve(name)?),
                Item::Call(name) => Insn::Call(resolve(name)?),
                Item::Lea(reg, name) => Insn::Lea(*reg, resolve(name)?),
                Item::CallExt(symbol) => {
                    relocs.push(AsmReloc {
                        site: offsets[idx] + 1,
                        next,
                        symbol: symbol.clone(),
                        addend: 0,
                        kind: RelocKind::Rel32,
                    });
                    Insn::Call(0)
                }
                Item::LeaExt(reg, symbol, addend) => {
                    relocs.push(AsmReloc {
                        site: offsets[idx] + 2,
                        next,
                        symbol: symbol.clone(),
                        addend: *addend,
                        kind: RelocKind::Rel32,
                    });
                    Insn::Lea(*reg, 0)
                }
                Item::MoviExt(reg, symbol, addend) => {
                    relocs.push(AsmReloc {
                        site: offsets[idx] + 2,
                        next,
                        symbol: symbol.clone(),
                        addend: *addend,
                        kind: RelocKind::Abs64,
                    });
                    Insn::Movi(*reg, 0)
                }
                Item::Align(_) => unreachable!("handled above"),
            };
            encode_into(&insn, &mut bytes);
        }

        // Basic blocks: leaders are item 0, every label target, and every
        // item following a terminator.
        let mut leader = vec![false; self.items.len()];
        if !self.items.is_empty() {
            leader[0] = true;
        }
        for &idx in self.labels.values() {
            if idx < leader.len() {
                leader[idx] = true;
            }
        }
        for (idx, item) in self.items.iter().enumerate() {
            if item.insn_template().is_terminator() && idx + 1 < leader.len() {
                leader[idx + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut start: Option<usize> = None;
        for idx in 0..self.items.len() {
            if leader[idx] {
                if let Some(s) = start {
                    if offsets[idx] > offsets[s] {
                        blocks.push(block_of(offsets[s], offsets[idx])?);
                        start = Some(idx);
                    }
                    // Zero-size span (e.g. a label on a 0-byte align):
                    // keep the earlier leader.
                } else {
                    start = Some(idx);
                }
            }
        }
        if let Some(s) = start {
            if total > offsets[s] {
                blocks.push(block_of(offsets[s], total)?);
            }
        }

        // Function spans, in layout order.
        let mut funcs: Vec<(String, u64)> = self
            .funcs
            .iter()
            .map(|(name, idx)| (name.clone(), offsets[*idx]))
            .collect();
        funcs.sort_by_key(|(_, offset)| *offset);
        let functions = funcs
            .iter()
            .enumerate()
            .map(|(i, (name, offset))| {
                let end = funcs.get(i + 1).map(|(_, o)| *o).unwrap_or(total);
                FuncSpan {
                    name: name.clone(),
                    offset: *offset,
                    size: end - offset,
                }
            })
            .collect();

        let labels = self
            .labels
            .iter()
            .map(|(name, &idx)| (name.clone(), offsets[idx]))
            .collect();

        Ok(TextImage {
            bytes,
            blocks,
            labels,
            functions,
            relocs,
        })
    }
}

/// The basic block `[start, end)` of assembled text.
fn block_of(start: u64, end: u64) -> Result<BasicBlock, IsaError> {
    let len = end - start;
    let size = u32::try_from(len).map_err(|_| IsaError::TextTooLarge { offset: start, len })?;
    Ok(BasicBlock::new(start, size))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_past_the_32_bit_size_field_is_a_typed_error() {
        assert_eq!(block_of(4, 12), Ok(BasicBlock::new(4, 8)));
        assert_eq!(
            block_of(8, 8 + (1 << 32)),
            Err(IsaError::TextTooLarge {
                offset: 8,
                len: 1 << 32
            })
        );
    }

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut asm = Assembler::new();
        asm.label("top");
        asm.push(Insn::Addi(Reg::R0, 1));
        asm.jcc(Cond::Ne, "done"); // forward
        asm.jmp("top"); // backward
        asm.label("done");
        asm.push(Insn::Ret);
        let text = asm.finish().unwrap();

        let decoded = crate::decode_all(&text.bytes).unwrap();
        // jcc at offset 6, next = 11, done = 16 => disp 5
        assert_eq!(decoded[1].1, Insn::Jcc(Cond::Ne, 5));
        // jmp at 11, next = 16, top = 0 => disp -16
        assert_eq!(decoded[2].1, Insn::Jmp(-16));
    }

    #[test]
    fn blocks_partition_the_text() {
        let mut asm = Assembler::new();
        asm.func("f");
        asm.push(Insn::Movi(Reg::R0, 1));
        asm.jmp("exit");
        asm.label("mid");
        asm.push(Insn::Nop);
        asm.label("exit");
        asm.push(Insn::Ret);
        let text = asm.finish().unwrap();

        let mut covered = 0u64;
        let mut prev_end = 0u64;
        for block in &text.blocks {
            assert_eq!(block.addr, prev_end, "blocks are contiguous");
            prev_end = block.range().end;
            covered += u64::from(block.size);
        }
        assert_eq!(covered, text.bytes.len() as u64);
        // `mid` and `exit` are both leaders.
        assert!(text.block_at(text.label_offset("mid").unwrap()).is_some());
        assert!(text.block_at(text.label_offset("exit").unwrap()).is_some());
    }

    #[test]
    fn undefined_label_is_reported() {
        let mut asm = Assembler::new();
        asm.jmp("nowhere");
        assert!(matches!(
            asm.finish(),
            Err(IsaError::UndefinedLabel(name)) if name == "nowhere"
        ));
    }

    #[test]
    fn duplicate_label_is_reported() {
        let mut asm = Assembler::new();
        asm.label("twice");
        asm.push(Insn::Nop);
        asm.label("twice");
        assert!(matches!(
            asm.finish(),
            Err(IsaError::DuplicateLabel(name)) if name == "twice"
        ));
    }

    #[test]
    fn external_call_emits_rel32_reloc() {
        let mut asm = Assembler::new();
        asm.push(Insn::Nop);
        asm.call_ext("libc_write");
        let text = asm.finish().unwrap();
        assert_eq!(text.relocs.len(), 1);
        let reloc = &text.relocs[0];
        assert_eq!(reloc.kind, RelocKind::Rel32);
        assert_eq!(reloc.site, 2); // nop(1) + call opcode(1)
        assert_eq!(reloc.next, 6); // nop(1) + call(5)
        assert_eq!(reloc.symbol, "libc_write");
    }

    #[test]
    fn movi_ext_emits_abs64_reloc() {
        let mut asm = Assembler::new();
        asm.movi_ext(Reg::R2, "config_table", 16);
        let text = asm.finish().unwrap();
        let reloc = &text.relocs[0];
        assert_eq!(reloc.kind, RelocKind::Abs64);
        assert_eq!(reloc.site, 2);
        assert_eq!(reloc.addend, 16);
    }

    #[test]
    fn function_spans_cover_layout_order() {
        let mut asm = Assembler::new();
        asm.func("a");
        asm.push(Insn::Nop);
        asm.push(Insn::Ret);
        asm.func("b");
        asm.push(Insn::Ret);
        let text = asm.finish().unwrap();
        assert_eq!(text.functions.len(), 2);
        assert_eq!(text.functions[0].name, "a");
        assert_eq!(text.functions[0].size, 2);
        assert_eq!(text.functions[1].offset, 2);
        assert_eq!(text.functions[1].size, 1);
        assert_eq!(text.function_containing(1).unwrap().name, "a");
        assert_eq!(text.function_containing(2).unwrap().name, "b");
    }

    #[test]
    fn call_does_not_split_callee_block_but_is_terminator() {
        let mut asm = Assembler::new();
        asm.push(Insn::Nop);
        asm.push(Insn::Callr(Reg::R1));
        asm.push(Insn::Nop);
        let text = asm.finish().unwrap();
        // Two blocks: [nop, callr] and [nop].
        assert_eq!(text.blocks.len(), 2);
        assert_eq!(text.blocks[0].size, 3);
        assert_eq!(text.blocks[1].addr, 3);
    }

    #[test]
    fn empty_assembler_yields_empty_image() {
        let text = Assembler::new().finish().unwrap();
        assert!(text.bytes.is_empty());
        assert!(text.blocks.is_empty());
    }
}
