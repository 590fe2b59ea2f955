//! Load-time placement: turning an [`Image`] plus a base address into
//! memory segments with all relocations applied.

use crate::image::{Image, RelocValue};
use crate::{checked_page_align, page_align, ObjError, Perms};

/// One contiguous, uniformly-permissioned memory region produced by
/// [`materialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInit {
    /// Absolute start address (page-aligned).
    pub vaddr: u64,
    /// Initialised bytes (may be shorter than the mapping).
    pub bytes: Vec<u8>,
    /// Zero-filled bytes following `bytes` (the `.bss` tail).
    pub zero_len: u64,
    /// Protection flags.
    pub perms: Perms,
    /// Human-readable name, e.g. `"nginx.text"`.
    pub name: String,
}

impl SegmentInit {
    /// Total mapping length in bytes, rounded up to a whole page.
    pub fn map_len(&self) -> u64 {
        page_align(self.bytes.len() as u64 + self.zero_len)
    }

    /// The absolute end address of the mapping.
    pub fn end(&self) -> u64 {
        self.vaddr + self.map_len()
    }
}

/// Computes the memory segments for loading `image` at `base`, applying
/// every load-time relocation.
///
/// `resolve` maps imported symbol names to absolute addresses (the role of
/// the dynamic linker — or, for DynaCut's injected signal-handler library,
/// of the process rewriter looking up libc symbols in the checkpointed
/// process, paper §3.3).
///
/// # Errors
///
/// Returns [`ObjError::MissingImport`] if `resolve` cannot resolve an
/// imported symbol, and [`ObjError::BadImage`] if the image's sections
/// overlap or run past the top of the address space, `base` is not
/// page-aligned, the module would run past the top of the address
/// space, or a relocation site does not lie inside one section's bytes.
pub fn materialize(
    image: &Image,
    base: u64,
    resolve: impl Fn(&str) -> Option<u64>,
) -> Result<Vec<SegmentInit>, ObjError> {
    image.check_layout()?;
    if !base.is_multiple_of(crate::PAGE_SIZE) {
        return Err(ObjError::BadImage(format!(
            "module `{}` base {base:#x} is not page-aligned",
            image.name
        )));
    }
    if checked_page_align(image.footprint())
        .and_then(|len| base.checked_add(len))
        .is_none()
    {
        return Err(ObjError::BadImage(format!(
            "module `{}` at {base:#x} runs past the top of the address space",
            image.name
        )));
    }

    // Patch each section's own bytes; the padding between sections is
    // zeros no relocation may land in.
    let mut text = image.text.clone();
    let mut rodata = image.rodata.clone();
    let mut data = image.data.clone();
    for reloc in &image.dyn_relocs {
        let value = match &reloc.value {
            RelocValue::Local { offset, addend } => {
                base.wrapping_add(*offset).wrapping_add_signed(*addend)
            }
            RelocValue::Import { symbol, addend } => resolve(symbol)
                .ok_or_else(|| ObjError::MissingImport {
                    module: image.name.clone(),
                    symbol: symbol.clone(),
                })?
                .wrapping_add_signed(*addend),
        };
        let slot = [
            (0, &mut text),
            (image.rodata_off, &mut rodata),
            (image.data_off, &mut data),
        ]
        .into_iter()
        .find_map(|(start, bytes)| {
            let at = usize::try_from(reloc.site.checked_sub(start)?).ok()?;
            bytes.get_mut(at..at.checked_add(8)?)
        });
        let Some(slot) = slot else {
            return Err(ObjError::BadImage(format!(
                "relocation site {:#x} outside the sections of module `{}`",
                reloc.site, image.name
            )));
        };
        slot.copy_from_slice(&value.to_le_bytes());
    }

    let mut segments = Vec::new();
    // Text: [0, rodata_off) r-x. Includes alignment padding so the segment
    // is whole pages.
    segments.push(SegmentInit {
        vaddr: base,
        zero_len: image.rodata_off - text.len() as u64,
        bytes: text,
        perms: Perms::RX,
        name: format!("{}.text", image.name),
    });
    // Rodata: [rodata_off, data_off) r--, may be empty.
    if image.data_off > image.rodata_off {
        segments.push(SegmentInit {
            vaddr: base + image.rodata_off,
            zero_len: image.data_off - image.rodata_off - rodata.len() as u64,
            bytes: rodata,
            perms: Perms::R,
            name: format!("{}.rodata", image.name),
        });
    }
    // Data + GOT + bss: rw-.
    let data_span = image.data.len() as u64 + image.bss_size;
    if data_span > 0 {
        segments.push(SegmentInit {
            vaddr: base + image.data_off,
            bytes: data,
            zero_len: image.bss_size,
            perms: Perms::RW,
            name: format!("{}.data", image.name),
        });
    }
    segments.retain(|s| s.map_len() > 0);
    Ok(segments)
}

/// Resolves an import of `symbol` in a process that maps `modules`, each
/// a binary and its base, the one rule the loader at spawn and every
/// link against a process image follow: the modules are walked in load
/// order and the first whose binary defines the name wins. Nothing is
/// allocated, and a definition whose address would run past the top of
/// the address space resolves to `None`.
pub fn resolve<'a>(
    modules: impl IntoIterator<Item = (&'a Image, u64)>,
    symbol: &str,
) -> Option<u64> {
    let (base, def) = modules
        .into_iter()
        .find_map(|(image, base)| Some((base, image.symbols.get(symbol)?)))?;
    base.checked_add(def.offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Image, ModuleBuilder, ObjectKind};
    use dynacut_isa::{Assembler, Insn, Reg};

    fn libc() -> Image {
        let mut asm = Assembler::new();
        asm.func("libc_write");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("libc", ObjectKind::SharedLib);
        builder.text(asm.finish().unwrap());
        builder.link(&[]).unwrap()
    }

    fn app(libc: &Image) -> Image {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.call_ext("libc_write");
        asm.movi_ext(Reg::R2, "counter", 0);
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.data("greeting", b"hello world!");
        builder.bss("counter", 8);
        builder.entry("_start");
        builder.link(&[libc]).unwrap()
    }

    #[test]
    fn segments_are_page_aligned_and_disjoint() {
        let libc = libc();
        let image = app(&libc);
        let segments = materialize(&image, 0x40_0000, |s| {
            (s == "libc_write").then_some(0x7000_0000)
        })
        .unwrap();
        assert_eq!(segments.len(), 2); // text (no rodata) + data
        let mut prev_end = 0;
        for segment in &segments {
            assert_eq!(segment.vaddr % crate::PAGE_SIZE, 0);
            assert!(segment.vaddr >= prev_end);
            prev_end = segment.end();
        }
    }

    #[test]
    fn got_slot_receives_resolved_address() {
        let libc = libc();
        let image = app(&libc);
        let segments = materialize(&image, 0x40_0000, |s| {
            (s == "libc_write").then_some(0x7000_1234)
        })
        .unwrap();
        let data_segment = segments.iter().find(|s| s.name == "app.data").unwrap();
        let got_in_segment = usize::try_from(image.got_off - image.data_off).unwrap();
        let slot = u64::from_le_bytes(
            data_segment.bytes[got_in_segment..got_in_segment + 8]
                .try_into()
                .unwrap(),
        );
        assert_eq!(slot, 0x7000_1234);
    }

    #[test]
    fn local_abs_reloc_gets_base_plus_offset() {
        let libc = libc();
        let image = app(&libc);
        let base = 0x40_0000;
        let segments = materialize(&image, base, |_| Some(0x7000_0000)).unwrap();
        let text_segment = &segments[0];
        // movi_ext site is at offset 2 of the second instruction:
        // call(5 bytes) then movi (opcode+reg at +5,+6; imm at +7).
        let imm = u64::from_le_bytes(text_segment.bytes[7..15].try_into().unwrap());
        let counter = image.symbols["counter"];
        assert_eq!(imm, base + counter.offset);
    }

    #[test]
    fn missing_import_is_reported() {
        let libc = libc();
        let image = app(&libc);
        let err = materialize(&image, 0x40_0000, |_| None).unwrap_err();
        assert!(matches!(
            err,
            ObjError::MissingImport { symbol, .. } if symbol == "libc_write"
        ));
    }

    /// A base read from a checkpoint is untrusted: an unaligned one, or
    /// one the module does not fit below the top of the address space
    /// from, is a typed error, not a panic or a wrapped address.
    #[test]
    fn a_base_the_module_cannot_sit_at_is_a_typed_error() {
        let libc = libc();
        let image = app(&libc);
        for base in [0x40_0001, 0xFFFF_FFFF_FFFF_F000] {
            assert!(
                matches!(
                    materialize(&image, base, |_| Some(1)),
                    Err(ObjError::BadImage(_))
                ),
                "base {base:#x}"
            );
        }
    }

    /// Regression: an image whose sections contradict each other used
    /// to pass `Image::from_bytes` and then panic inside `materialize`'s
    /// offset arithmetic. Both refuse it with a typed error now.
    fn assert_refused(edit: impl Fn(&mut Image)) {
        let libc = libc();
        let mut image = app(&libc);
        edit(&mut image);
        assert!(
            matches!(
                Image::from_bytes(&image.to_bytes()),
                Err(ObjError::BadImage(_))
            ),
            "from_bytes refuses it"
        );
        assert!(
            matches!(
                materialize(&image, 0x40_0000, |_| Some(1)),
                Err(ObjError::BadImage(_))
            ),
            "materialize refuses it"
        );
    }

    #[test]
    fn a_data_section_ending_past_the_address_space_is_refused() {
        assert_refused(|image| image.data_off = u64::MAX - 1);
    }

    #[test]
    fn a_data_section_below_the_text_is_refused() {
        assert_refused(|image| image.data_off = 0);
    }

    #[test]
    fn a_rodata_section_inside_the_text_is_refused() {
        assert_refused(|image| image.rodata_off = 1);
    }

    #[test]
    fn a_bss_ending_past_the_address_space_is_refused() {
        assert_refused(|image| image.bss_size = u64::MAX);
    }

    /// A relocation site in the padding between two sections lands in
    /// no segment's bytes: a typed error, not a silently lost patch.
    #[test]
    fn a_relocation_site_between_sections_is_refused() {
        let libc = libc();
        let mut image = app(&libc);
        image.dyn_relocs[0].site = image.text.len() as u64;
        assert!(matches!(
            materialize(&image, 0x40_0000, |_| Some(1)),
            Err(ObjError::BadImage(_))
        ));
    }

    /// Sections far apart size nothing: `materialize` copies each
    /// section's own bytes, so a consistent image whose `.rodata` and
    /// `.data` sit 2^62 bytes up maps to segments holding as many bytes
    /// as the linked one's. One buffer spanning the module could not be
    /// allocated.
    #[test]
    fn far_apart_sections_allocate_only_their_bytes() {
        let libc = libc();
        let linked = app(&libc);
        let mut image = linked.clone();
        let shift = 1 << 62;
        for offset in [
            &mut image.rodata_off,
            &mut image.data_off,
            &mut image.got_off,
            &mut image.bss_off,
        ] {
            *offset += shift;
        }
        for reloc in &mut image.dyn_relocs {
            if reloc.site >= linked.rodata_off {
                reloc.site += shift;
            }
        }
        let lens = |image: &Image| {
            materialize(image, 0x40_0000, |_| Some(1))
                .unwrap()
                .iter()
                .map(|segment| segment.bytes.len())
                .collect::<Vec<_>>()
        };
        assert_eq!(lens(&image), lens(&linked));
    }

    #[test]
    fn bss_becomes_zero_tail() {
        let libc = libc();
        let image = app(&libc);
        let segments = materialize(&image, 0x40_0000, |_| Some(1)).unwrap();
        let data_segment = segments.iter().find(|s| s.name == "app.data").unwrap();
        assert_eq!(data_segment.zero_len, image.bss_size);
    }
}
