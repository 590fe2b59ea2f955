//! The linker: resolves relocations, synthesises PLT/GOT, lays out
//! sections.

use crate::builder::{DataSection, ModuleBuilder};
use crate::image::{
    DynReloc, Image, ObjectKind, PltEntry, RelocValue, SymbolDef, SymbolKind, PLT_STUB_SIZE,
};
use crate::{page_align, ObjError};
use dynacut_isa::{encode_into, BasicBlock, FuncSpan, Insn, Reg, RelocKind};
use std::collections::BTreeMap;

/// [`PLT_STUB_SIZE`] as a basic block's size; a stub that does not fit
/// fails the build.
const PLT_STUB_BLOCK_SIZE: u32 = {
    assert!(PLT_STUB_SIZE <= u32::MAX as u64, "a PLT stub fits a block");
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the assertion above bounds the size"
    )]
    let size = PLT_STUB_SIZE as u32;
    size
};

/// Links `builder` against the exports of `libs`.
pub(crate) fn link(builder: &ModuleBuilder, libs: &[&Image]) -> Result<Image, ObjError> {
    let text = &builder.text;

    // 1. Import set: every relocation symbol not defined locally, in first-
    //    use order (determines PLT/GOT layout).
    let mut local: BTreeMap<String, (DataSection, u64, u64)> = BTreeMap::new();
    for def in &builder.defs {
        if local
            .insert(def.name.clone(), (def.section, def.offset, def.size))
            .is_some()
        {
            return Err(ObjError::DuplicateSymbol(def.name.clone()));
        }
        if text.labels.contains_key(&def.name) {
            return Err(ObjError::DuplicateSymbol(def.name.clone()));
        }
    }

    let is_local = |symbol: &str| text.labels.contains_key(symbol) || local.contains_key(symbol);

    let find_export = |symbol: &str| -> Option<SymbolDef> {
        libs.iter().find_map(|lib| lib.symbols.get(symbol).copied())
    };

    let mut imports: Vec<String> = Vec::new();
    let note_import = |symbol: &str, imports: &mut Vec<String>| -> Result<(), ObjError> {
        let export =
            find_export(symbol).ok_or_else(|| ObjError::UnresolvedSymbol(symbol.to_owned()))?;
        if export.kind != SymbolKind::Func {
            return Err(ObjError::CrossModuleData(symbol.to_owned()));
        }
        if !imports.iter().any(|i| i == symbol) {
            imports.push(symbol.to_owned());
        }
        Ok(())
    };
    for reloc in &text.relocs {
        if !is_local(&reloc.symbol) && reloc.kind == RelocKind::Rel32 {
            note_import(&reloc.symbol, &mut imports)?;
        }
    }

    // 2. Layout.
    let app_text_len = text.bytes.len() as u64;
    let plt_len = imports.len() as u64 * PLT_STUB_SIZE;
    let text_total = app_text_len + plt_len;
    let rodata_off = page_align(text_total);
    let data_off = page_align(rodata_off + builder.rodata.len() as u64);
    let got_off = data_off + builder.data.len() as u64;
    let got_len = imports.len() as u64 * 8;
    let bss_off = got_off + got_len;

    let section_base = |section: DataSection| -> u64 {
        match section {
            DataSection::Rodata => rodata_off,
            DataSection::Data => data_off,
            DataSection::Bss => bss_off,
        }
    };

    // Module-relative offset of any locally defined symbol.
    let local_offset = |symbol: &str| -> Option<(u64, SymbolKind, u64)> {
        if let Some(&off) = text.labels.get(symbol) {
            let size = text
                .functions
                .iter()
                .find(|f| f.name == symbol)
                .map(|f| f.size)
                .unwrap_or(0);
            return Some((off, SymbolKind::Func, size));
        }
        local
            .get(symbol)
            .map(|&(section, off, size)| (section_base(section) + off, SymbolKind::Object, size))
    };

    let plt_stub_off = |index: usize| app_text_len + index as u64 * PLT_STUB_SIZE;
    let got_slot_off = |index: usize| got_off + index as u64 * 8;

    // 3. Patch text relocations.
    let mut text_bytes = text.bytes.clone();
    let mut dyn_relocs: Vec<DynReloc> = Vec::new();
    for reloc in &text.relocs {
        match reloc.kind {
            RelocKind::Rel32 => {
                let target = if let Some((off, _, _)) = local_offset(&reloc.symbol) {
                    off
                } else {
                    let index = imports
                        .iter()
                        .position(|i| i == &reloc.symbol)
                        .expect("imports collected above");
                    plt_stub_off(index)
                };
                let disp = target as i64 + reloc.addend - reloc.next as i64;
                let disp32 = i32::try_from(disp).map_err(|_| ObjError::RelocOverflow {
                    symbol: reloc.symbol.clone(),
                    displacement: disp,
                })?;
                let slot = usize::try_from(reloc.site)
                    .ok()
                    .and_then(|site| text_bytes.get_mut(site..site.checked_add(4)?))
                    .ok_or_else(|| {
                        ObjError::BadImage(format!(
                            "relocation site {:#x} outside the text",
                            reloc.site
                        ))
                    })?;
                slot.copy_from_slice(&disp32.to_le_bytes());
            }
            RelocKind::Abs64 => {
                let value = if let Some((off, _, _)) = local_offset(&reloc.symbol) {
                    RelocValue::Local {
                        offset: off,
                        addend: reloc.addend,
                    }
                } else {
                    // Absolute imports bypass the PLT: the loader writes the
                    // final address straight into the immediate.
                    find_export(&reloc.symbol)
                        .ok_or_else(|| ObjError::UnresolvedSymbol(reloc.symbol.clone()))?;
                    RelocValue::Import {
                        symbol: reloc.symbol.clone(),
                        addend: reloc.addend,
                    }
                };
                dyn_relocs.push(DynReloc {
                    site: reloc.site,
                    value,
                });
            }
        }
    }

    // 4. Synthesise PLT stubs and GOT-slot relocations.
    let mut plt = Vec::with_capacity(imports.len());
    let mut blocks: Vec<BasicBlock> = text.blocks.clone();
    let mut functions: Vec<FuncSpan> = text.functions.clone();
    for (index, symbol) in imports.iter().enumerate() {
        let stub_off = plt_stub_off(index);
        let slot_off = got_slot_off(index);
        // lea r14, [pc + disp] ; disp measured from the end of the lea.
        let disp = slot_off as i64 - (stub_off as i64 + 6);
        let disp32 = i32::try_from(disp).map_err(|_| ObjError::RelocOverflow {
            symbol: symbol.clone(),
            displacement: disp,
        })?;
        encode_into(&Insn::Lea(Reg::LT, disp32), &mut text_bytes);
        encode_into(
            &Insn::Ld(dynacut_isa::Width::B8, Reg::LT, Reg::LT, 0),
            &mut text_bytes,
        );
        encode_into(&Insn::Jmpr(Reg::LT), &mut text_bytes);
        plt.push(PltEntry {
            name: symbol.clone(),
            stub_offset: stub_off,
            got_offset: slot_off,
        });
        blocks.push(BasicBlock::new(stub_off, PLT_STUB_BLOCK_SIZE));
        functions.push(FuncSpan {
            name: format!("plt${symbol}"),
            offset: stub_off,
            size: PLT_STUB_SIZE,
        });
        dyn_relocs.push(DynReloc {
            site: slot_off,
            value: RelocValue::Import {
                symbol: symbol.clone(),
                addend: 0,
            },
        });
    }
    debug_assert_eq!(text_bytes.len() as u64, text_total);

    // 5. Data-pointer cells.
    for ptr in &builder.data_ptrs {
        let value = if let Some((off, _, _)) = local_offset(&ptr.symbol) {
            RelocValue::Local {
                offset: off,
                addend: ptr.addend,
            }
        } else {
            find_export(&ptr.symbol)
                .ok_or_else(|| ObjError::UnresolvedSymbol(ptr.symbol.clone()))?;
            RelocValue::Import {
                symbol: ptr.symbol.clone(),
                addend: ptr.addend,
            }
        };
        dyn_relocs.push(DynReloc {
            site: data_off + ptr.offset,
            value,
        });
    }

    // 6. Symbol table: functions and data objects.
    let mut symbols: BTreeMap<String, SymbolDef> = BTreeMap::new();
    for func in &text.functions {
        symbols.insert(
            func.name.clone(),
            SymbolDef {
                offset: func.offset,
                kind: SymbolKind::Func,
                size: func.size,
            },
        );
    }
    for def in &builder.defs {
        symbols.insert(
            def.name.clone(),
            SymbolDef {
                offset: section_base(def.section) + def.offset,
                kind: SymbolKind::Object,
                size: def.size,
            },
        );
    }

    // 7. Entry point.
    let entry = match (builder.kind, &builder.entry) {
        (ObjectKind::Executable, None) => return Err(ObjError::MissingEntry),
        (_, Some(name)) => Some(
            text.labels
                .get(name)
                .copied()
                .ok_or_else(|| ObjError::BadEntry(name.clone()))?,
        ),
        (ObjectKind::SharedLib, None) => None,
    };

    // The GOT lives inside the data segment bytes: extend with zeroed
    // slots, `got_len` bytes.
    let mut data = builder.data.clone();
    data.extend(std::iter::repeat_n(0u8, imports.len() * 8));

    Ok(Image {
        name: builder.name.clone(),
        kind: builder.kind,
        text: text_bytes,
        rodata: builder.rodata.clone(),
        data,
        bss_size: builder.bss_size,
        rodata_off,
        data_off,
        got_off,
        bss_off,
        blocks,
        functions,
        symbols,
        plt,
        dyn_relocs,
        entry,
        imports,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;
    use dynacut_isa::Assembler;

    fn lib_with_export(name: &str, func: &str) -> Image {
        let mut asm = Assembler::new();
        asm.func(func);
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new(name, ObjectKind::SharedLib);
        builder.text(asm.finish().unwrap());
        builder.link(&[]).unwrap()
    }

    #[test]
    fn executable_without_entry_fails() {
        let builder = ModuleBuilder::new("m", ObjectKind::Executable);
        assert_eq!(builder.link(&[]), Err(ObjError::MissingEntry));
    }

    #[test]
    fn bad_entry_name_fails() {
        let mut asm = Assembler::new();
        asm.func("main");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("m", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("not_main");
        assert!(matches!(builder.link(&[]), Err(ObjError::BadEntry(_))));
    }

    #[test]
    fn import_generates_plt_and_got() {
        let libc = lib_with_export("libc", "libc_write");
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.call_ext("libc_write");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("_start");
        let image = builder.link(&[&libc]).unwrap();

        assert_eq!(image.imports, vec!["libc_write".to_owned()]);
        assert_eq!(image.plt.len(), 1);
        let entry = &image.plt[0];
        // Stub sits right after application text (call(5) + ret(1) = 6).
        assert_eq!(entry.stub_offset, 6);
        assert_eq!(entry.got_offset, image.got_off);
        // The GOT slot has an import relocation.
        assert!(image.dyn_relocs.iter().any(|r| r.site == entry.got_offset
            && matches!(&r.value, RelocValue::Import { symbol, .. } if symbol == "libc_write")));
        // The call displacement points at the stub: call at 0, next = 5.
        let disp = i32::from_le_bytes(image.text[1..5].try_into().unwrap());
        assert_eq!(i64::from(disp), entry.stub_offset as i64 - 5);
        // The stub decodes to lea/ld/jmpr.
        let stub = &image.text[usize::try_from(entry.stub_offset).unwrap()..];
        let insns = dynacut_isa::decode_all(stub).unwrap();
        assert!(matches!(insns[0].1, Insn::Lea(Reg::R14, _)));
        assert!(matches!(insns[1].1, Insn::Ld(..)));
        assert!(matches!(insns[2].1, Insn::Jmpr(Reg::R14)));
    }

    #[test]
    fn unresolved_symbol_fails() {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.call_ext("nope");
        let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("_start");
        assert!(matches!(
            builder.link(&[]),
            Err(ObjError::UnresolvedSymbol(s)) if s == "nope"
        ));
    }

    #[test]
    fn duplicate_data_and_label_symbol_fails() {
        let mut asm = Assembler::new();
        asm.func("x");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("m", ObjectKind::SharedLib);
        builder.text(asm.finish().unwrap());
        builder.data("x", &[0]);
        assert!(matches!(
            builder.link(&[]),
            Err(ObjError::DuplicateSymbol(s)) if s == "x"
        ));
    }

    #[test]
    fn local_lea_to_data_is_resolved_statically() {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.lea_ext(Reg::R1, "greeting", 0);
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("m", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.rodata("greeting", b"hello");
        builder.entry("_start");
        let image = builder.link(&[]).unwrap();
        // lea at 0, next = 6; greeting at rodata_off.
        let disp = i32::from_le_bytes(image.text[2..6].try_into().unwrap());
        assert_eq!(disp as u64, image.rodata_off - 6);
        assert!(image.dyn_relocs.is_empty());
    }

    #[test]
    fn movi_ext_local_becomes_dyn_reloc() {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.movi_ext(Reg::R1, "table", 8);
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("m", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.data("table", &[0; 16]);
        builder.entry("_start");
        let image = builder.link(&[]).unwrap();
        assert_eq!(image.dyn_relocs.len(), 1);
        let reloc = &image.dyn_relocs[0];
        assert_eq!(reloc.site, 2);
        assert!(matches!(
            &reloc.value,
            RelocValue::Local { offset, addend: 8 } if *offset == image.data_off
        ));
    }

    #[test]
    fn rel32_to_external_data_is_rejected() {
        let mut lib_builder = ModuleBuilder::new("lib", ObjectKind::SharedLib);
        lib_builder.data("shared_table", &[0; 8]);
        let lib = lib_builder.link(&[]).unwrap();

        let mut asm = Assembler::new();
        asm.func("_start");
        asm.lea_ext(Reg::R1, "shared_table", 0);
        let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("_start");
        assert!(matches!(
            builder.link(&[&lib]),
            Err(ObjError::CrossModuleData(_))
        ));
    }

    #[test]
    fn ptr_table_cells_get_relocs() {
        let mut asm = Assembler::new();
        asm.func("handler_a");
        asm.push(Insn::Ret);
        asm.func("handler_b");
        asm.push(Insn::Ret);
        asm.func("_start");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("m", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.ptr_table("dispatch", &["handler_a", "handler_b"]);
        builder.entry("_start");
        let image = builder.link(&[]).unwrap();
        let cells: Vec<_> = image
            .dyn_relocs
            .iter()
            .filter(|r| matches!(r.value, RelocValue::Local { .. }))
            .collect();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].site, image.data_off);
        assert_eq!(cells[1].site, image.data_off + 8);
    }

    #[test]
    fn layout_is_page_aligned_and_ordered() {
        let libc = lib_with_export("libc", "f");
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.call_ext("f");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("m", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.rodata("ro", &[1; 100]);
        builder.data("rw", &[2; 50]);
        builder.bss("zero", 1000);
        builder.entry("_start");
        let image = builder.link(&[&libc]).unwrap();
        assert_eq!(image.rodata_off % crate::PAGE_SIZE, 0);
        assert_eq!(image.data_off % crate::PAGE_SIZE, 0);
        assert!(image.rodata_off >= image.text.len() as u64);
        assert!(image.data_off >= image.rodata_off + image.rodata.len() as u64);
        assert_eq!(image.got_off, image.data_off + 56); // 50 rounded to 56
        assert_eq!(image.bss_off, image.got_off + 8);
        assert_eq!(image.footprint(), image.bss_off + 1000);
    }
}
