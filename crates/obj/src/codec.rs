//! The on-disk DCO format: serialisation of [`Image`].
//!
//! The process rewriter parses serialised libraries when injecting a
//! signal-handler library into a checkpointed process, just as the paper's
//! implementation parses ELF shared objects with pyelftools (§3.3).

use crate::image::{DynReloc, Image, ObjectKind, PltEntry, RelocValue, SymbolDef, SymbolKind};
use crate::ObjError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dynacut_isa::{BasicBlock, FuncSpan};
use std::collections::BTreeMap;

const MAGIC: &[u8; 4] = b"DCO1";

/// Writes a string's length or a table's entry count as the format's
/// `u32`.
fn put_count(buf: &mut BytesMut, count: usize) {
    debug_assert!(u32::try_from(count).is_ok(), "count {count} overflows u32");
    #[allow(
        clippy::cast_possible_truncation,
        reason = "every count is a name's length or the entries of an \
                  in-memory image table (blocks, functions, symbols, PLT \
                  entries, relocations, imports), each far below u32::MAX"
    )]
    buf.put_u32_le(count as u32);
}

fn put_str(buf: &mut BytesMut, s: &str) {
    put_count(buf, s.len());
    buf.put_slice(s.as_bytes());
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u64_le(b.len() as u64);
    buf.put_slice(b);
}

fn get_str(buf: &mut Bytes) -> Result<String, ObjError> {
    if buf.remaining() < 4 {
        return Err(ObjError::BadImage("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(ObjError::BadImage("truncated string body".into()));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| ObjError::BadImage("non-utf8 string".into()))
}

fn get_vec(buf: &mut Bytes) -> Result<Vec<u8>, ObjError> {
    if buf.remaining() < 8 {
        return Err(ObjError::BadImage("truncated byte-vector length".into()));
    }
    // A length past `usize` is past the buffer too.
    let len = usize::try_from(buf.get_u64_le()).unwrap_or(usize::MAX);
    if buf.remaining() < len {
        return Err(ObjError::BadImage("truncated byte-vector body".into()));
    }
    Ok(buf.split_to(len).to_vec())
}

fn get_u64(buf: &mut Bytes) -> Result<u64, ObjError> {
    if buf.remaining() < 8 {
        return Err(ObjError::BadImage("truncated u64".into()));
    }
    Ok(buf.get_u64_le())
}

fn get_u32(buf: &mut Bytes) -> Result<u32, ObjError> {
    if buf.remaining() < 4 {
        return Err(ObjError::BadImage("truncated u32".into()));
    }
    Ok(buf.get_u32_le())
}

fn get_u8(buf: &mut Bytes) -> Result<u8, ObjError> {
    if buf.remaining() < 1 {
        return Err(ObjError::BadImage("truncated u8".into()));
    }
    Ok(buf.get_u8())
}

impl Image {
    /// Serialises the image to the binary DCO format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        put_str(&mut buf, &self.name);
        buf.put_u8(match self.kind {
            ObjectKind::Executable => 0,
            ObjectKind::SharedLib => 1,
        });
        put_bytes(&mut buf, &self.text);
        put_bytes(&mut buf, &self.rodata);
        put_bytes(&mut buf, &self.data);
        buf.put_u64_le(self.bss_size);
        buf.put_u64_le(self.rodata_off);
        buf.put_u64_le(self.data_off);
        buf.put_u64_le(self.got_off);
        buf.put_u64_le(self.bss_off);
        put_count(&mut buf, self.blocks.len());
        for block in &self.blocks {
            buf.put_u64_le(block.addr);
            buf.put_u32_le(block.size);
        }
        put_count(&mut buf, self.functions.len());
        for func in &self.functions {
            put_str(&mut buf, &func.name);
            buf.put_u64_le(func.offset);
            buf.put_u64_le(func.size);
        }
        put_count(&mut buf, self.symbols.len());
        for (name, def) in &self.symbols {
            put_str(&mut buf, name);
            buf.put_u64_le(def.offset);
            buf.put_u8(match def.kind {
                SymbolKind::Func => 0,
                SymbolKind::Object => 1,
            });
            buf.put_u64_le(def.size);
        }
        put_count(&mut buf, self.plt.len());
        for entry in &self.plt {
            put_str(&mut buf, &entry.name);
            buf.put_u64_le(entry.stub_offset);
            buf.put_u64_le(entry.got_offset);
        }
        put_count(&mut buf, self.dyn_relocs.len());
        for reloc in &self.dyn_relocs {
            buf.put_u64_le(reloc.site);
            match &reloc.value {
                RelocValue::Local { offset, addend } => {
                    buf.put_u8(0);
                    buf.put_u64_le(*offset);
                    buf.put_i64_le(*addend);
                }
                RelocValue::Import { symbol, addend } => {
                    buf.put_u8(1);
                    put_str(&mut buf, symbol);
                    buf.put_i64_le(*addend);
                }
            }
        }
        match self.entry {
            Some(entry) => {
                buf.put_u8(1);
                buf.put_u64_le(entry);
            }
            None => buf.put_u8(0),
        }
        put_count(&mut buf, self.imports.len());
        for import in &self.imports {
            put_str(&mut buf, import);
        }
        buf.to_vec()
    }

    /// Parses a DCO image previously produced by [`Image::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::BadImage`] if the input is truncated, has a bad
    /// magic number, contains malformed fields, or lays out sections that
    /// overlap or run past the top of the address space.
    pub fn from_bytes(raw: &[u8]) -> Result<Image, ObjError> {
        let mut buf = Bytes::copy_from_slice(raw);
        if buf.remaining() < 4 || &buf.split_to(4)[..] != MAGIC {
            return Err(ObjError::BadImage("bad magic".into()));
        }
        let name = get_str(&mut buf)?;
        let kind = match get_u8(&mut buf)? {
            0 => ObjectKind::Executable,
            1 => ObjectKind::SharedLib,
            other => return Err(ObjError::BadImage(format!("bad kind byte {other}"))),
        };
        let text = get_vec(&mut buf)?;
        let rodata = get_vec(&mut buf)?;
        let data = get_vec(&mut buf)?;
        let bss_size = get_u64(&mut buf)?;
        let rodata_off = get_u64(&mut buf)?;
        let data_off = get_u64(&mut buf)?;
        let got_off = get_u64(&mut buf)?;
        let bss_off = get_u64(&mut buf)?;
        let n_blocks = get_u32(&mut buf)?;
        let mut blocks = Vec::with_capacity((n_blocks as usize).min(4096));
        for _ in 0..n_blocks {
            let addr = get_u64(&mut buf)?;
            let size = get_u32(&mut buf)?;
            blocks.push(BasicBlock::new(addr, size));
        }
        let n_funcs = get_u32(&mut buf)?;
        let mut functions = Vec::with_capacity((n_funcs as usize).min(4096));
        for _ in 0..n_funcs {
            let name = get_str(&mut buf)?;
            let offset = get_u64(&mut buf)?;
            let size = get_u64(&mut buf)?;
            functions.push(FuncSpan { name, offset, size });
        }
        let n_syms = get_u32(&mut buf)?;
        let mut symbols = BTreeMap::new();
        for _ in 0..n_syms {
            let name = get_str(&mut buf)?;
            let offset = get_u64(&mut buf)?;
            let kind = match get_u8(&mut buf)? {
                0 => SymbolKind::Func,
                1 => SymbolKind::Object,
                other => return Err(ObjError::BadImage(format!("bad symbol kind {other}"))),
            };
            let size = get_u64(&mut buf)?;
            symbols.insert(name, SymbolDef { offset, kind, size });
        }
        let n_plt = get_u32(&mut buf)?;
        let mut plt = Vec::with_capacity((n_plt as usize).min(4096));
        for _ in 0..n_plt {
            let name = get_str(&mut buf)?;
            let stub_offset = get_u64(&mut buf)?;
            let got_offset = get_u64(&mut buf)?;
            plt.push(PltEntry {
                name,
                stub_offset,
                got_offset,
            });
        }
        let n_relocs = get_u32(&mut buf)?;
        let mut dyn_relocs = Vec::with_capacity((n_relocs as usize).min(4096));
        for _ in 0..n_relocs {
            let site = get_u64(&mut buf)?;
            let value = match get_u8(&mut buf)? {
                0 => {
                    let offset = get_u64(&mut buf)?;
                    let addend = get_u64(&mut buf)? as i64;
                    RelocValue::Local { offset, addend }
                }
                1 => {
                    let symbol = get_str(&mut buf)?;
                    let addend = get_u64(&mut buf)? as i64;
                    RelocValue::Import { symbol, addend }
                }
                other => return Err(ObjError::BadImage(format!("bad reloc kind {other}"))),
            };
            dyn_relocs.push(DynReloc { site, value });
        }
        let entry = match get_u8(&mut buf)? {
            0 => None,
            1 => Some(get_u64(&mut buf)?),
            other => return Err(ObjError::BadImage(format!("bad entry flag {other}"))),
        };
        let n_imports = get_u32(&mut buf)?;
        let mut imports = Vec::with_capacity((n_imports as usize).min(4096));
        for _ in 0..n_imports {
            imports.push(get_str(&mut buf)?);
        }
        let image = Image {
            name,
            kind,
            text,
            rodata,
            data,
            bss_size,
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
        };
        image.check_layout()?;
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuleBuilder;
    use dynacut_isa::{Assembler, Insn, Reg};

    fn sample_image() -> Image {
        let mut lib_asm = Assembler::new();
        lib_asm.func("libc_write");
        lib_asm.push(Insn::Ret);
        let mut lib_builder = ModuleBuilder::new("libc", ObjectKind::SharedLib);
        lib_builder.text(lib_asm.finish().unwrap());
        let libc = lib_builder.link(&[]).unwrap();

        let mut asm = Assembler::new();
        asm.func("_start");
        asm.call_ext("libc_write");
        asm.lea_ext(Reg::R1, "msg", 0);
        asm.movi_ext(Reg::R2, "counter", 0);
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.rodata("msg", b"hi\n");
        builder.bss("counter", 8);
        builder.entry("_start");
        builder.link(&[&libc]).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let image = sample_image();
        let bytes = image.to_bytes();
        let parsed = Image::from_bytes(&bytes).unwrap();
        assert_eq!(parsed, image);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            Image::from_bytes(b"NOPE...."),
            Err(ObjError::BadImage(_))
        ));
    }

    #[test]
    fn truncation_anywhere_is_rejected_not_panicking() {
        let bytes = sample_image().to_bytes();
        for cut in 0..bytes.len() {
            let result = Image::from_bytes(&bytes[..cut]);
            assert!(result.is_err(), "cut at {cut} must fail gracefully");
        }
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(Image::from_bytes(&[]).is_err());
    }
}
