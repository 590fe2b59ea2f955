//! The on-disk DCO format: serialisation of [`Image`].
//!
//! The process rewriter parses serialised libraries when injecting a
//! signal-handler library into a checkpointed process, just as the paper's
//! implementation parses ELF shared objects with pyelftools (§3.3).

use crate::image::{DynReloc, Image, ObjectKind, PltEntry, RelocValue, SymbolDef, SymbolKind};
use crate::wire::{Reader, Sink, WireError};
use crate::ObjError;
use dynacut_isa::{BasicBlock, FuncSpan};

const MAGIC: &[u8; 4] = b"DCO1";

impl Image {
    /// Serialises the image to the binary DCO format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.put_slice(MAGIC);
        buf.put_str(&self.name);
        buf.put_u8(match self.kind {
            ObjectKind::Executable => 0,
            ObjectKind::SharedLib => 1,
        });
        buf.put_vec(&self.text);
        buf.put_vec(&self.rodata);
        buf.put_vec(&self.data);
        buf.put_u64_le(self.bss_size);
        buf.put_u64_le(self.rodata_off);
        buf.put_u64_le(self.data_off);
        buf.put_u64_le(self.got_off);
        buf.put_u64_le(self.bss_off);
        buf.put_count(self.blocks.len());
        for block in &self.blocks {
            buf.put_u64_le(block.addr);
            buf.put_u32_le(block.size);
        }
        buf.put_count(self.functions.len());
        for func in &self.functions {
            buf.put_str(&func.name);
            buf.put_u64_le(func.offset);
            buf.put_u64_le(func.size);
        }
        buf.put_count(self.symbols.len());
        for (name, def) in &self.symbols {
            buf.put_str(name);
            buf.put_u64_le(def.offset);
            buf.put_u8(match def.kind {
                SymbolKind::Func => 0,
                SymbolKind::Object => 1,
            });
            buf.put_u64_le(def.size);
        }
        buf.put_count(self.plt.len());
        for entry in &self.plt {
            buf.put_str(&entry.name);
            buf.put_u64_le(entry.stub_offset);
            buf.put_u64_le(entry.got_offset);
        }
        buf.put_count(self.dyn_relocs.len());
        for reloc in &self.dyn_relocs {
            buf.put_u64_le(reloc.site);
            match &reloc.value {
                RelocValue::Local { offset, addend } => {
                    buf.put_u8(0);
                    buf.put_u64_le(*offset);
                    buf.put_u64_le(*addend as u64);
                }
                RelocValue::Import { symbol, addend } => {
                    buf.put_u8(1);
                    buf.put_str(symbol);
                    buf.put_u64_le(*addend as u64);
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
        buf.put_count(self.imports.len());
        for import in &self.imports {
            buf.put_str(import);
        }
        buf
    }

    /// Parses a DCO image previously produced by [`Image::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`ObjError::BadImage`] if the input is truncated or runs
    /// past the image, has a bad magic number, contains malformed fields,
    /// or lays out sections that overlap or run past the top of the
    /// address space.
    pub fn from_bytes(raw: &[u8]) -> Result<Image, ObjError> {
        let image = decode(raw)?;
        image.check_layout()?;
        Ok(image)
    }
}

fn decode(raw: &[u8]) -> Result<Image, WireError> {
    let mut reader = Reader::new(raw);
    reader.magic(MAGIC)?;
    let name = reader.str()?;
    let kind = match reader.u8()? {
        0 => ObjectKind::Executable,
        1 => ObjectKind::SharedLib,
        other => return Err(WireError(format!("bad kind byte {other}"))),
    };
    let text = reader.bytes()?.to_vec();
    let rodata = reader.bytes()?.to_vec();
    let data = reader.bytes()?.to_vec();
    let bss_size = reader.u64()?;
    let rodata_off = reader.u64()?;
    let data_off = reader.u64()?;
    let got_off = reader.u64()?;
    let bss_off = reader.u64()?;
    // Each table's first argument is the fewest bytes one of its
    // entries takes: its fixed-width fields and any name empty.
    let blocks = reader.table(12, |r| Ok(BasicBlock::new(r.u64()?, r.u32()?)))?;
    let functions = reader.table(20, |r| {
        Ok(FuncSpan {
            name: r.str()?,
            offset: r.u64()?,
            size: r.u64()?,
        })
    })?;
    let symbols = reader.table(21, |r| {
        let name = r.str()?;
        let offset = r.u64()?;
        let kind = match r.u8()? {
            0 => SymbolKind::Func,
            1 => SymbolKind::Object,
            other => return Err(WireError(format!("bad symbol kind {other}"))),
        };
        let size = r.u64()?;
        Ok((name, SymbolDef { offset, kind, size }))
    })?;
    let plt = reader.table(20, |r| {
        Ok(PltEntry {
            name: r.str()?,
            stub_offset: r.u64()?,
            got_offset: r.u64()?,
        })
    })?;
    let dyn_relocs = reader.table(21, |r| {
        let site = r.u64()?;
        let value = match r.u8()? {
            0 => RelocValue::Local {
                offset: r.u64()?,
                addend: r.u64()? as i64,
            },
            1 => RelocValue::Import {
                symbol: r.str()?,
                addend: r.u64()? as i64,
            },
            other => return Err(WireError(format!("bad reloc kind {other}"))),
        };
        Ok(DynReloc { site, value })
    })?;
    let entry = match reader.u8()? {
        0 => None,
        1 => Some(reader.u64()?),
        other => return Err(WireError(format!("bad entry flag {other}"))),
    };
    let imports = reader.table(4, Reader::str)?;
    reader.finish()?;
    Ok(Image {
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
        symbols: symbols.into_iter().collect(),
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

    /// The format pinned: the length and FNV-1a-64 hash of the sample's
    /// encoding, recorded before the codec moved onto the wire layer.
    /// Any other value is a format change.
    #[test]
    fn encoding_matches_the_golden_bytes() {
        let bytes = sample_image().to_bytes();
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((bytes.len(), hash), (437, 0x6888_fcf9_477f_0478));
    }

    /// Regression: an image with bytes appended used to parse.
    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_image().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Image::from_bytes(&bytes),
            Err(ObjError::BadImage(_))
        ));
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
