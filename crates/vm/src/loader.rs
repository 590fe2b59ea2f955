//! Program loading: mapping linked images into a fresh process.

use crate::process::Process;
use crate::VmError;
use dynacut_obj::{materialize, resolve, Image, Perms, PAGE_SIZE};
use std::sync::Arc;

/// Default executable base address.
pub const EXE_BASE: u64 = 0x0040_0000;
/// Base address of the first shared library; further libraries follow with
/// a one-page guard gap.
pub const LIB_BASE: u64 = 0x7000_0000_0000;
/// Top of the initial stack mapping.
pub const STACK_BASE: u64 = 0x7FFF_F000_0000;
/// Initial stack size in bytes.
pub const STACK_SIZE: u64 = 64 * PAGE_SIZE;
/// Base address for anonymous `mmap` allocations.
pub const MMAP_BASE: u64 = 0x1_0000_0000;

/// What to load into a new process: one executable plus its libraries.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// The main program.
    pub exe: Arc<Image>,
    /// Shared libraries, loaded in order at [`LIB_BASE`] upward.
    pub libs: Vec<Arc<Image>>,
}

impl LoadSpec {
    /// A spec with no libraries.
    pub fn exe_only(exe: Image) -> Self {
        LoadSpec {
            exe: Arc::new(exe),
            libs: Vec::new(),
        }
    }

    /// A spec with libraries.
    pub fn with_libs(exe: Image, libs: Vec<Image>) -> Self {
        LoadSpec {
            exe: Arc::new(exe),
            libs: libs.into_iter().map(Arc::new).collect(),
        }
    }
}

/// A module mapped into a process: the image plus its base address.
///
/// The process rewriter uses the retained [`Image`] as its copy of "the
/// binary on disk" — e.g. to restore original instruction bytes when a
/// blocked feature is re-enabled (paper §3.2: "restore the removed features
/// by replacing the `int3` instructions with the original instruction
/// bytes").
#[derive(Debug, Clone)]
pub struct LoadedModule {
    /// The linked image.
    pub image: Arc<Image>,
    /// Base address it was mapped at.
    pub base: u64,
}

impl LoadedModule {
    /// Absolute address of a symbol, if defined.
    pub fn symbol_addr(&self, name: &str) -> Option<u64> {
        self.image.symbol_addr(self.base, name)
    }

    /// Absolute end of the module's footprint.
    pub fn end(&self) -> u64 {
        self.base + dynacut_obj::page_align(self.image.footprint())
    }

    /// Whether `addr` falls inside the module's text.
    pub fn contains_text(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.image.text.len() as u64
    }
}

/// Maps `spec` into `proc`, sets up the stack and entry point, and records
/// the loaded modules.
///
/// # Errors
///
/// Fails on overlapping mappings or unresolved imports.
pub(crate) fn load_into(proc: &mut Process, spec: &LoadSpec) -> Result<(), VmError> {
    // Place libraries first so the executable's imports resolve.
    let mut placements: Vec<LoadedModule> = Vec::new();
    let mut lib_cursor = LIB_BASE;
    for lib in &spec.libs {
        placements.push(LoadedModule {
            image: Arc::clone(lib),
            base: lib_cursor,
        });
        lib_cursor += dynacut_obj::page_align(lib.footprint()) + PAGE_SIZE;
    }
    placements.push(LoadedModule {
        image: Arc::clone(&spec.exe),
        base: EXE_BASE,
    });

    // Imports resolve by the one rule: the first definition in load
    // order, libraries before the executable.
    for module in &placements {
        let segments = materialize(&module.image, module.base, |symbol| {
            resolve(placements.iter().map(|m| (&*m.image, m.base)), symbol)
        })?;
        for segment in &segments {
            proc.mem.map(
                segment.vaddr,
                segment.map_len(),
                segment.perms,
                &segment.name,
            )?;
            proc.mem.write_unchecked(segment.vaddr, &segment.bytes);
        }
    }

    // Stack.
    proc.mem
        .map(STACK_BASE - STACK_SIZE, STACK_SIZE, Perms::RW, "[stack]")?;
    proc.cpu.set_sp(STACK_BASE - 64);

    // Entry.
    let entry = spec
        .exe
        .entry
        .ok_or(VmError::Load(dynacut_obj::ObjError::MissingEntry))?;
    proc.cpu.pc = EXE_BASE + entry;
    proc.name = spec.exe.name.clone();
    proc.modules = placements;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Pid;
    use dynacut_isa::{Assembler, Insn, Reg};
    use dynacut_obj::{ModuleBuilder, ObjectKind};

    fn libc() -> Image {
        let mut asm = Assembler::new();
        asm.func("libc_nop");
        asm.push(Insn::Ret);
        let mut builder = ModuleBuilder::new("libc", ObjectKind::SharedLib);
        builder.text(asm.finish().unwrap());
        builder.link(&[]).unwrap()
    }

    fn exe(libc: &Image) -> Image {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.call_ext("libc_nop");
        asm.push(Insn::Movi(Reg::R0, 0));
        asm.push(Insn::Syscall);
        let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.data("state", &[1, 2, 3, 4]);
        builder.entry("_start");
        builder.link(&[libc]).unwrap()
    }

    #[test]
    fn load_maps_modules_and_stack() {
        let libc = libc();
        let app = exe(&libc);
        let mut proc = Process::new(Pid(1), "unnamed");
        let spec = LoadSpec::with_libs(app, vec![libc]);
        load_into(&mut proc, &spec).unwrap();

        assert_eq!(proc.name, "app");
        assert_eq!(proc.cpu.pc, EXE_BASE);
        assert_eq!(proc.cpu.sp(), STACK_BASE - 64);
        assert_eq!(proc.modules.len(), 2);
        // Text is executable, stack is not.
        assert!(proc.mem.vma_at(EXE_BASE).unwrap().perms.exec);
        assert!(!proc.mem.vma_at(STACK_BASE - 64).unwrap().perms.exec);
        // The GOT slot for libc_nop holds the library address.
        let exe_module = &proc.modules[1];
        let got = exe_module.base + exe_module.image.plt[0].got_offset;
        let mut slot = [0u8; 8];
        proc.mem.read_unchecked(got, &mut slot);
        assert_eq!(u64::from_le_bytes(slot), LIB_BASE);
    }

    #[test]
    fn loaded_module_symbol_lookup() {
        let libc = libc();
        let app = exe(&libc);
        let mut proc = Process::new(Pid(1), "x");
        load_into(&mut proc, &LoadSpec::with_libs(app, vec![libc])).unwrap();
        let libc_module = &proc.modules[0];
        assert_eq!(libc_module.symbol_addr("libc_nop"), Some(LIB_BASE));
        assert!(libc_module.contains_text(LIB_BASE));
        assert!(!libc_module.contains_text(EXE_BASE));
    }

    #[test]
    fn data_bytes_are_loaded() {
        let libc = libc();
        let app = exe(&libc);
        let mut proc = Process::new(Pid(1), "x");
        load_into(&mut proc, &LoadSpec::with_libs(app, vec![libc])).unwrap();
        let exe_module = proc.modules.last().unwrap();
        let addr = exe_module.symbol_addr("state").unwrap();
        let mut buf = [0u8; 4];
        proc.mem.read_unchecked(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }
}
