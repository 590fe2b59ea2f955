//! One symbol resolution rule for every link against a process image
//! (DESIGN §12).
//!
//! Library injection, the restore's link of text it must rebuild and
//! the original-text cache all resolve an import through
//! `ModuleRegistry::resolve`: the mapped modules are walked in load
//! order and the first definition wins, as the loader does at spawn. A
//! restore links a module only when it needs the module's bytes, so an
//! image whose text is fully dumped restores even when an import no
//! longer resolves, as CRIU maps dumped pages without re-linking them.

use dynacut::OriginalText;
use dynacut_criu::{
    dump, CheckpointImage, CheckpointStore, CriuError, DumpOptions, ModuleRegistry, ProcessImage,
};
use dynacut_isa::{Assembler, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, RelocValue};
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::sync::Arc;

/// A shared library `name` whose one function is called `function`.
fn library(name: &str, function: &str) -> Image {
    let mut asm = Assembler::new();
    asm.func(function);
    asm.push(Insn::Ret);
    let mut builder = ModuleBuilder::new(name, ObjectKind::SharedLib);
    builder.text(asm.finish().unwrap());
    builder.link(&[]).unwrap()
}

/// An executable whose text loads the address of `dup` into a register
/// (an absolute import the loader writes into the text) and then loops.
fn dup_user(libs: &[&Image]) -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.movi_ext(Reg::R5, "dup", 0);
    asm.label("top");
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.jmp("top");
    let mut builder = ModuleBuilder::new("dup_user", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(libs).unwrap()
}

struct Setup {
    kernel: Kernel,
    pid: Pid,
    registry: ModuleRegistry,
    exe: Arc<Image>,
    /// Where `dup` lives in the first library in load order.
    first_dup: u64,
    /// Where it lives in the second.
    second_dup: u64,
}

/// `dup_user` mapped with two libraries that both define `dup`, run a
/// little and frozen.
fn boot() -> Setup {
    let first = library("liba", "dup");
    let second = library("libb", "dup");
    let exe = dup_user(&[&first, &second]);
    let spec = LoadSpec::with_libs(exe, vec![first, second]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&spec).unwrap();
    kernel.run_for(10_000);
    kernel.freeze(pid).unwrap();
    let proc = kernel.process(pid).unwrap();
    let dup_in = |name: &str| {
        let module = proc
            .modules
            .iter()
            .find(|module| module.image.name == name)
            .unwrap();
        module.image.symbol_addr(module.base, "dup").unwrap()
    };
    let (first_dup, second_dup) = (dup_in("liba"), dup_in("libb"));
    assert_ne!(first_dup, second_dup);
    Setup {
        kernel,
        pid,
        registry,
        exe: Arc::clone(&spec.exe),
        first_dup,
        second_dup,
    }
}

impl Setup {
    fn dump(&mut self, options: &DumpOptions) -> ProcessImage {
        let image = dump(&mut self.kernel, self.pid, options).unwrap();
        let names: Vec<&str> = image.core.modules.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["liba", "libb", "dup_user"], "load order");
        image
    }

    /// The offset in `dup_user`'s text of the immediate the loader
    /// writes `dup`'s address into.
    fn dup_site(&self) -> u64 {
        self.exe
            .dyn_relocs
            .iter()
            .find(|reloc| matches!(&reloc.value, RelocValue::Import { symbol, .. } if symbol == "dup"))
            .unwrap()
            .site
    }

    /// Puts `image` into a store and restores it over the frozen
    /// process with `registry`.
    fn restore(&mut self, image: ProcessImage, registry: &ModuleRegistry) -> Result<(), CriuError> {
        let mut store = CheckpointStore::new();
        let id = store.put_full(&CheckpointImage {
            procs: vec![image],
            time_ns: 0,
        })?;
        store.restore(&mut self.kernel, id, registry).map(|_| ())
    }

    /// The address `dup_user`'s text holds for `dup` in the live process.
    fn live_dup(&self) -> u64 {
        let mut bytes = [0u8; 8];
        self.kernel
            .process(self.pid)
            .unwrap()
            .mem
            .read_unchecked(dynacut_vm::EXE_BASE + self.dup_site(), &mut bytes);
        u64::from_le_bytes(bytes)
    }
}

/// Every link against the image takes the first library's `dup`, the
/// one the loader took at spawn: an injected library's GOT slot, the
/// text a stock-CRIU restore links again (a stock-CRIU image holds no
/// text), and the original text a re-enable reads.
#[test]
fn every_link_takes_the_first_definition() {
    let mut setup = boot();
    assert_eq!(setup.live_dup(), setup.first_dup, "the loader's choice");
    let mut image = setup.dump(&DumpOptions::default());

    let mut asm = Assembler::new();
    asm.func("handler");
    asm.call_ext("dup");
    asm.push(Insn::Ret);
    let mut builder = ModuleBuilder::new("injected", ObjectKind::SharedLib);
    builder.text(asm.finish().unwrap());
    let injected = builder.link(&[&library("liba", "dup")]).unwrap();
    let base = image
        .inject_library(&injected, None, &setup.registry)
        .unwrap();
    let slot = image
        .read_mem(base + injected.plt_entry("dup").unwrap().got_offset, 8)
        .unwrap();
    assert_eq!(
        u64::from_le_bytes(slot.try_into().unwrap()),
        setup.first_dup,
        "inject_library"
    );

    let text = OriginalText::new()
        .bytes(&image, &setup.registry, "dup_user", setup.dup_site(), 8)
        .unwrap();
    assert_eq!(
        u64::from_le_bytes(text.try_into().unwrap()),
        setup.first_dup,
        "OriginalText"
    );

    let image = setup.dump(&DumpOptions::stock_criu());
    let registry = setup.registry.clone();
    setup.restore(image, &registry).unwrap();
    assert_eq!(
        setup.live_dup(),
        setup.first_dup,
        "the stock-CRIU restore's link, not {:#x}",
        setup.second_dup
    );
}

/// Restored with binaries that no longer define `dup`, a fully dumped
/// image comes back `Ok` with its text as dumped and runs, since
/// nothing is linked; the same process dumped in stock-CRIU mode must
/// link `dup_user` and fails with the typed error naming the import.
#[test]
fn fully_dumped_text_restores_without_resolving_imports() {
    let mut without_dup = ModuleRegistry::new();
    without_dup.insert(Arc::new(library("liba", "other")));
    without_dup.insert(Arc::new(library("libb", "other")));

    let mut setup = boot();
    without_dup.insert(Arc::clone(&setup.exe));
    let image = setup.dump(&DumpOptions::default());
    setup.restore(image, &without_dup).unwrap();
    assert_eq!(setup.live_dup(), setup.first_dup, "the dumped text");
    let before = setup.kernel.process(setup.pid).unwrap().insns_retired;
    setup.kernel.run_for(10_000);
    assert!(
        setup.kernel.process(setup.pid).unwrap().insns_retired > before,
        "the restored process runs"
    );

    setup.kernel.freeze(setup.pid).unwrap();
    let image = setup.dump(&DumpOptions::stock_criu());
    let err = setup.restore(image, &without_dup).unwrap_err();
    assert!(
        matches!(&err, CriuError::UnresolvedSymbol(symbol) if symbol == "dup"),
        "{err}"
    );
}
