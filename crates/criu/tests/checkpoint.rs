//! Checkpoint/rewrite/restore integration tests — the core DynaCut
//! mechanism, exercised end to end on a live guest server.

use dynacut_criu::{
    dump, dump_many, CheckpointImage, CheckpointStore, CriuError, DumpOptions, ModuleRegistry,
    PageKey, ProcessImage,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg, TRAP_OPCODE};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_vm::{Kernel, LoadSpec, Pid, RunOutcome, Signal, Sysno};

/// An echo server with a distinguishable "FEATURE" code path: input
/// starting with 'F' is answered by feature code, everything else by the
/// default path.
fn feature_server() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Socket as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Bind as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R2, 8080));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Listen as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, 1));
    asm.push(Insn::Syscall);
    asm.label("accept_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Accept as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R11, Reg::R0));
    asm.label("serve_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Read as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "accept_loop");
    // Dispatch: first byte 'F' -> feature, else default.
    asm.lea_ext(Reg::R4, "buf", 0);
    asm.push(Insn::Ld(dynacut_isa::Width::B1, Reg::R5, Reg::R4, 0));
    asm.push(Insn::Cmpi(Reg::R5, b'F' as i32));
    asm.jcc(Cond::Eq, "feature");
    // default path: reply "dflt"
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "dflt_msg", 0);
    asm.push(Insn::Movi(Reg::R3, 4));
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");
    asm.func("feature");
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "feat_msg", 0);
    asm.push(Insn::Movi(Reg::R3, 4));
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");

    let mut builder = ModuleBuilder::new("feature_server", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.bss("buf", 64);
    builder.rodata("dflt_msg", b"dflt");
    builder.rodata("feat_msg", b"FEAT");
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

struct Setup {
    kernel: Kernel,
    pid: Pid,
    registry: ModuleRegistry,
}

fn boot() -> Setup {
    let exe = feature_server();
    let mut registry = ModuleRegistry::new();
    registry.insert(std::sync::Arc::new(exe.clone()));
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    kernel.run_until_event(1, 10_000_000).expect("server up");
    Setup {
        kernel,
        pid,
        registry,
    }
}

/// Restores one dumped process through a checkpoint store — the one
/// restore path, whose pages come back as zero-copy frames.
fn restore(kernel: &mut Kernel, image: &ProcessImage, registry: &ModuleRegistry) -> Pid {
    let mut store = CheckpointStore::new();
    let id = store
        .put_full(&CheckpointImage {
            procs: vec![image.clone()],
            time_ns: kernel.clock_ns(),
        })
        .unwrap();
    store.restore(kernel, id, registry).unwrap()[0]
}

#[test]
fn dump_requires_frozen_process() {
    let mut setup = boot();
    assert!(dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).is_err());
}

#[test]
fn dump_restore_identity_preserves_behaviour() {
    let mut setup = boot();
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup.kernel.client_request(conn, b"x", 1_000_000).unwrap();
    assert_eq!(reply, b"dflt");

    setup.kernel.freeze(setup.pid).unwrap();
    let image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    setup.kernel.remove_process(setup.pid).unwrap();
    let pid = restore(&mut setup.kernel, &image, &setup.registry);
    assert_eq!(pid, setup.pid);

    // Same connection keeps working (TCP repair).
    let reply = setup.kernel.client_request(conn, b"F1", 1_000_000).unwrap();
    assert_eq!(reply, b"FEAT");
    let reply = setup.kernel.client_request(conn, b"y", 1_000_000).unwrap();
    assert_eq!(reply, b"dflt");
}

#[test]
fn restore_preserves_registers_and_memory_exactly() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    let original = setup.kernel.remove_process(setup.pid).unwrap();
    restore(&mut setup.kernel, &image, &setup.registry);
    let restored = setup.kernel.process(setup.pid).unwrap();
    assert_eq!(restored.cpu, original.cpu);
    assert_eq!(restored.sigactions, original.sigactions);
    assert_eq!(restored.mem.vmas(), original.mem.vmas());
    // Every populated page in the original reads identically.
    for (base, bytes) in original.mem.populated_pages() {
        let mut buf = vec![0u8; bytes.len()];
        restored.mem.read_unchecked(base, &mut buf);
        assert_eq!(buf, bytes, "page {base:#x} differs");
    }
}

#[test]
fn checkpoint_serialisation_round_trips() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let checkpoint = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let bytes = checkpoint.to_bytes();
    let parsed = CheckpointImage::from_bytes(&bytes).unwrap();
    assert_eq!(parsed, checkpoint);
    assert!(checkpoint.pages_bytes() > 0);
    // Truncations fail without panicking.
    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(CheckpointImage::from_bytes(&bytes[..cut]).is_err());
    }
}

/// The encoding is pinned: a booted server that answered one request over
/// a connection it still holds dumps, with DynaCut's and with stock
/// CRIU's options, to the length and 128-bit FNV-1a hash recorded when
/// the pages were still held in memory as the on-disk pair. The
/// encoding must not depend on the in-memory form, and every guest step
/// is deterministic, so any other value is a codec change.
#[test]
fn checkpoint_encoding_matches_the_golden_bytes() {
    let mut setup = boot();
    let conn = setup.kernel.client_connect(8080).unwrap();
    assert_eq!(
        setup.kernel.client_request(conn, b"F1", 1_000_000).unwrap(),
        b"FEAT"
    );
    setup.kernel.freeze(setup.pid).unwrap();
    let golden = [
        (
            DumpOptions::default(),
            12_939,
            "page-1af8e9d3e867c071f06d44a9f1251a10",
        ),
        (
            DumpOptions::stock_criu(),
            8_835,
            "page-e37bf809ebb5c74c1dd839f93b58e569",
        ),
    ];
    for (options, len, hash) in golden {
        let checkpoint = dump_many(&mut setup.kernel, &[setup.pid], &options).unwrap();
        let bytes = checkpoint.to_bytes();
        assert_eq!(bytes.len(), len, "{options:?}");
        assert_eq!(checkpoint.encoded_len(), len, "{options:?}");
        assert_eq!(PageKey::of(&bytes).to_string(), hash, "{options:?}");
    }
}

/// The paper's criu/mem.c patch: with exec-page dumping, a text rewrite in
/// the image survives restore and blocks the feature; with stock CRIU
/// options the rewrite is lost because the restorer reconstructs the text
/// from the binary.
#[test]
fn text_rewrite_survives_only_with_exec_page_dumping() {
    for (options, expect_blocked) in [
        (DumpOptions::default(), true),
        (DumpOptions::stock_criu(), false),
    ] {
        let mut setup = boot();
        let exe = setup.registry.get("feature_server").unwrap().clone();
        let feature_off = exe.symbols["feature"].offset;
        let feature_addr = dynacut_vm::EXE_BASE + feature_off;

        setup.kernel.freeze(setup.pid).unwrap();
        let mut image = dump(&mut setup.kernel, setup.pid, &options).unwrap();
        // Rewrite: first byte of the feature handler becomes int3.
        image.write_mem(feature_addr, &[TRAP_OPCODE]).unwrap();
        setup.kernel.remove_process(setup.pid).unwrap();
        restore(&mut setup.kernel, &image, &setup.registry);

        let conn = setup.kernel.client_connect(8080).unwrap();
        let reply = setup.kernel.client_request(conn, b"F!", 1_000_000).unwrap();
        if expect_blocked {
            // No handler installed: the server dies with SIGTRAP.
            assert_eq!(reply, b"");
            let status = setup.kernel.exit_status(setup.pid).expect("killed");
            assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
        } else {
            assert_eq!(
                reply, b"FEAT",
                "stock CRIU reconstructs pristine text from the binary"
            );
        }
    }
}

#[test]
fn unmap_range_in_image_removes_pages_and_vma() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    let text_vma = image
        .mm
        .vmas
        .iter()
        .find(|v| v.name.contains("text"))
        .unwrap()
        .clone();
    let pages_before = image.pages.len();
    image.unmap_range(text_vma.start, text_vma.end).unwrap();
    assert!(image.mm.vma_at(text_vma.start).is_none());
    assert!(image.pages.len() < pages_before);
    // Consistency: every remaining page is inside some VMA.
    for &page in image.pages.keys() {
        assert!(image.mm.vma_at(page).is_some(), "orphan page {page:#x}");
    }
}

#[test]
fn write_mem_to_unmapped_address_fails() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    assert!(image.write_mem(0xDEAD_0000_0000, &[1]).is_err());
    assert!(image.read_mem(0xDEAD_0000_0000, 4).is_err());
}

#[test]
fn decode_text_mentions_key_facts() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    let text = image.decode_text();
    assert!(text.contains("feature_server"));
    assert!(text.contains("listener :8080"));
    assert!(text.contains("r-x"));
}

/// Library injection: a PIC "sighandler" library whose GOT resolves
/// against the main binary's exported symbols.
#[test]
fn inject_library_creates_vmas_and_resolves_got() {
    // A library that calls an exported function of the server binary.
    let mut lib_asm = Assembler::new();
    lib_asm.func("helper_entry");
    lib_asm.call_ext("feature");
    lib_asm.push(Insn::Ret);
    let mut lib_builder = ModuleBuilder::new("sighelper", ObjectKind::SharedLib);
    lib_builder.text(lib_asm.finish().unwrap());
    let server = feature_server();
    let library = lib_builder.link(&[&server]).unwrap();

    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    let base = image
        .inject_library(&library, None, &setup.registry)
        .unwrap();
    // New VMA exists and holds the library text.
    assert!(image.mm.vma_at(base).is_some());
    let text = image.read_mem(base, library.text.len()).unwrap();
    assert_eq!(text[0], library.text[0]);
    // The GOT slot points at the server's `feature` function.
    let got_addr = base + library.plt[0].got_offset;
    let slot = image.read_mem(got_addr, 8).unwrap();
    let resolved = u64::from_le_bytes(slot.try_into().unwrap());
    let expected = dynacut_vm::EXE_BASE + server.symbols["feature"].offset;
    assert_eq!(resolved, expected);
    // The module list now records the injection.
    assert!(image.core.modules.iter().any(|m| m.name == "sighelper"));
}

/// A module base read from an image is untrusted: one whose footprint
/// would run past the top of the address space is a typed error naming
/// the module, and the image is left as it was.
#[test]
fn unload_module_past_the_top_of_the_address_space_is_a_typed_error() {
    let mut lib_asm = Assembler::new();
    lib_asm.func("helper_entry");
    lib_asm.push(Insn::Ret);
    let mut lib_builder = ModuleBuilder::new("sighelper", ObjectKind::SharedLib);
    lib_builder.text(lib_asm.finish().unwrap());
    let library = lib_builder.link(&[]).unwrap();

    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    image
        .inject_library(&library, None, &setup.registry)
        .unwrap();
    setup.registry.insert(std::sync::Arc::new(library));
    let module = image
        .core
        .modules
        .iter_mut()
        .find(|m| m.name == "sighelper")
        .unwrap();
    // The top page of the address space.
    module.base = !0xFFF;
    let before = image.clone();

    match image.unload_module("sighelper", &setup.registry) {
        Err(CriuError::Inconsistent(msg)) => assert!(msg.contains("sighelper"), "{msg}"),
        other => panic!("expected an Inconsistent error, got {other:?}"),
    }
    assert_eq!(image, before, "a failed unload edits nothing");
}

/// A frozen-but-not-removed process plus restore-after-remove equals the
/// full CRIU cycle; the kernel keeps running other processes meanwhile.
#[test]
fn other_processes_run_during_checkpoint() {
    let mut setup = boot();
    // Busy sibling process.
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.label("spin");
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Cmpi(Reg::R1, 100_000));
    asm.jcc(Cond::Ne, "spin");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("spinner", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let spinner = builder.link(&[]).unwrap();
    let spinner_pid = setup.kernel.spawn(&LoadSpec::exe_only(spinner)).unwrap();

    setup.kernel.freeze(setup.pid).unwrap();
    let image = dump(&mut setup.kernel, setup.pid, &DumpOptions::default()).unwrap();
    // The sibling makes progress while the server is frozen.
    let outcome = setup.kernel.run_for(1_000_000);
    assert_ne!(outcome, RunOutcome::AllExited);
    assert!(setup.kernel.exit_status(spinner_pid).is_some());

    setup.kernel.remove_process(setup.pid).unwrap();
    restore(&mut setup.kernel, &image, &setup.registry);
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup.kernel.client_request(conn, b"z", 1_000_000).unwrap();
    assert_eq!(reply, b"dflt");
}
