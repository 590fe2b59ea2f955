//! Incremental checkpointing: dirty-page deltas, the two-phase pre-dump,
//! and the delta-chain store — exercised end to end on a live guest.
//!
//! The load-bearing property throughout: a delta chain materializes
//! **bit-identically** to the full dump taken at the same instant.

use dynacut_criu::{
    dump_incremental, dump_many, mark_clean_after_dump, materialize_chain, pre_dump,
    CheckpointImage, CheckpointStore, CkptId, CriuError, DeltaImage, DumpOptions, ModuleRegistry,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, Perms, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Pid, Sysno};

/// A small echo server with a multi-page BSS scratch area, so guest
/// activity between checkpoints dirties a predictable handful of pages.
fn echo_server() -> Image {
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
    asm.push(Insn::Mov(Reg::R3, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");

    let mut builder = ModuleBuilder::new("echo_server", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.bss("buf", 4 * PAGE_SIZE);
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

struct Setup {
    kernel: Kernel,
    pid: Pid,
    registry: ModuleRegistry,
}

fn boot() -> Setup {
    let exe = echo_server();
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

/// Base of a writable page the tests can scribble on (the BSS area).
fn writable_page(setup: &Setup, index: u64) -> u64 {
    let proc = setup.kernel.process(setup.pid).unwrap();
    let vma = proc
        .mem
        .vmas()
        .iter()
        .find(|v| v.perms.write && v.end - v.start >= 4 * PAGE_SIZE)
        .expect("bss vma")
        .clone();
    vma.start + index * PAGE_SIZE
}

/// Takes a full baseline dump of the (frozen) process and sweeps the
/// dirty bitmap, returning the baseline.
fn baseline(setup: &mut Setup) -> CheckpointImage {
    let parent = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    mark_clean_after_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    parent
}

#[test]
fn incremental_dump_materializes_bit_identically_after_guest_writes() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    setup.kernel.thaw(setup.pid).unwrap();

    // Real guest activity: the server reads the request into its buffer
    // and echoes it back, dirtying the buffer and stack pages.
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup
        .kernel
        .client_request(conn, b"hello", 1_000_000)
        .unwrap();
    assert_eq!(reply, b"hello");

    setup.kernel.freeze(setup.pid).unwrap();
    let delta = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        CkptId(0),
        &parent,
    )
    .unwrap();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();

    // The delta moves strictly fewer page bytes, but materializes to the
    // exact same image — down to the serialized byte stream.
    assert!(delta.pages_bytes() > 0, "guest writes must show up");
    assert!(
        delta.pages_bytes() < full.pages_bytes(),
        "delta ({}) not smaller than full ({})",
        delta.pages_bytes(),
        full.pages_bytes()
    );
    let materialized = materialize_chain(&parent, [&delta]).unwrap();
    assert_eq!(materialized, full);
    assert_eq!(materialized.to_bytes(), full.to_bytes());

    // And restoring the chain yields a live, serving process.
    let mut store = CheckpointStore::new();
    store.put_full(parent).unwrap();
    let delta_id = store.put_delta(delta).unwrap();
    setup.kernel.remove_process(setup.pid).unwrap();
    store
        .restore(&mut setup.kernel, delta_id, &setup.registry)
        .unwrap();
    let reply = setup
        .kernel
        .client_request(conn, b"again", 1_000_000)
        .unwrap();
    assert_eq!(reply, b"again");
}

#[test]
fn clean_process_yields_empty_delta() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    // Nothing ran since the sweep: dump → mark_clean → dump is empty.
    let delta = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        CkptId(0),
        &parent,
    )
    .unwrap();
    assert_eq!(delta.pages_bytes(), 0);
    assert!(delta.procs.iter().all(|p| p.dirty.pages.is_empty()));
    let materialized = materialize_chain(&parent, [&delta]).unwrap();
    assert_eq!(materialized.procs, parent.procs);
}

#[test]
fn delta_codec_round_trips_and_rejects_corruption() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    let page = writable_page(&setup, 1);
    setup
        .kernel
        .process_mut(setup.pid)
        .unwrap()
        .mem
        .write_unchecked(page, &[0xAB; 32]);
    let delta = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        CkptId(3),
        &parent,
    )
    .unwrap();

    let bytes = delta.to_bytes();
    let parsed = DeltaImage::from_bytes(&bytes).unwrap();
    assert_eq!(parsed, delta);
    assert_eq!(parsed.parent, CkptId(3));

    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(DeltaImage::from_bytes(&bytes[..cut]).is_err());
    }
    // Magic bytes keep full checkpoints and deltas from being confused.
    assert!(CheckpointImage::from_bytes(&bytes).is_err());
    assert!(DeltaImage::from_bytes(&parent.to_bytes()).is_err());
}

#[test]
fn delta_referencing_missing_parent_errors_cleanly() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    let delta = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        CkptId(41),
        &parent,
    )
    .unwrap();

    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(parent).unwrap();
    assert_eq!(parent_id, CkptId(0));
    // The delta names checkpoint 41, which the store has never seen.
    match store.put_delta(delta) {
        Err(CriuError::MissingParent(id)) => assert_eq!(id, CkptId(41)),
        other => panic!("expected MissingParent, got {other:?}"),
    }
    // Materializing an unknown id fails the same way.
    match store.materialize(CkptId(7)) {
        Err(CriuError::MissingParent(id)) => assert_eq!(id, CkptId(7)),
        other => panic!("expected MissingParent, got {other:?}"),
    }
}

#[test]
fn unmap_and_remap_inside_the_delta_window_materialize_exactly() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    // Ensure two BSS pages are populated in the baseline.
    let gone = writable_page(&setup, 0);
    let recycled = writable_page(&setup, 1);
    {
        let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
        mem.write_unchecked(gone, &[0x11; 16]);
        mem.write_unchecked(recycled, &[0x22; 16]);
    }
    let parent = baseline(&mut setup);
    assert!(parent.procs[0].pagemap.pages.contains(&gone));

    // Delta window: one page is unmapped for good, the other is unmapped
    // and remapped (fresh zero page) then written.
    {
        let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
        mem.unmap(gone, PAGE_SIZE).unwrap();
        mem.unmap(recycled, PAGE_SIZE).unwrap();
        mem.map(recycled, PAGE_SIZE, Perms::RW, "recycled").unwrap();
        mem.write_unchecked(recycled, &[0x33; 16]);
    }

    let delta = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        CkptId(0),
        &parent,
    )
    .unwrap();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let materialized = materialize_chain(&parent, [&delta]).unwrap();
    assert_eq!(materialized, full);

    // The vanished page is gone from the materialized pagemap; the
    // recycled page carries the post-remap contents, not the parent's.
    let image = &materialized.procs[0];
    assert!(!image.pagemap.pages.contains(&gone));
    let index = image.pagemap.pages.binary_search(&recycled).unwrap();
    let bytes = &image.pages.bytes[index * PAGE_SIZE as usize..][..PAGE_SIZE as usize];
    assert_eq!(&bytes[..16], &[0x33; 16]);
}

#[test]
fn pre_dump_moves_clean_pages_before_the_freeze() {
    let mut setup = boot();
    // Phase one runs against the live (unfrozen) process.
    let pre = pre_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    assert!(pre.page_bytes() > 0);

    // The guest keeps running and dirties a little residue.
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup.kernel.client_request(conn, b"go", 1_000_000).unwrap();
    assert_eq!(reply, b"go");

    setup.kernel.freeze(setup.pid).unwrap();
    let (checkpoint, stats) = pre
        .complete(&mut setup.kernel, &[setup.pid], &DumpOptions::default())
        .unwrap();

    // The completed dump is bit-identical to a plain full dump taken at
    // this instant, but only the residue crossed the freeze window.
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    assert_eq!(checkpoint, full);
    assert_eq!(stats.total_page_bytes(), full.pages_bytes());
    assert!(stats.frozen_page_bytes > 0, "the residue is never empty");
    assert!(
        stats.frozen_page_bytes < stats.total_page_bytes(),
        "freeze window must shrink: frozen {} of {}",
        stats.frozen_page_bytes,
        stats.total_page_bytes()
    );
    assert!(stats.prewritten_page_bytes > 0);
}

#[test]
fn store_materializes_a_chain_of_deltas() {
    let mut setup = boot();
    let mut store = CheckpointStore::new();

    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    let parent_id = store.put_full(parent.clone()).unwrap();
    let unique_after_parent = store.unique_pages_bytes();

    // Round one: dirty a page, take a delta, re-baseline.
    let page_a = writable_page(&setup, 0);
    setup
        .kernel
        .process_mut(setup.pid)
        .unwrap()
        .mem
        .write_unchecked(page_a, b"round-1");
    let delta_1 = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        parent_id,
        &parent,
    )
    .unwrap();
    let id_1 = store.put_delta(delta_1).unwrap();
    mark_clean_after_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    let baseline_1 = store.materialize(id_1).unwrap();

    // Round two: another page, chained off the materialized first delta.
    let page_b = writable_page(&setup, 2);
    setup
        .kernel
        .process_mut(setup.pid)
        .unwrap()
        .mem
        .write_unchecked(page_b, b"round-2");
    let delta_2 = dump_incremental(
        &mut setup.kernel,
        &[setup.pid],
        &DumpOptions::default(),
        id_1,
        &baseline_1,
    )
    .unwrap();
    assert_eq!(delta_2.procs[0].dirty.pages, vec![page_b]);
    let id_2 = store.put_delta(delta_2).unwrap();

    // full → delta → delta resolves to exactly today's full dump.
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let materialized = store.materialize(id_2).unwrap();
    assert_eq!(materialized, full);
    assert_eq!(materialized.to_bytes(), full.to_bytes());

    // The store holds three entries, but each delta added only the one
    // page it dirtied to the bytes physically held.
    assert_eq!(store.len(), 3);
    assert!(store.unique_pages_bytes() <= unique_after_parent + 2 * PAGE_SIZE as usize);
}
