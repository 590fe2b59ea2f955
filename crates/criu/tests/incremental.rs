//! Incremental checkpointing: the dirty-page bitmap, the two-phase
//! pre-dump whose freeze copies only the dirty residue, and the flat
//! checkpoint store — exercised end to end on a live guest.
//!
//! The load-bearing properties throughout: a stored checkpoint
//! materializes **bit-identically** to the dump that was put, and a
//! checkpoint put after a guest wrote a few pages copies only those
//! pages into the store; the rest hash-hit the previous entry.

use dynacut_criu::{
    dump_many, mark_clean_after_dump, pre_dump, CheckpointImage, CheckpointStore, CkptId,
    CriuError, DumpOptions, ModuleRegistry, PreDumpStats,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, Perms, PAGE_SIZE};
use dynacut_vm::{DisplacedPage, EventKind, Kernel, LoadSpec, Pid, SharedFrame, Sysno};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
fn second_checkpoint_copies_only_written_pages_and_restores_bit_identically() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(&parent).unwrap();
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
    let dirty: Vec<u64> = setup
        .kernel
        .process(setup.pid)
        .unwrap()
        .mem
        .dirty_pages()
        .collect();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let copied_before = store.page_store().copied_bytes();
    let id = store.put_full(&full).unwrap();

    // The second entry shares every clean page with the first: it
    // copies at most the dirtied pages, and differs from the first in
    // some but not all of its pages.
    assert!(!dirty.is_empty(), "guest writes must show up");
    let copied = (store.page_store().copied_bytes() - copied_before) as usize;
    assert!(
        copied <= dirty.len() * PAGE_SIZE as usize,
        "copied {copied} bytes for {} dirty pages",
        dirty.len()
    );
    let changed = store.changed_pages_bytes(parent_id, id).unwrap();
    assert!(
        0 < changed && changed < full.pages_bytes(),
        "changed {changed} of {}",
        full.pages_bytes()
    );

    // It materializes to the exact image that was put — down to the
    // serialized byte stream.
    let materialized = store.materialize(id).unwrap();
    assert_eq!(materialized, full);
    assert_eq!(materialized.to_bytes(), full.to_bytes());

    // And restoring the entry yields a live, serving process.
    setup.kernel.remove_process(setup.pid).unwrap();
    store
        .restore(&mut setup.kernel, id, &setup.registry)
        .unwrap();
    let reply = setup
        .kernel
        .client_request(conn, b"again", 1_000_000)
        .unwrap();
    assert_eq!(reply, b"again");
}

#[test]
fn clean_process_stores_no_changed_page() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(&parent).unwrap();
    // Nothing ran since the sweep: dump → mark_clean → dump dirties
    // nothing, and the second entry shares every page with the first.
    let proc = setup.kernel.process(setup.pid).unwrap();
    assert_eq!(proc.mem.dirty_pages().count(), 0);
    let again = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let copied_before = store.page_store().copied_bytes();
    let id = store.put_full(&again).unwrap();
    assert_eq!(store.page_store().copied_bytes(), copied_before);
    assert_eq!(store.changed_pages_bytes(parent_id, id).unwrap(), 0);
    assert_eq!(store.materialize(id).unwrap().procs, parent.procs);
}

/// Ids are sequential and never reused; an id that was never stored, or
/// has been released, fails every read, restore and release with
/// `MissingParent` while the live entries stay intact.
#[test]
fn unknown_and_released_ids_fail_cleanly() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);

    let mut store = CheckpointStore::new();
    let ids: Vec<CkptId> = (0..3).map(|_| store.put_full(&parent).unwrap()).collect();
    assert_eq!(ids, [CkptId(0), CkptId(1), CkptId(2)]);
    store.release(CkptId(1)).unwrap();
    assert_eq!(store.len(), 2);
    assert_eq!(
        store.logical_pages_bytes(),
        store.stored_pages_bytes(),
        "the released entry's page refs went with it"
    );
    assert_eq!(store.stored_pages_bytes(), 2 * parent.pages_bytes());

    for missing in [CkptId(1), CkptId(7)] {
        let expect_missing = |result: Result<(), CriuError>| match result {
            Err(CriuError::MissingParent(id)) => assert_eq!(id, missing),
            other => panic!("expected MissingParent({missing}), got {other:?}"),
        };
        expect_missing(store.materialize(missing).map(drop));
        expect_missing(store.release(missing));
        expect_missing(store.changed_pages_bytes(CkptId(0), missing).map(drop));
        expect_missing(
            store
                .stage_restore(&setup.kernel, missing, &setup.registry)
                .map(drop),
        );
    }

    // The released id is not handed out again, and the survivors still
    // materialize.
    assert_eq!(store.put_full(&parent).unwrap(), CkptId(3));
    for id in [CkptId(0), CkptId(2), CkptId(3)] {
        assert_eq!(store.materialize(id).unwrap(), parent);
    }
}

/// The pre-dump moves every page out of the freeze while the guest
/// runs, and only the residue the guest writes afterwards counts as
/// frozen. It keeps no page of its own: on a process restored from the
/// store every page is already backed by the entry's frame, so the
/// pre-dump takes no handle on any of them, and the checkpoint holds the
/// entry's own frame for every page the guest has not written since.
#[test]
fn pre_dump_moves_clean_pages_before_the_freeze() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut store = CheckpointStore::new();
    let id = store.put_full(&baseline(&mut setup)).unwrap();
    setup.kernel.remove_process(setup.pid).unwrap();
    store
        .restore(&mut setup.kernel, id, &setup.registry)
        .unwrap();
    let mem = &setup.kernel.process(setup.pid).unwrap().mem;
    let frames: Vec<SharedFrame> = mem.page_frames().map(|(_, frame)| frame).collect();
    assert_eq!(
        mem.shared_page_count(),
        frames.len(),
        "every page restored shared"
    );
    let handles: Vec<usize> = frames.iter().map(SharedFrame::handle_count).collect();

    // Phase one runs against the live (unfrozen) process.
    let seq = setup.kernel.flight().next_seq();
    pre_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    let pre_dumped: Vec<u64> = setup
        .kernel
        .flight()
        .since(seq)
        .filter_map(|event| match event.kind {
            EventKind::ProcessPreDumped { page_bytes } => Some(page_bytes),
            _ => None,
        })
        .collect();
    assert_eq!(pre_dumped, [frames.len() as u64 * PAGE_SIZE]);
    for (frame, before) in frames.iter().zip(handles) {
        assert_eq!(frame.handle_count(), before, "the pre-dump holds no page");
    }

    // The guest keeps running and dirties a little residue.
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup.kernel.client_request(conn, b"go", 1_000_000).unwrap();
    assert_eq!(reply, b"go");

    setup.kernel.freeze(setup.pid).unwrap();
    let checkpoint = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let stats = PreDumpStats::of(&setup.kernel, &checkpoint).unwrap();

    // The dump is bit-identical to a second full dump taken at this
    // instant, but only the residue crossed the freeze window.
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    assert_eq!(checkpoint, full);
    let total = stats.frozen_page_bytes + stats.prewritten_page_bytes;
    assert_eq!(total, checkpoint.pages_bytes());
    assert!(stats.frozen_page_bytes > 0, "the residue is never empty");
    assert!(
        stats.frozen_page_bytes < total,
        "freeze window must shrink: frozen {} of {total}",
        stats.frozen_page_bytes
    );
    assert!(stats.prewritten_page_bytes > 0);
    let entry = store.materialize(id).unwrap();
    let mem = &setup.kernel.process(setup.pid).unwrap().mem;
    for (base, frame) in &checkpoint.procs[0].pages {
        let held = entry.procs[0].pages.get(base);
        let same_frame = held.is_some_and(|held| std::ptr::eq(held.bytes(), frame.bytes()));
        assert_eq!(same_frame, mem.page_shared(*base), "page {base:#x}");
    }
}

/// Scratch pages the freeze property changes: the BSS pages after the
/// echo server's buffer, which the guest never touches.
const SCRATCH: std::ops::Range<u64> = 1..4;

/// One change to a process between its pre-dump and its freeze.
#[derive(Debug, Clone)]
enum Step {
    /// A host write of `len` copies of `byte` at the start of a scratch
    /// page.
    Write { page: u64, byte: u8, len: usize },
    /// Drop a scratch page's contents.
    Drop { page: u64 },
    /// Unmap a scratch page and map a fresh one in its place.
    Remap { page: u64 },
    /// Make a scratch page read-only, or read-write again.
    Protect { page: u64, write: bool },
    /// Back a scratch page with a new frame of `byte`s, as a promotion
    /// does, and hold on to the slot it displaced.
    Replace { page: u64, byte: u8 },
    /// Put back the slot displaced last and still held.
    Undo,
    /// One echo request: the guest's own stores write its buffer.
    Serve { byte: u8 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (SCRATCH, any::<u8>(), 1usize..64).prop_map(|(page, byte, len)| Step::Write {
            page,
            byte,
            len
        }),
        SCRATCH.prop_map(|page| Step::Drop { page }),
        SCRATCH.prop_map(|page| Step::Remap { page }),
        (SCRATCH, any::<bool>()).prop_map(|(page, write)| Step::Protect { page, write }),
        (SCRATCH, any::<u8>()).prop_map(|(page, byte)| Step::Replace { page, byte }),
        Just(Step::Undo),
        any::<u8>().prop_map(|byte| Step::Serve { byte }),
    ]
}

/// A booted echo server whose scratch pages are populated, restored
/// from a checkpoint store first when `restored`, so that every page
/// starts shared. Returns it with the base of its BSS.
fn boot_scratch(restored: bool) -> (Setup, u64) {
    let mut setup = boot();
    let bss = writable_page(&setup, 0);
    let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
    for page in SCRATCH {
        mem.write_unchecked(bss + page * PAGE_SIZE, &[0xA0 | page as u8; 8]);
    }
    if restored {
        setup.kernel.freeze(setup.pid).unwrap();
        let mut store = CheckpointStore::new();
        let id = store.put_full(&baseline(&mut setup)).unwrap();
        setup.kernel.remove_process(setup.pid).unwrap();
        store
            .restore(&mut setup.kernel, id, &setup.registry)
            .unwrap();
    }
    (setup, bss)
}

fn apply_step(setup: &mut Setup, bss: u64, step: &Step, displaced: &mut Vec<DisplacedPage>) {
    if let Step::Serve { byte } = *step {
        let conn = setup.kernel.client_connect(8080).unwrap();
        let reply = setup
            .kernel
            .client_request(conn, &[byte; 8], 1_000_000)
            .unwrap();
        assert_eq!(reply, [byte; 8]);
        setup.kernel.client_close(conn).unwrap();
        return;
    }
    let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
    match *step {
        Step::Write { page, byte, len } => {
            mem.write_unchecked(bss + page * PAGE_SIZE, &vec![byte; len]);
        }
        Step::Drop { page } => mem.drop_page(bss + page * PAGE_SIZE),
        Step::Remap { page } => {
            let addr = bss + page * PAGE_SIZE;
            mem.unmap(addr, PAGE_SIZE).unwrap();
            mem.map(addr, PAGE_SIZE, Perms::RW, "recycled").unwrap();
        }
        Step::Protect { page, write } => {
            let perms = if write { Perms::RW } else { Perms::R };
            mem.protect(bss + page * PAGE_SIZE, PAGE_SIZE, perms)
                .unwrap();
        }
        Step::Replace { page, byte } => {
            let frame = SharedFrame::new(&[byte; PAGE_SIZE as usize]);
            displaced.push(mem.replace_page(bss + page * PAGE_SIZE, Some(frame)));
        }
        Step::Undo => {
            if let Some(page) = displaced.pop() {
                mem.restore_page(page);
            }
        }
        Step::Serve { .. } => unreachable!("served above"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The freeze copies no clean page. A process is pre-dumped, then
    /// written by the host and the guest, its pages dropped, remapped,
    /// protected, replaced and put back, then frozen and dumped. A twin
    /// kernel takes the same steps without the pre-dump. The dump's
    /// pages equal the twin's byte for byte; every clean page is the
    /// very frame its slot held right after the pre-dump, so the freeze
    /// handed it out without a copy; and the frozen bytes are exactly
    /// the dirty pages, the prewritten ones the rest.
    #[test]
    fn the_freeze_copies_no_clean_page(
        restored in any::<bool>(),
        steps in proptest::collection::vec(arb_step(), 0..16),
    ) {
        let (mut setup, bss) = boot_scratch(restored);
        let (mut twin, twin_bss) = boot_scratch(restored);
        prop_assert_eq!(bss, twin_bss);
        pre_dump(&mut setup.kernel, &[setup.pid]).unwrap();
        let pre_dumped: BTreeMap<u64, SharedFrame> = setup
            .kernel
            .process(setup.pid)
            .unwrap()
            .mem
            .page_frames()
            .collect();
        let (mut displaced, mut twin_displaced) = (Vec::new(), Vec::new());
        for step in &steps {
            apply_step(&mut setup, bss, step, &mut displaced);
            apply_step(&mut twin, bss, step, &mut twin_displaced);
        }
        setup.kernel.freeze(setup.pid).unwrap();
        twin.kernel.freeze(twin.pid).unwrap();
        let checkpoint =
            dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
        let reference = dump_many(&mut twin.kernel, &[twin.pid], &DumpOptions::default()).unwrap();

        let (pages, twin_pages) = (&checkpoint.procs[0].pages, &reference.procs[0].pages);
        prop_assert_eq!(
            pages.keys().collect::<Vec<_>>(),
            twin_pages.keys().collect::<Vec<_>>()
        );
        for ((base, frame), twin_frame) in pages.iter().zip(twin_pages.values()) {
            prop_assert!(frame.bytes() == twin_frame.bytes(), "page {:#x} differs", base);
        }

        let mem = &setup.kernel.process(setup.pid).unwrap().mem;
        let mut dirty_bytes = 0;
        for (base, frame) in pages {
            if mem.page_dirty(*base) {
                dirty_bytes += PAGE_SIZE as usize;
            } else {
                prop_assert_eq!(
                    pre_dumped.get(base).map(SharedFrame::addr),
                    Some(frame.addr()),
                    "clean page {:#x} is not the frame the pre-dump left",
                    base
                );
            }
        }
        let stats = PreDumpStats::of(&setup.kernel, &checkpoint).unwrap();
        prop_assert_eq!(
            stats.frozen_page_bytes + stats.prewritten_page_bytes,
            checkpoint.pages_bytes()
        );
        prop_assert_eq!(stats.frozen_page_bytes, dirty_bytes);
    }
}

#[test]
fn each_checkpoint_adds_only_its_dirtied_pages() {
    let mut setup = boot();
    let mut store = CheckpointStore::new();

    setup.kernel.freeze(setup.pid).unwrap();
    let parent = baseline(&mut setup);
    let parent_id = store.put_full(&parent).unwrap();
    let unique_after_parent = store.unique_pages_bytes();

    // Round one: dirty a page, checkpoint, re-baseline.
    let page_a = writable_page(&setup, 0);
    setup
        .kernel
        .process_mut(setup.pid)
        .unwrap()
        .mem
        .write_unchecked(page_a, b"round-1");
    let round_1 = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let id_1 = store.put_full(&round_1).unwrap();
    mark_clean_after_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    assert_eq!(
        store.changed_pages_bytes(parent_id, id_1).unwrap(),
        PAGE_SIZE as usize
    );

    // Round two: another page; the bitmap flags exactly that page.
    let page_b = writable_page(&setup, 2);
    setup
        .kernel
        .process_mut(setup.pid)
        .unwrap()
        .mem
        .write_unchecked(page_b, b"round-2");
    let dirty: Vec<u64> = setup
        .kernel
        .process(setup.pid)
        .unwrap()
        .mem
        .dirty_pages()
        .collect();
    assert_eq!(dirty, vec![page_b]);
    let round_2 = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let id_2 = store.put_full(&round_2).unwrap();
    assert_eq!(
        store.changed_pages_bytes(id_1, id_2).unwrap(),
        PAGE_SIZE as usize
    );

    // Each entry materializes to exactly the dump that was put.
    let materialized = store.materialize(id_2).unwrap();
    assert_eq!(materialized, round_2);
    assert_eq!(materialized.to_bytes(), round_2.to_bytes());
    assert_eq!(store.materialize(id_1).unwrap(), round_1);

    // The store holds three entries, but each later one added only the
    // page it dirtied to the bytes physically held.
    assert_eq!(store.len(), 3);
    assert!(store.unique_pages_bytes() <= unique_after_parent + 2 * PAGE_SIZE as usize);
}
