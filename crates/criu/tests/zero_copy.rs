//! The zero-copy restore battery (DESIGN §12): arbitrary
//! put / restore-via-frames / guest-write-CoW / release interleavings
//! must keep the PageStore's refcounts exact and every page
//! bit-identical to a byte-exact model of the checkpoint put; live
//! guests restored through `CheckpointStore::restore` must re-dump to
//! exactly what the store materializes, sharing the entry's frames for
//! every page they have not written, take CoW faults only on first
//! write, and never write through a shared frame into a sibling replica
//! or the store.

use std::collections::{BTreeMap, BTreeSet};

use dynacut_criu::{
    dump_many, mark_clean_after_dump, CheckpointImage, CheckpointStore, CkptId, CriuError,
    DumpOptions, ModuleRegistry,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, Perms, PAGE_SIZE};
use dynacut_vm::{AddressSpace, Kernel, LoadSpec, Pid, Sysno};
use proptest::prelude::*;
use proptest::sample::Index;

mod common;
mod shared_frames;

use shared_frames::Recipe;

// ----- property tests over put/restore/CoW/release interleavings --------

/// One step of the interleaving the zero-copy restore must survive.
#[derive(Debug, Clone)]
enum Op {
    /// Put a checkpoint into the store (takes store refs). Its pages
    /// share frame handles, within the image and with the store's own
    /// frames out of live entries.
    Put(Recipe),
    /// Restore a live entry into a fresh address space by installing the
    /// entry's frames — the zero-copy path; takes **no** store refs.
    Restore(Index),
    /// Guest write into a restored space: first touch per page CoWs.
    GuestWrite { space: Index, page: Index, fill: u8 },
    /// Tear a replica down (drops its frame handles).
    DropSpace(Index),
    /// Release an entry's store refs.
    Release(Index),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        shared_frames::arb_recipe(8).prop_map(Op::Put),
        any::<Index>().prop_map(Op::Restore),
        (any::<Index>(), any::<Index>(), any::<u8>())
            .prop_map(|(space, page, fill)| Op::GuestWrite { space, page, fill }),
        any::<Index>().prop_map(Op::DropSpace),
        any::<Index>().prop_map(Op::Release),
    ]
}

/// A restored replica plus the byte-exact model of its pages: the
/// checkpoint that was put, updated by every guest write.
struct Replica {
    space: AddressSpace,
    /// page base → expected bytes (updated on guest writes).
    model: BTreeMap<u64, Vec<u8>>,
    /// pages the model says have taken a CoW fault.
    privatised: BTreeSet<u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The zero-copy restore's core safety argument, stated as a
    /// property: however put / restore-via-frames / guest-write-CoW /
    /// drop / release interleave, (1) the store's refcounts are exactly
    /// the live entries — mapping frames into guests never moves them,
    /// (2) every restored page reads back bit-identical to the model,
    /// before and after CoW, and (3) CoW faults happen exactly once per
    /// written page.
    #[test]
    fn interleavings_keep_refcounts_exact_and_bytes_identical(
        ops in proptest::collection::vec(arb_op(), 1..32),
    ) {
        let mut store = CheckpointStore::new();
        let mut entries: Vec<(CkptId, CheckpointImage)> = Vec::new();
        let mut replicas: Vec<Replica> = Vec::new();

        for op in ops {
            match op {
                Op::Put(recipe) => {
                    let image = shared_frames::build(
                        &recipe,
                        &store,
                        entries.iter().map(|(id, _)| *id),
                    );
                    let id = store.put_full(&image).unwrap();
                    entries.push((id, image));
                }
                Op::Restore(which) => {
                    if entries.is_empty() {
                        continue;
                    }
                    let (id, image) = &entries[which.index(entries.len())];
                    let mut space = AddressSpace::new();
                    let stored = store.materialize(*id).expect("live entry");
                    for (&base, frame) in &stored.procs[0].pages {
                        space.install_shared_page(base, frame.clone());
                    }
                    let model = image.procs[0]
                        .pages
                        .iter()
                        .map(|(&base, frame)| (base, frame.bytes().to_vec()))
                        .collect();
                    replicas.push(Replica { space, model, privatised: BTreeSet::new() });
                }
                Op::GuestWrite { space, page, fill } => {
                    if replicas.is_empty() {
                        continue;
                    }
                    let chosen = space.index(replicas.len());
                    let replica = &mut replicas[chosen];
                    if replica.model.is_empty() {
                        continue;
                    }
                    let bases: Vec<u64> = replica.model.keys().copied().collect();
                    let base = bases[page.index(bases.len())];
                    // Scribble a short run mid-page, like a guest would.
                    let offset = 7u64.min(PAGE_SIZE - 16);
                    replica.space.write_unchecked(base + offset, &[fill; 16]);
                    let expect = replica.model.get_mut(&base).expect("modelled page");
                    expect[offset as usize..offset as usize + 16].fill(fill);
                    replica.privatised.insert(base);
                }
                Op::DropSpace(which) => {
                    if replicas.is_empty() {
                        continue;
                    }
                    replicas.swap_remove(which.index(replicas.len()));
                }
                Op::Release(which) => {
                    if entries.is_empty() {
                        continue;
                    }
                    let (id, _) = entries.swap_remove(which.index(entries.len()));
                    store.release(id).unwrap();
                }
            }

            // (1) Refcount exactness: the store's logical footprint is
            // the sum over live entries and nothing else — restores,
            // CoW faults and teardowns never move it.
            let logical: usize = entries.iter().map(|(_, image)| image.pages_bytes()).sum();
            prop_assert_eq!(store.logical_pages_bytes(), logical);

            // (2) Byte identity with the model, per replica.
            for replica in &replicas {
                let actual: BTreeMap<u64, Vec<u8>> = replica
                    .space
                    .populated_pages()
                    .map(|(base, bytes)| (base, bytes.to_vec()))
                    .collect();
                prop_assert_eq!(&actual, &replica.model);
                // (3) Exactly one CoW fault per written page; untouched
                // pages stay on their shared frames.
                prop_assert_eq!(
                    replica.space.cow_fault_count(),
                    replica.privatised.len() as u64
                );
                for &base in replica.model.keys() {
                    prop_assert_eq!(
                        replica.space.page_shared(base),
                        !replica.privatised.contains(&base)
                    );
                }
            }
        }

        // Releasing every entry empties the store even while replicas
        // still hold frames: mapped guests never pin store entries, only
        // the frames themselves.
        for (id, _) in entries.drain(..) {
            store.release(id).unwrap();
        }
        prop_assert_eq!(store.page_store().unique_pages(), 0);
        prop_assert_eq!(store.logical_pages_bytes(), 0);
        for replica in &replicas {
            let actual: BTreeMap<u64, Vec<u8>> = replica
                .space
                .populated_pages()
                .map(|(base, bytes)| (base, bytes.to_vec()))
                .collect();
            prop_assert_eq!(&actual, &replica.model);
        }
    }
}

// ----- live-guest regressions -------------------------------------------

/// The echo server from the incremental tests: a multi-page BSS scratch
/// area makes guest writes dirty a predictable handful of pages.
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

/// Base of the first restored page still backed by a shared frame —
/// the target for host-side patches that must arrive as CoW faults.
fn first_shared_page(kernel: &Kernel, pid: Pid) -> u64 {
    let mem = &kernel.process(pid).unwrap().mem;
    mem.populated_pages()
        .map(|(base, _)| base)
        .find(|&base| mem.page_shared(base))
        .expect("restored process has shared pages")
}

/// Base of the echo server's four-page BSS scratch area.
fn bss_base(kernel: &Kernel, pid: Pid) -> u64 {
    kernel
        .process(pid)
        .unwrap()
        .mem
        .vmas()
        .iter()
        .find(|v| v.perms.write && v.end - v.start >= 4 * PAGE_SIZE)
        .expect("bss vma")
        .start
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

/// The round-trip reference for every restore: freezing the restored
/// processes and dumping them again gives back exactly the image the
/// store materializes for `id`. The processes are thawed (and their
/// connections taken out of repair mode) afterwards.
fn assert_round_trip(kernel: &mut Kernel, pids: &[Pid], store: &CheckpointStore, id: CkptId) {
    for &pid in pids {
        kernel.freeze(pid).unwrap();
    }
    let redump = dump_many(kernel, pids, &DumpOptions::default()).unwrap();
    assert_eq!(
        redump,
        store.materialize(id).unwrap(),
        "re-dumping the restored processes reproduces the checkpoint"
    );
    for &pid in pids {
        kernel.thaw(pid).unwrap();
        let ids = kernel.conn_ids_of(pid).unwrap();
        kernel.unrepair_connections(&ids);
    }
}

/// `CheckpointStore::restore` is guest-invisible — the restored process
/// re-dumps to exactly the stored checkpoint — copies zero page bytes
/// itself and leaves the store's refcounts untouched; the replica still
/// serves, its first writes arriving as CoW faults.
#[test]
fn store_restore_round_trips_without_copying() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();

    let mut store = CheckpointStore::new();
    let id = store.put_full(&full).unwrap();

    // No page bytes move, no store refs move.
    let copied_before = store.page_store().copied_bytes();
    let logical_before = store.logical_pages_bytes();
    setup.kernel.remove_process(setup.pid).unwrap();
    store
        .restore(&mut setup.kernel, id, &setup.registry)
        .unwrap();
    assert_eq!(
        store.page_store().copied_bytes(),
        copied_before,
        "the restore itself copied zero page bytes"
    );
    assert_eq!(
        store.logical_pages_bytes(),
        logical_before,
        "handing out frames takes no store refs"
    );
    let proc = setup.kernel.process(setup.pid).unwrap();
    assert!(
        proc.mem.shared_page_count() > 0,
        "restored pages are backed by shared frames"
    );
    assert_eq!(proc.mem.cow_fault_count(), 0, "no write yet, no CoW yet");
    assert_round_trip(&mut setup.kernel, &[setup.pid], &store, id);

    // The replica serves (restore left it runnable)...
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup
        .kernel
        .client_request(conn, b"still-here", 1_000_000)
        .unwrap();
    assert_eq!(reply, b"still-here");

    // A later dump hands back the entry's own frame for every page the
    // guest has not written since the restore, and a copy of each page
    // it wrote.
    setup.kernel.freeze(setup.pid).unwrap();
    let redump = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let entry = store.materialize(id).unwrap();
    let mem = &setup.kernel.process(setup.pid).unwrap().mem;
    let mut written = 0;
    for (base, frame) in &redump.procs[0].pages {
        let held = entry.procs[0].pages.get(base);
        let same_frame = held.is_some_and(|held| std::ptr::eq(held.bytes(), frame.bytes()));
        assert_eq!(same_frame, mem.page_shared(*base), "page {base:#x}");
        written += usize::from(!same_frame);
    }
    assert!(
        0 < written && written < redump.procs[0].pages.len(),
        "serving wrote {written} of {} pages",
        redump.procs[0].pages.len()
    );
    setup.kernel.thaw(setup.pid).unwrap();
    let ids = setup.kernel.conn_ids_of(setup.pid).unwrap();
    setup.kernel.unrepair_connections(&ids);

    // ...and a host-side patch to a restored page — how the rewriter
    // edits a replica — arrives as exactly one CoW fault.
    let target = first_shared_page(&setup.kernel, setup.pid);
    let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
    let faults_before = mem.cow_fault_count();
    mem.write_unchecked(target, &[0xAB; 8]);
    assert_eq!(mem.cow_fault_count(), faults_before + 1);
    assert!(!mem.page_shared(target), "the patch privatised the page");
}

/// Two kernels restored from one store share frames; one diverging via
/// CoW never leaks into the other, and the store still materializes the
/// original checkpoint bit-for-bit afterwards.
#[test]
fn cow_divergence_is_invisible_to_sibling_replicas_and_the_store() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let mut store = CheckpointStore::new();
    let id = store.put_full(&full).unwrap();

    // Two fresh kernels, both restored zero-copy from the same store:
    // their frames alias, their guest state is identical.
    let mut kernel_a = Kernel::new();
    store.restore(&mut kernel_a, id, &setup.registry).unwrap();
    let mut kernel_b = Kernel::new();
    store.restore(&mut kernel_b, id, &setup.registry).unwrap();
    assert_eq!(
        kernel_a.state_fingerprint(),
        kernel_b.state_fingerprint(),
        "both replicas restore to identical guest state"
    );

    // Patch A on a shared page; B and the store must not move.
    let fingerprint_b = kernel_b.state_fingerprint();
    let target = first_shared_page(&kernel_a, setup.pid);
    {
        let mem = &mut kernel_a.process_mut(setup.pid).unwrap().mem;
        mem.write_unchecked(target, &[0x5A; 8]);
    }
    let proc_a = kernel_a.process(setup.pid).unwrap();
    assert_eq!(proc_a.mem.cow_fault_count(), 1, "A diverged via CoW");
    let mut patched = [0u8; 8];
    proc_a.mem.read_unchecked(target, &mut patched);
    assert_eq!(patched, [0x5A; 8]);

    let proc_b = kernel_b.process(setup.pid).unwrap();
    assert_eq!(proc_b.mem.cow_fault_count(), 0, "B never faulted");
    assert_eq!(
        kernel_b.state_fingerprint(),
        fingerprint_b,
        "A's writes are invisible to B"
    );
    assert_eq!(
        store.materialize(id).unwrap(),
        full,
        "the store's frames are immutable: the checkpoint still \
         materializes bit-for-bit after A diverged"
    );
}

/// A checkpoint put after an unmap-remap window — one page unmapped for
/// good, one unmapped, remapped fresh and rewritten — materializes to
/// exactly the dump that was put, copies only the rewritten page into
/// the store, and restores zero-copy to a process that re-dumps to the
/// same image.
#[test]
fn unmap_and_remap_between_checkpoints_store_and_restore_exactly() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let bss = bss_base(&setup.kernel, setup.pid);
    let (gone, recycled) = (bss, bss + PAGE_SIZE);
    {
        let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
        mem.write_unchecked(gone, &[0x11; 16]);
        mem.write_unchecked(recycled, &[0x22; 16]);
    }
    let parent = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    mark_clean_after_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    assert!(parent.procs[0].pages.contains_key(&gone));
    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(&parent).unwrap();

    {
        let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
        mem.unmap(gone, PAGE_SIZE).unwrap();
        mem.unmap(recycled, PAGE_SIZE).unwrap();
        mem.map(recycled, PAGE_SIZE, Perms::RW, "recycled").unwrap();
        mem.write_unchecked(recycled, &[0x33; 16]);
        assert_eq!(mem.dirty_pages().collect::<Vec<_>>(), vec![recycled]);
    }
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let copied_before = store.page_store().copied_bytes();
    let id = store.put_full(&full).unwrap();
    assert_eq!(
        store.page_store().copied_bytes() - copied_before,
        PAGE_SIZE,
        "only the rewritten page is new to the store"
    );
    assert_eq!(
        store.changed_pages_bytes(parent_id, id).unwrap(),
        PAGE_SIZE as usize
    );

    // The vanished page is gone from the entry; the recycled page
    // carries the post-remap contents, not the parent's.
    let materialized = store.materialize(id).unwrap();
    assert_eq!(materialized, full);
    assert_eq!(materialized.to_bytes(), full.to_bytes());
    let image = &materialized.procs[0];
    assert!(!image.pages.contains_key(&gone));
    assert_eq!(&image.pages[&recycled].bytes()[..16], &[0x33; 16]);

    let copied_before = store.page_store().copied_bytes();
    setup.kernel.remove_process(setup.pid).unwrap();
    store
        .restore(&mut setup.kernel, id, &setup.registry)
        .unwrap();
    assert_eq!(store.page_store().copied_bytes(), copied_before);
    assert_round_trip(&mut setup.kernel, &[setup.pid], &store, id);
    let mem = &setup.kernel.process(setup.pid).unwrap().mem;
    assert!(!mem.page_present(gone), "unmapped page stayed gone");
    let mut back = [0u8; 16];
    mem.read_unchecked(recycled, &mut back);
    assert_eq!(back, [0x33; 16], "the recycled page holds its new contents");
}

/// Store entries are flat: releasing an earlier entry leaves a later one
/// whole, even when every clean page of the later one hash-hit the
/// earlier one's. It still materializes to the dump that was put and
/// restores zero-copy from its own page references.
#[test]
fn entry_outlives_the_release_of_an_earlier_one() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let parent = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    mark_clean_after_dump(&mut setup.kernel, &[setup.pid]).unwrap();
    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(&parent).unwrap();

    let bss = bss_base(&setup.kernel, setup.pid);
    let mem = &mut setup.kernel.process_mut(setup.pid).unwrap().mem;
    mem.write_unchecked(bss, &[0x55; 16]);
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let id = store.put_full(&full).unwrap();
    store.release(parent_id).unwrap();

    assert_eq!(
        store.materialize(id).unwrap(),
        full,
        "the later entry materializes without the earlier one"
    );
    assert_eq!(
        store.logical_pages_bytes(),
        full.pages_bytes(),
        "the later entry holds one ref per page, the earlier one none"
    );
    let copied_before = store.page_store().copied_bytes();
    setup.kernel.remove_process(setup.pid).unwrap();
    store
        .restore(&mut setup.kernel, id, &setup.registry)
        .unwrap();
    assert_eq!(
        store.page_store().copied_bytes(),
        copied_before,
        "the restore copied zero page bytes"
    );
    assert_round_trip(&mut setup.kernel, &[setup.pid], &store, id);
}

/// Putting a checkpoint the store already holds copies nothing, and
/// staging a restore from the new entry takes no store reference and
/// copies no byte; the committed restore serves.
#[test]
fn repeat_put_copies_nothing_and_staging_is_refcount_neutral() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let mut store = CheckpointStore::new();
    store.put_full(&full).unwrap();

    let copied_before = store.page_store().copied_bytes();
    let logical_before = store.page_store().logical_bytes();
    let unique_before = store.page_store().unique_pages();
    let id = store.put_full(&full).unwrap();
    assert_eq!(
        store.page_store().copied_bytes(),
        copied_before,
        "every page hash-hit the first entry: zero bytes copied"
    );
    assert_eq!(
        store.page_store().logical_bytes(),
        logical_before + full.pages_bytes(),
        "the new entry takes one ref per page"
    );
    assert_eq!(store.page_store().unique_pages(), unique_before);

    let logical_before = store.page_store().logical_bytes();
    let txn = store
        .stage_restore(&setup.kernel, id, &setup.registry)
        .unwrap();
    assert_eq!(store.page_store().copied_bytes(), copied_before);
    assert_eq!(store.page_store().logical_bytes(), logical_before);
    assert_eq!(store.page_store().unique_pages(), unique_before);

    setup.kernel.remove_process(setup.pid).unwrap();
    txn.commit(&mut setup.kernel).unwrap();
    let conn = setup.kernel.client_connect(8080).unwrap();
    let reply = setup
        .kernel
        .client_request(conn, b"warm", 1_000_000)
        .unwrap();
    assert_eq!(reply, b"warm");
}

/// Restoring a released checkpoint fails cleanly with `MissingParent`
/// and leaves the kernel untouched.
#[test]
fn restore_after_release_fails_without_touching_the_kernel() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let mut store = CheckpointStore::new();
    let id = store.put_full(&full).unwrap();
    store.release(id).unwrap();

    let before = setup.kernel.state_fingerprint();
    let err = store
        .restore(&mut setup.kernel, id, &setup.registry)
        .unwrap_err();
    assert!(matches!(err, CriuError::MissingParent(_)), "got {err}");
    assert_eq!(setup.kernel.state_fingerprint(), before);
}

/// Regression: an in-memory image with a page base 8 bytes past a page
/// boundary used to be stored, and a restore then landed its frame on
/// the page below. The store now refuses it at put time, taking no page
/// refs.
#[test]
fn put_full_rejects_an_unaligned_page_base() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let pages = &mut full.procs[0].pages;
    let (base, frame) = pages.pop_last().expect("populated pages");
    pages.insert(base + 8, frame);

    let mut store = CheckpointStore::new();
    let err = store.put_full(&full).unwrap_err();
    assert!(matches!(err, CriuError::BadImage(_)), "got {err}");
    assert!(store.is_empty(), "nothing was stored");
    assert_eq!(store.logical_pages_bytes(), 0, "no page ref was taken");
    assert_eq!(store.page_store().unique_pages(), 0);
}

/// Regression: an image whose VMA ends before it starts survives the
/// codec round trip and used to be stored; the next restore then
/// panicked the host (debug) or failed with a misleading mmap error
/// (release). The store now refuses it at put time, taking no page refs.
#[test]
fn put_full_rejects_an_inverted_vma() {
    let mut setup = boot();
    setup.kernel.freeze(setup.pid).unwrap();
    let mut full = dump_many(&mut setup.kernel, &[setup.pid], &DumpOptions::default()).unwrap();
    let vma = &mut full.procs[0].mm.vmas[0];
    std::mem::swap(&mut vma.start, &mut vma.end);
    let full = CheckpointImage::from_bytes(&full.to_bytes()).expect("the codec carries it");

    let mut store = CheckpointStore::new();
    let err = store.put_full(&full).unwrap_err();
    assert!(matches!(err, CriuError::BadImage(_)), "got {err}");
    assert!(store.is_empty(), "nothing was stored");
    assert_eq!(store.logical_pages_bytes(), 0, "no page ref was taken");
    assert_eq!(store.page_store().unique_pages(), 0);
}
