//! Property tests for the content-addressed page store: dedup and
//! refcount bookkeeping over arbitrary `put_full`/`release`
//! interleavings, with pages that share frame handles, and the fleet
//! dedup claim at its smallest scale — two identical processes
//! checkpointed into one store.

use dynacut_criu::{
    dump_many, CheckpointImage, CheckpointStore, CkptId, CriuError, DumpOptions, ModuleRegistry,
    PageKey,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Sysno};
use proptest::prelude::*;
use std::collections::BTreeSet;

mod common;
mod shared_frames;

/// One-process checkpoints whose pages are drawn from a tiny alphabet so
/// random inputs actually collide — the dedup paths are pointless to
/// test on unique pages.
fn arb_checkpoint() -> impl Strategy<Value = CheckpointImage> {
    proptest::collection::vec(0u8..4, 0..12).prop_map(|fills| CheckpointImage {
        procs: vec![common::image_with_pages(
            (common::VMA_START..).step_by(PAGE_SIZE as usize).zip(fills),
        )],
        time_ns: 0,
    })
}

/// The key of a page filled with `fill`.
fn key_of(fill: u8) -> PageKey {
    PageKey::of(&[fill; PAGE_SIZE as usize])
}

/// The page contents of a checkpoint, page by page, in address order.
fn page_bytes(image: &CheckpointImage) -> Vec<Vec<u8>> {
    image.procs[0]
        .pages
        .values()
        .map(|frame| frame.bytes().to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Putting any checkpoint and materializing it back is bit-identical,
    /// and the store never holds more unique pages than the checkpoint
    /// has distinct page contents.
    #[test]
    fn put_full_materialize_round_trips_bit_identically(image in arb_checkpoint()) {
        let mut store = CheckpointStore::new();
        let id = store.put_full(&image).unwrap();
        prop_assert_eq!(store.stored_pages_bytes(), image.pages_bytes());
        let back = store.materialize(id).expect("live entry");
        prop_assert_eq!(page_bytes(&back), page_bytes(&image));
        prop_assert_eq!(&back, &image);

        let mut distinct = page_bytes(&image);
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(store.page_store().unique_pages(), distinct.len());
        prop_assert_eq!(store.logical_pages_bytes(), image.pages_bytes());
        prop_assert!(store.dedup_ratio() >= 1.0);

        // Releasing the only entry empties the store.
        store.release(id).unwrap();
        prop_assert_eq!(store.page_store().unique_pages(), 0);
        prop_assert_eq!(store.logical_pages_bytes(), 0);
    }

    /// Arbitrary interleavings of put and release keep the refcount
    /// accounting exact: the logical footprint always equals the sum
    /// over live entries, every entry still materializes bit-identically
    /// however many twins were put or released around it, and releasing
    /// the survivors drains the store to empty. The pages of a put share
    /// frame handles, within the image and with the store's own frames
    /// out of live entries, and still each take one reference: every
    /// content holds one per page of it in a live entry, and a put copies
    /// exactly the contents the store did not hold.
    #[test]
    fn refcounts_balance_over_arbitrary_interleavings(
        ops in proptest::collection::vec(
            (shared_frames::arb_recipe(12), any::<bool>(), any::<proptest::sample::Index>()),
            1..24,
        ),
    ) {
        let mut store = CheckpointStore::new();
        let mut live: Vec<(CkptId, CheckpointImage)> = Vec::new();
        for (recipe, do_release, victim) in ops {
            let image = shared_frames::build(&recipe, &store, live.iter().map(|(id, _)| *id));
            let new: BTreeSet<u8> = recipe
                .iter()
                .map(|&(fill, _)| fill)
                .filter(|&fill| store.page_store().refs(key_of(fill)) == 0)
                .collect();
            let copied_before = store.page_store().copied_bytes();
            let id = store.put_full(&image).unwrap();
            prop_assert_eq!(
                store.page_store().copied_bytes() - copied_before,
                new.len() as u64 * PAGE_SIZE
            );
            live.push((id, image));
            if do_release && !live.is_empty() {
                let (id, _) = live.swap_remove(victim.index(live.len()));
                store.release(id).unwrap();
            }
            let logical: usize = live.iter().map(|(_, image)| image.pages_bytes()).sum();
            prop_assert_eq!(store.logical_pages_bytes(), logical);
            prop_assert_eq!(store.stored_pages_bytes(), logical);
            for (id, image) in &live {
                let back = store.materialize(*id).expect("live entry");
                prop_assert_eq!(page_bytes(&back), page_bytes(image));
            }
            for fill in 0..4 {
                let pages = live
                    .iter()
                    .flat_map(|(_, image)| image.procs[0].pages.values())
                    .filter(|frame| frame.bytes()[0] == fill)
                    .count();
                prop_assert_eq!(store.page_store().refs(key_of(fill)), pages as u64);
            }
        }
        for (id, _) in live.drain(..) {
            store.release(id).unwrap();
        }
        prop_assert_eq!(store.page_store().unique_pages(), 0);
        prop_assert_eq!(store.unique_pages_bytes(), 0);
    }

    /// A released entry is gone: materializing it fails with
    /// `MissingParent` instead of fabricating pages, and it holds no page
    /// reference any more.
    #[test]
    fn materialize_after_release_errors_cleanly(image in arb_checkpoint()) {
        let mut store = CheckpointStore::new();
        let id = store.put_full(&image).unwrap();
        store.release(id).unwrap();
        prop_assert!(matches!(store.materialize(id), Err(CriuError::MissingParent(_))));
        prop_assert_eq!(store.logical_pages_bytes(), 0);
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

/// Two identical processes checkpointed into one store share every page:
/// the fleet dedup claim at its smallest scale, plus the refcount
/// lifecycle across a release.
#[test]
fn identical_processes_share_pages_and_release_drops_refs() {
    let exe = echo_server();
    let mut registry = ModuleRegistry::new();
    registry.insert(std::sync::Arc::new(exe.clone()));
    let mut kernel = Kernel::new();
    let spec = LoadSpec::exe_only(exe);
    let a = kernel.spawn(&spec).unwrap();
    kernel.run_until_event(1, 10_000_000).expect("first up");
    let b = kernel.spawn(&spec).unwrap();
    kernel.run_until_event(1, 10_000_000).expect("second up");

    kernel.freeze(a).unwrap();
    kernel.freeze(b).unwrap();
    let mut store = CheckpointStore::new();
    let id_a = store
        .put_full(&dump_many(&mut kernel, &[a], &DumpOptions::default()).unwrap())
        .unwrap();
    let unique_after_a = store.unique_pages_bytes();
    let id_b = store
        .put_full(&dump_many(&mut kernel, &[b], &DumpOptions::default()).unwrap())
        .unwrap();

    // The second replica's pages were already present: the unique
    // footprint barely moves while the logical footprint doubles.
    assert!(store.unique_pages_bytes() <= unique_after_a + 2 * PAGE_SIZE as usize);
    assert!(store.dedup_ratio() > 1.5, "ratio {}", store.dedup_ratio());
    let logical = store.logical_pages_bytes();
    assert_eq!(
        store.shared_pages_bytes(),
        logical - store.unique_pages_bytes()
    );

    // Releasing one checkpoint halves the logical footprint but keeps
    // every page the survivor still references materializable.
    store.release(id_a).unwrap();
    assert!(store.logical_pages_bytes() < logical);
    assert!(store.materialize(id_b).is_ok());
    assert!(matches!(
        store.materialize(id_a),
        Err(CriuError::MissingParent(_))
    ));
    store.release(id_b).unwrap();
    assert_eq!(store.unique_pages_bytes(), 0);
}
