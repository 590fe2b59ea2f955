//! Property tests for the content-addressed page store: dedup and
//! refcount bookkeeping over arbitrary intern/release interleavings,
//! and the fleet dedup claim at its smallest scale — two identical
//! processes checkpointed into one store.

use dynacut_criu::{
    dump_many, CheckpointStore, CriuError, DumpOptions, ModuleRegistry, PageStore, PagesImage,
    SharedPages,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Sysno};
use proptest::prelude::*;

/// Page payloads drawn from a tiny alphabet so random inputs actually
/// collide — the dedup paths are pointless to test on unique pages.
fn arb_pages() -> impl Strategy<Value = PagesImage> {
    proptest::collection::vec(0u8..4, 0..12).prop_map(|fills| {
        let mut bytes = Vec::with_capacity(fills.len() * PAGE_SIZE as usize);
        for fill in fills {
            bytes.extend(std::iter::repeat_n(fill, PAGE_SIZE as usize));
        }
        PagesImage { bytes }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interning any payload and materializing it back is bit-identical,
    /// and the store never holds more unique pages than the payload has
    /// distinct page contents.
    #[test]
    fn intern_materialize_round_trips_bit_identically(pages in arb_pages()) {
        let mut store = PageStore::new();
        let shared = SharedPages::intern(&mut store, &pages).unwrap();
        prop_assert_eq!(shared.pages_bytes(), pages.bytes.len());
        let back = shared.materialize(&store).expect("all pages present");
        prop_assert_eq!(&back.bytes, &pages.bytes);

        let mut distinct: Vec<&[u8]> = pages.bytes.chunks(PAGE_SIZE as usize).collect();
        distinct.sort();
        distinct.dedup();
        prop_assert_eq!(store.unique_pages(), distinct.len());
        prop_assert_eq!(store.logical_bytes(), pages.bytes.len());
        prop_assert!(store.dedup_ratio() >= 1.0);

        // Releasing the only reference empties the store.
        shared.release(&mut store).unwrap();
        prop_assert_eq!(store.unique_pages(), 0);
        prop_assert_eq!(store.logical_bytes(), 0);
    }

    /// Arbitrary interleavings of intern and release keep the refcount
    /// accounting exact: the logical footprint always equals the sum
    /// over live handles, every handle still materializes bit-identically
    /// however many twins were interned or released around it, and
    /// releasing the survivors drains the store to empty.
    #[test]
    fn refcounts_balance_over_arbitrary_interleavings(
        ops in proptest::collection::vec(
            (arb_pages(), any::<bool>(), any::<proptest::sample::Index>()),
            1..24,
        ),
    ) {
        let mut store = PageStore::new();
        let mut live: Vec<(SharedPages, PagesImage)> = Vec::new();
        for (pages, do_release, victim) in ops {
            let shared = SharedPages::intern(&mut store, &pages).unwrap();
            live.push((shared, pages));
            if do_release && !live.is_empty() {
                let (shared, _) = live.swap_remove(victim.index(live.len()));
                shared.release(&mut store).unwrap();
            }
            let logical: usize = live.iter().map(|(s, _)| s.pages_bytes()).sum();
            prop_assert_eq!(store.logical_bytes(), logical);
            for (shared, pages) in &live {
                let back = shared.materialize(&store).expect("live handle");
                prop_assert_eq!(&back.bytes, &pages.bytes);
            }
        }
        for (shared, _) in live.drain(..) {
            shared.release(&mut store).unwrap();
        }
        prop_assert_eq!(store.unique_pages(), 0);
        prop_assert_eq!(store.unique_bytes(), 0);
    }

    /// A handle whose pages were released out from under it reports the
    /// missing page instead of fabricating bytes — the store-level
    /// missing-parent analogue.
    #[test]
    fn materialize_after_release_errors_cleanly(pages in arb_pages()) {
        prop_assume!(!pages.bytes.is_empty());
        let mut store = PageStore::new();
        let shared = SharedPages::intern(&mut store, &pages).unwrap();
        shared.release(&mut store).unwrap();
        prop_assert!(matches!(
            shared.materialize(&store),
            Err(CriuError::Inconsistent(_))
        ));
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
    let id_a = store.put_full(&dump_many(&mut kernel, &[a], &DumpOptions::default()).unwrap()).unwrap();
    let unique_after_a = store.unique_pages_bytes();
    let id_b = store.put_full(&dump_many(&mut kernel, &[b], &DumpOptions::default()).unwrap()).unwrap();

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
