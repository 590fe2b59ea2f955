//! Restoring an untrusted checkpoint never panics the host: every
//! decodable image gives a running process or a typed error.
//!
//! The properties mutate the bytes of a checkpoint, overwriting some,
//! cutting it short or inserting or deleting a run of them, and drive
//! each result through `from_bytes`, `put_full`, `restore` and a slice
//! of guest time. The regression tests pin three images that used to
//! panic: a module base that is not page-aligned, one the module does
//! not fit below the top of the address space from, and a
//! retired-instruction count next to `u64::MAX`.

use dynacut_criu::{
    dump_many, CheckpointImage, CheckpointStore, CriuError, DumpOptions, ModuleRegistry,
};
use dynacut_isa::{Assembler, Insn, Reg, Width};
use dynacut_obj::{ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Pid, Sysno};
use proptest::prelude::*;
use std::sync::Arc;

/// `procs` copies of a guest that announces itself, then loops: a store
/// to its scratch page, a load back, a `getpid` and a jump.
fn checkpoint(procs: usize) -> (CheckpointImage, ModuleRegistry) {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, 1));
    asm.push(Insn::Syscall);
    asm.label("spin");
    asm.lea_ext(Reg::R1, "scratch", 0);
    asm.push(Insn::Addi(Reg::R2, 1));
    asm.push(Insn::St(Width::B8, Reg::R1, 0, Reg::R2));
    asm.push(Insn::Ld(Width::B4, Reg::R3, Reg::R1, 0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Getpid as u64));
    asm.push(Insn::Syscall);
    asm.jmp("spin");
    let mut builder = ModuleBuilder::new("fuzz_guest", ObjectKind::Executable);
    builder.text(asm.finish().expect("assemble"));
    builder.bss("scratch", PAGE_SIZE);
    builder.entry("_start");
    let exe = builder.link(&[]).expect("link");
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::new(exe.clone()));

    let mut kernel = Kernel::new();
    let spec = LoadSpec::exe_only(exe);
    let pids: Vec<Pid> = (0..procs)
        .map(|_| kernel.spawn(&spec).expect("spawn"))
        .collect();
    kernel.run_until_event(1, 1_000_000).expect("guest up");
    kernel.run_for(2_000);
    for &pid in &pids {
        kernel.freeze(pid).expect("freeze");
    }
    let image = dump_many(&mut kernel, &pids, &DumpOptions::default()).expect("dump");
    (image, registry)
}

/// Puts `image` in a fresh store and restores it into `kernel`.
fn restore(
    kernel: &mut Kernel,
    image: &CheckpointImage,
    registry: &ModuleRegistry,
) -> Result<Vec<Pid>, CriuError> {
    let mut store = CheckpointStore::new();
    let id = store.put_full(image)?;
    store.restore(kernel, id, registry)
}

/// Decodes `bytes`, then stores, restores and runs what decodes.
fn decode_restore_run(bytes: &[u8], registry: &ModuleRegistry) {
    if let Ok(image) = CheckpointImage::from_bytes(bytes) {
        let mut kernel = Kernel::new();
        if restore(&mut kernel, &image, registry).is_ok() {
            kernel.run_for(20_000);
        }
    }
}

/// Regression: a module base that is not page-aligned used to trip an
/// assertion in the loader; it is a typed error now.
#[test]
fn an_unaligned_module_base_is_a_typed_error() {
    let (mut image, registry) = checkpoint(1);
    image.procs[0].core.modules[0].base += 1;
    match restore(&mut Kernel::new(), &image, &registry) {
        Err(CriuError::BadImage(reason)) => assert!(reason.contains("fuzz_guest"), "{reason}"),
        other => panic!("expected BadImage, got {other:?}"),
    }
}

/// Regression: a module based in the top page of the address space used
/// to overflow the symbol addresses computed from its base.
#[test]
fn a_module_base_near_the_top_is_a_typed_error() {
    let (mut image, registry) = checkpoint(1);
    image.procs[0].core.modules[0].base = 0xFFFF_FFFF_FFFF_F000;
    assert!(matches!(
        restore(&mut Kernel::new(), &image, &registry),
        Err(CriuError::BadImage(_))
    ));
}

/// Regression: a restored retired-instruction count next to `u64::MAX`
/// used to overflow on the next instruction. The count saturates, the
/// same way with and without the block cache.
#[test]
fn a_retired_count_near_the_limit_saturates() {
    let (mut image, registry) = checkpoint(1);
    image.procs[0].core.insns_retired = u64::MAX - 3;
    let run = |cached: bool| {
        let mut kernel = Kernel::new();
        kernel.set_block_cache_enabled(cached);
        let pids = restore(&mut kernel, &image, &registry).expect("restore");
        kernel.run_for(20_000);
        assert_eq!(kernel.process(pids[0]).unwrap().insns_retired, u64::MAX);
        kernel.state_fingerprint()
    };
    assert_eq!(run(true), run(false));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Any one to three bytes of a checkpoint overwritten: decoding,
    /// storing, restoring and running the result each return `Ok` or a
    /// typed error, and never panic. Half the edits land in the first
    /// `HEAD_LEN` bytes, where the core, the VMAs and the pagemap are;
    /// the rest anywhere, page bytes included.
    #[test]
    fn a_mutated_checkpoint_never_panics_the_host(
        edits in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<u8>(), any::<bool>()),
            1..=3,
        )
    ) {
        let (image, registry) = CHECKPOINT.with(|checkpoint| checkpoint.clone());
        let mut bytes = image.to_bytes();
        for (at, byte, in_head) in edits {
            let at = at.index(if in_head { HEAD_LEN.min(bytes.len()) } else { bytes.len() });
            bytes[at] = byte;
        }
        decode_restore_run(&bytes, &registry);
    }

    /// A checkpoint of one process or of two, cut short at any byte, or
    /// with a run of 1 to 16 bytes inserted, deleted or overwritten: the
    /// same holds whether the edit changes the length or not. Half the
    /// edits start in the first `HEAD_LEN` bytes.
    #[test]
    fn a_resized_checkpoint_never_panics_the_host(
        two_procs in any::<bool>(),
        edit in 0u8..4,
        at in any::<proptest::sample::Index>(),
        in_head in any::<bool>(),
        run in proptest::collection::vec(any::<u8>(), 1..=16),
    ) {
        let checkpoint = if two_procs { &TWO_PROCS } else { &CHECKPOINT };
        let (image, registry) = checkpoint.with(|checkpoint| checkpoint.clone());
        let mut bytes = image.to_bytes();
        let at = at.index(if in_head { HEAD_LEN.min(bytes.len()) } else { bytes.len() });
        let end = bytes.len().min(at + run.len());
        match edit {
            0 => bytes.truncate(at),
            1 => drop(bytes.splice(at..at, run)),
            2 => drop(bytes.drain(at..end)),
            _ => bytes[at..end].copy_from_slice(&run[..end - at]),
        }
        decode_restore_run(&bytes, &registry);
    }
}

/// How many leading bytes of an encoded checkpoint hold its metadata.
const HEAD_LEN: usize = 2048;

thread_local! {
    /// The checkpoints every mutation starts from, built once per thread.
    static CHECKPOINT: (CheckpointImage, ModuleRegistry) = checkpoint(1);
    static TWO_PROCS: (CheckpointImage, ModuleRegistry) = checkpoint(2);
}
