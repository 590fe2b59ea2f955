//! Staged-restore transaction tests at the checkpoint layer: a commit
//! that fails partway through a multi-process swap must re-insert every
//! already-swapped original, and an explicit [`CommittedRestore::undo`]
//! must revert a successful commit bit-exactly. Every restore is staged
//! from a store entry ([`CheckpointStore::stage_restore`]). Only built
//! with `--features fault-injection` (the failures are injected).
#![cfg(feature = "fault-injection")]

use dynacut_criu::{dump_many, CheckpointStore, CriuError, DumpOptions, ModuleRegistry};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_vm::fault::{self, FaultPhase};
use dynacut_vm::{Kernel, LoadSpec, Pid, ProcState, Sysno};
use std::sync::Arc;

/// A minimal echo server bound to `port`, replying `reply` to anything.
fn echo_server(name: &str, port: u16, reply: &[u8]) -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Socket as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Bind as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R2, u64::from(port)));
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
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "msg", 0);
    asm.push(Insn::Movi(Reg::R3, reply.len() as u64));
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");

    let mut builder = ModuleBuilder::new(name, ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.bss("buf", 64);
    builder.rodata("msg", reply);
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

struct Setup {
    kernel: Kernel,
    pids: Vec<Pid>,
    registry: ModuleRegistry,
}

/// Two independent echo servers — a stand-in for a multi-process guest.
fn boot_pair() -> Setup {
    let mut kernel = Kernel::new();
    let mut registry = ModuleRegistry::new();
    let mut pids = Vec::new();
    for (name, port, reply) in [("alpha", 8080u16, b"ALFA"), ("bravo", 8081u16, b"BRVO")] {
        let exe = echo_server(name, port, reply);
        registry.insert(Arc::new(exe.clone()));
        let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
        kernel.run_until_event(1, 10_000_000).expect("server up");
        pids.push(pid);
    }
    Setup {
        kernel,
        pids,
        registry,
    }
}

/// Commit fails on the second process's swap: the first process — whose
/// swap already happened — must be put back, leaving the kernel exactly
/// as it was when the transaction started.
#[test]
fn commit_failure_on_second_process_reinserts_the_first() {
    let mut setup = boot_pair();
    let conns: Vec<_> = [8080u16, 8081]
        .iter()
        .map(|&port| setup.kernel.client_connect(port).unwrap())
        .collect();
    assert_eq!(
        setup
            .kernel
            .client_request(conns[0], b"x", 1_000_000)
            .unwrap(),
        b"ALFA"
    );
    for &pid in &setup.pids {
        setup.kernel.freeze(pid).unwrap();
    }
    let checkpoint = dump_many(&mut setup.kernel, &setup.pids, &DumpOptions::default()).unwrap();
    let frozen_state = setup.kernel.state_fingerprint();

    let mut store = CheckpointStore::new();
    let id = store.put_full(&checkpoint).unwrap();
    fault::arm(FaultPhase::RestoreCommit, 1);
    let txn = store
        .stage_restore(&setup.kernel, id, &setup.registry)
        .unwrap();
    let err = txn
        .commit(&mut setup.kernel)
        .expect_err("second swap must fail");
    assert!(matches!(
        err,
        CriuError::FaultInjected(FaultPhase::RestoreCommit)
    ));

    // Both originals are back, untouched and still frozen.
    assert_eq!(setup.kernel.state_fingerprint(), frozen_state);
    for &pid in &setup.pids {
        assert_eq!(setup.kernel.process(pid).unwrap().state, ProcState::Frozen);
    }

    // A clean retry swaps both; the servers keep answering on the
    // connections that predate the whole episode.
    let txn = store
        .stage_restore(&setup.kernel, id, &setup.registry)
        .unwrap();
    let committed = txn.commit(&mut setup.kernel).expect("clean commit");
    assert_eq!(committed.pids(), setup.pids);
    assert_eq!(
        setup
            .kernel
            .client_request(conns[0], b"y", 1_000_000)
            .unwrap(),
        b"ALFA"
    );
    assert_eq!(
        setup
            .kernel
            .client_request(conns[1], b"z", 1_000_000)
            .unwrap(),
        b"BRVO"
    );
}

/// `CommittedRestore::undo` reverts a successful commit: the original
/// process objects come back bit-identically. The reference fingerprint
/// is taken *before* freeze/dump because the commit's leave-repair step
/// is one-way — `undo` hands back originals whose connections are
/// already re-established, and the caller finishes with thaw/unrepair
/// (exactly what `DynaCut::customize`'s rollback does).
#[test]
fn committed_restore_undo_reverts_the_swap() {
    let mut setup = boot_pair();
    let conn = setup.kernel.client_connect(8080).unwrap();
    assert_eq!(
        setup.kernel.client_request(conn, b"x", 1_000_000).unwrap(),
        b"ALFA"
    );
    let pristine = setup.kernel.state_fingerprint();
    for &pid in &setup.pids {
        setup.kernel.freeze(pid).unwrap();
    }
    let checkpoint = dump_many(&mut setup.kernel, &setup.pids, &DumpOptions::default()).unwrap();

    let mut store = CheckpointStore::new();
    let id = store.put_full(&checkpoint).unwrap();
    let txn = store
        .stage_restore(&setup.kernel, id, &setup.registry)
        .unwrap();
    let committed = txn.commit(&mut setup.kernel).expect("commit");
    committed.undo(&mut setup.kernel);

    // Caller-side rollback duties, then the kernel is exactly pre-freeze.
    for &pid in &setup.pids {
        setup.kernel.thaw(pid).unwrap();
        let ids = setup.kernel.conn_ids_of(pid).unwrap();
        setup.kernel.unrepair_connections(&ids);
    }
    assert_eq!(setup.kernel.state_fingerprint(), pristine);
    assert_eq!(
        setup.kernel.client_request(conn, b"y", 1_000_000).unwrap(),
        b"ALFA"
    );
}

/// A failure while **building** staged processes (before any swap) must
/// leave the kernel and the store entry untouched — staging is
/// read-only, and a retry from the same entry commits.
#[test]
fn staging_failure_leaves_kernel_untouched() {
    let mut setup = boot_pair();
    for &pid in &setup.pids {
        setup.kernel.freeze(pid).unwrap();
    }
    let checkpoint = dump_many(&mut setup.kernel, &setup.pids, &DumpOptions::default()).unwrap();
    let frozen_state = setup.kernel.state_fingerprint();

    let mut store = CheckpointStore::new();
    let id = store.put_full(&checkpoint).unwrap();
    let logical = store.logical_pages_bytes();
    fault::arm(FaultPhase::RestoreBuild, 0);
    let err = store
        .stage_restore(&setup.kernel, id, &setup.registry)
        .expect_err("staging must fail");
    assert!(matches!(
        err,
        CriuError::FaultInjected(FaultPhase::RestoreBuild)
    ));
    assert_eq!(setup.kernel.state_fingerprint(), frozen_state);
    assert_eq!(store.logical_pages_bytes(), logical, "no page ref moved");
    assert_eq!(store.materialize(id).unwrap(), checkpoint);

    let committed = store
        .stage_restore(&setup.kernel, id, &setup.registry)
        .and_then(|txn| txn.commit(&mut setup.kernel))
        .expect("retry from the same entry");
    assert_eq!(committed.pids(), setup.pids);
}
