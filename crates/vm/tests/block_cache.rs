//! Regression pins for the decoded-block translation cache (DESIGN §11).
//!
//! The invariant under test: no stale cached block may survive a write,
//! remap, or page drop that overlaps it — a cached block hiding a
//! freshly planted `0xCC` trap byte would let code DynaCut disabled keep
//! executing, the exact security failure the paper's design rules out.
//! And with no invalidation event at all, cached and uncached execution
//! must be bit-identical under `state_fingerprint()`.

use dynacut_isa::{encode, Insn, Reg, Width, TRAP_OPCODE};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_vm::{Hook, Kernel, Pid, Process, SharedFrame, SigAction, Signal, Sysno};
use std::cell::RefCell;
use std::rc::Rc;

const TEXT: u64 = 0x1000;
const STACK: u64 = 0x8000;

const RWX: Perms = Perms {
    read: true,
    write: true,
    exec: true,
};

/// Encodes `insns` back to back and returns the bytes plus the start
/// offset of each instruction (so tests can name patch targets).
fn assemble(insns: &[Insn]) -> (Vec<u8>, Vec<u64>) {
    let mut bytes = Vec::new();
    let mut offsets = Vec::new();
    for insn in insns {
        offsets.push(bytes.len() as u64);
        bytes.extend(encode(insn));
    }
    (bytes, offsets)
}

/// A kernel running one hand-built process whose text starts at `TEXT`.
/// Text is RWX so guests can modify their own code.
fn boot(insns: &[Insn]) -> (Kernel, Pid, Vec<u64>) {
    let (bytes, offsets) = assemble(insns);
    assert!(
        bytes.len() as u64 <= PAGE_SIZE,
        "test program fits one page"
    );
    let pid = Pid(1);
    let mut proc = Process::new(pid, "bc_test");
    proc.mem.map(TEXT, PAGE_SIZE, RWX, "text").unwrap();
    proc.mem.write_unchecked(TEXT, &bytes);
    proc.mem
        .map(STACK, PAGE_SIZE, Perms::RW, "[stack]")
        .unwrap();
    proc.cpu.set_sp(STACK + PAGE_SIZE);
    proc.cpu.pc = TEXT;
    let mut kernel = Kernel::new();
    kernel.insert_process(proc).unwrap();
    (kernel, pid, offsets.iter().map(|off| TEXT + off).collect())
}

/// A compute loop: `r1 = 0; for r2 in 0..iters { r1 += r2 }; exit(r1 & 0xff)`.
fn compute_loop(iters: u64) -> Vec<Insn> {
    vec![
        Insn::Movi(Reg::R1, 0),
        Insn::Movi(Reg::R2, iters),
        // loop:
        Insn::Add(Reg::R1, Reg::R2),
        Insn::Addi(Reg::R2, -1),
        Insn::Cmpi(Reg::R2, 0),
        // Back to loop: Add(3) + Addi(6) + Cmpi(6) + Jcc(5) bytes.
        Insn::Jcc(dynacut_isa::Cond::Ne, -20),
        Insn::Movi(Reg::R3, 0xff),
        Insn::And(Reg::R1, Reg::R3),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Syscall,
    ]
}

/// The guest overwrites its own *next* instruction with a trap byte; the
/// trap must fire on that very instruction even though it sits inside
/// the currently executing cached block.
#[test]
fn self_modifying_guest_traps_on_its_own_patch() {
    let insns = [
        Insn::Movi(Reg::R1, 0),                      // patched below: target addr
        Insn::Movi(Reg::R2, u64::from(TRAP_OPCODE)), // the int3 byte
        Insn::St(Width::B1, Reg::R1, 0, Reg::R2),    // plant it
        Insn::Nop,                                   // <- overwritten mid-block
        Insn::Movi(Reg::R0, Sysno::Exit as u64),     // never reached
        Insn::Syscall,
    ];
    let (bytes, offsets) = assemble(&insns);
    let nop_addr = TEXT + offsets[3];
    // Re-assemble with the real target address in R1.
    let mut insns = insns;
    insns[0] = Insn::Movi(Reg::R1, nop_addr);
    let (bytes2, _) = assemble(&insns);
    assert_eq!(bytes.len(), bytes2.len(), "patching the imm keeps layout");

    let (mut kernel, pid, _) = boot(&insns);
    assert!(kernel.block_cache_enabled(), "cache is on by default");
    let status = kernel.run_until_exit(pid, 1_000_000).expect("terminates");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(
        kernel.process(pid).unwrap().cpu.pc,
        nop_addr,
        "the very next instruction after the store is the planted trap"
    );
    let invalidations = kernel
        .flight()
        .metrics()
        .counter("block_cache.invalidations");
    assert!(
        invalidations >= 1,
        "the self-modifying store invalidated the running block \
         (invalidations={invalidations})"
    );
}

/// A host-side patch (how DynaCut plants `int3` into live memory) fires
/// the next time control reaches the patched pc, even though the loop's
/// block is hot in the cache.
#[test]
fn host_planted_trap_fires_despite_hot_cache() {
    let insns = [
        // loop: nop; nop; nop; jmp loop
        Insn::Nop,
        Insn::Nop,
        Insn::Nop,
        Insn::Jmp(-8), // back over 3 nops + the 5-byte jmp
    ];
    let (mut kernel, pid, addrs) = boot(&insns);
    kernel.run_for(2_000);
    let hits_before = kernel.flight().metrics().counter("block_cache.hits");
    assert!(hits_before > 0, "loop block is hot (hits={hits_before})");

    kernel
        .process_mut(pid)
        .unwrap()
        .mem
        .write_unchecked(addrs[1], &[TRAP_OPCODE]);
    let status = kernel.run_until_exit(pid, 1_000_000).expect("trap kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(
        kernel.process(pid).unwrap().cpu.pc,
        addrs[1],
        "death at exactly the patched byte, not a stale cached copy"
    );
}

/// Unmapping cached text must not leave the old block executable: the
/// next dispatch faults exactly like an uncached fetch would.
#[test]
fn unmapped_text_faults_instead_of_executing_stale_blocks() {
    let insns = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Jmp(-8)];
    let (mut kernel, pid, _) = boot(&insns);
    kernel.run_for(2_000);
    assert!(kernel.flight().metrics().counter("block_cache.hits") > 0);

    let proc = kernel.process_mut(pid).unwrap();
    let pc = proc.cpu.pc;
    proc.mem.unmap(TEXT, PAGE_SIZE).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).expect("segv kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
    assert_eq!(
        kernel.process(pid).unwrap().cpu.pc,
        pc,
        "the very next fetch faults: neither a cached block nor a TLB entry outlives the unmap"
    );
}

/// `mprotect` to non-executable must stop cached execution too.
#[test]
fn protect_revokes_cached_execution() {
    let insns = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Jmp(-8)];
    let (mut kernel, pid, _) = boot(&insns);
    kernel.run_for(2_000);

    kernel
        .process_mut(pid)
        .unwrap()
        .mem
        .protect(TEXT, PAGE_SIZE, Perms::RW)
        .unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).expect("segv kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
}

/// Cached and uncached runs of the same program are bit-identical under
/// `state_fingerprint()` — including a program that modifies itself.
#[test]
fn fingerprints_match_cached_vs_uncached() {
    let programs: Vec<Vec<Insn>> = vec![
        compute_loop(500),
        vec![
            // Exercise call/ret/push/pop through the cache.
            Insn::Call(1), // over the halt
            Insn::Halt,    // skipped
            Insn::Push(Reg::R1),
            Insn::Pop(Reg::R2),
            Insn::Movi(Reg::R0, Sysno::Exit as u64),
            Insn::Movi(Reg::R1, 0),
            Insn::Syscall,
        ],
    ];
    for (i, insns) in programs.iter().enumerate() {
        let (mut cached, pid, _) = boot(insns);
        let (mut uncached, _, _) = boot(insns);
        uncached.set_block_cache_enabled(false);
        let a = cached.run_until_exit(pid, 10_000_000);
        let b = uncached.run_until_exit(pid, 10_000_000);
        assert_eq!(a, b, "same exit status");
        assert_eq!(
            cached.state_fingerprint(),
            uncached.state_fingerprint(),
            "cache must be invisible to guest-observable state"
        );
        assert!(cached.flight().metrics().counter("block_cache.misses") > 0);
        if i == 0 {
            // Only the loop re-enters its blocks; straight-line code is
            // all compulsory misses.
            assert!(cached.flight().metrics().counter("block_cache.hits") > 0);
        }
        assert_eq!(uncached.flight().metrics().counter("block_cache.hits"), 0);
    }
}

/// Pads `insns` to a whole page and wraps them in a [`SharedFrame`],
/// the way a zero-copy restore hands out PageStore pages.
fn shared_text_frame(insns: &[Insn]) -> (SharedFrame, Vec<u64>) {
    let (bytes, offsets) = assemble(insns);
    assert!(
        bytes.len() as u64 <= PAGE_SIZE,
        "test program fits one page"
    );
    let mut page = [0u8; PAGE_SIZE as usize];
    page[..bytes.len()].copy_from_slice(&bytes);
    (
        SharedFrame::new(&page),
        offsets.iter().map(|off| TEXT + off).collect(),
    )
}

/// Boots `replicas` processes whose text pages all alias one shared
/// frame — the fleet shape a zero-copy restore produces (DESIGN §12).
fn boot_shared(insns: &[Insn], replicas: u32) -> (Kernel, Vec<Pid>, Vec<u64>, SharedFrame) {
    let (frame, addrs) = shared_text_frame(insns);
    let mut kernel = Kernel::new();
    let mut pids = Vec::new();
    for i in 0..replicas {
        let pid = Pid(1 + i);
        let mut proc = Process::new(pid, "bc_shared");
        proc.mem.map(TEXT, PAGE_SIZE, RWX, "text").unwrap();
        proc.mem.install_shared_page(TEXT, frame.clone());
        proc.mem
            .map(STACK, PAGE_SIZE, Perms::RW, "[stack]")
            .unwrap();
        proc.cpu.set_sp(STACK + PAGE_SIZE);
        proc.cpu.pc = TEXT;
        kernel.insert_process(proc).unwrap();
        pids.push(pid);
    }
    (kernel, pids, addrs, frame)
}

/// A write to a shared *code* page must take a CoW fault, bump the
/// page's generation and evict the decoded block — the planted trap
/// fires instead of the stale cached loop.
#[test]
fn cow_on_shared_code_page_bumps_generation_and_evicts_blocks() {
    let insns = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Jmp(-8)];
    let (mut kernel, pids, addrs, _frame) = boot_shared(&insns, 1);
    let pid = pids[0];
    kernel.run_for(2_000);
    assert!(kernel.flight().metrics().counter("block_cache.hits") > 0);
    let proc = kernel.process(pid).unwrap();
    assert!(proc.mem.page_shared(TEXT), "execution alone never CoWs");
    let gen_before = proc.mem.code_page_gen(TEXT);

    kernel
        .process_mut(pid)
        .unwrap()
        .mem
        .write_unchecked(addrs[1], &[TRAP_OPCODE]);
    let proc = kernel.process(pid).unwrap();
    assert!(!proc.mem.page_shared(TEXT), "the write privatised the page");
    assert_eq!(proc.mem.cow_fault_count(), 1, "exactly one CoW fault");
    assert!(
        proc.mem.code_page_gen(TEXT) > gen_before,
        "CoW bumps the code page generation so cached blocks cannot \
         revalidate"
    );

    let status = kernel.run_until_exit(pid, 1_000_000).expect("trap kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(
        kernel.process(pid).unwrap().cpu.pc,
        addrs[1],
        "death at the patched byte, not a stale cached copy"
    );
}

/// Two replicas restored from one shared image: patching one must not
/// leak into the other through the frame *or* through resurrected
/// cached blocks — the sibling keeps running the original code.
#[test]
fn cow_in_one_replica_leaves_siblings_on_the_shared_image() {
    let insns = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Jmp(-8)];
    let (mut kernel, pids, addrs, frame) = boot_shared(&insns, 2);
    let (a, b) = (pids[0], pids[1]);
    kernel.run_for(4_000);
    assert!(kernel.flight().metrics().counter("block_cache.hits") > 0);

    // Patch replica B only.
    kernel
        .process_mut(b)
        .unwrap()
        .mem
        .write_unchecked(addrs[1], &[TRAP_OPCODE]);
    let status = kernel.run_until_exit(b, 1_000_000).expect("B traps");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(kernel.process(b).unwrap().cpu.pc, addrs[1]);

    // The frame itself is untouched: CoW copied, it never wrote through.
    let trap_off = (addrs[1] - TEXT) as usize;
    assert_ne!(
        frame.bytes()[trap_off],
        TRAP_OPCODE,
        "the shared frame still holds the original byte"
    );

    // Replica A keeps spinning on the shared image, unpatched.
    let retired_before = kernel.process(a).unwrap().insns_retired;
    kernel.run_for(4_000);
    let proc_a = kernel.process(a).unwrap();
    assert!(
        proc_a.insns_retired > retired_before,
        "A still executes after B's death"
    );
    assert_eq!(proc_a.fatal_signal, None, "B's trap never reached A");
    assert!(proc_a.mem.page_shared(TEXT), "A never took a CoW fault");
    assert_eq!(proc_a.mem.cow_fault_count(), 0);
}

/// A restore that drops a *different* shared image onto hot text must
/// evict the old decoded blocks: the replica runs the new program, not
/// the cached old one.
#[test]
fn shared_image_restore_does_not_resurrect_stale_blocks() {
    let insns = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Jmp(-8)];
    let (mut kernel, pid, _) = boot(&insns);
    kernel.run_for(2_000);
    assert!(kernel.flight().metrics().counter("block_cache.hits") > 0);

    // Restore installs a new image over the same page via a shared
    // frame; the old loop block must not survive the swap.
    let (frame, _) = shared_text_frame(&[
        Insn::Movi(Reg::R1, 42),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Syscall,
    ]);
    let proc = kernel.process_mut(pid).unwrap();
    proc.mem.install_shared_page(TEXT, frame);
    proc.cpu.pc = TEXT;
    let status = kernel.run_until_exit(pid, 1_000_000).expect("new image");
    assert_eq!(status.fatal_signal, None, "no stale loop, clean exit");
    assert_eq!(status.code, 42, "the restored program ran, byte for byte");
}

/// Cached and uncached runs over shared frames agree bit-for-bit under
/// `state_fingerprint()`, including a run that CoWs its own text.
#[test]
fn fingerprints_match_cached_vs_uncached_over_shared_frames() {
    let insns = [
        Insn::Movi(Reg::R1, 0), // patched below: target addr
        Insn::Movi(Reg::R2, u64::from(TRAP_OPCODE)),
        Insn::St(Width::B1, Reg::R1, 0, Reg::R2), // CoW fault on own text
        Insn::Nop,                                // <- becomes the trap
        Insn::Halt,
    ];
    let (_, offsets) = assemble(&insns);
    let mut insns = insns;
    insns[0] = Insn::Movi(Reg::R1, TEXT + offsets[3]);

    let (mut cached, pids, _, _) = boot_shared(&insns, 1);
    let (mut uncached, _, _, _) = boot_shared(&insns, 1);
    uncached.set_block_cache_enabled(false);
    let a = cached.run_until_exit(pids[0], 1_000_000);
    let b = uncached.run_until_exit(pids[0], 1_000_000);
    assert_eq!(a, b, "same exit status");
    assert_eq!(
        cached.state_fingerprint(),
        uncached.state_fingerprint(),
        "shared frames and CoW are invisible to guest-observable state"
    );
    assert_eq!(cached.process(pids[0]).unwrap().mem.cow_fault_count(), 1);
}

/// The flight metrics expose the cache and the retirement counter used
/// for MIPS, and the counter agrees with per-process accounting.
#[test]
fn metrics_surface_cache_stats_and_insns_retired() {
    let (mut kernel, pid, _) = boot(&compute_loop(200));
    let status = kernel.run_until_exit(pid, 10_000_000).expect("exits");
    assert_eq!(status.fatal_signal, None);
    let metrics = kernel.flight().metrics();
    assert!(metrics.counter("block_cache.hits") > 0);
    assert!(metrics.counter("block_cache.misses") > 0);
    assert!(
        metrics.counter("block_cache.superblocks") > 0,
        "a 200-iteration loop crosses the hot threshold"
    );
    assert_eq!(
        metrics.counter("insns_retired"),
        kernel.process(pid).unwrap().insns_retired,
        "metrics counter mirrors per-process retirement"
    );
}

// ----- superblocks ------------------------------------------------------

/// Cached (superblocked) and uncached runs of a hot loop are
/// bit-identical under `state_fingerprint()` — including the loop's
/// final iteration, where the backward branch the superblock predicted
/// taken falls through instead (the side-exit path).
#[test]
fn fingerprints_match_between_uncached_and_superblocked() {
    let insns = compute_loop(500);
    let (mut cached, pid, _) = boot(&insns);
    let (mut uncached, _, _) = boot(&insns);
    uncached.set_block_cache_enabled(false);

    let a = cached.run_until_exit(pid, 10_000_000);
    let b = uncached.run_until_exit(pid, 10_000_000);
    assert_eq!(a, b, "same exit status (cached vs uncached)");
    assert_eq!(
        cached.state_fingerprint(),
        uncached.state_fingerprint(),
        "the cache and its superblocks must be invisible to guest-observable state"
    );
    assert!(cached.flight().metrics().counter("block_cache.superblocks") > 0);
    assert_eq!(
        uncached
            .flight()
            .metrics()
            .counter("block_cache.superblocks"),
        0,
        "the uncached reference never decodes a block"
    );
}

/// A host-planted trap byte fires at the exact patched pc even when the
/// patch lands in the *middle* of a hot superblock's chained run: the
/// per-page generation snapshot covers every chained instruction, so
/// the store-side revalidation evicts the whole superblock.
#[test]
fn host_planted_trap_fires_mid_superblock() {
    let insns = [
        // loop: nop x3; jmp loop — one 4-insn block, chained across the
        // jmp into a ~64-iteration superblock once hot.
        Insn::Nop,
        Insn::Nop,
        Insn::Nop,
        Insn::Jmp(-8),
    ];
    let (mut kernel, pid, addrs) = boot(&insns);
    kernel.run_for(5_000);
    let superblocks = kernel.flight().metrics().counter("block_cache.superblocks");
    assert!(
        superblocks > 0,
        "the loop was promoted before the patch (superblocks={superblocks})"
    );

    // Patch the *second* nop: inside the block body, not at the entry.
    kernel
        .process_mut(pid)
        .unwrap()
        .mem
        .write_unchecked(addrs[1], &[TRAP_OPCODE]);
    let status = kernel.run_until_exit(pid, 1_000_000).expect("trap kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(
        kernel.process(pid).unwrap().cpu.pc,
        addrs[1],
        "death at exactly the patched byte, mid-superblock"
    );
}

/// A guest store from *inside* a running superblock that hits the
/// block's own text page evicts it on the spot: the after-every-store
/// revalidation holds for chained runs too, so a self-planted trap
/// byte executes instead of the stale cached instruction.
#[test]
fn self_modifying_store_invalidates_the_running_superblock() {
    let insns = [
        Insn::Movi(Reg::R1, 0), // patched below: store target (data page)
        Insn::Movi(Reg::R2, 0), // patched below: iteration count
        Insn::Movi(Reg::R3, 0), // the stored byte (0 while warming)
        // loop: plant r3 at [r1]; count down; back-edge while r2 != 0
        Insn::St(Width::B1, Reg::R1, 0, Reg::R3),
        Insn::Addi(Reg::R2, -1),
        Insn::Cmpi(Reg::R2, 0),
        Insn::Jcc(dynacut_isa::Cond::Ne, 0), // placeholder, fixed below
        Insn::Nop,                           // <- phase 2's store target
        Insn::Halt,
    ];
    let (_, offs) = assemble(&insns);
    let nop_addr = TEXT + offs[7];
    let back_edge = -((offs[7] - offs[3]) as i32); // jcc target: the store
    let mut insns = insns;
    insns[0] = Insn::Movi(Reg::R1, STACK); // harmless data-page target
    insns[1] = Insn::Movi(Reg::R2, 100_000);
    insns[6] = Insn::Jcc(dynacut_isa::Cond::Ne, back_edge);

    // Phase 1: the store lands on the data page — no code-page
    // generation moves, the loop stays valid, goes hot, and is
    // promoted to a superblock.
    let (mut kernel, pid, _) = boot(&insns);
    kernel.run_for(5_000);
    let superblocks = kernel.flight().metrics().counter("block_cache.superblocks");
    assert!(
        superblocks > 0,
        "the loop was promoted while hot (superblocks={superblocks})"
    );
    assert_eq!(kernel.process(pid).unwrap().fatal_signal, None);

    // Phase 2: aim the very same store at the nop in the loop's own
    // text page and make it plant the trap byte. The next store retires
    // *inside* the hot superblock, must evict it, and when the loop
    // runs out the freshly planted 0xCC executes — not the cached nop.
    let proc = kernel.process_mut(pid).unwrap();
    proc.cpu.set_reg(Reg::R1, nop_addr);
    proc.cpu.set_reg(Reg::R3, u64::from(TRAP_OPCODE));
    proc.cpu.set_reg(Reg::R2, 4);
    let status = kernel.run_until_exit(pid, 1_000_000).expect("trap kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(kernel.process(pid).unwrap().cpu.pc, nop_addr);
}

// ----- the soft TLB at guest level ---------------------------------------

/// A data page next to the test text, or a second code page.
const DATA: u64 = 0x4000;

/// Appends a `jmp` back to the instruction at index `target`.
fn with_jump_back(mut insns: Vec<Insn>, target: usize) -> Vec<Insn> {
    let (bytes, offsets) = assemble(&insns);
    let jmp_len = encode(&Insn::Jmp(0)).len() as u64;
    let back = offsets[target] as i64 - (bytes.len() as u64 + jmp_len) as i64;
    insns.push(Insn::Jmp(back as i32));
    insns
}

/// A hot store loop, `loop { [DATA] = r2; r2 += 1 }`, followed by a
/// SIGSEGV handler that exits with the fault address from its frame.
/// The data page is read-write.
fn boot_store_loop(cached: bool) -> (Kernel, Pid) {
    let mut insns = with_jump_back(
        vec![
            Insn::Movi(Reg::R1, DATA),
            Insn::St(Width::B8, Reg::R1, 0, Reg::R2),
            Insn::Addi(Reg::R2, 1),
        ],
        1,
    );
    let handler = insns.len();
    insns.extend([
        Insn::Ld(
            Width::B8,
            Reg::R1,
            Reg::R2,
            dynacut_vm::SIG_FRAME_FAULT_ADDR as i32,
        ),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Syscall,
    ]);
    let (mut kernel, pid, addrs) = boot(&insns);
    kernel.set_block_cache_enabled(cached);
    let proc = kernel.process_mut(pid).unwrap();
    proc.mem.map(DATA, PAGE_SIZE, Perms::RW, "data").unwrap();
    proc.sigactions[Signal::Sigsegv.number() as usize] = SigAction {
        handler: addrs[handler],
        restorer: 0,
        mask: 0,
    };
    (kernel, pid)
}

/// Requires the cached and the uncached run of one scenario to end in
/// the same guest-visible state.
fn assert_parity(scenario: impl Fn(bool) -> Kernel) {
    assert_eq!(
        scenario(true).state_fingerprint(),
        scenario(false).state_fingerprint(),
        "the block cache and the soft TLB must be invisible"
    );
}

/// The incremental dump's contract (DESIGN §5): a sweep between two guest
/// stores to one page leaves the page dirty after the second, although
/// the first store earned a TLB write right.
#[test]
fn mark_clean_between_two_guest_stores_leaves_the_page_dirty() {
    assert_parity(|cached| {
        let (mut kernel, pid) = boot_store_loop(cached);
        kernel.run_for(2_000);
        let mem = &mut kernel.process_mut(pid).unwrap().mem;
        assert!(mem.page_dirty(DATA));
        mem.mark_clean();
        kernel.run_for(2_000);
        assert!(
            kernel.process(pid).unwrap().mem.page_dirty(DATA),
            "a store after the sweep dirtied the page again"
        );
        kernel
    });
}

/// A host install between two guest stores of a frame another process
/// maps: the second store copies on write, and the other process still
/// reads the frame's bytes.
#[test]
fn host_install_between_two_stores_copies_on_write() {
    assert_parity(|cached| {
        let (mut kernel, writer) = boot_store_loop(cached);
        kernel.run_for(2_000);
        let frame = SharedFrame::new(&[0xAB; PAGE_SIZE as usize]);
        kernel
            .process_mut(writer)
            .unwrap()
            .mem
            .install_shared_page(DATA, frame.clone());
        // The reader exits with the byte it loads from the frame.
        let (code, _) = assemble(&[
            Insn::Movi(Reg::R2, DATA),
            Insn::Ld(Width::B1, Reg::R1, Reg::R2, 0),
            Insn::Movi(Reg::R0, Sysno::Exit as u64),
            Insn::Syscall,
        ]);
        let reader = Pid(2);
        let mut proc = Process::new(reader, "reader");
        proc.mem.map(TEXT, PAGE_SIZE, Perms::RX, "text").unwrap();
        proc.mem.write_unchecked(TEXT, &code);
        proc.mem.map(DATA, PAGE_SIZE, Perms::RW, "data").unwrap();
        proc.mem.install_shared_page(DATA, frame.clone());
        proc.cpu.pc = TEXT;
        kernel.insert_process(proc).unwrap();
        kernel.run_for(4_000);
        assert_eq!(
            kernel.exit_status(reader).map(|status| status.code),
            Some(0xAB)
        );
        let mem = &kernel.process(writer).unwrap().mem;
        assert_eq!(
            mem.cow_fault_count(),
            1,
            "the store after the install copied"
        );
        assert!(!mem.page_shared(DATA));
        assert_eq!(
            frame.bytes(),
            &[0xAB; PAGE_SIZE as usize],
            "no store wrote the frame"
        );
        kernel
    });
}

/// `protect` read-only between two guest stores: the second store
/// faults with SIGSEGV at its data address.
#[test]
fn protect_read_only_between_two_stores_faults_the_second() {
    assert_parity(|cached| {
        let (mut kernel, pid) = boot_store_loop(cached);
        kernel.run_for(2_000);
        kernel
            .process_mut(pid)
            .unwrap()
            .mem
            .protect(DATA, PAGE_SIZE, Perms::R)
            .unwrap();
        let status = kernel
            .run_until_exit(pid, 1_000_000)
            .expect("the handler exits");
        assert_eq!(status.fatal_signal, None);
        assert_eq!(status.code, DATA, "the fault names the store's address");
        kernel
    });
}

/// A page the guest writes as data, then calls into, then writes again:
/// the second write invalidates the block decoded from the page, and the
/// next call runs the new code.
#[test]
fn writing_a_page_after_executing_it_invalidates_its_block() {
    /// `r3 += imm; ret`, as one little-endian word.
    fn add_and_return(imm: i32) -> u64 {
        let mut bytes = encode(&Insn::Addi(Reg::R3, imm));
        bytes.extend(encode(&Insn::Ret));
        bytes.resize(8, 0);
        u64::from_le_bytes(bytes.try_into().unwrap())
    }
    let mut insns = vec![
        Insn::Movi(Reg::R1, DATA),
        Insn::Movi(Reg::R2, add_and_return(1)),
        Insn::St(Width::B8, Reg::R1, 0, Reg::R2), // written as data
        Insn::Movi(Reg::R4, 40),
        // loop: call it 40 times, hot enough to become a superblock.
        Insn::Callr(Reg::R1),
        Insn::Addi(Reg::R4, -1),
        Insn::Cmpi(Reg::R4, 0),
    ];
    let (bytes, offsets) = assemble(&insns);
    let jcc_len = encode(&Insn::Jcc(dynacut_isa::Cond::Ne, 0)).len() as u64;
    let back = offsets[4] as i64 - (bytes.len() as u64 + jcc_len) as i64;
    insns.extend([
        Insn::Jcc(dynacut_isa::Cond::Ne, back as i32),
        Insn::Movi(Reg::R2, add_and_return(100)),
        Insn::St(Width::B8, Reg::R1, 0, Reg::R2), // written again
        Insn::Callr(Reg::R1),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Mov(Reg::R1, Reg::R3),
        Insn::Syscall,
    ]);
    assert_parity(|cached| {
        let (mut kernel, pid, _) = boot(&insns);
        kernel.set_block_cache_enabled(cached);
        kernel
            .process_mut(pid)
            .unwrap()
            .mem
            .map(DATA, PAGE_SIZE, RWX, "jit")
            .unwrap();
        let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
        assert_eq!(
            status.code,
            40 + 100,
            "the last call ran the rewritten code"
        );
        if cached {
            assert!(
                kernel
                    .flight()
                    .metrics()
                    .counter("block_cache.invalidations")
                    >= 1
            );
        }
        kernel
    });
}

// ----- queued signals ----------------------------------------------------

/// What a [`Recorder`] saw, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Insn(u64),
    Signal(Signal),
}

/// A hook that records every retired instruction and signal delivery.
struct Recorder(Rc<RefCell<Vec<Seen>>>);

impl Hook for Recorder {
    fn on_insn(&mut self, _pid: Pid, pc: u64) {
        self.0.borrow_mut().push(Seen::Insn(pc));
    }

    fn on_signal(&mut self, _pid: Pid, signal: Signal, _handled: bool) {
        self.0.borrow_mut().push(Seen::Signal(signal));
    }
}

/// Two signals the host queues while the guest spins in a hot superblock
/// are delivered one instruction apart: the first handler's first
/// instruction runs, then the second signal nests on top of it. Both
/// handlers run once, and the cached and uncached runs agree event for
/// event and in their fingerprints.
#[test]
fn two_queued_signals_are_delivered_one_instruction_apart() {
    /// `[STACK + slot] += 1; ret` — a handler that counts in memory.
    fn counting_handler(slot: i32) -> [Insn; 5] {
        [
            Insn::Movi(Reg::R9, STACK),
            Insn::Ld(Width::B8, Reg::R8, Reg::R9, slot),
            Insn::Addi(Reg::R8, 1),
            Insn::St(Width::B8, Reg::R9, slot, Reg::R8),
            Insn::Ret,
        ]
    }
    let mut insns = with_jump_back(vec![Insn::Nop, Insn::Nop], 0);
    let term = insns.len();
    insns.extend(counting_handler(0));
    let trap = insns.len();
    insns.extend(counting_handler(8));
    let restorer = insns.len();
    insns.extend([
        Insn::Movi(Reg::R0, Sysno::Sigreturn as u64),
        Insn::Mov(Reg::R1, Reg::SP),
        Insn::Syscall,
    ]);
    let run = |cached: bool| {
        let (mut kernel, pid, addrs) = boot(&insns);
        kernel.set_block_cache_enabled(cached);
        let proc = kernel.process_mut(pid).unwrap();
        for (signal, handler) in [(Signal::Sigterm, term), (Signal::Sigtrap, trap)] {
            proc.sigactions[signal.number() as usize] = SigAction {
                handler: addrs[handler],
                restorer: addrs[restorer],
                mask: 0,
            };
        }
        kernel.run_for(5_000);
        if cached {
            assert!(kernel.flight().metrics().counter("block_cache.superblocks") > 0);
        }
        let seen = Rc::new(RefCell::new(Vec::new()));
        kernel.set_hook(Box::new(Recorder(Rc::clone(&seen))));
        kernel.post_signal(pid, Signal::Sigterm).unwrap();
        kernel.post_signal(pid, Signal::Sigtrap).unwrap();
        kernel.run_for(5_000);
        let mut counts = [0u8; 16];
        kernel
            .process(pid)
            .unwrap()
            .mem
            .read_unchecked(STACK, &mut counts);
        assert_eq!(counts[0], 1, "the SIGTERM handler ran once");
        assert_eq!(counts[8], 1, "the SIGTRAP handler ran once");
        let seen = seen.borrow().clone();
        assert_eq!(
            seen[..4],
            [
                Seen::Signal(Signal::Sigterm),
                Seen::Insn(addrs[term]),
                Seen::Signal(Signal::Sigtrap),
                Seen::Insn(addrs[trap]),
            ],
            "one delivery per instruction"
        );
        (kernel, seen)
    };
    let (cached, cached_seen) = run(true);
    let (uncached, uncached_seen) = run(false);
    assert_eq!(cached_seen, uncached_seen);
    assert_eq!(cached.state_fingerprint(), uncached.state_fingerprint());
}

// ----- slices that end inside a block ------------------------------------

/// A hot loop whose superblocks hold a load, a store, a handled fault
/// (a division by `r2 & 7`, which a SIGFPE handler skips), a forward
/// `jcc` that is never taken, one taken on half the iterations (a
/// side exit), a syscall, and the backward `jcc` that closes the loop.
fn boot_mixed_loop(cached: bool) -> (Kernel, Pid) {
    let mut insns = vec![
        Insn::Movi(Reg::R1, DATA),
        Insn::Movi(Reg::R7, 7),
        // loop:
        Insn::Ld(Width::B8, Reg::R2, Reg::R1, 0),
        Insn::Addi(Reg::R2, 1),
        Insn::St(Width::B8, Reg::R1, 0, Reg::R2),
        Insn::Mov(Reg::R6, Reg::R2),
        Insn::And(Reg::R6, Reg::R7),
        Insn::Movi(Reg::R8, 100),
        Insn::Divu(Reg::R8, Reg::R6),
        Insn::Cmpi(Reg::R2, 0),
        Insn::Jcc(dynacut_isa::Cond::Eq, 0), // never taken; patched below
        Insn::Cmpi(Reg::R6, 3),
        Insn::Jcc(dynacut_isa::Cond::Ae, 0), // taken when r2 & 7 >= 3
        Insn::Addi(Reg::R3, 1),
        // skip:
        Insn::Movi(Reg::R0, Sysno::Getpid as u64),
        Insn::Syscall,
        Insn::Jmp(0), // back to loop; patched below
    ];
    // One more offset, where the instruction after the last would start.
    let (_, offsets) = assemble(&[&insns[..], &[Insn::Nop]].concat());
    let jump = |from: usize, to: usize| (offsets[to] as i64 - offsets[from + 1] as i64) as i32;
    insns[10] = Insn::Jcc(dynacut_isa::Cond::Eq, jump(10, 14));
    insns[12] = Insn::Jcc(dynacut_isa::Cond::Ae, jump(12, 14));
    insns[16] = Insn::Jmp(jump(16, 2));
    let divu_len = offsets[9] - offsets[8];
    let handler = insns.len();
    insns.extend([
        // Skip the faulting division: saved pc += its length.
        Insn::Ld(Width::B8, Reg::R9, Reg::R2, dynacut_vm::SIG_FRAME_PC as i32),
        Insn::Addi(Reg::R9, divu_len as i32),
        Insn::St(Width::B8, Reg::R2, dynacut_vm::SIG_FRAME_PC as i32, Reg::R9),
        Insn::Ret,
    ]);
    let restorer = insns.len();
    insns.extend([
        Insn::Movi(Reg::R0, Sysno::Sigreturn as u64),
        Insn::Mov(Reg::R1, Reg::SP),
        Insn::Syscall,
    ]);
    let (mut kernel, pid, addrs) = boot(&insns);
    kernel.set_block_cache_enabled(cached);
    let proc = kernel.process_mut(pid).unwrap();
    proc.mem.map(DATA, PAGE_SIZE, Perms::RW, "data").unwrap();
    proc.sigactions[Signal::Sigfpe.number() as usize] = SigAction {
        handler: addrs[handler],
        restorer: addrs[restorer],
        mask: 0,
    };
    (kernel, pid)
}

/// For every slice length from 1 to 64, a cached and an uncached kernel
/// run the mixed loop in lockstep, one `run_for(k)` at a time, and agree
/// after every call on the fingerprint and the retired count: a slice
/// that ends inside a block, at a fault, a side exit or a syscall settles
/// the block's accounting exactly where the uncached interpreter stands.
#[test]
fn every_slice_length_agrees_with_the_uncached_interpreter() {
    for k in 1..=64u64 {
        let (mut cached, pid) = boot_mixed_loop(true);
        let (mut uncached, _) = boot_mixed_loop(false);
        for call in 0..2_400 / k {
            cached.run_for(k);
            uncached.run_for(k);
            let retired = |kernel: &Kernel| kernel.process(pid).unwrap().insns_retired;
            assert_eq!(retired(&cached), retired(&uncached), "k={k}, call {call}");
            assert_eq!(
                cached.state_fingerprint(),
                uncached.state_fingerprint(),
                "k={k}, call {call}"
            );
        }
        let metrics = cached.flight().metrics();
        assert!(
            metrics.counter("block_cache.superblocks") > 0,
            "k={k}: the loop went hot"
        );
        // Past 8 iterations the division faulted at least once, and the
        // handler's skip let the loop go on.
        let mut data = [0u8; 8];
        cached
            .process(pid)
            .unwrap()
            .mem
            .read_unchecked(DATA, &mut data);
        assert!(
            u64::from_le_bytes(data) > 8,
            "k={k}: the handled fault fired"
        );
    }
}

/// A block cache next to a different address space whose count of code
/// writes equals the one the cache's entry last validated under: a trap
/// byte planted on the page the cached loop spans still fires, because
/// a dispatch skips revalidation only under the stamp of one space's
/// generation table, not under a count any space can reach.
#[test]
fn a_cache_on_a_foreign_space_revalidates() {
    let insns = [Insn::Nop, Insn::Nop, Insn::Nop, Insn::Jmp(-8)];
    let (mut kernel, pid, addrs) = boot(&insns);
    kernel.run_for(2_000);
    // One code write, to a page the loop does not span; the loop's
    // entry revalidates under the space's new stamp.
    kernel
        .process_mut(pid)
        .unwrap()
        .mem
        .seed_code_page_gen(DATA, 1);
    kernel.run_for(2_000);
    let mem = &kernel.process(pid).unwrap().mem;
    assert_eq!(mem.code_page_gen(TEXT), 0, "the loop's page did not change");
    let cache = kernel.process(pid).unwrap().block_cache.clone();
    assert!(!cache.is_empty(), "the loop is cached");

    // Another space with the same text and one code write of its own:
    // the trap planted on the registered text page.
    let (mut other_kernel, other_pid, _) = boot(&insns);
    let other = other_kernel.process_mut(other_pid).unwrap();
    other.mem.note_code_page(TEXT);
    other.mem.write_unchecked(addrs[1], &[TRAP_OPCODE]);
    let writes = |mem: &dynacut_vm::AddressSpace| mem.code_pages().map(|(_, gen)| gen).sum::<u64>();
    assert_eq!(
        writes(&other.mem),
        writes(mem),
        "equal counts of code writes"
    );
    other.block_cache = cache;
    let status = other_kernel
        .run_until_exit(other_pid, 1_000_000)
        .expect("the trap kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(other_kernel.process(other_pid).unwrap().cpu.pc, addrs[1]);
}

// ----- every store-class instruction reports its write ------------------

/// How many hot-loop iterations a self-modifying guest runs before it
/// turns its store on its own text: enough to promote the loop.
const WARM_ITERS: u64 = 40;

/// Runs a self-modifying guest to its end on a cached and an uncached
/// kernel. The guest warms a loop into a superblock while its store lands
/// on the stack page, then aims the store at a later instruction of that
/// superblock and writes a trap byte there. Both kernels must agree on
/// the exit, the state fingerprint and the retired count, and the trap
/// must fire at `trap_pc`: a block that ran on past its own store would
/// retire the stale instruction instead. Returns the cached kernel.
fn run_self_modifying_guest(insns: &[Insn], trap_pc: u64) -> Kernel {
    let (mut cached, pid, _) = boot(insns);
    let (mut uncached, _, _) = boot(insns);
    uncached.set_block_cache_enabled(false);
    let status = cached
        .run_until_exit(pid, 1_000_000)
        .expect("the planted trap kills");
    assert_eq!(uncached.run_until_exit(pid, 1_000_000), Some(status));
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    assert_eq!(
        cached.process(pid).unwrap().cpu.pc,
        trap_pc,
        "the new bytes executed"
    );
    assert_eq!(
        cached.process(pid).unwrap().insns_retired,
        uncached.process(pid).unwrap().insns_retired,
        "no stale instruction retired"
    );
    assert_eq!(
        cached.state_fingerprint(),
        uncached.state_fingerprint(),
        "the block cache must be invisible"
    );
    assert!(cached.flight().metrics().counter("block_cache.superblocks") > 0);
    cached
}

/// Assembles the program `build` returns for the addresses of its own
/// instructions: once to lay it out, once with the real addresses (a
/// `movi`'s length does not depend on its immediate).
fn assemble_self_referencing(build: impl Fn(&[u64]) -> Vec<Insn>) -> (Vec<Insn>, Vec<u64>) {
    // One address per byte of the page bounds any instruction index.
    let layout = build(&vec![0; PAGE_SIZE as usize]);
    let (_, offsets) = assemble(&layout);
    let addrs: Vec<u64> = offsets.iter().map(|off| TEXT + off).collect();
    let insns = build(&addrs);
    assert_eq!(assemble(&insns).1, offsets, "the layout is stable");
    (insns, addrs)
}

/// `Nop`s that end a prefix of `len` bytes so that the call of `call_len`
/// bytes after it ends at text offset `TRAP_OPCODE`: the return address
/// it pushes, `TEXT + 0xCC`, then reads as a trap byte where it lands.
fn pad_to_trap_return(len: usize, call_len: usize) -> Vec<Insn> {
    assert_eq!(
        TEXT & 0xff,
        0,
        "the return address's low byte is its offset"
    );
    vec![Insn::Nop; usize::from(TRAP_OPCODE) - len - call_len]
}

/// `st` plants a trap byte on the instruction right after it.
#[test]
fn a_store_into_its_own_superblock_is_seen_by_the_next_instruction() {
    const TOP: usize = 5;
    const TARGET: usize = 6;
    let (insns, addrs) = assemble_self_referencing(|a| {
        vec![
            Insn::Movi(Reg::R1, STACK),
            Insn::Movi(Reg::R2, WARM_ITERS),
            Insn::Movi(Reg::R3, 0),
            Insn::Movi(Reg::R8, a[TARGET]),
            Insn::Movi(Reg::R9, u64::from(TRAP_OPCODE)),
            // TOP:
            Insn::St(Width::B1, Reg::R1, 0, Reg::R3),
            // TARGET:
            Insn::Nop,
            Insn::Addi(Reg::R2, -1),
            Insn::Cmpi(Reg::R2, 0),
            Insn::Jcc(dynacut_isa::Cond::Ne, (a[TOP] as i64 - a[10] as i64) as i32),
            Insn::Mov(Reg::R1, Reg::R8),
            Insn::Mov(Reg::R3, Reg::R9),
            Insn::Jmp((a[TOP] as i64 - a[13] as i64) as i32),
            Insn::Halt,
        ]
    });
    run_self_modifying_guest(&insns, addrs[TARGET]);
}

/// `push` with the stack pointer inside the code page writes a trap
/// byte over the instructions right after it.
#[test]
fn a_push_into_its_own_superblock_is_seen_by_the_next_instruction() {
    const TOP: usize = 4;
    const TARGET: usize = 6;
    let (insns, addrs) = assemble_self_referencing(|a| {
        let mut insns = vec![
            Insn::Movi(Reg::R6, STACK + PAGE_SIZE),
            Insn::Movi(Reg::R2, WARM_ITERS),
            Insn::Movi(Reg::R3, 0),
            Insn::Movi(Reg::R8, a[TARGET] + 8),
            // TOP:
            Insn::Mov(Reg::SP, Reg::R6),
            Insn::Push(Reg::R3),
        ];
        // TARGET: the pushed word lands on these eight.
        insns.extend([Insn::Nop; 8]);
        let back = insns.len() + 3;
        insns.extend([
            Insn::Addi(Reg::R2, -1),
            Insn::Cmpi(Reg::R2, 0),
            Insn::Jcc(
                dynacut_isa::Cond::Ne,
                (a[TOP] as i64 - a[back] as i64) as i32,
            ),
            Insn::Mov(Reg::R6, Reg::R8),
            Insn::Movi(Reg::R3, u64::from(TRAP_OPCODE)),
            Insn::Jmp((a[TOP] as i64 - a[back + 3] as i64) as i32),
            Insn::Halt,
        ]);
        insns
    });
    run_self_modifying_guest(&insns, addrs[TARGET]);
}

/// `call` with the stack pointer inside the code page writes its return
/// address, whose low byte is the trap opcode, over the callee's first
/// instruction, which the superblock chained right after it.
#[test]
fn a_call_into_its_own_superblock_is_seen_by_the_callee() {
    let head = [
        Insn::Movi(Reg::R6, STACK + PAGE_SIZE),
        Insn::Movi(Reg::R2, WARM_ITERS),
        Insn::Movi(Reg::R8, 0),
    ];
    let head_len = assemble(&head).0.len() + encode(&Insn::Mov(Reg::SP, Reg::R6)).len();
    let pad = pad_to_trap_return(head_len, encode(&Insn::Call(0)).len());
    let top = head.len() + pad.len();
    let callee = top + 7;
    let (insns, addrs) = assemble_self_referencing(|a| {
        let mut insns = head.to_vec();
        insns[2] = Insn::Movi(Reg::R8, a[callee] + 8);
        insns.extend(pad.iter().copied());
        insns.extend([
            // top:
            Insn::Mov(Reg::SP, Reg::R6),
            Insn::Call((a[callee] as i64 - a[top + 2] as i64) as i32),
            Insn::Addi(Reg::R2, -1),
            Insn::Cmpi(Reg::R2, 0),
            Insn::Jcc(
                dynacut_isa::Cond::Ne,
                (a[top] as i64 - a[top + 5] as i64) as i32,
            ),
            Insn::Mov(Reg::R6, Reg::R8),
            Insn::Jmp((a[top] as i64 - a[callee] as i64) as i32),
        ]);
        // callee: the return address lands on these eight.
        insns.extend([Insn::Nop; 8]);
        insns.push(Insn::Ret);
        insns
    });
    assert_eq!(addrs[top + 2] & 0xff, u64::from(TRAP_OPCODE));
    run_self_modifying_guest(&insns, addrs[callee]);
}

/// `callr` with the stack pointer inside the code page writes its return
/// address, whose low byte is the trap opcode, over the instruction it
/// returns to. An indirect call ends every chain, so no instruction of
/// the running block follows it; what its write must still do is evict
/// that block as it retires. Every block on the page is then stale: the
/// running one is counted as the `callr` retires, the callee's and the
/// return point's as they are dispatched.
#[test]
fn an_indirect_call_into_its_own_page_evicts_the_running_block() {
    let head = [
        Insn::Movi(Reg::R6, STACK + PAGE_SIZE),
        Insn::Movi(Reg::R2, WARM_ITERS),
        Insn::Movi(Reg::R7, 0),
        Insn::Movi(Reg::R8, 0),
    ];
    let head_len = assemble(&head).0.len() + encode(&Insn::Mov(Reg::SP, Reg::R6)).len();
    let pad = pad_to_trap_return(head_len, encode(&Insn::Callr(Reg::R7)).len());
    let top = head.len() + pad.len();
    let ret_point = top + 2;
    let callee = top + 7;
    let (insns, addrs) = assemble_self_referencing(|a| {
        let mut insns = head.to_vec();
        insns[2] = Insn::Movi(Reg::R7, a[callee]);
        insns[3] = Insn::Movi(Reg::R8, a[ret_point] + 8);
        insns.extend(pad.iter().copied());
        insns.extend([
            // top:
            Insn::Mov(Reg::SP, Reg::R6),
            Insn::Callr(Reg::R7),
            // ret_point: the return address lands here.
            Insn::Addi(Reg::R2, -1),
            Insn::Cmpi(Reg::R2, 0),
            Insn::Jcc(
                dynacut_isa::Cond::Ne,
                (a[top] as i64 - a[top + 5] as i64) as i32,
            ),
            Insn::Mov(Reg::R6, Reg::R8),
            Insn::Jmp((a[top] as i64 - a[callee] as i64) as i32),
            // callee:
            Insn::Ret,
        ]);
        insns
    });
    assert_eq!(addrs[ret_point] & 0xff, u64::from(TRAP_OPCODE));
    let cached = run_self_modifying_guest(&insns, addrs[ret_point]);
    assert_eq!(
        cached
            .flight()
            .metrics()
            .counter("block_cache.invalidations"),
        3,
        "the running block was evicted when the callr retired"
    );
}
