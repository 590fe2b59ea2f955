//! Signal-delivery edge cases: nested handlers, hostile sigreturn frames,
//! depth limits, and handler faults — the machinery DynaCut's injected
//! fault handler depends on must be watertight.

use dynacut_isa::{Assembler, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_vm::{Kernel, LoadSpec, Signal, Sysno, SIG_FRAME_PC};

fn build(asm: &mut Assembler) -> Image {
    let mut builder = ModuleBuilder::new("sig_test", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.bss("counter", 8);
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

fn emit_sigaction(asm: &mut Assembler, handler: &str, restorer: &str) {
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigaction as u64));
    asm.push(Insn::Movi(Reg::R1, Signal::Sigtrap.number()));
    asm.lea(Reg::R2, handler);
    asm.lea(Reg::R3, restorer);
    asm.push(Insn::Movi(Reg::R4, 0));
    asm.push(Insn::Syscall);
}

fn emit_restorer(asm: &mut Assembler, name: &str) {
    asm.func(name);
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigreturn as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::SP));
    asm.push(Insn::Syscall);
}

/// A handler that itself executes a trap: nested delivery works, both
/// frames unwind, and the program completes. The activation count lives
/// in **memory** — registers mutated inside a handler are rolled back by
/// `sigreturn`, exactly like a real sigframe restore.
#[test]
fn nested_signal_delivery_unwinds_correctly() {
    let mut asm = Assembler::new();
    asm.func("_start");
    emit_sigaction(&mut asm, "handler", "restorer");
    asm.push(Insn::Trap);
    // Reached after the handler skips the trap: exit(counter).
    asm.lea_ext(Reg::R4, "counter", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R1, Reg::R4, 0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Syscall);

    asm.func("handler");
    // counter += 1 (in memory: survives sigreturn).
    asm.lea_ext(Reg::R4, "counter", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R9, Reg::R4, 0));
    asm.push(Insn::Addi(Reg::R9, 1));
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R9));
    // Only nest once: the second activation skips its own trap.
    asm.push(Insn::Cmpi(Reg::R9, 1));
    asm.jcc(dynacut_isa::Cond::Ne, "skip_nest");
    asm.push(Insn::Trap); // nested SIGTRAP inside the handler
    asm.label("skip_nest");
    // Advance the saved pc past the faulting one-byte trap.
    asm.push(Insn::Ld(Width::B8, Reg::R3, Reg::R2, SIG_FRAME_PC as i32));
    asm.push(Insn::Addi(Reg::R3, 1));
    asm.push(Insn::St(Width::B8, Reg::R2, SIG_FRAME_PC as i32, Reg::R3));
    asm.push(Insn::Ret);
    emit_restorer(&mut asm, "restorer");

    let exe = build(&mut asm);
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 5_000_000).expect("completes");
    assert_eq!(status.fatal_signal, None);
    assert_eq!(status.code, 2, "handler ran twice (outer + nested)");
}

/// The inverse of the memory-counter behaviour: plain register writes in
/// a handler are rolled back on sigreturn, because the frame is
/// authoritative.
#[test]
fn register_writes_in_handlers_are_rolled_back() {
    let mut asm = Assembler::new();
    asm.func("_start");
    emit_sigaction(&mut asm, "handler", "restorer");
    asm.push(Insn::Movi(Reg::R7, 5));
    asm.push(Insn::Trap);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R7));
    asm.push(Insn::Syscall);
    asm.func("handler");
    asm.push(Insn::Movi(Reg::R7, 99)); // rolled back by sigreturn
    asm.push(Insn::Ld(Width::B8, Reg::R3, Reg::R2, SIG_FRAME_PC as i32));
    asm.push(Insn::Addi(Reg::R3, 1));
    asm.push(Insn::St(Width::B8, Reg::R2, SIG_FRAME_PC as i32, Reg::R3));
    asm.push(Insn::Ret);
    emit_restorer(&mut asm, "restorer");

    let exe = build(&mut asm);
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 5_000_000).expect("completes");
    assert_eq!(
        status.code, 5,
        "r7 restored from the frame, not the handler"
    );
}

/// sigreturn with a garbage frame pointer kills the process instead of
/// corrupting the kernel.
#[test]
fn bogus_sigreturn_frame_is_fatal_not_corrupting() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigreturn as u64));
    asm.push(Insn::Movi(Reg::R1, 0xDEAD_BEEF_0000));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let exe = build(&mut asm);
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).expect("dies");
    assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
}

/// A handler that traps unboundedly (never fixes the pc) hits the
/// nesting-depth limit and the process dies rather than looping forever.
#[test]
fn unbounded_handler_recursion_is_capped() {
    let mut asm = Assembler::new();
    asm.func("_start");
    emit_sigaction(&mut asm, "handler", "restorer");
    asm.push(Insn::Trap);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    asm.func("handler");
    asm.push(Insn::Trap); // always re-trap, never sigreturn
    asm.push(Insn::Ret);
    emit_restorer(&mut asm, "restorer");

    let exe = build(&mut asm);
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 10_000_000).expect("capped");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
}

/// The saved register file in the frame is authoritative: a handler that
/// rewrites a saved register changes the resumed program's state — the
/// mechanism a richer fault policy could use to return error codes
/// (paper §3.2: "return a customized error code but keep the program
/// alive").
#[test]
fn handler_can_rewrite_saved_registers() {
    let mut asm = Assembler::new();
    asm.func("_start");
    emit_sigaction(&mut asm, "handler", "restorer");
    asm.push(Insn::Movi(Reg::R7, 1111));
    asm.push(Insn::Trap);
    // Exit with whatever is in r7 after resumption.
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R7));
    asm.push(Insn::Syscall);

    asm.func("handler");
    // saved_r7 = 42 (frame regs at offset SIG_FRAME_REGS + 7*8).
    asm.push(Insn::Movi(Reg::R4, 42));
    asm.push(Insn::St(
        Width::B8,
        Reg::R2,
        (dynacut_vm::SIG_FRAME_REGS + 7 * 8) as i32,
        Reg::R4,
    ));
    // And skip the trap.
    asm.push(Insn::Ld(Width::B8, Reg::R3, Reg::R2, SIG_FRAME_PC as i32));
    asm.push(Insn::Addi(Reg::R3, 1));
    asm.push(Insn::St(Width::B8, Reg::R2, SIG_FRAME_PC as i32, Reg::R3));
    asm.push(Insn::Ret);
    emit_restorer(&mut asm, "restorer");

    let exe = build(&mut asm);
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 5_000_000).expect("completes");
    assert_eq!(status.code, 42, "handler rewrote the saved r7");
}

/// SIGSEGV inside a SIGTRAP handler (no SIGSEGV disposition) is fatal —
/// no infinite fault loops.
#[test]
fn fault_inside_handler_is_fatal() {
    let mut asm = Assembler::new();
    asm.func("_start");
    emit_sigaction(&mut asm, "handler", "restorer");
    asm.push(Insn::Trap);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    asm.func("handler");
    // Wild store: unmapped address.
    asm.push(Insn::Movi(Reg::R4, 0xDEAD_0000_0000));
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R4));
    asm.push(Insn::Ret);
    emit_restorer(&mut asm, "restorer");

    let exe = build(&mut asm);
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 5_000_000).expect("dies");
    assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
}
