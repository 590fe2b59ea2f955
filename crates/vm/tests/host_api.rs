//! Host-facing kernel API behaviour: timeouts, event scanning, freeze
//! state machine.

use dynacut_isa::{Assembler, Insn, Reg};
use dynacut_obj::{ModuleBuilder, ObjectKind};
use dynacut_vm::{EventKind, Kernel, LoadSpec, Pid, RunOutcome, Sysno, VmError};

fn sleeper() -> dynacut_obj::Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("zzz");
    asm.push(Insn::Movi(Reg::R0, Sysno::Nanosleep as u64));
    asm.push(Insn::Movi(Reg::R1, 1_000_000));
    asm.push(Insn::Syscall);
    asm.jmp("zzz");
    let mut builder = ModuleBuilder::new("sleeper", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

#[test]
fn run_until_event_times_out_with_none() {
    let mut kernel = Kernel::new();
    kernel.spawn(&LoadSpec::exe_only(sleeper())).unwrap();
    let before = kernel.clock_ns();
    assert!(kernel.run_until_event(42, 500_000).is_none());
    assert!(kernel.clock_ns() >= before + 500_000);
}

#[test]
fn run_until_exit_times_out_with_none_for_immortals() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(sleeper())).unwrap();
    assert!(kernel.run_until_exit(pid, 300_000).is_none());
    assert!(kernel.exit_status(pid).is_none());
}

#[test]
fn sleeping_process_advances_clock_without_work() {
    let mut kernel = Kernel::new();
    kernel.spawn(&LoadSpec::exe_only(sleeper())).unwrap();
    let outcome = kernel.run_for(5_000_000);
    // The sleeper never exits; depending on where the deadline falls the
    // run ends at the deadline or idles on the final sleep.
    assert_ne!(outcome, RunOutcome::AllExited);
    assert!(kernel.clock_ns() >= 5_000_000);
    // Almost no instructions retired relative to the elapsed time.
    let pid = kernel.pids()[0];
    assert!(kernel.process(pid).unwrap().insns_retired < 1_000);
}

#[test]
fn freeze_state_machine_is_strict() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(sleeper())).unwrap();
    // Thawing a non-frozen process fails.
    assert!(matches!(
        kernel.thaw(pid),
        Err(VmError::BadProcessState { .. })
    ));
    kernel.freeze(pid).unwrap();
    // Double-freeze is idempotent-ish: freezing a frozen process is fine
    // (it is still not exited).
    kernel.freeze(pid).unwrap();
    kernel.thaw(pid).unwrap();
    assert!(matches!(
        kernel.thaw(pid),
        Err(VmError::BadProcessState { .. })
    ));
    // Unknown pids are reported.
    assert!(matches!(
        kernel.freeze(dynacut_vm::Pid(999)),
        Err(VmError::NoSuchProcess(_))
    ));
}

/// The flight journal is the only record of guest events: each
/// `emit_event` is journalled once, in order.
#[test]
fn guest_events_are_journalled_once_in_order() {
    let mut asm = Assembler::new();
    asm.func("_start");
    for code in [7u64, 8, 9] {
        asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
        asm.push(Insn::Movi(Reg::R1, code));
        asm.push(Insn::Syscall);
    }
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("emitter", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    kernel.run_for(100_000);
    let markers: Vec<(u64, Option<Pid>)> = kernel
        .flight()
        .iter()
        .filter_map(|event| match event.kind {
            EventKind::GuestMarker { code } => Some((code, event.pid)),
            _ => None,
        })
        .collect();
    assert_eq!(
        markers,
        vec![(7, Some(pid)), (8, Some(pid)), (9, Some(pid))]
    );
}
