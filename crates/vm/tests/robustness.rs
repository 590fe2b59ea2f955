//! Robustness: arbitrary guest code and hostile syscall arguments must
//! never panic the host — the guest dies with a signal instead. This is
//! the reproduction's equivalent of the paper's TCB assumption: the
//! kernel survives anything the rewritten process does. A binary the DCO
//! codec accepts gets a typed error from spawn, never a panic.

use dynacut_isa::{Assembler, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjError, ObjectKind, Perms, PAGE_SIZE};
use dynacut_vm::{is_err, Errno, Kernel, LoadSpec, Pid, Process, Sysno, VmError};
use proptest::prelude::*;

#[allow(dead_code)]
fn exit_program() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("probe", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Executing random bytes either terminates the process with a fault
    /// signal or keeps running until the budget expires — the kernel
    /// itself never panics.
    #[test]
    fn random_bytes_never_panic_the_kernel(bytes in proptest::collection::vec(any::<u8>(), 1..512)) {
        let mut kernel = Kernel::new();
        let mut proc = Process::new(Pid(1), "fuzz");
        proc.mem.map(0x1000, 2 * PAGE_SIZE, Perms::RX, "fuzz.text").unwrap();
        proc.mem.write_unchecked(0x1000, &bytes);
        proc.mem
            .map(0x10000, 4 * PAGE_SIZE, Perms::RW, "[stack]")
            .unwrap();
        proc.cpu.set_sp(0x10000 + 4 * PAGE_SIZE - 64);
        proc.cpu.pc = 0x1000;
        kernel.insert_process(proc).unwrap();
        // Whatever happens — illegal opcodes, wild jumps, traps, random
        // syscalls — the host survives.
        kernel.run_for(200_000);
    }

    /// Random syscall numbers and arguments from a well-formed loop never
    /// panic the kernel either. The probe exits with the call's return
    /// value: every error it can see is a known [`Errno`], and the state
    /// fingerprint still computes afterwards. Half the numbers and
    /// arguments are small, so defined calls and live descriptors come up.
    #[test]
    fn random_syscalls_never_panic_the_kernel(
        nr in prop_oneof![0u64..24, any::<u64>()],
        args in proptest::array::uniform5(prop_oneof![0u64..8, any::<u64>()]),
    ) {
        let mut asm = Assembler::new();
        asm.func("_start");
        asm.push(Insn::Movi(Reg::R0, nr));
        asm.push(Insn::Movi(Reg::R1, args[0]));
        asm.push(Insn::Movi(Reg::R2, args[1]));
        asm.push(Insn::Movi(Reg::R3, args[2]));
        asm.push(Insn::Movi(Reg::R4, args[3]));
        asm.push(Insn::Movi(Reg::R5, args[4]));
        asm.push(Insn::Syscall);
        asm.push(Insn::Mov(Reg::R1, Reg::R0));
        asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
        asm.push(Insn::Syscall);
        let mut builder = ModuleBuilder::new("sysfuzz", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        builder.entry("_start");
        let exe = builder.link(&[]).unwrap();
        let mut kernel = Kernel::new();
        let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
        kernel.run_for(500_000);
        // `exit` and `sigreturn` do not return a value to check.
        let returns = nr != Sysno::Exit as u64 && nr != Sysno::Sigreturn as u64;
        if let Some(status) = kernel.exit_status(pid) {
            if returns && status.fatal_signal.is_none() {
                prop_assert!(
                    !is_err(status.code) || Errno::from_ret(status.code).is_some(),
                    "syscall {} returned the unknown error {:#x}", nr, status.code
                );
            }
        }
        prop_assert!(!kernel.state_fingerprint().is_empty());
    }
}

#[test]
fn bad_fd_operations_return_errors_not_panics() {
    let mut asm = Assembler::new();
    asm.func("_start");
    // write(999, 0, 0), read(999, ...), close(999), accept(0 = console),
    // bind(42, 1), listen(7): all must fail gracefully with EBADF-style
    // returns.
    for (nr, fd) in [
        (Sysno::Write, 999u64),
        (Sysno::Read, 999),
        (Sysno::Close, 999),
        (Sysno::Accept, 0),
        (Sysno::Bind, 42),
        (Sysno::Listen, 7),
    ] {
        asm.push(Insn::Movi(Reg::R0, nr as u64));
        asm.push(Insn::Movi(Reg::R1, fd));
        asm.push(Insn::Movi(Reg::R2, 0));
        asm.push(Insn::Movi(Reg::R3, 0));
        asm.push(Insn::Syscall);
    }
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 7));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("badfd", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, 7, "reached the end despite bad fds");
}

#[test]
fn sigaction_on_sigkill_is_rejected() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigaction as u64));
    asm.push(Insn::Movi(Reg::R1, dynacut_vm::Signal::Sigkill.number()));
    asm.push(Insn::Movi(Reg::R2, 0x1234));
    asm.push(Insn::Movi(Reg::R3, 0x5678));
    asm.push(Insn::Syscall);
    // Return value is the exit code (error expected).
    asm.push(Insn::Mov(Reg::R1, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("sigkill", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert!(dynacut_vm::is_err(status.code), "EINVAL returned");
}

#[test]
fn runaway_infinite_loop_is_bounded_by_run_for() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("forever");
    asm.jmp("forever");
    let mut builder = ModuleBuilder::new("loop", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let outcome = kernel.run_for(100_000);
    assert_eq!(outcome, dynacut_vm::RunOutcome::Deadline);
    assert!(
        kernel.exit_status(pid).is_none(),
        "still spinning, contained"
    );
    assert!(kernel.clock_ns() >= 100_000);
}

#[test]
fn stack_overflow_becomes_sigsegv() {
    // Infinite recursion: call self.
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("recurse");
    asm.call("recurse");
    let mut builder = ModuleBuilder::new("overflow", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 50_000_000).expect("dies");
    assert_eq!(status.fatal_signal, Some(dynacut_vm::Signal::Sigsegv));
}

/// A library the DCO codec accepts whose `libc_far` sits at an offset no
/// base can be added to, and an executable that calls `import` in it and
/// exits with 3.
fn far_symbol_spec(import: &str) -> LoadSpec {
    let mut asm = Assembler::new();
    asm.func("libc_near");
    asm.push(Insn::Ret);
    asm.func("libc_far");
    asm.push(Insn::Ret);
    let mut builder = ModuleBuilder::new("libc", ObjectKind::SharedLib);
    builder.text(asm.finish().unwrap());
    let mut libc = builder.link(&[]).unwrap();

    let mut asm = Assembler::new();
    asm.func("_start");
    asm.call_ext(import);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 3));
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("app", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[&libc]).unwrap();

    libc.symbols.get_mut("libc_far").unwrap().offset = u64::MAX - 8;
    let libc = Image::from_bytes(&libc.to_bytes()).expect("the codec accepts it");
    LoadSpec::with_libs(exe, vec![libc])
}

/// Regression: spawn added every symbol's offset to its module's base,
/// imported or not, and overflowed on this one. An import whose address
/// runs past the top of the address space is a missing import.
#[test]
fn spawn_refuses_an_import_past_the_top_of_the_address_space() {
    match Kernel::new().spawn(&far_symbol_spec("libc_far")) {
        Err(VmError::Load(ObjError::MissingImport { symbol, .. })) => {
            assert_eq!(symbol, "libc_far");
        }
        other => panic!("expected a missing import, got {other:?}"),
    }
}

/// Regression: the same library spawns, and the guest runs, when nothing
/// imports its far symbol.
#[test]
fn spawn_ignores_a_far_symbol_nothing_imports() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&far_symbol_spec("libc_near")).expect("spawns");
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, 3);
}

/// Regression: `symbol_addr` added the module's base to the symbol's
/// offset unchecked, so asking a spawned library for its far symbol
/// panicked a debug build and wrapped in a release one. An address past
/// the top of the address space is `None`.
#[test]
fn symbol_addr_of_a_symbol_past_the_top_of_the_address_space_is_none() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&far_symbol_spec("libc_near")).expect("spawns");
    let process = kernel.process(pid).unwrap();
    let libc = process
        .modules
        .iter()
        .find(|module| module.image.name == "libc")
        .expect("libc is mapped");
    assert_eq!(libc.symbol_addr("libc_far"), None);
    assert!(libc.symbol_addr("libc_near").is_some());
}
