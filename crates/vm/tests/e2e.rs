//! End-to-end kernel tests: assemble guest programs, run them, observe
//! behaviour through the host API.

use dynacut_isa::{Assembler, Cond, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_vm::{Kernel, LoadSpec, RunOutcome, Signal, Sysno, SIG_FRAME_PC};

fn build_exe(asm: &mut Assembler, configure: impl FnOnce(&mut ModuleBuilder)) -> Image {
    let mut builder = ModuleBuilder::new("test_app", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    configure(&mut builder);
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

/// `exit(7)`.
#[test]
fn exit_code_is_observable() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 7));
    asm.push(Insn::Syscall);
    let exe = build_exe(&mut asm, |_| {});

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, 7);
    assert_eq!(status.fatal_signal, None);
}

/// `write(0, "hello\n", 6)` to the console.
#[test]
fn console_write() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Movi(Reg::R1, 0)); // console fd
    asm.lea_ext(Reg::R2, "msg", 0);
    asm.push(Insn::Movi(Reg::R3, 6));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let exe = build_exe(&mut asm, |b| {
        b.rodata("msg", b"hello\n");
    });

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert_eq!(kernel.process(pid).unwrap().console_text(), "hello\n");
}

/// Echo server: accept one connection, read, write back, loop.
fn echo_server() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    // r10 = listener fd
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
    // Signal readiness to the host.
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, 1));
    asm.push(Insn::Syscall);
    asm.label("accept_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Accept as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R11, Reg::R0)); // conn fd
    asm.label("serve_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Read as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "accept_loop"); // client closed
    asm.push(Insn::Mov(Reg::R12, Reg::R0)); // n
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Mov(Reg::R3, Reg::R12));
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");
    build_exe(&mut asm, |b| {
        b.bss("buf", 64);
    })
}

#[test]
fn echo_server_round_trip() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(echo_server())).unwrap();
    kernel
        .run_until_event(1, 10_000_000)
        .expect("server signals readiness");
    let conn = kernel.client_connect(8080).unwrap();
    let reply = kernel.client_request(conn, b"ping", 1_000_000).unwrap();
    assert_eq!(reply, b"ping");
    let reply = kernel.client_request(conn, b"pong!", 1_000_000).unwrap();
    assert_eq!(reply, b"pong!");
    assert!(!kernel.process(pid).unwrap().is_exited());
}

#[test]
fn connect_to_closed_port_is_refused() {
    let mut kernel = Kernel::new();
    kernel.spawn(&LoadSpec::exe_only(echo_server())).unwrap();
    // Server not yet run: nothing listening.
    assert!(kernel.client_connect(9999).is_err());
}

/// Fork: the child and parent write different letters.
#[test]
fn fork_duplicates_the_process() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Fork as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "child");
    // parent: write "P"
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.lea_ext(Reg::R2, "p_msg", 0);
    asm.push(Insn::Movi(Reg::R3, 1));
    asm.push(Insn::Syscall);
    asm.jmp("done");
    asm.label("child");
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.lea_ext(Reg::R2, "c_msg", 0);
    asm.push(Insn::Movi(Reg::R3, 1));
    asm.push(Insn::Syscall);
    asm.label("done");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let exe = build_exe(&mut asm, |b| {
        b.rodata("p_msg", b"P");
        b.rodata("c_msg", b"C");
    });

    let mut kernel = Kernel::new();
    let parent = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let outcome = kernel.run_for(1_000_000);
    assert_eq!(outcome, RunOutcome::AllExited);
    let pids = kernel.pids();
    assert_eq!(pids.len(), 2);
    let texts: Vec<String> = pids
        .iter()
        .map(|&pid| kernel.process(pid).unwrap().console_text())
        .collect();
    assert!(texts.contains(&"P".to_owned()));
    assert!(texts.contains(&"C".to_owned()));
    assert_eq!(
        kernel.process(pids[1]).unwrap().parent,
        Some(parent),
        "child records its parent"
    );
}

/// An unhandled trap kills the process with SIGTRAP — the behaviour of
/// debloated code in RAZOR-style systems (and DynaCut without an injected
/// handler).
#[test]
fn unhandled_trap_kills_process() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Trap);
    let exe = build_exe(&mut asm, |_| {});

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
}

/// A guest-installed SIGTRAP handler that advances the saved pc past the
/// trap — the core control-flow-redirection mechanism of DynaCut's fault
/// handler (paper Figure 5).
#[test]
fn sigtrap_handler_skips_trap_and_continues() {
    let mut asm = Assembler::new();
    asm.func("_start");
    // sigaction(SIGTRAP, handler, restorer, 0)
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigaction as u64));
    asm.push(Insn::Movi(Reg::R1, Signal::Sigtrap.number()));
    asm.lea(Reg::R2, "handler");
    asm.lea(Reg::R3, "restorer");
    asm.push(Insn::Movi(Reg::R4, 0));
    asm.push(Insn::Syscall);
    // Execute a trap; the handler skips it (+1 byte).
    asm.push(Insn::Trap);
    // Reached only via the handler's pc edit.
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 42));
    asm.push(Insn::Syscall);

    asm.func("handler");
    // r2 = frame; saved_pc += 1 (trap is one byte).
    asm.push(Insn::Ld(Width::B8, Reg::R3, Reg::R2, SIG_FRAME_PC as i32));
    asm.push(Insn::Addi(Reg::R3, 1));
    asm.push(Insn::St(Width::B8, Reg::R2, SIG_FRAME_PC as i32, Reg::R3));
    asm.push(Insn::Ret);

    asm.func("restorer");
    // After `ret`, sp points at the frame base.
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigreturn as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R15));
    asm.push(Insn::Syscall);

    let exe = build_exe(&mut asm, |_| {});
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert_eq!(status.fatal_signal, None);
    assert_eq!(status.code, 42);
}

/// nanosleep advances the simulated clock without busy-work.
#[test]
fn nanosleep_advances_clock() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Nanosleep as u64));
    asm.push(Insn::Movi(Reg::R1, 500_000));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let exe = build_exe(&mut asm, |_| {});

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 10_000_000).unwrap();
    assert_eq!(status.code, 0);
    assert!(kernel.clock_ns() >= 500_000);
    assert!(kernel.clock_ns() < 5_000_000, "did not busy-wait");
}

/// mmap'd memory is usable; munmap'd memory faults.
#[test]
fn mmap_munmap_lifecycle() {
    let mut asm = Assembler::new();
    asm.func("_start");
    // r10 = mmap(0, 8192, RW)
    asm.push(Insn::Movi(Reg::R0, Sysno::Mmap as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Movi(Reg::R2, 8192));
    asm.push(Insn::Movi(Reg::R3, 0b011));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    // Store then load back.
    asm.push(Insn::Movi(Reg::R1, 0x1122334455667788));
    asm.push(Insn::St(Width::B8, Reg::R10, 16, Reg::R1));
    asm.push(Insn::Ld(Width::B8, Reg::R2, Reg::R10, 16));
    asm.push(Insn::Cmp(Reg::R2, Reg::R1));
    asm.jcc(Cond::Ne, "fail");
    // munmap then touch -> SIGSEGV kills us (expected path).
    asm.push(Insn::Movi(Reg::R0, Sysno::Munmap as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R2, 8192));
    asm.push(Insn::Syscall);
    asm.push(Insn::Ld(Width::B8, Reg::R2, Reg::R10, 16));
    asm.label("fail");
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 1));
    asm.push(Insn::Syscall);
    let exe = build_exe(&mut asm, |_| {});

    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
}

/// Reading a VFS config file, as the servers do during initialization.
#[test]
fn vfs_open_read() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Open as u64));
    asm.lea_ext(Reg::R1, "path", 0);
    asm.push(Insn::Movi(Reg::R2, 9)); // "/etc/conf"
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Read as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.push(Insn::Syscall);
    // Echo what we read to the console.
    asm.push(Insn::Mov(Reg::R3, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.lea_ext(Reg::R2, "buf", 0);
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Syscall);
    let exe = build_exe(&mut asm, |b| {
        b.rodata("path", b"/etc/conf");
        b.bss("buf", 64);
    });

    let mut kernel = Kernel::new();
    kernel.add_file("/etc/conf", b"port=8080");
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert_eq!(kernel.process(pid).unwrap().console_text(), "port=8080");
}

/// Host-posted SIGKILL terminates a blocked server.
#[test]
fn post_signal_kills_blocked_process() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(echo_server())).unwrap();
    kernel.run_until_event(1, 10_000_000).unwrap();
    // Server is blocked in accept.
    kernel.post_signal(pid, Signal::Sigkill).unwrap();
    let status = kernel.run_until_exit(pid, 1_000_000).unwrap();
    assert_eq!(status.fatal_signal, Some(Signal::Sigkill));
}

/// Freeze stops scheduling; thaw resumes; a request sent during the freeze
/// is answered afterwards (the TCP-repair property Figure 8 relies on).
#[test]
fn freeze_thaw_preserves_pending_requests() {
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(echo_server())).unwrap();
    kernel.run_until_event(1, 10_000_000).unwrap();
    let conn = kernel.client_connect(8080).unwrap();
    // Warm up the connection so the server is in its serve loop.
    let reply = kernel.client_request(conn, b"a", 1_000_000).unwrap();
    assert_eq!(reply, b"a");

    kernel.freeze(pid).unwrap();
    kernel.client_send(conn, b"queued").unwrap();
    let outcome = kernel.run_for(100_000);
    assert_eq!(outcome, RunOutcome::Idle, "frozen server cannot answer");
    assert!(kernel.client_recv(conn).unwrap().is_empty());

    kernel.thaw(pid).unwrap();
    kernel.run_for(200_000);
    assert_eq!(kernel.client_recv(conn).unwrap(), b"queued");
}
