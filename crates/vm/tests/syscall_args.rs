//! Regression pins for syscall argument truncation.
//!
//! The handlers used to narrow guest arguments with `as` casts —
//! `args[0] as u32` for descriptors, `Pid(args[0] as u32)` for kill —
//! so fd `0x1_0000_0000` silently aliased fd `0` (the console) and pid
//! `0x1_0000_0001` aliased pid `1`. The same truncation defect class as
//! the PR 3 drcov offset bug, except here the wild argument could
//! *succeed* against an unrelated open descriptor or deliver a signal
//! to an unrelated process. A value that does not fit the descriptor
//! (or pid) space must fail with the typed errno the kernel uses for
//! "no such descriptor" (EBADF) / "no such process" (ESRCH).
//!
//! Wild lengths are the same defect class one step further: `write`
//! and `open` allocated a host buffer of the guest's length before
//! checking the range (a 1 TiB request aborted the whole host process),
//! and `mmap`/`munmap`/`mprotect` overflowed page alignment or
//! `start + len`. Each must fail with an errno instead.
//!
//! The last pins cover the typed ABI's two fixed defects. `read` used to
//! consume its source (file offset, connection bytes) before finding the
//! destination unwritable, so an EFAULT lost data. And the fd and pid
//! counters wrapped: a restored image may carry fd or pid `u32::MAX`,
//! after which the next `socket()` replaced the console at fd 0 and the
//! next fork or spawn inserted over a live pid (a panic in debug builds).

use dynacut_isa::{encode, Assembler, Insn, Reg};
use dynacut_obj::{ModuleBuilder, ObjectKind, Perms, PAGE_SIZE};
use dynacut_vm::{
    err_ret, Errno, FdTable, FileDesc, Kernel, LoadSpec, Pid, Process, Sysno, VmError,
};

const TEXT: u64 = 0x1000;
const STACK: u64 = 0x8000;

/// One past `u32::MAX`: truncation maps it to fd 0 / pid 0's space.
const ALIAS_FD_0: u64 = 0x1_0000_0000;
/// Aliases pid 1 under truncation.
const ALIAS_PID_1: u64 = 0x1_0000_0001;

const EBADF: u64 = 9;
const ESRCH: u64 = 3;
const EFAULT: u64 = 14;
const ENOMEM: u64 = 12;
const EINVAL: u64 = 22;
/// The last page of the address space: any range of two pages from it
/// wraps.
const TOP_PAGE: u64 = 0xFFFF_FFFF_FFFF_F000;
const SIGKILL_NUMBER: u64 = 4;

/// Boots one process running `insns`, which must end by exiting with
/// the interesting syscall's return value: `Mov(R1, R0); exit`.
fn boot(insns: &[Insn]) -> (Kernel, Pid) {
    boot_with(insns, |_| {})
}

/// [`boot`], with `setup` applied to the process before it is inserted.
fn boot_with(insns: &[Insn], setup: impl FnOnce(&mut Process)) -> (Kernel, Pid) {
    let mut bytes = Vec::new();
    for insn in insns {
        bytes.extend(encode(insn));
    }
    assert!(
        bytes.len() as u64 <= PAGE_SIZE,
        "test program fits one page"
    );
    let pid = Pid(1);
    let mut proc = Process::new(pid, "sys_args");
    proc.mem.map(TEXT, PAGE_SIZE, Perms::RX, "text").unwrap();
    proc.mem.write_unchecked(TEXT, &bytes);
    proc.mem
        .map(STACK, PAGE_SIZE, Perms::RW, "[stack]")
        .unwrap();
    proc.cpu.set_sp(STACK + PAGE_SIZE);
    proc.cpu.pc = TEXT;
    setup(&mut proc);
    let mut kernel = Kernel::new();
    kernel.insert_process(proc).unwrap();
    (kernel, pid)
}

/// Issues `nr(arg0, arg1, arg2)` and exits with its return value.
fn call_then_exit(nr: Sysno, arg0: u64, arg1: u64, arg2: u64) -> Vec<Insn> {
    vec![
        Insn::Movi(Reg::R0, nr as u64),
        Insn::Movi(Reg::R1, arg0),
        Insn::Movi(Reg::R2, arg1),
        Insn::Movi(Reg::R3, arg2),
        Insn::Syscall,
        Insn::Mov(Reg::R1, Reg::R0),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Syscall,
    ]
}

/// `write(0x1_0000_0000, buf, 1)` used to truncate to fd 0 and happily
/// write the console. It must be EBADF, and the console must stay
/// empty.
#[test]
fn write_does_not_alias_huge_fd_onto_the_console() {
    let (mut kernel, pid) = boot(&call_then_exit(Sysno::Write, ALIAS_FD_0, STACK, 1));
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.fatal_signal, None);
    assert_eq!(status.code, err_ret(EBADF), "EBADF, not a console write");
    assert!(
        kernel.process(pid).unwrap().console_text().is_empty(),
        "nothing leaked through the aliased descriptor"
    );
}

/// `read(0x1_0000_0000, ...)` used to truncate to the console fd and
/// block forever waiting for input. It must fail fast with EBADF.
#[test]
fn read_does_not_alias_huge_fd_onto_the_console() {
    let (mut kernel, pid) = boot(&call_then_exit(Sysno::Read, ALIAS_FD_0, STACK, 1));
    let status = kernel
        .run_until_exit(pid, 1_000_000)
        .expect("EBADF, not a blocked console read");
    assert_eq!(status.code, err_ret(EBADF));
}

/// `close(0x1_0000_0000)` used to truncate to fd 0 and close the
/// console out from under the process.
#[test]
fn close_does_not_alias_huge_fd_onto_the_console() {
    let (mut kernel, pid) = boot(&call_then_exit(Sysno::Close, ALIAS_FD_0, 0, 0));
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, err_ret(EBADF));
    let proc = kernel.process(pid).unwrap();
    assert!(
        matches!(proc.fds.get(0), Some(dynacut_vm::FileDesc::Console)),
        "fd 0 is still the console"
    );
}

/// The remaining descriptor-taking syscalls reject out-of-range fds the
/// same way.
#[test]
fn bind_listen_accept_reject_out_of_range_fds() {
    for nr in [Sysno::Bind, Sysno::Listen, Sysno::Accept] {
        let (mut kernel, pid) = boot(&call_then_exit(nr, ALIAS_FD_0, 80, 0));
        let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
        assert_eq!(
            status.code,
            err_ret(EBADF),
            "{nr:?} must EBADF an fd wider than u32"
        );
    }
}

/// `bind(fd, port)` with a port wider than u16 is EINVAL, not a bind to
/// the truncated low 16 bits.
#[test]
fn bind_rejects_out_of_range_ports() {
    let program = vec![
        // socket() -> fd in r0
        Insn::Movi(Reg::R0, Sysno::Socket as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R1, Reg::R0),   // fd
        Insn::Movi(Reg::R2, 0x1_0050), // would truncate to port 80
        Insn::Movi(Reg::R0, Sysno::Bind as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R1, Reg::R0),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Syscall,
    ];
    let (mut kernel, pid) = boot(&program);
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, err_ret(22), "EINVAL, not a bind to port 80");
    assert!(!kernel.is_listening(80));
}

/// `kill(0x1_0000_0001, SIGKILL)` used to truncate the target to pid 1
/// — the caller itself here — and kill it. It must be ESRCH and deliver
/// nothing.
#[test]
fn kill_does_not_alias_huge_pid_onto_an_existing_process() {
    let (mut kernel, pid) = boot(&call_then_exit(Sysno::Kill, ALIAS_PID_1, SIGKILL_NUMBER, 0));
    let status = kernel
        .run_until_exit(pid, 1_000_000)
        .expect("the caller survives its own wild kill");
    assert_eq!(status.fatal_signal, None, "no signal was delivered");
    assert_eq!(status.code, err_ret(ESRCH), "ESRCH, same as a vacant pid");
}

/// Wild lengths and wrapping ranges fail with an errno. Each of these
/// used to take the host down: `write`/`open` allocated a buffer of the
/// guest's length before the range check (1 TiB aborted the process,
/// `u64::MAX` panicked on capacity overflow), and the mapping calls
/// overflowed page alignment, the free-range search or `start + len`.
#[test]
fn wild_lengths_and_wrapping_ranges_fail_with_an_errno() {
    let cases = [
        (Sysno::Write, 0, STACK, 1 << 40, EFAULT),
        (Sysno::Write, 0, STACK, u64::MAX, EFAULT),
        (Sysno::Open, STACK, u64::MAX, 0, EFAULT),
        (Sysno::Mmap, 0, u64::MAX, 3, ENOMEM),
        (Sysno::Mmap, 0, u64::MAX - PAGE_SIZE, 3, ENOMEM),
        (Sysno::Munmap, STACK, u64::MAX, 0, EINVAL),
        (Sysno::Mprotect, STACK, u64::MAX, 3, EINVAL),
        (Sysno::Munmap, TOP_PAGE, 2 * PAGE_SIZE, 0, EINVAL),
        (Sysno::Mprotect, TOP_PAGE, 2 * PAGE_SIZE, 3, EINVAL),
    ];
    for (nr, arg0, arg1, arg2, errno) in cases {
        let (mut kernel, pid) = boot(&call_then_exit(nr, arg0, arg1, arg2));
        let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
        let call = format!("{nr:?}({arg0:#x}, {arg1:#x}, {arg2:#x})");
        assert_eq!(status.fatal_signal, None, "{call} killed the caller");
        assert_eq!(status.code, err_ret(errno), "{call}");
        assert!(kernel.process(pid).unwrap().console_text().is_empty());
    }
}

/// An `mmap` hint whose range wraps past the top of the address space
/// is unusable, like one that overlaps a mapping: the kernel places the
/// mapping elsewhere instead of overflowing `hint + len`.
#[test]
fn mmap_places_a_wrapping_hint_elsewhere() {
    let (mut kernel, pid) = boot(&call_then_exit(Sysno::Mmap, TOP_PAGE, 2 * PAGE_SIZE, 3));
    let addr = kernel.run_until_exit(pid, 1_000_000).expect("exits").code;
    assert!(
        !dynacut_vm::is_err(addr),
        "mmap placed the mapping: {addr:#x}"
    );
    assert_ne!(addr, TOP_PAGE);
    let mem = &kernel.process(pid).unwrap().mem;
    assert!(mem.vma_at(addr).is_some() && mem.vma_at(addr + PAGE_SIZE).is_some());
}

/// An address no test maps.
const UNMAPPED: u64 = 0xdead_0000;
const PORT: u16 = 7070;

/// `read(R6, UNMAPPED, 5)` into R7, then `read(R6, STACK, 5)` into R8,
/// then `exit(0)`.
fn read_twice() -> Vec<Insn> {
    let mut insns = Vec::new();
    for (buf, result) in [(UNMAPPED, Reg::R7), (STACK, Reg::R8)] {
        insns.extend([
            Insn::Movi(Reg::R0, Sysno::Read as u64),
            Insn::Mov(Reg::R1, Reg::R6),
            Insn::Movi(Reg::R2, buf),
            Insn::Movi(Reg::R3, 5),
            Insn::Syscall,
            Insn::Mov(result, Reg::R0),
        ]);
    }
    insns.extend([
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Movi(Reg::R1, 0),
        Insn::Syscall,
    ]);
    insns
}

/// Issues `nr(R6, arg1)`.
fn call_on_r6(nr: Sysno, arg1: u64) -> [Insn; 4] {
    [
        Insn::Movi(Reg::R0, nr as u64),
        Insn::Mov(Reg::R1, Reg::R6),
        Insn::Movi(Reg::R2, arg1),
        Insn::Syscall,
    ]
}

/// After `read_twice`, the EFAULT read returned EFAULT and the next read
/// got the source's first five bytes.
fn assert_efault_kept_the_bytes(kernel: &Kernel, pid: Pid, source: &str) {
    let proc = kernel.process(pid).unwrap();
    assert_eq!(proc.exit_code, Some(0), "{source}: exits normally");
    assert_eq!(proc.cpu.reg(Reg::R7), Errno::Efault.ret(), "{source}");
    assert_eq!(proc.cpu.reg(Reg::R8), 5, "{source}: the retry reads");
    let mut got = [0u8; 5];
    proc.mem.read_unchecked(STACK, &mut got);
    assert_eq!(&got, b"hello", "{source}: EFAULT consumed nothing");
}

/// A `read` whose destination is unmapped fails with EFAULT and leaves
/// the file offset where it was: the retry gets the file's first bytes.
#[test]
fn read_efault_keeps_the_file_offset() {
    let path = b"/etc/motd";
    let mut program = vec![
        Insn::Movi(Reg::R0, Sysno::Open as u64),
        Insn::Movi(Reg::R1, STACK),
        Insn::Movi(Reg::R2, path.len() as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R6, Reg::R0),
    ];
    program.extend(read_twice());
    let (mut kernel, pid) = boot_with(&program, |proc| proc.mem.write_unchecked(STACK, path));
    kernel.add_file("/etc/motd", b"hello, world");
    kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_efault_kept_the_bytes(&kernel, pid, "file");
}

/// The same for a connection: an EFAULT read leaves the client's bytes
/// queued, where it used to drain them and the retry blocked forever.
#[test]
fn read_efault_keeps_the_connection_bytes() {
    let mut program = vec![
        Insn::Movi(Reg::R0, Sysno::Socket as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R6, Reg::R0),
    ];
    program.extend(call_on_r6(Sysno::Bind, u64::from(PORT)));
    program.extend(call_on_r6(Sysno::Listen, 0));
    program.extend(call_on_r6(Sysno::Accept, 0));
    program.push(Insn::Mov(Reg::R6, Reg::R0));
    program.extend(read_twice());
    let (mut kernel, pid) = boot(&program);
    kernel.run_for(100_000);
    let conn = kernel.client_connect(PORT).expect("the guest listens");
    kernel.client_send(conn, b"hello").unwrap();
    kernel
        .run_until_exit(pid, 1_000_000)
        .expect("the retry finds the bytes instead of blocking");
    assert_efault_kept_the_bytes(&kernel, pid, "connection");
}

/// The descriptor counter stops at the top of the `u32` space instead
/// of wrapping: a table holding fd `u32::MAX` allocates nothing more.
#[test]
fn fd_table_at_u32_max_allocates_nothing() {
    let mut table = FdTable::new();
    table.insert(u32::MAX, FileDesc::Socket);
    assert_eq!(table.alloc(FileDesc::Socket), None);
    assert_eq!(table.get(0), Some(&FileDesc::Console));
    assert_eq!(table.iter().count(), 2, "nothing was stored");
}

/// With fd `u32::MAX - 1` in the table, the first `socket()` gets
/// `u32::MAX` and the second EMFILE. The counter used to wrap, so the
/// second socket replaced the console at fd 0.
#[test]
fn socket_past_the_last_fd_is_emfile_not_fd_zero() {
    let mut program = vec![
        Insn::Movi(Reg::R0, Sysno::Socket as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R6, Reg::R0),
    ];
    program.extend(call_then_exit(Sysno::Socket, 0, 0, 0));
    let (mut kernel, pid) = boot_with(&program, |proc| {
        proc.fds.insert(u32::MAX - 1, FileDesc::Socket);
    });
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, Errno::Emfile.ret());
    let proc = kernel.process(pid).unwrap();
    assert_eq!(proc.cpu.reg(Reg::R6), u64::from(u32::MAX));
    assert_eq!(proc.fds.get(0), Some(&FileDesc::Console));
}

/// Inserts a frozen process at pid `u32::MAX`, as a restore of an image
/// carrying that pid would: the pid counter is then used up.
fn insert_last_pid(kernel: &mut Kernel) {
    let last = Pid(u32::MAX);
    kernel.insert_process(Process::new(last, "last")).unwrap();
    kernel.freeze(last).unwrap();
}

/// `fork` with the pid space used up is EAGAIN; the counter used to wrap
/// (a debug-build panic) and insert the child over pid 0's slot.
#[test]
fn fork_past_the_last_pid_is_eagain() {
    let (mut kernel, pid) = boot(&call_then_exit(Sysno::Fork, 0, 0, 0));
    insert_last_pid(&mut kernel);
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, Errno::Eagain.ret());
    assert_eq!(kernel.pids(), vec![pid, Pid(u32::MAX)], "no child");
}

/// `spawn` with the pid space used up fails with a typed error.
#[test]
fn spawn_past_the_last_pid_is_resource_exhausted() {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Syscall);
    let mut builder = ModuleBuilder::new("late", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    let exe = builder.link(&[]).unwrap();
    let mut kernel = Kernel::new();
    insert_last_pid(&mut kernel);
    let err = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap_err();
    assert_eq!(err, VmError::ResourceExhausted("pids"));
    assert_eq!(kernel.pids(), vec![Pid(u32::MAX)]);
}

/// A failed syscall bumps the flight-recorder counter of its errno, and
/// only that one: `read` on a descriptor the process just closed counts
/// one `syscall.failed.ebadf`.
#[test]
fn read_on_a_closed_fd_counts_one_ebadf() {
    let program = vec![
        Insn::Movi(Reg::R0, Sysno::Socket as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R6, Reg::R0), // the fd, kept for the read
        Insn::Mov(Reg::R1, Reg::R0),
        Insn::Movi(Reg::R0, Sysno::Close as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R1, Reg::R6),
        Insn::Movi(Reg::R2, STACK),
        Insn::Movi(Reg::R3, 1),
        Insn::Movi(Reg::R0, Sysno::Read as u64),
        Insn::Syscall,
        Insn::Mov(Reg::R1, Reg::R0),
        Insn::Movi(Reg::R0, Sysno::Exit as u64),
        Insn::Syscall,
    ];
    let (mut kernel, pid) = boot(&program);
    let status = kernel.run_until_exit(pid, 1_000_000).expect("exits");
    assert_eq!(status.code, err_ret(EBADF));
    let failed: Vec<(&str, u64)> = kernel
        .flight()
        .metrics()
        .counters()
        .filter(|(name, _)| name.starts_with("syscall.failed."))
        .collect();
    assert_eq!(failed, vec![(Errno::Ebadf.failed_counter().name(), 1)]);
    assert_eq!(Errno::Ebadf.failed_counter().name(), "syscall.failed.ebadf");
}
