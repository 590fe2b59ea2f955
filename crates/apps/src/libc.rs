//! The guest C library: syscall wrappers plus string/memory routines,
//! linked by every guest application through the PLT.
//!
//! Routing the applications' kernel entries through PLT stubs is what
//! makes the paper's §4.2 PLT-surface experiments (ret2plt, BROP)
//! reproducible: after initialization, DynaCut can disable the
//! `libc_fork` stub of the Nginx analogue just as the paper disables
//! `fork@plt`.

use dynacut_isa::{Assembler, Cond, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};
use dynacut_vm::Sysno;

/// Calling convention: arguments in `r1..=r5`, result in `r0`; all
/// registers caller-saved.
///
/// Exported functions:
/// `libc_exit`, `libc_write`, `libc_read`, `libc_open`, `libc_close`,
/// `libc_socket`, `libc_bind`, `libc_listen`, `libc_accept`,
/// `libc_fork`, `libc_getpid`, `libc_nanosleep`, `libc_sigaction`,
/// `libc_mmap`, `libc_munmap`, `libc_mprotect`, `libc_clock`,
/// `libc_emit_event`, `libc_kill`, `libc_strlen`, `libc_strncmp`,
/// `libc_memset`, `libc_memcpy`, `libc_atoi`, `libc_checksum`.
pub fn guest_libc() -> Image {
    let mut asm = Assembler::new();

    // --- syscall wrappers -----------------------------------------------
    let wrappers: [(&str, Sysno); 19] = [
        ("libc_exit", Sysno::Exit),
        ("libc_write", Sysno::Write),
        ("libc_read", Sysno::Read),
        ("libc_open", Sysno::Open),
        ("libc_close", Sysno::Close),
        ("libc_socket", Sysno::Socket),
        ("libc_bind", Sysno::Bind),
        ("libc_listen", Sysno::Listen),
        ("libc_accept", Sysno::Accept),
        ("libc_fork", Sysno::Fork),
        ("libc_getpid", Sysno::Getpid),
        ("libc_nanosleep", Sysno::Nanosleep),
        ("libc_sigaction", Sysno::Sigaction),
        ("libc_mmap", Sysno::Mmap),
        ("libc_munmap", Sysno::Munmap),
        ("libc_mprotect", Sysno::Mprotect),
        ("libc_clock", Sysno::ClockGettime),
        ("libc_emit_event", Sysno::EmitEvent),
        ("libc_kill", Sysno::Kill),
    ];
    for (name, sysno) in wrappers {
        asm.func(name);
        asm.push(Insn::Movi(Reg::R0, sysno as u64));
        asm.push(Insn::Syscall);
        asm.push(Insn::Ret);
    }

    // --- strlen(r1) -> r0 -------------------------------------------------
    asm.func("libc_strlen");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.label("strlen_loop");
    asm.push(Insn::Ld(Width::B1, Reg::R3, Reg::R1, 0));
    asm.push(Insn::Cmpi(Reg::R3, 0));
    asm.jcc(Cond::Eq, "strlen_done");
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Addi(Reg::R0, 1));
    asm.jmp("strlen_loop");
    asm.label("strlen_done");
    asm.push(Insn::Ret);

    // --- strncmp(r1, r2, r3) -> r0 (0 equal / 1 differ) -------------------
    asm.func("libc_strncmp");
    asm.label("strncmp_loop");
    asm.push(Insn::Cmpi(Reg::R3, 0));
    asm.jcc(Cond::Eq, "strncmp_equal");
    asm.push(Insn::Ld(Width::B1, Reg::R4, Reg::R1, 0));
    asm.push(Insn::Ld(Width::B1, Reg::R5, Reg::R2, 0));
    asm.push(Insn::Cmp(Reg::R4, Reg::R5));
    asm.jcc(Cond::Ne, "strncmp_differ");
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Addi(Reg::R2, 1));
    asm.push(Insn::Addi(Reg::R3, -1));
    asm.jmp("strncmp_loop");
    asm.label("strncmp_equal");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.push(Insn::Ret);
    asm.label("strncmp_differ");
    asm.push(Insn::Movi(Reg::R0, 1));
    asm.push(Insn::Ret);

    // --- memset(r1=dst, r2=byte, r3=len) ----------------------------------
    asm.func("libc_memset");
    asm.label("memset_loop");
    asm.push(Insn::Cmpi(Reg::R3, 0));
    asm.jcc(Cond::Eq, "memset_done");
    asm.push(Insn::St(Width::B1, Reg::R1, 0, Reg::R2));
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Addi(Reg::R3, -1));
    asm.jmp("memset_loop");
    asm.label("memset_done");
    asm.push(Insn::Ret);

    // --- memcpy(r1=dst, r2=src, r3=len) ------------------------------------
    asm.func("libc_memcpy");
    asm.label("memcpy_loop");
    asm.push(Insn::Cmpi(Reg::R3, 0));
    asm.jcc(Cond::Eq, "memcpy_done");
    asm.push(Insn::Ld(Width::B1, Reg::R4, Reg::R2, 0));
    asm.push(Insn::St(Width::B1, Reg::R1, 0, Reg::R4));
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Addi(Reg::R2, 1));
    asm.push(Insn::Addi(Reg::R3, -1));
    asm.jmp("memcpy_loop");
    asm.label("memcpy_done");
    asm.push(Insn::Ret);

    // --- atoi(r1) -> r0 (decimal, stops at non-digit) ----------------------
    asm.func("libc_atoi");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.label("atoi_loop");
    asm.push(Insn::Ld(Width::B1, Reg::R3, Reg::R1, 0));
    asm.push(Insn::Cmpi(Reg::R3, b'0' as i32));
    asm.jcc(Cond::B, "atoi_done");
    asm.push(Insn::Cmpi(Reg::R3, b'9' as i32));
    asm.jcc(Cond::A, "atoi_done");
    asm.push(Insn::Muli(Reg::R0, 10));
    asm.push(Insn::Addi(Reg::R3, -(b'0' as i32)));
    asm.push(Insn::Add(Reg::R0, Reg::R3));
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.jmp("atoi_loop");
    asm.label("atoi_done");
    asm.push(Insn::Ret);

    // --- checksum(r1=ptr, r2=len) -> r0 (busy-work rolling sum) ------------
    asm.func("libc_checksum");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.label("checksum_loop");
    asm.push(Insn::Cmpi(Reg::R2, 0));
    asm.jcc(Cond::Eq, "checksum_done");
    asm.push(Insn::Ld(Width::B1, Reg::R3, Reg::R1, 0));
    asm.push(Insn::Add(Reg::R0, Reg::R3));
    asm.push(Insn::Movi(Reg::R4, 31));
    asm.push(Insn::Mul(Reg::R0, Reg::R4));
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Addi(Reg::R2, -1));
    asm.jmp("checksum_loop");
    asm.label("checksum_done");
    asm.push(Insn::Ret);

    let mut builder = ModuleBuilder::new("libc", ObjectKind::SharedLib);
    builder.text(asm.finish().expect("libc assembles"));
    builder.link(&[]).expect("libc links")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynacut_vm::{Kernel, LoadSpec};

    /// Runs a tiny program that exercises a libc routine and exits with
    /// the result as its exit code.
    fn run_with_libc(configure: impl FnOnce(&mut Assembler), data: &[(&str, &[u8])]) -> u64 {
        let libc = guest_libc();
        let mut asm = Assembler::new();
        asm.func("_start");
        configure(&mut asm);
        // exit(r0): move result into r1 first.
        asm.push(Insn::Mov(Reg::R1, Reg::R0));
        asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
        asm.push(Insn::Syscall);
        let mut builder = ModuleBuilder::new("probe", ObjectKind::Executable);
        builder.text(asm.finish().unwrap());
        for (name, bytes) in data {
            builder.data(name, bytes);
        }
        builder.entry("_start");
        let exe = builder.link(&[&libc]).unwrap();

        let mut kernel = Kernel::new();
        let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
        kernel.run_until_exit(pid, 10_000_000).expect("exits").code
    }

    #[test]
    fn strlen_counts_to_nul() {
        let result = run_with_libc(
            |asm| {
                asm.lea_ext(Reg::R1, "s", 0);
                asm.call_ext("libc_strlen");
            },
            &[("s", b"hello\0")],
        );
        assert_eq!(result, 5);
    }

    #[test]
    fn strncmp_distinguishes_prefixes() {
        let equal = run_with_libc(
            |asm| {
                asm.lea_ext(Reg::R1, "a", 0);
                asm.lea_ext(Reg::R2, "b", 0);
                asm.push(Insn::Movi(Reg::R3, 4));
                asm.call_ext("libc_strncmp");
            },
            &[("a", b"GET /x\0"), ("b", b"GET \0")],
        );
        assert_eq!(equal, 0);
        let differ = run_with_libc(
            |asm| {
                asm.lea_ext(Reg::R1, "a", 0);
                asm.lea_ext(Reg::R2, "b", 0);
                asm.push(Insn::Movi(Reg::R3, 4));
                asm.call_ext("libc_strncmp");
            },
            &[("a", b"PUT /x\0"), ("b", b"GET \0")],
        );
        assert_eq!(differ, 1);
    }

    #[test]
    fn atoi_parses_decimal() {
        let result = run_with_libc(
            |asm| {
                asm.lea_ext(Reg::R1, "n", 0);
                asm.call_ext("libc_atoi");
            },
            &[("n", b"8080;\0")],
        );
        assert_eq!(result, 8080);
    }

    #[test]
    fn memset_and_checksum() {
        // memset 8 bytes to 1, checksum them: rolling sum is deterministic.
        let result = run_with_libc(
            |asm| {
                asm.lea_ext(Reg::R1, "buf", 0);
                asm.push(Insn::Movi(Reg::R2, 1));
                asm.push(Insn::Movi(Reg::R3, 8));
                asm.call_ext("libc_memset");
                asm.lea_ext(Reg::R1, "buf", 0);
                asm.push(Insn::Movi(Reg::R2, 8));
                asm.call_ext("libc_checksum");
                // Keep only the low byte so it fits an exit code check.
                asm.push(Insn::Movi(Reg::R4, 0xFF));
                asm.push(Insn::And(Reg::R0, Reg::R4));
            },
            &[("buf", &[0u8; 8])],
        );
        // Computed on the host for cross-validation.
        let mut expect: u64 = 0;
        for _ in 0..8 {
            expect = (expect + 1).wrapping_mul(31);
        }
        assert_eq!(result, expect & 0xFF);
    }

    #[test]
    fn memcpy_copies() {
        let result = run_with_libc(
            |asm| {
                asm.lea_ext(Reg::R1, "dst", 0);
                asm.lea_ext(Reg::R2, "src", 0);
                asm.push(Insn::Movi(Reg::R3, 3));
                asm.call_ext("libc_memcpy");
                asm.lea_ext(Reg::R1, "dst", 0);
                asm.call_ext("libc_strlen");
            },
            &[("dst", &[0u8; 8]), ("src", b"abc\0")],
        );
        assert_eq!(result, 3);
    }

    #[test]
    fn libc_exports_all_wrappers() {
        let libc = guest_libc();
        for name in [
            "libc_exit",
            "libc_write",
            "libc_read",
            "libc_fork",
            "libc_socket",
            "libc_accept",
            "libc_sigaction",
            "libc_strlen",
            "libc_checksum",
        ] {
            assert!(libc.symbols.contains_key(name), "missing {name}");
        }
    }
}
