//! Synthesising the injectable fault-handler and verifier libraries.
//!
//! DynaCut "allows inserting a signal handler to capture the unexpected
//! `int3` execution" (paper §3.2.2). The handler is a position-independent
//! shared library, built here from scratch per rewrite with the redirect
//! table baked into its `.data`, and injected into the checkpointed
//! process by [`ProcessImage::inject_library`]. The next cycle that
//! injects one unloads it with [`ProcessImage::unload_module`], so a
//! process maps one live library (DESIGN §7).
//!
//! [`ProcessImage::inject_library`]: dynacut_criu::ProcessImage::inject_library
//! [`ProcessImage::unload_module`]: dynacut_criu::ProcessImage::unload_module

use dynacut_isa::{Assembler, Cond, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjError, ObjectKind};
use dynacut_vm::{Sysno, SIG_FRAME_FAULT_ADDR, SIG_FRAME_PC};

/// The signal frame's faulting address, as a load displacement.
const FRAME_FAULT_ADDR: i32 = frame_disp(SIG_FRAME_FAULT_ADDR);
/// The signal frame's saved pc, as a store displacement.
const FRAME_PC: i32 = frame_disp(SIG_FRAME_PC);

/// A signal-frame field's offset as a load/store displacement; an
/// offset that does not fit fails the build.
const fn frame_disp(offset: u64) -> i32 {
    assert!(
        offset <= i32::MAX as u64,
        "a signal-frame offset fits in i32"
    );
    #[allow(
        clippy::cast_possible_truncation,
        reason = "the assertion above bounds the offset"
    )]
    let disp = offset as i32;
    disp
}

/// Bit 63 of an `emit_event` code marks a verifier report; the remaining
/// bits carry the falsely-blocked address. Defined in the VM's flight
/// recorder (the kernel decodes tagged codes into journal events) and
/// re-exported here so the library builder and its callers share one
/// definition.
pub use dynacut_vm::events::VERIFIER_EVENT_BIT;

/// Exit code used when blocked code is reached and no redirect exists.
const BLOCKED_EXIT_CODE: u64 = 135;

/// Module name of the library [`build_fault_handler`] builds.
const FAULT_HANDLER_LIBRARY: &str = "dc_sighandler";

/// Module name of the library [`build_verifier_library`] builds.
const VERIFIER_LIBRARY: &str = "dc_verifier";

/// Every library a customize cycle injects, by module name.
const INJECTED_LIBRARIES: [&str; 2] = [FAULT_HANDLER_LIBRARY, VERIFIER_LIBRARY];

/// Names a built handler or verifier library for its injection: the
/// session's `injection`th injected library maps as `dc_sighandler@N`
/// or `dc_verifier@N`. Repeated customizations inject repeatedly, and
/// the counter keeps names unique so the registry and module tables
/// stay unambiguous. [`is_injected`] recognises exactly these names.
pub(crate) fn name_injected(library: &mut Image, injection: u64) {
    debug_assert!(INJECTED_LIBRARIES.contains(&library.name.as_str()));
    library.name = format!("{}@{injection}", library.name);
}

/// Whether a mapped module is a library [`name_injected`] named.
pub(crate) fn is_injected(module: &str) -> bool {
    module.split_once('@').is_some_and(|(library, injection)| {
        INJECTED_LIBRARIES.contains(&library) && injection.parse::<u64>().is_ok()
    })
}

fn emit_restorer(asm: &mut Assembler) {
    // After the handler `ret`s, the stack pointer sits at the signal
    // frame base; `sigreturn(sp)` restores the saved context.
    asm.func("dc_restorer");
    asm.push(Insn::Movi(Reg::R0, Sysno::Sigreturn as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::SP));
    asm.push(Insn::Syscall);
}

fn emit_exit(asm: &mut Assembler, label: &str) {
    asm.label(label);
    asm.push(Insn::Movi(Reg::R0, Sysno::Exit as u64));
    asm.push(Insn::Movi(Reg::R1, BLOCKED_EXIT_CODE));
    asm.push(Insn::Syscall);
}

/// Builds the redirect fault-handler library.
///
/// `redirects` maps **absolute** blocked addresses to **absolute** resume
/// addresses (the application's default error path). On `SIGTRAP`, the
/// handler looks the faulting address up; on a hit it overwrites the
/// frame's saved program counter so `sigreturn` resumes at the error path
/// (paper Figure 5 step ③); on a miss it exits.
///
/// # Errors
///
/// Propagates assembler/linker failures (should not occur for valid
/// tables).
pub fn build_fault_handler(redirects: &[(u64, u64)]) -> Result<Image, ObjError> {
    let mut asm = Assembler::new();
    asm.func("dc_handler");
    // r2 = signal frame (kernel ABI); keep it in r13 across the loop.
    asm.push(Insn::Mov(Reg::R13, Reg::R2));
    asm.push(Insn::Ld(Width::B8, Reg::R3, Reg::R13, FRAME_FAULT_ADDR));
    asm.lea_ext(Reg::R4, "dc_table", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R5, Reg::R4, 0));
    asm.push(Insn::Movi(Reg::R6, 0));
    asm.label("lookup");
    asm.push(Insn::Cmp(Reg::R6, Reg::R5));
    asm.jcc(Cond::Ae, "miss");
    asm.push(Insn::Mov(Reg::R7, Reg::R6));
    asm.push(Insn::Muli(Reg::R7, 16));
    asm.push(Insn::Add(Reg::R7, Reg::R4));
    asm.push(Insn::Ld(Width::B8, Reg::R8, Reg::R7, 8)); // from
    asm.push(Insn::Cmp(Reg::R8, Reg::R3));
    asm.jcc(Cond::Ne, "next");
    asm.push(Insn::Ld(Width::B8, Reg::R9, Reg::R7, 16)); // to
    asm.push(Insn::St(Width::B8, Reg::R13, FRAME_PC, Reg::R9));
    asm.push(Insn::Ret);
    asm.label("next");
    asm.push(Insn::Addi(Reg::R6, 1));
    asm.jmp("lookup");
    emit_exit(&mut asm, "miss");
    emit_restorer(&mut asm);

    let mut table = Vec::with_capacity(8 + redirects.len() * 16);
    table.extend_from_slice(&(redirects.len() as u64).to_le_bytes());
    for (from, to) in redirects {
        table.extend_from_slice(&from.to_le_bytes());
        table.extend_from_slice(&to.to_le_bytes());
    }

    let mut builder = ModuleBuilder::new(FAULT_HANDLER_LIBRARY, ObjectKind::SharedLib);
    builder.text(asm.finish()?);
    builder.data("dc_table", &table);
    builder.link(&[])
}

/// Builds the verifier library (paper §3.2.3).
///
/// `originals` maps **absolute** patched addresses to the original byte.
/// On `SIGTRAP`, the handler makes the page writable, restores the byte,
/// reports the address to the host via `emit_event` (tagged with
/// [`VERIFIER_EVENT_BIT`]), re-protects the page, and retries the
/// instruction — "instead of terminating program execution …, the
/// verifier library restores the original instructions and logs the false
/// addresses".
///
/// # Errors
///
/// Propagates assembler/linker failures.
pub fn build_verifier_library(originals: &[(u64, u8)]) -> Result<Image, ObjError> {
    let mut asm = Assembler::new();
    asm.func("dc_handler");
    asm.push(Insn::Mov(Reg::R13, Reg::R2)); // frame
    asm.push(Insn::Ld(Width::B8, Reg::R3, Reg::R13, FRAME_FAULT_ADDR));
    asm.push(Insn::Mov(Reg::R10, Reg::R3)); // fault addr survives syscalls
    asm.lea_ext(Reg::R4, "dc_vtable", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R5, Reg::R4, 0));
    asm.push(Insn::Movi(Reg::R6, 0));
    asm.label("lookup");
    asm.push(Insn::Cmp(Reg::R6, Reg::R5));
    asm.jcc(Cond::Ae, "miss");
    asm.push(Insn::Mov(Reg::R7, Reg::R6));
    asm.push(Insn::Muli(Reg::R7, 16));
    asm.push(Insn::Add(Reg::R7, Reg::R4));
    asm.push(Insn::Ld(Width::B8, Reg::R8, Reg::R7, 8)); // addr
    asm.push(Insn::Cmp(Reg::R8, Reg::R10));
    asm.jcc(Cond::Ne, "next");
    asm.push(Insn::Ld(Width::B8, Reg::R9, Reg::R7, 16)); // original byte
                                                         // page = addr & !0xFFF
    asm.push(Insn::Mov(Reg::R12, Reg::R10));
    asm.push(Insn::Movi(Reg::R11, !0xFFFu64));
    asm.push(Insn::And(Reg::R12, Reg::R11));
    // mprotect(page, 4096, rwx)
    asm.push(Insn::Movi(Reg::R0, Sysno::Mprotect as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.push(Insn::Movi(Reg::R2, 4096));
    asm.push(Insn::Movi(Reg::R3, 0b111));
    asm.push(Insn::Syscall);
    // restore the original byte
    asm.push(Insn::St(Width::B1, Reg::R10, 0, Reg::R9));
    // mprotect(page, 4096, r-x)
    asm.push(Insn::Movi(Reg::R0, Sysno::Mprotect as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.push(Insn::Movi(Reg::R2, 4096));
    asm.push(Insn::Movi(Reg::R3, 0b101));
    asm.push(Insn::Syscall);
    // report the false positive to the host
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R11, VERIFIER_EVENT_BIT));
    asm.push(Insn::Or(Reg::R1, Reg::R11));
    asm.push(Insn::Syscall);
    // saved pc is unchanged: sigreturn retries the (healed) instruction
    asm.push(Insn::Ret);
    asm.label("next");
    asm.push(Insn::Addi(Reg::R6, 1));
    asm.jmp("lookup");
    emit_exit(&mut asm, "miss");
    emit_restorer(&mut asm);

    let mut table = Vec::with_capacity(8 + originals.len() * 16);
    table.extend_from_slice(&(originals.len() as u64).to_le_bytes());
    for (addr, byte) in originals {
        table.extend_from_slice(&addr.to_le_bytes());
        table.extend_from_slice(&u64::from(*byte).to_le_bytes());
    }

    let mut builder = ModuleBuilder::new(VERIFIER_LIBRARY, ObjectKind::SharedLib);
    builder.text(asm.finish()?);
    builder.data("dc_vtable", &table);
    builder.link(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_handler_exports_handler_and_restorer() {
        let image = build_fault_handler(&[(0x40_0040, 0x40_0100)]).unwrap();
        assert!(image.symbols.contains_key("dc_handler"));
        assert!(image.symbols.contains_key("dc_restorer"));
        assert_eq!(image.kind, ObjectKind::SharedLib);
        assert!(image.imports.is_empty(), "self-contained: no PLT needed");
    }

    #[test]
    fn redirect_table_layout() {
        let image = build_fault_handler(&[(0xAAAA, 0xBBBB), (0xCCCC, 0xDDDD)]).unwrap();
        let table_off = usize::try_from(image.symbols["dc_table"].offset - image.data_off).unwrap();
        let data = &image.data[table_off..];
        assert_eq!(u64::from_le_bytes(data[0..8].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(data[8..16].try_into().unwrap()), 0xAAAA);
        assert_eq!(u64::from_le_bytes(data[16..24].try_into().unwrap()), 0xBBBB);
        assert_eq!(u64::from_le_bytes(data[24..32].try_into().unwrap()), 0xCCCC);
    }

    #[test]
    fn verifier_table_stores_bytes_as_words() {
        let image = build_verifier_library(&[(0x1234, 0xAB)]).unwrap();
        let table_off =
            usize::try_from(image.symbols["dc_vtable"].offset - image.data_off).unwrap();
        let data = &image.data[table_off..];
        assert_eq!(u64::from_le_bytes(data[0..8].try_into().unwrap()), 1);
        assert_eq!(u64::from_le_bytes(data[8..16].try_into().unwrap()), 0x1234);
        assert_eq!(u64::from_le_bytes(data[16..24].try_into().unwrap()), 0xAB);
    }

    #[test]
    fn empty_tables_are_valid() {
        assert!(build_fault_handler(&[]).is_ok());
        assert!(build_verifier_library(&[]).is_ok());
    }

    #[test]
    fn injected_names_are_recognised_and_nothing_else() {
        for mut library in [
            build_fault_handler(&[]).unwrap(),
            build_verifier_library(&[]).unwrap(),
        ] {
            assert!(!is_injected(&library.name), "unnamed build");
            name_injected(&mut library, 7);
            assert!(is_injected(&library.name), "{}", library.name);
        }
        for other in [
            "libc",
            "redis",
            "redis@1",
            "dc_sighandler@",
            "dc_verifier@x",
            "dc_sighandler@1@2",
        ] {
            assert!(!is_injected(other), "{other}");
        }
    }
}
