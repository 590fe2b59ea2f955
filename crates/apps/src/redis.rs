//! The Redis analogue: an in-memory key-value store with modelled
//! vulnerable commands for the Table 1 CVE case study.
//!
//! Protocol (line-based, RESP-flavoured): `PING`, `GET k`, `SET k v`,
//! `DEL k`, `SETRANGE off v`, `STRALGO a b`, `CONFIG v`.
//!
//! Three handlers carry deliberately modelled vulnerabilities, placed on a
//! dedicated "vuln page" whose successor page is unmapped so that each
//! exploit deterministically crashes the vanilla server:
//!
//! * **`STRALGO`** — the length check truncates the combined input length
//!   to 6 bits before comparing (an integer-overflow model of the
//!   `STRALGO LCS` bugs, CVE-2021-32625 / CVE-2021-29477): inputs summing
//!   to 64 pass the check as "0" and the scratch `memset` runs off the
//!   page,
//! * **`SETRANGE`** — the offset is never bounds-checked
//!   (CVE-2019-10192/10193): a large offset writes past the page,
//! * **`CONFIG`** — the value is copied into a fixed 24-byte area with no
//!   length check (CVE-2016-8339).

use crate::util::*;
use crate::EVENT_READY;
use dynacut_isa::{Assembler, Cond, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};

/// TCP port.
pub const PORT: u16 = 6379;
/// Configuration file path.
pub const CONFIG_PATH: &str = "/etc/redis.conf";
/// Module (binary) name.
pub const MODULE: &str = "redis";
/// Heap pages touched at startup (the paper's Redis image is the largest
/// of the three servers: 4.1 MB).
pub const HEAP_PAGES: u64 = 160;

/// Command handler functions, in dispatch order. Each is an individually
/// blockable feature.
pub const COMMAND_HANDLERS: [(&str, &str); 7] = [
    ("PING", "rd_cmd_ping"),
    ("GET ", "rd_cmd_get"),
    ("SET ", "rd_cmd_set"),
    ("DEL ", "rd_cmd_del"),
    ("SETRANGE ", "rd_cmd_setrange"),
    ("STRALGO ", "rd_cmd_stralgo"),
    ("CONFIG ", "rd_cmd_config"),
];

/// The graceful error reply path (redirect target for blocked commands).
pub const ERROR_HANDLER: &str = "rd_cmd_err";

/// Reply sent by the error path.
pub const ERR_BLOCKED: &[u8] = b"-ERR blocked\n";
/// Reply for unknown commands.
pub const ERR_UNKNOWN: &[u8] = b"-ERR unknown\n";

/// The configuration file contents.
pub fn config_file() -> Vec<u8> {
    b"port=6379\nmaxmemory=64mb\nappendonly=no\nsave=off\n".to_vec()
}

/// Builds the server binary, linked against the guest libc.
pub fn image(libc: &Image) -> Image {
    let mut asm = Assembler::new();

    // ===== entry ==========================================================
    asm.func("_start");
    asm.call("rd_parse_config");
    asm.call("rd_init_table");
    asm.call("rd_load_rdb");
    let init_mods: Vec<String> = (0..16).map(|i| format!("rd_mod_init_{i:02}")).collect();
    emit_calls(&mut asm, &init_mods);
    emit_touch_heap(&mut asm, HEAP_PAGES, Reg::R9);
    // Map the (deliberately guard-adjacent) page used by the vulnerable
    // handlers, and remember its base.
    asm.push(Insn::Movi(Reg::R1, 0));
    asm.push(Insn::Movi(Reg::R2, 4096));
    asm.push(Insn::Movi(Reg::R3, 0b011));
    asm.call_ext("libc_mmap");
    asm.lea_ext(Reg::R4, "rd_vuln_ptr", 0);
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R0));
    asm.call("rd_setup_listener");
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    emit_event(&mut asm, EVENT_READY);
    asm.jmp("rd_event_loop");

    // ===== init ===========================================================
    asm.func("rd_parse_config");
    asm.lea_ext(Reg::R1, "rd_conf_path", 0);
    asm.push(Insn::Movi(Reg::R2, CONFIG_PATH.len() as u64));
    asm.call_ext("libc_open");
    asm.push(Insn::Mov(Reg::R9, Reg::R0));
    asm.push(Insn::Mov(Reg::R1, Reg::R9));
    asm.lea_ext(Reg::R2, "rd_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R3, 255));
    asm.call_ext("libc_read");
    asm.push(Insn::Mov(Reg::R1, Reg::R9));
    asm.call_ext("libc_close");
    asm.lea_ext(Reg::R1, "rd_conf_buf", 5);
    asm.call_ext("libc_atoi");
    asm.lea_ext(Reg::R4, "rd_port", 0);
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R0));
    asm.push(Insn::Ret);

    asm.func("rd_init_table");
    asm.lea_ext(Reg::R1, "rd_table", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 512));
    asm.call_ext("libc_memset");
    asm.push(Insn::Ret);

    asm.func("rd_load_rdb");
    asm.lea_ext(Reg::R1, "rd_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 128));
    asm.call_ext("libc_checksum");
    asm.push(Insn::Ret);

    emit_busy_family(&mut asm, "rd_mod_init", 16, 8);

    asm.func("rd_setup_listener");
    emit_listener_setup(&mut asm, PORT, Reg::R6);
    asm.push(Insn::Mov(Reg::R0, Reg::R6));
    asm.push(Insn::Ret);

    // ===== helpers ========================================================
    // rd_token(r1 = ptr) -> r0 = length until ' ', '\n' or NUL.
    asm.func("rd_token");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.label("rd_token_loop");
    asm.push(Insn::Ld(Width::B1, Reg::R3, Reg::R1, 0));
    asm.push(Insn::Cmpi(Reg::R3, 0));
    asm.jcc(Cond::Eq, "rd_token_done");
    asm.push(Insn::Cmpi(Reg::R3, b' ' as i32));
    asm.jcc(Cond::Eq, "rd_token_done");
    asm.push(Insn::Cmpi(Reg::R3, b'\n' as i32));
    asm.jcc(Cond::Eq, "rd_token_done");
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.push(Insn::Addi(Reg::R0, 1));
    asm.jmp("rd_token_loop");
    asm.label("rd_token_done");
    asm.push(Insn::Ret);

    // rd_load_key(r1 = ptr) -> r0 = ptr past the token separator; fills
    // rd_keybuf NUL-padded. Clobbers r8, r12, r13.
    asm.func("rd_load_key");
    asm.push(Insn::Mov(Reg::R12, Reg::R1));
    asm.call("rd_token");
    asm.push(Insn::Mov(Reg::R8, Reg::R0));
    asm.push(Insn::Mov(Reg::R13, Reg::R8));
    asm.push(Insn::Cmpi(Reg::R13, 15));
    asm.jcc(Cond::Be, "rd_lk_capped");
    asm.push(Insn::Movi(Reg::R13, 15));
    asm.label("rd_lk_capped");
    asm.lea_ext(Reg::R1, "rd_keybuf", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 16));
    asm.call_ext("libc_memset");
    asm.lea_ext(Reg::R1, "rd_keybuf", 0);
    asm.push(Insn::Mov(Reg::R2, Reg::R12));
    asm.push(Insn::Mov(Reg::R3, Reg::R13));
    asm.call_ext("libc_memcpy");
    asm.push(Insn::Mov(Reg::R0, Reg::R12));
    asm.push(Insn::Add(Reg::R0, Reg::R8));
    asm.push(Insn::Addi(Reg::R0, 1));
    asm.push(Insn::Ret);

    // rd_find() -> r0 = slot addr whose key equals rd_keybuf, or 0.
    asm.func("rd_find");
    asm.lea_ext(Reg::R7, "rd_table", 0);
    asm.push(Insn::Movi(Reg::R6, 0));
    asm.label("rd_find_loop");
    asm.push(Insn::Cmpi(Reg::R6, 8));
    asm.jcc(Cond::Ae, "rd_find_miss");
    asm.push(Insn::Mov(Reg::R1, Reg::R7));
    asm.lea_ext(Reg::R2, "rd_keybuf", 0);
    asm.push(Insn::Movi(Reg::R3, 16));
    asm.call_ext("libc_strncmp");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "rd_find_hit");
    asm.push(Insn::Addi(Reg::R7, 64));
    asm.push(Insn::Addi(Reg::R6, 1));
    asm.jmp("rd_find_loop");
    asm.label("rd_find_hit");
    asm.push(Insn::Mov(Reg::R0, Reg::R7));
    asm.push(Insn::Ret);
    asm.label("rd_find_miss");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.push(Insn::Ret);

    // rd_find_empty() -> r0 = first slot with a NUL key byte, or 0.
    asm.func("rd_find_empty");
    asm.lea_ext(Reg::R7, "rd_table", 0);
    asm.push(Insn::Movi(Reg::R6, 0));
    asm.label("rd_fe_loop");
    asm.push(Insn::Cmpi(Reg::R6, 8));
    asm.jcc(Cond::Ae, "rd_fe_miss");
    asm.push(Insn::Ld(Width::B1, Reg::R4, Reg::R7, 0));
    asm.push(Insn::Cmpi(Reg::R4, 0));
    asm.jcc(Cond::Eq, "rd_fe_hit");
    asm.push(Insn::Addi(Reg::R7, 64));
    asm.push(Insn::Addi(Reg::R6, 1));
    asm.jmp("rd_fe_loop");
    asm.label("rd_fe_hit");
    asm.push(Insn::Mov(Reg::R0, Reg::R7));
    asm.push(Insn::Ret);
    asm.label("rd_fe_miss");
    asm.push(Insn::Movi(Reg::R0, 0));
    asm.push(Insn::Ret);

    // ===== event loop =====================================================
    asm.func("rd_event_loop");
    asm.label("rd_accept_loop");
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.call_ext("libc_accept");
    asm.push(Insn::Mov(Reg::R11, Reg::R0));
    asm.label("rd_serve_loop");
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "rd_req_buf", 0);
    asm.push(Insn::Movi(Reg::R3, 255));
    asm.call_ext("libc_read");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "rd_close_conn");
    asm.lea_ext(Reg::R4, "rd_req_buf", 0);
    asm.push(Insn::Add(Reg::R4, Reg::R0));
    asm.push(Insn::Movi(Reg::R5, 0));
    asm.push(Insn::St(Width::B1, Reg::R4, 0, Reg::R5));
    asm.jmp("rd_dispatch");
    asm.label("rd_close_conn");
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.call_ext("libc_close");
    asm.jmp("rd_accept_loop");

    // ===== dispatcher =====================================================
    asm.func("rd_dispatch");
    for (index, (literal, handler)) in COMMAND_HANDLERS.iter().enumerate() {
        emit_method_test(
            &mut asm,
            "rd_req_buf",
            &format!("rd_c{index}"),
            literal.len() as u64,
            handler,
        );
    }
    emit_write_lit(&mut asm, Reg::R11, "rd_eunk", ERR_UNKNOWN.len() as u64);
    asm.jmp("rd_serve_loop");
    asm.func(ERROR_HANDLER);
    emit_write_lit(&mut asm, Reg::R11, "rd_eblk", ERR_BLOCKED.len() as u64);
    asm.jmp("rd_serve_loop");

    // ===== command handlers ==============================================
    asm.func("rd_cmd_ping");
    emit_write_lit(&mut asm, Reg::R11, "rd_pong", b"+PONG\n".len() as u64);
    asm.jmp("rd_serve_loop");

    asm.func("rd_cmd_get");
    asm.lea_ext(Reg::R1, "rd_req_buf", 4);
    asm.call("rd_load_key");
    asm.call("rd_find");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "rd_get_missing");
    asm.push(Insn::Mov(Reg::R13, Reg::R0));
    asm.push(Insn::Mov(Reg::R1, Reg::R13));
    asm.push(Insn::Addi(Reg::R1, 16));
    asm.call_ext("libc_strlen");
    asm.push(Insn::Mov(Reg::R3, Reg::R0));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.push(Insn::Mov(Reg::R2, Reg::R13));
    asm.push(Insn::Addi(Reg::R2, 16));
    asm.call_ext("libc_write");
    emit_write_lit(&mut asm, Reg::R11, "rd_nl", 1);
    asm.jmp("rd_serve_loop");
    asm.label("rd_get_missing");
    emit_write_lit(&mut asm, Reg::R11, "rd_nil", b"$-1\n".len() as u64);
    asm.jmp("rd_serve_loop");

    asm.func("rd_cmd_set");
    asm.lea_ext(Reg::R1, "rd_req_buf", 4);
    asm.call("rd_load_key");
    asm.push(Insn::Mov(Reg::R12, Reg::R0)); // value pointer
    asm.call("rd_find");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Ne, "rd_set_store");
    asm.call("rd_find_empty");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Ne, "rd_set_store");
    emit_write_lit(&mut asm, Reg::R11, "rd_efull", b"-ERR full\n".len() as u64);
    asm.jmp("rd_serve_loop");
    asm.label("rd_set_store");
    asm.push(Insn::Mov(Reg::R13, Reg::R0)); // slot
    asm.push(Insn::Mov(Reg::R1, Reg::R13));
    asm.lea_ext(Reg::R2, "rd_keybuf", 0);
    asm.push(Insn::Movi(Reg::R3, 16));
    asm.call_ext("libc_memcpy");
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.call("rd_token");
    asm.push(Insn::Mov(Reg::R8, Reg::R0));
    asm.push(Insn::Cmpi(Reg::R8, 47));
    asm.jcc(Cond::Be, "rd_set_len_ok");
    asm.push(Insn::Movi(Reg::R8, 47));
    asm.label("rd_set_len_ok");
    asm.push(Insn::Mov(Reg::R1, Reg::R13));
    asm.push(Insn::Addi(Reg::R1, 16));
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 48));
    asm.call_ext("libc_memset");
    asm.push(Insn::Mov(Reg::R1, Reg::R13));
    asm.push(Insn::Addi(Reg::R1, 16));
    asm.push(Insn::Mov(Reg::R2, Reg::R12));
    asm.push(Insn::Mov(Reg::R3, Reg::R8));
    asm.call_ext("libc_memcpy");
    emit_write_lit(&mut asm, Reg::R11, "rd_ok", b"+OK\n".len() as u64);
    asm.jmp("rd_serve_loop");

    asm.func("rd_cmd_del");
    asm.lea_ext(Reg::R1, "rd_req_buf", 4);
    asm.call("rd_load_key");
    asm.call("rd_find");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "rd_del_missing");
    asm.push(Insn::Mov(Reg::R1, Reg::R0));
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.call_ext("libc_memset");
    emit_write_lit(&mut asm, Reg::R11, "rd_ok", b"+OK\n".len() as u64);
    asm.jmp("rd_serve_loop");
    asm.label("rd_del_missing");
    emit_write_lit(&mut asm, Reg::R11, "rd_nil", b"$-1\n".len() as u64);
    asm.jmp("rd_serve_loop");

    // SETRANGE off v — vulnerable: the offset is never bounds-checked.
    asm.func("rd_cmd_setrange");
    asm.lea_ext(Reg::R12, "rd_req_buf", 9);
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.call_ext("libc_atoi");
    asm.push(Insn::Mov(Reg::R13, Reg::R0)); // offset
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.call("rd_token");
    asm.push(Insn::Mov(Reg::R8, Reg::R12));
    asm.push(Insn::Add(Reg::R8, Reg::R0));
    asm.push(Insn::Addi(Reg::R8, 1)); // value pointer
    asm.push(Insn::Mov(Reg::R1, Reg::R8));
    asm.call("rd_token");
    asm.push(Insn::Mov(Reg::R9, Reg::R0)); // value length
    asm.lea_ext(Reg::R4, "rd_vuln_ptr", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R4, Reg::R4, 0));
    asm.push(Insn::Add(Reg::R4, Reg::R13));
    asm.push(Insn::Mov(Reg::R1, Reg::R4));
    asm.push(Insn::Mov(Reg::R2, Reg::R8));
    asm.push(Insn::Mov(Reg::R3, Reg::R9));
    asm.call_ext("libc_memcpy");
    emit_write_lit(&mut asm, Reg::R11, "rd_ok", b"+OK\n".len() as u64);
    asm.jmp("rd_serve_loop");

    // STRALGO a b — vulnerable: the length check truncates to 6 bits.
    asm.func("rd_cmd_stralgo");
    asm.lea_ext(Reg::R12, "rd_req_buf", 8);
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.call("rd_token");
    asm.push(Insn::Mov(Reg::R13, Reg::R0)); // len(a)
    asm.push(Insn::Mov(Reg::R8, Reg::R12));
    asm.push(Insn::Add(Reg::R8, Reg::R13));
    asm.push(Insn::Addi(Reg::R8, 1));
    asm.push(Insn::Mov(Reg::R1, Reg::R8));
    asm.call("rd_token");
    asm.push(Insn::Add(Reg::R13, Reg::R0)); // sum = len(a) + len(b)
                                            // check = sum & 0x3F — the integer-overflow model.
    asm.push(Insn::Mov(Reg::R4, Reg::R13));
    asm.push(Insn::Movi(Reg::R5, 0x3F));
    asm.push(Insn::And(Reg::R4, Reg::R5));
    asm.push(Insn::Cmpi(Reg::R4, 32));
    asm.jcc(Cond::A, "rd_stralgo_err");
    asm.lea_ext(Reg::R4, "rd_vuln_ptr", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R4, Reg::R4, 0));
    asm.push(Insn::Movi(Reg::R5, 4056));
    asm.push(Insn::Add(Reg::R4, Reg::R5));
    asm.push(Insn::Mov(Reg::R1, Reg::R4));
    asm.push(Insn::Movi(Reg::R2, b'x' as u64));
    asm.push(Insn::Mov(Reg::R3, Reg::R13)); // the REAL sum, not the check
    asm.call_ext("libc_memset");
    emit_write_lit(&mut asm, Reg::R11, "rd_lcs", b"+LCS\n".len() as u64);
    asm.jmp("rd_serve_loop");
    asm.label("rd_stralgo_err");
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "rd_elong",
        b"-ERR too long\n".len() as u64,
    );
    asm.jmp("rd_serve_loop");

    // CONFIG v — vulnerable: fixed 24-byte area, no length check.
    asm.func("rd_cmd_config");
    asm.lea_ext(Reg::R12, "rd_req_buf", 7);
    asm.push(Insn::Mov(Reg::R1, Reg::R12));
    asm.call("rd_token");
    asm.push(Insn::Mov(Reg::R13, Reg::R0));
    asm.lea_ext(Reg::R4, "rd_vuln_ptr", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R4, Reg::R4, 0));
    asm.push(Insn::Movi(Reg::R5, 4072));
    asm.push(Insn::Add(Reg::R4, Reg::R5));
    asm.push(Insn::Mov(Reg::R1, Reg::R4));
    asm.push(Insn::Mov(Reg::R2, Reg::R12));
    asm.push(Insn::Mov(Reg::R3, Reg::R13));
    asm.call_ext("libc_memcpy");
    emit_write_lit(&mut asm, Reg::R11, "rd_ok", b"+OK\n".len() as u64);
    asm.jmp("rd_serve_loop");

    // ===== never-used modules ============================================
    emit_busy_family(&mut asm, "rd_cluster", 12, 8);
    emit_busy_family(&mut asm, "rd_replica", 10, 8);
    emit_busy_family(&mut asm, "rd_script", 10, 8);

    // ===== data ===========================================================
    let mut builder = ModuleBuilder::new(MODULE, ObjectKind::Executable);
    builder.text(asm.finish().expect("redis assembles"));
    builder.rodata("rd_conf_path", CONFIG_PATH.as_bytes());
    for (index, (literal, _)) in COMMAND_HANDLERS.iter().enumerate() {
        builder.rodata(&format!("rd_c{index}"), literal.as_bytes());
    }
    builder.rodata("rd_pong", b"+PONG\n");
    builder.rodata("rd_ok", b"+OK\n");
    builder.rodata("rd_nil", b"$-1\n");
    builder.rodata("rd_nl", b"\n");
    builder.rodata("rd_lcs", b"+LCS\n");
    builder.rodata("rd_eunk", ERR_UNKNOWN);
    builder.rodata("rd_eblk", ERR_BLOCKED);
    builder.rodata("rd_efull", b"-ERR full\n");
    builder.rodata("rd_elong", b"-ERR too long\n");
    builder.bss("rd_conf_buf", 256);
    builder.bss("rd_req_buf", 256);
    builder.bss("rd_keybuf", 16);
    builder.bss("rd_table", 512);
    builder.bss("rd_vuln_ptr", 8);
    builder.bss("rd_port", 8);
    builder.entry("_start");
    builder.link(&[libc]).expect("redis links")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libc::guest_libc;
    use dynacut_vm::{Kernel, LoadSpec, Signal};

    fn boot() -> (Kernel, dynacut_vm::Pid) {
        let libc = guest_libc();
        let exe = image(&libc);
        let mut kernel = Kernel::new();
        kernel.add_file(CONFIG_PATH, &config_file());
        let pid = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
        kernel
            .run_until_event(EVENT_READY, 50_000_000)
            .expect("boots");
        (kernel, pid)
    }

    #[test]
    fn ping_get_set_del_round_trip() {
        let (mut kernel, _) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        assert_eq!(
            kernel.client_request(conn, b"PING\n", 2_000_000).unwrap(),
            b"+PONG\n"
        );
        assert_eq!(
            kernel.client_request(conn, b"GET k1\n", 2_000_000).unwrap(),
            b"$-1\n"
        );
        assert_eq!(
            kernel
                .client_request(conn, b"SET k1 hello\n", 2_000_000)
                .unwrap(),
            b"+OK\n"
        );
        assert_eq!(
            kernel.client_request(conn, b"GET k1\n", 2_000_000).unwrap(),
            b"hello\n"
        );
        assert_eq!(
            kernel
                .client_request(conn, b"SET k1 world\n", 2_000_000)
                .unwrap(),
            b"+OK\n",
            "overwrite existing key"
        );
        assert_eq!(
            kernel.client_request(conn, b"GET k1\n", 2_000_000).unwrap(),
            b"world\n"
        );
        assert_eq!(
            kernel.client_request(conn, b"DEL k1\n", 2_000_000).unwrap(),
            b"+OK\n"
        );
        assert_eq!(
            kernel.client_request(conn, b"GET k1\n", 2_000_000).unwrap(),
            b"$-1\n"
        );
    }

    #[test]
    fn multiple_keys_coexist() {
        let (mut kernel, _) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        for i in 0..4 {
            let cmd = format!("SET key{i} value{i}\n");
            assert_eq!(
                kernel
                    .client_request(conn, cmd.as_bytes(), 2_000_000)
                    .unwrap(),
                b"+OK\n"
            );
        }
        for i in (0..4).rev() {
            let cmd = format!("GET key{i}\n");
            let expect = format!("value{i}\n");
            assert_eq!(
                kernel
                    .client_request(conn, cmd.as_bytes(), 2_000_000)
                    .unwrap(),
                expect.as_bytes()
            );
        }
    }

    #[test]
    fn unknown_command_is_rejected() {
        let (mut kernel, _) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        assert_eq!(
            kernel
                .client_request(conn, b"FLUSHALL\n", 2_000_000)
                .unwrap(),
            ERR_UNKNOWN
        );
    }

    #[test]
    fn benign_vulnerable_commands_work() {
        let (mut kernel, pid) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        assert_eq!(
            kernel
                .client_request(conn, b"SETRANGE 8 abc\n", 2_000_000)
                .unwrap(),
            b"+OK\n"
        );
        assert_eq!(
            kernel
                .client_request(conn, b"STRALGO abcd efgh\n", 2_000_000)
                .unwrap(),
            b"+LCS\n"
        );
        assert_eq!(
            kernel
                .client_request(conn, b"CONFIG maxmem=128\n", 2_000_000)
                .unwrap(),
            b"+OK\n"
        );
        assert!(kernel.exit_status(pid).is_none(), "server alive");
    }

    #[test]
    fn stralgo_integer_overflow_crashes_vanilla_server() {
        let (mut kernel, pid) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        // 32 + 32 = 64 ≡ 0 (mod 64): passes the truncated check, memsets
        // 64 bytes at page offset 4056 → page overrun → SIGSEGV.
        let a = "a".repeat(32);
        let b = "b".repeat(32);
        let attack = format!("STRALGO {a} {b}\n");
        let reply = kernel
            .client_request(conn, attack.as_bytes(), 5_000_000)
            .unwrap();
        assert!(reply.is_empty(), "no reply: server crashed");
        let status = kernel.exit_status(pid).expect("server dead");
        assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
    }

    #[test]
    fn setrange_oob_offset_crashes_vanilla_server() {
        let (mut kernel, pid) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        let reply = kernel
            .client_request(conn, b"SETRANGE 5000 xyz\n", 5_000_000)
            .unwrap();
        assert!(reply.is_empty());
        let status = kernel.exit_status(pid).expect("server dead");
        assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
    }

    #[test]
    fn config_overflow_crashes_vanilla_server() {
        let (mut kernel, pid) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        let long_value = "v".repeat(64);
        let attack = format!("CONFIG {long_value}\n");
        let reply = kernel
            .client_request(conn, attack.as_bytes(), 5_000_000)
            .unwrap();
        assert!(reply.is_empty());
        let status = kernel.exit_status(pid).expect("server dead");
        assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
    }

    #[test]
    fn command_handlers_are_locatable_features() {
        let libc = guest_libc();
        let exe = image(&libc);
        for (_, handler) in COMMAND_HANDLERS {
            assert!(!exe.blocks_of_function(handler).is_empty(), "{handler}");
        }
        assert!(exe.symbols.contains_key(ERROR_HANDLER));
    }
}
