//! The Lighttpd analogue: a single-process, event-driven web server with
//! WebDAV `PUT`/`DELETE` (paper §4: Lighttpd 1.4.59, "event-driven
//! single-process architecture").

use crate::util::*;
use crate::EVENT_READY;
use dynacut_isa::{Assembler, Cond, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};

/// TCP port the server listens on.
pub const PORT: u16 = 8081;
/// Configuration file path.
pub const CONFIG_PATH: &str = "/etc/lighttpd.conf";
/// Module (binary) name.
pub const MODULE: &str = "lighttpd";

/// HTTP method handlers, in dispatch order.
pub const METHOD_HANDLERS: [(&str, &str); 4] = [
    ("GET ", "lt_get_handler"),
    ("HEAD ", "lt_head_handler"),
    ("PUT ", "lt_put_handler"),
    ("DELETE ", "lt_delete_handler"),
];

/// The `403 Forbidden` error path.
pub const ERROR_HANDLER: &str = "lt_http_forbidden";

/// Heap pages touched at startup (≈ half of the Nginx analogue's, like
/// the paper's 2.3 MB vs 4.9 MB image sizes).
pub const HEAP_PAGES: u64 = 45;

/// The configuration file contents.
pub fn config_file() -> Vec<u8> {
    b"port=8081\nserver.modules=(mod_webdav,mod_access)\nindex=index.html\n".to_vec()
}

/// Builds the server binary, linked against the guest libc.
pub fn image(libc: &Image) -> Image {
    let mut asm = Assembler::new();

    asm.func("_start");
    asm.call("lt_parse_config");
    asm.call("lt_plugins_init");
    let init_mods: Vec<String> = (0..12).map(|i| format!("lt_mod_init_{i:02}")).collect();
    emit_calls(&mut asm, &init_mods);
    asm.call("lt_setup_listener");
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    emit_touch_heap(&mut asm, HEAP_PAGES, Reg::R9);
    emit_event(&mut asm, EVENT_READY);
    asm.jmp("lt_server_main_loop");

    asm.func("lt_parse_config");
    asm.lea_ext(Reg::R1, "lt_conf_path", 0);
    asm.push(Insn::Movi(Reg::R2, CONFIG_PATH.len() as u64));
    asm.call_ext("libc_open");
    asm.push(Insn::Mov(Reg::R9, Reg::R0));
    asm.push(Insn::Mov(Reg::R1, Reg::R9));
    asm.lea_ext(Reg::R2, "lt_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R3, 255));
    asm.call_ext("libc_read");
    asm.push(Insn::Mov(Reg::R1, Reg::R9));
    asm.call_ext("libc_close");
    asm.lea_ext(Reg::R1, "lt_conf_buf", 5);
    asm.call_ext("libc_atoi");
    asm.lea_ext(Reg::R4, "lt_port", 0);
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R0));
    asm.push(Insn::Ret);

    asm.func("lt_plugins_init");
    asm.lea_ext(Reg::R1, "lt_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 48));
    asm.call_ext("libc_checksum");
    asm.lea_ext(Reg::R1, "lt_storage", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.call_ext("libc_memset");
    asm.push(Insn::Ret);

    emit_busy_family(&mut asm, "lt_mod_init", 12, 7);

    asm.func("lt_setup_listener");
    emit_listener_setup(&mut asm, PORT, Reg::R6);
    asm.push(Insn::Mov(Reg::R0, Reg::R6));
    asm.push(Insn::Ret);

    // The event loop — the paper's `server_main_loop()` transition point.
    asm.func("lt_server_main_loop");
    asm.label("lt_accept_loop");
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.call_ext("libc_accept");
    asm.push(Insn::Mov(Reg::R11, Reg::R0));
    asm.label("lt_serve_loop");
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "lt_req_buf", 0);
    asm.push(Insn::Movi(Reg::R3, 255));
    asm.call_ext("libc_read");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "lt_close_conn");
    asm.lea_ext(Reg::R4, "lt_req_buf", 0);
    asm.push(Insn::Add(Reg::R4, Reg::R0));
    asm.push(Insn::Movi(Reg::R5, 0));
    asm.push(Insn::St(Width::B1, Reg::R4, 0, Reg::R5));
    asm.call("lt_parse_headers");
    asm.jmp("lt_http_dispatch");
    asm.label("lt_close_conn");
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.call_ext("libc_close");
    asm.jmp("lt_accept_loop");

    // Per-request epilogue: access logging and finalization.
    asm.func("lt_finish_request");
    asm.call("lt_log_access");
    asm.call("lt_finalize");
    asm.jmp("lt_serve_loop");
    emit_busy_func(&mut asm, "lt_parse_headers", 20);
    emit_busy_func(&mut asm, "lt_log_access", 20);
    emit_busy_func(&mut asm, "lt_finalize", 12);

    asm.func("lt_http_dispatch");
    for (index, (literal, handler)) in METHOD_HANDLERS.iter().enumerate() {
        emit_method_test(
            &mut asm,
            "lt_req_buf",
            &format!("lt_m{index}"),
            literal.len() as u64,
            handler,
        );
    }
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "lt_r405",
        crate::nginx::RESP_405.len() as u64,
    );
    asm.jmp("lt_finish_request");
    asm.func(ERROR_HANDLER);
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "lt_r403",
        crate::nginx::RESP_403.len() as u64,
    );
    asm.jmp("lt_finish_request");

    asm.func("lt_get_handler");
    asm.lea_ext(Reg::R1, "lt_req_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 32));
    asm.call_ext("libc_checksum");
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "lt_r200",
        crate::nginx::RESP_200.len() as u64,
    );
    asm.jmp("lt_finish_request");

    asm.func("lt_head_handler");
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "lt_r200h",
        crate::nginx::RESP_200_HEAD.len() as u64,
    );
    asm.jmp("lt_finish_request");

    asm.func("lt_put_handler");
    asm.lea_ext(Reg::R1, "lt_storage", 0);
    asm.lea_ext(Reg::R2, "lt_req_buf", 4);
    asm.push(Insn::Movi(Reg::R3, 32));
    asm.call_ext("libc_memcpy");
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "lt_r201",
        crate::nginx::RESP_201.len() as u64,
    );
    asm.jmp("lt_finish_request");

    asm.func("lt_delete_handler");
    asm.lea_ext(Reg::R1, "lt_storage", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.call_ext("libc_memset");
    emit_write_lit(
        &mut asm,
        Reg::R11,
        "lt_r204",
        crate::nginx::RESP_204.len() as u64,
    );
    asm.jmp("lt_finish_request");

    // Never-used modules (mod_cgi, mod_rewrite, mod_auth, mod_ssi,
    // mod_fastcgi — the bulk of a real Lighttpd build that a read-only
    // deployment never touches).
    emit_busy_family(&mut asm, "lt_cgi", 10, 7);
    emit_busy_family(&mut asm, "lt_rewrite", 8, 7);
    emit_busy_family(&mut asm, "lt_auth", 10, 7);
    emit_busy_family(&mut asm, "lt_ssi", 9, 7);
    emit_busy_family(&mut asm, "lt_fastcgi", 9, 7);

    let mut builder = ModuleBuilder::new(MODULE, ObjectKind::Executable);
    builder.text(asm.finish().expect("lighttpd assembles"));
    builder.rodata("lt_conf_path", CONFIG_PATH.as_bytes());
    for (index, (literal, _)) in METHOD_HANDLERS.iter().enumerate() {
        builder.rodata(&format!("lt_m{index}"), literal.as_bytes());
    }
    builder.rodata("lt_r200", crate::nginx::RESP_200);
    builder.rodata("lt_r200h", crate::nginx::RESP_200_HEAD);
    builder.rodata("lt_r201", crate::nginx::RESP_201);
    builder.rodata("lt_r204", crate::nginx::RESP_204);
    builder.rodata("lt_r403", crate::nginx::RESP_403);
    builder.rodata("lt_r405", crate::nginx::RESP_405);
    builder.bss("lt_conf_buf", 256);
    builder.bss("lt_req_buf", 256);
    builder.bss("lt_storage", 64);
    builder.bss("lt_port", 8);
    builder.entry("_start");
    builder.link(&[libc]).expect("lighttpd links")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libc::guest_libc;
    use dynacut_vm::{Kernel, LoadSpec};

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
    fn single_process_serves_webdav() {
        let (mut kernel, pid) = boot();
        assert_eq!(kernel.pids(), vec![pid], "single-process architecture");
        let conn = kernel.client_connect(PORT).unwrap();
        assert_eq!(
            kernel.client_request(conn, b"GET /\n", 2_000_000).unwrap(),
            crate::nginx::RESP_200
        );
        assert_eq!(
            kernel
                .client_request(conn, b"PUT /f data", 2_000_000)
                .unwrap(),
            crate::nginx::RESP_201
        );
        assert_eq!(
            kernel
                .client_request(conn, b"DELETE /f", 2_000_000)
                .unwrap(),
            crate::nginx::RESP_204
        );
        assert_eq!(
            kernel
                .client_request(conn, b"PATCH /f\n", 2_000_000)
                .unwrap(),
            crate::nginx::RESP_405
        );
    }

    #[test]
    fn lighttpd_is_smaller_than_nginx() {
        // The paper's table: Lighttpd 335 KB text / 17.8 k blocks vs Nginx
        // 853 KB / 35.4 k — our analogues preserve the ordering.
        let libc = guest_libc();
        let lt = image(&libc);
        let ngx = crate::nginx::image(&libc);
        assert!(lt.text_size() < ngx.text_size());
        assert!(lt.total_blocks() < ngx.total_blocks());
    }
}
