//! The Nginx analogue: a multi-process (master + worker) web server with
//! WebDAV-style methods.
//!
//! Matches the paper's Nginx 1.18 configuration: master forks one worker
//! (§4.2 footnote: "we configured Nginx to use only one worker process"),
//! the WebDAV extension adds `PUT`/`DELETE`/`MKCOL`/`PROPFIND`, and the
//! dispatcher falls through to a `403 Forbidden` error path in the same
//! function — the redirect target of paper Figure 5 / Listing 1.

use crate::util::*;
use crate::EVENT_READY;
use dynacut_isa::{Assembler, Cond, Insn, Reg, Width};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind};

/// TCP port the server listens on.
pub const PORT: u16 = 8080;
/// Configuration file path read during initialization.
pub const CONFIG_PATH: &str = "/etc/nginx.conf";
/// Module (binary) name.
pub const MODULE: &str = "nginx";

/// The HTTP method handler functions, in dispatch order. Each is a
/// feature that DynaCut can block individually.
pub const METHOD_HANDLERS: [(&str, &str); 6] = [
    ("GET ", "ngx_get_handler"),
    ("HEAD ", "ngx_head_handler"),
    ("PUT ", "ngx_put_handler"),
    ("DELETE ", "ngx_delete_handler"),
    ("MKCOL ", "ngx_mkcol_handler"),
    ("PROPFIND ", "ngx_propfind_handler"),
];

/// The default error path (`403 Forbidden`) inside the dispatcher.
pub const ERROR_HANDLER: &str = "ngx_http_forbidden";

/// Number of heap pages the server touches at startup (sets the
/// checkpoint image size).
pub const HEAP_PAGES: u64 = 100;

/// The configuration file contents expected at [`CONFIG_PATH`].
pub fn config_file() -> Vec<u8> {
    config_file_with_workers(1)
}

/// A configuration with `workers` worker processes (1–9).
///
/// # Panics
///
/// Panics if `workers` is not in `1..=9` (the parser expects one digit at
/// a fixed offset).
pub fn config_file_with_workers(workers: u8) -> Vec<u8> {
    assert!((1..=9).contains(&workers), "workers must be 1..=9");
    format!(
        "port=8080\nworkers={workers}\nroot=/var/www\nkeepalive=on\nmime=text/html,text/css,application/json\n"
    )
    .into_bytes()
}

/// Builds the server binary, linked against the guest libc.
pub fn image(libc: &Image) -> Image {
    let mut asm = Assembler::new();

    // ===== entry ==========================================================
    asm.func("_start");
    asm.call("ngx_init_log");
    asm.call("ngx_parse_config");
    asm.call("ngx_init_mime");
    // Generated initialization modules (config re-validation, module
    // registration, worker setup, …): the bulk of the init-only blocks.
    let init_mods = {
        // Forward-declare the calls; bodies are emitted below.
        (0..20)
            .map(|index| format!("ngx_mod_init_{index:02}"))
            .collect::<Vec<_>>()
    };
    emit_calls(&mut asm, &init_mods);
    asm.call("ngx_setup_listener"); // r0 = listener fd
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    emit_touch_heap(&mut asm, HEAP_PAGES, Reg::R9);
    // Fork `workers=N` workers (parsed from the config by
    // ngx_parse_config into ngx_workers); all accept on the shared
    // listener, real-Nginx style.
    asm.lea_ext(Reg::R13, "ngx_workers", 0);
    asm.push(Insn::Ld(Width::B8, Reg::R13, Reg::R13, 0));
    asm.label("ngx_fork_loop");
    asm.push(Insn::Cmpi(Reg::R13, 0));
    asm.jcc(Cond::Eq, "ngx_master_ready");
    asm.call_ext("libc_fork");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "ngx_worker_cycle");
    asm.push(Insn::Addi(Reg::R13, -1));
    asm.jmp("ngx_fork_loop");
    // Master: announce readiness, then idle.
    asm.label("ngx_master_ready");
    emit_event(&mut asm, EVENT_READY);
    asm.label("ngx_master_loop");
    asm.push(Insn::Movi(Reg::R1, 1_000_000));
    asm.call_ext("libc_nanosleep");
    asm.jmp("ngx_master_loop");

    // ===== initialization functions ======================================
    asm.func("ngx_init_log");
    asm.lea_ext(Reg::R1, "ngx_log_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 256));
    asm.call_ext("libc_memset");
    asm.push(Insn::Ret);

    asm.func("ngx_parse_config");
    // open(CONFIG_PATH) → read → parse the port with atoi.
    asm.lea_ext(Reg::R1, "ngx_conf_path", 0);
    asm.push(Insn::Movi(Reg::R2, CONFIG_PATH.len() as u64));
    asm.call_ext("libc_open");
    asm.push(Insn::Mov(Reg::R9, Reg::R0));
    asm.push(Insn::Mov(Reg::R1, Reg::R9));
    asm.lea_ext(Reg::R2, "ngx_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R3, 255));
    asm.call_ext("libc_read");
    asm.push(Insn::Mov(Reg::R1, Reg::R9));
    asm.call_ext("libc_close");
    // The file starts with "port=": parse the number after it.
    asm.lea_ext(Reg::R1, "ngx_conf_buf", 5);
    asm.call_ext("libc_atoi");
    asm.lea_ext(Reg::R4, "ngx_port", 0);
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R0));
    // The second line is "workers=N": the digits start at offset 18.
    asm.lea_ext(Reg::R1, "ngx_conf_buf", 18);
    asm.call_ext("libc_atoi");
    asm.lea_ext(Reg::R4, "ngx_workers", 0);
    asm.push(Insn::St(Width::B8, Reg::R4, 0, Reg::R0));
    // Validate the rest of the config with busy parsing.
    asm.lea_ext(Reg::R1, "ngx_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 64));
    asm.call_ext("libc_checksum");
    asm.push(Insn::Ret);

    asm.func("ngx_init_mime");
    asm.lea_ext(Reg::R1, "ngx_conf_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 96));
    asm.call_ext("libc_checksum");
    asm.lea_ext(Reg::R1, "ngx_storage", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.call_ext("libc_memset");
    asm.push(Insn::Ret);

    emit_busy_family(&mut asm, "ngx_mod_init", 20, 8);

    asm.func("ngx_setup_listener");
    emit_listener_setup(&mut asm, PORT, Reg::R6);
    asm.push(Insn::Mov(Reg::R0, Reg::R6));
    asm.push(Insn::Ret);

    // ===== worker ========================================================
    asm.func("ngx_worker_cycle");
    asm.label("ngx_accept_loop");
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.call_ext("libc_accept");
    asm.push(Insn::Mov(Reg::R11, Reg::R0));
    asm.label("ngx_serve_loop");
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "ngx_req_buf", 0);
    asm.push(Insn::Movi(Reg::R3, 255));
    asm.call_ext("libc_read");
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "ngx_close_conn");
    // NUL-terminate the request.
    asm.lea_ext(Reg::R4, "ngx_req_buf", 0);
    asm.push(Insn::Add(Reg::R4, Reg::R0));
    asm.push(Insn::Movi(Reg::R5, 0));
    asm.push(Insn::St(Width::B1, Reg::R4, 0, Reg::R5));
    asm.call("ngx_parse_headers");
    asm.jmp("ngx_http_dispatch");
    asm.label("ngx_close_conn");
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.call_ext("libc_close");
    asm.jmp("ngx_accept_loop");

    // Per-request epilogue every handler jumps to: access logging and
    // request finalization (a realistic slice of hot serving code).
    asm.func("ngx_finish_request");
    asm.call("ngx_log_access");
    asm.call("ngx_finalize");
    asm.jmp("ngx_serve_loop");
    emit_busy_func(&mut asm, "ngx_parse_headers", 24);
    emit_busy_func(&mut asm, "ngx_log_access", 24);
    emit_busy_func(&mut asm, "ngx_finalize", 16);

    // ===== dispatcher (the "big switch-case statement", §3) ==============
    asm.func("ngx_http_dispatch");
    for (index, (literal, handler)) in METHOD_HANDLERS.iter().enumerate() {
        emit_method_test(
            &mut asm,
            "ngx_req_buf",
            &format!("ngx_m{index}"),
            literal.len() as u64,
            handler,
        );
    }
    // Unknown method.
    emit_write_lit(&mut asm, Reg::R11, "ngx_r405", RESP_405.len() as u64);
    asm.jmp("ngx_finish_request");
    // Default error path — the redirect target (same function, as the
    // paper requires for stack consistency).
    asm.func(ERROR_HANDLER);
    emit_write_lit(&mut asm, Reg::R11, "ngx_r403", RESP_403.len() as u64);
    asm.jmp("ngx_finish_request");

    // ===== method handlers (jump-entered blocks, not calls) =============
    asm.func("ngx_get_handler");
    asm.lea_ext(Reg::R1, "ngx_req_buf", 0);
    asm.push(Insn::Movi(Reg::R2, 32));
    asm.call_ext("libc_checksum");
    emit_write_lit(&mut asm, Reg::R11, "ngx_r200", RESP_200.len() as u64);
    asm.jmp("ngx_finish_request");

    asm.func("ngx_head_handler");
    emit_write_lit(&mut asm, Reg::R11, "ngx_r200h", RESP_200_HEAD.len() as u64);
    asm.jmp("ngx_finish_request");

    asm.func("ngx_put_handler");
    // Store the body (after "PUT ") into the WebDAV storage area.
    asm.lea_ext(Reg::R1, "ngx_storage", 0);
    asm.lea_ext(Reg::R2, "ngx_req_buf", 4);
    asm.push(Insn::Movi(Reg::R3, 32));
    asm.call_ext("libc_memcpy");
    emit_write_lit(&mut asm, Reg::R11, "ngx_r201", RESP_201.len() as u64);
    asm.jmp("ngx_finish_request");

    asm.func("ngx_delete_handler");
    asm.lea_ext(Reg::R1, "ngx_storage", 0);
    asm.push(Insn::Movi(Reg::R2, 0));
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.call_ext("libc_memset");
    emit_write_lit(&mut asm, Reg::R11, "ngx_r204", RESP_204.len() as u64);
    asm.jmp("ngx_finish_request");

    asm.func("ngx_mkcol_handler");
    emit_write_lit(&mut asm, Reg::R11, "ngx_r201", RESP_201.len() as u64);
    asm.jmp("ngx_finish_request");

    asm.func("ngx_propfind_handler");
    asm.lea_ext(Reg::R1, "ngx_storage", 0);
    asm.push(Insn::Movi(Reg::R2, 64));
    asm.call_ext("libc_checksum");
    emit_write_lit(&mut asm, Reg::R11, "ngx_r207", RESP_207.len() as u64);
    asm.jmp("ngx_finish_request");

    // ===== never-used feature modules (gray blocks of Figure 2) =========
    emit_busy_family(&mut asm, "ngx_ssl", 14, 8);
    emit_busy_family(&mut asm, "ngx_gzip", 10, 8);
    emit_busy_family(&mut asm, "ngx_proxy", 16, 8);
    emit_busy_family(&mut asm, "ngx_cache", 12, 8);
    emit_busy_family(&mut asm, "ngx_upstream", 10, 8);

    // ===== data ===========================================================
    let mut builder = ModuleBuilder::new(MODULE, ObjectKind::Executable);
    builder.text(asm.finish().expect("nginx assembles"));
    builder.rodata("ngx_conf_path", CONFIG_PATH.as_bytes());
    for (index, (literal, _)) in METHOD_HANDLERS.iter().enumerate() {
        builder.rodata(&format!("ngx_m{index}"), literal.as_bytes());
    }
    builder.rodata("ngx_r200", RESP_200);
    builder.rodata("ngx_r200h", RESP_200_HEAD);
    builder.rodata("ngx_r201", RESP_201);
    builder.rodata("ngx_r204", RESP_204);
    builder.rodata("ngx_r207", RESP_207);
    builder.rodata("ngx_r403", RESP_403);
    builder.rodata("ngx_r405", RESP_405);
    builder.bss("ngx_log_buf", 256);
    builder.bss("ngx_conf_buf", 256);
    builder.bss("ngx_req_buf", 256);
    builder.bss("ngx_storage", 64);
    builder.bss("ngx_port", 8);
    builder.bss("ngx_workers", 8);
    builder.entry("_start");
    builder.link(&[libc]).expect("nginx links")
}

/// `200 OK` with a body.
pub const RESP_200: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
/// `200 OK` header-only (HEAD).
pub const RESP_200_HEAD: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n";
/// `201 Created` (PUT, MKCOL).
pub const RESP_201: &[u8] = b"HTTP/1.1 201 Created\r\n\r\n";
/// `204 No Content` (DELETE).
pub const RESP_204: &[u8] = b"HTTP/1.1 204 No Content\r\n\r\n";
/// `207 Multi-Status` (PROPFIND).
pub const RESP_207: &[u8] = b"HTTP/1.1 207 Multi-Status\r\n\r\n<propfind/>";
/// `403 Forbidden` — the redirected answer for blocked methods.
pub const RESP_403: &[u8] = b"HTTP/1.1 403 Forbidden\r\n\r\n";
/// `405 Method Not Allowed`.
pub const RESP_405: &[u8] = b"HTTP/1.1 405 Method Not Allowed\r\n\r\n";

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
    fn serves_get_and_head() {
        let (mut kernel, _) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        let reply = kernel
            .client_request(conn, b"GET /index.html\n", 2_000_000)
            .unwrap();
        assert_eq!(reply, RESP_200);
        let reply = kernel.client_request(conn, b"HEAD /\n", 2_000_000).unwrap();
        assert_eq!(reply, RESP_200_HEAD);
    }

    #[test]
    fn webdav_put_then_propfind_round_trip() {
        let (mut kernel, _) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        let reply = kernel
            .client_request(conn, b"PUT /f.txt payload", 2_000_000)
            .unwrap();
        assert_eq!(reply, RESP_201);
        let reply = kernel
            .client_request(conn, b"DELETE /f.txt", 2_000_000)
            .unwrap();
        assert_eq!(reply, RESP_204);
        let reply = kernel
            .client_request(conn, b"MKCOL /dir", 2_000_000)
            .unwrap();
        assert_eq!(reply, RESP_201);
        let reply = kernel
            .client_request(conn, b"PROPFIND /", 2_000_000)
            .unwrap();
        assert_eq!(reply, RESP_207);
    }

    #[test]
    fn unknown_method_gets_405() {
        let (mut kernel, _) = boot();
        let conn = kernel.client_connect(PORT).unwrap();
        let reply = kernel
            .client_request(conn, b"BREW /coffee\n", 2_000_000)
            .unwrap();
        assert_eq!(reply, RESP_405);
    }

    #[test]
    fn master_and_worker_are_two_processes() {
        let (kernel, master) = boot();
        let pids = kernel.pids();
        assert_eq!(pids.len(), 2, "master + one worker");
        let worker = pids.into_iter().find(|&p| p != master).unwrap();
        assert_eq!(kernel.process(worker).unwrap().parent, Some(master));
    }

    #[test]
    fn workers_directive_controls_the_fork_count() {
        let libc = guest_libc();
        let exe = image(&libc);
        let mut kernel = Kernel::new();
        kernel.add_file(CONFIG_PATH, &config_file_with_workers(3));
        let master = kernel.spawn(&LoadSpec::with_libs(exe, vec![libc])).unwrap();
        kernel
            .run_until_event(EVENT_READY, 100_000_000)
            .expect("boots");
        let pids = kernel.pids();
        assert_eq!(pids.len(), 4, "master + three workers");
        for &pid in &pids {
            if pid != master {
                assert_eq!(kernel.process(pid).unwrap().parent, Some(master));
            }
        }
        // All workers share the listener: three concurrent connections
        // are served in parallel.
        let conns: Vec<_> = (0..3)
            .map(|_| kernel.client_connect(PORT).unwrap())
            .collect();
        for &conn in &conns {
            kernel.client_send(conn, b"GET /parallel\n").unwrap();
        }
        kernel.run_for(2_000_000);
        for &conn in &conns {
            assert_eq!(kernel.client_recv(conn).unwrap(), RESP_200);
        }
    }

    #[test]
    fn parsed_port_lands_in_memory() {
        let (kernel, master) = boot();
        let proc = kernel.process(master).unwrap();
        let exe = &proc.modules.last().unwrap();
        let addr = exe.symbol_addr("ngx_port").unwrap();
        let mut buf = [0u8; 8];
        proc.mem.read_unchecked(addr, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), u64::from(PORT));
    }

    #[test]
    fn handlers_are_locatable_features() {
        let libc = guest_libc();
        let exe = image(&libc);
        for (_, handler) in METHOD_HANDLERS {
            assert!(
                !exe.blocks_of_function(handler).is_empty(),
                "{handler} has blocks"
            );
        }
        assert!(exe.symbols.contains_key(ERROR_HANDLER));
        // The binary imports fork through the PLT (BROP experiment).
        assert!(exe.plt_entry("libc_fork").is_some());
    }

    #[test]
    fn requests_on_parallel_connections_interleave() {
        let (mut kernel, _) = boot();
        let a = kernel.client_connect(PORT).unwrap();
        let reply_a = kernel.client_request(a, b"GET /a\n", 2_000_000).unwrap();
        assert_eq!(reply_a, RESP_200);
        kernel.client_close(a).unwrap();
        // After closing, the worker accepts the next connection.
        let b = kernel.client_connect(PORT).unwrap();
        let reply_b = kernel.client_request(b, b"HEAD /b\n", 2_000_000).unwrap();
        assert_eq!(reply_b, RESP_200_HEAD);
    }
}
