//! Temporal syscall specialization through process rewriting (paper §5,
//! after Ghavamnia et al.): after initialization, the Lighttpd analogue
//! is restricted to the five syscalls its event loop actually needs.
//! Everything else — including a hijacked `fork` or `open` — kills the
//! process with `SIGSYS`. The paper's point: unlike a seccomp filter set
//! at startup, a *rewritten* filter can be installed (and relaxed) at any
//! phase boundary.
//!
//! ```text
//! cargo run --example temporal_seccomp
//! ```

use dynacut::{Downtime, DynaCut, Profiler, RewritePlan};
use dynacut_apps::{libc::guest_libc, lighttpd, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::{Kernel, LoadSpec, ProcState, Sysno};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let profiler = Profiler::install(&mut kernel);
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let libc_image = Arc::clone(&spec.libs[0]);
    let pid = kernel.spawn(&spec)?;
    profiler.track(&kernel, pid)?;
    kernel
        .run_until_event(EVENT_READY, 200_000_000)
        .expect("boot");

    // During init the server opened its config file, bound its socket,
    // mapped its heap — all syscalls it never needs again.
    println!("server initialized; restricting to the serving syscall set");
    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .restrict_syscalls(&[
            Sysno::Read,
            Sysno::Write,
            Sysno::Accept,
            Sysno::Close,
            Sysno::Exit,
        ])
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &[pid], &plan)?;

    // Serving is untouched.
    let conn = kernel.client_connect(lighttpd::PORT)?;
    let reply = kernel.client_request(conn, b"GET /\n", 10_000_000)?;
    println!(
        "GET / -> {}",
        String::from_utf8_lossy(&reply).lines().next().unwrap_or("")
    );

    // An attacker who hijacks control into libc_open now dies instantly.
    let open_addr = {
        let proc = kernel.process(pid)?;
        let base = proc
            .modules
            .iter()
            .find(|m| m.image.name == "libc")
            .unwrap()
            .base;
        base + libc_image.symbols["libc_open"].offset
    };
    {
        let proc = kernel.process_mut(pid)?;
        proc.cpu.pc = open_addr; // simulated hijack
        proc.state = ProcState::Runnable;
    }
    kernel.run_for(1_000_000);
    match kernel.exit_status(pid) {
        Some(status) => println!(
            "hijacked jump into libc_open -> {}: filter enforced",
            status
                .fatal_signal
                .map(|s| s.to_string())
                .unwrap_or_else(|| "exit".into())
        ),
        None => println!("unexpected: server survived the hijack"),
    }
    Ok(())
}
