//! The §4.2 attack-surface study: which PLT entries stay reachable after
//! initialization, and why removing `fork@plt` defeats BROP-style
//! attacks on the Nginx analogue.
//!
//! ```text
//! cargo run --example brop_surface
//! ```

use dynacut::{Downtime, DynaCut, Feature, RewritePlan};
use dynacut_analysis::{plt_usage, CovGraph};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_isa::BasicBlock;
use dynacut_trace::Tracer;
use dynacut_vm::{Kernel, LoadSpec, Signal};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    let tracer = Tracer::install(&mut kernel);
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let first = kernel.spawn(&spec)?;
    tracer.track(&kernel, first)?;
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let pids = kernel.pids();
    for &pid in &pids {
        let _ = tracer.track(&kernel, pid);
    }

    // Phase coverage.
    let init = CovGraph::from_log(&tracer.nudge());
    let conn = kernel.client_connect(nginx::PORT)?;
    for request in [&b"GET /\n"[..], b"HEAD /\n", b"GET /x\n"] {
        kernel.client_request(conn, request, 10_000_000)?;
    }
    let serving = CovGraph::from_log(&tracer.snapshot());

    // Classify the PLT.
    let usage = plt_usage(&exe, nginx::MODULE, &init, &serving);
    let (removable, executed) = usage.removable_ratio();
    println!("nginx PLT surface: {executed} entries executed; {removable} used only during init\n");
    println!("removable after initialization:");
    for name in &usage.removable_post_init {
        println!(
            "  {name}{}",
            if name == "libc_fork" {
                "   <- BROP needs this"
            } else {
                ""
            }
        );
    }
    println!("still required while serving:");
    for name in &usage.still_needed {
        println!("  {name}");
    }

    // Disable the init-only PLT stubs (including fork) in the live
    // processes.
    let mut blocks: Vec<BasicBlock> = Vec::new();
    for name in &usage.removable_post_init {
        let entry = exe.plt_entry(name).expect("plt entry");
        blocks.push(exe.block_containing(entry.stub_offset).expect("stub block"));
    }
    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .disable(Feature::new("init-only PLT stubs", nginx::MODULE, blocks))
        .with_block_policy(dynacut::BlockPolicy::WipeBlocks)
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &pids, &plan)?;
    println!(
        "\nwiped {} init-only PLT stubs in both processes.",
        removable
    );

    // The serving path is unaffected…
    let reply = kernel.client_request(conn, b"GET /ok\n", 10_000_000)?;
    println!(
        "GET /ok -> {}",
        String::from_utf8_lossy(&reply).lines().next().unwrap_or("")
    );

    // …but a BROP-style attacker who redirects control into fork@plt now
    // hits a trap and the worker dies instead of respawning probes.
    let worker = *pids.last().unwrap();
    let fork_stub = {
        let proc = kernel.process(worker)?;
        let module = proc
            .modules
            .iter()
            .find(|m| m.image.name == nginx::MODULE)
            .unwrap();
        module.base + exe.plt_entry("libc_fork").unwrap().stub_offset
    };
    {
        let proc = kernel.process_mut(worker)?;
        proc.cpu.pc = fork_stub; // simulated hijack
        proc.state = dynacut_vm::ProcState::Runnable;
    }
    kernel.run_for(1_000_000);
    match kernel.exit_status(worker) {
        Some(status) if status.fatal_signal == Some(Signal::Sigtrap) => {
            println!(
                "\nhijacked jump into fork@plt -> SIGTRAP, worker killed: BROP probe defeated"
            );
        }
        other => println!("\nunexpected outcome: {other:?}"),
    }
    Ok(())
}
