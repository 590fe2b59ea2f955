//! Quickstart: boot the Redis analogue in the DCVM, dynamically block the
//! `SET` command at run time without restarting the server, then
//! re-enable it — the smallest possible DynaCut tour.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::{Kernel, LoadSpec};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the guest world: libc + the Redis analogue, then boot it.
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let pid = kernel.spawn(&spec)?;
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("server initializes");
    println!("redis analogue is up as {pid}");

    // 2. Talk to it over the simulated TCP stack.
    let conn = kernel.client_connect(redis::PORT)?;
    let reply = kernel.client_request(conn, b"SET greeting hello\n", 5_000_000)?;
    println!("SET greeting hello  -> {}", String::from_utf8_lossy(&reply));
    let reply = kernel.client_request(conn, b"GET greeting\n", 5_000_000)?;
    println!("GET greeting        -> {}", String::from_utf8_lossy(&reply));

    // 3. DynaCut: block the SET feature on the LIVE process. The process
    //    is checkpointed, the image is rewritten (int3 over the handler
    //    entry), a fault-handler library is injected, and the process is
    //    restored — the TCP connection survives.
    let mut dynacut = DynaCut::new(registry);
    let set_feature = Feature::from_function("SET", &exe, "rd_cmd_set")
        .expect("handler exists")
        .redirect_to_function(&exe, redis::ERROR_HANDLER)
        .expect("error path exists");
    let plan = RewritePlan::new()
        .disable(set_feature.clone())
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report = dynacut.customize(&mut kernel, &[pid], &plan)?;
    let timings = report.timings();
    println!(
        "\ncustomized in {:?} (checkpoint {:?}, rewrite {:?}, handler {:?}, restore {:?})",
        timings.total(),
        timings.checkpoint,
        timings.disable_code,
        timings.insert_sighandler,
        timings.restore,
    );

    // 4. Same connection: SET is now politely refused, GET still works.
    let reply = kernel.client_request(conn, b"SET greeting bye\n", 5_000_000)?;
    println!("SET greeting bye    -> {}", String::from_utf8_lossy(&reply));
    let reply = kernel.client_request(conn, b"GET greeting\n", 5_000_000)?;
    println!("GET greeting        -> {}", String::from_utf8_lossy(&reply));

    // 5. Re-enable: original instruction bytes come back from the binary.
    let plan = RewritePlan::new()
        .enable(set_feature)
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &[pid], &plan)?;
    let reply = kernel.client_request(conn, b"SET greeting again\n", 5_000_000)?;
    println!("\nafter re-enable:");
    println!("SET greeting again  -> {}", String::from_utf8_lossy(&reply));
    let reply = kernel.client_request(conn, b"GET greeting\n", 5_000_000)?;
    println!("GET greeting        -> {}", String::from_utf8_lossy(&reply));

    // 6. The flight recorder journalled both cycles: per-phase durations,
    //    trap hits on the blocked feature, and the metrics registry.
    println!(
        "\nflight journal ({} events, {} dropped):",
        kernel.flight().len(),
        kernel.flight().dropped()
    );
    for event in kernel.flight().iter() {
        match &event.kind {
            dynacut::EventKind::PhaseEnd { phase, duration_ns } => {
                println!("  [{:>6}] {phase} took {duration_ns} ns", event.seq);
            }
            dynacut::EventKind::CustomizeCommit => {
                println!("  [{:>6}] cycle committed", event.seq);
            }
            dynacut::EventKind::TrapHit { pc, handled } => {
                println!("  [{:>6}] trap at {pc:#x} (handled: {handled})", event.seq);
            }
            _ => {}
        }
    }
    println!("counters:");
    for (name, value) in kernel.flight().metrics().counters() {
        println!("  {name} = {value}");
    }
    Ok(())
}
