//! Initialization-code shedding (paper §3.1 + Figure 9): trace the
//! Lighttpd analogue under the drcov-style tracer, nudge at the end of
//! initialization, diff the two coverage graphs, and wipe every block
//! that only ran during start-up — while the server keeps serving.
//!
//! ```text
//! cargo run --example init_shedding
//! ```

use dynacut::{Downtime, DynaCut, RewritePlan};
use dynacut_analysis::{init_only_blocks, CovGraph};
use dynacut_apps::{libc::guest_libc, lighttpd, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_isa::BasicBlock;
use dynacut_trace::Tracer;
use dynacut_vm::{Kernel, LoadSpec};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let tracer = Tracer::install(&mut kernel);
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let pid = kernel.spawn(&spec)?;
    tracer.track(&kernel, pid)?;

    // Initialization phase, observed via the ready event — then the
    // nudge dumps CovG_init and clears the coverage cache.
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let init_log = tracer.nudge();
    println!(
        "init phase: {} distinct blocks executed ({} bytes)",
        init_log.block_count(),
        init_log.covered_bytes()
    );

    // Serving phase: a few requests, then CovG_serving.
    let conn = kernel.client_connect(lighttpd::PORT)?;
    for request in [&b"GET /a\n"[..], b"HEAD /b\n", b"GET /c\n"] {
        kernel.client_request(conn, request, 10_000_000)?;
    }
    let serving_log = tracer.snapshot();
    println!(
        "serving phase: {} distinct blocks executed",
        serving_log.block_count()
    );

    // tracediff: blk ∈ CovG_init ∧ blk ∉ CovG_serving, app module only.
    let init_cov = CovGraph::from_log(&init_log);
    let serving_cov = CovGraph::from_log(&serving_log);
    let shed = init_only_blocks(&init_cov, &serving_cov).retain_modules(&[lighttpd::MODULE]);
    println!(
        "tracediff: {} initialization-only blocks ({} bytes) to shed",
        shed.len(),
        shed.covered_bytes()
    );

    // Shed them from the live process.
    let blocks: Vec<BasicBlock> = shed
        .module_blocks(lighttpd::MODULE)
        .into_iter()
        .map(|(offset, size)| BasicBlock::new(offset, size))
        .collect();
    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .remove_init_blocks(lighttpd::MODULE, blocks)
        .with_downtime(Downtime::None);
    let report = dynacut.customize(&mut kernel, &[pid], &plan)?;
    println!(
        "shed {} blocks / {} bytes of int3 in {:?}",
        report.blocks_disabled,
        report.bytes_written,
        report.timings().total()
    );

    // The server still serves on the same connection.
    let reply = kernel.client_request(conn, b"GET /after\n", 10_000_000)?;
    println!(
        "after shedding: GET /after -> {}",
        String::from_utf8_lossy(&reply)
            .lines()
            .next()
            .unwrap_or("<none>")
    );

    // drcov-format output, as the paper's tooling produces.
    println!("\nfirst lines of the init-phase drcov log:");
    for line in init_log.to_drcov_text().lines().take(8) {
        println!("  {line}");
    }
    Ok(())
}
