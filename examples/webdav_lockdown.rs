//! The paper's Figure 5 scenario on the multi-process Nginx analogue:
//! keep a web server read-only during peak hours by blocking the WebDAV
//! `PUT`/`DELETE` methods with a `403 Forbidden` redirect, then open a
//! short administration window to upload content, then lock down again.
//!
//! ```text
//! cargo run --example webdav_lockdown
//! ```

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::{Kernel, LoadSpec};
use std::sync::Arc;

fn show(kernel: &mut Kernel, conn: dynacut_vm::ClientConn, request: &[u8]) {
    let reply = kernel
        .client_request(conn, request, 10_000_000)
        .expect("request");
    let line = String::from_utf8_lossy(&reply);
    let status = line.lines().next().unwrap_or("<no reply>");
    println!(
        "  {:30} -> {status}",
        String::from_utf8_lossy(request).trim_end()
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    kernel.spawn(&spec)?;
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let pids = kernel.pids();
    println!(
        "nginx analogue is up: master {} + worker {}",
        pids[0], pids[1]
    );

    let conn = kernel.client_connect(nginx::PORT)?;
    println!("\nvanilla behaviour:");
    show(&mut kernel, conn, b"GET /index.html\n");
    show(&mut kernel, conn, b"PUT /report.txt quarterly numbers");
    show(&mut kernel, conn, b"DELETE /report.txt");

    // Lock down: PUT/DELETE answer 403 via the injected fault handler.
    let mut dynacut = DynaCut::new(registry);
    let put = Feature::from_function("HTTP PUT", &exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&exe, nginx::ERROR_HANDLER)
        .unwrap();
    let delete = Feature::from_function("HTTP DELETE", &exe, "ngx_delete_handler")
        .unwrap()
        .redirect_to_function(&exe, nginx::ERROR_HANDLER)
        .unwrap();
    let lockdown = RewritePlan::new()
        .disable(put.clone())
        .disable(delete.clone())
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report = dynacut.customize(&mut kernel, &pids, &lockdown)?;
    println!(
        "\nlockdown applied to both processes in {:?} ({} bytes of int3):",
        report.timings().total(),
        report.bytes_written
    );
    show(&mut kernel, conn, b"GET /index.html\n");
    show(&mut kernel, conn, b"PUT /report.txt defaced!!");
    show(&mut kernel, conn, b"DELETE /index.html");

    // Administration window: the operator re-enables uploads briefly.
    let window = RewritePlan::new()
        .enable(put.clone())
        .enable(delete.clone())
        .with_downtime(Downtime::None);
    let pids = kernel.pids();
    dynacut.customize(&mut kernel, &pids, &window)?;
    println!("\nadministration window open:");
    show(&mut kernel, conn, b"PUT /report.txt new content");
    show(&mut kernel, conn, b"DELETE /stale.txt");

    // And closed again.
    let relock = RewritePlan::new()
        .disable(put)
        .disable(delete)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let pids = kernel.pids();
    dynacut.customize(&mut kernel, &pids, &relock)?;
    println!("\nwindow closed:");
    show(&mut kernel, conn, b"PUT /report.txt too late");
    show(&mut kernel, conn, b"GET /index.html\n");

    println!("\nthe server never restarted; the TCP connection survived every rewrite.");
    Ok(())
}
