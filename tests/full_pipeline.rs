//! The complete paper workflow, end to end and cross-crate: identify a
//! feature **purely from execution-trace diffs** (no symbol knowledge),
//! block it on the live server, validate with the verifier, and re-enable
//! it — §3.1 + §3.2 in one pass.

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_analysis::{feature_blocks, CovGraph};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_trace::Tracer;
use dynacut_vm::{Kernel, LoadSpec};
use std::sync::Arc;

struct World {
    kernel: Kernel,
    pids: Vec<dynacut_vm::Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
    tracer: Tracer,
}

fn boot_traced_nginx() -> World {
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
    let first = kernel.spawn(&spec).unwrap();
    tracer.track(&kernel, first).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    let pids = kernel.pids();
    for &pid in &pids {
        let _ = tracer.track(&kernel, pid);
    }
    World {
        kernel,
        pids,
        exe,
        registry,
        tracer,
    }
}

fn request(kernel: &mut Kernel, bytes: &[u8]) -> Vec<u8> {
    let conn = kernel.client_connect(nginx::PORT).unwrap();
    let reply = kernel.client_request(conn, bytes, 10_000_000).unwrap();
    let _ = kernel.client_close(conn);
    reply
}

/// The paper's trace-diff feature discovery: record a *wanted* trace
/// (GET/HEAD) and an *undesired* trace (PUT), compute
/// `blk ∈ CovG_undesired ∧ blk ∉ CovG_wanted`, and block exactly those
/// blocks — without ever consulting the symbol table.
#[test]
fn trace_diff_discovers_and_blocks_the_put_feature() {
    let mut world = boot_traced_nginx();
    world.tracer.nudge(); // discard init coverage

    // Wanted workload: everything the operator wants to keep — including
    // DELETE, whose dispatch path falls *through* the PUT test. Leaving a
    // wanted feature out of the training trace would let the diff claim
    // the shared dispatcher edge (the paper's training-coverage caveat).
    for _ in 0..3 {
        assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);
        assert_eq!(
            request(&mut world.kernel, b"HEAD /x\n"),
            nginx::RESP_200_HEAD
        );
        assert_eq!(request(&mut world.kernel, b"DELETE /x"), nginx::RESP_204);
    }
    let wanted = CovGraph::from_log(&world.tracer.nudge());

    // Undesired workload.
    assert_eq!(request(&mut world.kernel, b"PUT /x data"), nginx::RESP_201);
    let undesired = CovGraph::from_log(&world.tracer.snapshot());

    // tracediff (filtering out library blocks, as tracediff.py does).
    let put_blocks = feature_blocks(&undesired, &wanted).retain_modules(&[nginx::MODULE]);
    assert!(!put_blocks.is_empty(), "diff found feature blocks");

    // The discovered blocks really are the PUT handler's (plus possibly
    // its dispatcher edge and PLT stubs) — check the handler entry is in
    // the set.
    let handler_entry = world.exe.symbols["ngx_put_handler"].offset;
    assert!(
        put_blocks
            .module_blocks(nginx::MODULE)
            .iter()
            .any(|&(offset, _)| offset == handler_entry),
        "diff includes the PUT handler entry"
    );

    // Block the trace-derived feature with a 403 redirect.
    let feature = Feature::from_cov_graph("PUT (from traces)", nginx::MODULE, &put_blocks)
        .redirect_to_function(&world.exe, nginx::ERROR_HANDLER)
        .unwrap();
    let mut dynacut = DynaCut::new(world.registry.clone());
    let plan = RewritePlan::new()
        .disable(feature)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut world.kernel, &world.pids, &plan)
        .unwrap();

    assert_eq!(request(&mut world.kernel, b"PUT /x data"), nginx::RESP_403);
    assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);
    assert_eq!(
        request(&mut world.kernel, b"DELETE /x"),
        nginx::RESP_204,
        "DELETE was not part of the undesired trace and stays enabled"
    );
}

/// Over-elimination, detected and healed: train only on GET, block the
/// diff of a HEAD trace (which shares blocks with nothing), then discover
/// via the verifier that one "undesired" block was actually wanted.
#[test]
fn verifier_workflow_recovers_from_thin_training_sets() {
    let mut world = boot_traced_nginx();
    world.tracer.nudge();

    // Thin wanted set: GET only.
    assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);
    let wanted = CovGraph::from_log(&world.tracer.nudge());
    // "Undesired" trace accidentally includes HEAD (which the operator
    // actually wants) alongside PUT.
    assert_eq!(
        request(&mut world.kernel, b"HEAD /x\n"),
        nginx::RESP_200_HEAD
    );
    assert_eq!(request(&mut world.kernel, b"PUT /x d"), nginx::RESP_201);
    let undesired = CovGraph::from_log(&world.tracer.snapshot());

    let blocks = feature_blocks(&undesired, &wanted).retain_modules(&[nginx::MODULE]);
    let feature = Feature::from_cov_graph("overzealous", nginx::MODULE, &blocks);
    let mut dynacut = DynaCut::new(world.registry.clone());
    let plan = RewritePlan::new()
        .disable(feature)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut world.kernel, &world.pids, &plan)
        .unwrap();
    dynacut.verifier_reports(&world.kernel);

    // HEAD was misclassified; under the verifier it heals itself and is
    // reported, instead of killing the worker.
    assert_eq!(
        request(&mut world.kernel, b"HEAD /x\n"),
        nginx::RESP_200_HEAD,
        "verifier restores the wanted path"
    );
    let reports = dynacut.verifier_reports(&world.kernel);
    assert!(!reports.is_empty(), "false positives were logged");
    // And the server is still alive and fully functional.
    assert_eq!(request(&mut world.kernel, b"GET /y\n"), nginx::RESP_200);
    for &pid in &world.pids {
        assert!(world.kernel.exit_status(pid).is_none());
    }
}

/// The same trace-diff discovery, through the `Profiler` convenience API
/// — the workflow as the paper narrates it, in five lines.
#[test]
fn profiler_api_runs_the_paper_workflow() {
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    let mut profiler = dynacut::Profiler::install(&mut kernel);
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let first = kernel.spawn(&spec).unwrap();
    profiler.track(&kernel, first).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    for &pid in &kernel.pids() {
        let _ = profiler.track(&kernel, pid);
    }
    profiler.end_phase("init");

    // Wanted phase covers everything the operator keeps.
    for request in [
        &b"GET /\n"[..],
        b"HEAD /\n",
        b"DELETE /x",
        b"MKCOL /d",
        b"PROPFIND /\n",
    ] {
        request_conn(&mut kernel, request);
    }
    profiler.end_phase("wanted");
    request_conn(&mut kernel, b"PUT /x data");
    profiler.snapshot_phase("undesired");

    // The diff becomes a Feature directly.
    let feature = profiler
        .feature_between("PUT", "undesired", "wanted", nginx::MODULE)
        .expect("feature discovered")
        .redirect_to_offset(exe.symbols[nginx::ERROR_HANDLER].offset);
    // Init-only analysis is also one call.
    let init_only = profiler
        .init_only_between("init", "wanted", nginx::MODULE)
        .expect("phases recorded");
    assert!(init_only.len() > 50, "init mass found: {}", init_only.len());

    let mut dynacut = DynaCut::new(registry);
    let pids = kernel.pids();
    let plan = RewritePlan::new()
        .disable(feature)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &pids, &plan).unwrap();
    assert_eq!(request_conn(&mut kernel, b"PUT /x data"), nginx::RESP_403);
    assert_eq!(request_conn(&mut kernel, b"GET /\n"), nginx::RESP_200);
}

fn request_conn(kernel: &mut Kernel, bytes: &[u8]) -> Vec<u8> {
    let conn = kernel.client_connect(nginx::PORT).unwrap();
    let reply = kernel.client_request(conn, bytes, 10_000_000).unwrap();
    let _ = kernel.client_close(conn);
    reply
}

/// A second customization cycle on an already-customized process: dump →
/// rewrite → restore must be repeatable (the paper's "instantly update
/// available features" loop).
#[test]
fn repeated_customization_cycles_are_stable() {
    let mut world = boot_traced_nginx();
    let mut dynacut = DynaCut::new(world.registry.clone());
    let put = Feature::from_function("PUT", &world.exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&world.exe, nginx::ERROR_HANDLER)
        .unwrap();
    for round in 0..3 {
        let plan = RewritePlan::new()
            .disable(put.clone())
            .with_fault_policy(FaultPolicy::Redirect)
            .with_downtime(Downtime::None);
        let pids = world.kernel.pids();
        dynacut.customize(&mut world.kernel, &pids, &plan).unwrap();
        assert_eq!(
            request(&mut world.kernel, b"PUT /r d"),
            nginx::RESP_403,
            "round {round}: blocked"
        );
        let plan = RewritePlan::new()
            .enable(put.clone())
            .with_downtime(Downtime::None);
        let pids = world.kernel.pids();
        dynacut.customize(&mut world.kernel, &pids, &plan).unwrap();
        assert_eq!(
            request(&mut world.kernel, b"PUT /r d"),
            nginx::RESP_201,
            "round {round}: restored"
        );
    }
}
