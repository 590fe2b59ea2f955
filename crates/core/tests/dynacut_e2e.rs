//! End-to-end DynaCut scenarios on the live guest servers — the paper's
//! §3.2/§4 workflows, from trace collection through customization,
//! redirect handling, re-enabling, and verification.

use dynacut::{BlockPolicy, Downtime, DynaCut, DynacutError, FaultPolicy, Feature, RewritePlan};
use dynacut_analysis::{init_only_blocks, CovGraph};
use dynacut_apps::{libc::guest_libc, lighttpd, nginx, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_isa::{BasicBlock, TRAP_OPCODE};
use dynacut_obj::{Perms, PAGE_SIZE};
use dynacut_trace::Tracer;
use dynacut_vm::{Kernel, LoadSpec, Pid, Signal};
use std::sync::Arc;

struct Server {
    kernel: Kernel,
    pids: Vec<Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot_nginx() -> Server {
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let registry = {
        let mut registry = ModuleRegistry::new();
        registry.insert(Arc::clone(&spec.exe));
        for lib in &spec.libs {
            registry.insert(Arc::clone(lib));
        }
        registry
    };
    let exe = Arc::clone(&spec.exe);
    kernel.spawn(&spec).unwrap();
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let pids = kernel.pids();
    Server {
        kernel,
        pids,
        exe,
        registry,
    }
}

fn boot_redis() -> Server {
    let libc = guest_libc();
    let exe = redis::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(redis::CONFIG_PATH, &redis::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let registry = {
        let mut registry = ModuleRegistry::new();
        registry.insert(Arc::clone(&spec.exe));
        for lib in &spec.libs {
            registry.insert(Arc::clone(lib));
        }
        registry
    };
    let exe = Arc::clone(&spec.exe);
    kernel.spawn(&spec).unwrap();
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let pids = kernel.pids();
    Server {
        kernel,
        pids,
        exe,
        registry,
    }
}

fn put_feature(exe: &dynacut_obj::Image) -> Feature {
    Feature::from_function("HTTP PUT", exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(exe, nginx::ERROR_HANDLER)
        .unwrap()
}

fn delete_feature(exe: &dynacut_obj::Image) -> Feature {
    Feature::from_function("HTTP DELETE", exe, "ngx_delete_handler")
        .unwrap()
        .redirect_to_function(exe, nginx::ERROR_HANDLER)
        .unwrap()
}

/// Paper Figure 5: disabled PUT/DELETE answer 403 via the injected fault
/// handler; GET keeps working; the server never dies; re-enabling brings
/// PUT back. All over a single live TCP connection.
#[test]
fn nginx_put_delete_block_redirect_and_reenable() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 2_000_000)
            .unwrap(),
        nginx::RESP_201
    );

    // Disable PUT and DELETE with redirect-to-403.
    let plan = RewritePlan::new()
        .disable(put_feature(&server.exe))
        .disable(delete_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report = dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();
    assert!(report.blocks_disabled > 0);
    assert_eq!(
        report.handler_bases.len(),
        2,
        "handler in master and worker"
    );

    // Same connection: PUT/DELETE now answer 403; GET unaffected.
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_403
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"DELETE /f", 5_000_000)
            .unwrap(),
        nginx::RESP_403
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"GET /i.html\n", 5_000_000)
            .unwrap(),
        nginx::RESP_200
    );
    for &pid in &server.pids {
        assert!(server.kernel.exit_status(pid).is_none(), "{pid} alive");
    }

    // Re-enable PUT only.
    let plan = RewritePlan::new()
        .enable(put_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let pids = server.kernel.pids();
    dynacut.customize(&mut server.kernel, &pids, &plan).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_201,
        "PUT restored"
    );
}

/// Without an injected handler (Terminate policy), touching blocked code
/// kills the worker with SIGTRAP — the behaviour of prior debloating
/// systems the paper improves on.
#[test]
fn terminate_policy_kills_on_access() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let plan = RewritePlan::new()
        .disable(put_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Terminate)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    let reply = server
        .kernel
        .client_request(conn, b"PUT /f data", 5_000_000)
        .unwrap();
    assert!(reply.is_empty(), "no answer from a dead worker");
    let killed = server
        .pids
        .iter()
        .filter_map(|&pid| server.kernel.exit_status(pid))
        .find(|s| s.fatal_signal == Some(Signal::Sigtrap));
    assert!(killed.is_some(), "worker killed by SIGTRAP");
}

/// Wipe policy: every byte of every feature block becomes 0xCC, denying
/// mid-block ROP-style entry (paper §3.2.1).
#[test]
fn wipe_policy_fills_whole_blocks_with_trap_bytes() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let feature = put_feature(&server.exe);
    let plan = RewritePlan::new()
        .disable(feature.clone())
        .with_block_policy(BlockPolicy::WipeBlocks)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();

    // Inspect the worker's memory: all feature bytes are 0xCC.
    let worker = *server.pids.last().unwrap();
    let proc = server.kernel.process(worker).unwrap();
    let base = proc
        .modules
        .iter()
        .find(|m| m.image.name == nginx::MODULE)
        .unwrap()
        .base;
    for block in &feature.blocks {
        let mut bytes = vec![0u8; block.size as usize];
        proc.mem.read_unchecked(base + block.addr, &mut bytes);
        assert!(
            bytes.iter().all(|&b| b == TRAP_OPCODE),
            "block {block} fully wiped"
        );
    }
    // And the feature still answers 403 via redirect.
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_403
    );
}

/// Table 1: blocking Redis's vulnerable commands turns real crashes into
/// graceful "-ERR blocked" replies.
#[test]
fn redis_cve_blocking_defeats_exploits() {
    let mut server = boot_redis();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let mut plan = RewritePlan::new()
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    for handler in ["rd_cmd_stralgo", "rd_cmd_setrange", "rd_cmd_config"] {
        plan = plan.disable(
            Feature::from_function(handler, &server.exe, handler)
                .unwrap()
                .redirect_to_function(&server.exe, redis::ERROR_HANDLER)
                .unwrap(),
        );
    }
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();

    let conn = server.kernel.client_connect(redis::PORT).unwrap();
    let a = "a".repeat(32);
    let b = "b".repeat(32);
    let attacks = [
        format!("STRALGO {a} {b}\n"),
        "SETRANGE 5000 xyz\n".to_owned(),
        format!("CONFIG {}\n", "v".repeat(64)),
    ];
    for attack in &attacks {
        let reply = server
            .kernel
            .client_request(conn, attack.as_bytes(), 5_000_000)
            .unwrap();
        assert_eq!(reply, redis::ERR_BLOCKED, "attack blocked: {attack:?}");
    }
    // The rest of the server still works.
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"SET k v\n", 5_000_000)
            .unwrap(),
        b"+OK\n"
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"GET k\n", 5_000_000)
            .unwrap(),
        b"v\n"
    );
    assert!(server.kernel.exit_status(server.pids[0]).is_none());
}

/// Initialization-code removal on Lighttpd: trace the init phase, nudge,
/// compute the init-only set, remove it, and keep serving.
#[test]
fn lighttpd_init_code_removal_keeps_server_working() {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let tracer = Tracer::install(&mut kernel);
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let exe = Arc::clone(&spec.exe);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let pid = kernel.spawn(&spec).unwrap();
    tracer.track(&kernel, pid).unwrap();

    // Init phase, then the nudge.
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let init_cov = CovGraph::from_log(&tracer.nudge());

    // Serving phase: exercise GET/HEAD so hot blocks are known.
    let conn = kernel.client_connect(lighttpd::PORT).unwrap();
    for _ in 0..3 {
        kernel.client_request(conn, b"GET /\n", 2_000_000).unwrap();
        kernel.client_request(conn, b"HEAD /\n", 2_000_000).unwrap();
    }
    let serving_cov = CovGraph::from_log(&tracer.snapshot());

    // tracediff: init-only blocks of the application module.
    let init_only = init_only_blocks(&init_cov, &serving_cov).retain_modules(&[lighttpd::MODULE]);
    assert!(init_only.len() > 20, "substantial init-only code found");
    let blocks: Vec<BasicBlock> = init_only
        .module_blocks(lighttpd::MODULE)
        .into_iter()
        .map(|(offset, size)| BasicBlock::new(offset, size))
        .collect();

    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .remove_init_blocks(lighttpd::MODULE, blocks.clone())
        .with_downtime(Downtime::None);
    let report = dynacut.customize(&mut kernel, &[pid], &plan).unwrap();
    assert!(report.bytes_written > 0);

    // The server still serves.
    assert_eq!(
        kernel.client_request(conn, b"GET /\n", 5_000_000).unwrap(),
        nginx::RESP_200
    );
    // And the removed init bytes are really trap bytes in memory.
    let proc = kernel.process(pid).unwrap();
    let base = proc
        .modules
        .iter()
        .find(|m| m.image.name == lighttpd::MODULE)
        .unwrap()
        .base;
    let sample = blocks.first().unwrap();
    let mut bytes = vec![0u8; sample.size as usize];
    proc.mem.read_unchecked(base + sample.addr, &mut bytes);
    assert!(bytes.iter().all(|&b| b == TRAP_OPCODE));
    let _ = exe;
}

/// The verifier (paper §3.2.3): a wanted block wrongly blocked self-heals
/// on first access and the false positive is reported to the operator.
#[test]
fn verifier_heals_misclassified_blocks_and_reports_them() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    // "Misclassify" the GET handler as undesired.
    let get_feature = Feature::from_function("GET", &server.exe, "ngx_get_handler").unwrap();
    let plan = RewritePlan::new()
        .disable(get_feature.clone())
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();
    dynacut.verifier_reports(&server.kernel);

    // The first GET triggers the trap, the verifier restores the byte and
    // the request completes correctly.
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    let reply = server
        .kernel
        .client_request(conn, b"GET /x\n", 10_000_000)
        .unwrap();
    assert_eq!(reply, nginx::RESP_200, "healed and answered");

    // The false positive was reported.
    let reports = dynacut.verifier_reports(&server.kernel);
    let worker = *server.pids.last().unwrap();
    let base = server
        .kernel
        .process(worker)
        .unwrap()
        .modules
        .iter()
        .find(|m| m.image.name == nginx::MODULE)
        .unwrap()
        .base;
    let expected = base + get_feature.entry_block().unwrap().addr;
    assert!(
        reports.contains(&expected),
        "report {reports:x?} contains {expected:#x}"
    );

    // Subsequent GETs run at full speed (no more traps).
    let reply = server
        .kernel
        .client_request(conn, b"GET /y\n", 5_000_000)
        .unwrap();
    assert_eq!(reply, nginx::RESP_200);
    assert!(dynacut.verifier_reports(&server.kernel).is_empty());
}

/// UnmapPages policy removes whole pages from the address space.
#[test]
fn unmap_policy_removes_pages() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    // Build one big synthetic feature covering the never-used modules so
    // whole pages qualify for unmapping.
    let exe = &server.exe;
    let mut blocks = Vec::new();
    for func in &exe.functions {
        if func.name.starts_with("ngx_ssl")
            || func.name.starts_with("ngx_proxy")
            || func.name.starts_with("ngx_cache")
            || func.name.starts_with("ngx_gzip")
            || func.name.starts_with("ngx_upstream")
        {
            blocks.extend(exe.blocks_of_function(&func.name));
        }
    }
    let feature = Feature::new("cold modules", nginx::MODULE, blocks);
    let plan = RewritePlan::new()
        .disable(feature)
        .with_block_policy(BlockPolicy::UnmapPages)
        .with_downtime(Downtime::None);
    let report = dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();
    assert!(report.pages_unmapped > 0, "whole pages unmapped");

    // Server still functional.
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"GET /\n", 5_000_000)
            .unwrap(),
        nginx::RESP_200
    );
}

/// The report's timing breakdown is sane: all phases ran, checkpoint
/// image has bytes.
#[test]
fn customize_report_has_timings_and_sizes() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let plan = RewritePlan::new()
        .disable(put_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report = dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();
    assert!(report.image_bytes > 0);
    assert!(report.timings().total().as_nanos() > 0);
    assert_eq!(report.bytes_written, 2, "one entry byte per process");
}

/// Downtime accounting: the fixed ≈400 ms window appears on the guest
/// clock.
#[test]
fn downtime_is_charged_to_guest_clock() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let before = server.kernel.clock_ns();
    let plan = RewritePlan::new()
        .disable(put_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::Fixed(400_000_000));
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .unwrap();
    assert!(server.kernel.clock_ns() >= before + 400_000_000);
}

/// Error recovery: a plan referencing an unknown module, or naming a
/// block or a redirect outside its module's text or past the top of the
/// address space, fails cleanly and the processes are thawed — the
/// server keeps serving as if nothing happened. The rollback is exact: the whole kernel state fingerprint
/// matches the pre-attempt snapshot (DESIGN §5). A pid named twice, to
/// `customize` or `customize_fleet`, is refused before anything is
/// touched.
#[test]
fn failed_customize_thaws_and_leaves_server_untouched() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone());
    let pristine = server.kernel.state_fingerprint();
    let bogus = Feature::new("ghost", "no_such_module", vec![BasicBlock::new(0, 4)]);
    // remove_blocks on a bogus module is skipped silently (not mapped);
    // but a disable on an out-of-range block of a real module errors.
    let out_of_range = Feature::new("oob", nginx::MODULE, vec![BasicBlock::new(0xFFFF_F000, 16)]);
    let mut plans = vec![(
        RewritePlan::new().disable(bogus).disable(out_of_range),
        false,
    )];
    // A block whose end overflows a u64, which the plan refuses before
    // anything is frozen, and one whose end fits until the module base
    // is added, which the image edit refuses inside the cycle.
    for block in [
        BasicBlock::new(u64::MAX - 2, 8),
        BasicBlock::new(u64::MAX - 0x1000, 16),
    ] {
        let feature = Feature::new("past_top", nginx::MODULE, vec![block]);
        for policy in [
            BlockPolicy::EntryByte,
            BlockPolicy::WipeBlocks,
            BlockPolicy::UnmapPages,
        ] {
            let plan = RewritePlan::new()
                .disable(feature.clone())
                .with_block_policy(policy);
            plans.push((plan, true));
        }
        plans.push((RewritePlan::new().enable(feature), true));
    }
    let far_redirect = put_feature(&server.exe).redirect_to_offset(u64::MAX);
    let plan = RewritePlan::new()
        .disable(far_redirect)
        .with_fault_policy(FaultPolicy::Redirect);
    plans.push((plan, true));
    // A block past the module's text, at the offset where libc is
    // mapped, and a redirect just past the text: both are refused before
    // any image is edited, where the stray block used to wipe libc's
    // first bytes and commit.
    let modules = &server.kernel.process(server.pids[0]).unwrap().modules;
    let base_of = |name: &str| modules.iter().find(|m| m.image.name == name).unwrap().base;
    let libc_offset = base_of("libc") - base_of(nginx::MODULE);
    let stray = Feature::new(
        "stray",
        nginx::MODULE,
        vec![BasicBlock::new(libc_offset, 8)],
    );
    plans.push((
        RewritePlan::new()
            .disable(stray.clone())
            .with_block_policy(BlockPolicy::WipeBlocks),
        true,
    ));
    plans.push((RewritePlan::new().enable(stray.clone()), true));
    plans.push((
        RewritePlan::new().remove_init_blocks(nginx::MODULE, stray.blocks),
        true,
    ));
    let text_end = u64::try_from(server.exe.text.len()).unwrap();
    let past_text = put_feature(&server.exe).redirect_to_offset(text_end);
    let plan = RewritePlan::new()
        .disable(past_text)
        .with_fault_policy(FaultPolicy::Redirect);
    plans.push((plan, true));

    for (plan, block_out_of_range) in plans {
        let plan = plan.with_downtime(Downtime::None);
        let err = dynacut
            .customize(&mut server.kernel, &server.pids, &plan)
            .unwrap_err();
        assert!(!format!("{err}").is_empty());
        if block_out_of_range {
            assert!(
                matches!(err, DynacutError::BlockOutOfRange { .. }),
                "{plan:?}: {err}"
            );
        }

        // The rollback is bit-exact: every process is back in its
        // pre-freeze scheduler state (not force-thawed to Runnable),
        // memory, dirty bitmaps and network state are untouched.
        assert_eq!(server.kernel.state_fingerprint(), pristine, "{plan:?}");
        for &pid in &server.pids {
            assert_ne!(
                server.kernel.process(pid).unwrap().state,
                dynacut_vm::ProcState::Frozen
            );
        }
    }
    // A pid named twice, within a group or across groups, is refused
    // before anything is frozen, with a plan that would otherwise
    // commit: the cycle dumped and restored the process twice, so its
    // rollback could not put it back, and a fleet's second pre-dump
    // swept the bitmap the first one read.
    let put = RewritePlan::new()
        .disable(put_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let mut incremental = DynaCut::new(server.registry.clone()).with_incremental();
    let (master, worker) = (server.pids[0], server.pids[1]);
    for twice in [vec![master, master], vec![master, worker, master]] {
        assert!(
            matches!(
                incremental.customize(&mut server.kernel, &twice, &put),
                Err(DynacutError::BadPlan(_))
            ),
            "{twice:?}"
        );
        assert_eq!(server.kernel.state_fingerprint(), pristine, "{twice:?}");
    }
    for twice in [
        vec![vec![master], vec![master]],
        vec![vec![master, worker], vec![worker]],
    ] {
        assert!(
            matches!(
                incremental.customize_fleet(&mut server.kernel, &twice, &put),
                Err(DynacutError::BadPlan(_))
            ),
            "{twice:?}"
        );
        assert_eq!(server.kernel.state_fingerprint(), pristine, "{twice:?}");
    }
    // An empty target is refused the same way, under the default
    // downtime: a cycle over no process committed, counted a commit and
    // advanced the guest clock by the fixed 400 ms charge, and a fleet of
    // empty groups reported them as customized. No groups at all is an
    // empty report.
    let put_fixed = RewritePlan::new()
        .disable(put_feature(&server.exe))
        .with_fault_policy(FaultPolicy::Redirect);
    let commits = |kernel: &Kernel| kernel.flight().metrics().counter("customize.commits");
    let commits_before = commits(&server.kernel);
    assert!(matches!(
        incremental.customize(&mut server.kernel, &[], &put_fixed),
        Err(DynacutError::BadPlan(_))
    ));
    for empty in [vec![vec![], vec![]], vec![vec![master], vec![]]] {
        assert!(
            matches!(
                incremental.customize_fleet(&mut server.kernel, &empty, &put_fixed),
                Err(DynacutError::BadPlan(_))
            ),
            "{empty:?}"
        );
    }
    let none = incremental
        .customize_fleet(&mut server.kernel, &[], &put_fixed)
        .unwrap();
    assert_eq!((none.totals.groups, none.procs.len()), (0, 0));
    assert_eq!(server.kernel.state_fingerprint(), pristine, "empty targets");
    assert_eq!(commits(&server.kernel), commits_before, "empty targets");
    // …and the server is fully functional.
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    let reply = server
        .kernel
        .client_request(conn, b"GET /alive\n", 5_000_000)
        .unwrap();
    assert_eq!(reply, nginx::RESP_200);
}

/// Multi-process rewriting at scale: with `workers=3`, a customization
/// touches all four processes ("To support multi-process applications,
/// DynaCut iterates through each process's memory space and updates the
/// corresponding code", §3.2.1).
#[test]
fn customize_reaches_every_worker() {
    let libc = dynacut_apps::libc::guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file_with_workers(3));
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    kernel.spawn(&spec).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    let pids = kernel.pids();
    assert_eq!(pids.len(), 4, "master + three workers");

    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .disable(put_feature(&exe))
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report = dynacut.customize(&mut kernel, &pids, &plan).unwrap();
    assert_eq!(report.handler_bases.len(), 4, "handler injected everywhere");
    assert_eq!(report.bytes_written, 4, "entry byte per process");

    // Three parallel connections, served by three different workers, all
    // answer 403 for PUT and 200 for GET.
    let conns: Vec<_> = (0..3)
        .map(|_| kernel.client_connect(nginx::PORT).unwrap())
        .collect();
    for &conn in &conns {
        kernel.client_send(conn, b"PUT /w data").unwrap();
    }
    kernel.run_for(5_000_000);
    for &conn in &conns {
        assert_eq!(kernel.client_recv(conn).unwrap(), nginx::RESP_403);
    }
    for &conn in &conns {
        kernel.client_send(conn, b"GET /w\n").unwrap();
    }
    kernel.run_for(5_000_000);
    for &conn in &conns {
        assert_eq!(kernel.client_recv(conn).unwrap(), nginx::RESP_200);
    }
    for &pid in &pids {
        assert!(kernel.exit_status(pid).is_none());
    }
}

/// A guest that maps every gap from the injection window to the top of
/// the address space leaves no room for the handler library. The cycle
/// fails with an error and rolls back; the free-range search used to
/// overflow instead (a host panic in debug builds, a misleading
/// unmapped-address error in release builds).
#[test]
fn full_address_space_fails_handler_injection_and_rolls_back() {
    let mut server = boot_redis();
    // The base of the highest page: no mapping can end above it.
    let top = !(PAGE_SIZE - 1);
    for &pid in &server.pids {
        let mem = &mut server.kernel.process_mut(pid).unwrap().mem;
        let taken: Vec<(u64, u64)> = mem.vmas().iter().map(|v| (v.start, v.end)).collect();
        let mut cursor = 0x6000_0000_0000u64;
        for (start, end) in taken.into_iter().chain([(top, top)]) {
            if start > cursor {
                mem.map(cursor, start - cursor, Perms::RW, "filler")
                    .unwrap();
            }
            cursor = cursor.max(end);
        }
    }
    let before = server.kernel.state_fingerprint();

    let setrange = Feature::from_function("SETRANGE", &server.exe, "rd_cmd_setrange")
        .unwrap()
        .redirect_to_function(&server.exe, redis::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let mut dynacut = DynaCut::new(server.registry.clone());
    let result = dynacut.customize(&mut server.kernel, &server.pids, &plan);
    assert!(result.is_err(), "no room for the handler: {result:?}");
    assert_eq!(
        server.kernel.state_fingerprint(),
        before,
        "the failed cycle rolled back"
    );
}
