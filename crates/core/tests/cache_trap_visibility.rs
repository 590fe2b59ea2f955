//! Customize-cycle pin for the decoded-block translation cache
//! (DESIGN §11): a cycle's freshly planted `int3` bytes must fire on the
//! very next request even though the request handler's blocks were hot
//! in the cache when the cycle ran — and the whole cycle must be
//! bit-identical under `state_fingerprint()` with the cache on and off.
//! The same holds for a replica a rollout promoted: its window patches
//! it in place, so its hot cache survives and the trap still fires.

use dynacut::{
    Downtime, DynaCut, EventKind, FaultPolicy, Feature, RewritePlan, RolloutDecision, RolloutPlan,
};
use dynacut_apps::{libc::guest_libc, nginx, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_isa::{Assembler, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Signal, EXE_BASE};
use std::sync::Arc;

/// Boots nginx, warms the PUT handler, customizes PUT away with the
/// redirect policy, and checks the 403 lands immediately. Returns the
/// final kernel fingerprint plus the cache hit and trap counters.
fn scenario(cache_enabled: bool) -> (String, u64, u64) {
    let libc = guest_libc();
    let exe = nginx::image(&libc);
    let mut kernel = Kernel::new();
    kernel.set_block_cache_enabled(cache_enabled);
    kernel.add_file(nginx::CONFIG_PATH, &nginx::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    kernel.spawn(&spec).unwrap();
    kernel
        .run_until_event(EVENT_READY, 100_000_000)
        .expect("boot");
    let pids = kernel.pids();

    // Warm the cache on the exact paths the cycle will patch: the PUT
    // handler itself plus the GET path used as the control.
    let conn = kernel.client_connect(nginx::PORT).unwrap();
    for round in 0..3 {
        assert_eq!(
            kernel
                .client_request(conn, format!("PUT /w{round} data").as_bytes(), 5_000_000)
                .unwrap(),
            nginx::RESP_201
        );
        assert_eq!(
            kernel
                .client_request(conn, format!("GET /w{round}\n").as_bytes(), 5_000_000)
                .unwrap(),
            nginx::RESP_200
        );
    }

    let mut dynacut = DynaCut::new(registry);
    let feature = Feature::from_function("HTTP PUT", &exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&exe, nginx::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(feature)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &pids, &plan).unwrap();

    // First post-cycle PUT on the same live connection: the planted trap
    // fires and redirects — no stale cached block runs the old handler.
    assert_eq!(
        kernel
            .client_request(conn, b"PUT /after data", 5_000_000)
            .unwrap(),
        nginx::RESP_403,
        "trap visible immediately (cache_enabled={cache_enabled})"
    );
    assert_eq!(
        kernel
            .client_request(conn, b"GET /after\n", 5_000_000)
            .unwrap(),
        nginx::RESP_200
    );
    for &pid in &pids {
        assert!(kernel.exit_status(pid).is_none(), "{pid} survived");
    }
    let hits = kernel.flight().metrics().counter("block_cache.hits");
    let traps = kernel.flight().metrics().counter("trap_hits.redirect");
    (kernel.state_fingerprint(), hits, traps)
}

#[test]
fn planted_trap_fires_through_hot_cache_after_customize() {
    let (fp_cached, hits, traps) = scenario(true);
    assert!(hits > 0, "the request path really ran out of the cache");
    assert!(traps > 0, "the planted trap really fired");

    let (fp_uncached, hits_off, traps_off) = scenario(false);
    assert_eq!(hits_off, 0, "disabled cache never hits");
    assert_eq!(traps, traps_off, "same trap activity either way");
    assert_eq!(
        fp_cached, fp_uncached,
        "cache invisible across a full customize cycle with traps firing"
    );
}

/// A promoted replica's hot cache: one replica's cache is warmed over
/// SETRANGE's page, a rollout disables SETRANGE, and the promotion
/// window keeps that cache instead of flushing it. With the canary
/// frozen, SETRANGE on the replica traps on its first execution and
/// self-heals.
#[test]
fn trap_fires_through_a_promoted_replicas_hot_cache() {
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
    let mut groups = Vec::new();
    for _ in 0..3 {
        groups.push(vec![kernel.spawn(&spec).unwrap()]);
        kernel
            .run_until_event(EVENT_READY, 500_000_000)
            .expect("boot");
    }
    let (canary, replica, last) = (groups[0][0], groups[1][0], groups[2][0]);

    // Only the replica serves while its cache warms, SETRANGE included.
    kernel.freeze(canary).unwrap();
    kernel.freeze(last).unwrap();
    let conn = kernel.client_connect(redis::PORT).unwrap();
    for round in 0..3 {
        for request in [
            format!("SET k{round} v\n"),
            format!("SETRANGE {round} abc\n"),
        ] {
            assert_eq!(
                kernel
                    .client_request(conn, request.as_bytes(), 5_000_000)
                    .unwrap(),
                b"+OK\n"
            );
        }
    }
    kernel.client_close(conn).unwrap();
    kernel.run_for(50_000);
    kernel.thaw(canary).unwrap();
    kernel.thaw(last).unwrap();
    let warm = kernel.process(replica).unwrap().block_cache.len();
    assert!(warm > 0, "the replica's cache is warm");

    let setrange = Feature::from_function("SETRANGE", &spec.exe, "rd_cmd_setrange").unwrap();
    let plan = RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
    let mut dynacut = DynaCut::new(registry).with_incremental();
    let soak = RolloutPlan {
        soak_slices: 2,
        serve_slice_ns: 10_000,
    };
    let report = dynacut.rollout(&mut kernel, &groups, &plan, &soak).unwrap();
    assert_eq!(report.decision, RolloutDecision::Promoted);
    assert!(
        kernel.process(replica).unwrap().block_cache.len() >= warm,
        "the promotion window kept the replica's cache"
    );

    kernel.freeze(canary).unwrap();
    kernel.freeze(last).unwrap();
    let seq0 = kernel.flight().next_seq();
    let conn = kernel.client_connect(redis::PORT).unwrap();
    assert_eq!(
        kernel
            .client_request(conn, b"SETRANGE 8 abc\n", 5_000_000)
            .unwrap(),
        b"+OK\n",
        "the promoted replica self-heals and serves"
    );
    let traps: Vec<_> = kernel
        .flight()
        .since(seq0)
        .filter(|event| matches!(event.kind, EventKind::TrapHit { handled: true, .. }))
        .map(|event| event.pid)
        .collect();
    assert_eq!(
        traps,
        vec![Some(replica)],
        "one trap, on its first execution"
    );
    assert_eq!(dynacut.verifier_reports(&kernel).len(), 1, "and one heal");
}

/// A loop on the first text page that calls `gated`, also on the first
/// page, which jumps on to its tail on the second: the loop's hot
/// superblock chains through `gated` and spans both pages.
fn two_page_superblock() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("top");
    asm.push(Insn::Addi(Reg::R1, 1));
    asm.call("gated");
    asm.jmp("top");
    asm.func("gated");
    asm.push(Insn::Addi(Reg::R3, 1));
    asm.jmp("gated_tail");
    asm.align(PAGE_SIZE);
    asm.func("gated_tail");
    asm.push(Insn::Addi(Reg::R2, 1));
    asm.push(Insn::Ret);
    let mut builder = ModuleBuilder::new("two_page_superblock", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

/// A customize that plants a trap on the lower of the two text pages a
/// hot superblock spans, a page the original never wrote (its generation
/// snapshot is 0): the commit carries the superblock, and the trap still
/// fires on the next pass, because the carry seeds that page past the
/// snapshot. An unseeded page would read generation 0 and validate the
/// carried superblock over the rewritten bytes.
#[test]
fn trap_on_the_lower_page_of_a_carried_two_page_superblock_fires() {
    let spec = LoadSpec::exe_only(two_page_superblock());
    let exe = Arc::clone(&spec.exe);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&exe));
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&spec).unwrap();
    kernel.run_for(100_000);

    let proc = kernel.process(pid).unwrap();
    let mut spanned: Vec<u64> = proc.block_cache.code_pages().collect();
    spanned.sort_unstable();
    spanned.dedup();
    assert_eq!(
        spanned,
        [EXE_BASE, EXE_BASE + PAGE_SIZE],
        "both pages cached"
    );
    assert_eq!(
        proc.mem.code_page_gen(EXE_BASE),
        0,
        "the lower page never changed"
    );
    let gated = exe.symbol_addr(EXE_BASE, "gated").unwrap();
    assert!(gated < EXE_BASE + PAGE_SIZE, "gated sits on the lower page");

    let feature = Feature::from_function("gated", &exe, "gated").unwrap();
    let plan = RewritePlan::new()
        .disable(feature)
        .with_downtime(Downtime::None);
    DynaCut::new(registry)
        .customize(&mut kernel, &[pid], &plan)
        .unwrap();
    let proc = kernel.process(pid).unwrap();
    assert!(!proc.block_cache.is_empty(), "the commit carried the cache");
    let retired = proc.insns_retired;

    let status = kernel
        .run_until_exit(pid, 1_000_000)
        .expect("the planted trap kills");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    let proc = kernel.process(pid).unwrap();
    assert_eq!(proc.cpu.pc, gated);
    // One pass of the loop is seven instructions (`addi`, `call`, `addi`,
    // `jmp`, `addi`, `ret`, `jmp`); a stale carried superblock would run
    // the old `gated` until some later re-decode.
    assert!(
        proc.insns_retired - retired <= 7,
        "the trap must fire on the loop's next pass; it fired {} instructions \
         after the commit",
        proc.insns_retired - retired
    );
}
