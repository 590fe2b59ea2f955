//! Exhaustive error-path suite for transactional customize (DESIGN §5).
//!
//! Every phase of the customize cycle — pre-dump, dump, image edit,
//! library injection, restore handle resolution, restore build, CoW
//! frame materialization, restore commit, baseline store and
//! mark-clean — is failed on demand via [`dynacut_vm::fault`] against
//! both a single-process guest (Redis) and a multi-process guest (Nginx
//! master + worker). Each case asserts the transactional contract:
//!
//! 1. the failed `customize` returns the injected phase as a typed error,
//! 2. the kernel is left **bit-identical** to its pre-attempt state
//!    ([`Kernel::state_fingerprint`] equality: processes alive and
//!    thawed, memory, TCP, signal and dirty-bitmap state intact), and the
//!    session's registry lists the binaries it listed before,
//! 3. the established client connection keeps serving, and
//! 4. retrying the identical plan succeeds and takes effect, injecting
//!    under the names and at the bases a session that never failed uses.
//!
//! Only built with `--features fault-injection`; the hooks compile to a
//! constant `false` otherwise.
#![cfg(feature = "fault-injection")]

use dynacut::{
    Downtime, DynaCut, EventKind, FaultPolicy, Feature, Phase, RewritePlan, RollbackStep,
    RolloutDecision, RolloutPlan, VERIFIER_EVENT_BIT,
};
use dynacut_apps::{libc::guest_libc, nginx, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::fault::{self, FaultPhase};
use dynacut_vm::{Kernel, LoadSpec, Pid, ProcState};
use std::sync::Arc;

/// Every injection point in the customize cycle, in execution order.
/// The restore is zero-copy, so `RestoreHandles` (staging from the
/// checkpoint's store entry) and `CowMaterialize` (frame installation)
/// bracket the per-process `RestoreBuild`.
const ALL_PHASES: [FaultPhase; 10] = [
    FaultPhase::PreDump,
    FaultPhase::Dump,
    FaultPhase::ImageEdit,
    FaultPhase::LibraryInjection,
    FaultPhase::RestoreHandles,
    FaultPhase::RestoreBuild,
    FaultPhase::CowMaterialize,
    FaultPhase::RestoreCommit,
    FaultPhase::BaselineStore,
    FaultPhase::MarkClean,
];

/// Phases whose hook fires once **per process**, so `skip = 1` targets
/// the second process (the Nginx worker) after the first succeeded.
const PER_PROCESS_PHASES: [FaultPhase; 7] = [
    FaultPhase::Dump,
    FaultPhase::ImageEdit,
    FaultPhase::LibraryInjection,
    FaultPhase::RestoreHandles,
    FaultPhase::RestoreBuild,
    FaultPhase::CowMaterialize,
    FaultPhase::RestoreCommit,
];

struct Server {
    kernel: Kernel,
    pids: Vec<Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot(image: fn(&dynacut_obj::Image) -> dynacut_obj::Image, config: (&str, Vec<u8>)) -> Server {
    let libc = guest_libc();
    let exe = image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(config.0, &config.1);
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
    Server {
        kernel,
        pids,
        exe,
        registry,
    }
}

fn boot_nginx() -> Server {
    boot(nginx::image, (nginx::CONFIG_PATH, nginx::config_file()))
}

fn boot_redis() -> Server {
    boot(redis::image, (redis::CONFIG_PATH, redis::config_file()))
}

/// Disable Nginx's PUT handler with redirect-to-403.
fn nginx_plan(server: &Server) -> RewritePlan {
    let put = Feature::from_function("HTTP PUT", &server.exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&server.exe, nginx::ERROR_HANDLER)
        .unwrap();
    RewritePlan::new()
        .disable(put)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None)
}

/// Block Redis's vulnerable SETRANGE command with redirect-to-error.
fn redis_plan(server: &Server) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", &server.exe, "rd_cmd_setrange")
        .unwrap()
        .redirect_to_function(&server.exe, redis::ERROR_HANDLER)
        .unwrap();
    RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None)
}

/// The flight-recorder phase a fault injected at `phase` dies inside
/// (the journal's dangling `PhaseStart`). `MarkClean` fires within the
/// baseline-store bracket, so both map to [`Phase::BaselineStore`].
fn flight_phase(phase: FaultPhase) -> Phase {
    match phase {
        FaultPhase::PreDump => Phase::PreDump,
        FaultPhase::Dump => Phase::Dump,
        FaultPhase::ImageEdit => Phase::ImageEdit,
        FaultPhase::LibraryInjection => Phase::Inject,
        FaultPhase::RestoreHandles | FaultPhase::RestoreBuild | FaultPhase::CowMaterialize => {
            Phase::RestorePrepare
        }
        FaultPhase::RestoreCommit => Phase::RestoreCommit,
        FaultPhase::BaselineStore | FaultPhase::MarkClean => Phase::BaselineStore,
        other => panic!("unmapped fault phase {other}"),
    }
}

/// Asserts the flight journal recorded the failed cycle faithfully:
/// begin marker, matched start/end pairs for every phase that completed,
/// exactly one dangling `PhaseStart` naming the phase the cycle died in,
/// the expected rollback steps, and a terminal `CustomizeRollback` with
/// no commit in between.
fn assert_failed_cycle_journal(
    kernel: &Kernel,
    seq0: u64,
    died_in: Phase,
    pids: &[Pid],
    ctx: &str,
) {
    let events: Vec<_> = kernel.flight().since(seq0).collect();
    assert!(
        matches!(
            events.first().map(|e| &e.kind),
            Some(EventKind::CustomizeBegin { pids: n }) if *n == pids.len()
        ),
        "journal opens with CustomizeBegin ({ctx})"
    );
    assert!(
        matches!(
            events.last().map(|e| &e.kind),
            Some(EventKind::CustomizeRollback)
        ),
        "journal ends with CustomizeRollback ({ctx})"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CustomizeCommit)),
        "a failed cycle must not journal a commit ({ctx})"
    );

    let starts: Vec<Phase> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PhaseStart { phase } => Some(phase),
            _ => None,
        })
        .collect();
    let ends: Vec<Phase> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PhaseEnd { phase, .. } => Some(phase),
            _ => None,
        })
        .collect();
    assert_eq!(
        starts.len(),
        ends.len() + 1,
        "exactly one phase is left dangling ({ctx})"
    );
    let dangling: Vec<Phase> = starts
        .iter()
        .filter(|phase| !ends.contains(phase))
        .copied()
        .collect();
    assert_eq!(
        dangling,
        vec![died_in],
        "the dangling PhaseStart names the phase the cycle died in ({ctx})"
    );

    let steps: Vec<RollbackStep> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RollbackStep { step } => Some(step),
            _ => None,
        })
        .collect();
    assert!(
        !steps.is_empty(),
        "rollback steps are journalled for every injected phase ({ctx})"
    );
    assert!(
        steps.contains(&RollbackStep::Unrepair),
        "connections are taken out of repair mode ({ctx})"
    );
    // The incremental pre-dump snapshots every pid's dirty bits before
    // anything can fail, so the rollback re-marks them in every case.
    assert_eq!(
        steps
            .iter()
            .filter(|s| **s == RollbackStep::RestoreDirtyBits)
            .count(),
        pids.len(),
        "dirty bits restored per pid ({ctx})"
    );
    if died_in == Phase::PreDump {
        assert!(
            !steps.contains(&RollbackStep::Thaw),
            "nothing was frozen before a pre-dump failure ({ctx})"
        );
    } else {
        assert_eq!(
            steps.iter().filter(|s| **s == RollbackStep::Thaw).count(),
            pids.len(),
            "every frozen pid is thawed ({ctx})"
        );
    }
    if died_in == Phase::BaselineStore {
        assert!(
            steps.contains(&RollbackStep::UndoRestore),
            "a post-commit failure journals the restore undo ({ctx})"
        );
    }
}

/// The names of the binaries in `dynacut`'s registry.
fn registry_names(dynacut: &DynaCut) -> Vec<String> {
    dynacut.registry().names().map(String::from).collect()
}

/// The injected libraries `pid` maps: name and base.
fn injected_libraries(kernel: &Kernel, pid: Pid) -> Vec<(String, u64)> {
    kernel
        .process(pid)
        .unwrap()
        .modules
        .iter()
        .filter(|module| module.image.name.starts_with("dc_"))
        .map(|module| (module.image.name.clone(), module.base))
        .collect()
}

/// What a cycle leaves that a retry must reproduce: the handler bases,
/// each pid's injected libraries and the registry's names.
type Reference = (Vec<(Pid, u64)>, Vec<Vec<(String, u64)>>, Vec<String>);

/// What the first cycle of a session that never failed leaves: a twin
/// guest, booted by `boot` and served `probe`, customized with `plan`.
fn never_failed(boot: fn() -> Server, plan: &RewritePlan, port: u16, probe: &[u8]) -> Reference {
    let mut twin = boot();
    let mut dynacut = DynaCut::new(twin.registry.clone()).with_incremental();
    let conn = twin.kernel.client_connect(port).unwrap();
    twin.kernel.client_request(conn, probe, 5_000_000).unwrap();
    let report = dynacut
        .customize(&mut twin.kernel, &twin.pids, plan)
        .expect("the twin's first cycle commits");
    let libraries = twin
        .pids
        .iter()
        .map(|&pid| injected_libraries(&twin.kernel, pid))
        .collect();
    (report.handler_bases, libraries, registry_names(&dynacut))
}

/// Drives one armed phase against a live guest `boot` starts and
/// asserts the transactional contract end to end: typed error,
/// bit-identical kernel-state rollback, the registry as it was,
/// surviving connection, and a retry that succeeds and injects what a
/// session that never failed injects.
///
/// `probe` is a benign request that must answer identically before the
/// attempt, after the rollback, and after the successful retry; `proof`
/// is a request whose reply flips once the customization commits.
#[allow(clippy::too_many_arguments)]
fn assert_rollback_then_retry(
    boot: fn() -> Server,
    plan: fn(&Server) -> RewritePlan,
    port: u16,
    probe: (&[u8], &[u8]),
    proof: (&[u8], &[u8]),
    phase: FaultPhase,
    skip: usize,
) {
    let ctx = format!("phase {phase}, skip {skip}");
    let mut server = boot();
    let plan = &plan(&server);
    let reference = never_failed(boot, plan, port, probe.0);
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let conn = server.kernel.client_connect(port).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, probe.0, 5_000_000)
            .unwrap(),
        probe.1,
        "guest serves before the attempt ({ctx})"
    );

    let pristine = server.kernel.state_fingerprint();
    let registry_before = registry_names(&dynacut);
    let rollbacks_before = server
        .kernel
        .flight()
        .metrics()
        .counter("customize.rollbacks");
    let seq0 = server.kernel.flight().next_seq();
    fault::arm(phase, skip);
    let err = dynacut
        .customize(&mut server.kernel, &server.pids, plan)
        .expect_err("armed customize must fail");
    assert_eq!(
        err.injected_phase(),
        Some(phase),
        "error names the injected phase, got `{err}` ({ctx})"
    );
    assert_eq!(
        fault::armed_count(),
        0,
        "the armed fault was consumed ({ctx})"
    );

    // The tentpole invariant: the kernel rolled back to exactly the
    // pre-customization state — processes alive and thawed, memory, TCP,
    // sigaction and dirty-bitmap state bit-identical.
    assert_eq!(
        server.kernel.state_fingerprint(),
        pristine,
        "kernel state must roll back exactly ({ctx})"
    );
    assert_eq!(
        registry_names(&dynacut),
        registry_before,
        "the registry lists the binaries it listed before ({ctx})"
    );
    for &pid in &server.pids {
        assert!(
            server.kernel.exit_status(pid).is_none(),
            "{pid} alive ({ctx})"
        );
        assert_ne!(
            server.kernel.process(pid).unwrap().state,
            ProcState::Frozen,
            "{pid} thawed ({ctx})"
        );
    }

    // Zero leaked `SharedPages` refs: the aborted attempt put its edited
    // checkpoint into the store before the commit, and the rollback must
    // have released that entry, so the store's refcount-derived
    // footprint still equals the sum over stored checkpoints. The
    // session is fresh, so nothing at all may be left behind.
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        dynacut.store().stored_pages_bytes(),
        "no leaked page refs after rollback ({ctx})"
    );
    assert!(
        dynacut.store().is_empty(),
        "the failed attempt left no store entry ({ctx})"
    );
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        0,
        "the failed attempt left no page ref ({ctx})"
    );

    // The flight journal is the observable record of the failure: it
    // must name the phase the cycle died in and every rollback step.
    assert_failed_cycle_journal(
        &server.kernel,
        seq0,
        flight_phase(phase),
        &server.pids,
        &ctx,
    );
    assert_eq!(
        server
            .kernel
            .flight()
            .metrics()
            .counter("customize.rollbacks"),
        rollbacks_before + 1,
        "rollback counter incremented ({ctx})"
    );

    // The pre-existing connection survived the aborted attempt (TCP
    // repair mode was left again) and the feature is still enabled.
    assert_eq!(
        server
            .kernel
            .client_request(conn, probe.0, 5_000_000)
            .unwrap(),
        probe.1,
        "established connection still serves after rollback ({ctx})"
    );

    // Success implies the whole multi-process restore committed: the
    // identical plan goes through cleanly on the retry and takes effect.
    let seq1 = server.kernel.flight().next_seq();
    let retried = dynacut
        .customize(&mut server.kernel, &server.pids, plan)
        .unwrap_or_else(|err| panic!("retry after rollback must succeed ({ctx}): {err}"));
    let libraries: Vec<_> = server
        .pids
        .iter()
        .map(|&pid| injected_libraries(&server.kernel, pid))
        .collect();
    assert_eq!(
        (retried.handler_bases, libraries, registry_names(&dynacut)),
        reference,
        "the retry injects under the names and at the bases a session that never failed uses ({ctx})"
    );
    let retry: Vec<_> = server.kernel.flight().since(seq1).collect();
    assert!(
        retry
            .iter()
            .any(|e| matches!(e.kind, EventKind::CustomizeCommit)),
        "retry journals a commit ({ctx})"
    );
    assert!(
        !retry.iter().any(|e| matches!(
            e.kind,
            EventKind::CustomizeRollback | EventKind::RollbackStep { .. }
        )),
        "clean retry journals no rollback ({ctx})"
    );
    let retry_starts = retry
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PhaseStart { .. }))
        .count();
    let retry_ends = retry
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PhaseEnd { .. }))
        .count();
    assert_eq!(
        retry_starts, retry_ends,
        "no dangling phase on success ({ctx})"
    );
    let flight = server.kernel.flight();
    assert_eq!(
        flight.next_seq(),
        flight.len() as u64 + flight.dropped(),
        "recorder accounting: recorded == held + dropped ({ctx})"
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, proof.0, 5_000_000)
            .unwrap(),
        proof.1,
        "customization applies on the retry ({ctx})"
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, probe.0, 5_000_000)
            .unwrap(),
        probe.1,
        "benign traffic unaffected after the retry ({ctx})"
    );
    for &pid in &server.pids {
        assert!(
            server.kernel.exit_status(pid).is_none(),
            "{pid} alive after retry ({ctx})"
        );
    }
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        dynacut.store().stored_pages_bytes(),
        "no leaked page refs after the successful retry either ({ctx})"
    );
}

const NGINX_PROBE: (&[u8], &[u8]) = (b"GET /i.html\n", nginx::RESP_200);
const NGINX_PROOF: (&[u8], &[u8]) = (b"PUT /f data", nginx::RESP_403);
const REDIS_PROBE: (&[u8], &[u8]) = (b"SET k v\n", b"+OK\n");
const REDIS_PROOF: (&[u8], &[u8]) = (b"SETRANGE 5000 xyz\n", redis::ERR_BLOCKED);

/// Every injection point against the single-process guest.
#[test]
fn every_phase_rolls_back_single_process_redis() {
    for phase in ALL_PHASES {
        assert_rollback_then_retry(
            boot_redis,
            redis_plan,
            redis::PORT,
            REDIS_PROBE,
            REDIS_PROOF,
            phase,
            0,
        );
    }
}

/// Every injection point against the multi-process guest, failing on the
/// **first** process (the master).
#[test]
fn every_phase_rolls_back_multi_process_nginx() {
    for phase in ALL_PHASES {
        assert_rollback_then_retry(
            boot_nginx,
            nginx_plan,
            nginx::PORT,
            NGINX_PROBE,
            NGINX_PROOF,
            phase,
            0,
        );
    }
}

/// Per-process phases failing on the **second** process: the master's
/// copy of the phase already succeeded and must be unwound too.
#[test]
fn per_process_phases_roll_back_when_the_worker_fails() {
    for phase in PER_PROCESS_PHASES {
        assert_rollback_then_retry(
            boot_nginx,
            nginx_plan,
            nginx::PORT,
            NGINX_PROBE,
            NGINX_PROOF,
            phase,
            1,
        );
    }
}

/// Satellite regression: an Nginx **worker** whose restore fails
/// mid-commit must not take down the master. The master's swap already
/// committed when the worker's fails, so the transaction has to unwind
/// the master back to its original process object, thaw everything, and
/// keep the established connection (and its TCP repair state) serving.
#[test]
fn nginx_worker_restore_failure_leaves_master_serving() {
    let mut server = boot_nginx();
    assert_eq!(server.pids.len(), 2, "master + worker");
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let plan = nginx_plan(&server);

    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_201,
        "PUT works before customization"
    );
    let pristine = server.kernel.state_fingerprint();

    // Skip the master's commit; fail the worker's.
    fault::arm(FaultPhase::RestoreCommit, 1);
    let err = dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .expect_err("worker's restore commit must fail");
    assert_eq!(err.injected_phase(), Some(FaultPhase::RestoreCommit));

    assert_eq!(
        server.kernel.state_fingerprint(),
        pristine,
        "master's committed swap was unwound along with everything else"
    );
    // The established connection survived and the master still serves
    // both reads and (still-enabled) writes through it.
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"GET /i.html\n", 5_000_000)
            .unwrap(),
        nginx::RESP_200
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_201,
        "PUT still enabled: the aborted attempt must not half-apply"
    );
    // The listening socket was not torn down either.
    assert!(server.kernel.is_listening(nginx::PORT));

    // And the same plan commits cleanly afterwards.
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .expect("clean retry succeeds");
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_403
    );
}

/// A failure on the **second** incremental cycle must restore the
/// displaced baseline: the store keeps serving deltas against it and a
/// retry still commits. Covers the `BaselineStore` path where a valid
/// baseline from cycle one is taken out of `self` before the failure.
#[test]
fn second_cycle_failure_restores_the_displaced_baseline() {
    let mut server = boot_nginx();
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();

    // Cycle one: disable PUT. Establishes the incremental baseline.
    let disable = nginx_plan(&server);
    let first = dynacut
        .customize(&mut server.kernel, &server.pids, &disable)
        .expect("first cycle");
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_403
    );

    // Cycle two re-enables PUT but dies storing the new baseline.
    let put = Feature::from_function("HTTP PUT", &server.exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&server.exe, nginx::ERROR_HANDLER)
        .unwrap();
    let enable = RewritePlan::new()
        .enable(put)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let pristine = server.kernel.state_fingerprint();
    fault::arm(FaultPhase::BaselineStore, 0);
    let err = dynacut
        .customize(&mut server.kernel, &server.pids, &enable)
        .expect_err("baseline store must fail");
    assert_eq!(err.injected_phase(), Some(FaultPhase::BaselineStore));
    assert_eq!(
        server.kernel.state_fingerprint(),
        pristine,
        "second cycle rolled back over the first cycle's committed state"
    );
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_403,
        "cycle one's customization survives the aborted cycle two"
    );
    // Cycle two retired cycle one's library from its images; the
    // rollback put back processes that still map it.
    for &(pid, base) in &first.handler_bases {
        assert_eq!(
            injected_library_bases(&server.kernel, pid),
            vec![base],
            "{pid:?} maps cycle one's library"
        );
    }

    // The displaced baseline was put back: cycle two retries cleanly.
    let retry = dynacut
        .customize(&mut server.kernel, &server.pids, &enable)
        .expect("retry of cycle two");
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_201,
        "PUT re-enabled by the retried cycle"
    );
    assert_eq!(retry.handler_bases.len(), server.pids.len());
    for &(pid, base) in &retry.handler_bases {
        assert_eq!(
            injected_library_bases(&server.kernel, pid),
            vec![base],
            "{pid:?} maps exactly the retry's library"
        );
    }
}

/// A failed cycle puts back the handler records it edited: a re-enable
/// of SETRANGE that dies after its image edit leaves SETRANGE's redirect
/// in the record, so the next committed cycle's library still redirects
/// the trap SETRANGE keeps. Were the record left edited, that library
/// would lack the redirect and the next SETRANGE would kill the server.
#[test]
fn a_rolled_back_enable_leaves_the_handler_record_as_it_was() {
    let mut server = boot_redis();
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let conn = server.kernel.client_connect(redis::PORT).unwrap();
    let block = |function: &str, disable: bool| {
        let feature = Feature::from_function(function, &server.exe, function)
            .unwrap()
            .redirect_to_function(&server.exe, redis::ERROR_HANDLER)
            .unwrap();
        let plan = if disable {
            RewritePlan::new().disable(feature)
        } else {
            RewritePlan::new().enable(feature)
        };
        plan.with_fault_policy(FaultPolicy::Redirect)
            .with_downtime(Downtime::None)
    };
    let (disable, enable) = (
        block("rd_cmd_setrange", true),
        block("rd_cmd_setrange", false),
    );
    let del = block("rd_cmd_del", true);
    dynacut
        .customize(&mut server.kernel, &server.pids, &disable)
        .unwrap();

    fault::arm(FaultPhase::LibraryInjection, 0);
    let err = dynacut
        .customize(&mut server.kernel, &server.pids, &enable)
        .expect_err("armed re-enable must fail");
    assert_eq!(err.injected_phase(), Some(FaultPhase::LibraryInjection));

    dynacut
        .customize(&mut server.kernel, &server.pids, &del)
        .unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, REDIS_PROOF.0, 5_000_000)
            .unwrap(),
        REDIS_PROOF.1,
        "SETRANGE still redirects"
    );
    assert!(server.kernel.exit_status(server.pids[0]).is_none());
}

/// Bases of the handler libraries a customize cycle injected into `pid`.
fn injected_library_bases(kernel: &Kernel, pid: Pid) -> Vec<u64> {
    kernel
        .process(pid)
        .unwrap()
        .modules
        .iter()
        .filter(|module| module.image.name.starts_with("dc_sighandler@"))
        .map(|module| module.base)
        .collect()
}

/// An armed fault whose phase is never reached stays armed (and is
/// cleaned up with `disarm_all`) — the non-incremental cycle never
/// pre-dumps, so the customize goes through untouched.
#[test]
fn unreached_phase_leaves_customize_untouched() {
    let mut server = boot_nginx();
    // No `.with_incremental()`: PreDump/BaselineStore/MarkClean never run.
    let mut dynacut = DynaCut::new(server.registry.clone());
    let plan = nginx_plan(&server);
    fault::arm(FaultPhase::PreDump, 0);
    dynacut
        .customize(&mut server.kernel, &server.pids, &plan)
        .expect("non-incremental customize never hits the pre-dump hook");
    assert_eq!(fault::armed_count(), 1, "fault still armed");
    fault::disarm_all();
    assert_eq!(fault::armed_count(), 0);
    let conn = server.kernel.client_connect(nginx::PORT).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"PUT /f data", 5_000_000)
            .unwrap(),
        nginx::RESP_403
    );
}

// ---------------------------------------------------------------------
// Rollout phases (PR 7): the canary-then-fleet pipeline must be as
// all-or-nothing as a single cycle. A fault during the soak or while
// promoting replica k demotes the canary (unwinding replicas 0..k
// first), leaving the whole fleet bit-identical to its pre-attempt
// state modulo the guest clock — the fleet kept serving, so parity is
// defined over `state_fingerprint_timeless`.
// ---------------------------------------------------------------------

/// Boots `replicas` identical single-process Redis replicas into one
/// kernel, all sharing the listener backlog.
fn boot_redis_fleet(replicas: usize) -> (Server, Vec<Vec<Pid>>) {
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
    let mut groups = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        let pid = kernel.spawn(&spec).unwrap();
        kernel
            .run_until_event(EVENT_READY, 500_000_000)
            .expect("replica initializes");
        groups.push(vec![pid]);
    }
    let pids = kernel.pids();
    (
        Server {
            kernel,
            pids,
            exe,
            registry,
        },
        groups,
    )
}

/// The verifier-policy plan a rollout requires.
fn redis_verify_plan(server: &Server) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", &server.exe, "rd_cmd_setrange").unwrap();
    RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None)
}

/// Asserts the fleet-wide demotion contract after a failed/demoted
/// rollout: clock-masked fingerprint parity, every pid alive and
/// thawed, zero leaked page refs, the registry the session started
/// with — then retries the identical rollout and requires a clean
/// zero-copy promotion that injects under the names and at the bases
/// a session that never failed uses.
fn assert_demoted_then_repromote(
    server: &mut Server,
    dynacut: &mut DynaCut,
    groups: &[Vec<Pid>],
    plan: &RewritePlan,
    rollout_plan: &RolloutPlan,
    pristine: &str,
    ctx: &str,
) {
    assert_eq!(
        server.kernel.state_fingerprint_timeless(),
        pristine,
        "fleet-wide state parity after demotion ({ctx})"
    );
    for &pid in &server.pids {
        assert!(
            server.kernel.exit_status(pid).is_none(),
            "{pid} alive ({ctx})"
        );
        assert_ne!(
            server.kernel.process(pid).unwrap().state,
            ProcState::Frozen,
            "{pid} thawed ({ctx})"
        );
    }
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        dynacut.store().stored_pages_bytes(),
        "no leaked page refs after demotion ({ctx})"
    );
    // Every caller starts from a fresh session: the demoted canary's
    // entry was its only one, and the rollback released it.
    assert!(
        dynacut.store().is_empty(),
        "the demoted attempt left no store entry ({ctx})"
    );
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        0,
        "the demoted attempt left no page ref ({ctx})"
    );
    let boot_names: Vec<String> = server.registry.names().map(String::from).collect();
    assert_eq!(
        registry_names(dynacut),
        boot_names,
        "the demoted attempt left the registry as it was ({ctx})"
    );

    // A session that never failed, on a twin fleet.
    let (mut twin, twin_groups) = boot_redis_fleet(groups.len());
    let mut fresh = DynaCut::new(twin.registry.clone()).with_incremental();
    let first = fresh
        .rollout(&mut twin.kernel, &twin_groups, plan, rollout_plan)
        .expect("the twin's first rollout promotes");
    let reference: Reference = (
        first.canary_report.handler_bases,
        twin.pids
            .iter()
            .map(|&pid| injected_libraries(&twin.kernel, pid))
            .collect(),
        registry_names(&fresh),
    );

    let retry = dynacut
        .rollout(&mut server.kernel, groups, plan, rollout_plan)
        .unwrap_or_else(|err| panic!("retry after demotion must promote ({ctx}): {err}"));
    let libraries = server
        .pids
        .iter()
        .map(|&pid| injected_libraries(&server.kernel, pid))
        .collect();
    assert_eq!(
        (
            retry.canary_report.handler_bases.clone(),
            libraries,
            registry_names(dynacut)
        ),
        reference,
        "the retry injects under the names and at the bases a session that never failed uses ({ctx})"
    );
    assert_eq!(retry.decision, RolloutDecision::Promoted, "{ctx}");
    assert_eq!(retry.promoted.len(), groups.len() - 1, "{ctx}");
    assert_eq!(
        retry.promotion_copied_bytes, 0,
        "retry promotion still copies nothing ({ctx})"
    );
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        dynacut.store().stored_pages_bytes(),
        "no leaked page refs after the retry promotion ({ctx})"
    );
}

/// A fault while the canary soaks demotes the whole attempt. Skip 0
/// fires before the first serve slice, skip 2 two slices in.
#[test]
fn canary_soak_fault_demotes_and_retry_promotes() {
    for skip in [0usize, 2] {
        let ctx = format!("soak fault, skip {skip}");
        let (mut server, groups) = boot_redis_fleet(3);
        let plan = redis_verify_plan(&server);
        let rollout_plan = RolloutPlan {
            soak_slices: 4,
            serve_slice_ns: 200_000,
        };
        let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
        let pristine = server.kernel.state_fingerprint_timeless();
        let demotions = server
            .kernel
            .flight()
            .metrics()
            .counter("rollout.demotions");

        fault::arm(FaultPhase::CanarySoak, skip);
        let err = dynacut
            .rollout(&mut server.kernel, &groups, &plan, &rollout_plan)
            .expect_err("armed soak must fail");
        assert_eq!(err.injected_phase(), Some(FaultPhase::CanarySoak), "{ctx}");
        assert_eq!(fault::armed_count(), 0, "fault consumed ({ctx})");
        assert_eq!(
            server
                .kernel
                .flight()
                .metrics()
                .counter("rollout.demotions"),
            demotions + 1,
            "demotion counted ({ctx})"
        );
        assert_demoted_then_repromote(
            &mut server,
            &mut dynacut,
            &groups,
            &plan,
            &rollout_plan,
            &pristine,
            &ctx,
        );
    }
}

/// A fault while promoting replica k first unwinds the already-promoted
/// replicas 0..k, then demotes the canary: all-or-nothing across the
/// fleet, for every k.
#[test]
fn promote_restore_fault_unwinds_the_whole_wave() {
    for skip in [0usize, 1, 2] {
        let ctx = format!("promotion fault at replica {skip}");
        let (mut server, groups) = boot_redis_fleet(4);
        let plan = redis_verify_plan(&server);
        let rollout_plan = RolloutPlan {
            soak_slices: 2,
            serve_slice_ns: 200_000,
        };
        let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
        let pristine = server.kernel.state_fingerprint_timeless();
        let seq0 = server.kernel.flight().next_seq();

        fault::arm(FaultPhase::PromoteRestore, skip);
        let err = dynacut
            .rollout(&mut server.kernel, &groups, &plan, &rollout_plan)
            .expect_err("armed promotion must fail");
        assert_eq!(
            err.injected_phase(),
            Some(FaultPhase::PromoteRestore),
            "{ctx}"
        );
        assert_eq!(fault::armed_count(), 0, "fault consumed ({ctx})");

        // The journal shows the unwind: one UndoRestore per promoted
        // replica plus one for the canary's own committed restore, and
        // the terminal event is the canary's rollback.
        let events: Vec<_> = server.kernel.flight().since(seq0).cloned().collect();
        let undos = events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::RollbackStep {
                        step: RollbackStep::UndoRestore
                    }
                )
            })
            .count();
        assert_eq!(
            undos,
            skip + 1,
            "replicas 0..k unwound, then the canary ({ctx})"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::CanaryDemoted { .. })),
            "demotion journalled ({ctx})"
        );
        assert!(
            matches!(
                events.last().map(|e| &e.kind),
                Some(EventKind::CustomizeRollback)
            ),
            "journal ends with the terminal rollback ({ctx})"
        );
        assert!(
            !events.iter().any(|e| matches!(
                e.kind,
                EventKind::CustomizeCommit | EventKind::CanaryPromoted { .. }
            )),
            "a failed wave commits nothing ({ctx})"
        );

        assert_demoted_then_repromote(
            &mut server,
            &mut dynacut,
            &groups,
            &plan,
            &rollout_plan,
            &pristine,
            &ctx,
        );
    }
}

/// A synthetic verifier report planted in the event queue demotes the
/// canary mid-soak with the same fleet-wide guarantees as an injected
/// fault — and the report comes back in the rollout report instead of
/// an error.
#[test]
fn synthetic_verifier_report_mid_soak_demotes() {
    let (mut server, groups) = boot_redis_fleet(3);
    let plan = redis_verify_plan(&server);
    let rollout_plan = RolloutPlan {
        soak_slices: 4,
        serve_slice_ns: 200_000,
    };
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let pristine = server.kernel.state_fingerprint_timeless();
    const ADDR: u64 = 0xFAB;
    server
        .kernel
        .inject_event(groups[0][0], VERIFIER_EVENT_BIT | ADDR);

    let report = dynacut
        .rollout(&mut server.kernel, &groups, &plan, &rollout_plan)
        .expect("a report is a demotion, not an error");
    assert_eq!(report.decision, RolloutDecision::Demoted);
    assert_eq!(report.verifier_reports, vec![ADDR]);
    assert!(report.promoted.is_empty());

    assert_demoted_then_repromote(
        &mut server,
        &mut dynacut,
        &groups,
        &plan,
        &rollout_plan,
        &pristine,
        "synthetic report",
    );
}
