//! One live handler library per process (DESIGN §5, §7).
//!
//! Every `Redirect` or `Verify` cycle injects a fresh handler library
//! (paper §3.2.1) carrying the union redirect/verify tables, and unloads
//! every library an earlier cycle injected — "unused shared library code
//! can be dynamically unloaded through the process rewriting approach"
//! (paper §5). The suite pins:
//!
//! * a process toggled through many `Redirect` cycles maps its boot
//!   modules plus exactly one library, with a flat VMA and page count
//!   and SIGTRAP pointing into that library;
//! * every replica of a fleet that ran many `Verify` rollouts maps the
//!   same three modules after each promotion;
//! * a cycle that freezes a process inside its signal handler keeps the
//!   library the handler runs in, and a later cycle at depth 0 retires
//!   it.

use dynacut::{
    CustomizeReport, Downtime, DynaCut, FaultPolicy, Feature, RewritePlan, RolloutDecision,
    RolloutPlan,
};
use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::{Kernel, LoadSpec, Pid, Signal};
use std::sync::Arc;

/// Modules a redis process maps at boot: the executable and libc.
const BOOT_MODULES: usize = 2;

struct Fleet {
    kernel: Kernel,
    pids: Vec<Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

/// `replicas` single-process redis servers sharing one kernel.
fn boot_redis(replicas: usize) -> Fleet {
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
    let mut pids = Vec::with_capacity(replicas);
    for _ in 0..replicas {
        pids.push(kernel.spawn(&spec).unwrap());
        kernel
            .run_until_event(EVENT_READY, 500_000_000)
            .expect("replica initializes");
    }
    Fleet {
        kernel,
        pids,
        exe,
        registry,
    }
}

/// SET disabled (redirected to the error reply) or re-enabled, under
/// the `Redirect` policy, as the toggle benchmark runs it.
fn set_plan(fleet: &Fleet, disable: bool) -> RewritePlan {
    let set = Feature::from_function("SET", &fleet.exe, "rd_cmd_set")
        .unwrap()
        .redirect_to_function(&fleet.exe, redis::ERROR_HANDLER)
        .unwrap();
    let plan = if disable {
        RewritePlan::new().disable(set)
    } else {
        RewritePlan::new().enable(set)
    };
    plan.with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None)
}

/// The names of the modules `pid` maps, in load order.
fn module_names(kernel: &Kernel, pid: Pid) -> Vec<String> {
    kernel
        .process(pid)
        .unwrap()
        .modules
        .iter()
        .map(|module| module.image.name.clone())
        .collect()
}

/// The `[start, end)` range the library injected at `base` occupies in
/// `pid`: the one module mapped there, by its footprint.
fn library_range(kernel: &Kernel, pid: Pid, base: u64) -> std::ops::Range<u64> {
    let module = kernel
        .process(pid)
        .unwrap()
        .modules
        .iter()
        .find(|module| module.base == base)
        .expect("the injected library is mapped at its reported base");
    base..base + dynacut_obj::page_align(module.image.footprint())
}

/// The one injected library `report` put into `pid`.
fn handler_base(report: &CustomizeReport, pid: Pid) -> u64 {
    let bases: Vec<u64> = report
        .handler_bases
        .iter()
        .filter(|(of, _)| *of == pid)
        .map(|&(_, base)| base)
        .collect();
    assert_eq!(bases.len(), 1, "one library injected into {pid:?}");
    bases[0]
}

/// Forty toggles of SET under `Redirect`: after every cycle the process
/// maps its boot modules plus the one library that cycle injected, its
/// VMA and populated-page counts stay at cycle one's, and SIGTRAP's
/// handler and restorer both lie inside that library.
#[test]
fn redirect_toggles_keep_one_live_handler_library() {
    let mut fleet = boot_redis(1);
    let pid = fleet.pids[0];
    let mut dynacut = DynaCut::new(fleet.registry.clone());
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    let mut after_first: Option<(usize, usize)> = None;
    for cycle in 0..40 {
        let disable = cycle % 2 == 0;
        let plan = set_plan(&fleet, disable);
        let report = dynacut
            .customize(&mut fleet.kernel, &fleet.pids, &plan)
            .unwrap_or_else(|err| panic!("cycle {cycle}: {err}"));

        let names = module_names(&fleet.kernel, pid);
        assert_eq!(names.len(), BOOT_MODULES + 1, "cycle {cycle}: {names:?}");
        assert_eq!(
            names
                .iter()
                .filter(|name| name.starts_with("dc_sighandler@"))
                .count(),
            1,
            "cycle {cycle}: {names:?}"
        );
        let library = library_range(&fleet.kernel, pid, handler_base(&report, pid));
        let proc = fleet.kernel.process(pid).unwrap();
        let trap = proc.sigactions[Signal::Sigtrap.number() as usize];
        assert!(library.contains(&trap.handler), "cycle {cycle}: handler");
        assert!(library.contains(&trap.restorer), "cycle {cycle}: restorer");
        let shape = (proc.mem.vmas().len(), proc.mem.populated_pages().count());
        assert_eq!(*after_first.get_or_insert(shape), shape, "cycle {cycle}");

        let reply = fleet
            .kernel
            .client_request(conn, b"SET k v\n", 5_000_000)
            .unwrap();
        let expected: &[u8] = if disable {
            redis::ERR_BLOCKED
        } else {
            b"+OK\n"
        };
        assert_eq!(reply, expected, "cycle {cycle}");
    }
}

/// Ten `Verify` rollouts of SETRANGE over four replicas: after each
/// promotion every replica maps its boot modules plus the canary's one
/// library.
#[test]
fn verify_rollouts_keep_every_replica_at_one_library() {
    let mut fleet = boot_redis(4);
    let groups: Vec<Vec<Pid>> = fleet.pids.iter().map(|&pid| vec![pid]).collect();
    let setrange = Feature::from_function("SETRANGE", &fleet.exe, "rd_cmd_setrange").unwrap();
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let soak = RolloutPlan {
        soak_slices: 2,
        serve_slice_ns: 10_000,
    };
    for rollout in 0..10 {
        let plan = if rollout % 2 == 0 {
            RewritePlan::new().disable(setrange.clone())
        } else {
            RewritePlan::new().enable(setrange.clone())
        }
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
        let report = dynacut
            .rollout(&mut fleet.kernel, &groups, &plan, &soak)
            .unwrap_or_else(|err| panic!("rollout {rollout}: {err}"));
        assert_eq!(
            report.decision,
            RolloutDecision::Promoted,
            "rollout {rollout}"
        );
        let canary = module_names(&fleet.kernel, report.canary[0]);
        assert_eq!(
            canary.len(),
            BOOT_MODULES + 1,
            "rollout {rollout}: {canary:?}"
        );
        for &pid in &fleet.pids {
            assert_eq!(
                module_names(&fleet.kernel, pid),
                canary,
                "rollout {rollout}: replica {pid:?}"
            );
        }
    }
}

/// A cycle that freezes the process inside its SIGTRAP handler keeps
/// the library the handler runs in: the handler finishes and the client
/// reads the redirected reply from a live server. The next cycle, at
/// depth 0, retires both earlier libraries.
#[test]
fn a_live_signal_frame_keeps_its_library_until_depth_zero() {
    let mut fleet = boot_redis(1);
    let pid = fleet.pids[0];
    let mut dynacut = DynaCut::new(fleet.registry.clone());
    let disable = set_plan(&fleet, true);
    let enable = set_plan(&fleet, false);
    dynacut
        .customize(&mut fleet.kernel, &fleet.pids, &disable)
        .expect("cycle one");
    assert_eq!(module_names(&fleet.kernel, pid).len(), BOOT_MODULES + 1);

    // Step the server into the handler for a blocked SET.
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    fleet.kernel.client_send(conn, b"SET k v\n").unwrap();
    let mut steps = 0;
    while fleet.kernel.process(pid).unwrap().signal_depth == 0 {
        assert!(steps < 100_000, "the server never entered its handler");
        fleet.kernel.run_for(1);
        steps += 1;
    }
    assert_eq!(fleet.kernel.process(pid).unwrap().signal_depth, 1);

    // Cycle two lands mid-handler: it keeps cycle one's library.
    dynacut
        .customize(&mut fleet.kernel, &fleet.pids, &enable)
        .expect("cycle two");
    let names = module_names(&fleet.kernel, pid);
    assert_eq!(names.len(), BOOT_MODULES + 2, "{names:?}");
    let reply = fleet.kernel.client_request(conn, b"", 5_000_000).unwrap();
    assert_eq!(reply, redis::ERR_BLOCKED, "the in-flight handler finished");
    let proc = fleet.kernel.process(pid).unwrap();
    assert_eq!(proc.fatal_signal, None);
    assert_eq!(proc.signal_depth, 0);
    assert_eq!(
        fleet
            .kernel
            .client_request(conn, b"SET k v\n", 5_000_000)
            .unwrap(),
        b"+OK\n"
    );

    // Cycle three runs at depth 0 and retires both earlier libraries.
    dynacut
        .customize(&mut fleet.kernel, &fleet.pids, &disable)
        .expect("cycle three");
    let names = module_names(&fleet.kernel, pid);
    assert_eq!(names.len(), BOOT_MODULES + 1, "{names:?}");
    assert_eq!(
        fleet
            .kernel
            .client_request(conn, b"SET k v\n", 5_000_000)
            .unwrap(),
        redis::ERR_BLOCKED
    );
}
