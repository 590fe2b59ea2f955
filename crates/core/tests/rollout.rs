//! Canary-then-fleet rollout suite (DESIGN §13, paper §3.2.3 scaled
//! out), plus the PR 7 regression tests for the correctness fixes that
//! ride along:
//!
//! * a clean soak promotes the canary's interned image onto every
//!   replica with **zero page bytes copied** and exactly one real dump,
//! * a verifier report during the soak demotes through the transaction
//!   machinery and leaves the fleet's clock-masked state fingerprint
//!   bit-identical to the pre-attempt snapshot,
//! * [`DynaCut::verifier_reports`] reads verifier reports through a
//!   journal cursor and leaves every other guest event in place (the
//!   old implementation destroyed interleaved guest events),
//! * a rollout's commit releases the canary's displaced baseline,
//! * malformed rollouts are rejected as [`DynacutError::BadPlan`]
//!   before the fleet is touched,
//! * every stage bracket of a rollout and of a fleet customization
//!   nests the same way, the promotion window's included, and
//! * a promotion takes only the canary's code changes: a promoted
//!   replica resumes its own syscall and keeps its own data, a
//!   self-healed replica still takes the next rollout, a replica that
//!   does not match the canary fails its window and demotes the canary
//!   with nothing changed, a replica frozen inside its handler keeps
//!   the library it runs in, and an unwind never unmaps a library under
//!   a live signal frame.

use dynacut::{
    BlockPolicy, Downtime, DynaCut, DynacutError, EventKind, FaultPolicy, Feature, FlightEvent,
    Phase, RewritePlan, RolloutDecision, RolloutPlan, VERIFIER_EVENT_BIT,
};
use dynacut_apps::{libc::guest_libc, lighttpd, redis, EVENT_READY};
use dynacut_criu::{CriuError, ModuleRegistry};
use dynacut_isa::TRAP_OPCODE;
use dynacut_vm::{Kernel, LoadSpec, Pid, ProcState};
use std::collections::VecDeque;
use std::sync::Arc;

/// A fleet of identical single-process Redis replicas sharing one
/// kernel and one `SO_REUSEPORT`-style listener backlog.
struct Fleet {
    kernel: Kernel,
    groups: Vec<Vec<Pid>>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot_fleet(replicas: usize) -> Fleet {
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
        // One `run_until_event` per spawn keeps the ready markers
        // unambiguous.
        kernel
            .run_until_event(EVENT_READY, 500_000_000)
            .expect("replica initializes");
        groups.push(vec![pid]);
    }
    Fleet {
        kernel,
        groups,
        exe,
        registry,
    }
}

impl Fleet {
    /// One request into the shared backlog over a transient connection;
    /// whichever unfrozen replica accepts first serves it.
    fn request(&mut self, bytes: &[u8]) -> Vec<u8> {
        let conn = self.kernel.client_connect(redis::PORT).unwrap();
        let reply = self.kernel.client_request(conn, bytes, 10_000_000).unwrap();
        let _ = self.kernel.client_close(conn);
        reply
    }

    /// [`request`](Fleet::request), served by `pid`: every other
    /// process of the fleet is frozen until the reply is in.
    fn request_on(&mut self, pid: Pid, bytes: &[u8]) -> Vec<u8> {
        let others: Vec<Pid> = self
            .kernel
            .pids()
            .into_iter()
            .filter(|&p| p != pid)
            .collect();
        for &other in &others {
            self.kernel.freeze(other).unwrap();
        }
        let reply = self.request(bytes);
        for &other in &others {
            self.kernel.thaw(other).unwrap();
        }
        reply
    }

    /// The names of the modules `pid` maps, in load order.
    fn module_names(&self, pid: Pid) -> Vec<String> {
        self.kernel
            .process(pid)
            .unwrap()
            .modules
            .iter()
            .map(|module| module.image.name.clone())
            .collect()
    }

    /// The address of the SETRANGE handler's first byte in `pid`.
    fn setrange_entry(&self, feature: &Feature, pid: Pid) -> u64 {
        let proc = self.kernel.process(pid).unwrap();
        let base = proc
            .modules
            .iter()
            .find(|m| m.image.name == redis::MODULE)
            .unwrap()
            .base;
        base + feature.entry_block().unwrap().addr
    }

    /// The first byte of the SETRANGE handler in `pid`'s memory.
    fn setrange_entry_byte(&self, feature: &Feature, pid: Pid) -> u8 {
        let mut byte = [0u8; 1];
        self.kernel
            .process(pid)
            .unwrap()
            .mem
            .read_unchecked(self.setrange_entry(feature, pid), &mut byte);
        byte[0]
    }

    /// Boots a lighttpd server next to the redis replicas: a process
    /// that does not run the canary's program.
    fn spawn_lighttpd(&mut self) -> Pid {
        let libc = guest_libc();
        self.kernel
            .add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
        let pid = self
            .kernel
            .spawn(&LoadSpec::with_libs(lighttpd::image(&libc), vec![libc]))
            .unwrap();
        self.kernel
            .run_until_event(EVENT_READY, 500_000_000)
            .expect("lighttpd initializes");
        pid
    }
}

/// The short soak and serve slices perfbench rolls out with.
const SHORT_SOAK: RolloutPlan = RolloutPlan {
    soak_slices: 2,
    serve_slice_ns: 10_000,
};

/// SETRANGE re-enabled under the verifier policy.
fn enable_plan(exe: &dynacut_obj::Image) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", exe, "rd_cmd_setrange").unwrap();
    RewritePlan::new()
        .enable(setrange)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None)
}

/// "Misclassify" SETRANGE as undesired under the verifier policy — the
/// only policy a rollout accepts.
fn verify_plan(exe: &dynacut_obj::Image) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", exe, "rd_cmd_setrange").unwrap();
    RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None)
}

/// Zero leaked page refs: the store's refcount-derived footprint equals
/// the sum over stored checkpoints.
fn assert_no_leaked_pages(dynacut: &DynaCut, ctx: &str) {
    assert_eq!(
        dynacut.store().logical_pages_bytes(),
        dynacut.store().stored_pages_bytes(),
        "no leaked page refs ({ctx})"
    );
}

/// Regression: [`DynaCut::verifier_reports`] once drained the whole
/// guest event queue, silently destroying every event that was *not* a
/// verifier report. Reports are now read through the session's cursor
/// into the flight journal, which removes nothing.
#[test]
fn verifier_reports_leave_other_guest_events_queued() {
    let mut fleet = boot_fleet(1);
    let pid = fleet.groups[0][0];
    let mut dynacut = DynaCut::new(fleet.registry.clone());
    // Read from here so the assertions below are exact (boot leaves
    // its ready markers in the journal).
    dynacut.verifier_reports(&fleet.kernel);
    let seq0 = fleet.kernel.flight().next_seq();
    const MARKER: u64 = 0x42;
    const ADDR: u64 = 0x7000;
    fleet.kernel.inject_event(pid, MARKER);
    fleet.kernel.inject_event(pid, VERIFIER_EVENT_BIT | ADDR);
    fleet.kernel.inject_event(pid, MARKER + 1);

    let reports = dynacut.verifier_reports(&fleet.kernel);
    assert_eq!(
        reports,
        vec![ADDR],
        "the tagged event is extracted, untagged"
    );

    // The interleaved guest markers are still in the journal, in order.
    let codes: Vec<u64> = fleet
        .kernel
        .flight()
        .since(seq0)
        .filter_map(|event| match event.kind {
            EventKind::GuestMarker { code } => Some(code),
            _ => None,
        })
        .collect();
    assert_eq!(
        codes,
        vec![MARKER, MARKER + 1],
        "non-verifier events stay for their own readers"
    );
    assert!(
        dynacut.verifier_reports(&fleet.kernel).is_empty(),
        "a second read finds nothing new"
    );
}

/// The tentpole happy path: one canary cycle, a clean soak, then N−1
/// shared-image promotions — no re-dump, no re-rewrite, zero page bytes
/// copied, and the rewrite live (and self-healing) on every replica.
#[test]
fn clean_soak_promotes_the_canary_image_fleet_wide() {
    let mut fleet = boot_fleet(4);
    let plan = verify_plan(&fleet.exe);
    let feature = plan.disable[0].clone();
    let rollout_plan = RolloutPlan {
        soak_slices: 4,
        serve_slice_ns: 200_000,
    };
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let seq0 = fleet.kernel.flight().next_seq();

    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan)
        .unwrap();

    assert_eq!(report.decision, RolloutDecision::Promoted);
    assert_eq!(report.canary, groups[0]);
    assert_eq!(report.soak_slices, 4, "the full soak ran");
    assert!(report.verifier_reports.is_empty(), "clean soak");
    assert_eq!(report.trap_hits, 0, "no SETRANGE traffic, no traps");
    assert_eq!(report.promoted.len(), 3, "every non-canary group promoted");
    assert_eq!(
        report.promotion_copied_bytes, 0,
        "shared-image promotion copies zero page bytes"
    );
    for replica in &report.promoted {
        assert_eq!(replica.copied_bytes, 0, "per-replica too");
        assert!(replica.freeze_window.as_nanos() > 0, "window measured");
    }

    // The whole fleet paid for exactly one real dump — the canary's.
    let events: Vec<_> = fleet.kernel.flight().since(seq0).cloned().collect();
    let dumps = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ProcessDumped { .. }))
        .count();
    assert_eq!(dumps, 1, "one canary dump, zero per-replica dumps");
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::CanaryPromoted {
                replicas: 3,
                soak_slices: 4
            }
        )),
        "promotion journalled"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CustomizeCommit)),
        "the canary cycle committed"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CustomizeRollback)),
        "nothing rolled back"
    );
    assert_eq!(
        fleet
            .kernel
            .flight()
            .metrics()
            .counter("rollout.promotions"),
        1
    );

    // The rewrite is physically present on every replica: the SETRANGE
    // entry byte is a trap byte in each process's memory.
    for group in &groups {
        for &pid in group {
            assert!(fleet.kernel.exit_status(pid).is_none(), "{pid} alive");
            assert_ne!(
                fleet.kernel.process(pid).unwrap().state,
                ProcState::Frozen,
                "{pid} serving"
            );
            assert_eq!(
                fleet.setrange_entry_byte(&feature, pid),
                TRAP_OPCODE,
                "{pid} carries the canary's rewrite"
            );
        }
    }
    assert_no_leaked_pages(&dynacut, "after promotion");

    // The fleet serves, and a *promoted* replica self-heals: with the
    // canary frozen, whichever replica accepts the SETRANGE must be one
    // that got the image by promotion, and under the verifier policy the
    // trap restores the byte, reports, and the request completes.
    assert_eq!(fleet.request(b"SET k v\n"), b"+OK\n");
    fleet.kernel.freeze(groups[0][0]).unwrap();
    assert_eq!(
        fleet.request(b"SETRANGE 8 abc\n"),
        b"+OK\n",
        "promoted replica self-heals and serves"
    );
    fleet.kernel.thaw(groups[0][0]).unwrap();
    let healed = dynacut.verifier_reports(&fleet.kernel);
    assert!(
        !healed.is_empty(),
        "the self-heal on a promoted replica is reported"
    );
}

/// Each rollout's commit releases the baseline the canary's cycle
/// displaced: after a disabling and a re-enabling rollout the store
/// holds only the canary's current baseline, leaks no page ref, and
/// every replica serves the re-enabled feature.
#[test]
fn second_rollout_keeps_only_the_canary_baseline() {
    let mut fleet = boot_fleet(3);
    let disable = verify_plan(&fleet.exe);
    let feature = disable.disable[0].clone();
    let enable = RewritePlan::new()
        .enable(feature.clone())
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
    let rollout_plan = RolloutPlan {
        soak_slices: 2,
        serve_slice_ns: 200_000,
    };
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();

    let first = dynacut
        .rollout(&mut fleet.kernel, &groups, &disable, &rollout_plan)
        .unwrap();
    let second = dynacut
        .rollout(&mut fleet.kernel, &groups, &enable, &rollout_plan)
        .unwrap();
    assert_eq!(first.decision, RolloutDecision::Promoted);
    assert_eq!(second.decision, RolloutDecision::Promoted);

    let previous = first.canary_report.checkpoint_id.unwrap();
    let current = second.canary_report.checkpoint_id.unwrap();
    assert_eq!(dynacut.store().len(), 1, "one entry: the canary's baseline");
    dynacut.store().materialize(current).unwrap();
    assert!(
        dynacut.store().materialize(previous).is_err(),
        "the displaced baseline was released"
    );
    assert_no_leaked_pages(&dynacut, "after two rollouts");

    for group in &groups {
        for &pid in group {
            assert_ne!(
                fleet.setrange_entry_byte(&feature, pid),
                TRAP_OPCODE,
                "{pid} carries the re-enabled SETRANGE"
            );
        }
    }
    assert_eq!(fleet.request(b"SETRANGE 8 abc\n"), b"+OK\n");
}

/// A verifier report during the soak demotes the canary through the
/// transaction machinery: the fleet's clock-masked fingerprint is
/// bit-identical to the pre-attempt snapshot, nothing leaks, and the
/// identical rollout promotes once the report stops coming.
#[test]
fn soak_report_demotes_the_canary_with_state_parity() {
    let mut fleet = boot_fleet(3);
    let plan = verify_plan(&fleet.exe);
    let rollout_plan = RolloutPlan {
        soak_slices: 6,
        serve_slice_ns: 200_000,
    };
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let canary = groups[0][0];

    // Snapshot first, then plant the report before the rollout: the
    // soak reads it through the session's journal cursor.
    let pristine = fleet.kernel.state_fingerprint_timeless();
    const ADDR: u64 = 0xBEE;
    fleet.kernel.inject_event(canary, VERIFIER_EVENT_BIT | ADDR);
    let seq0 = fleet.kernel.flight().next_seq();

    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan)
        .unwrap();

    assert_eq!(report.decision, RolloutDecision::Demoted);
    assert_eq!(report.soak_slices, 1, "the first report decides");
    assert_eq!(report.verifier_reports, vec![ADDR]);
    assert!(report.promoted.is_empty(), "no replica was touched");
    assert_eq!(report.promotion_copied_bytes, 0);

    // The soak advanced the guest clock — the fleet kept serving — so
    // parity is defined over the clock-masked fingerprint.
    assert_eq!(
        fleet.kernel.state_fingerprint_timeless(),
        pristine,
        "demotion rolls the fleet back to its pre-attempt state"
    );
    assert_no_leaked_pages(&dynacut, "after demotion");

    let events: Vec<_> = fleet.kernel.flight().since(seq0).cloned().collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CanaryDemoted { reports: 1 })),
        "demotion journalled with the report count"
    );
    assert!(
        matches!(
            events.last().map(|e| &e.kind),
            Some(EventKind::CustomizeRollback)
        ),
        "the journal ends with the terminal rollback"
    );
    assert!(
        !events.iter().any(|e| matches!(
            e.kind,
            EventKind::CustomizeCommit | EventKind::CanaryPromoted { .. }
        )),
        "a demoted rollout commits nothing"
    );
    assert_eq!(
        fleet.kernel.flight().metrics().counter("rollout.demotions"),
        1
    );

    // SETRANGE is still enabled everywhere — the rewrite never landed.
    assert_eq!(fleet.request(b"SETRANGE 8 abc\n"), b"+OK\n");

    // The retry (no report this time) promotes.
    let retry = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan)
        .unwrap();
    assert_eq!(retry.decision, RolloutDecision::Promoted);
    assert_eq!(retry.promoted.len(), 2);
    assert_eq!(retry.promotion_copied_bytes, 0);
    assert_no_leaked_pages(&dynacut, "after the retry promotion");
}

/// Regression: the soak once decided on the reports the flight journal
/// still held, so a report evicted before the soak read it promoted the
/// canary. The `verifier.reports` count keeps that report: the canary is
/// demoted with the count, and only the address is lost.
#[test]
fn a_report_the_journal_evicted_still_demotes_the_canary() {
    let mut fleet = boot_fleet(2);
    let plan = verify_plan(&fleet.exe);
    let groups = fleet.groups.clone();
    let canary = groups[0][0];
    fleet
        .kernel
        .inject_event(canary, VERIFIER_EVENT_BIT | 0xBEE);
    for code in 0..fleet.kernel.flight().capacity() as u64 {
        fleet.kernel.inject_event(canary, code);
    }
    assert!(
        !fleet
            .kernel
            .flight()
            .iter()
            .any(|e| matches!(e.kind, EventKind::VerifierReport { .. })),
        "the journal evicted the report"
    );
    let seq0 = fleet.kernel.flight().next_seq();

    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &RolloutPlan::default())
        .unwrap();

    assert_eq!(report.decision, RolloutDecision::Demoted);
    assert_eq!(report.soak_slices, 1, "the first read decides");
    assert!(report.verifier_reports.is_empty(), "the address is lost");
    assert!(report.promoted.is_empty(), "no replica was touched");
    assert!(
        fleet
            .kernel
            .flight()
            .since(seq0)
            .any(|e| matches!(e.kind, EventKind::CanaryDemoted { reports: 1 })),
        "demotion journalled with the report count"
    );
    assert_eq!(
        fleet.kernel.flight().metrics().counter("rollout.demotions"),
        1
    );
    assert_eq!(fleet.request(b"SETRANGE 8 abc\n"), b"+OK\n");
}

/// A *real* trap during the soak: a queued SETRANGE request is served by
/// the canary mid-soak, the verifier self-heals it and reports, and the
/// report demotes. Connection buffers legitimately diverge here (the
/// canary answered a request the rollback discards), so this asserts
/// behavior — alive, thawed, feature intact — rather than fingerprint
/// parity.
#[test]
fn real_trap_during_soak_demotes_the_canary() {
    let mut fleet = boot_fleet(1);
    let plan = verify_plan(&fleet.exe);
    let feature = plan.disable[0].clone();
    let rollout_plan = RolloutPlan {
        soak_slices: 8,
        serve_slice_ns: 10_000_000,
    };
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let canary = groups[0][0];

    // Queue the poisoned request before the rollout: the canary's cycle
    // carries the connection through dump/restore in repair mode, then
    // the soak serves it.
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    fleet.kernel.client_send(conn, b"SETRANGE 8 abc\n").unwrap();

    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan)
        .unwrap();

    assert_eq!(report.decision, RolloutDecision::Demoted);
    assert!(report.trap_hits >= 1, "the canary really trapped");
    assert!(
        !report.verifier_reports.is_empty(),
        "the self-heal was reported"
    );
    assert!(report.soak_slices < rollout_plan.soak_slices, "cut short");

    assert!(fleet.kernel.exit_status(canary).is_none(), "canary alive");
    assert_ne!(
        fleet.kernel.process(canary).unwrap().state,
        ProcState::Frozen,
        "canary thawed"
    );
    assert_ne!(
        fleet.setrange_entry_byte(&feature, canary),
        TRAP_OPCODE,
        "the rewrite was rolled back"
    );
    assert_no_leaked_pages(&dynacut, "after the real-trap demotion");

    // A fresh connection confirms the feature still works untouched.
    assert_eq!(fleet.request(b"SETRANGE 16 xyz\n"), b"+OK\n");
}

/// Malformed rollouts are rejected as typed [`DynacutError::BadPlan`]s
/// before any process is frozen or dumped.
#[test]
fn bad_rollouts_are_rejected_before_touching_the_fleet() {
    let mut fleet = boot_fleet(1);
    let plan = verify_plan(&fleet.exe);
    let rollout_plan = RolloutPlan::default();
    let groups = fleet.groups.clone();
    let pid = groups[0][0];
    let pristine = fleet.kernel.state_fingerprint();

    let mut incremental = DynaCut::new(fleet.registry.clone()).with_incremental();

    // Zero soak slices: the promotion decision would be vacuous.
    let zero_soak = RolloutPlan {
        soak_slices: 0,
        serve_slice_ns: 200_000,
    };
    assert!(matches!(
        incremental.rollout(&mut fleet.kernel, &groups, &plan, &zero_soak),
        Err(DynacutError::BadPlan(_))
    ));

    // No replicas at all.
    assert!(matches!(
        incremental.rollout(&mut fleet.kernel, &[], &plan, &rollout_plan),
        Err(DynacutError::BadPlan(_))
    ));

    // A non-verifier policy cannot soak: traps would kill or redirect
    // instead of reporting.
    let redirect = verify_plan(&fleet.exe).with_fault_policy(FaultPolicy::Redirect);
    assert!(matches!(
        incremental.rollout(
            &mut fleet.kernel,
            &groups,
            &plan.clone().with_fault_policy(FaultPolicy::Terminate),
            &rollout_plan
        ),
        Err(DynacutError::BadPlan(_))
    ));
    assert!(matches!(
        incremental.rollout(&mut fleet.kernel, &groups, &redirect, &rollout_plan),
        Err(DynacutError::BadPlan(_))
    ));

    // Promotion restores from the stored image: non-incremental
    // sessions store nothing to promote from.
    let mut plain = DynaCut::new(fleet.registry.clone());
    assert!(matches!(
        plain.rollout(&mut fleet.kernel, &groups, &plan, &rollout_plan),
        Err(DynacutError::BadPlan(_))
    ));

    // Unmapped pages fault with SIGSEGV, which the verifier cannot
    // heal, and a promotion replays no VMA split.
    let unmap = verify_plan(&fleet.exe).with_block_policy(BlockPolicy::UnmapPages);
    assert!(matches!(
        incremental.rollout(&mut fleet.kernel, &groups, &unmap, &rollout_plan),
        Err(DynacutError::BadPlan(_))
    ));

    // Mismatched group sizes: the canary's processes promote
    // one-to-one.
    let lopsided = vec![vec![pid], vec![pid, pid]];
    assert!(matches!(
        incremental.rollout(&mut fleet.kernel, &lopsided, &plan, &rollout_plan),
        Err(DynacutError::BadPlan(_))
    ));

    assert_eq!(
        fleet.kernel.state_fingerprint(),
        pristine,
        "every rejection happened before the fleet was touched"
    );
}

/// Walks a journal and asserts that every stage bracket nests the same
/// way: a group's per-pid `StageScheduled { stage }` events come right
/// before its `PhaseStart { phase: stage }`, and its `StageRetired`
/// events right after the matching `PhaseEnd`, for the same pids in the
/// same order. No bracket opens inside another. Returns each closed
/// bracket's phase and pids, in journal order.
fn assert_brackets_nest(events: &[FlightEvent], ctx: &str) -> Vec<(Phase, Vec<Pid>)> {
    let mut scheduled: Vec<(Phase, Pid)> = Vec::new();
    let mut open: Option<(Phase, Vec<Pid>)> = None;
    let mut retiring: VecDeque<(Phase, Pid)> = VecDeque::new();
    let mut closed = Vec::new();
    for event in events {
        if let Some((phase, pid)) = retiring.pop_front() {
            let retired = match event.kind {
                EventKind::StageRetired { stage, .. } => Some((stage, event.pid)),
                _ => None,
            };
            assert_eq!(
                retired,
                Some((phase, Some(pid))),
                "{ctx}: {pid} retires from {phase} right after its PhaseEnd"
            );
            continue;
        }
        match event.kind {
            EventKind::StageScheduled { stage } => {
                scheduled.push((stage, event.pid.expect("StageScheduled names its pid")));
            }
            EventKind::PhaseStart { phase } => {
                assert!(
                    scheduled.iter().all(|&(stage, _)| stage == phase),
                    "{ctx}: {phase} starts right after its own StageScheduled events"
                );
                assert!(open.is_none(), "{ctx}: {phase} opens inside {open:?}");
                let pids = scheduled.drain(..).map(|(_, pid)| pid).collect();
                open = Some((phase, pids));
            }
            EventKind::PhaseEnd { phase, .. } => {
                let (started, pids) = open.take().expect("PhaseEnd closes an open bracket");
                assert_eq!(started, phase, "{ctx}: brackets close in order");
                retiring.extend(pids.iter().map(|&pid| (phase, pid)));
                closed.push((phase, pids));
            }
            EventKind::StageRetired { .. } => {
                panic!("{ctx}: StageRetired away from its PhaseEnd: {event:?}")
            }
            _ => assert!(
                scheduled.is_empty(),
                "{ctx}: StageScheduled right before its PhaseStart, got {event:?} in between"
            ),
        }
    }
    assert!(
        scheduled.is_empty() && open.is_none() && retiring.is_empty(),
        "{ctx}: every bracket closed"
    );
    closed
}

/// Every stage bracket nests the same way — per-pid `StageScheduled`,
/// `PhaseStart`, the body, `PhaseEnd`, per-pid `StageRetired` — across a
/// promoted rollout (the canary's stages, then one `Promote` window per
/// replica group) and a fleet customization (every group's pre-dump,
/// then each group's serialized window). The soak is the one phase with
/// no per-pid stage: the whole fleet serves through it.
#[test]
fn every_stage_bracket_nests_the_same_way() {
    const CYCLE: [Phase; 8] = [
        Phase::PreDump,
        Phase::Freeze,
        Phase::Dump,
        Phase::ImageEdit,
        Phase::Inject,
        Phase::RestorePrepare,
        Phase::RestoreCommit,
        Phase::BaselineStore,
    ];

    let mut fleet = boot_fleet(3);
    let plan = verify_plan(&fleet.exe);
    let groups = fleet.groups.clone();
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let seq0 = fleet.kernel.flight().next_seq();
    let report = dynacut
        .rollout(
            &mut fleet.kernel,
            &groups,
            &plan,
            &RolloutPlan {
                soak_slices: 2,
                serve_slice_ns: 200_000,
            },
        )
        .unwrap();
    assert_eq!(report.decision, RolloutDecision::Promoted);
    let events: Vec<_> = fleet.kernel.flight().since(seq0).cloned().collect();
    let mut expected: Vec<(Phase, Vec<Pid>)> = CYCLE
        .iter()
        .map(|&phase| (phase, groups[0].clone()))
        .collect();
    expected.push((Phase::Soak, Vec::new()));
    expected.extend(
        groups[1..]
            .iter()
            .map(|group| (Phase::Promote, group.clone())),
    );
    assert_eq!(assert_brackets_nest(&events, "rollout"), expected);

    let mut fleet = boot_fleet(3);
    let groups = fleet.groups.clone();
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let seq0 = fleet.kernel.flight().next_seq();
    dynacut
        .customize_fleet(&mut fleet.kernel, &groups, &plan)
        .unwrap();
    let events: Vec<_> = fleet.kernel.flight().since(seq0).cloned().collect();
    let mut expected: Vec<(Phase, Vec<Pid>)> = groups
        .iter()
        .map(|group| (Phase::PreDump, group.clone()))
        .collect();
    for group in &groups {
        expected.extend(CYCLE[1..].iter().map(|&phase| (phase, group.clone())));
    }
    assert_eq!(assert_brackets_nest(&events, "fleet"), expected);
}

/// Regression: promotion used to give every replica the canary's
/// registers, so a replica parked in `accept` resumed the canary's
/// `read(3)` on a descriptor it does not have, failed with EBADF,
/// dispatched a stale request buffer and spun (224,768 and 227,840
/// instructions in 1 simulated ms). A promoted replica must resume its
/// own syscall: it stays parked and no syscall fails with EBADF.
#[test]
fn promoted_replicas_resume_their_own_syscall() {
    let mut fleet = boot_fleet(3);
    let plan = verify_plan(&fleet.exe);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();

    // One PING over a transient connection, closed from the host before
    // the guest runs again: the replica that served it is left blocked
    // reading a closed connection, the others wait in `accept`.
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    assert_eq!(
        fleet
            .kernel
            .client_request(conn, b"PING\n", 10_000_000)
            .unwrap(),
        b"+PONG\n"
    );
    fleet.kernel.client_close(conn).unwrap();

    let ebadf = "syscall.failed.ebadf";
    let failed_before = fleet.kernel.flight().metrics().counter(ebadf);
    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &SHORT_SOAK)
        .unwrap();
    assert_eq!(report.decision, RolloutDecision::Promoted);
    let retired_before: Vec<u64> = groups[1..]
        .iter()
        .map(|group| fleet.kernel.process(group[0]).unwrap().insns_retired)
        .collect();

    fleet.kernel.run_for(1_000_000);

    for (group, before) in groups[1..].iter().zip(retired_before) {
        let proc = fleet.kernel.process(group[0]).unwrap();
        assert!(
            matches!(proc.state, ProcState::Blocked(_)),
            "{} is parked, not spinning: {:?}",
            proc.pid,
            proc.state
        );
        assert!(
            proc.insns_retired - before <= 16,
            "{} retired {} instructions in an idle ms",
            proc.pid,
            proc.insns_retired - before
        );
    }
    assert_eq!(
        fleet.kernel.flight().metrics().counter(ebadf),
        failed_before,
        "no syscall failed with EBADF"
    );
}

/// Regression: promotion used to replace a replica's data with the
/// canary's, and its registers too, so a session's `GET` got no reply
/// (the replica waited in `accept` while holding the session at fd 3).
/// A replica keeps its own data and its own place in the session.
#[test]
fn a_session_keeps_its_replica_and_its_data_across_a_rollout() {
    let mut fleet = boot_fleet(3);
    let plan = verify_plan(&fleet.exe);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let (canary, replica, last) = (groups[0][0], groups[1][0], groups[2][0]);

    // Replica 2 accepts the session and stores `b`.
    fleet.kernel.freeze(canary).unwrap();
    fleet.kernel.freeze(last).unwrap();
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    assert_eq!(
        fleet
            .kernel
            .client_request(conn, b"SET b 2\n", 10_000_000)
            .unwrap(),
        b"+OK\n"
    );
    assert!(!fleet.kernel.conn_ids_of(replica).unwrap().is_empty());
    fleet.kernel.thaw(canary).unwrap();
    fleet.kernel.thaw(last).unwrap();
    fleet.kernel.run_for(100_000);

    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &SHORT_SOAK)
        .unwrap();
    assert_eq!(report.decision, RolloutDecision::Promoted);

    assert_eq!(
        fleet
            .kernel
            .client_request(conn, b"GET b\n", 10_000_000)
            .unwrap(),
        b"2\n",
        "the session's replica still holds its data"
    );
}

/// A verifier self-heal rewrites a promoted replica's text, so the
/// promotion checks never compare text bytes: after a disabling rollout
/// and a self-heal on a promoted replica, a re-enabling rollout still
/// promotes, and every replica serves SETRANGE.
#[test]
fn a_self_healed_replica_still_takes_the_next_rollout() {
    let mut fleet = boot_fleet(3);
    let disable = verify_plan(&fleet.exe);
    let feature = disable.disable[0].clone();
    let enable = enable_plan(&fleet.exe);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let canary = groups[0][0];

    let first = dynacut
        .rollout(&mut fleet.kernel, &groups, &disable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(first.decision, RolloutDecision::Promoted);
    fleet.kernel.freeze(canary).unwrap();
    assert_eq!(fleet.request(b"SETRANGE 8 abc\n"), b"+OK\n");
    assert!(
        !dynacut.verifier_reports(&fleet.kernel).is_empty(),
        "a promoted replica self-healed"
    );
    fleet.kernel.thaw(canary).unwrap();
    assert!(
        groups[1..]
            .iter()
            .any(|group| fleet.setrange_entry_byte(&feature, group[0]) != TRAP_OPCODE),
        "the healed replica's text differs from the canary's"
    );

    let second = dynacut
        .rollout(&mut fleet.kernel, &groups, &enable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(second.decision, RolloutDecision::Promoted);
    for group in &groups {
        assert_eq!(
            fleet.request_on(group[0], b"SETRANGE 8 abc\n"),
            b"+OK\n",
            "{} serves SETRANGE",
            group[0]
        );
    }
    assert_no_leaked_pages(&dynacut, "after the healed replica's rollout");
}

/// A replica that does not run the canary's program fails its window
/// with a typed error before any of its bytes change; the replicas
/// promoted before it are unwound and the canary is demoted, so the
/// fleet is back at its pre-attempt state with no page ref leaked.
/// (Promotion used to turn the lighttpd process into a redis server.)
#[test]
fn a_foreign_replica_fails_its_window_and_demotes_the_canary() {
    let mut fleet = boot_fleet(3);
    let foreign = fleet.spawn_lighttpd();
    let plan = verify_plan(&fleet.exe);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = vec![
        fleet.groups[0].clone(),
        fleet.groups[1].clone(),
        vec![foreign],
        fleet.groups[2].clone(),
    ];
    let modules = fleet.module_names(foreign);
    let pristine = fleet.kernel.state_fingerprint_timeless();
    let seq0 = fleet.kernel.flight().next_seq();

    let err = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &SHORT_SOAK)
        .expect_err("a foreign replica cannot take the canary's code");
    assert!(
        matches!(
            err,
            DynacutError::Criu(CriuError::ReplicaMismatch { pid, .. }) if pid == foreign
        ),
        "{err}"
    );
    let events: Vec<_> = fleet.kernel.flight().since(seq0).cloned().collect();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::CanaryDemoted { .. })),
        "the canary was demoted"
    );
    assert_eq!(fleet.module_names(foreign), modules);
    assert_eq!(
        fleet.kernel.state_fingerprint_timeless(),
        pristine,
        "the wave and the canary were unwound bit for bit"
    );
    assert_no_leaked_pages(&dynacut, "after the foreign replica's window");
    assert!(dynacut.store().is_empty());
}

/// A replica frozen inside the verifier's SIGTRAP handler at its window
/// keeps the library the handler runs in and finishes the handler; the
/// next rollout, at depth 0, retires that library.
#[test]
fn a_replica_inside_its_handler_keeps_its_library_until_depth_zero() {
    let mut fleet = boot_fleet(3);
    let disable = verify_plan(&fleet.exe);
    let enable = enable_plan(&fleet.exe);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let (canary, replica, last) = (groups[0][0], groups[1][0], groups[2][0]);
    dynacut
        .rollout(&mut fleet.kernel, &groups, &disable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(fleet.module_names(replica).len(), 3);

    // Step the replica into its handler for a SETRANGE and hold it
    // there: its window finds it frozen inside the handler.
    fleet.kernel.freeze(canary).unwrap();
    fleet.kernel.freeze(last).unwrap();
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    fleet.kernel.client_send(conn, b"SETRANGE 8 abc\n").unwrap();
    let mut steps = 0;
    while fleet.kernel.process(replica).unwrap().signal_depth == 0 {
        assert!(steps < 100_000, "the replica never entered its handler");
        fleet.kernel.run_for(1);
        steps += 1;
    }
    fleet.kernel.freeze(replica).unwrap();
    fleet.kernel.thaw(canary).unwrap();
    fleet.kernel.thaw(last).unwrap();

    let second = dynacut
        .rollout(&mut fleet.kernel, &groups, &enable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(second.decision, RolloutDecision::Promoted);
    let names = fleet.module_names(replica);
    assert_eq!(names.len(), 4, "the handler's library stays: {names:?}");
    assert_eq!(
        fleet.kernel.client_request(conn, b"", 5_000_000).unwrap(),
        b"+OK\n",
        "the in-flight handler healed and the request completed"
    );
    let proc = fleet.kernel.process(replica).unwrap();
    assert_eq!(proc.fatal_signal, None);
    assert_eq!(proc.signal_depth, 0);
    dynacut.verifier_reports(&fleet.kernel);

    let third = dynacut
        .rollout(&mut fleet.kernel, &groups, &disable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(third.decision, RolloutDecision::Promoted);
    assert_eq!(
        fleet.module_names(replica),
        fleet.module_names(canary),
        "at depth 0 the old library is retired"
    );
    assert_eq!(fleet.module_names(replica).len(), 3);
}

/// A trap the canary healed is cleared on every replica by the rollout
/// that re-enables its feature. The canary's edit writes bytes the
/// canary already has back, so its text does not change; a replica
/// still carries the trap, and the new library no longer lists it, so
/// a promotion that took only the pages the edit changed on the canary
/// would leave the replica to die on its next SETRANGE. A replica takes
/// every boot text page that differs from the canary's.
#[test]
fn a_trap_the_canary_healed_is_cleared_on_every_replica() {
    let mut fleet = boot_fleet(3);
    let disable = verify_plan(&fleet.exe);
    let feature = disable.disable[0].clone();
    let enable = enable_plan(&fleet.exe);
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let canary = groups[0][0];

    dynacut
        .rollout(&mut fleet.kernel, &groups, &disable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(fleet.request_on(canary, b"SETRANGE 8 abc\n"), b"+OK\n");
    assert_eq!(
        dynacut.verifier_reports(&fleet.kernel).len(),
        1,
        "the canary healed"
    );
    assert_ne!(fleet.setrange_entry_byte(&feature, canary), TRAP_OPCODE);

    let report = dynacut
        .rollout(&mut fleet.kernel, &groups, &enable, &SHORT_SOAK)
        .unwrap();
    assert_eq!(report.decision, RolloutDecision::Promoted);
    for group in &groups {
        let pid = group[0];
        assert_ne!(
            fleet.setrange_entry_byte(&feature, pid),
            TRAP_OPCODE,
            "{pid}"
        );
        assert_eq!(
            fleet.request_on(pid, b"SETRANGE 8 abc\n"),
            b"+OK\n",
            "{pid}"
        );
        assert_eq!(
            fleet.kernel.process(pid).unwrap().fatal_signal,
            None,
            "{pid}"
        );
    }
    assert!(
        dynacut.verifier_reports(&fleet.kernel).is_empty(),
        "no replica trapped"
    );
}

/// An unwind never unmaps a library under a live signal frame. The
/// replica is held at SETRANGE's trap byte; the rollout's window lands
/// on it, its serve slice traps it into the new library's handler, and
/// the next window, a foreign replica's, fails. Undoing the replica
/// would unmap the library it is running in and kill it, so it keeps
/// its promotion, which the journal records with its pid, finishes the
/// handler and serves; the canary is demoted. The next rollout, at
/// depth 0, brings it back in line.
#[test]
fn an_unwind_keeps_the_promotion_of_a_replica_inside_its_handler() {
    let mut fleet = boot_fleet(3);
    let plan = verify_plan(&fleet.exe);
    let feature = plan.disable[0].clone();
    let mut dynacut = DynaCut::new(fleet.registry.clone()).with_incremental();
    let groups = fleet.groups.clone();
    let (canary, replica, last) = (groups[0][0], groups[1][0], groups[2][0]);
    dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &SHORT_SOAK)
        .unwrap();

    fleet.kernel.freeze(canary).unwrap();
    fleet.kernel.freeze(last).unwrap();
    let conn = fleet.kernel.client_connect(redis::PORT).unwrap();
    fleet.kernel.client_send(conn, b"SETRANGE 8 abc\n").unwrap();
    let trap = fleet.setrange_entry(&feature, replica);
    let mut steps = 0;
    while fleet.kernel.process(replica).unwrap().cpu.pc != trap {
        assert!(steps < 100_000, "the replica never reached the trap");
        fleet.kernel.run_for(1);
        steps += 1;
    }
    fleet.kernel.freeze(replica).unwrap();
    fleet.kernel.thaw(canary).unwrap();
    fleet.kernel.thaw(last).unwrap();
    let foreign = fleet.spawn_lighttpd();

    let wave = vec![groups[0].clone(), groups[1].clone(), vec![foreign]];
    let one_step = RolloutPlan {
        soak_slices: 1,
        serve_slice_ns: 1,
    };
    let seq0 = fleet.kernel.flight().next_seq();
    let err = dynacut
        .rollout(&mut fleet.kernel, &wave, &plan, &one_step)
        .expect_err("the foreign replica's window fails");
    assert!(
        matches!(err, DynacutError::Criu(CriuError::ReplicaMismatch { pid, .. }) if pid == foreign),
        "{err}"
    );
    assert_eq!(fleet.kernel.process(replica).unwrap().signal_depth, 1);
    let kept: Vec<Option<Pid>> = fleet
        .kernel
        .flight()
        .since(seq0)
        .filter(|event| event.kind == EventKind::PromotionKept)
        .map(|event| event.pid)
        .collect();
    assert_eq!(
        kept,
        vec![Some(replica)],
        "one kept promotion, journalled with its pid"
    );
    assert_eq!(
        fleet.kernel.client_request(conn, b"", 5_000_000).unwrap(),
        b"+OK\n",
        "the handler finished and the request completed"
    );
    let proc = fleet.kernel.process(replica).unwrap();
    assert_eq!(proc.fatal_signal, None);
    assert_eq!(proc.signal_depth, 0);
    assert_ne!(
        fleet.module_names(replica),
        fleet.module_names(canary),
        "the replica kept the new library; the demoted canary did not"
    );
    dynacut.verifier_reports(&fleet.kernel);

    let retry = dynacut
        .rollout(&mut fleet.kernel, &groups, &plan, &SHORT_SOAK)
        .unwrap();
    assert_eq!(retry.decision, RolloutDecision::Promoted);
    assert_eq!(fleet.module_names(replica), fleet.module_names(canary));
    assert_no_leaked_pages(&dynacut, "after the retry");
}
