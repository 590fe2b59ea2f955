//! Soak test: a seeded random walk over DynaCut operations against the
//! Nginx analogue, model-checked every round. Features are disabled and
//! re-enabled in random combinations and policies, interleaved with
//! client traffic, gratuitous checkpoint round-trips, and requests to
//! blocked features — the server must match the model for hundreds of
//! transitions and never die.

use dynacut::{
    BlockPolicy, Downtime, DynaCut, EventKind, FaultPolicy, Feature, Phase, RewritePlan,
};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::{dump_many, CheckpointStore, DumpOptions, ModuleRegistry};
use dynacut_vm::{Kernel, LoadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const ROUNDS: usize = 60;

/// The success-path phases a non-incremental customize journals, in
/// execution order (no pre-dump, no baseline store).
const SUCCESS_PHASES: [Phase; 6] = [
    Phase::Freeze,
    Phase::Dump,
    Phase::ImageEdit,
    Phase::Inject,
    Phase::RestorePrepare,
    Phase::RestoreCommit,
];

/// Asserts the flight journal for one committed cycle records exactly
/// the phases that ran: every success-path phase started and ended in
/// order, bracketed by one begin and one commit, with no rollback.
fn assert_committed_cycle_journal(kernel: &Kernel, seq0: u64, round: usize) {
    let events: Vec<_> = kernel.flight().since(seq0).collect();
    let mut expected = vec!["customize_begin".to_owned()];
    for phase in SUCCESS_PHASES {
        expected.push(format!("start {phase}"));
        expected.push(format!("end {phase}"));
    }
    expected.push("customize_commit".to_owned());
    let observed: Vec<String> = events
        .iter()
        .filter_map(|event| match &event.kind {
            EventKind::CustomizeBegin { .. } => Some("customize_begin".to_owned()),
            EventKind::CustomizeCommit => Some("customize_commit".to_owned()),
            EventKind::PhaseStart { phase } => Some(format!("start {phase}")),
            EventKind::PhaseEnd { phase, .. } => Some(format!("end {phase}")),
            EventKind::CustomizeRollback | EventKind::RollbackStep { .. } => {
                panic!("round {round}: committed cycle journalled a rollback event")
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        observed, expected,
        "round {round}: journal records exactly the phases that ran"
    );
}

struct Model {
    /// feature name → (feature, enabled?)
    features: BTreeMap<&'static str, (Feature, bool)>,
}

fn expected_reply(method: &str, enabled: bool) -> &'static [u8] {
    if !enabled {
        return nginx::RESP_403;
    }
    match method {
        "GET" => nginx::RESP_200,
        "HEAD" => nginx::RESP_200_HEAD,
        "PUT" | "MKCOL" => nginx::RESP_201,
        "DELETE" => nginx::RESP_204,
        "PROPFIND" => nginx::RESP_207,
        _ => unreachable!(),
    }
}

fn request_for(method: &str) -> Vec<u8> {
    match method {
        "GET" => b"GET /soak\n".to_vec(),
        "HEAD" => b"HEAD /soak\n".to_vec(),
        "PUT" => b"PUT /soak data".to_vec(),
        "DELETE" => b"DELETE /soak".to_vec(),
        "MKCOL" => b"MKCOL /soak".to_vec(),
        "PROPFIND" => b"PROPFIND /\n".to_vec(),
        _ => unreachable!(),
    }
}

#[test]
fn randomized_feature_churn_matches_the_model() {
    let mut rng = StdRng::seed_from_u64(0xD15A_B1ED);

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
    kernel.spawn(&spec).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();
    let mut dynacut = DynaCut::new(registry);

    // The blockable features (GET stays enabled so the server is always
    // probe-able).
    let mut model = Model {
        features: BTreeMap::new(),
    };
    for (method, handler) in [
        ("HEAD", "ngx_head_handler"),
        ("PUT", "ngx_put_handler"),
        ("DELETE", "ngx_delete_handler"),
        ("MKCOL", "ngx_mkcol_handler"),
        ("PROPFIND", "ngx_propfind_handler"),
    ] {
        let feature = Feature::from_function(method, &exe, handler)
            .unwrap()
            .redirect_to_function(&exe, nginx::ERROR_HANDLER)
            .unwrap();
        model.features.insert(method, (feature, true));
    }

    for round in 0..ROUNDS {
        // Pick a random subset to toggle.
        let method_names: Vec<&'static str> = model.features.keys().copied().collect();
        let toggles: Vec<&'static str> = method_names
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(0.4))
            .collect();
        if !toggles.is_empty() {
            let policy = if rng.gen_bool(0.5) {
                BlockPolicy::EntryByte
            } else {
                BlockPolicy::WipeBlocks
            };
            let mut plan = RewritePlan::new()
                .with_block_policy(policy)
                .with_fault_policy(FaultPolicy::Redirect)
                .with_downtime(Downtime::None);
            for method in &toggles {
                let (feature, enabled) = model.features.get_mut(method).unwrap();
                if *enabled {
                    plan = plan.disable(feature.clone());
                } else {
                    plan = plan.enable(feature.clone());
                }
                *enabled = !*enabled;
            }
            let pids = kernel.pids();
            let seq0 = kernel.flight().next_seq();
            dynacut
                .customize(&mut kernel, &pids, &plan)
                .unwrap_or_else(|err| panic!("round {round}: customize failed: {err}"));
            assert_committed_cycle_journal(&kernel, seq0, round);
        }

        // Occasionally do a gratuitous checkpoint round-trip (failure
        // injection: the state must survive identity dump/restore).
        if rng.gen_bool(0.15) {
            let pids = kernel.pids();
            for &pid in &pids {
                kernel.freeze(pid).unwrap();
            }
            let checkpoint = dump_many(&mut kernel, &pids, &DumpOptions::default()).unwrap();
            for &pid in &pids {
                kernel.remove_process(pid).unwrap();
            }
            let mut store = CheckpointStore::new();
            let id = store.put_full(&checkpoint).unwrap();
            store.restore(&mut kernel, id, dynacut.registry()).unwrap();
        }

        // Probe every feature and GET; replies must match the model.
        let conn = kernel.client_connect(nginx::PORT).unwrap();
        let mut probes: Vec<(&str, bool)> = vec![("GET", true)];
        for (method, (_, enabled)) in &model.features {
            probes.push((method, *enabled));
        }
        for (method, enabled) in probes {
            let reply = kernel
                .client_request(conn, &request_for(method), 10_000_000)
                .unwrap();
            assert_eq!(
                reply,
                expected_reply(method, enabled),
                "round {round}: {method} (enabled={enabled})"
            );
        }
        let _ = kernel.client_close(conn);

        // Both processes stay alive throughout.
        for pid in kernel.pids() {
            assert!(
                kernel.exit_status(pid).is_none(),
                "round {round}: {pid} died"
            );
        }
    }

    // Hundreds of transitions later, the recorder's accounting still
    // balances: everything ever recorded is either held or counted as
    // dropped — loss is explicit, never silent.
    let flight = kernel.flight();
    assert_eq!(flight.next_seq(), flight.len() as u64 + flight.dropped());
    let metrics = flight.metrics();
    assert_eq!(metrics.counter("customize.rollbacks"), 0);
    assert!(metrics.counter("customize.commits") >= 1);
    // Probing redirected features trips the planted traps; the policy
    // label the commit set must show up in the trap-hit counters.
    assert!(metrics.counter("trap_hits.redirect") >= 1);
}
