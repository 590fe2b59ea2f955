//! Byte accounting for the zero-copy restore (DESIGN §12): a restored
//! page counts toward `restore_copied_bytes` only when it is physically
//! copied — a first-sight intern into the content-addressed store —
//! never when it is handed out as a shared frame. The flight metrics
//! mirror the per-cycle reports exactly, every cycle restores exactly
//! the checkpoint it stored (re-dumping the group gives back what the
//! session's store materializes), and every cycle interns its checkpoint
//! once.

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::{dump_many, CheckpointImage, DumpOptions, ModuleRegistry};
use dynacut_obj::PAGE_SIZE;
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::sync::Arc;

struct Server {
    kernel: Kernel,
    pids: Vec<Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot_redis() -> Server {
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

fn disable_plan(server: &Server) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", &server.exe, "rd_cmd_setrange")
        .unwrap()
        .redirect_to_function(&server.exe, redis::ERROR_HANDLER)
        .unwrap();
    RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None)
}

fn enable_plan(server: &Server) -> RewritePlan {
    let setrange = Feature::from_function("SETRANGE", &server.exe, "rd_cmd_setrange")
        .unwrap()
        .redirect_to_function(&server.exe, redis::ERROR_HANDLER)
        .unwrap();
    RewritePlan::new()
        .enable(setrange)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None)
}

/// Drives the same two-cycle workload (disable SETRANGE, serve, enable
/// it back) and returns the two reports plus the kernel for inspection.
fn run_two_cycles(
    mut dynacut: DynaCut,
    mut server: Server,
) -> (Server, Vec<dynacut::CustomizeReport>) {
    let mut reports = Vec::new();
    let disable = disable_plan(&server);
    reports.push(
        dynacut
            .customize(&mut server.kernel, &server.pids, &disable)
            .expect("cycle one"),
    );
    let conn = server.kernel.client_connect(redis::PORT).unwrap();
    assert_eq!(
        server
            .kernel
            .client_request(conn, b"SET k v\n", 5_000_000)
            .unwrap(),
        b"+OK\n"
    );
    let enable = enable_plan(&server);
    reports.push(
        dynacut
            .customize(&mut server.kernel, &server.pids, &enable)
            .expect("cycle two"),
    );
    (server, reports)
}

/// Zero-copy accounting: the first cycle pays for first-sight pages
/// once; the second cycle's restore copies only what changed since the
/// stored baseline — far less than the stored payload — and the flight
/// metrics agree with the reports.
#[test]
fn zero_copy_counts_only_first_sight_pages() {
    let server = boot_redis();
    let dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let (server, reports) = run_two_cycles(dynacut, server);

    let payload1 = reports[0].stored_page_bytes.expect("baseline stored");
    assert!(
        reports[0].restore_copied_bytes > 0,
        "a cold store has seen no page: the first restore copies"
    );
    assert!(
        reports[0].restore_copied_bytes <= payload1,
        "dedup within the payload can only shrink the copy \
         ({} > {payload1})",
        reports[0].restore_copied_bytes
    );
    assert!(
        reports[1].restore_copied_bytes < reports[0].restore_copied_bytes,
        "against the stored baseline only changed pages copy \
         ({} >= {})",
        reports[1].restore_copied_bytes,
        reports[0].restore_copied_bytes
    );

    // Restored pages are lazily materialized: they sit on shared frames
    // until a guest write CoW-faults them, and only those faults move
    // bytes after the restore.
    let proc = server.kernel.process(server.pids[0]).unwrap();
    assert!(
        proc.mem.shared_page_count() > 0,
        "untouched restored pages stay on shared frames"
    );

    // The flight metrics mirror the per-cycle reports exactly.
    let copied: usize = reports.iter().map(|r| r.restore_copied_bytes).sum();
    assert_eq!(
        server
            .kernel
            .flight()
            .metrics()
            .counter("pages_restore_copied_bytes"),
        copied as u64
    );

    // Frozen/prewritten accounting is unchanged by laziness: what the
    // dump moved is reported whether or not the restore copied it.
    for (i, report) in reports.iter().enumerate() {
        assert!(
            report.frozen_page_bytes + report.prewritten_page_bytes > 0,
            "cycle {i} dumped something"
        );
        assert!(
            report.restore_copied_bytes <= report.frozen_page_bytes + report.prewritten_page_bytes,
            "cycle {i}: the restore never copies more than the dump moved"
        );
    }
}

/// The round-trip reference for the engine's restore: after each
/// customize, freezing the group and dumping it again gives back exactly
/// the edited checkpoint the session stored for that cycle — the
/// restored processes hold the stored image byte for byte.
#[test]
fn each_cycle_restores_exactly_the_stored_checkpoint() {
    let mut server = boot_redis();
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    for (cycle, plan) in [disable_plan(&server), enable_plan(&server)]
        .into_iter()
        .enumerate()
    {
        let report = dynacut
            .customize(&mut server.kernel, &server.pids, &plan)
            .unwrap_or_else(|err| panic!("cycle {cycle}: {err}"));
        let id = report
            .checkpoint_id
            .expect("incremental mode stores the checkpoint");
        for &pid in &server.pids {
            server.kernel.freeze(pid).unwrap();
        }
        let redump = dump_many(&mut server.kernel, &server.pids, &DumpOptions::default()).unwrap();
        assert_eq!(
            redump,
            dynacut.store().materialize(id).unwrap(),
            "cycle {cycle}: the restored group re-dumps to the stored checkpoint"
        );
        for &pid in &server.pids {
            server.kernel.thaw(pid).unwrap();
            let ids = server.kernel.conn_ids_of(pid).unwrap();
            server.kernel.unrepair_connections(&ids);
        }
        let conn = server.kernel.client_connect(redis::PORT).unwrap();
        assert_eq!(
            server
                .kernel
                .client_request(conn, b"SET k v\n", 5_000_000)
                .unwrap(),
            b"+OK\n",
            "cycle {cycle}: the group still serves"
        );
        server.kernel.client_close(conn).unwrap();
    }
}

/// Bytes of the pages of `after` that are absent from, or different in,
/// `before`, compared byte by byte; processes are matched by pid.
fn changed_page_bytes(before: Option<&CheckpointImage>, after: &CheckpointImage) -> usize {
    let page = PAGE_SIZE as usize;
    let mut changed = 0;
    for proc in &after.procs {
        let old = before.and_then(|image| image.proc_image(proc.core.pid));
        for (base, frame) in &proc.pages {
            let same = old
                .and_then(|old| old.pages.get(base))
                .is_some_and(|old| old.bytes()[..] == frame.bytes()[..]);
            if !same {
                changed += page;
            }
        }
    }
    changed
}

/// `stored_page_bytes` is exact: for every incremental cycle it equals
/// the bytes of the pages that are new or changed since the previous
/// cycle's checkpoint (the whole payload on the first), counted here
/// byte by byte from the two checkpoints the store materializes.
#[test]
fn stored_page_bytes_are_exactly_the_pages_changed_since_the_last_cycle() {
    let mut server = boot_redis();
    let mut dynacut = DynaCut::new(server.registry.clone()).with_incremental();
    let plans = [
        disable_plan(&server),
        enable_plan(&server),
        disable_plan(&server),
        enable_plan(&server),
    ];
    let mut previous: Option<CheckpointImage> = None;
    for (cycle, plan) in plans.iter().enumerate() {
        let report = dynacut
            .customize(&mut server.kernel, &server.pids, plan)
            .unwrap_or_else(|err| panic!("cycle {cycle}: {err}"));
        let id = report
            .checkpoint_id
            .expect("incremental mode stores the checkpoint");
        let stored = dynacut.store().materialize(id).unwrap();
        let expected = changed_page_bytes(previous.as_ref(), &stored);
        assert_eq!(
            report.stored_page_bytes,
            Some(expected),
            "cycle {cycle}: stored page bytes are the pages changed since the last cycle"
        );
        if previous.is_some() {
            assert!(
                0 < expected && expected < stored.pages_bytes(),
                "cycle {cycle}: some but not all pages changed ({expected} of {})",
                stored.pages_bytes()
            );
        }
        previous = Some(stored);

        // Traffic between cycles dirties the heap and the stack.
        let conn = server.kernel.client_connect(redis::PORT).unwrap();
        let request = format!("SET key{cycle} value{cycle}\n");
        assert_eq!(
            server
                .kernel
                .client_request(conn, request.as_bytes(), 5_000_000)
                .unwrap(),
            b"+OK\n",
            "cycle {cycle}: the group still serves"
        );
        server.kernel.client_close(conn).unwrap();
    }
}

/// Each cycle interns its edited checkpoint once: the restore is staged
/// from the cycle's store entry, and the baseline store adopts that
/// entry instead of putting the checkpoint again. Over a whole cycle the
/// page store therefore copies exactly the bytes the report says the
/// restore copied, in both modes. A session without incremental mode
/// releases the entry when the cycle commits, so its store stays empty;
/// an incremental one releases the baseline each commit displaces, so
/// its store holds one entry per group.
#[test]
fn each_cycle_interns_its_checkpoint_once() {
    for incremental in [false, true] {
        let mut server = boot_redis();
        let mut dynacut = DynaCut::new(server.registry.clone());
        if incremental {
            dynacut = dynacut.with_incremental();
        }
        let plans = [
            disable_plan(&server),
            enable_plan(&server),
            disable_plan(&server),
            enable_plan(&server),
        ];
        for (cycle, plan) in plans.iter().enumerate() {
            let ctx = format!("incremental {incremental}, cycle {cycle}");
            let copied_before = dynacut.store().page_store().copied_bytes();
            let report = dynacut
                .customize(&mut server.kernel, &server.pids, plan)
                .unwrap_or_else(|err| panic!("{ctx}: {err}"));
            assert_eq!(
                dynacut.store().page_store().copied_bytes() - copied_before,
                report.restore_copied_bytes as u64,
                "{ctx}: the cycle copied its pages once"
            );
            if incremental {
                assert_eq!(dynacut.store().len(), 1, "{ctx}: one entry per group");
            } else {
                assert!(
                    dynacut.store().is_empty(),
                    "{ctx}: no entry outlives the cycle"
                );
                assert_eq!(
                    dynacut.store().logical_pages_bytes(),
                    0,
                    "{ctx}: no page ref either"
                );
            }

            let conn = server.kernel.client_connect(redis::PORT).unwrap();
            assert_eq!(
                server
                    .kernel
                    .client_request(conn, b"SET k v\n", 5_000_000)
                    .unwrap(),
                b"+OK\n",
                "{ctx}: the group still serves"
            );
            server.kernel.client_close(conn).unwrap();
        }
    }
}
