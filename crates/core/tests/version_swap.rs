//! Code-cache carry pins for the customize cycle (DESIGN §11).
//!
//! A cache that flushed on every customize cycle would re-decode the
//! whole request path from scratch right after a rewrite. The cycle
//! instead *carries* each displaced process's cache across the restore
//! swap: blocks over byte-identical pages come back as version swaps on
//! their next dispatch (no re-decode), blocks over rewritten pages can
//! never revalidate, and a rollback re-inserts the original process
//! whose untouched cache is hot the moment it lands. These tests pin
//! all three, plus fingerprint parity against the uncached interpreter.

use dynacut::{
    Downtime, DynaCut, FaultPolicy, Feature, RewritePlan, RolloutDecision, RolloutPlan,
    VERIFIER_EVENT_BIT,
};
use dynacut_apps::{libc::guest_libc, nginx, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::sync::Arc;

// ----- customize commit: version swap instead of flush ------------------

/// Boots nginx, warms the handlers, customizes PUT away, and returns
/// `(fingerprint, cache_len_after_commit, version_swaps_after_traffic)`.
fn nginx_cycle(cache_enabled: bool) -> (String, usize, u64) {
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
    let pid = pids[0];

    // Warm the cache on the paths the cycle will (and will not) patch.
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

    // The commit's cache state, before any post-cycle dispatch.
    let proc = kernel.process(pid).unwrap();
    let len_after_commit = proc.block_cache.len();
    let swaps_before = kernel
        .flight()
        .metrics()
        .counter("block_cache.version_swaps");

    // Post-cycle traffic: the planted trap fires on PUT, GET still
    // serves — and the warm blocks over unchanged pages come back
    // through version swaps, not re-decodes.
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
    let version_swaps = kernel
        .flight()
        .metrics()
        .counter("block_cache.version_swaps")
        - swaps_before;
    (kernel.state_fingerprint(), len_after_commit, version_swaps)
}

/// The zero-flush commit: after `customize`, the process's cache still
/// holds the pre-cycle blocks, post-cycle traffic swaps them in instead
/// of re-decoding, the planted trap fires anyway — and the whole cycle
/// stays bit-identical to the uncached oracle under
/// `state_fingerprint()`.
#[test]
fn customize_commit_swaps_versions_instead_of_flushing() {
    let (fp_cached, len, version_swaps) = nginx_cycle(true);
    assert!(
        len > 0,
        "commit carried the warm cache instead of flushing (len={len})"
    );
    assert!(
        version_swaps > 0,
        "post-cycle traffic swapped pristine blocks in \
         (version_swaps={version_swaps})"
    );

    let (fp_uncached, len_off, swaps_off) = nginx_cycle(false);
    assert_eq!(len_off, 0, "disabled cache stays empty");
    assert_eq!(swaps_off, 0);
    assert_eq!(
        fp_cached, fp_uncached,
        "version-swapped cache invisible across a full customize cycle"
    );
}

// ----- rollback: the pristine version re-dispatches for free ------------

/// One Redis replica plus the registry/exe handles a rollout needs.
struct Replica {
    kernel: Kernel,
    pid: Pid,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot_redis() -> Replica {
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
    let pid = kernel.spawn(&spec).unwrap();
    kernel
        .run_until_event(EVENT_READY, 500_000_000)
        .expect("replica initializes");
    Replica {
        kernel,
        pid,
        exe,
        registry,
    }
}

impl Replica {
    /// One request over a transient connection.
    fn request(&mut self, bytes: &[u8]) -> Vec<u8> {
        let conn = self.kernel.client_connect(redis::PORT).unwrap();
        let reply = self.kernel.client_request(conn, bytes, 10_000_000).unwrap();
        let _ = self.kernel.client_close(conn);
        reply
    }

    /// A fixed batch of requests exercising the paths the rollout
    /// touches (SETRANGE) and leaves alone (SET/GET).
    fn batch(&mut self) {
        assert_eq!(self.request(b"SET 3 xyz\n"), b"+OK\n");
        assert_eq!(self.request(b"SETRANGE 8 abc\n"), b"+OK\n");
        assert_eq!(self.request(b"GET 3\n"), b"xyz\n");
    }

    fn misses(&self) -> u64 {
        self.kernel.flight().metrics().counter("block_cache.misses")
    }
}

/// A demoted rollout re-inserts the original process with its cache
/// intact: the pristine version re-dispatches immediately — one decode
/// miss where a cold cache takes a whole request path — and the
/// replica's state matches both the pre-attempt snapshot and an
/// uncached oracle that served the same traffic.
#[test]
fn rollback_redispatches_pristine_version_without_redecode() {
    let mut replica = boot_redis();
    let mut oracle = boot_redis();
    oracle.kernel.set_block_cache_enabled(false);

    // Warm to a steady state: identical batches until one completes
    // without a single new decode (every block on the path is cached).
    let mut steady = false;
    for _ in 0..10 {
        let before = replica.misses();
        replica.batch();
        oracle.batch();
        if replica.misses() == before {
            steady = true;
            break;
        }
    }
    assert!(
        steady,
        "the request path reaches a fully decoded steady state"
    );

    // A verifier report mid-soak demotes the canary through the
    // transaction machinery.
    let setrange = Feature::from_function("SETRANGE", &replica.exe, "rd_cmd_setrange").unwrap();
    let plan = RewritePlan::new()
        .disable(setrange)
        .with_fault_policy(FaultPolicy::Verify)
        .with_downtime(Downtime::None);
    let rollout_plan = RolloutPlan {
        soak_slices: 6,
        serve_slice_ns: 200_000,
    };
    let mut dynacut = DynaCut::new(replica.registry.clone()).with_incremental();
    let groups = vec![vec![replica.pid]];

    let pristine = replica.kernel.state_fingerprint_timeless();
    replica
        .kernel
        .inject_event(replica.pid, VERIFIER_EVENT_BIT | 0xBEE);
    let report = dynacut
        .rollout(&mut replica.kernel, &groups, &plan, &rollout_plan)
        .unwrap();
    assert_eq!(report.decision, RolloutDecision::Demoted);
    assert_eq!(
        replica.kernel.state_fingerprint_timeless(),
        pristine,
        "demotion rolls back to the pre-attempt state"
    );

    // The rollback guarantee: the restored original still carries its
    // hot pre-rollout cache, so the same batch is served out of it and
    // SETRANGE is enabled again. Exactly one decode misses: the miss
    // count follows where slices end (a slice that ends mid-block
    // re-enters the dispatcher at a fresh cache key), and the MLFQ's
    // per-level quanta put one boundary of this batch mid-block.
    let misses_before = replica.misses();
    let cache_len = replica
        .kernel
        .process(replica.pid)
        .unwrap()
        .block_cache
        .len();
    assert!(cache_len > 0, "the restored original kept its cache");
    replica.batch();
    oracle.batch();
    let rollback_misses = replica.misses() - misses_before;
    assert_eq!(
        rollback_misses, 1,
        "the pristine version re-dispatched without re-decoding"
    );

    // A flush on rollback would cost the whole request path: the same
    // batch on a cold cache decodes more than ten times as often.
    replica
        .kernel
        .process_mut(replica.pid)
        .unwrap()
        .block_cache
        .flush();
    let cold_before = replica.misses();
    replica.batch();
    oracle.batch();
    let cold_misses = replica.misses() - cold_before;
    assert!(
        rollback_misses * 10 < cold_misses,
        "rollback batch missed {rollback_misses} times, a cold batch {cold_misses}"
    );

    // And the demoted replica still agrees with the uncached oracle on
    // every guest-observable byte (clock masked: the soak served real
    // traffic on the demoted side only).
    assert_eq!(
        replica
            .kernel
            .process(replica.pid)
            .unwrap()
            .mem
            .populated_pages()
            .count(),
        oracle
            .kernel
            .process(oracle.pid)
            .unwrap()
            .mem
            .populated_pages()
            .count(),
    );
    assert_eq!(
        replica.request(b"GET 3\n"),
        oracle.request(b"GET 3\n"),
        "same store contents after the demoted attempt"
    );
}
