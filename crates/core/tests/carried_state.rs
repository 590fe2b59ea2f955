//! A customize cycle's carried state stops growing (DESIGN §11).
//!
//! The customize commit carries the displaced process's block cache into
//! its replacement, and seeds the replacement's generation of every code
//! page the carried blocks decode from. Only the entries that ran since
//! the last carry are carried again, and a page no carried block
//! decodes from needs no seed. Carrying every entry, and seeding every
//! page the original ever registered, would grow both with the number
//! of earlier cycles:
//! each cycle's handler library lands at a new base, and its blocks and
//! pages would be carried forever. This suite pins that both stay flat
//! over forty toggles of one redis process.

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, redis, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_vm::{Kernel, LoadSpec, Pid};
use std::sync::Arc;

/// One request over a transient connection.
fn request(kernel: &mut Kernel, bytes: &[u8]) -> Vec<u8> {
    let conn = kernel.client_connect(redis::PORT).unwrap();
    let reply = kernel.client_request(conn, bytes, 10_000_000).unwrap();
    let _ = kernel.client_close(conn);
    reply
}

/// The fixed batch served between two cycles: SET (blocked or not),
/// GET and PING.
fn batch(kernel: &mut Kernel, set_blocked: bool) {
    let set = request(kernel, b"SET 3 xyz\n");
    if set_blocked {
        assert_eq!(set, redis::ERR_BLOCKED, "SET is redirected to the error");
    } else {
        assert_eq!(set, b"+OK\n");
    }
    assert_eq!(request(kernel, b"GET 3\n"), b"xyz\n");
    assert_eq!(request(kernel, b"PING\n"), b"+PONG\n");
}

/// Forty toggles of SET under `Redirect`, the benchmark's `toggle` op,
/// with the same batch after each. From cycle 4 on, the process's block
/// cache and its registered code pages stay at or below their maximum
/// over cycles 2 to 5, which cover both the disabled and the enabled
/// version twice.
#[test]
fn carried_cache_and_code_pages_stop_growing() {
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
    let pid: Pid = kernel.spawn(&spec).unwrap();
    kernel
        .run_until_event(EVENT_READY, 500_000_000)
        .expect("redis initializes");
    let set = Feature::from_function("SET", &spec.exe, "rd_cmd_set")
        .unwrap()
        .redirect_to_function(&spec.exe, redis::ERROR_HANDLER)
        .unwrap();
    let mut dynacut = DynaCut::new(registry);

    batch(&mut kernel, false);
    let mut cache_lens = Vec::new();
    let mut code_pages = Vec::new();
    for cycle in 0..40 {
        let disable = cycle % 2 == 0;
        let plan = if disable {
            RewritePlan::new().disable(set.clone())
        } else {
            RewritePlan::new().enable(set.clone())
        }
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
        dynacut
            .customize(&mut kernel, &[pid], &plan)
            .unwrap_or_else(|err| panic!("cycle {cycle}: {err}"));
        batch(&mut kernel, disable);
        let proc = kernel.process(pid).unwrap();
        cache_lens.push(proc.block_cache.len());
        code_pages.push(proc.mem.code_pages().count());
    }

    for (what, counts) in [("cached blocks", &cache_lens), ("code pages", &code_pages)] {
        let bound = counts[2..=5].iter().copied().max().unwrap();
        for (cycle, &count) in counts.iter().enumerate().skip(4) {
            assert!(
                count <= bound,
                "{what} grew to {count} at cycle {cycle}, past cycles 2-5's {bound}: {counts:?}"
            );
        }
    }
}
