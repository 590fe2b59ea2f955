//! Incremental checkpointing, cross-crate: the delta-chain bit-identity
//! property, multi-process (nginx master + worker) incremental dumps,
//! the [`DynaCut::with_incremental`] session flow, and the regression
//! pinning the stock-CRIU lost-rewrite hazard.

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::{
    dump_incremental, dump_many, mark_clean_after_dump, materialize_chain, CheckpointStore, CkptId,
    DumpOptions, ModuleRegistry,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_vm::{Kernel, LoadSpec, Pid, Sysno};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// A minimal echo server with a several-page BSS scratch area, cheap
// enough to boot inside a property test.
// ---------------------------------------------------------------------

const SCRATCH_PAGES: u64 = 6;

fn scratch_server() -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.push(Insn::Movi(Reg::R0, Sysno::Socket as u64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R10, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Bind as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Movi(Reg::R2, 9090));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::Listen as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Movi(Reg::R0, Sysno::EmitEvent as u64));
    asm.push(Insn::Movi(Reg::R1, 1));
    asm.push(Insn::Syscall);
    asm.label("accept_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Accept as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R10));
    asm.push(Insn::Syscall);
    asm.push(Insn::Mov(Reg::R11, Reg::R0));
    asm.label("serve_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Read as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "scratch", 0);
    asm.push(Insn::Movi(Reg::R3, 64));
    asm.push(Insn::Syscall);
    asm.push(Insn::Cmpi(Reg::R0, 0));
    asm.jcc(Cond::Eq, "accept_loop");
    asm.push(Insn::Mov(Reg::R3, Reg::R0));
    asm.push(Insn::Movi(Reg::R0, Sysno::Write as u64));
    asm.push(Insn::Mov(Reg::R1, Reg::R11));
    asm.lea_ext(Reg::R2, "scratch", 0);
    asm.push(Insn::Syscall);
    asm.jmp("serve_loop");

    let mut builder = ModuleBuilder::new("scratch_server", ObjectKind::Executable);
    builder.text(asm.finish().unwrap());
    builder.bss("scratch", SCRATCH_PAGES * PAGE_SIZE);
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

fn boot_scratch() -> (Kernel, Pid, ModuleRegistry) {
    let exe = scratch_server();
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::new(exe.clone()));
    let mut kernel = Kernel::new();
    let pid = kernel.spawn(&LoadSpec::exe_only(exe)).unwrap();
    kernel.run_until_event(1, 10_000_000).expect("server up");
    (kernel, pid, registry)
}

fn scratch_base(kernel: &Kernel, pid: Pid) -> u64 {
    kernel
        .process(pid)
        .unwrap()
        .mem
        .vmas()
        .iter()
        .find(|v| v.perms.write && v.end - v.start >= SCRATCH_PAGES * PAGE_SIZE)
        .expect("scratch vma")
        .start
}

// ---------------------------------------------------------------------
// Property: restoring parent + deltas is bit-for-bit identical to
// restoring the full dump, for arbitrary guest write/drop sequences
// split across two delta windows.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_chain_restore_is_bit_identical(
        window_1 in proptest::collection::vec((0u64..SCRATCH_PAGES, any::<u8>(), 1usize..64), 0..12),
        window_2 in proptest::collection::vec((0u64..SCRATCH_PAGES, any::<u8>(), 1usize..64), 0..12),
        drop_page in proptest::option::of(0u64..SCRATCH_PAGES),
    ) {
        let (mut kernel, pid, registry) = boot_scratch();
        let base = scratch_base(&kernel, pid);
        kernel.freeze(pid).unwrap();
        let parent = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
        mark_clean_after_dump(&mut kernel, &[pid]).unwrap();

        // First delta window.
        for &(page, byte, len) in &window_1 {
            let fill = vec![byte; len];
            kernel.process_mut(pid).unwrap().mem
                .write_unchecked(base + page * PAGE_SIZE, &fill);
        }
        let delta_1 = dump_incremental(
            &mut kernel, &[pid], &DumpOptions::default(), CkptId(0), &parent,
        ).unwrap();
        mark_clean_after_dump(&mut kernel, &[pid]).unwrap();
        let baseline_1 = materialize_chain(&parent, [&delta_1]).unwrap();

        // Second delta window, including an optional page drop.
        for &(page, byte, len) in &window_2 {
            let fill = vec![byte; len];
            kernel.process_mut(pid).unwrap().mem
                .write_unchecked(base + page * PAGE_SIZE, &fill);
        }
        if let Some(page) = drop_page {
            kernel.process_mut(pid).unwrap().mem.drop_page(base + page * PAGE_SIZE);
        }
        let delta_2 = dump_incremental(
            &mut kernel, &[pid], &DumpOptions::default(), CkptId(1), &baseline_1,
        ).unwrap();

        // The chain materializes to the exact full dump, byte for byte.
        let full = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
        let materialized = materialize_chain(&parent, [&delta_1, &delta_2]).unwrap();
        prop_assert_eq!(&materialized, &full);
        prop_assert_eq!(materialized.to_bytes(), full.to_bytes());

        // And the process restored from the stored chain holds the full
        // image's memory exactly.
        let mut store = CheckpointStore::new();
        store.put_full(parent).unwrap();
        store.put_delta(delta_1).unwrap();
        let delta_2_id = store.put_delta(delta_2).unwrap();
        kernel.remove_process(pid).unwrap();
        store.restore(&mut kernel, delta_2_id, &registry).unwrap();
        let restored = kernel.process(pid).unwrap();
        let image = &full.procs[0];
        for (index, &page) in image.pagemap.pages.iter().enumerate() {
            let expected = &image.pages.bytes[index * PAGE_SIZE as usize..][..PAGE_SIZE as usize];
            let mut got = vec![0u8; PAGE_SIZE as usize];
            restored.mem.read_unchecked(page, &mut got);
            prop_assert_eq!(&got[..], expected, "page {:#x} differs after chain restore", page);
        }
    }

    /// dump → mark_clean → dump always yields an empty delta, whatever
    /// ran before the baseline was taken.
    #[test]
    fn dump_after_sweep_is_always_empty(
        warmup in proptest::collection::vec((0u64..SCRATCH_PAGES, any::<u8>()), 0..8),
    ) {
        let (mut kernel, pid, _registry) = boot_scratch();
        let base = scratch_base(&kernel, pid);
        for &(page, byte) in &warmup {
            kernel.process_mut(pid).unwrap().mem
                .write_unchecked(base + page * PAGE_SIZE, &[byte; 8]);
        }
        kernel.freeze(pid).unwrap();
        let parent = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
        mark_clean_after_dump(&mut kernel, &[pid]).unwrap();
        let delta = dump_incremental(
            &mut kernel, &[pid], &DumpOptions::default(), CkptId(0), &parent,
        ).unwrap();
        prop_assert_eq!(delta.pages_bytes(), 0);
        prop_assert!(delta.procs.iter().all(|p| p.dirty.pages.is_empty()));
    }
}

// ---------------------------------------------------------------------
// Multi-process: nginx master + worker through dump_many-style
// incremental checkpoints.
// ---------------------------------------------------------------------

struct World {
    kernel: Kernel,
    pids: Vec<Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot_nginx() -> World {
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
    let pids = kernel.pids();
    World {
        kernel,
        pids,
        exe,
        registry,
    }
}

fn request(kernel: &mut Kernel, bytes: &[u8]) -> Vec<u8> {
    let conn = kernel.client_connect(nginx::PORT).unwrap();
    let reply = kernel.client_request(conn, bytes, 10_000_000).unwrap();
    let _ = kernel.client_close(conn);
    reply
}

#[test]
fn nginx_master_and_worker_checkpoint_incrementally() {
    let mut world = boot_nginx();
    assert!(world.pids.len() >= 2, "nginx runs master + worker");

    for &pid in &world.pids {
        world.kernel.freeze(pid).unwrap();
    }
    let parent = dump_many(&mut world.kernel, &world.pids, &DumpOptions::default()).unwrap();
    mark_clean_after_dump(&mut world.kernel, &world.pids).unwrap();
    for &pid in &world.pids {
        world.kernel.thaw(pid).unwrap();
    }

    // Live traffic dirties worker pages (request parsing, response
    // buffers); the master mostly idles.
    assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);
    assert_eq!(request(&mut world.kernel, b"PUT /x data"), nginx::RESP_201);

    for &pid in &world.pids {
        world.kernel.freeze(pid).unwrap();
    }
    let delta = dump_incremental(
        &mut world.kernel,
        &world.pids,
        &DumpOptions::default(),
        CkptId(0),
        &parent,
    )
    .unwrap();
    let full = dump_many(&mut world.kernel, &world.pids, &DumpOptions::default()).unwrap();

    assert_eq!(delta.procs.len(), world.pids.len());
    assert!(delta.pages_bytes() < full.pages_bytes());
    let materialized = materialize_chain(&parent, [&delta]).unwrap();
    assert_eq!(materialized, full);

    // Store round trip, then restore the chain and serve again.
    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(parent).unwrap();
    let delta_id = store.put_delta(delta).unwrap();
    assert_eq!((parent_id, delta_id), (CkptId(0), CkptId(1)));
    assert_eq!(store.materialize(delta_id).unwrap(), full);
    for &pid in &world.pids {
        world.kernel.remove_process(pid).unwrap();
    }
    store
        .restore(&mut world.kernel, delta_id, &world.registry)
        .unwrap();
    assert_eq!(request(&mut world.kernel, b"GET /y\n"), nginx::RESP_200);
}

// ---------------------------------------------------------------------
// Session flow: DynaCut::with_incremental pre-dumps outside the freeze
// window and stores disable/enable cycles as a delta chain.
// ---------------------------------------------------------------------

#[test]
fn session_incremental_cycles_store_deltas_and_shrink_the_freeze() {
    let mut world = boot_nginx();
    let mut dynacut = DynaCut::new(world.registry.clone()).with_incremental();

    // Cycle one: block PUT. First checkpoint has no parent → stored full.
    let put = Feature::from_function("PUT", &world.exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&world.exe, nginx::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(put.clone())
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report_1 = dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();
    assert_eq!(report_1.checkpoint_id, Some(CkptId(0)));
    let full_bytes = report_1.stored_page_bytes.unwrap();
    assert!(full_bytes > 0);
    // The pre-dump moved the whole payload before the freeze; nothing
    // ran in between, so the frozen residue is empty. (`full_bytes` can
    // exceed the dump-time payload: the rewrite phase adds patched text
    // pages to the stored image afterwards.)
    assert_eq!(report_1.frozen_page_bytes, 0);
    assert!(report_1.prewritten_page_bytes > 0);
    assert!(report_1.prewritten_page_bytes <= full_bytes);
    assert_eq!(request(&mut world.kernel, b"PUT /x data"), nginx::RESP_403);

    // Traffic between cycles dirties a few pages.
    assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);

    // Cycle two: block DELETE as well → stored as a delta, far smaller
    // than the full image.
    let delete = Feature::from_function("DELETE", &world.exe, "ngx_delete_handler")
        .unwrap()
        .redirect_to_function(&world.exe, nginx::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(delete)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report_2 = dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();
    assert_eq!(report_2.checkpoint_id, Some(CkptId(1)));
    let delta_bytes = report_2.stored_page_bytes.unwrap();
    assert!(
        delta_bytes < full_bytes,
        "delta ({delta_bytes}) not smaller than full ({full_bytes})"
    );

    // The chain materializes and both rewrites are live.
    assert_eq!(dynacut.store().len(), 2);
    dynacut.store().materialize(CkptId(1)).unwrap();
    assert_eq!(request(&mut world.kernel, b"PUT /x data"), nginx::RESP_403);
    assert_eq!(request(&mut world.kernel, b"DELETE /x"), nginx::RESP_403);
    assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);
}

#[test]
fn session_without_incremental_stores_nothing() {
    let mut world = boot_nginx();
    let mut dynacut = DynaCut::new(world.registry.clone());
    let put = Feature::from_function("PUT", &world.exe, "ngx_put_handler")
        .unwrap()
        .redirect_to_function(&world.exe, nginx::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(put)
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    let report = dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();
    // Full dumps remain the default: whole payload copied frozen, no
    // store entries.
    assert_eq!(report.stored_page_bytes, None);
    assert_eq!(report.checkpoint_id, None);
    assert!(report.frozen_page_bytes > 0);
    assert_eq!(report.prewritten_page_bytes, 0);
    assert!(dynacut.store().is_empty());
    assert_eq!(request(&mut world.kernel, b"PUT /x data"), nginx::RESP_403);
}

// ---------------------------------------------------------------------
// Regression: the stock-CRIU hazard the paper's criu/mem.c patch fixes.
// An int3 rewrite must survive restore under DynaCut's default options
// and is silently lost under `DumpOptions::stock_criu()`.
// ---------------------------------------------------------------------

#[test]
fn stock_criu_options_lose_the_int3_patch_after_restore() {
    for (options, blocked) in [
        (DumpOptions::default(), true),
        (DumpOptions::stock_criu(), false),
    ] {
        let mut world = boot_nginx();
        let put = Feature::from_function("PUT", &world.exe, "ngx_put_handler")
            .unwrap()
            .redirect_to_function(&world.exe, nginx::ERROR_HANDLER)
            .unwrap();
        let mut dynacut = DynaCut::new(world.registry.clone()).with_dump_options(options);
        let plan = RewritePlan::new()
            .disable(put)
            .with_fault_policy(FaultPolicy::Redirect)
            .with_downtime(Downtime::None);
        dynacut
            .customize(&mut world.kernel, &world.pids.clone(), &plan)
            .unwrap();

        let reply = request(&mut world.kernel, b"PUT /x data");
        if blocked {
            assert_eq!(reply, nginx::RESP_403, "DynaCut default keeps the patch");
        } else {
            // Stock CRIU reconstructed pristine text from the binary on
            // restore: the trap byte is gone and the feature still runs.
            assert_eq!(reply, nginx::RESP_201, "stock CRIU loses the patch");
        }
        // Untouched paths work either way.
        assert_eq!(request(&mut world.kernel, b"GET /x\n"), nginx::RESP_200);
    }
}
