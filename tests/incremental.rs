//! Incremental checkpointing, cross-crate: the dirty-bitmap property
//! behind the pre-dump, multi-process (nginx master + worker)
//! checkpoints sharing pages in the flat store, the
//! [`DynaCut::with_incremental`] session flow, and the regression
//! pinning the stock-CRIU lost-rewrite hazard.

use dynacut::{Downtime, DynaCut, FaultPolicy, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::{
    dump_many, mark_clean_after_dump, CheckpointImage, CheckpointStore, CkptId, DumpOptions,
    ModuleRegistry,
};
use dynacut_isa::{Assembler, Cond, Insn, Reg};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, Perms, PAGE_SIZE};
use dynacut_vm::{DisplacedPage, Kernel, LoadSpec, Pid, SharedFrame, Sysno};
use proptest::prelude::*;
use std::collections::BTreeSet;
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
// Property: the dirty bitmap covers every page that changed between two
// consecutive checkpoints of a process, for arbitrary guest write, drop
// and unmap/remap sequences, and for host-side page replacements whose
// undo may land after a sweep, as a promotion's does when a rollout
// unwinds it. `PreDumpStats::of` counts a clean page as prewritten on
// exactly this property.
// ---------------------------------------------------------------------

/// One change to a scratch page.
#[derive(Debug, Clone)]
enum Touch {
    /// Write `len` copies of `byte` at the start of the page.
    Write { page: u64, byte: u8, len: usize },
    /// Drop the page's contents (it reads back as zeros, unpopulated).
    Drop { page: u64 },
    /// Unmap the page and map a fresh one in its place.
    Remap { page: u64 },
    /// Back the page with a new frame of `byte`s, as a promotion does,
    /// and hold on to the slot it displaced.
    Replace { page: u64, byte: u8 },
    /// Put back the slot displaced last and still held, as a
    /// promotion's undo does.
    Undo,
}

fn arb_touch() -> impl Strategy<Value = Touch> {
    prop_oneof![
        (0u64..SCRATCH_PAGES, any::<u8>(), 1usize..64).prop_map(|(page, byte, len)| Touch::Write {
            page,
            byte,
            len
        }),
        (0u64..SCRATCH_PAGES).prop_map(|page| Touch::Drop { page }),
        (0u64..SCRATCH_PAGES).prop_map(|page| Touch::Remap { page }),
        (0u64..SCRATCH_PAGES, any::<u8>()).prop_map(|(page, byte)| Touch::Replace { page, byte }),
        Just(Touch::Undo),
    ]
}

fn apply(
    kernel: &mut Kernel,
    pid: Pid,
    base: u64,
    touch: &Touch,
    displaced: &mut Vec<DisplacedPage>,
) {
    let mem = &mut kernel.process_mut(pid).unwrap().mem;
    match *touch {
        Touch::Write { page, byte, len } => {
            mem.write_unchecked(base + page * PAGE_SIZE, &vec![byte; len]);
        }
        Touch::Drop { page } => mem.drop_page(base + page * PAGE_SIZE),
        Touch::Remap { page } => {
            let addr = base + page * PAGE_SIZE;
            mem.unmap(addr, PAGE_SIZE).unwrap();
            mem.map(addr, PAGE_SIZE, Perms::RW, "recycled").unwrap();
        }
        Touch::Replace { page, byte } => {
            let frame = SharedFrame::new(&[byte; PAGE_SIZE as usize]);
            displaced.push(mem.replace_page(base + page * PAGE_SIZE, Some(frame)));
        }
        Touch::Undo => {
            if let Some(page) = displaced.pop() {
                mem.restore_page(page);
            }
        }
    }
}

/// Every page of `after` that is absent from, or differs in, `before`
/// must be in `dirty` (single-process checkpoints).
fn assert_dirty_covers_changes(
    before: &CheckpointImage,
    after: &CheckpointImage,
    dirty: &BTreeSet<u64>,
) -> Result<(), TestCaseError> {
    let (old, new) = (&before.procs[0], &after.procs[0]);
    for (base, frame) in &new.pages {
        let Some(old_frame) = old.pages.get(base) else {
            continue; // absent from the first entry
        };
        let changed = old_frame.bytes()[..] != frame.bytes()[..];
        prop_assert!(
            !changed || dirty.contains(base),
            "page {:#x} changed but the bitmap did not flag it",
            base
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dirty_bitmap_covers_every_changed_page(
        window_1 in proptest::collection::vec(arb_touch(), 0..12),
        window_2 in proptest::collection::vec(arb_touch(), 0..12),
    ) {
        let (mut kernel, pid, registry) = boot_scratch();
        let base = scratch_base(&kernel, pid);
        kernel.freeze(pid).unwrap();
        // Every scratch page is in the first checkpoint, so a replace
        // can displace a page the sweep leaves clean.
        for page in 0..SCRATCH_PAGES {
            let mem = &mut kernel.process_mut(pid).unwrap().mem;
            mem.write_unchecked(base + page * PAGE_SIZE, &[0xA0 | page as u8; 8]);
        }
        let mut store = CheckpointStore::new();
        let first = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
        let mut previous = store.put_full(&first).unwrap();
        mark_clean_after_dump(&mut kernel, &[pid]).unwrap();

        // Two windows, each ending in a checkpoint compared page by page
        // with the one before it, then a sweep that re-baselines. A last
        // window undoes every replace still held, each after at least
        // one sweep.
        let mut displaced = Vec::new();
        let unwind = vec![Touch::Undo; window_1.len() + window_2.len()];
        let mut last = first;
        for window in [&window_1, &window_2, &unwind] {
            for touch in window {
                apply(&mut kernel, pid, base, touch, &mut displaced);
            }
            let dirty: BTreeSet<u64> = kernel.process(pid).unwrap().mem.dirty_pages().collect();
            last = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
            let id = store.put_full(&last).unwrap();
            assert_dirty_covers_changes(
                &store.materialize(previous).unwrap(),
                &store.materialize(id).unwrap(),
                &dirty,
            )?;
            mark_clean_after_dump(&mut kernel, &[pid]).unwrap();
            previous = id;
        }

        // The process restored from the last entry holds the last dump's
        // memory exactly.
        kernel.remove_process(pid).unwrap();
        store.restore(&mut kernel, previous, &registry).unwrap();
        let restored = kernel.process(pid).unwrap();
        let image = &last.procs[0];
        for (&page, frame) in &image.pages {
            let mut got = vec![0u8; PAGE_SIZE as usize];
            restored.mem.read_unchecked(page, &mut got);
            prop_assert_eq!(&got[..], &frame.bytes()[..], "page {:#x} differs after restore", page);
        }
    }

    /// dump → mark_clean → dump always stores a checkpoint that changes
    /// no page and copies no byte, whatever ran before the baseline was
    /// taken.
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
        let mut store = CheckpointStore::new();
        let parent = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
        let parent_id = store.put_full(&parent).unwrap();
        mark_clean_after_dump(&mut kernel, &[pid]).unwrap();
        prop_assert_eq!(kernel.process(pid).unwrap().mem.dirty_pages().count(), 0);
        let again = dump_many(&mut kernel, &[pid], &DumpOptions::default()).unwrap();
        let copied_before = store.page_store().copied_bytes();
        let id = store.put_full(&again).unwrap();
        prop_assert_eq!(store.changed_pages_bytes(parent_id, id).unwrap(), 0);
        prop_assert_eq!(store.page_store().copied_bytes(), copied_before);
    }
}

// ---------------------------------------------------------------------
// Multi-process: nginx master + worker checkpointed twice into one
// store.
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
    let full = dump_many(&mut world.kernel, &world.pids, &DumpOptions::default()).unwrap();
    assert_eq!(full.procs.len(), world.pids.len());

    // Store round trip: the second entry shares every unchanged page of
    // both processes with the first.
    let mut store = CheckpointStore::new();
    let parent_id = store.put_full(&parent).unwrap();
    let id = store.put_full(&full).unwrap();
    assert_eq!((parent_id, id), (CkptId(0), CkptId(1)));
    let changed = store.changed_pages_bytes(parent_id, id).unwrap();
    assert!(
        0 < changed && changed < full.pages_bytes(),
        "changed {changed} of {}",
        full.pages_bytes()
    );
    assert_eq!(store.materialize(id).unwrap(), full);

    // Restore the entry and serve again.
    for &pid in &world.pids {
        world.kernel.remove_process(pid).unwrap();
    }
    store
        .restore(&mut world.kernel, id, &world.registry)
        .unwrap();
    assert_eq!(request(&mut world.kernel, b"GET /y\n"), nginx::RESP_200);
}

// ---------------------------------------------------------------------
// Session flow: DynaCut::with_incremental pre-dumps outside the freeze
// window and keeps each cycle's checkpoint as the next baseline, sharing
// its unchanged pages with the previous one.
// ---------------------------------------------------------------------

#[test]
fn session_incremental_cycles_store_deltas_and_shrink_the_freeze() {
    let mut world = boot_nginx();
    let mut dynacut = DynaCut::new(world.registry.clone()).with_incremental();

    // Cycle one: block PUT. The first checkpoint has no baseline to
    // share pages with, so all of its pages count as stored.
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

    // Cycle two: block DELETE as well. Only the pages that differ from
    // cycle one's baseline count as stored, far fewer than the full
    // image.
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
    let changed_bytes = report_2.stored_page_bytes.unwrap();
    assert!(
        changed_bytes < full_bytes,
        "changed pages ({changed_bytes}) not fewer than the full image ({full_bytes})"
    );

    // The commit released cycle one's displaced baseline: the group's
    // one entry is the latest, it materializes, and both rewrites are
    // live.
    assert_eq!(dynacut.store().len(), 1);
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
