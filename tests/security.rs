//! Security-property tests (paper §3.2.1/§4.2): the difference between
//! the entry-byte and wipe policies under mid-block control-flow hijacks,
//! and the post-init PLT surface.

use dynacut::{BlockPolicy, Downtime, DynaCut, Feature, RewritePlan};
use dynacut_apps::{libc::guest_libc, nginx, EVENT_READY};
use dynacut_criu::ModuleRegistry;
use dynacut_isa::decode;
use dynacut_vm::{Kernel, LoadSpec, Pid, ProcState, Signal};
use std::sync::Arc;

struct World {
    kernel: Kernel,
    pids: Vec<Pid>,
    exe: Arc<dynacut_obj::Image>,
    registry: ModuleRegistry,
}

fn boot() -> World {
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

fn hijack_worker_to(world: &mut World, addr: u64) {
    let worker = *world.pids.last().unwrap();
    let proc = world.kernel.process_mut(worker).unwrap();
    proc.cpu.pc = addr;
    proc.state = ProcState::Runnable;
    world.kernel.run_for(1_000_000);
}

fn worker_module_base(world: &World) -> u64 {
    let worker = *world.pids.last().unwrap();
    world
        .kernel
        .process(worker)
        .unwrap()
        .modules
        .iter()
        .find(|m| m.image.name == nginx::MODULE)
        .unwrap()
        .base
}

/// Under the entry-byte policy, an attacker who jumps *into the middle*
/// of a blocked feature's block still finds executable original code —
/// the ROP residue the paper acknowledges ("a powerful attacker may
/// redirect the control flow to the middle of a basic block").
#[test]
fn entry_byte_policy_leaves_mid_block_code_executable() {
    let mut world = boot();
    let feature = Feature::from_function("PUT", &world.exe, "ngx_put_handler").unwrap();
    let entry = feature.entry_block().unwrap();
    let mut dynacut = DynaCut::new(world.registry.clone());
    let plan = RewritePlan::new()
        .disable(feature)
        .with_block_policy(BlockPolicy::EntryByte)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();

    let base = worker_module_base(&world);
    let worker = *world.pids.last().unwrap();
    // Find the second instruction boundary inside the entry block from
    // the pristine binary.
    let text = &world.exe.text;
    let (_, first_len) = decode(text, entry.addr as usize).unwrap();
    let mid = base + entry.addr + first_len as u64;
    // The byte at the block entry is a trap, but mid-block bytes are the
    // original code.
    let proc = world.kernel.process(worker).unwrap();
    let mut byte = [0u8; 1];
    proc.mem.read_unchecked(base + entry.addr, &mut byte);
    assert_eq!(byte[0], dynacut_isa::TRAP_OPCODE);
    proc.mem.read_unchecked(mid, &mut byte);
    assert_ne!(byte[0], dynacut_isa::TRAP_OPCODE, "gadget bytes remain");

    // A hijack into the middle executes real instructions (it will
    // eventually fault somewhere else, but NOT with an immediate trap at
    // the landing point).
    hijack_worker_to(&mut world, mid);
    let status = world.kernel.exit_status(worker);
    if let Some(status) = status {
        // Whatever happened downstream, the landing instruction itself
        // executed: the worker did not die by an immediate SIGTRAP with
        // pc == mid.
        let proc_gone = status.fatal_signal == Some(Signal::Sigtrap);
        if proc_gone {
            // Acceptable only if the trap happened later (pc advanced).
            // We cannot read the pc of a dead process here, so assert via
            // instruction count: it retired at least one instruction.
            assert!(world.kernel.process(worker).unwrap().insns_retired > 0);
        }
    }
}

/// Under the wipe policy every byte is a trap: any landing point, aligned
/// or not, faults immediately — code-reuse denied.
#[test]
fn wipe_policy_traps_any_landing_point() {
    let mut world = boot();
    let feature = Feature::from_function("PUT", &world.exe, "ngx_put_handler").unwrap();
    let entry = feature.entry_block().unwrap();
    let mut dynacut = DynaCut::new(world.registry.clone());
    let plan = RewritePlan::new()
        .disable(feature)
        .with_block_policy(BlockPolicy::WipeBlocks)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();

    let base = worker_module_base(&world);
    let worker = *world.pids.last().unwrap();
    // Land at an arbitrary unaligned offset inside the block.
    let landing = base + entry.addr + 3;
    hijack_worker_to(&mut world, landing);
    let status = world.kernel.exit_status(worker).expect("worker died");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
}

/// Under the unmap policy the pages are gone: the hijack faults with
/// SIGSEGV (no bytes to read at all — stronger than trapping).
#[test]
fn unmap_policy_segfaults_on_access() {
    let mut world = boot();
    // The contiguous cold modules (ssl/gzip/proxy/cache/upstream) span
    // whole pages once coalesced.
    let mut blocks = Vec::new();
    for func in &world.exe.functions {
        if [
            "ngx_ssl",
            "ngx_gzip",
            "ngx_proxy",
            "ngx_cache",
            "ngx_upstream",
        ]
        .iter()
        .any(|prefix| func.name.starts_with(prefix))
        {
            blocks.extend(world.exe.blocks_of_function(&func.name));
        }
    }
    let feature = Feature::new("cold", nginx::MODULE, blocks.clone());
    let mut dynacut = DynaCut::new(world.registry.clone());
    let plan = RewritePlan::new()
        .disable(feature)
        .with_block_policy(BlockPolicy::UnmapPages)
        .with_downtime(Downtime::None);
    let report = dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();
    assert!(report.pages_unmapped > 0);

    // Hijack into the middle of the unmapped range.
    let base = worker_module_base(&world);
    let worker = *world.pids.last().unwrap();
    let ranges = dynacut_isa::coalesce_blocks(&blocks);
    let widest = ranges.iter().max_by_key(|r| r.end - r.start).unwrap();
    let landing = base + (widest.start + widest.end) / 2;
    // Confirm the page is really unmapped.
    assert!(world
        .kernel
        .process(worker)
        .unwrap()
        .mem
        .vma_at(landing)
        .is_none());
    hijack_worker_to(&mut world, landing);
    let status = world.kernel.exit_status(worker).expect("worker died");
    assert_eq!(status.fatal_signal, Some(Signal::Sigsegv));
}

/// Defence in depth for the paper's BROP analysis: after wiping the
/// fork PLT stub, a hijack into it dies, and the master (which would
/// have to respawn workers for BROP probing) never forks again.
#[test]
fn brop_fork_stub_removal_kills_probes() {
    let mut world = boot();
    let stub = world.exe.plt_entry("libc_fork").unwrap().stub_offset;
    let stub_block = world.exe.block_containing(stub).unwrap();
    let feature = Feature::new("fork@plt", nginx::MODULE, vec![stub_block]);
    let mut dynacut = DynaCut::new(world.registry.clone());
    let plan = RewritePlan::new()
        .disable(feature)
        .with_block_policy(BlockPolicy::WipeBlocks)
        .with_downtime(Downtime::None);
    dynacut
        .customize(&mut world.kernel, &world.pids.clone(), &plan)
        .unwrap();

    // Serving still works (fork is init-only).
    let conn = world.kernel.client_connect(nginx::PORT).unwrap();
    let reply = world
        .kernel
        .client_request(conn, b"GET /\n", 10_000_000)
        .unwrap();
    assert_eq!(reply, nginx::RESP_200);

    // A BROP probe into fork@plt dies immediately.
    let base = worker_module_base(&world);
    hijack_worker_to(&mut world, base + stub);
    let worker = *world.pids.last().unwrap();
    let status = world.kernel.exit_status(worker).expect("probe killed");
    assert_eq!(status.fatal_signal, Some(Signal::Sigtrap));
    // No new worker appears: the process count can only shrink.
    assert_eq!(world.kernel.pids().len(), 2, "no respawn for brute-forcing");
}
