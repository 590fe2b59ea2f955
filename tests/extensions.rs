//! The paper's §5 extension directions, implemented and tested:
//! customizing **library** code, **page-per-feature** layout for fast
//! unmapping, and **automatic** init-phase detection via syscall
//! monitoring.

use dynacut::{BlockPolicy, Downtime, DynaCut, Feature, RewritePlan};
use dynacut_analysis::{init_only_blocks, CovGraph};
use dynacut_apps::{libc::guest_libc, lighttpd, EVENT_READY};
use dynacut_criu::{dump, DumpOptions, ModuleRegistry};
use dynacut_isa::{Assembler, Insn, Reg, TRAP_OPCODE};
use dynacut_obj::{Image, ModuleBuilder, ObjectKind, PAGE_SIZE};
use dynacut_trace::{InitDetector, Tracer};
use dynacut_vm::{Kernel, LoadSpec, ProcState, Signal, Sysno};
use std::sync::Arc;

/// §5: "unused shared library code can be dynamically unloaded through
/// the process rewriting approach". We disable a guest-libc function
/// (`libc_atoi`, used only during config parsing) inside the **libc
/// module** of a live server.
#[test]
fn library_code_can_be_customized_too() {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let libc_image = Arc::clone(&spec.libs[0]);
    let pid = kernel.spawn(&spec).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();

    // The feature lives in the "libc" module, not the application.
    let feature = Feature::from_function("libc atoi", &libc_image, "libc_atoi").unwrap();
    assert_eq!(feature.module, "libc");
    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .disable(feature.clone())
        .with_block_policy(BlockPolicy::WipeBlocks)
        .with_downtime(Downtime::None);
    let report = dynacut.customize(&mut kernel, &[pid], &plan).unwrap();
    assert!(report.bytes_written > 0);

    // Serving still works — atoi is initialization-only.
    let conn = kernel.client_connect(lighttpd::PORT).unwrap();
    let reply = kernel.client_request(conn, b"GET /\n", 10_000_000).unwrap();
    assert!(reply.starts_with(b"HTTP/1.1 200"));

    // The libc function body is really gone from memory.
    let proc = kernel.process(pid).unwrap();
    let libc_base = proc
        .modules
        .iter()
        .find(|m| m.image.name == "libc")
        .unwrap()
        .base;
    let entry = feature.entry_block().unwrap();
    let mut byte = [0u8; 1];
    proc.mem.read_unchecked(libc_base + entry.addr, &mut byte);
    assert_eq!(byte[0], TRAP_OPCODE);

    // A hijack into the wiped libc code dies.
    {
        let proc = kernel.process_mut(pid).unwrap();
        proc.cpu.pc = libc_base + entry.addr;
        proc.state = ProcState::Runnable;
    }
    kernel.run_for(1_000_000);
    assert_eq!(
        kernel.exit_status(pid).unwrap().fatal_signal,
        Some(Signal::Sigtrap)
    );
}

/// Builds a sleeper program whose `feat` function either shares pages
/// with the rest of the text (packed) or sits on its own pages
/// (page-per-feature, via align directives).
fn sleeper_with_feature(page_aligned: bool) -> Image {
    let mut asm = Assembler::new();
    asm.func("_start");
    asm.label("sleep_loop");
    asm.push(Insn::Movi(Reg::R0, Sysno::Nanosleep as u64));
    asm.push(Insn::Movi(Reg::R1, 1_000_000));
    asm.push(Insn::Syscall);
    asm.jmp("sleep_loop");
    if page_aligned {
        asm.align(PAGE_SIZE);
    }
    asm.func("feat");
    // A feature bigger than one page (~230 blocks × ~23 bytes).
    asm.push(Insn::Movi(Reg::R8, 1));
    for index in 0..230 {
        asm.push(Insn::Addi(Reg::R8, index + 1));
        asm.push(Insn::Muli(Reg::R8, 3));
        asm.push(Insn::Cmpi(Reg::R8, 0));
        asm.jcc(dynacut_isa::Cond::Eq, "feat_end");
    }
    asm.label("feat_end");
    asm.push(Insn::Ret);
    if page_aligned {
        asm.align(PAGE_SIZE);
    }
    asm.func("tail");
    asm.push(Insn::Ret);
    let mut builder = ModuleBuilder::new(
        if page_aligned { "aligned" } else { "packed" },
        ObjectKind::Executable,
    );
    builder.text(asm.finish().unwrap());
    builder.entry("_start");
    builder.link(&[]).unwrap()
}

/// §5: "separate each feature-related code block into separate memory
/// pages. As such, we can dynamically unload these code pages …, faster
/// than replacing code with int3 instructions." The ablation: the same
/// feature yields strictly more unmappable pages (and fewer int3 writes)
/// under the page-per-feature layout.
#[test]
fn page_per_feature_layout_maximises_unmapping() {
    let mut outcomes = Vec::new();
    for page_aligned in [false, true] {
        let exe = sleeper_with_feature(page_aligned);
        let module = exe.name.clone();
        let mut kernel = Kernel::new();
        let spec = LoadSpec::exe_only(exe);
        let mut registry = ModuleRegistry::new();
        registry.insert(Arc::clone(&spec.exe));
        let exe = Arc::clone(&spec.exe);
        let pid = kernel.spawn(&spec).unwrap();
        kernel.run_for(10_000);
        kernel.freeze(pid).unwrap();
        let mut image = dump(&mut kernel, pid, &DumpOptions::default()).unwrap();
        let feature = Feature::from_function("feat", &exe, "feat").unwrap();
        let outcome =
            dynacut::disable_in_image(&mut image, &feature, BlockPolicy::UnmapPages).unwrap();
        outcomes.push((module, outcome));
    }
    let packed = &outcomes[0].1;
    let aligned = &outcomes[1].1;
    assert!(
        aligned.pages_unmapped > packed.pages_unmapped,
        "aligned unmaps more pages: {} vs {}",
        aligned.pages_unmapped,
        packed.pages_unmapped
    );
    assert!(
        aligned.bytes_written < packed.bytes_written,
        "aligned needs fewer int3 bytes for the page remainders"
    );
    // The aligned layout unmaps the feature's full footprint.
    assert!(aligned.pages_unmapped >= 1);
}

/// §5: "we can monitor specific system calls to determine the end of the
/// initialization phase, making DynaCut fully automatic." The FirstAccept
/// detector replaces the manual nudge and finds the same init-only code.
#[test]
fn automatic_init_detection_matches_manual_nudge() {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let tracer = Tracer::install(&mut kernel);
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let exe = Arc::clone(&spec.exe);
    let pid = kernel.spawn(&spec).unwrap();
    tracer.track(&kernel, pid).unwrap();

    // Run in slices with NO knowledge of the ready event; stop when the
    // syscall monitor sees the first blocking accept.
    let detector = InitDetector::FirstAccept;
    let mut observed = Vec::new();
    for _ in 0..1000 {
        kernel.run_for(20_000);
        observed.extend(tracer.drain_syscalls());
        if detector.detect(&observed, pid).is_some() {
            break;
        }
    }
    assert!(
        detector.detect(&observed, pid).is_some(),
        "accept observed automatically"
    );
    let init_cov = CovGraph::from_log(&tracer.nudge());

    // Serve, snapshot, diff.
    let conn = kernel.client_connect(lighttpd::PORT).unwrap();
    for _ in 0..3 {
        kernel.client_request(conn, b"GET /\n", 10_000_000).unwrap();
    }
    let serving_cov = CovGraph::from_log(&tracer.snapshot());
    let auto_init = init_only_blocks(&init_cov, &serving_cov).retain_modules(&[lighttpd::MODULE]);

    // The automatically detected init set contains the known init-only
    // functions (config parsing, module init) and none of the serving
    // path.
    let block_key = |offset: u64, size: u32| dynacut_analysis::BlockKey {
        module: lighttpd::MODULE.into(),
        offset,
        size,
    };
    for func in ["lt_parse_config", "lt_plugins_init", "lt_mod_init_00"] {
        let blocks = exe.blocks_of_function(func);
        assert!(
            blocks
                .iter()
                .any(|b| auto_init.contains(&block_key(b.addr, b.size))),
            "{func} detected as init-only"
        );
    }
    for func in ["lt_get_handler", "lt_log_access"] {
        let blocks = exe.blocks_of_function(func);
        assert!(
            blocks
                .iter()
                .all(|b| !auto_init.contains(&block_key(b.addr, b.size))),
            "{func} must not be classified init-only"
        );
    }

    // The syscall-quiescence detector fires once the serving syscalls
    // (read/write/accept) have streamed past the last setup call.
    observed.extend(tracer.drain_syscalls());
    let quiescence = InitDetector::SyscallQuiescence { window: 5 };
    assert!(quiescence.detect(&observed, pid).is_some());
}

/// §5: "dynamically enabling/disabling seccomp filtering" through
/// process rewriting — post-init, the server is restricted to its serving
/// syscalls; anything else (a hijacked `fork`, `open`, `mmap`) kills it
/// with SIGSYS, Ghavamnia-style temporal specialization.
#[test]
fn dynamic_seccomp_filter_via_process_rewriting() {
    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let libc_image = Arc::clone(&spec.libs[0]);
    let pid = kernel.spawn(&spec).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();

    // Post-init, the event loop only needs these.
    let mut dynacut = DynaCut::new(registry);
    let plan = RewritePlan::new()
        .restrict_syscalls(&[
            Sysno::Read,
            Sysno::Write,
            Sysno::Accept,
            Sysno::Close,
            Sysno::Exit,
        ])
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &[pid], &plan).unwrap();

    // Serving is unaffected.
    let conn = kernel.client_connect(lighttpd::PORT).unwrap();
    let reply = kernel.client_request(conn, b"GET /\n", 10_000_000).unwrap();
    assert!(reply.starts_with(b"HTTP/1.1 200"));

    // A hijack that calls libc_open (a filtered syscall) dies with SIGSYS.
    let open_addr = {
        let proc = kernel.process(pid).unwrap();
        let libc_base = proc
            .modules
            .iter()
            .find(|m| m.image.name == "libc")
            .unwrap()
            .base;
        libc_base + libc_image.symbols["libc_open"].offset
    };
    {
        let proc = kernel.process_mut(pid).unwrap();
        proc.cpu.pc = open_addr;
        proc.state = ProcState::Runnable;
    }
    kernel.run_for(1_000_000);
    let status = kernel.exit_status(pid).expect("filter killed the hijack");
    assert_eq!(status.fatal_signal, Some(Signal::Sigsys));
}

/// §5 library unloading: after all features are re-enabled, the stale
/// injected fault-handler library is unloaded from the live process —
/// its pages disappear, its sigaction is reset, and the server keeps
/// serving.
#[test]
fn stale_handler_library_can_be_unloaded() {
    use dynacut::{DynaCut, FaultPolicy, Feature};
    use dynacut_criu::{dump, CheckpointImage, CheckpointStore, DumpOptions};

    let libc = guest_libc();
    let exe = lighttpd::image(&libc);
    let mut kernel = Kernel::new();
    kernel.add_file(lighttpd::CONFIG_PATH, &lighttpd::config_file());
    let spec = LoadSpec::with_libs(exe, vec![libc]);
    let mut registry = ModuleRegistry::new();
    registry.insert(Arc::clone(&spec.exe));
    for lib in &spec.libs {
        registry.insert(Arc::clone(lib));
    }
    let exe = Arc::clone(&spec.exe);
    let pid = kernel.spawn(&spec).unwrap();
    kernel.run_until_event(EVENT_READY, 200_000_000).unwrap();

    // Disable + re-enable PUT: the injected handler library is now dead
    // weight in the address space.
    let mut dynacut = DynaCut::new(registry);
    let put = Feature::from_function("PUT", &exe, "lt_put_handler")
        .unwrap()
        .redirect_to_function(&exe, lighttpd::ERROR_HANDLER)
        .unwrap();
    let plan = RewritePlan::new()
        .disable(put.clone())
        .with_fault_policy(FaultPolicy::Redirect)
        .with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &[pid], &plan).unwrap();
    let plan = RewritePlan::new().enable(put).with_downtime(Downtime::None);
    dynacut.customize(&mut kernel, &[pid], &plan).unwrap();

    // The handler library is mapped under a versioned name.
    let handler_name = kernel
        .process(pid)
        .unwrap()
        .modules
        .iter()
        .map(|m| m.image.name.clone())
        .find(|name| name.starts_with("dc_sighandler"))
        .expect("handler module mapped");

    // Unload it through a manual dump/edit/restore cycle.
    kernel.freeze(pid).unwrap();
    let mut image = dump(&mut kernel, pid, &DumpOptions::default()).unwrap();
    let vmas_before = image.mm.vmas.len();
    let pages = image
        .unload_module(&handler_name, dynacut.registry())
        .expect("unload");
    assert!(pages > 0, "handler pages removed");
    assert!(image.mm.vmas.len() < vmas_before);
    assert!(!image.core.modules.iter().any(|m| m.name == handler_name));
    assert!(
        !image.core.sigactions[dynacut_vm::Signal::Sigtrap.number() as usize].is_handled(),
        "dangling sigaction reset"
    );
    kernel.remove_process(pid).unwrap();
    let checkpoint = CheckpointImage {
        procs: vec![image],
        time_ns: kernel.clock_ns(),
    };
    let mut store = CheckpointStore::new();
    let id = store.put_full(&checkpoint).unwrap();
    store.restore(&mut kernel, id, dynacut.registry()).unwrap();

    // Still serving, PUT included.
    let conn = kernel.client_connect(lighttpd::PORT).unwrap();
    let reply = kernel
        .client_request(conn, b"PUT /f data", 10_000_000)
        .unwrap();
    assert_eq!(reply, dynacut_apps::nginx::RESP_201);
}
